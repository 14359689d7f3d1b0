//! The relationship operator `relation(D1, D2)` (paper Section 4 + 5.3).
//!
//! For two data sets with `n` and `m` indexed functions there are `n × m`
//! candidate relationships per common resolution per feature class. The
//! operator expands all of them into `UnitTask`s — one (function pair,
//! class) evaluation each — which the flat executor (`core/src/executor.rs`)
//! schedules on a single shared worker pool. Each task applies the clause
//! pre-filter and keeps the candidate only if its score survives the
//! restricted Monte Carlo significance test.
//!
//! What a task reads of one function — its features of one class on the
//! pair's overlap window, possibly recomputed from user thresholds —
//! depends on the function and the window, not on the partner, so expansion
//! interns each distinct such *operand* into an `OperandTable` slot and a
//! task carries two slot indices. A slot is prepared by the first task that
//! needs it and read by every other: an `n × m` pair counts `n + m`
//! windows' features (and runs as many threshold scans under custom
//! thresholds), not `2·n·m`. An operand is the entry's own feature set
//! plus a window of steps, read in place in every region row
//! ([`RowWindows`]) by the intersection and by every draw. The index
//! stores its feature sets region-major, and a `thresholds` override scans
//! its field into that layout, so nothing is transposed at query time. The
//! one copy is of a 1-D window of at most 128 steps (a day, week or month
//! series): preparing the operand takes its bits into registers once
//! ([`ShortWindow`]), and the intersection and every rotation read those.
//!
//! Monte Carlo seeds are derived per task with an explicit FNV-1a over a
//! fully framed byte stream, so significance verdicts are reproducible
//! across machines, toolchains and worker counts (`std`'s `DefaultHasher`
//! is documented to change between releases and must never seed a
//! hypothesis test). The stream's left-function part is hashed once per
//! entry, by the first task with the entry on its left, and continued per
//! task.

use crate::cache::Fnv1a;
use crate::error::{Error, Result};
use crate::executor::NameKey;
use crate::framework::CityGeometry;
use crate::index::{FunctionEntry, IndexView};
use crate::query::{Clause, DatasetThresholds};
use crate::relationship::{measures, Relationship, RelationshipMeasures};
use crate::significance::{permutation_p_value, rotation_p_value};
use polygamy_stats::permutation::MonteCarlo;
use polygamy_stdata::{Resolution, ScalarField};
use polygamy_topology::{FeatureClass, FeatureSet, RowWindows, ShortWindow};
use std::sync::OnceLock;

/// One schedulable unit of relationship evaluation: a (left, right)
/// function pair at their shared resolution, for one feature class.
///
/// Every input is resolved at expansion time on the coordinating thread:
/// the two [`OperandTable`] slots carry the entries, their windows and the
/// region adjacency, and the miss names the clause. Workers evaluate tasks
/// in any order while the executor assembles results in canonical task
/// order.
#[derive(Clone, Copy)]
pub(crate) struct UnitTask {
    /// Slot of the left function's features on the pair's window.
    left: u32,
    /// Slot of the right function's features on the pair's window (same
    /// resolution, same window length).
    right: u32,
    /// The (pair, clause) evaluation the task belongs to, as the executor
    /// numbers them: its clause is that miss's.
    pub(crate) miss: u32,
    /// Feature class this task evaluates.
    pub(crate) class: FeatureClass,
}

/// User thresholds that replace a function's precomputed features, with
/// the stored field they are evaluated on.
type ThresholdOverride<'a> = (&'a DatasetThresholds, &'a ScalarField);

/// Bit patterns of an override's (θ⁺, θ⁻): with the entry, the class and
/// the window, what identifies an operand.
fn threshold_bits(custom: Option<ThresholdOverride<'_>>) -> Option<(u64, u64)> {
    custom.map(|(t, _)| (t.theta_pos.to_bits(), t.theta_neg.to_bits()))
}

/// No slot yet.
const NONE: u32 = u32::MAX;

/// One function's features as unit tasks consume them, prepared at most
/// once per dispatch by whichever task asks first.
pub(crate) struct Operand<'a> {
    entry: &'a FunctionEntry,
    /// The entry's first slot: it keeps the seed prefix, and the name is
    /// ranked by it.
    first: u32,
    /// On the entry's first slot: `pair_seed`'s hash state after the base
    /// and the entry's names, what every task with the entry on its left
    /// continues, hashed by the first of them.
    seed: OnceLock<Fnv1a>,
    /// The entry's name, as assemble sorts it.
    name: NameKey<'a>,
    class: FeatureClass,
    /// Steps `[z0, z0 + steps)` of the entry, as `(z0, steps)`.
    window: (usize, usize),
    /// User thresholds replacing the precomputed features.
    custom: Option<ThresholdOverride<'a>>,
    /// Region adjacency of the entry's spatial resolution.
    adjacency: &'a [Vec<u32>],
    /// The entry's previous slot, or [`NONE`].
    next: u32,
    prepared: OnceLock<Prepared>,
}

/// What the first task to read an operand works out for every other.
struct Prepared {
    /// The whole-field features a `thresholds` clause defines (boxed: the
    /// rare case should not size every slot).
    custom: Option<Box<FeatureSet>>,
    /// `|Σ|` of the window.
    count: usize,
    /// The window in registers, if it is one region of at most
    /// [`ShortWindow::MAX_LEN`] steps: what the intersection and every
    /// rotation then read instead of the rows.
    short: Option<ShortWindow>,
}

/// What the unit tasks of a range did, for the executor's counters
/// (observation only): tallied by the thread that ran the range, added up
/// on the coordinating thread.
#[derive(Default, Clone, Copy)]
pub(crate) struct EvalCounts {
    /// Permutations drawn by tasks that reached the significance test.
    pub(crate) permutations: u64,
    /// Significance tests stopped before their last draw.
    pub(crate) tests_stopped: u64,
    /// Sign-count second passes over points both positive and negative.
    pub(crate) overlap_passes: u64,
}

impl std::ops::AddAssign for EvalCounts {
    fn add_assign(&mut self, other: EvalCounts) {
        self.permutations += other.permutations;
        self.tests_stopped += other.tests_stopped;
        self.overlap_passes += other.overlap_passes;
    }
}

/// What a unit task found: the measures and verdict of a relationship the
/// clause keeps. The executor attaches the entries' names on the
/// coordinating thread ([`UnitTask::relationship`]).
pub(crate) struct Verdict {
    measures: RelationshipMeasures,
    p_value: f64,
    significant: bool,
}

impl Verdict {
    /// Score τ of the relationship found.
    pub(crate) fn score(&self) -> f64 {
        self.measures.score
    }
}

impl Operand<'_> {
    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let custom = (self.custom)
                .map(|(thresholds, field)| Box::new(custom_features(field, thresholds)));
            let set = custom
                .as_deref()
                .unwrap_or_else(|| self.entry.features.class(self.class));
            let rows = self.rows_of(set);
            let short = (rows.n_rows() == 1)
                .then(|| ShortWindow::new(&rows.row(0)))
                .flatten();
            let count = short.map_or_else(|| rows.count(), |w| w.count());
            Prepared {
                custom,
                count,
                short,
            }
        })
    }

    /// The window's steps in each region row of the entry's features, or
    /// of those a `thresholds` clause defines: what the intersection sums
    /// and the significance test shifts.
    fn rows(&self) -> RowWindows<'_> {
        let set = match &self.prepared().custom {
            Some(custom) => &**custom,
            None => self.entry.features.class(self.class),
        };
        self.rows_of(set)
    }

    fn rows_of<'s>(&self, set: &'s FeatureSet) -> RowWindows<'s> {
        let (z0, steps) = self.window;
        RowWindows::new(set, self.entry.n_regions, self.entry.n_steps, z0, steps)
    }
}

/// The operands of one dispatch, interned at expansion time on the
/// coordinating thread and shared read-only by the workers. An entry is
/// known by its position in the dispatch's [`IndexView`], so interning
/// hashes nothing: the position indexes the entry's slots (a short chain,
/// one per class and window). Names are the entries' own.
pub(crate) struct OperandTable<'a> {
    /// In interning order.
    slots: Vec<Operand<'a>>,
    /// Per view position, the entry's newest slot, or [`NONE`].
    newest: Vec<u32>,
}

impl<'a> OperandTable<'a> {
    /// A table for a view of `entries` entries, with room for `slots`
    /// operands, so that interning them never moves the slots.
    pub(crate) fn new(entries: usize, slots: usize) -> Self {
        Self {
            slots: Vec::with_capacity(slots),
            newest: vec![NONE; entries],
        }
    }

    /// The slot for the `class` features on `window` of `entry`, at view
    /// position `at`, or for the features `custom` replaces them with.
    fn intern(
        &mut self,
        at: usize,
        entry: &'a FunctionEntry,
        class: FeatureClass,
        window: (usize, usize),
        custom: Option<ThresholdOverride<'a>>,
        adjacency: &'a [Vec<u32>],
    ) -> u32 {
        let mut slot = self.newest[at];
        while slot != NONE {
            let o = &self.slots[slot as usize];
            if (o.class, o.window) == (class, window)
                && threshold_bits(o.custom) == threshold_bits(custom)
            {
                return slot;
            }
            slot = o.next;
        }
        let (first, name) = match self.newest[at] {
            NONE => (self.slots.len() as u32, NameKey::of(&entry.spec.name)),
            newest => {
                let newest = &self.slots[newest as usize];
                (newest.first, newest.name)
            }
        };
        self.slots.push(Operand {
            entry,
            first,
            seed: OnceLock::new(),
            name,
            class,
            window,
            custom,
            adjacency,
            next: self.newest[at],
            prepared: OnceLock::new(),
        });
        self.newest[at] = self.slots.len() as u32 - 1;
        self.newest[at]
    }

    /// The name of every entry reached so far, with its first slot.
    pub(crate) fn names(&self) -> Vec<(NameKey<'a>, u32)> {
        (self.slots.iter().enumerate())
            .filter(|(_, o)| o.next == NONE)
            .map(|(first, o)| (o.name, first as u32))
            .collect()
    }

    fn slot(&self, slot: u32) -> &Operand<'a> {
        &self.slots[slot as usize]
    }

    /// Slots some task has prepared so far.
    pub(crate) fn prepared(&self) -> usize {
        let prepared = |o: &&Operand| o.prepared.get().is_some();
        self.slots.iter().filter(prepared).count()
    }
}

/// One side of a pair as one miss's expansion meets it: the operand slots
/// its entry was last interned at, per class, and on which window. Within a
/// miss an entry's override is fixed, and its window is the same for
/// nearly every partner (the data set's time range), so a side is looked
/// up in the [`OperandTable`] once per class per miss, not once per task.
#[derive(Clone, Copy, Default)]
struct Side {
    window: (usize, usize),
    /// By [`FeatureClass::ALL`] position.
    slots: [Option<u32>; 2],
}

impl Side {
    /// The slot of the `class` operand of `(view position, entry, window,
    /// override)`.
    fn slot<'a>(
        &mut self,
        operands: &mut OperandTable<'a>,
        (at, entry, window, custom): (
            usize,
            &'a FunctionEntry,
            (usize, usize),
            Option<ThresholdOverride<'a>>,
        ),
        class: FeatureClass,
        adjacency: &'a [Vec<u32>],
    ) -> u32 {
        if self.window != window {
            *self = Side {
                window,
                slots: [None; 2],
            };
        }
        let class_at = match class {
            FeatureClass::Salient => 0,
            FeatureClass::Extreme => 1,
        };
        *self.slots[class_at]
            .get_or_insert_with(|| operands.intern(at, entry, class, window, custom, adjacency))
    }
}

/// A dispatch's expansion: the operands its misses intern, and their unit
/// tasks in canonical order, each with its estimated cost
/// ([`estimated_ns`]).
pub(crate) struct Expansion<'a> {
    pub(crate) operands: OperandTable<'a>,
    pub(crate) tasks: Vec<UnitTask>,
    pub(crate) costs: Vec<u64>,
}

impl<'a> Expansion<'a> {
    /// An empty expansion over `index`, with room for every operand the
    /// data set pairs `pairs` can intern — each entry they reach, per
    /// class — unless some pair's windows differ. With no pairs (a batch
    /// the cache answered) it allocates nothing.
    pub(crate) fn new(index: &IndexView<'_>, pairs: impl Iterator<Item = (usize, usize)>) -> Self {
        let reached: usize = pairs
            .map(|(d1, d2)| index.functions_of(d1).len() + index.functions_of(d2).len())
            .sum();
        let entries = if reached == 0 { 0 } else { index.n_entries() };
        let slots = reached.min(entries) * FeatureClass::ALL.len();
        Self {
            operands: OperandTable::new(entries, slots),
            tasks: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// Expands `relation(d1, d2)` under `clause` — the executor's miss
    /// number `miss` — into unit tasks, appended in canonical order: left
    /// entries in index order, right entries in index order, classes in
    /// [`FeatureClass::ALL`] order.
    ///
    /// What workers index by is validated here, on the coordinating
    /// thread — a typed error, never a worker panic: an indexed resolution
    /// with no geometry partition ([`Error::MissingGeometry`]) or one of
    /// another region count ([`Error::GeometryMismatch`]), and a
    /// `thresholds` clause over a function with no stored field
    /// ([`Error::MissingField`]).
    pub(crate) fn expand_pair<'v: 'a>(
        &mut self,
        index: &IndexView<'v>,
        geometry: &'a CityGeometry,
        (d1, d2): (usize, usize),
        clause: &'a Clause,
        miss: u32,
    ) -> Result<()> {
        let Self {
            operands,
            tasks,
            costs,
        } = self;
        let (first_left, first_right) =
            (index.positions_of(d1).start, index.positions_of(d2).start);
        let rights = index.functions_of(d2);
        let mut right_sides = vec![Side::default(); rights.len()];
        // The right entries by resolution, in view order within each: a left
        // entry meets only those at its own.
        let mut by_resolution: Vec<usize> = (0..rights.len()).collect();
        by_resolution.sort_by_key(|&j| rights[j].resolution);
        for (i, &e1) in index.functions_of(d1).iter().enumerate() {
            if !clause.admits_resolution(e1.resolution) {
                continue;
            }
            let (mut left_side, mut adjacency) = (Side::default(), None);
            let from = by_resolution.partition_point(|&j| rights[j].resolution < e1.resolution);
            for &j in &by_resolution[from..] {
                let e2 = rights[j];
                if e2.resolution != e1.resolution {
                    break;
                }
                let right_side = &mut right_sides[j];
                let Some((start, n_steps)) = e1.overlap(e2) else {
                    continue;
                };
                let adjacency = match adjacency {
                    Some(adjacency) => adjacency,
                    None => *adjacency.insert(region_adjacency(geometry, e1)?),
                };
                // User-defined thresholds replace the salient features of the
                // named data set's functions and suppress the extreme class for
                // the pair (a single threshold pair defines a single feature
                // set).
                let (custom1, custom2) = (
                    threshold_override(e1, clause)?,
                    threshold_override(e2, clause)?,
                );
                let overridden = custom1.is_some() || custom2.is_some();
                // `overlap` starts at or after both entries' first buckets.
                let window1 = ((start - e1.start_bucket) as usize, n_steps);
                let window2 = ((start - e2.start_bucket) as usize, n_steps);
                let cost = estimated_ns(n_steps * e1.n_regions, clause);
                for class in FeatureClass::ALL {
                    if !clause.admits_class(class) {
                        continue;
                    }
                    if overridden && class == FeatureClass::Extreme {
                        continue;
                    }
                    let left = (first_left + i, e1, window1, custom1);
                    let right = (first_right + j, e2, window2, custom2);
                    tasks.push(UnitTask {
                        left: left_side.slot(operands, left, class, adjacency),
                        right: right_side.slot(operands, right, class, adjacency),
                        miss,
                        class,
                    });
                    costs.push(cost);
                }
            }
        }
        Ok(())
    }
}

/// Window vertices a unit task passes over per nanosecond: one pass for the
/// intersection, one per permutation, each a sign-count sweep of both
/// operands' two bit vectors. Measured on the reference sandbox over the
/// `explore_urban` queries and the open corpus's hour × hour pairs, and
/// re-measured for the two-popcount kernel (docs/architecture.md, "The
/// evaluate dispatch"); an estimate for scheduling, so only its order of
/// magnitude matters.
const VERTEX_PASSES_PER_NS: u64 = 8;

/// Estimated single-thread nanoseconds of [`evaluate_unit`] on a task over
/// `vertices` window vertices: vertices × (1 + permutations). What the pool
/// cuts its ranges by — a task the clause prunes after its intersection
/// costs less, and a tiny window's fixed cost is invisible here, which
/// unbalances a range, never a result.
fn estimated_ns(vertices: usize, clause: &Clause) -> u64 {
    let passes = 1 + clause.permutations as u64;
    (vertices as u64).saturating_mul(passes) / VERTEX_PASSES_PER_NS
}

impl UnitTask {
    /// The first slots of the task's left and right entries, by which
    /// their names are ranked.
    pub(crate) fn names(&self, operands: &OperandTable<'_>) -> (u32, u32) {
        (
            operands.slot(self.left).first,
            operands.slot(self.right).first,
        )
    }

    /// The resolution both functions share.
    pub(crate) fn resolution(&self, operands: &OperandTable<'_>) -> Resolution {
        operands.slot(self.left).entry.resolution
    }

    /// The relationship this task found, named with its entries' own
    /// names.
    pub(crate) fn relationship(
        &self,
        operands: &OperandTable<'_>,
        found: &Verdict,
    ) -> Relationship {
        let (left, right) = (operands.slot(self.left), operands.slot(self.right));
        Relationship {
            left: left.entry.spec.name.clone(),
            right: right.entry.spec.name.clone(),
            resolution: self.resolution(operands),
            class: self.class,
            measures: found.measures,
            p_value: found.p_value,
            significant: found.significant,
        }
    }
}

/// Evaluates one unit task. Pure: the result depends only on the task,
/// never on scheduling, which is what makes the flat executor's output
/// worker-count-independent. `clause` is the task's miss's. Adds what it
/// did to `counts` (observation only).
pub(crate) fn evaluate_unit(
    task: &UnitTask,
    operands: &OperandTable<'_>,
    clause: &Clause,
    counts: &mut EvalCounts,
) -> Option<Verdict> {
    let class = task.class;
    let (left, right) = (operands.slot(task.left), operands.slot(task.right));
    let (e1, e2) = (left.entry, right.entry);
    let mc = MonteCarlo {
        permutations: clause.permutations,
        alpha: clause.alpha,
        ..MonteCarlo::default()
    };
    let (left_prepared, right_prepared) = (left.prepared(), right.prepared());
    // Both sides share the resolution and the window's length, so both or
    // neither are held in registers.
    let short = left_prepared.short.zip(right_prepared.short);
    let meet = match short {
        Some((l, r)) => l.intersect(&r),
        None => left.rows().intersect(&right.rows()),
    };
    counts.overlap_passes += meet.0.overlap_passes as u64;
    let measures = measures(meet, left_prepared.count, right_prepared.count);
    if measures.related_count() == 0 {
        return None;
    }
    // Clause pre-filter: skip the expensive significance test when the
    // clause already rejects the candidate (paper Section 6.1).
    if measures.score.abs() < clause.min_score || measures.strength < clause.min_strength {
        return None;
    }
    let prefix = operands
        .slot(left.first)
        .seed
        .get_or_init(|| seed_prefix(BASE_SEED, e1));
    let seed = continue_seed(prefix.clone(), e2, e1.resolution, class);
    let significant_only = clause.significant_only;
    let tested = match short {
        Some((l, r)) => rotation_p_value(l, r, measures.score, &mc, seed, significant_only),
        None => permutation_p_value(
            left.rows(),
            right.rows(),
            left.adjacency,
            measures.score,
            &mc,
            clause.scheme.unwrap_or_default(),
            seed,
            significant_only,
        ),
    };
    counts.permutations += tested.draws as u64;
    counts.overlap_passes += tested.overlap_passes as u64;
    let Some(p) = tested.p else {
        // Stopped: the pair cannot be significant, and the clause drops it.
        counts.tests_stopped += 1;
        return None;
    };
    let significant = mc.is_significant(p);
    if significant_only && !significant {
        return None;
    }
    Some(Verdict {
        measures,
        p_value: p,
        significant,
    })
}

/// The region adjacency of `entry`'s spatial resolution, checked against
/// its region count.
fn region_adjacency<'a>(
    geometry: &'a CityGeometry,
    entry: &FunctionEntry,
) -> Result<&'a [Vec<u32>]> {
    let spatial = entry.resolution.spatial;
    let adjacency = (geometry.adjacency(spatial)).ok_or(Error::MissingGeometry(spatial))?;
    if adjacency.len() != entry.n_regions {
        return Err(Error::GeometryMismatch {
            resolution: spatial,
            geometry_regions: adjacency.len(),
            function_regions: entry.n_regions,
        });
    }
    Ok(adjacency)
}

/// The user thresholds in `clause` that replace this entry's precomputed
/// features, if any, with the stored field they are evaluated on. A clause
/// naming a data set whose entry has no field is an error: the precomputed
/// features are not an answer to the thresholds the user gave.
fn threshold_override<'a>(
    entry: &'a FunctionEntry,
    clause: &'a Clause,
) -> Result<Option<ThresholdOverride<'a>>> {
    let named = |t: &&DatasetThresholds| *t.dataset == *entry.spec.name.dataset;
    let Some(thresholds) = clause.thresholds.iter().find(named) else {
        return Ok(None);
    };
    match &entry.field {
        Some(field) => Ok(Some((thresholds, field))),
        None => Err(Error::MissingField(entry.spec.name.clone())),
    }
}

/// Recomputes a function's features from user-supplied thresholds: level-set
/// membership is pointwise (f(v) against θ), so no tree or graph is built.
/// Region-major, like the precomputed features they replace.
fn custom_features(field: &ScalarField, t: &DatasetThresholds) -> FeatureSet {
    FeatureSet::scan(&field.values, field.n_regions, t.theta_pos, t.theta_neg)
}

/// The base every per-unit Monte Carlo seed is derived from.
const BASE_SEED: u64 = 0xDA7A_9A17;

/// Derives the Monte Carlo seed for one (function pair, class) unit.
///
/// Seeds decide which permutations the significance test draws, so they
/// must be *stable*: the same query must reach the same verdict on every
/// machine, toolchain and worker count. The derivation is an explicit
/// FNV-1a over a fully framed byte stream (length-prefixed strings, stable
/// resolution wire codes) — the same scheme `Clause::cache_key` uses — and
/// is pinned by the `seed_format_pinned` regression test.
///
/// The executor hashes the left function's part once per entry
/// ([`seed_prefix`]) and continues it per task ([`continue_seed`]); the
/// stream, and so the seed, is the same.
#[cfg(test)]
fn pair_seed(base: u64, e1: &FunctionEntry, e2: &FunctionEntry, class: FeatureClass) -> u64 {
    continue_seed(seed_prefix(base, e1), e2, e1.resolution, class)
}

/// `pair_seed`'s hash state after the base and the left function's names.
fn seed_prefix(base: u64, e1: &FunctionEntry) -> Fnv1a {
    let mut h = Fnv1a::new();
    h.write_u64(base);
    h.write_str(&e1.spec.name.dataset);
    h.write_str(&e1.spec.name.function);
    h
}

/// `pair_seed` from the left function's [`seed_prefix`] on: the right
/// function's names, the shared resolution and the class.
fn continue_seed(
    mut h: Fnv1a,
    e2: &FunctionEntry,
    resolution: Resolution,
    class: FeatureClass,
) -> u64 {
    h.write_str(&e2.spec.name.dataset);
    h.write_str(&e2.spec.name.function);
    h.write_u8(resolution.spatial.code());
    h.write_u8(resolution.temporal.code());
    h.write_u8(match class {
        FeatureClass::Salient => 1,
        FeatureClass::Extreme => 2,
    });
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{CityGeometry, Config, DataPolygamy};
    use crate::function::{FunctionRef, FunctionSpec};
    use crate::query::Clause;
    use crate::relationship::evaluate_features;
    use polygamy_stdata::{
        AttributeMeta, DatasetBuilder, DatasetMeta, GeoPoint, Resolution, SpatialResolution,
        TemporalResolution,
    };
    use polygamy_topology::FeatureSets;
    use std::sync::Arc;

    /// Two city-resolution hourly data sets with attribute spikes at the
    /// same instants (strong positive relationship) plus an unrelated flat
    /// attribute.
    fn corpus() -> DataPolygamy {
        let geometry = CityGeometry::city_only(0.0, 0.0, 10.0, 10.0);
        let mut dp = DataPolygamy::new(geometry, Config::fast_test());
        let spikes = [240usize, 700, 1200, 1800, 2100];
        for (name, offset) in [("alpha", 0.0), ("beta", 1000.0)] {
            let meta = DatasetMeta {
                name: name.into(),
                spatial_resolution: SpatialResolution::City,
                temporal_resolution: TemporalResolution::Hour,
                description: String::new(),
            };
            let mut b = DatasetBuilder::new(meta)
                .attribute(AttributeMeta::named("signal"))
                .attribute(AttributeMeta::named("flat"));
            for h in 0..2400i64 {
                let base = ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
                let spike = if spikes.contains(&(h as usize)) {
                    40.0
                } else {
                    0.0
                };
                b.push(
                    GeoPoint::new(5.0, 5.0),
                    h * 3_600,
                    &[offset + base + spike, offset + 1.0 + (h % 2) as f64 * 0.001],
                )
                .unwrap();
            }
            dp.add_dataset(b.build().unwrap());
        }
        dp.build_index();
        dp
    }

    #[test]
    fn finds_planted_relationship() {
        let dp = corpus();
        let rels = dp.relation("alpha", "beta").unwrap();
        let signal = rels
            .iter()
            .find(|r| &*r.left.function == "avg(signal)" && &*r.right.function == "avg(signal)");
        let signal = signal.expect("planted signal~signal relationship missing");
        assert!(signal.score() > 0.8, "τ = {}", signal.score());
        assert!(signal.significant);
    }

    /// An indexed function is named once: its entries at every resolution
    /// hold one [`FunctionRef`], and a data set's functions one data set
    /// name.
    #[test]
    fn an_indexed_functions_entries_share_one_name() {
        let dp = corpus();
        let functions = &dp.index().unwrap().functions;
        let mut resolutions = 0;
        for a in functions {
            for b in functions
                .iter()
                .filter(|b| b.dataset_index == a.dataset_index)
            {
                let (x, y) = (&a.spec.name, &b.spec.name);
                assert!(Arc::ptr_eq(&x.dataset, &y.dataset), "{x} vs {y}");
                if x == y {
                    assert!(Arc::ptr_eq(&x.function, &y.function), "{x}");
                    resolutions += usize::from(a.resolution != b.resolution);
                }
            }
        }
        assert!(
            resolutions > 0,
            "some function is indexed at several resolutions"
        );
    }

    /// Every relationship's names are the `Arc`s of the entries it came
    /// from — the executor makes no name of its own — and render as
    /// freshly allocated names do.
    #[test]
    fn relationships_of_one_function_share_its_names() {
        let dp = corpus();
        let functions = &dp.index().unwrap().functions;
        let rels = dp
            .query(
                &crate::query::RelationshipQuery::between(&["alpha"], &["beta"])
                    .with_clause(Clause::default().permutations(20).include_insignificant()),
            )
            .unwrap();
        assert!(!rels.is_empty());
        for r in &rels {
            for f in [&r.left, &r.right] {
                let entry = (functions.iter())
                    .find(|e| e.spec.name == *f && e.resolution == r.resolution)
                    .expect("a relationship names indexed entries");
                assert!(Arc::ptr_eq(&entry.spec.name.dataset, &f.dataset), "{f}");
                assert!(Arc::ptr_eq(&entry.spec.name.function, &f.function), "{f}");
            }
            // And renders the bytes a relationship with fresh names does.
            let fresh = |f: &FunctionRef| FunctionRef {
                dataset: (*f.dataset).into(),
                function: (*f.function).into(),
            };
            let copy = Relationship {
                left: fresh(&r.left),
                right: fresh(&r.right),
                ..r.clone()
            };
            let (mut json, mut copied) = (String::new(), String::new());
            r.write_json(&mut json).unwrap();
            copy.write_json(&mut copied).unwrap();
            assert_eq!(json, copied);
        }
    }

    #[test]
    fn clause_prefilter_prunes() {
        let dp = corpus();
        let all = dp
            .query(
                &crate::query::RelationshipQuery::between(&["alpha"], &["beta"])
                    .with_clause(Clause::default().permutations(60).include_insignificant()),
            )
            .unwrap();
        let strict = dp
            .query(
                &crate::query::RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(
                    Clause::default()
                        .permutations(60)
                        .include_insignificant()
                        .min_score(0.8),
                ),
            )
            .unwrap();
        assert!(strict.len() <= all.len());
        assert!(strict.iter().all(|r| r.score().abs() >= 0.8));
    }

    #[test]
    fn resolution_filter() {
        let dp = corpus();
        let hourly =
            polygamy_stdata::Resolution::new(SpatialResolution::City, TemporalResolution::Hour);
        let rels = dp
            .query(
                &crate::query::RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(
                    Clause::default()
                        .permutations(60)
                        .include_insignificant()
                        .at_resolution(hourly),
                ),
            )
            .unwrap();
        assert!(!rels.is_empty());
        assert!(rels.iter().all(|r| r.resolution == hourly));
    }

    #[test]
    fn custom_thresholds_used() {
        let dp = corpus();
        // Absurdly high thresholds on alpha: no features -> no relationships.
        let rels = dp
            .query(
                &crate::query::RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(
                    Clause::default()
                        .permutations(40)
                        .include_insignificant()
                        .with_thresholds("alpha", 1e12, -1e12),
                ),
            )
            .unwrap();
        assert!(
            rels.is_empty(),
            "expected no features above 1e12, got {} rels",
            rels.len()
        );
    }

    #[test]
    fn thresholds_query_prepares_each_operand_once() {
        use crate::significance::significance_test;
        let dp = corpus();
        let index = dp.index().unwrap();
        let clause = Clause::default()
            .permutations(25)
            .include_insignificant()
            .with_thresholds("alpha", 20.0, -0.5);
        let query = crate::query::RelationshipQuery::between(&["alpha"], &["beta"])
            .with_clause(clause.clone());
        let (got, trace) = polygamy_obs::trace::record(|| dp.query(&query).unwrap());

        // What the clause means, pair by pair, with nothing shared: alpha's
        // features rebuilt from its thresholds inside every pair.
        let (alphas, betas): (Vec<_>, Vec<_>) = (
            index.functions_of(0).collect(),
            index.functions_of(1).collect(),
        );
        let adjacency = [Vec::new()];
        let (mut expected, mut n_tasks, mut n_tested) = (Vec::new(), 0u64, 0u64);
        for &e1 in &alphas {
            for &e2 in betas.iter().filter(|e2| e1.overlap(e2).is_some()) {
                n_tasks += 1;
                let (start, len) = e1.overlap(e2).unwrap();
                let (lo1, hi1) = e1.vertex_range(start, len);
                let (lo2, hi2) = e2.vertex_range(start, len);
                let field = e1.field.as_ref().expect("indexing keeps fields");
                let f1 = custom_features(field, &clause.thresholds[0]).slice(lo1, hi1);
                let f2 = e2.features.salient.slice(lo2, hi2);
                let measures = evaluate_features(&f1, &f2);
                if measures.related_count() == 0 {
                    continue;
                }
                n_tested += 1;
                let mc = MonteCarlo {
                    permutations: clause.permutations,
                    alpha: clause.alpha,
                    ..MonteCarlo::default()
                };
                let seed = pair_seed(0xDA7A_9A17, e1, e2, FeatureClass::Salient);
                let scheme = crate::significance::PermutationScheme::Paper;
                let p =
                    significance_test(&f1, &f2, &adjacency, len, measures.score, &mc, scheme, seed);
                expected.push(Relationship {
                    left: FunctionRef::from(&e1.spec),
                    right: FunctionRef::from(&e2.spec),
                    resolution: e1.resolution,
                    class: FeatureClass::Salient,
                    measures,
                    p_value: p,
                    significant: mc.is_significant(p),
                });
            }
        }
        crate::executor::sort_relationships(&mut expected);
        assert!(!expected.is_empty(), "thresholds chosen to leave features");
        assert_eq!(got, expected);

        // Same-shaped data sets: every pair shares one window, so each
        // function is one operand however many partners it meets — alpha's
        // threshold scan runs once per function, not once per pair.
        assert_eq!(
            trace.counter(polygamy_obs::names::CORE_TASKS_EXPANDED),
            n_tasks
        );
        assert!(n_tasks > (alphas.len() + betas.len()) as u64);
        let prepared = (alphas.len() + betas.len()) as u64;
        assert_eq!(
            trace.counter(polygamy_obs::names::CORE_OPERANDS_PREPARED),
            prepared
        );
        assert_eq!(
            trace.counter(polygamy_obs::names::CORE_OPERAND_REUSES),
            2 * n_tasks - prepared
        );
        assert_eq!(
            trace.counter(polygamy_obs::names::CORE_PERMUTATIONS_RUN),
            25 * n_tested
        );
    }

    #[test]
    fn thresholds_without_a_field_are_a_typed_error() {
        use crate::cache::QueryCache;
        use crate::executor::run_query;
        let dp = corpus();
        let mut index = dp.index().unwrap().clone();
        for entry in &mut index.functions {
            if &*entry.spec.name.dataset == "alpha" {
                entry.field = None;
            }
        }
        let cache = QueryCache::new(16);
        let run = |dataset: &str| {
            let clause = Clause::default()
                .permutations(25)
                .include_insignificant()
                .with_thresholds(dataset, 20.0, -0.5);
            let query =
                crate::query::RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(clause);
            run_query(&index, dp.geometry(), dp.config(), &cache, &query)
        };
        // Naming the field-less data set is refused — not answered from its
        // precomputed features — and nothing is cached under the clause.
        let err = run("alpha").unwrap_err();
        assert!(
            matches!(&err, Error::MissingField(f) if &*f.dataset == "alpha"),
            "{err:?}"
        );
        assert!(err.to_string().contains("alpha"));
        assert_eq!(cache.len(), 0);
        // Naming the side that kept its fields needs nothing of alpha's.
        assert!(!run("beta").unwrap().is_empty());
    }

    fn seed_entry(dataset: &str, function: &str) -> FunctionEntry {
        let steps = 4;
        let mut spec = FunctionSpec::density(dataset);
        spec.name.function = function.into();
        FunctionEntry {
            spec,
            dataset_index: 0,
            resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            n_regions: 1,
            start_bucket: 0,
            n_steps: steps,
            features: FeatureSets {
                salient: FeatureSet::empty(steps),
                extreme: FeatureSet::empty(steps),
            },
            field: None,
        }
    }

    #[test]
    fn a_null_pair_stops_under_the_default_clause_only() {
        // Features at nine of every ten steps on both sides: every rotation
        // relates them as fully as the data does, so every permuted τ ties
        // the observed one and the two-sided p-value is 1. At |m| = 100 the
        // bound passes α = 0.05 on the third draw.
        let steps = 200;
        let mut features = FeatureSet::empty(steps);
        for i in (0..steps).filter(|i| i % 10 != 0) {
            features.pos.set(i);
        }
        let mut taxi = seed_entry("taxi", "density");
        let mut wind = seed_entry("weather", "avg(wind)");
        for entry in [&mut taxi, &mut wind] {
            entry.n_steps = steps;
            entry.features.salient = features.clone();
            entry.features.extreme = FeatureSet::empty(steps);
        }
        let run = |clause: &Clause| {
            let mut operands = OperandTable::new(2, 2);
            let class = FeatureClass::Salient;
            let task = UnitTask {
                left: operands.intern(0, &taxi, class, (0, steps), None, &[]),
                right: operands.intern(1, &wind, class, (0, steps), None, &[]),
                miss: 0,
                class,
            };
            let mut counts = EvalCounts::default();
            let found = evaluate_unit(&task, &operands, clause, &mut counts);
            (found, counts.permutations, counts.tests_stopped)
        };
        let (found, draws, stopped) = run(&Clause::default().permutations(100));
        assert!(found.is_none());
        assert_eq!((draws, stopped), (3, 1));
        let (found, draws, stopped) =
            run(&Clause::default().permutations(100).include_insignificant());
        let found = found.expect("include insignificant keeps the pair");
        assert_eq!((found.p_value, found.significant), (1.0, false));
        assert_eq!((draws, stopped), (100, 0));
    }

    #[test]
    fn seed_format_pinned() {
        // Permutation seeds feed published significance verdicts, so the
        // derivation is pinned the same way `Clause::cache_key` is: if this
        // assertion fires, the seed scheme changed and previously reported
        // p-values are no longer reproducible — that is a breaking change
        // and must be called out, not slipped in.
        let taxi = seed_entry("taxi", "density");
        let wind = seed_entry("weather", "avg(wind)");
        assert_eq!(
            pair_seed(0xDA7A_9A17, &taxi, &wind, FeatureClass::Salient),
            0xebdc_d204_d13e_7ce2
        );
        assert_eq!(
            pair_seed(0xDA7A_9A17, &taxi, &wind, FeatureClass::Extreme),
            0xebdc_d104_d13e_7b2f
        );
        assert_eq!(
            pair_seed(7, &taxi, &wind, FeatureClass::Salient),
            0xb197_9dce_0287_7080
        );
    }

    #[test]
    fn seeds_distinguish_units() {
        let taxi = seed_entry("taxi", "density");
        let wind = seed_entry("weather", "avg(wind)");
        let base = 1;
        let s = pair_seed(base, &taxi, &wind, FeatureClass::Salient);
        // Class, orientation, base seed and resolution all change the seed.
        assert_ne!(s, pair_seed(base, &taxi, &wind, FeatureClass::Extreme));
        assert_ne!(s, pair_seed(base, &wind, &taxi, FeatureClass::Salient));
        assert_ne!(s, pair_seed(base + 1, &taxi, &wind, FeatureClass::Salient));
        let mut daily = seed_entry("taxi", "density");
        daily.resolution = Resolution::new(SpatialResolution::City, TemporalResolution::Day);
        assert_ne!(s, pair_seed(base, &daily, &wind, FeatureClass::Salient));
    }
}
