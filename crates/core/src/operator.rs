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
//! What a task reads of one function — its features of one class, cropped
//! to the pair's overlap window, possibly recomputed from user thresholds —
//! depends on the function and the window, not on the partner, so expansion
//! interns each distinct such *operand* into an `OperandTable` slot and a
//! task carries two slot indices. A slot is prepared by the first task that
//! needs it and read by every other: an `n × m` pair prepares `n + m`
//! windows (and threshold scans under custom thresholds), not `2·n·m`.
//!
//! The region-major rows a spatial significance test shifts outlive the
//! dispatch: the whole-field rows of a function's precomputed features are
//! memoised on its index entry ([`FunctionEntry::region_rows`]), so they
//! are transposed once per entry and class, and an operand borrows them
//! (whole-field window) or crops each row to its window. Only a
//! `thresholds` override, whose features exist for one clause, still
//! transposes per dispatch.
//!
//! Monte Carlo seeds are derived per task with an explicit FNV-1a over a
//! fully framed byte stream, so significance verdicts are reproducible
//! across machines, toolchains and worker counts (`std`'s `DefaultHasher`
//! is documented to change between releases and must never seed a
//! hypothesis test).

use crate::cache::Fnv1a;
use crate::error::{Error, Result};
use crate::framework::CityGeometry;
use crate::function::FunctionRef;
use crate::index::{FunctionEntry, IndexView};
use crate::query::{Clause, DatasetThresholds};
use crate::relationship::{evaluate_features, Relationship};
use crate::significance::permutation_p_value;
use polygamy_obs::Counter;
use polygamy_stats::permutation::MonteCarlo;
use polygamy_stdata::ScalarField;
use polygamy_topology::{FeatureClass, FeatureSet};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One schedulable unit of relationship evaluation: a (left, right)
/// function pair at their shared resolution, for one feature class.
///
/// Tasks are self-contained — every input is resolved at expansion time on
/// the coordinating thread — so workers evaluate them in any order while
/// the executor assembles results in canonical task order.
#[derive(Clone, Copy)]
pub(crate) struct UnitTask<'a> {
    /// Left function entry.
    pub(crate) e1: &'a FunctionEntry,
    /// Right function entry (same resolution as `e1`).
    pub(crate) e2: &'a FunctionEntry,
    /// [`OperandTable`] slot of `e1`'s features on the pair's window.
    left: usize,
    /// [`OperandTable`] slot of `e2`'s features on the pair's window.
    right: usize,
    /// Feature class this task evaluates.
    pub(crate) class: FeatureClass,
    /// The query clause (pre-filters, permutation setup, thresholds).
    pub(crate) clause: &'a Clause,
    /// Region adjacency of the shared spatial resolution.
    pub(crate) adjacency: &'a [Vec<u32>],
}

/// What identifies an operand: which function, which of its feature sets
/// (class, or the user thresholds that replace it), which vertex window.
#[derive(PartialEq, Eq, Hash)]
struct OperandKey {
    /// Address of the entry — entries are pinned for the whole dispatch, so
    /// the address is the function's identity, and cheaper than its names.
    entry: usize,
    class: FeatureClass,
    window: (usize, usize),
    /// Bit patterns of the overriding (θ⁺, θ⁻), if any.
    thresholds: Option<(u64, u64)>,
}

/// User thresholds that replace a function's precomputed features, with
/// the stored field they are evaluated on.
type ThresholdOverride<'a> = (&'a DatasetThresholds, &'a ScalarField);

/// One function's features as unit tasks consume them, prepared at most
/// once per dispatch by whichever task asks first.
pub(crate) struct Operand<'a> {
    entry: &'a FunctionEntry,
    class: FeatureClass,
    /// Vertex range `[lo, hi)` of the entry's field.
    window: (usize, usize),
    /// User thresholds replacing the precomputed features.
    custom: Option<ThresholdOverride<'a>>,
    features: OnceLock<Cow<'a, FeatureSet>>,
    /// The window's rows, where they are not the entry's own.
    rows: OnceLock<Vec<FeatureSet>>,
}

/// What the unit tasks of one dispatch did, for the executor's counters
/// (observation only).
#[derive(Default)]
pub(crate) struct EvalCounts {
    /// Permutations run by tasks that reached the significance test.
    pub(crate) permutations: Counter,
    /// Region-major transposes performed.
    pub(crate) rows_built: Counter,
}

impl Operand<'_> {
    /// The features on the window, in the index's time-major layout;
    /// borrowed from the index when the window is the whole field.
    fn features(&self) -> &FeatureSet {
        self.features.get_or_init(|| {
            let source = match self.custom {
                Some((thresholds, field)) => Cow::Owned(custom_features(field, thresholds)),
                None => Cow::Borrowed(self.entry.features.class(self.class)),
            };
            let (lo, hi) = self.window;
            if (lo, hi) == (0, source.pos.len()) {
                source
            } else {
                Cow::Owned(source.slice(lo, hi))
            }
        })
    }

    /// One row of the window's time steps per region — what the
    /// significance test shifts. A 1-D domain's only row is the window; a
    /// spatial domain's rows are the entry's memoised whole-field rows,
    /// borrowed when the window is the whole field and cropped row by row
    /// otherwise. Features a `thresholds` clause defines have no rows
    /// beyond this dispatch and are transposed here.
    fn rows(&self, rows_built: &Counter) -> &[FeatureSet] {
        let n_regions = self.entry.n_regions;
        if n_regions <= 1 {
            return std::slice::from_ref(self.features());
        }
        let (z0, z1) = (self.window.0 / n_regions, self.window.1 / n_regions);
        if self.custom.is_some() {
            return self.rows.get_or_init(|| {
                rows_built.inc();
                self.features().region_major(n_regions, z1 - z0)
            });
        }
        let whole = || {
            self.entry
                .region_rows_noting(self.class, || rows_built.inc())
        };
        if (z0, z1) == (0, self.entry.n_steps) {
            return whole();
        }
        self.rows
            .get_or_init(|| whole().iter().map(|row| row.slice(z0, z1)).collect())
    }
}

/// The operands of one dispatch, interned at expansion time on the
/// coordinating thread and shared read-only by the workers.
#[derive(Default)]
pub(crate) struct OperandTable<'a> {
    slots: Vec<Operand<'a>>,
    slot_of: HashMap<OperandKey, usize>,
}

impl<'a> OperandTable<'a> {
    /// The slot for `entry`'s `class` features on `window`, or for the
    /// features `custom` replaces them with.
    fn intern(
        &mut self,
        entry: &'a FunctionEntry,
        class: FeatureClass,
        window: (usize, usize),
        custom: Option<ThresholdOverride<'a>>,
    ) -> usize {
        let key = OperandKey {
            entry: std::ptr::from_ref(entry) as usize,
            class,
            window,
            thresholds: custom.map(|(t, _)| (t.theta_pos.to_bits(), t.theta_neg.to_bits())),
        };
        *self.slot_of.entry(key).or_insert_with(|| {
            self.slots.push(Operand {
                entry,
                class,
                window,
                custom,
                features: OnceLock::new(),
                rows: OnceLock::new(),
            });
            self.slots.len() - 1
        })
    }

    /// Slots some task has prepared so far.
    pub(crate) fn prepared(&self) -> usize {
        let prepared = |o: &&Operand| o.features.get().is_some();
        self.slots.iter().filter(prepared).count()
    }
}

/// Expands `relation(d1, d2)` under `clause` into unit tasks, appended to
/// `out` in canonical order: left entries in index order, right entries in
/// index order, classes in [`FeatureClass::ALL`] order. Their operands are
/// interned into `operands`.
///
/// What workers index by is validated here, on the coordinating thread —
/// a typed error, never a worker panic: an indexed resolution with no
/// geometry partition ([`Error::MissingGeometry`]) or one of another region
/// count ([`Error::GeometryMismatch`]), and a `thresholds` clause over a
/// function with no stored field ([`Error::MissingField`]).
pub(crate) fn expand_pair_tasks<'a>(
    index: &IndexView<'a>,
    geometry: &'a CityGeometry,
    d1: usize,
    d2: usize,
    clause: &'a Clause,
    operands: &mut OperandTable<'a>,
    out: &mut Vec<UnitTask<'a>>,
) -> Result<()> {
    for e1 in index.functions_of(d1) {
        if !clause.admits_resolution(e1.resolution) {
            continue;
        }
        for e2 in index.functions_of(d2) {
            if e1.resolution != e2.resolution {
                continue;
            }
            let Some((start, n_steps)) = e1.overlap(e2) else {
                continue;
            };
            let adjacency = geometry
                .adjacency(e1.resolution.spatial)
                .ok_or(Error::MissingGeometry(e1.resolution.spatial))?;
            if adjacency.len() != e1.n_regions {
                return Err(Error::GeometryMismatch {
                    resolution: e1.resolution.spatial,
                    geometry_regions: adjacency.len(),
                    function_regions: e1.n_regions,
                });
            }
            // User-defined thresholds replace the salient features of the
            // named data set's functions and suppress the extreme class for
            // the pair (a single threshold pair defines a single feature
            // set).
            let (custom1, custom2) = (
                threshold_override(e1, clause)?,
                threshold_override(e2, clause)?,
            );
            let overridden = custom1.is_some() || custom2.is_some();
            let window1 = e1.vertex_range(start, n_steps);
            let window2 = e2.vertex_range(start, n_steps);
            for class in FeatureClass::ALL {
                if !clause.admits_class(class) {
                    continue;
                }
                if overridden && class == FeatureClass::Extreme {
                    continue;
                }
                out.push(UnitTask {
                    e1,
                    e2,
                    left: operands.intern(e1, class, window1, custom1),
                    right: operands.intern(e2, class, window2, custom2),
                    class,
                    clause,
                    adjacency,
                });
            }
        }
    }
    Ok(())
}

/// Window vertices a unit task passes over per nanosecond: one pass for the
/// intersection, one per permutation, each an AND-popcount sweep of both
/// operands' two bit vectors. Measured on the reference sandbox over the
/// `explore_urban` queries (docs/architecture.md, "The evaluate dispatch"); an
/// estimate for scheduling, so only its order of magnitude matters.
const VERTEX_PASSES_PER_NS: u64 = 8;

impl UnitTask<'_> {
    /// Estimated single-thread nanoseconds of [`evaluate_unit`] on this
    /// task: window vertices × (1 + permutations). What the pool balances
    /// chunks by — a task the clause prunes after its intersection costs
    /// less, which unbalances a chunk, never a result.
    pub(crate) fn estimated_ns(&self, operands: &OperandTable<'_>) -> u64 {
        let (lo, hi) = operands.slots[self.left].window;
        let passes = 1 + self.clause.permutations as u64;
        ((hi - lo) as u64).saturating_mul(passes) / VERTEX_PASSES_PER_NS
    }
}

/// Evaluates one unit task. Pure: the result depends only on the task,
/// never on scheduling, which is what makes the flat executor's output
/// worker-count-independent. Adds what it did to `counts` (observation
/// only).
pub(crate) fn evaluate_unit(
    task: &UnitTask<'_>,
    operands: &OperandTable<'_>,
    counts: &EvalCounts,
) -> Option<Relationship> {
    let UnitTask {
        e1,
        e2,
        class,
        clause,
        adjacency,
        ..
    } = *task;
    let (left, right) = (&operands.slots[task.left], &operands.slots[task.right]);
    let mc = MonteCarlo {
        permutations: clause.permutations,
        alpha: clause.alpha,
        ..MonteCarlo::default()
    };
    let scheme = clause.scheme.unwrap_or_default();
    let measures = evaluate_features(left.features(), right.features());
    if measures.related_count() == 0 {
        return None;
    }
    // Clause pre-filter: skip the expensive significance test when the
    // clause already rejects the candidate (paper Section 6.1).
    if measures.score.abs() < clause.min_score || measures.strength < clause.min_strength {
        return None;
    }
    let seed = pair_seed(BASE_SEED, e1, e2, class);
    counts.permutations.add(mc.permutations as u64);
    let p = permutation_p_value(
        left.rows(&counts.rows_built),
        right.rows(&counts.rows_built),
        adjacency,
        measures.score,
        &mc,
        scheme,
        seed,
    );
    let significant = mc.is_significant(p);
    if clause.significant_only && !significant {
        return None;
    }
    Some(Relationship {
        left: FunctionRef::from(&e1.spec),
        right: FunctionRef::from(&e2.spec),
        resolution: e1.resolution,
        class,
        measures,
        p_value: p,
        significant,
    })
}

/// The user thresholds in `clause` that replace this entry's precomputed
/// features, if any, with the stored field they are evaluated on. A clause
/// naming a data set whose entry has no field is an error: the precomputed
/// features are not an answer to the thresholds the user gave.
fn threshold_override<'a>(
    entry: &'a FunctionEntry,
    clause: &'a Clause,
) -> Result<Option<ThresholdOverride<'a>>> {
    let named = |t: &&DatasetThresholds| t.dataset == entry.spec.dataset;
    let Some(thresholds) = clause.thresholds.iter().find(named) else {
        return Ok(None);
    };
    match &entry.field {
        Some(field) => Ok(Some((thresholds, field))),
        None => Err(Error::MissingField(FunctionRef::from(&entry.spec))),
    }
}

/// Recomputes a function's features from user-supplied thresholds: level-set
/// membership is pointwise (f(v) against θ), so no tree or graph is built.
fn custom_features(field: &ScalarField, t: &DatasetThresholds) -> FeatureSet {
    FeatureSet::scan(&field.values, t.theta_pos, t.theta_neg)
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
fn pair_seed(base: u64, e1: &FunctionEntry, e2: &FunctionEntry, class: FeatureClass) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(base);
    h.write_str(&e1.spec.dataset);
    h.write_str(&e1.spec.name);
    h.write_str(&e2.spec.dataset);
    h.write_str(&e2.spec.name);
    h.write_u8(e1.resolution.spatial.code());
    h.write_u8(e1.resolution.temporal.code());
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
    use crate::function::FunctionSpec;
    use crate::query::Clause;
    use polygamy_stdata::{
        AttributeMeta, DatasetBuilder, DatasetMeta, GeoPoint, Resolution, SpatialResolution,
        TemporalResolution,
    };
    use polygamy_topology::{FeatureSets, SeasonalThresholds, Thresholds};

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
            .find(|r| r.left.function == "avg(signal)" && r.right.function == "avg(signal)");
        let signal = signal.expect("planted signal~signal relationship missing");
        assert!(signal.score() > 0.8, "τ = {}", signal.score());
        assert!(signal.significant);
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
            if entry.spec.dataset == "alpha" {
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
            matches!(&err, Error::MissingField(f) if f.dataset == "alpha"),
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
        spec.name = function.to_string();
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
            thresholds: SeasonalThresholds {
                interval_of_step: vec![0; steps],
                interval_ids: vec![0],
                per_interval: vec![Thresholds::none()],
            },
            field: None,
            tree_nodes: 0,
            row_memo: Default::default(),
        }
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
