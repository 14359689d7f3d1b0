//! The flat deterministic parallel query executor.
//!
//! The paper's relationship operator is embarrassingly parallel: Section
//! 5.3 evaluates the n×m candidate function pairs per resolution as one
//! Hadoop job. This module reproduces that execution shape for the read
//! path. A query — or a whole batch of queries — is planned on the
//! coordinating thread and expanded *up front* into its complete flat list
//! of (pair × function-unit × class) [`UnitTask`]s; the tasks then run on a
//! **single shared worker pool** ([`run_weighted_tasks`]: the calling
//! thread is one of its workers, tasks are claimed heaviest-first by an
//! estimated cost, and a dispatch too small to repay a thread's start runs
//! inline), and results are assembled in canonical task order. The
//! invariants this buys:
//!
//! * **no per-pair pool spawn** — one pool serves an entire
//!   `query`/`query_many` call, however many pairs it expands to;
//! * **worker-count independence** — each task is pure (its Monte Carlo
//!   seed derives from the task identity, never from scheduling), and
//!   assembly order is the expansion order, so results are byte-identical
//!   for `workers = 1..N`;
//! * **batch amortisation** — `query_many` expands every query before
//!   scheduling, so pool startup and stragglers amortise across the batch.
//!
//! Cache lookups stay on the coordinating thread: hits are spliced into the
//! plan, only misses are scheduled, and identical (pair, clause) requests
//! appearing several times in one batch are evaluated once.
//!
//! Every call reports through [`polygamy_obs`]: stage wall times
//! (`core.stage.*_ns`) and task/cache counters (`core.*`), which — when
//! the calling thread is inside [`polygamy_obs::trace::record`] — land in
//! the per-query trace under the same names (the four stages as spans).
//! Instrumentation never touches the result values, so traced and
//! untraced executions stay byte-identical (the determinism matrix pins
//! this).

use crate::cache::QueryCache;
use crate::error::{Error, Result};
use crate::framework::{CityGeometry, Config};
use crate::function::FunctionRef;
use crate::index::{DatasetEntry, IndexView};
use crate::operator::{evaluate_unit, expand_pair_tasks, EvalCounts, OperandTable, UnitTask};
use crate::query::RelationshipQuery;
use crate::relationship::Relationship;
use polygamy_mapreduce::run_weighted_tasks;
use polygamy_obs::{count, names, stage};
use polygamy_stdata::Resolution;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// How one canonical pair of a planned query is satisfied.
enum PairSource {
    /// Served from the query cache.
    Cached(Arc<Vec<Relationship>>),
    /// Evaluated by this batch; index into the miss list.
    Pending(usize),
}

/// One distinct (pair, clause) evaluation this batch owes.
struct Miss<'q> {
    /// Cache key: canonical dataset pair + clause fingerprint.
    key: (usize, usize, u64),
    /// The clause to evaluate under (clauses with equal fingerprints are
    /// interchangeable by construction of [`crate::query::Clause::cache_key`]).
    clause: &'q crate::query::Clause,
}

/// Orders the concatenations `a[0] ‖ a[1] ‖ …` and `b[0] ‖ b[1] ‖ …` as
/// `String`s compare — byte-lexicographically — without building either.
fn cmp_concat<const N: usize>(a: [&str; N], b: [&str; N]) -> Ordering {
    let a = a.into_iter().flat_map(str::bytes);
    a.cmp(b.into_iter().flat_map(str::bytes))
}

/// Deterministic presentation order: strongest |τ| first, ties broken by
/// function names, resolution and class.
///
/// Scores are compared with [`f64::total_cmp`]: a non-finite score —
/// possible on degenerate inputs such as constant functions with custom
/// thresholds — sorts to a stable position (NaN |τ| first, as the largest
/// value in total order) instead of panicking the query.
///
/// Names and resolutions tie-break in the order of their display forms,
/// `dataset.function` and `(temporal, spatial)`, compared piecewise so
/// that a tie allocates nothing. The separators are part of the key: a
/// data set named `a.b` sorts where the string `a.b.f` does.
pub(crate) fn sort_relationships(rels: &mut [Relationship]) {
    fn name(f: &FunctionRef) -> [&str; 3] {
        [&f.dataset, ".", &f.function]
    }
    // `Resolution::label` without its leading `(`, which decides nothing.
    fn resolution(r: Resolution) -> [&'static str; 4] {
        [r.temporal.label(), ", ", r.spatial.label(), ")"]
    }
    rels.sort_by(|x, y| {
        y.score()
            .abs()
            .total_cmp(&x.score().abs())
            .then_with(|| cmp_concat(name(&x.left), name(&y.left)))
            .then_with(|| cmp_concat(name(&x.right), name(&y.right)))
            .then_with(|| cmp_concat(resolution(x.resolution), resolution(y.resolution)))
            .then_with(|| x.class.label().cmp(y.class.label()))
    });
}

/// Resolves one collection of a query against a catalog: `None` ranges
/// over every cataloged data set, explicit names must resolve.
///
/// Repeated names collapse to their first occurrence *before* any lookup:
/// the list arrives from outside the process (PQL text, wire frames), and
/// everything downstream — pair enumeration, its capacity hints, the
/// footprint report — must be sized by the catalog, never by how often a
/// caller repeats itself.
fn resolve_collection(
    datasets: &[DatasetEntry],
    names: &Option<Vec<String>>,
) -> Result<Vec<usize>> {
    match names {
        None => Ok((0..datasets.len()).collect()),
        Some(list) => {
            let mut seen = HashSet::new();
            list.iter()
                .filter(|n| seen.insert(n.as_str()))
                .map(|n| {
                    datasets
                        .iter()
                        .position(|d| d.meta.name == *n)
                        .ok_or_else(|| Error::UnknownDataset(n.clone()))
                })
                .collect()
        }
    }
}

/// The canonical data set pairs a query evaluates, in plan order: every
/// `(left, right)` combination with `left ≠ right`, oriented `(min, max)` —
/// the operator is symmetric up to swapping sides, so `(a, b)` and `(b, a)`
/// are one evaluation and one cache entry — each pair once.
///
/// This is both the executor's plan and its *footprint report*: a
/// demand-paged store session calls it before evaluation to fault in, for
/// each pair, the function segments of either side at the resolutions the
/// other side also has (and
/// [`Clause::admits_resolution`](crate::query::Clause::admits_resolution)
/// admits) — task expansion pairs only entries sharing a resolution, so no
/// other segment can appear in a task. That bound is exact in data set ×
/// resolution and still loose in time: two entries at a shared resolution
/// whose time windows do not overlap are read and then skipped. Unknown
/// names yield the same [`Error::UnknownDataset`] the evaluation itself
/// would.
pub fn query_pairs(
    datasets: &[DatasetEntry],
    query: &RelationshipQuery,
) -> Result<Vec<(usize, usize)>> {
    let left = resolve_collection(datasets, &query.left)?;
    let right = resolve_collection(datasets, &query.right)?;
    // All-pairs queries produce exactly n·(n−1)/2 canonical pairs;
    // explicit collections at most |left|·|right|.
    let cap = if query.left.is_none() && query.right.is_none() {
        let n = left.len();
        n * n.saturating_sub(1) / 2
    } else {
        left.len() * right.len()
    };
    let mut pairs = Vec::with_capacity(cap);
    let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(cap);
    for &a in &left {
        for &b in &right {
            let pair = (a.min(b), a.max(b));
            if a != b && seen.insert(pair) {
                pairs.push(pair);
            }
        }
    }
    Ok(pairs)
}

/// Evaluates one relationship query: [`run_query_many`] on a batch of one.
pub fn run_query<'a>(
    index: impl Into<IndexView<'a>>,
    geometry: &CityGeometry,
    config: &Config,
    cache: &QueryCache,
    query: &RelationshipQuery,
) -> Result<Vec<Relationship>> {
    let batch = std::slice::from_ref(query);
    Ok(run_query_many(index, geometry, config, cache, batch)?
        .pop()
        .unwrap_or_default())
}

/// Evaluates a batch of relationship queries on one shared worker pool —
/// the executor, and the only read path: `DataPolygamy::{query,
/// query_many}`, `polygamy-store`'s sessions, the CLI and the daemon all
/// end here.
///
/// `index` is anything that converts into an [`IndexView`]: a whole
/// `&PolygamyIndex`, or a view over just the entries a demand-paged session
/// pinned for this batch (see [`query_pairs`]); results are identical
/// whenever the view holds every entry the expansion reaches.
///
/// Returns one result vector per input query, in input order. Pairs are
/// deduplicated within each query (the operator is symmetric up to swapping
/// left/right) and evaluations are deduplicated across the whole batch;
/// per-pair results are served from `cache` keyed by the clause
/// fingerprint and inserted on evaluation.
pub fn run_query_many<'a>(
    index: impl Into<IndexView<'a>>,
    geometry: &CityGeometry,
    config: &Config,
    cache: &QueryCache,
    queries: &[RelationshipQuery],
) -> Result<Vec<Vec<Relationship>>> {
    let index: IndexView<'a> = index.into();
    count(names::CORE_QUERIES, queries.len() as u64);

    // ---- Plan: resolve names, canonicalise pairs, split hits from misses.
    let plan_stage = stage(names::CORE_STAGE_PLAN_NS);
    let mut n_hits = 0u64;
    let mut n_misses = 0u64;
    let mut misses: Vec<Miss> = Vec::new();
    let mut miss_of: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let mut plans: Vec<Vec<PairSource>> = Vec::with_capacity(queries.len());
    for query in queries {
        let pairs = query_pairs(index.datasets(), query)?;
        let clause_key = query.clause.cache_key();
        let mut plan: Vec<PairSource> = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let key = (pair.0, pair.1, clause_key);
            match cache.get(&key) {
                Some(hit) => {
                    n_hits += 1;
                    plan.push(PairSource::Cached(hit));
                }
                None => {
                    n_misses += 1;
                    let mi = *miss_of.entry(key).or_insert_with(|| {
                        misses.push(Miss {
                            key,
                            clause: &query.clause,
                        });
                        misses.len() - 1
                    });
                    plan.push(PairSource::Pending(mi));
                }
            }
        }
        plans.push(plan);
    }
    drop(plan_stage);
    count(names::CORE_QUERY_CACHE_HITS, n_hits);
    count(names::CORE_QUERY_CACHE_MISSES, n_misses);

    // ---- Expand every miss into its flat unit-task list (geometry is
    // validated here, on the coordinating thread).
    let expand_stage = stage(names::CORE_STAGE_EXPAND_NS);
    let mut tasks: Vec<UnitTask> = Vec::new();
    let mut operands = OperandTable::default();
    let mut task_ranges: Vec<Range<usize>> = Vec::with_capacity(misses.len());
    for miss in &misses {
        let start = tasks.len();
        expand_pair_tasks(
            &index,
            geometry,
            miss.key.0,
            miss.key.1,
            miss.clause,
            &mut operands,
            &mut tasks,
        )?;
        task_ranges.push(start..tasks.len());
    }
    drop(expand_stage);
    count(names::CORE_TASKS_EXPANDED, tasks.len() as u64);

    // ---- Evaluate the entire batch on one shared pool; operands are
    // prepared inside it, each by the first task that needs it.
    let evaluate_stage = stage(names::CORE_STAGE_EVALUATE_NS);
    let costs: Vec<u64> = tasks.iter().map(|t| t.estimated_ns(&operands)).collect();
    let counts = EvalCounts::default();
    let (results, threads) = run_weighted_tasks(config.cluster.workers(), &costs, |i| {
        evaluate_unit(&tasks[i], &operands, &counts)
    });
    drop(evaluate_stage);
    count(names::CORE_PERMUTATIONS_RUN, counts.permutations.get());
    count(names::CORE_OPERAND_ROWS_BUILT, counts.rows_built.get());
    // Every task reads two operands; all but the first read of a slot reuse
    // what that first read prepared.
    let prepared = operands.prepared() as u64;
    let reuses = 2 * tasks.len() as u64 - prepared;
    count(names::CORE_OPERANDS_PREPARED, prepared);
    count(names::CORE_OPERAND_REUSES, reuses);
    // A batch answered from the cache alone dispatches nothing.
    if !tasks.is_empty() {
        let dispatches = match threads {
            1 => names::CORE_DISPATCHES_INLINE,
            _ => names::CORE_DISPATCHES_PARALLEL,
        };
        count(dispatches, 1);
    }

    // ---- Assemble per-miss results in canonical task order, sorted once
    // here so that every later use — this batch, a cache hit — starts from
    // a sorted run; fill the cache.
    let assemble_stage = stage(names::CORE_STAGE_ASSEMBLE_NS);
    let mut results = results.into_iter();
    let mut evaluated: Vec<Arc<Vec<Relationship>>> = Vec::with_capacity(misses.len());
    let mut evictions = 0u64;
    for (miss, range) in misses.iter().zip(&task_ranges) {
        let mut rels: Vec<Relationship> = results.by_ref().take(range.len()).flatten().collect();
        sort_relationships(&mut rels);
        let rels = Arc::new(rels);
        evictions += u64::from(cache.insert(miss.key, Arc::clone(&rels)));
        evaluated.push(rels);
    }
    count(names::CORE_QUERY_CACHE_EVICTIONS, evictions);

    // ---- Stitch each query's output from hits and fresh evaluations: one
    // pair's run is the answer, several are merged by a stable sort (which
    // finds the runs; keys are unique per relationship, so the result is
    // the one total order however it is reached).
    let mut out = Vec::with_capacity(plans.len());
    for plan in plans {
        let runs: Vec<&[Relationship]> = plan
            .iter()
            .map(|source| match source {
                PairSource::Cached(r) => r.as_slice(),
                PairSource::Pending(mi) => evaluated[*mi].as_slice(),
            })
            .collect();
        let mut rels = runs.concat();
        if runs.len() > 1 {
            sort_relationships(&mut rels);
        }
        out.push(rels);
    }
    drop(assemble_stage);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Fnv1a;
    use crate::relationship::RelationshipMeasures;
    use polygamy_stdata::{SpatialResolution, TemporalResolution};
    use polygamy_topology::FeatureClass;

    fn rel(left: &str, score: f64) -> Relationship {
        Relationship {
            left: FunctionRef {
                dataset: left.into(),
                function: "density".into(),
            },
            right: FunctionRef {
                dataset: "other".into(),
                function: "density".into(),
            },
            resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            class: FeatureClass::Salient,
            measures: RelationshipMeasures {
                n_pos: 1,
                n_neg: 0,
                n_left: 1,
                n_right: 1,
                score,
                strength: 1.0,
            },
            p_value: 1.0,
            significant: false,
        }
    }

    #[test]
    fn sort_is_total_even_with_nan_scores() {
        // A degenerate pair can surface a non-finite score; the sort must
        // order it deterministically instead of panicking.
        let mut rels = vec![rel("a", 0.25), rel("b", f64::NAN), rel("c", 0.9)];
        sort_relationships(&mut rels);
        // NaN |τ| is the largest value in IEEE total order.
        assert!(rels[0].score().is_nan());
        assert_eq!(rels[1].left.dataset, "c");
        assert_eq!(rels[2].left.dataset, "a");
        // And sorting is idempotent (stable output on resort).
        let once = rels.clone();
        sort_relationships(&mut rels);
        assert_eq!(format!("{rels:?}"), format!("{once:?}"));
    }

    #[test]
    fn sort_breaks_ties_by_name() {
        let mut rels = vec![rel("zeta", 0.5), rel("alpha", 0.5), rel("mid", 0.5)];
        sort_relationships(&mut rels);
        let names: Vec<&str> = rels.iter().map(|r| r.left.dataset.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    /// `sort_relationships` as it was when every tie built its display
    /// strings — the order the allocation-free comparator must reproduce.
    fn sort_by_display_strings(rels: &mut [Relationship]) {
        rels.sort_by(|x, y| {
            y.score()
                .abs()
                .total_cmp(&x.score().abs())
                .then_with(|| x.left.to_string().cmp(&y.left.to_string()))
                .then_with(|| x.right.to_string().cmp(&y.right.to_string()))
                .then_with(|| x.resolution.label().cmp(&y.resolution.label()))
                .then_with(|| x.class.label().cmp(y.class.label()))
        });
    }

    #[test]
    fn sort_orders_as_the_display_strings_do() {
        // Names where comparing piecewise and comparing the joined string
        // could part ways: a `.` inside a name, one name a prefix of
        // another, bytes below and above `.`, empty names, non-ASCII.
        let datasets = ["a", "a.b", "a.", "ab", "a b", "a-b", "", "é"];
        let functions = ["", "b", "b.c", ".", "-", "density", "avg(x)"];
        let resolutions = [
            (SpatialResolution::City, TemporalResolution::Hour),
            (SpatialResolution::Zip, TemporalResolution::Day),
            (SpatialResolution::Neighborhood, TemporalResolution::Day),
            (SpatialResolution::Gps, TemporalResolution::Month),
        ];
        let scores = [0.5, -0.5, 0.25, f64::NAN];
        let mut rels = Vec::new();
        for (i, dataset) in datasets.iter().enumerate() {
            for (j, function) in functions.iter().enumerate() {
                for (k, &(spatial, temporal)) in resolutions.iter().enumerate() {
                    let n = i + j + k;
                    let mut r = rel(dataset, scores[n % scores.len()]);
                    r.left.function = function.to_string();
                    r.right.dataset = datasets[(n * 5 + 3) % datasets.len()].to_string();
                    r.right.function = functions[(n * 3 + 1) % functions.len()].to_string();
                    r.resolution = Resolution::new(spatial, temporal);
                    for class in FeatureClass::ALL {
                        rels.push(Relationship { class, ..r.clone() });
                    }
                }
            }
        }
        // Scatter, so neither sort starts from the construction order.
        rels.sort_by_key(|r| Fnv1a::hash_bytes(format!("{r:?}").as_bytes()));
        let mut expected = rels.clone();
        sort_by_display_strings(&mut expected);
        sort_relationships(&mut rels);
        assert_eq!(format!("{rels:?}"), format!("{expected:?}"));
        let ties = expected
            .windows(2)
            .filter(|w| w[0].score().abs().total_cmp(&w[1].score().abs()).is_eq())
            .count();
        assert!(ties > 300, "the names must decide most places: {ties}");
    }
}
