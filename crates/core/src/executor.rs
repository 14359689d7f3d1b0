//! The flat deterministic parallel query executor.
//!
//! The paper's relationship operator is embarrassingly parallel: Section
//! 5.3 evaluates the n×m candidate function pairs per resolution as one
//! Hadoop job. This module reproduces that execution shape for the read
//! path. A query — or a whole batch of queries — is planned on the
//! coordinating thread and expanded *up front* into its complete flat list
//! of (pair × function-unit × class) [`UnitTask`]s; the tasks then run on a
//! **single shared worker pool** ([`run_weighted_ranges`]: the calling
//! thread is one of its workers, contiguous ranges of tasks of about equal
//! estimated cost are claimed costliest first, and a dispatch too small to
//! repay a thread's start runs inline as one range), and results are
//! assembled in canonical task order. A range is folded by the thread that
//! claimed it: it tallies its counts locally and keeps only the tasks that
//! found a relationship the clause keeps, as (task index, measures,
//! p-value, verdict); *assemble* names them with their entries' own
//! [`FunctionRef`]s on the coordinating thread. The invariants this buys:
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
use crate::operator::{evaluate_unit, EvalCounts, Expansion, Verdict};
use crate::query::{Clause, RelationshipQuery};
use crate::relationship::Relationship;
use polygamy_mapreduce::run_weighted_ranges;
use polygamy_obs::{count, names, stage};
use polygamy_stdata::{Resolution, SpatialResolution, TemporalResolution};
use polygamy_topology::FeatureClass;
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

/// What one range of an evaluate dispatch hands back.
#[derive(Default)]
struct EvaluatedRange {
    /// What its tasks did.
    counts: EvalCounts,
    /// Its tasks that found a relationship the clause keeps, in task
    /// order, by task index.
    found: Vec<(usize, Verdict)>,
    /// Its task count, if a helper thread ran it; 0 on the calling thread.
    on_helper: u64,
}

/// One distinct (pair, clause) evaluation this batch owes.
struct Miss<'q> {
    /// Cache key: canonical dataset pair + clause fingerprint.
    key: (usize, usize, u64),
    /// The clause to evaluate under (clauses with equal fingerprints are
    /// interchangeable by construction of [`Clause::cache_key`]).
    clause: &'q Clause,
}

/// Orders the concatenations `a[0] ‖ a[1] ‖ …` and `b[0] ‖ b[1] ‖ …` as
/// `String`s compare — byte-lexicographically — without building either.
fn cmp_concat<const N: usize>(a: [&str; N], b: [&str; N]) -> Ordering {
    let a = a.into_iter().flat_map(str::bytes);
    a.cmp(b.into_iter().flat_map(str::bytes))
}

/// Orders two function names as their display forms `dataset.function`
/// compare, allocating nothing. Equal data sets leave the function names
/// to decide; data sets that differ inside their common prefix decide
/// alone; only when one data set name is a prefix of the other does the
/// `.` take part, and the bytes are walked as one string.
fn cmp_names(a: &FunctionRef, b: &FunctionRef) -> Ordering {
    if Arc::ptr_eq(&a.dataset, &b.dataset) || a.dataset == b.dataset {
        return a.function.cmp(&b.function);
    }
    let (x, y) = (a.dataset.as_bytes(), b.dataset.as_bytes());
    let common = x.len().min(y.len());
    match x[..common].cmp(&y[..common]) {
        Ordering::Equal => cmp_concat(
            [&a.dataset, ".", &a.function],
            [&b.dataset, ".", &b.function],
        ),
        decided => decided,
    }
}

/// A name as [`rank_names`] sorts it: the first 16 bytes of its display
/// form `dataset.function`, zero-padded, as one big-endian integer, the
/// form's length, and the name. Made once per entry a dispatch reaches, it
/// orders names without reading them: only two names whose prefixes tie
/// and of which one is longer than 16 bytes go to [`cmp_names`].
#[derive(Clone, Copy)]
pub(crate) struct NameKey<'a>(u128, usize, &'a FunctionRef);

impl<'a> NameKey<'a> {
    pub(crate) fn of(name: &'a FunctionRef) -> Self {
        let (dataset, function) = (name.dataset.bytes(), name.function.bytes());
        let form = dataset.chain([b'.']).chain(function).chain([0; 16]);
        let prefix = (form.take(16)).fold(0, |key, b| key << 8 | u128::from(b));
        Self(prefix, name.dataset.len() + 1 + name.function.len(), name)
    }

    /// Orders two names as [`cmp_names`] does.
    fn cmp(&self, other: &Self) -> Ordering {
        match self.0.cmp(&other.0) {
            Ordering::Equal if self.1.max(other.1) <= 16 => self.1.cmp(&other.1),
            Ordering::Equal => cmp_names(self.2, other.2),
            decided => decided,
        }
    }
}

/// A resolution's place in the order of its display form
/// `(temporal, spatial)`: temporal labels first, then spatial ones (no
/// label is a prefix of another of its kind, so the `", "` decides
/// nothing).
fn resolution_rank(r: Resolution) -> u8 {
    let temporal = match r.temporal {
        TemporalResolution::Day => 0,
        TemporalResolution::Hour => 1,
        TemporalResolution::Month => 2,
        TemporalResolution::Week => 3,
    };
    let spatial = match r.spatial {
        SpatialResolution::City => 0,
        SpatialResolution::Gps => 1,
        SpatialResolution::Neighborhood => 2,
        SpatialResolution::Zip => 3,
    };
    temporal * 4 + spatial
}

/// A feature class's place in the order of its label.
fn class_rank(class: FeatureClass) -> u8 {
    match class {
        FeatureClass::Extreme => 0,
        FeatureClass::Salient => 1,
    }
}

/// Deterministic presentation order: strongest |τ| first, ties broken by
/// function names, resolution and class.
///
/// Scores are compared with [`f64::total_cmp`]: a non-finite score —
/// possible on degenerate inputs such as constant functions with custom
/// thresholds — sorts to a stable position (NaN |τ| first, as the largest
/// value in total order) instead of panicking the query.
///
/// Names, resolutions and classes tie-break in the order of their display
/// forms — `dataset.function`, `(temporal, spatial)`, the class label —
/// with no allocation ([`cmp_names`], [`resolution_rank`],
/// [`class_rank`]). The separators are part of the key: a data set named
/// `a.b` sorts where the string `a.b.f` does.
fn cmp_relationships(x: &Relationship, y: &Relationship) -> Ordering {
    (y.score().abs().total_cmp(&x.score().abs()))
        .then_with(|| cmp_names(&x.left, &y.left))
        .then_with(|| cmp_names(&x.right, &y.right))
        .then_with(|| resolution_rank(x.resolution).cmp(&resolution_rank(y.resolution)))
        .then_with(|| class_rank(x.class).cmp(&class_rank(y.class)))
}

/// Sorts relationships into presentation order ([`cmp_relationships`]);
/// the sort is stable. What the executor's sorted runs and their merge
/// must equal.
#[cfg(test)]
pub(crate) fn sort_relationships(rels: &mut [Relationship]) {
    rels.sort_by(cmp_relationships);
}

/// A relationship's place in presentation order as one integer, for the
/// relationships of one dispatch. From the most significant bit: |τ|'s
/// bits, descending (63 of them: `abs` clears the sign, so the bits order
/// as [`f64::total_cmp`] does, NaN largest), the ranks of its names among
/// those the dispatch reached ([`rank_names`], 30 bits each), of its
/// resolution (4) and of its class (1). Keys of one dispatch compare as
/// [`cmp_relationships`] compares their relationships.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SortKey(u128);

impl SortKey {
    fn new(
        score: f64,
        (left, right): (u32, u32),
        resolution: Resolution,
        class: FeatureClass,
    ) -> Self {
        let descending = !score.abs().to_bits() & (u64::MAX >> 1);
        Self(
            u128::from(descending) << 65
                | u128::from(left) << 35
                | u128::from(right) << 5
                | u128::from(resolution_rank(resolution)) << 1
                | u128::from(class_rank(class)),
        )
    }
}

/// Puts one pair's found relationships, given as `(key, task index, …)`
/// in task order, into presentation order. The task index decides only
/// what a stable sort would leave in task order: two entries of one data
/// set with equal names at one resolution.
fn into_presentation_order<T>(keyed: &mut [(SortKey, usize, T)]) {
    keyed.sort_unstable_by_key(|&(key, i, _)| (key, i));
}

/// Each name's rank in the order of [`cmp_names`], at the index it is
/// given with; equal names (the same function at several resolutions, or
/// `a.b` + `c` and `a` + `b.c`) share one.
fn rank_names(mut names: Vec<(NameKey, u32)>) -> Vec<u32> {
    let len = names.iter().map(|&(_, at)| at as usize + 1).max();
    assert!(
        names.len() < 1 << 30,
        "a rank must fit a sort key's 30 bits"
    );
    names.sort_unstable_by(|(x, _), (y, _)| x.cmp(y));
    let mut ranks = vec![0; len.unwrap_or(0)];
    for (at, pair) in names.windows(2).enumerate() {
        let [(x, before), (y, name)] = [pair[0], pair[1]];
        ranks[name as usize] = match x.cmp(&y) {
            Ordering::Equal => ranks[before as usize],
            _ => at as u32 + 1,
        };
    }
    ranks
}

/// A pair this dispatch evaluated: its relationships in presentation
/// order, as cached, and their keys.
type EvaluatedRun = (Arc<Vec<Relationship>>, Vec<SortKey>);

/// One sorted run of a query's answer — one pair's relationships — at the
/// head of its unmerged part: the next relationship, and its key if this
/// dispatch evaluated the pair.
struct Head<'r> {
    rels: &'r [Relationship],
    keys: Option<&'r [SortKey]>,
    /// The run's place in the query's plan: equal relationships merge in
    /// plan order.
    run: usize,
}

impl<'r> Head<'r> {
    /// The run of a query's `run`-th pair, answered by `source`: from the
    /// cache, or `evaluated` (with its keys) by this dispatch.
    fn of(run: usize, source: &'r PairSource, evaluated: &'r [EvaluatedRun]) -> Self {
        match source {
            PairSource::Cached(rels) => Head {
                rels,
                keys: None,
                run,
            },
            PairSource::Pending(mi) => Head {
                rels: &evaluated[*mi].0,
                keys: Some(&evaluated[*mi].1),
                run,
            },
        }
    }

    /// Whether this run's next relationship precedes `other`'s.
    fn precedes(&self, other: &Head<'_>) -> bool {
        let order = match (self.keys, other.keys) {
            (Some(a), Some(b)) => a[0].cmp(&b[0]),
            _ => cmp_relationships(&self.rels[0], &other.rels[0]),
        };
        order.then(self.run.cmp(&other.run)).is_lt()
    }
}

/// Merges sorted runs into one answer in presentation order, cloning each
/// relationship once. Equal relationships keep run order, so the answer is
/// what a stable sort of the runs' concatenation gives. Runs of this
/// dispatch compare by their keys; a cached run, named by an earlier
/// dispatch, by [`cmp_relationships`].
fn merge_runs(runs: Vec<Head<'_>>) -> Vec<Relationship> {
    // A binary min-heap of the non-empty runs, by their next relationship.
    let mut heap: Vec<Head<'_>> = runs.into_iter().filter(|r| !r.rels.is_empty()).collect();
    let mut out = Vec::with_capacity(heap.iter().map(|r| r.rels.len()).sum());
    let sift_down = |heap: &mut [Head<'_>], mut at: usize| loop {
        let (left, right) = (2 * at + 1, 2 * at + 2);
        let mut first = at;
        if left < heap.len() && heap[left].precedes(&heap[first]) {
            first = left;
        }
        if right < heap.len() && heap[right].precedes(&heap[first]) {
            first = right;
        }
        if first == at {
            return;
        }
        heap.swap(at, first);
        at = first;
    };
    for at in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, at);
    }
    while let Some(head) = heap.first_mut() {
        out.push(head.rels[0].clone());
        head.rels = &head.rels[1..];
        head.keys = head.keys.map(|keys| &keys[1..]);
        if head.rels.is_empty() {
            heap.swap_remove(0);
        }
        sift_down(&mut heap, 0);
    }
    out
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
fn query_pairs(
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

/// A batch of queries resolved against a catalog and split by the query
/// cache — the executor's *plan* stage, taken before anything is read.
///
/// It is also the batch's *footprint report*: a demand-paged store session
/// plans first and then faults in, for each miss ([`QueryPlan::misses`]),
/// the function segments of either side at the resolutions the other side
/// also has (and
/// [`Clause::admits_resolution`](crate::query::Clause::admits_resolution)
/// admits) — task expansion pairs only entries sharing a resolution, so no
/// other segment can appear in a task, and a pair the cache answers reads
/// nothing. That bound is exact in data set × resolution and still loose in
/// time: two entries at a shared resolution whose time windows do not
/// overlap are read and then skipped.
pub struct QueryPlan<'q> {
    /// Per query, where each of its canonical pairs is answered from.
    sources: Vec<Vec<PairSource>>,
    /// The distinct (pair, clause) evaluations the cache could not answer,
    /// in first-appearance order.
    misses: Vec<Miss<'q>>,
}

impl<'q> QueryPlan<'q> {
    /// Plans `queries` over `datasets`: resolves names (an unknown one is
    /// [`Error::UnknownDataset`]), canonicalises each query's pairs and
    /// looks every (pair, clause) up in `cache`. Identical (pair, clause)
    /// requests of the batch are one miss. Without a cache every pair is a
    /// miss.
    pub fn new(
        datasets: &[DatasetEntry],
        cache: Option<&QueryCache>,
        queries: &'q [RelationshipQuery],
    ) -> Result<Self> {
        let _plan = stage(names::CORE_STAGE_PLAN_NS);
        let mut plan = Self {
            sources: Vec::with_capacity(queries.len()),
            misses: Vec::new(),
        };
        let mut miss_of: HashMap<(usize, usize, u64), usize> = HashMap::new();
        for query in queries {
            let pairs = query_pairs(datasets, query)?;
            let clause_key = query.clause.cache_key();
            let mut sources: Vec<PairSource> = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let key = (pair.0, pair.1, clause_key);
                if let Some(hit) = cache.and_then(|c| c.get(&key)) {
                    sources.push(PairSource::Cached(hit));
                    continue;
                }
                let misses = &mut plan.misses;
                let mi = *miss_of.entry(key).or_insert_with(|| {
                    misses.push(Miss {
                        key,
                        clause: &query.clause,
                    });
                    misses.len() - 1
                });
                sources.push(PairSource::Pending(mi));
            }
            plan.sources.push(sources);
        }
        Ok(plan)
    }

    /// The evaluations the batch owes, as `(left, right, clause)` with
    /// `left < right` catalog positions: everything the rest of the
    /// execution reads the index for. Empty when the cache answered the
    /// whole batch.
    pub fn misses(&self) -> impl ExactSizeIterator<Item = (usize, usize, &'q Clause)> + '_ {
        (self.misses.iter()).map(|m| (m.key.0, m.key.1, m.clause))
    }
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
/// pinned for this batch; results are identical whenever the view holds
/// every entry the expansion reaches.
///
/// Returns one result vector per input query, in input order. Pairs are
/// deduplicated within each query (the operator is symmetric up to swapping
/// left/right) and evaluations are deduplicated across the whole batch;
/// per-pair results are served from `cache` keyed by the clause
/// fingerprint and inserted on evaluation. It is [`QueryPlan::new`]
/// followed by [`run_plan`].
pub fn run_query_many<'a>(
    index: impl Into<IndexView<'a>>,
    geometry: &CityGeometry,
    config: &Config,
    cache: &QueryCache,
    queries: &[RelationshipQuery],
) -> Result<Vec<Vec<Relationship>>> {
    let index: IndexView<'a> = index.into();
    let plan = QueryPlan::new(index.datasets(), Some(cache), queries)?;
    run_plan(index, geometry, config, cache, plan)
}

/// Executes a plan made over `index`'s catalog: expands its misses into
/// unit tasks, evaluates them on one shared pool, inserts each into
/// `cache`, and stitches every query's answer from hits and fresh
/// evaluations. `index` must hold every entry the misses' expansion
/// reaches; a plan with no misses reads no entry at all.
pub fn run_plan<'a>(
    index: impl Into<IndexView<'a>>,
    geometry: &CityGeometry,
    config: &Config,
    cache: &QueryCache,
    plan: QueryPlan<'_>,
) -> Result<Vec<Vec<Relationship>>> {
    let index: IndexView<'a> = index.into();
    let QueryPlan { sources, misses } = plan;
    let pairs = sources.iter().flatten();
    let n_hits = (pairs.clone())
        .filter(|s| matches!(s, PairSource::Cached(_)))
        .count();
    count(names::CORE_QUERIES, sources.len() as u64);
    count(names::CORE_QUERY_CACHE_HITS, n_hits as u64);
    count(
        names::CORE_QUERY_CACHE_MISSES,
        (pairs.count() - n_hits) as u64,
    );

    // ---- Expand every miss into its flat unit-task list (geometry is
    // validated here, on the coordinating thread), each task with its cost
    // estimate.
    let expand_stage = stage(names::CORE_STAGE_EXPAND_NS);
    let pairs = misses.iter().map(|m| (m.key.0, m.key.1));
    let mut expansion = Expansion::new(&index, pairs);
    let mut task_ranges: Vec<Range<usize>> = Vec::with_capacity(misses.len());
    for (at, miss) in misses.iter().enumerate() {
        let start = expansion.tasks.len();
        let pair = (miss.key.0, miss.key.1);
        expansion.expand_pair(&index, geometry, pair, miss.clause, at as u32)?;
        task_ranges.push(start..expansion.tasks.len());
    }
    let Expansion {
        operands,
        tasks,
        costs,
    } = expansion;
    drop(expand_stage);
    count(names::CORE_TASKS_EXPANDED, tasks.len() as u64);

    // ---- Evaluate the entire batch on one shared pool, a range of tasks
    // at a time; operands are prepared inside it, each by the first task
    // that needs it. A range keeps only what its tasks found.
    let evaluate_stage = stage(names::CORE_STAGE_EVALUATE_NS);
    let caller = std::thread::current().id();
    let (runs, threads) = run_weighted_ranges(config.cluster.workers(), &costs, |range| {
        let mut run = EvaluatedRange::default();
        if std::thread::current().id() != caller {
            run.on_helper = range.len() as u64;
        }
        for i in range {
            let task = &tasks[i];
            let clause = misses[task.miss as usize].clause;
            if let Some(found) = evaluate_unit(task, &operands, clause, &mut run.counts) {
                run.found.push((i, found));
            }
        }
        run
    });
    drop(evaluate_stage);
    let (mut counts, mut on_helpers) = (EvalCounts::default(), 0);
    for run in &runs {
        counts += run.counts;
        on_helpers += run.on_helper;
    }
    count(names::CORE_PERMUTATIONS_RUN, counts.permutations);
    count(names::CORE_PERMUTATION_TESTS_STOPPED, counts.tests_stopped);
    count(names::CORE_SIGN_OVERLAP_PASSES, counts.overlap_passes);
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
        count(names::CORE_TASKS_ON_HELPERS, on_helpers);
    }

    // ---- Assemble per-miss results — the ranges came back in range
    // order, each in task order —: key each found task by its place in
    // presentation order, with the reached entries' names ranked once,
    // sort by the keys, and only then name the relationships, with their
    // entries' own names. Every later use — this batch's stitch, a cache
    // hit — starts from a sorted run; fill the cache.
    let assemble_stage = stage(names::CORE_STAGE_ASSEMBLE_NS);
    let ranks = rank_names(operands.names());
    let mut found = runs.iter().flat_map(|run| &run.found).peekable();
    let mut evaluated: Vec<EvaluatedRun> = Vec::with_capacity(misses.len());
    let (mut n_found, mut evictions) = (0, 0);
    for (miss, range) in misses.iter().zip(&task_ranges) {
        let mut keyed = Vec::new();
        while let Some((i, verdict)) = found.next_if(|(i, _)| *i < range.end) {
            let task = &tasks[*i];
            let (left, right) = task.names(&operands);
            let names = (ranks[left as usize], ranks[right as usize]);
            let resolution = task.resolution(&operands);
            let key = SortKey::new(verdict.score(), names, resolution, task.class);
            keyed.push((key, *i, verdict));
        }
        into_presentation_order(&mut keyed);
        n_found += keyed.len();
        let keys: Vec<SortKey> = keyed.iter().map(|&(key, ..)| key).collect();
        let rels = (keyed.iter())
            .map(|&(_, i, verdict)| tasks[i].relationship(&operands, verdict))
            .collect();
        let rels = Arc::new(rels);
        evictions += u64::from(cache.insert(miss.key, Arc::clone(&rels)));
        evaluated.push((rels, keys));
    }
    count(names::CORE_RELATIONSHIPS_FOUND, n_found as u64);
    count(names::CORE_QUERY_CACHE_EVICTIONS, evictions);

    // ---- Stitch each query's output from hits and fresh evaluations: one
    // pair's run is the answer, several are merged.
    let mut out = Vec::with_capacity(sources.len());
    for plan in &sources {
        out.push(match &plan[..] {
            [only] => Head::of(0, only, &evaluated).rels.to_vec(),
            _ => merge_runs(
                (plan.iter().enumerate())
                    .map(|(run, source)| Head::of(run, source, &evaluated))
                    .collect(),
            ),
        });
    }
    drop(assemble_stage);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Fnv1a;
    use crate::relationship::RelationshipMeasures;

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
        assert_eq!(&*rels[1].left.dataset, "c");
        assert_eq!(&*rels[2].left.dataset, "a");
        // And sorting is idempotent (stable output on resort).
        let once = rels.clone();
        sort_relationships(&mut rels);
        assert_eq!(format!("{rels:?}"), format!("{once:?}"));
    }

    #[test]
    fn sort_breaks_ties_by_name() {
        let mut rels = vec![rel("zeta", 0.5), rel("alpha", 0.5), rel("mid", 0.5)];
        sort_relationships(&mut rels);
        let names: Vec<&str> = rels.iter().map(|r| &*r.left.dataset).collect();
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
                    r.left.function = (*function).into();
                    r.right.dataset = datasets[(n * 5 + 3) % datasets.len()].into();
                    r.right.function = functions[(n * 3 + 1) % functions.len()].into();
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

    #[test]
    fn rank_tables_follow_the_labels() {
        let spatial = [
            SpatialResolution::Gps,
            SpatialResolution::Zip,
            SpatialResolution::Neighborhood,
            SpatialResolution::City,
        ];
        let resolutions: Vec<Resolution> = (spatial.iter())
            .flat_map(|&s| TemporalResolution::ALL.map(|t| Resolution::new(s, t)))
            .collect();
        for &a in &resolutions {
            for &b in &resolutions {
                let by_rank = resolution_rank(a).cmp(&resolution_rank(b));
                assert_eq!(by_rank, a.label().cmp(&b.label()), "{a} vs {b}");
                assert_eq!(by_rank.is_eq(), a == b);
            }
        }
        for a in FeatureClass::ALL {
            for b in FeatureClass::ALL {
                let by_rank = class_rank(a).cmp(&class_rank(b));
                assert_eq!(by_rank, a.label().cmp(b.label()), "{a:?} vs {b:?}");
            }
        }
    }

    /// Names where comparing piecewise and comparing the joined string
    /// could part ways: `.` inside names, data set names that are prefixes
    /// of others, the empty name, bytes below and above `.`, non-ASCII —
    /// and display forms that tie on their first 16 bytes ([`NameKey`]).
    const DATASETS: [&str; 12] = [
        "a",
        "a.b",
        "a.",
        "ab",
        "a b",
        "",
        "é",
        "éa",
        "a.b.c",
        "abcdefghijklmno",
        "abcdefghijklmnop",
        "abcdefghijklmno.b",
    ];
    const FUNCTIONS: [&str; 7] = ["", "b", "b.c", ".", "c", "density", "é"];
    /// ±τ ties, and NaN of either sign (`abs` makes them one).
    const SCORES: [f64; 7] = [1.0, -1.0, 0.5, -0.5, f64::NAN, -f64::NAN, 0.25];

    #[test]
    fn prefixes_order_names_as_their_display_forms_do() {
        let names: Vec<FunctionRef> = (DATASETS.iter())
            .flat_map(|&dataset| {
                FUNCTIONS.iter().map(move |&function| FunctionRef {
                    dataset: dataset.into(),
                    function: function.into(),
                })
            })
            .collect();
        let mut long_ties = 0;
        for x in &names {
            for y in &names {
                let (a, b) = (NameKey::of(x), NameKey::of(y));
                let by_form = x.to_string().cmp(&y.to_string());
                assert_eq!(a.cmp(&b), by_form, "{x} vs {y}");
                long_ties += usize::from(a.0 == b.0 && a.1.max(b.1) > 16);
            }
        }
        assert!(long_ties > 0, "some forms must tie past their prefixes");
    }

    /// The entries one dispatch reaches, as their names: one
    /// [`FunctionRef`] per (data set, function, resolution), allocated
    /// apart, as decoded store entries hold theirs. The index is the
    /// entry's view position.
    #[derive(Default)]
    struct Dispatch {
        names: Vec<FunctionRef>,
        at: HashMap<(usize, usize, Resolution), u32>,
    }

    impl Dispatch {
        fn name(&mut self, dataset: usize, function: usize, resolution: Resolution) -> u32 {
            let names = &mut self.names;
            *self
                .at
                .entry((dataset, function, resolution))
                .or_insert_with(|| {
                    names.push(FunctionRef {
                        dataset: DATASETS[dataset].into(),
                        function: FUNCTIONS[function].into(),
                    });
                    names.len() as u32 - 1
                })
        }
    }

    /// One pair's relationships, in task order, as name indices of their
    /// dispatch: (left, right, resolution, class, score).
    type Found = Vec<(u32, u32, Resolution, FeatureClass, f64)>;

    /// A run as `run_plan` makes one: keyed with the dispatch's ranks, put
    /// in presentation order, then named.
    fn sorted_run(dispatch: &Dispatch, found: &Found) -> (Vec<Relationship>, Vec<SortKey>) {
        let names = (dispatch.names.iter().enumerate())
            .map(|(at, name)| (NameKey::of(name), at as u32))
            .collect();
        let ranks = rank_names(names);
        let mut keyed: Vec<_> = (found.iter().enumerate())
            .map(|(i, &(l, r, resolution, class, score))| {
                let names = (ranks[l as usize], ranks[r as usize]);
                (SortKey::new(score, names, resolution, class), i, (l, r))
            })
            .collect();
        into_presentation_order(&mut keyed);
        let rels = (keyed.iter())
            .map(|&(_, i, (l, r))| {
                let (_, _, resolution, class, score) = found[i];
                Relationship {
                    left: dispatch.names[l as usize].clone(),
                    right: dispatch.names[r as usize].clone(),
                    resolution,
                    class,
                    ..rel("", score)
                }
            })
            .collect();
        (rels, keyed.iter().map(|&(key, ..)| key).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Sorting each pair's relationships by integer keys ranked once
        /// per dispatch, then merging the pairs' runs — some cached from an
        /// earlier dispatch, whose names are the same strings behind other
        /// `Arc`s and carry no keys here, some fresh — gives the order the
        /// display strings give the concatenated pairs, stably sorted. Each
        /// word is one relationship of the current pair; a word that is 0
        /// mod 8 opens the next pair (its data sets, and whether it is
        /// cached, from its upper bits).
        #[test]
        fn keyed_runs_merge_into_the_display_strings_order(
            words in proptest::collection::vec(0u64..u64::MAX, 1..300)
        ) {
            let spatial = [
                SpatialResolution::Gps,
                SpatialResolution::Zip,
                SpatialResolution::Neighborhood,
                SpatialResolution::City,
            ];
            let pick = |w: u64, shift: u32, n: usize| (w >> shift) as usize % n;
            let (mut earlier, mut this) = (Dispatch::default(), Dispatch::default());
            // Per pair: its data sets, whether it is cached, what it found.
            let mut pairs: Vec<(usize, usize, bool, Found)> = Vec::new();
            for &w in &words {
                if pairs.is_empty() || w % 8 == 0 {
                    let cached = (w >> 9) & 1 == 1;
                    let n = DATASETS.len();
                    pairs.push((pick(w, 3, n), pick(w, 6, n), cached, Vec::new()));
                }
                let (d1, d2, cached, found) = pairs.last_mut().unwrap();
                let dispatch = if *cached { &mut earlier } else { &mut this };
                let resolution = Resolution::new(
                    spatial[pick(w, 10, 4)],
                    TemporalResolution::ALL[pick(w, 12, 4)],
                );
                let class = FeatureClass::ALL[pick(w, 14, 2)];
                let left = dispatch.name(*d1, pick(w, 15, 7), resolution);
                let right = dispatch.name(*d2, pick(w, 18, 7), resolution);
                found.push((left, right, resolution, class, SCORES[pick(w, 21, 7)]));
            }
            let runs: Vec<_> = (pairs.iter())
                .map(|(_, _, cached, found)| {
                    let (rels, keys) = sorted_run(if *cached { &earlier } else { &this }, found);
                    (rels, (!cached).then_some(keys))
                })
                .collect();
            let heads = (runs.iter().enumerate())
                .map(|(run, (rels, keys))| Head {
                    rels,
                    keys: keys.as_deref(),
                    run,
                })
                .collect();
            let merged = merge_runs(heads);

            let mut expected: Vec<Relationship> = (pairs.iter())
                .flat_map(|(_, _, cached, found)| {
                    let dispatch = if *cached { &earlier } else { &this };
                    found.iter().map(|&(l, r, resolution, class, score)| Relationship {
                        left: dispatch.names[l as usize].clone(),
                        right: dispatch.names[r as usize].clone(),
                        resolution,
                        class,
                        ..rel("", score)
                    })
                })
                .collect();
            sort_by_display_strings(&mut expected);
            proptest::prop_assert_eq!(format!("{merged:?}"), format!("{expected:?}"));
        }
    }
}
