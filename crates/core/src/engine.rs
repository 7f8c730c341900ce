//! The unified execution pipeline: one [`Engine`] trait, one [`Runner`].
//!
//! PRs 1–3 threaded checkpointing, vectorized relaxation, and cancellation
//! through five separate engines, so every cross-cutting feature was an
//! O(engines) change. This module factors the shared lifecycle out once:
//!
//! * [`RunConfig`] — every knob (threads, schedule, ordering, kernel
//!   options, relax implementation, distance cap, run ledger, label) in
//!   a single builder-style value.
//! * [`Engine`] — what is *specific* to an algorithm: how to plan its work
//!   units ([`Engine::prepare`]), how to execute a batch of units
//!   ([`Engine::run_rows`]), how to snapshot partial progress
//!   ([`Engine::snapshot`]), and how to assemble its output
//!   ([`Engine::finish`]).
//! * [`Runner`] — owns everything else, exactly once: thread-pool
//!   acquisition, resume validation, the run ledger ([`RowJournal`]),
//!   cancellation plumbing, per-row trace collection, phase timing, and
//!   [`RunOutcome`] assembly.
//!
//! Four engines implement the trait: [`ApspEngine`] (the row engine:
//! the paper's parallel drivers and Peng's sequential family, static or
//! adaptive source order), [`SubsetEngine`] (the row engine over a
//! source subset, returning memory-bounded subset rows),
//! [`BlockedFwEngine`] (the blocked Floyd–Warshall comparator), and
//! `DistEngine` in the `parapsp-dist` crate (the simulated cluster
//! driver, whose workers run the same row solver).
//!
//! Every run is constructed the same way — pick a [`RunConfig`], pick an
//! engine, and drive it through a [`Runner`]:
//!
//! ```
//! use parapsp_core::engine::{ApspEngine, RunConfig, Runner};
//! use parapsp_graph::generate::{barabasi_albert, WeightSpec};
//!
//! let g = barabasi_albert(200, 3, WeightSpec::Unit, 42).unwrap();
//! let out = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &g);
//! assert_eq!(out.dist.get(0, 0), 0);
//! assert_eq!(out.algorithm, "ParAPSP");
//! ```

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parapsp_graph::{degree, CsrGraph, INF};
use parapsp_order::seq_bucket::seq_bucket_sort;
use parapsp_order::OrderingProcedure;
use parapsp_parfor::{CancelStatus, CancelToken, ParSlice, PerThread, Schedule, ThreadPool};

use crate::kernel::{KernelOptions, Workspace};
use crate::outcome::RunOutcome;
use crate::persist::{self, Checkpoint, FsyncPolicy, PersistError, RowLedger};
use crate::relax::RelaxImpl;
use crate::solver::{RowSolver, SolverKind};
use crate::stats::{ApspOutput, Counters, PhaseTimings};
use crate::store::{Store, StoreSpec};

pub use crate::blocked_fw::BlockedFwEngine;
pub use crate::subset::SubsetEngine;

// ---------------------------------------------------------------------------
// Value enums (CLI-facing)
// ---------------------------------------------------------------------------

/// A closed set of named values, parseable from their stable CLI names.
///
/// This is the hand-rolled equivalent of clap's `ValueEnum` derive (this
/// workspace is dependency-free): a type lists its variants once, names
/// each one, and gets parsing **and** self-describing rejection messages
/// for free. Implemented by [`EngineKind`], [`RelaxImpl`], the `dist`
/// crate's `SourcePartition`, and the CLI's interrupt mode.
pub trait ValueEnum: Sized + Copy + 'static {
    /// Every selectable variant, in display order.
    fn value_variants() -> &'static [Self];

    /// The stable lowercase CLI name of this variant.
    fn value_name(&self) -> &'static str;

    /// Parses a [`ValueEnum::value_name`] back into its variant; the error
    /// enumerates every accepted value.
    fn parse_value(raw: &str) -> Result<Self, String> {
        Self::value_variants()
            .iter()
            .copied()
            .find(|v| v.value_name() == raw)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::value_variants()
                    .iter()
                    .map(|v| v.value_name())
                    .collect();
                format!(
                    "invalid value `{raw}` (possible values: {})",
                    names.join(", ")
                )
            })
    }
}

impl ValueEnum for RelaxImpl {
    fn value_variants() -> &'static [Self] {
        &RelaxImpl::ALL
    }

    fn value_name(&self) -> &'static str {
        self.name()
    }
}

impl ValueEnum for FsyncPolicy {
    fn value_variants() -> &'static [Self] {
        &FsyncPolicy::ALL
    }

    fn value_name(&self) -> &'static str {
        self.name()
    }
}

/// Every APSP algorithm selectable from the CLI, by its stable name.
///
/// The first seven are configurations of the one row engine,
/// [`ApspEngine`] ([`EngineKind::row_engine`]); they and the next two
/// (`blocked-fw`, `dist`) run through the [`Runner`] and are
/// cancellable. The last two (`floyd-warshall`, `dijkstra`) are direct
/// baseline calls kept for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// **ParAPSP** (paper Alg. 8): MultiLists ordering + dynamic-cyclic.
    ParApsp,
    /// **ParAlg1** (§3.1): no ordering, block partitioning.
    ParAlg1,
    /// **ParAlg2** (Alg. 4): selection-sort ordering + dynamic-cyclic.
    ParAlg2,
    /// Peng's sequential basic algorithm (Alg. 2).
    SeqBasic,
    /// Peng's sequential optimized algorithm (Alg. 3).
    SeqOptimized,
    /// Peng's adaptive sequential variant (intermediate-credit ordering).
    SeqAdaptive,
    /// The adaptive order in parallel waves of 8 sources per thread.
    ParAdaptive,
    /// Cache-blocked parallel Floyd–Warshall (related-work comparator).
    BlockedFw,
    /// The simulated distributed-memory cluster driver.
    Dist,
    /// Plain Floyd–Warshall baseline.
    FloydWarshall,
    /// Parallel binary-heap Dijkstra baseline.
    Dijkstra,
}

impl EngineKind {
    /// Whether the algorithm is a configuration of [`ApspEngine`]. Every
    /// row-engine capability below derives from this and
    /// [`EngineKind::sequential`].
    fn is_row_engine(self) -> bool {
        !matches!(
            self,
            EngineKind::BlockedFw
                | EngineKind::Dist
                | EngineKind::FloydWarshall
                | EngineKind::Dijkstra
        )
    }

    /// Whether the algorithm is one of Peng's sequential row engines,
    /// which always sweep on one thread.
    fn sequential(self) -> bool {
        matches!(
            self,
            EngineKind::SeqBasic | EngineKind::SeqOptimized | EngineKind::SeqAdaptive
        )
    }

    /// The algorithm's [`RunConfig`] at `threads` (the sequential family
    /// always runs one) paired with its [`ApspEngine`], or `None` when it
    /// is not a row engine. `credit_weight` overrides the adaptive kinds'
    /// default (10 for `seq-adaptive`, 16 for `par-adaptive`).
    pub fn row_engine(
        self,
        threads: usize,
        credit_weight: Option<u64>,
    ) -> Option<(RunConfig, ApspEngine)> {
        Some(match self {
            EngineKind::ParApsp => (RunConfig::par_apsp(threads), ApspEngine::new()),
            EngineKind::ParAlg1 => (RunConfig::par_alg1(threads), ApspEngine::new()),
            EngineKind::ParAlg2 => (RunConfig::par_alg2(threads), ApspEngine::new()),
            EngineKind::SeqBasic => (RunConfig::seq_basic(), ApspEngine::ordered()),
            EngineKind::SeqOptimized => (RunConfig::seq_optimized(1.0), ApspEngine::ordered()),
            EngineKind::SeqAdaptive => {
                let w = credit_weight.unwrap_or(10);
                (RunConfig::seq_adaptive(w), ApspEngine::adaptive(w))
            }
            EngineKind::ParAdaptive => {
                let w = credit_weight.unwrap_or(16);
                let config = RunConfig::new(threads)
                    .with_schedule(Schedule::dynamic_cyclic())
                    .with_label(format!("ParAdaptive(wave=8, w={w})"));
                (config, ApspEngine::adaptive_waves(w, 8))
            }
            _ => return None,
        })
    }

    /// Whether the algorithm runs through the [`Runner`] and so supports
    /// cooperative cancellation (`--deadline` / checkpoint-on-interrupt).
    pub fn cancellable(self) -> bool {
        !matches!(self, EngineKind::FloydWarshall | EngineKind::Dijkstra)
    }

    /// Whether the algorithm honours `--cap`: the row engines and the
    /// `dist` workers in their kernel, `blocked-fw` as a finish-time
    /// filter. The two baselines would ignore it.
    pub fn honours_cap(self) -> bool {
        self.cancellable()
    }

    /// Whether completed rows are final mid-run, i.e. the engine journals
    /// them to the run ledger (`--checkpoint`) and supports `--resume`.
    pub fn row_checkpoints(self) -> bool {
        self.is_row_engine()
    }

    /// Whether the algorithm runs the modified-Dijkstra kernel, i.e.
    /// honours `--relax` and `--solver`: the row engines, and `dist`,
    /// whose workers run the same row solver.
    pub fn uses_kernel(self) -> bool {
        self.is_row_engine() || self == EngineKind::Dist
    }

    /// Whether the algorithm picks its sources by intermediate credit,
    /// i.e. honours `--credit-weight`.
    pub fn adaptive(self) -> bool {
        matches!(self, EngineKind::SeqAdaptive | EngineKind::ParAdaptive)
    }

    /// Whether the algorithm sweeps its sources through the configured
    /// loop [`Schedule`], i.e. honours `--schedule`: the parallel row
    /// engines. The sequential family runs one thread (every schedule
    /// degenerates to index order) and the remaining algorithms pick
    /// their internal schedules themselves, so overriding theirs would be
    /// silently ignored.
    pub fn honours_schedule(self) -> bool {
        self.is_row_engine() && !self.sequential()
    }

    /// Whether the algorithm keeps its distance matrix in a
    /// [`Store`] and therefore honours `--store`.
    /// True for the row engines (published rows go straight into the
    /// selected backend) and the dist driver (the gather target is a
    /// store); the baselines and the blocked Floyd–Warshall mutate dense
    /// matrices in place and ignore the flag.
    pub fn supports_store(self) -> bool {
        self.is_row_engine() || self == EngineKind::Dist
    }
}

impl ValueEnum for EngineKind {
    fn value_variants() -> &'static [Self] {
        &[
            EngineKind::ParApsp,
            EngineKind::ParAlg1,
            EngineKind::ParAlg2,
            EngineKind::SeqBasic,
            EngineKind::SeqOptimized,
            EngineKind::SeqAdaptive,
            EngineKind::ParAdaptive,
            EngineKind::BlockedFw,
            EngineKind::Dist,
            EngineKind::FloydWarshall,
            EngineKind::Dijkstra,
        ]
    }

    fn value_name(&self) -> &'static str {
        match self {
            EngineKind::ParApsp => "par-apsp",
            EngineKind::ParAlg1 => "par-alg1",
            EngineKind::ParAlg2 => "par-alg2",
            EngineKind::SeqBasic => "seq-basic",
            EngineKind::SeqOptimized => "seq-optimized",
            EngineKind::SeqAdaptive => "seq-adaptive",
            EngineKind::BlockedFw => "blocked-fw",
            EngineKind::Dist => "dist",
            EngineKind::ParAdaptive => "par-adaptive",
            EngineKind::FloydWarshall => "floyd-warshall",
            EngineKind::Dijkstra => "dijkstra",
        }
    }
}

// ---------------------------------------------------------------------------
// RunConfig
// ---------------------------------------------------------------------------

/// Where and how often a run journals its completed rows: the
/// append-only run ledger ([`RowLedger`]), the one format a run writes.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// The ledger file.
    pub path: PathBuf,
    /// Completed work units between ledger commits (must be ≥ 1).
    pub every: usize,
    /// When ledger appends are fsynced.
    pub fsync: FsyncPolicy,
}

/// Every knob of an APSP run in one builder-style value: thread count,
/// loop schedule, source ordering, kernel ablation switches (row reuse,
/// queue dedup, distance cap, relax implementation), run ledger, and
/// report label.
///
/// Named constructors pin the paper's algorithm configurations; `with_*`
/// methods override any piece. The config is engine-agnostic — the same
/// value drives any [`Engine`] through a [`Runner`] (engines ignore knobs
/// that don't apply to them, e.g. the blocked Floyd–Warshall ignores the
/// ordering procedure).
#[derive(Debug, Clone)]
pub struct RunConfig {
    threads: usize,
    schedule: Schedule,
    ordering: OrderingProcedure,
    kernel: KernelOptions,
    store: StoreSpec,
    checkpoint: Option<CheckpointPolicy>,
    label: Option<String>,
}

impl RunConfig {
    /// A bare config: identity ordering, block schedule, default kernel,
    /// no ledger, engine-chosen label.
    pub fn new(threads: usize) -> Self {
        RunConfig {
            threads,
            schedule: Schedule::Block,
            ordering: OrderingProcedure::Identity,
            kernel: KernelOptions::default(),
            store: StoreSpec::default(),
            checkpoint: None,
            label: None,
        }
    }

    /// **ParAPSP** (Alg. 8): MultiLists ordering + dynamic-cyclic schedule.
    pub fn par_apsp(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::multi_lists())
            .with_label("ParAPSP")
    }

    /// **ParAlg1** (§3.1): no ordering, block partitioning.
    pub fn par_alg1(threads: usize) -> Self {
        RunConfig::new(threads).with_label("ParAlg1")
    }

    /// **ParAlg2** (Alg. 4): selection ordering + dynamic-cyclic schedule.
    pub fn par_alg2(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::selection())
            .with_label("ParAlg2")
    }

    /// The ParBuckets variant (§4.1): approximate parallel bucket ordering.
    pub fn par_buckets(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::par_buckets())
            .with_label("ParBuckets")
    }

    /// The ParMax variant (§4.2): exact max+1-bucket ordering.
    pub fn par_max(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::par_max())
            .with_label("ParMax")
    }

    /// Peng's sequential basic algorithm (Alg. 2): index order, 1 thread.
    pub fn seq_basic() -> Self {
        RunConfig::new(1).with_label("SeqBasic")
    }

    /// Peng's sequential optimized algorithm (Alg. 3): partial selection
    /// sort with ratio `r`, 1 thread.
    pub fn seq_optimized(ratio: f64) -> Self {
        RunConfig::new(1)
            .with_ordering(OrderingProcedure::SelectionSort { ratio })
            .with_label("SeqOptimized")
    }

    /// [`RunConfig::seq_optimized`] with the O(n) exact bucket ordering.
    pub fn seq_optimized_bucket() -> Self {
        RunConfig::new(1)
            .with_ordering(OrderingProcedure::SeqBucket)
            .with_label("SeqOptimizedBucket")
    }

    /// Peng's adaptive sequential variant (pair with
    /// [`ApspEngine::adaptive`]; the order is chosen at run time).
    pub fn seq_adaptive(credit_weight: u64) -> Self {
        RunConfig::new(1).with_label(format!("SeqAdaptive(w={credit_weight})"))
    }

    /// Subset-of-sources runs: degree-ordered, dynamic-cyclic.
    pub fn subset(threads: usize) -> Self {
        RunConfig::new(threads)
            .with_schedule(Schedule::dynamic_cyclic())
            .with_ordering(OrderingProcedure::SeqBucket)
    }

    /// Overrides the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the loop schedule (for the Fig. 1 scheduling study).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the source ordering procedure.
    pub fn with_ordering(mut self, ordering: OrderingProcedure) -> Self {
        self.ordering = ordering;
        self
    }

    /// Overrides the kernel ablation switches.
    pub fn with_kernel_options(mut self, kernel: KernelOptions) -> Self {
        self.kernel = kernel;
        self
    }

    /// Caps computed distances: pairs farther apart than `cap` are left at
    /// `INF`. Exact within the cap.
    pub fn with_max_distance(mut self, cap: u32) -> Self {
        self.kernel.max_distance = Some(cap);
        self
    }

    /// Selects the row-relaxation implementation (see [`crate::relax`]).
    pub fn with_relax(mut self, relax: RelaxImpl) -> Self {
        self.kernel.relax = relax;
        self
    }

    /// Selects the per-source SSSP solver (see [`crate::solver`]).
    /// [`SolverKind::Auto`] is resolved against the graph when the engine
    /// prepares the run.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.kernel.solver = solver;
        self
    }

    /// Selects the distance-matrix storage backend (see [`crate::store`]).
    /// The default dense store is the bit-identity reference; the delta
    /// and mmap tiers trade row-read cost for memory. Every backend yields
    /// a bit-identical final matrix, and row reuse fires on every backend
    /// (the tiered ones lend decoded rows through pinned leases).
    pub fn with_store(mut self, store: StoreSpec) -> Self {
        self.store = store;
        self
    }

    /// Journals progress to an append-only [`RowLedger`] at `path`: row
    /// owners append each row as they publish it (O(row) bytes, with a
    /// checksum per record), and the [`Runner`] commits the ledger after
    /// every `every` completed work units. A run killed between commits
    /// loses at most the uncommitted rows.
    ///
    /// The ledger is opened with crash recovery: a torn tail from a
    /// previous incarnation is truncated and its valid rows are folded
    /// into the resume state, so pointing a run at its own ledger after a
    /// crash resumes it. Each commit is a barrier, so small values of
    /// `every` trade sweep parallelism for durability. Engines whose rows
    /// are not final mid-run ([`Engine::row_checkpoints`] is `false`)
    /// write no ledger.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero, and later — during the run — if the
    /// ledger cannot be opened or appended to (durability was explicitly
    /// requested; a silently unwritable ledger would defeat it).
    pub fn with_ledger(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(
            every > 0,
            "ledger commit interval must be at least 1 source"
        );
        self.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every,
            fsync: FsyncPolicy::default(),
        });
        self
    }

    /// Overrides the ledger fsync policy (see [`FsyncPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics when no ledger was configured first.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        let policy = self
            .checkpoint
            .as_mut()
            .expect("configure a ledger before its fsync policy");
        policy.fsync = fsync;
        self
    }

    /// Overrides the report label (defaults to the engine's name).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured loop schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Configured source ordering procedure.
    pub fn ordering(&self) -> OrderingProcedure {
        self.ordering
    }

    /// Configured kernel switches.
    pub fn kernel(&self) -> KernelOptions {
        self.kernel
    }

    /// Configured distance-matrix storage backend.
    pub fn store(&self) -> &StoreSpec {
        &self.store
    }

    /// Configured run ledger, if any.
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// Configured label override, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

// ---------------------------------------------------------------------------
// The Engine trait
// ---------------------------------------------------------------------------

/// What [`Engine::prepare`] hands back to the [`Runner`]: the ordered work
/// units plus how long the ordering phase took.
#[derive(Debug)]
pub struct Plan {
    /// Work units in execution order. For the row engines (and
    /// [`SubsetEngine`]) these are source vertices (resume-filtered); for
    /// [`BlockedFwEngine`] pivot-tile indices. The adaptive order uses
    /// only their count.
    pub units: Vec<u32>,
    /// Wall time spent computing the source ordering.
    pub ordering: Duration,
}

/// Everything [`Engine::run_rows`] may need, borrowed from the [`Runner`].
pub struct RowsCtx<'a> {
    /// The pool executing this run.
    pub pool: &'a ThreadPool,
    /// The run's configuration.
    pub config: &'a RunConfig,
    /// Cooperative cancellation token; engines poll it at unit boundaries.
    pub token: Option<&'a CancelToken>,
    /// Per-unit timing sink ([`Runner::run_traced`]), indexed by unit id.
    pub trace: Option<&'a ParSlice<'a, u64>>,
    /// The run ledger of a ledger run: row owners journal each row they
    /// publish through [`RowJournal::record`]. `None` on every other run.
    pub journal: Option<&'a RowJournal>,
}

/// How a batch of work units ended — [`CancelStatus::Continue`] when every
/// unit ran, a stop status when the engine drained early.
pub type RowsOutcome = CancelStatus;

/// Timings and identity the [`Runner`] assembled for [`Engine::finish`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Ordering / sweep / total phase wall times.
    pub timings: PhaseTimings,
    /// Worker threads the pool actually ran.
    pub threads: usize,
    /// Report label: the config override or the engine's name.
    pub label: String,
}

/// One APSP algorithm, expressed as the four phase hooks the [`Runner`]
/// drives: plan, execute, snapshot, assemble.
///
/// Implementations own their mutable state (distance matrix, scratch
/// space, counters) across the hook calls; the `Runner` owns the
/// lifecycle — it validates resume checkpoints, chunks units between
/// ledger commits, journals completed rows to the run ledger, and wraps
/// early stops into [`RunOutcome`]s.
pub trait Engine {
    /// What a completed run yields.
    type Output;

    /// The engine's display name, used as the report label when the
    /// [`RunConfig`] does not override it.
    fn name(&self) -> &str;

    /// Whether rows completed mid-run are final, making the run ledger
    /// and resume meaningful. Engines like Floyd–Warshall — where every
    /// cell may still shrink until the last pivot — return `false`, and
    /// the [`Runner`] writes no ledger for them.
    fn row_checkpoints(&self) -> bool {
        true
    }

    /// Computes the source ordering, applies a resume checkpoint (already
    /// size-validated by the [`Runner`]), and allocates run state.
    /// Returns the remaining work units.
    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan;

    /// Executes a batch of work units, polling `ctx.token` at unit
    /// boundaries. Returns [`CancelStatus::Continue`] when the batch
    /// completed, or the stop status after draining (every started unit
    /// finished — partial state must be consistent for
    /// [`Engine::snapshot`]).
    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome;

    /// A consistent [`Checkpoint`] of all completed work, taken between
    /// batches. The default [`Engine::visit_rows`] walks it for the
    /// ledger, and the default [`Engine::into_snapshot`] returns it after
    /// an early stop.
    fn snapshot(&self) -> Checkpoint;

    /// Visits completed rows for the run ledger — the fallback for
    /// engines that do not journal at publish time: the
    /// [`Runner`] calls it between batches, with the unit batch that just
    /// ran, only when [`Engine::run_rows`] journaled nothing through
    /// [`RowsCtx::journal`]. The engine invokes `visit` with each
    /// completed `(source, row)` it can attribute to the batch — visiting
    /// extra already-completed rows is fine (the `Runner` deduplicates),
    /// missing a completed one only delays its append to a later batch.
    ///
    /// The default builds a full [`Engine::snapshot`] and visits every
    /// completed row — correct for any engine, O(n²) per batch.
    /// [`ApspEngine`] overrides it with an O(batch · row) walk of its
    /// published rows.
    fn visit_rows(&self, _units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        let snapshot = self.snapshot();
        for s in 0..snapshot.n() as u32 {
            if snapshot.completed()[s as usize] {
                visit(s, snapshot.matrix().row(s));
            }
        }
    }

    /// Like [`Engine::snapshot`], but consumes the engine — the final
    /// snapshot of a stopped run, so implementations can move their
    /// distance state into the checkpoint instead of cloning it. The
    /// default delegates to [`Engine::snapshot`] (an O(n²) copy); the row
    /// engines override it with a zero-copy handoff of their store.
    fn into_snapshot(self) -> Checkpoint
    where
        Self: Sized,
    {
        self.snapshot()
    }

    /// Assembles the completed run's output.
    fn finish(self, graph: &CsrGraph, summary: RunSummary) -> Self::Output
    where
        Self: Sized;
}

// ---------------------------------------------------------------------------
// RowJournal
// ---------------------------------------------------------------------------

/// A run's [`RowLedger`], shared by the row owners of a batch.
///
/// A published row is final, so its owner journals it at once, from the
/// plain row it still holds: the store's own row on dense, the staged
/// solve buffer on delta and mmap. No row is decoded again for the
/// ledger. The owner encodes its record, checksum included, in its own
/// thread ([`persist::encode_record`]) and holds the lock only for the
/// write, so records within a batch land in publish order. The `logged`
/// bitmap makes every row land once, whoever reports it.
///
/// The first I/O error is kept, and later records are dropped; the
/// [`Runner`] raises it on its own thread after the batch.
#[derive(Debug)]
pub struct RowJournal {
    state: Mutex<JournalState>,
}

#[derive(Debug)]
struct JournalState {
    ledger: RowLedger,
    /// Rows already in the ledger (replayed, backfilled, or journaled).
    logged: Vec<bool>,
    /// Records appended through this journal so far.
    journaled: u64,
    error: Option<PersistError>,
}

impl JournalState {
    fn append(&mut self, source: u32, record: &[u8]) {
        if self.error.is_some() || self.logged[source as usize] {
            return;
        }
        match self.ledger.append_encoded(record) {
            Ok(()) => {
                self.logged[source as usize] = true;
                self.journaled += 1;
            }
            Err(err) => self.error = Some(err),
        }
    }
}

impl RowJournal {
    fn new(ledger: RowLedger, logged: Vec<bool>) -> Self {
        RowJournal {
            state: Mutex::new(JournalState {
                ledger,
                logged,
                journaled: 0,
                error: None,
            }),
        }
    }

    /// Journals completed row `source` (a no-op when it is already in the
    /// ledger). `buf` is the caller's scratch for the encoded record:
    /// encoding happens before the lock is taken.
    pub fn record(&self, source: u32, row: &[u32], buf: &mut Vec<u8>) {
        persist::encode_record(source, row, buf);
        self.lock().append(source, buf);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalState> {
        // A panicking row owner cannot leave a half-written state: the
        // ledger's writer only ever sees whole records.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records appended through this journal so far.
    fn journaled(&self) -> u64 {
        self.lock().journaled
    }

    /// Takes the first append error, if any.
    fn take_error(&self) -> Option<PersistError> {
        self.lock().error.take()
    }

    fn commit(&self) -> Result<(), PersistError> {
        self.lock().ledger.commit()
    }

    fn into_ledger(self) -> RowLedger {
        self.state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ledger
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// The execution driver: pairs a [`RunConfig`] with any [`Engine`] and
/// owns the full run lifecycle exactly once.
#[derive(Debug, Clone)]
pub struct Runner {
    config: RunConfig,
}

impl Runner {
    /// A runner for `config`.
    pub fn new(config: RunConfig) -> Self {
        Runner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Runs `engine` to completion on a fresh thread pool.
    pub fn run<E: Engine>(&self, engine: E, graph: &CsrGraph) -> E::Output {
        let pool = ThreadPool::new(self.config.threads);
        // Without a token the sweep cannot stop early.
        self.drive(engine, graph, &pool, None, None, None)
            .unwrap_complete()
    }

    /// Runs `engine` on an existing pool (the pool's thread count wins
    /// over the configured one).
    pub fn run_with_pool<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        pool: &ThreadPool,
    ) -> E::Output {
        self.drive(engine, graph, pool, None, None, None)
            .unwrap_complete()
    }

    /// Cancellable [`Runner::run`]: the engine polls `token` at unit
    /// boundaries; on a stop the workers drain and the outcome carries a
    /// consistent checkpoint of every completed row, valid as input to
    /// [`Runner::run_resumed`] (which lands on the bit-identical final
    /// result).
    pub fn run_with_token<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        token: &CancelToken,
    ) -> RunOutcome<E::Output> {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, None, Some(token), None)
    }

    /// Continues an interrupted run from a checkpoint: rows the checkpoint
    /// marks complete are pre-published, and only the missing units are
    /// executed. Because published rows are final, the output is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's matrix size does not match `graph`.
    pub fn run_resumed<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        checkpoint: Checkpoint,
    ) -> E::Output {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, Some(checkpoint), None, None)
            .unwrap_complete()
    }

    /// Cancellable [`Runner::run_resumed`]: continues from `checkpoint`
    /// and may itself be interrupted again, yielding a newer checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's matrix size does not match `graph`.
    pub fn run_resumed_with_token<E: Engine>(
        &self,
        engine: E,
        graph: &CsrGraph,
        checkpoint: Checkpoint,
        token: &CancelToken,
    ) -> RunOutcome<E::Output> {
        let pool = ThreadPool::new(self.config.threads);
        self.drive(engine, graph, &pool, Some(checkpoint), Some(token), None)
    }

    /// Like [`Runner::run`], additionally returning the wall time each
    /// work *unit* spent executing (indexed by unit id — source vertex for
    /// the row engines). This is the per-row timing hook that used to be
    /// `ParApsp::run_traced`'s separate code path.
    pub fn run_traced<E: Engine>(&self, engine: E, graph: &CsrGraph) -> (E::Output, Vec<Duration>) {
        let pool = ThreadPool::new(self.config.threads);
        let n = graph.vertex_count();
        let mut nanos: Vec<u64> = vec![0; n];
        let out = {
            let view = ParSlice::new(&mut nanos[..]);
            self.drive(engine, graph, &pool, None, None, Some(&view))
                .unwrap_complete()
        };
        (out, nanos.into_iter().map(Duration::from_nanos).collect())
    }

    /// The single lifecycle implementation every entry point funnels into.
    fn drive<E: Engine>(
        &self,
        mut engine: E,
        graph: &CsrGraph,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
        token: Option<&CancelToken>,
        trace: Option<&ParSlice<'_, u64>>,
    ) -> RunOutcome<E::Output> {
        if let Some(cp) = &resume {
            assert_eq!(
                cp.n(),
                graph.vertex_count(),
                "checkpoint is for a {}-vertex matrix but the graph has {} vertices",
                cp.n(),
                graph.vertex_count()
            );
        }
        let start = Instant::now();
        // The ledger opens (and crash-recovers) its file before `prepare`,
        // so rows replayed from the torn-tail recovery join the resume
        // state, and rows only the `--resume` artifact knows about are
        // backfilled into the ledger.
        let policy = self
            .config
            .checkpoint
            .as_ref()
            .filter(|_| engine.row_checkpoints());
        let mut journal: Option<RowJournal> = None;
        let resume = match policy {
            Some(policy) => {
                let fail = |err: PersistError| -> ! { ledger_failure(&policy.path, err) };
                let (mut ledger, replayed) =
                    RowLedger::open(&policy.path, graph.vertex_count(), policy.fsync)
                        .unwrap_or_else(|err| fail(err));
                let merged = match resume {
                    Some(cp) => {
                        let (mut dist, mut completed) = cp.into_parts();
                        for (s, done) in completed.iter_mut().enumerate() {
                            if replayed.completed()[s] && !*done {
                                dist.copy_row_from(s as u32, replayed.matrix().row(s as u32));
                                *done = true;
                            } else if *done && !replayed.completed()[s] {
                                ledger
                                    .append(s as u32, dist.row(s as u32))
                                    .unwrap_or_else(|err| fail(err));
                            }
                        }
                        ledger.commit().unwrap_or_else(|err| fail(err));
                        Checkpoint::new(dist, completed)
                    }
                    None => replayed,
                };
                journal = Some(RowJournal::new(ledger, merged.completed().to_vec()));
                Some(merged)
            }
            None => resume,
        };
        let plan = engine.prepare(graph, &self.config, pool, resume);
        let ctx = RowsCtx {
            pool,
            config: &self.config,
            token,
            trace,
            journal: journal.as_ref(),
        };
        let t_sssp = Instant::now();
        let status = match policy.zip(journal.as_ref()) {
            Some((policy, journal)) => {
                let fail = |err: PersistError| -> ! { ledger_failure(&policy.path, err) };
                // Row owners journal as they publish; an engine that
                // journaled nothing this batch is walked instead. Between
                // batches no row owner is active, so every row it reports
                // completed is final.
                let mut status = CancelStatus::Continue;
                let mut buf = Vec::new();
                for chunk in plan.units.chunks(policy.every) {
                    let journaled = journal.journaled();
                    status = engine.run_rows(graph, chunk, &ctx);
                    if journal.journaled() == journaled {
                        engine.visit_rows(chunk, &mut |s, row| journal.record(s, row, &mut buf));
                    }
                    if let Some(err) = journal.take_error() {
                        fail(err);
                    }
                    journal.commit().unwrap_or_else(|err| fail(err));
                    if status.is_stop() {
                        break;
                    }
                }
                status
            }
            None => engine.run_rows(graph, &plan.units, &ctx),
        };
        if let Some((policy, journal)) = policy.zip(journal) {
            journal
                .into_ledger()
                .finish()
                .unwrap_or_else(|err| ledger_failure(&policy.path, err));
        }
        let sssp = t_sssp.elapsed();

        if status.is_stop() {
            // The cancellable loop has drained: no unit is mid-flight, so
            // the published rows form a consistent partial result. The
            // engine is consumed so row engines can move their store into
            // the checkpoint instead of cloning the whole matrix — the
            // ledger loop above has already appended the stopping chunk's
            // completed rows, so nothing else reads the engine.
            return RunOutcome::from_stop(status, engine.into_snapshot());
        }

        let label = match &self.config.label {
            Some(label) => label.clone(),
            None => engine.name().to_owned(),
        };
        let summary = RunSummary {
            timings: PhaseTimings {
                ordering: plan.ordering,
                sssp,
                total: start.elapsed(),
            },
            threads: pool.num_threads(),
            label,
        };
        RunOutcome::Complete(engine.finish(graph, summary))
    }
}

/// Raises a run-ledger I/O failure: durability was explicitly requested,
/// so a ledger that cannot be written stops the run.
fn ledger_failure(path: &Path, err: PersistError) -> ! {
    panic!("run ledger {}: {err}", path.display())
}

// ---------------------------------------------------------------------------
// ApspEngine — the row engine
// ---------------------------------------------------------------------------

/// Where [`ApspEngine`] takes its sources from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum OrderSource {
    /// The [`RunConfig`]'s ordering procedure, computed once up front.
    #[default]
    Static,
    /// Peng's adaptive order, picked in waves of `wave × threads` sources.
    /// Before each wave the remaining sources are ranked by
    /// `credit · credit_weight + degree`, ties to the lower index; a
    /// vertex's credit counts the shortest paths it relayed in earlier
    /// waves.
    Adaptive { credit_weight: u64, wave: usize },
    /// These sources only, into a `k × n` subset store: in list order
    /// under [`OrderingProcedure::Identity`], hub-first under any other
    /// ordering (the [`SubsetEngine`] behind it).
    Subset(Vec<u32>),
}

/// The adaptive order's run state.
struct Adaptive {
    degrees: Vec<u32>,
    /// Relay credit folded in from every finished wave.
    credit: Vec<u64>,
    /// Sources not yet picked.
    remaining: Vec<u32>,
}

impl Adaptive {
    /// Removes the `k` best-ranked remaining sources and returns them
    /// best first: an O(n) select, then a sort of the wave alone.
    fn pick(&mut self, k: usize, credit_weight: u64) -> Vec<u32> {
        let Adaptive {
            degrees,
            credit,
            remaining,
        } = self;
        let key = |&v: &u32| {
            let score = credit[v as usize]
                .saturating_mul(credit_weight)
                .saturating_add(degrees[v as usize] as u64);
            (std::cmp::Reverse(score), v)
        };
        if k < remaining.len() {
            remaining.select_nth_unstable_by_key(k, key);
        }
        let mut wave: Vec<u32> = remaining.drain(..k).collect();
        wave.sort_unstable_by_key(key);
        wave
    }
}

/// One pool thread's solver scratch, staging buffers, counters, busy
/// time, and the current wave's relay credit.
struct RowLocal {
    ws: Workspace,
    /// Staging row for store backends that cannot lend in-place mutable
    /// rows: [`Store::claim_row`] hands it out reset, the solver computes
    /// into it, and [`Store::publish_claimed`] hands it over.
    row_buf: Vec<u32>,
    /// The owner's encoded run-ledger record ([`RowJournal::record`]);
    /// stays empty on runs without a ledger.
    record_buf: Vec<u8>,
    counters: Counters,
    busy: Duration,
    /// Adaptive order only, else empty.
    credit: Vec<u64>,
}

/// The row engine: the modified Dijkstra from every source, sources as
/// independent tasks on the pool under the configured schedule, rows
/// shared through the Release/Acquire publication protocol.
///
/// Every paper algorithm that solves rows is a configuration of it:
/// [`ApspEngine::new`] with the `RunConfig::par_*` constructors gives
/// ParAlg1, ParAlg2, ParBuckets, ParMax and ParAPSP; the same static
/// order at one thread ([`SeqEngine::ordered`]) gives Peng's Alg. 2/3;
/// [`ApspEngine::adaptive`] and [`ApspEngine::adaptive_waves`] pick the
/// sources adaptively instead, and [`SubsetEngine`] solves the rows of a
/// chosen source subset only.
#[derive(Default)]
pub struct ApspEngine {
    order: OrderSource,
    store: Option<Store>,
    locals: Option<PerThread<RowLocal>>,
    solver: Option<RowSolver>,
    adaptive: Option<Adaptive>,
}

/// Peng's sequential family: [`ApspEngine`] run at one thread.
pub type SeqEngine = ApspEngine;

impl ApspEngine {
    /// A row engine following the [`RunConfig`]'s ordering.
    pub fn new() -> Self {
        ApspEngine::default()
    }

    /// [`ApspEngine::new`], named for Peng's sequential family (basic,
    /// optimized and bucket differ only in the config's ordering).
    pub fn ordered() -> Self {
        ApspEngine::new()
    }

    /// Peng's adaptive variant: one source per thread per wave, so at one
    /// thread the next source is picked after every row.
    pub fn adaptive(credit_weight: u64) -> Self {
        ApspEngine::adaptive_waves(credit_weight, 1)
    }

    /// The adaptive order in waves of `wave` sources per pool thread.
    /// Within a wave the order is fixed, so the wave parallelizes like
    /// ParAPSP; between waves the remaining sources are re-ranked.
    ///
    /// # Panics
    ///
    /// Panics when `wave` is zero.
    pub fn adaptive_waves(credit_weight: u64, wave: usize) -> Self {
        assert!(wave > 0, "wave size must be positive");
        ApspEngine {
            order: OrderSource::Adaptive {
                credit_weight,
                wave,
            },
            ..ApspEngine::default()
        }
    }

    /// The engine behind [`SubsetEngine`]: rows for `sources` only.
    pub(crate) fn subset(sources: Vec<u32>) -> Self {
        ApspEngine {
            order: OrderSource::Subset(sources),
            ..ApspEngine::default()
        }
    }

    /// Solves `sources` on the pool under the config's schedule: the one
    /// per-source body of every order source: claim the row, solve it,
    /// publish it, journal it. `feedback` collects relay
    /// credit into each thread's credit slot.
    fn sweep(
        &self,
        graph: &CsrGraph,
        sources: &[u32],
        ctx: &RowsCtx<'_>,
        feedback: bool,
    ) -> RowsOutcome {
        let store = self.store.as_ref().expect("prepare() not called");
        let locals = self.locals.as_ref().expect("prepare() not called");
        let solver = self.solver.as_ref().expect("prepare() not called");
        let trace = ctx.trace;
        let journal = ctx.journal;
        let body = |tid: usize, k: usize| {
            let s = sources[k];
            // SAFETY: each pool thread touches only its own scratch slot.
            let local = unsafe { locals.get_mut(tid) };
            let t0 = Instant::now();
            // SAFETY: every source is swept once per run, so source `s`
            // belongs to exactly this iteration — the unique-row-owner
            // contract of `Store::claim_row`.
            let (row, staged) = unsafe { store.claim_row(s, &mut local.row_buf) };
            let credit = feedback.then_some(&mut local.credit[..]);
            solver.solve_row(
                graph,
                s,
                store,
                row,
                &mut local.ws,
                &mut local.counters,
                credit,
            );
            // Alg. 1 line 21: flag[s] = 1 — publish the completed row.
            store.publish_claimed(s, row, staged);
            if let Some(journal) = journal {
                // The plain row the owner still holds: the store's own on
                // dense, the staged buffer (left intact) elsewhere.
                let row = store.published_row(s).unwrap_or(&local.row_buf);
                journal.record(s, row, &mut local.record_buf);
            }
            let elapsed = t0.elapsed();
            local.busy += elapsed;
            if let Some(view) = trace {
                // SAFETY: as above, the trace slot of `s` belongs
                // exclusively to this iteration.
                unsafe { view.write(s as usize, elapsed.as_nanos() as u64) };
            }
        };
        match ctx.token {
            Some(token) => {
                ctx.pool
                    .parallel_for_cancellable(sources.len(), ctx.config.schedule(), token, body)
            }
            None => {
                ctx.pool
                    .parallel_for(sources.len(), ctx.config.schedule(), body);
                CancelStatus::Continue
            }
        }
    }

    /// Consumes a finished run: the store, the per-thread counters merged
    /// (with the store's pinned high-water mark folded in), and each
    /// thread's busy time.
    pub(crate) fn into_results(self) -> (Store, Counters, Vec<Duration>) {
        let store = self.store.expect("prepare() not called");
        let mut counters = Counters::default();
        let mut thread_busy = Vec::new();
        for local in self.locals.expect("prepare() not called").into_inner() {
            counters.merge(&local.counters);
            thread_busy.push(local.busy);
        }
        counters.pinned_bytes_peak = counters.pinned_bytes_peak.max(store.pinned_bytes_peak());
        (store, counters, thread_busy)
    }
}

impl Engine for ApspEngine {
    type Output = ApspOutput;

    fn name(&self) -> &str {
        match self.order {
            OrderSource::Static => "ParApsp",
            OrderSource::Adaptive { .. } => "ParAdaptive",
            OrderSource::Subset(_) => "SubsetRows",
        }
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        let n = graph.vertex_count();
        let degrees = degree::out_degrees(graph);
        let adaptive = matches!(self.order, OrderSource::Adaptive { .. });
        // A subset's store checks its sources before anything indexes by
        // them.
        let subset = match &self.order {
            OrderSource::Subset(sources) => Some((Store::subset(n, sources), sources)),
            _ => None,
        };
        let t_order = Instant::now();
        let order = match (&self.order, config.ordering()) {
            // The adaptive order picks its sources between waves; its
            // units are the unpicked sources in index order, and only
            // their count is used.
            (OrderSource::Adaptive { .. }, _) => (0..n as u32).collect(),
            (OrderSource::Static, ordering) => ordering.compute(&degrees, pool),
            // A subset keeps the caller's order under Identity, and is
            // visited hub-first (same rationale as Alg. 3) under anything
            // else, via the exact O(k) bucket sort.
            (OrderSource::Subset(sources), OrderingProcedure::Identity) => sources.clone(),
            (OrderSource::Subset(sources), _) => {
                let subset_degrees: Vec<u32> =
                    sources.iter().map(|&s| degrees[s as usize]).collect();
                seq_bucket_sort(&subset_degrees)
                    .into_iter()
                    .map(|i| sources[i as usize])
                    .collect()
            }
        };
        let ordering = t_order.elapsed();

        // A resumed run pre-publishes the checkpoint's completed rows and
        // sweeps only the rest, in the same order a fresh run would visit
        // them.
        let mut units = order;
        let store = match resume {
            Some(checkpoint) => {
                let (dist, completed) = checkpoint.into_parts();
                units.retain(|&s| !completed[s as usize]);
                match subset {
                    Some((store, sources)) => {
                        for &s in sources {
                            if completed[s as usize] {
                                store.publish_from(s, dist.row(s));
                            }
                        }
                        store
                    }
                    None => Store::from_parts(dist, &completed, config.store()),
                }
            }
            None => subset.map_or_else(|| Store::new(n, config.store()), |(store, _)| store),
        };
        let credit_len = if adaptive { n } else { 0 };
        self.store = Some(store);
        self.locals = Some(PerThread::from_fn(pool.num_threads(), |_| RowLocal {
            ws: Workspace::new(n),
            row_buf: vec![INF; n],
            record_buf: Vec::new(),
            counters: Counters::default(),
            busy: Duration::ZERO,
            credit: vec![0; credit_len],
        }));
        self.solver = Some(RowSolver::resolve(graph, config.kernel()));
        if adaptive {
            self.adaptive = Some(Adaptive {
                degrees,
                credit: vec![0; n],
                remaining: units.clone(),
            });
        }
        Plan { units, ordering }
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let OrderSource::Adaptive {
            credit_weight,
            wave,
        } = self.order
        else {
            return self.sweep(graph, units, ctx, false);
        };
        for batch in units.chunks(wave * ctx.pool.num_threads()) {
            let adaptive = self.adaptive.as_mut().expect("prepare() not called");
            let picked = adaptive.pick(batch.len(), credit_weight);
            let status = self.sweep(graph, &picked, ctx, true);
            // Fold the wave's per-thread credit into the ranking signal;
            // the pool is idle between waves.
            let global = &mut self.adaptive.as_mut().expect("prepare() not called").credit;
            for local in self
                .locals
                .as_mut()
                .expect("prepare() not called")
                .iter_mut()
            {
                for (global, local) in global.iter_mut().zip(&mut local.credit) {
                    *global += std::mem::take(local);
                }
            }
            if status.is_stop() {
                return status;
            }
        }
        CancelStatus::Continue
    }

    fn snapshot(&self) -> Checkpoint {
        let (dist, completed) = self
            .store
            .as_ref()
            .expect("prepare() not called")
            .snapshot();
        Checkpoint::from_store_parts(dist, completed)
    }

    fn into_snapshot(self) -> Checkpoint {
        // Moves the store into the checkpoint — zero-copy for the dense
        // backend, a decode on every pool thread otherwise — instead of
        // the default's full snapshot clone. The teardown has already
        // set every unfinished row to INF.
        let threads = self.locals.as_ref().map_or(1, PerThread::len);
        let (dist, completed) = self
            .store
            .expect("prepare() not called")
            .into_parts(threads);
        Checkpoint::from_store_parts(dist, completed)
    }

    fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        // Units are source vertices; a published row is final. (Adaptive
        // units need not be the batch's sources, but a batch that solved
        // a row journaled it, so this fallback only runs on empty ones.)
        // `read_row_into` bypasses the hot-row cache, so the walk never
        // evicts the kernel's rows.
        let store = self.store.as_ref().expect("prepare() not called");
        let mut buf = vec![INF; store.n()];
        for &s in units {
            if store.read_row_into(s, &mut buf) {
                visit(s, &buf);
            }
        }
    }

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> ApspOutput {
        let (store, counters, thread_busy) = self.into_results();
        ApspOutput {
            dist: store.into_matrix(summary.threads),
            timings: summary.timings,
            counters,
            threads: summary.threads,
            algorithm: summary.label,
            thread_busy,
        }
    }
}

// ---------------------------------------------------------------------------
// StoreApspEngine — ApspEngine, keeping the store alive
// ---------------------------------------------------------------------------

/// [`ApspEngine`] whose [`Engine::finish`] hands back the live [`Store`]
/// instead of collapsing it into a dense [`DistanceMatrix`]
/// (which would momentarily materialize the full O(n²) matrix and defeat
/// an out-of-core run). The `store_scaling` bench and the bounded-memory
/// smoke use this to measure per-backend residency; regular callers want
/// [`ApspEngine`].
///
/// [`DistanceMatrix`]: crate::DistanceMatrix
#[derive(Default)]
pub struct StoreApspEngine {
    inner: ApspEngine,
}

impl StoreApspEngine {
    /// A fresh engine; all behaviour comes from the [`RunConfig`].
    pub fn new() -> Self {
        StoreApspEngine::default()
    }
}

/// What a completed [`StoreApspEngine`] run yields: the store still in its
/// configured backend, plus the usual run report fields.
pub struct StoreRunOutput {
    /// The completed distance matrix, resident in the selected backend.
    pub store: Store,
    /// Ordering / sweep / total phase wall times.
    pub timings: PhaseTimings,
    /// Merged kernel counters.
    pub counters: Counters,
    /// Worker threads the run used.
    pub threads: usize,
    /// Report label.
    pub algorithm: String,
}

/// The [`Engine`] methods of a wrapper around an `inner` [`ApspEngine`]
/// that differs from it only in [`Engine::finish`] ([`StoreApspEngine`],
/// [`SubsetEngine`]). The signatures name the engine types in scope at
/// the call site.
macro_rules! forward_to_row_engine {
    () => {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn prepare(
            &mut self,
            graph: &CsrGraph,
            config: &RunConfig,
            pool: &ThreadPool,
            resume: Option<Checkpoint>,
        ) -> Plan {
            self.inner.prepare(graph, config, pool, resume)
        }

        fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
            self.inner.run_rows(graph, units, ctx)
        }

        fn snapshot(&self) -> Checkpoint {
            self.inner.snapshot()
        }

        fn into_snapshot(self) -> Checkpoint {
            self.inner.into_snapshot()
        }

        fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
            self.inner.visit_rows(units, visit);
        }
    };
}
pub(crate) use forward_to_row_engine;

impl Engine for StoreApspEngine {
    type Output = StoreRunOutput;

    forward_to_row_engine!();

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> StoreRunOutput {
        let (store, counters, _) = self.inner.into_results();
        StoreRunOutput {
            store,
            timings: summary.timings,
            counters,
            threads: summary.threads,
            algorithm: summary.label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    /// Reference solve: Alg. 2 driven through the Runner.
    fn seq_basic(graph: &CsrGraph) -> ApspOutput {
        Runner::new(RunConfig::seq_basic()).run(SeqEngine::ordered(), graph)
    }

    #[test]
    fn value_enum_parses_and_rejects_with_full_listing() {
        assert_eq!(
            EngineKind::parse_value("par-apsp").unwrap(),
            EngineKind::ParApsp
        );
        assert_eq!(
            EngineKind::parse_value("blocked-fw").unwrap(),
            EngineKind::BlockedFw
        );
        let err = EngineKind::parse_value("par-warp").unwrap_err();
        assert!(err.contains("par-warp"));
        assert!(err.contains("par-apsp"));
        assert!(err.contains("dist"));

        assert_eq!(RelaxImpl::parse_value("avx2").unwrap(), RelaxImpl::Avx2);
        let err = RelaxImpl::parse_value("sse9").unwrap_err();
        assert!(err.contains("scalar") && err.contains("auto"));
        // The trait names agree with the pre-existing inherent names.
        for relax in RelaxImpl::ALL {
            assert_eq!(relax.value_name(), relax.name());
            assert_eq!(RelaxImpl::parse_value(relax.name()).unwrap(), relax);
        }
        // Round trip for every engine kind.
        for kind in EngineKind::value_variants() {
            assert_eq!(EngineKind::parse_value(kind.value_name()).unwrap(), *kind);
        }
    }

    #[test]
    fn engine_kind_capability_tables_are_consistent() {
        for kind in EngineKind::value_variants() {
            // Anything resumable must also be cancellable (resume exists to
            // continue interrupted runs).
            if kind.row_checkpoints() {
                assert!(kind.cancellable(), "{}", kind.value_name());
            }
        }
        assert!(!EngineKind::FloydWarshall.cancellable());
        assert!(EngineKind::BlockedFw.cancellable());
        assert!(!EngineKind::BlockedFw.row_checkpoints());
        assert!(EngineKind::SeqBasic.row_checkpoints());
        // Schedule-honouring engines are exactly the Runner-driven
        // parallel sweeps, which must also run the kernel.
        for kind in EngineKind::value_variants() {
            if kind.honours_schedule() {
                assert!(kind.uses_kernel(), "{}", kind.value_name());
            }
        }
        assert!(EngineKind::ParApsp.honours_schedule());
        assert!(EngineKind::ParAlg1.honours_schedule());
        assert!(EngineKind::ParAdaptive.honours_schedule());
        assert!(!EngineKind::SeqBasic.honours_schedule());
        assert!(!EngineKind::BlockedFw.honours_schedule());
        // The kernel runs in every row engine and in the dist workers,
        // and nowhere else.
        for &kind in EngineKind::value_variants() {
            assert_eq!(
                kind.uses_kernel(),
                kind.row_engine(4, None).is_some() || kind == EngineKind::Dist,
                "{}",
                kind.value_name()
            );
        }
        assert!(EngineKind::Dist.uses_kernel() && EngineKind::Dist.honours_cap());
        assert!(!EngineKind::BlockedFw.uses_kernel());
        // The row-engine table and the capabilities agree, and the
        // sequential kinds always run one thread.
        for &kind in EngineKind::value_variants() {
            let row = kind.row_engine(4, None);
            assert_eq!(
                row.is_some(),
                kind.row_checkpoints(),
                "{}",
                kind.value_name()
            );
            assert_eq!(
                row.is_some(),
                kind.supports_store() && kind != EngineKind::Dist
            );
            if let Some((config, _)) = row {
                assert_eq!(config.threads() == 4, kind.honours_schedule());
            }
            assert_eq!(kind.honours_cap(), kind.cancellable());
        }
        assert!(!EngineKind::Dijkstra.honours_cap());
        assert!(EngineKind::ParAdaptive.adaptive() && !EngineKind::ParApsp.adaptive());
    }

    #[test]
    #[should_panic(expected = "wave size")]
    fn zero_wave_size_rejected() {
        let _ = ApspEngine::adaptive_waves(1, 0);
    }

    /// The adaptive pick ranks by `credit · w + degree`, ties to the lower
    /// index: a wave of one is Peng's argmax, a wider wave the top k.
    #[test]
    fn adaptive_pick_ranks_by_credit_then_degree_then_index() {
        let mut adaptive = Adaptive {
            degrees: vec![3, 5, 5, 1, 0],
            credit: vec![0, 0, 0, 1, 0],
            remaining: (0..5).collect(),
        };
        // Scores at w = 4: [3, 5, 5, 5, 0].
        assert_eq!(adaptive.pick(1, 4), vec![1]);
        assert_eq!(adaptive.pick(2, 4), vec![2, 3]);
        assert_eq!(adaptive.pick(2, 4), vec![0, 4]);
        assert!(adaptive.remaining.is_empty());
    }

    #[test]
    fn runner_drives_apsp_and_seq_engines_to_identical_matrices() {
        let g = barabasi_albert(180, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 7).unwrap();
        let reference = seq_basic(&g);
        let par = Runner::new(RunConfig::par_apsp(4)).run(ApspEngine::new(), &g);
        assert_eq!(reference.dist.first_difference(&par.dist), None);
        assert_eq!(par.algorithm, "ParAPSP");
        assert_eq!(par.threads, 4);
        let seq = Runner::new(RunConfig::seq_optimized(1.0)).run(SeqEngine::ordered(), &g);
        assert_eq!(reference.dist.first_difference(&seq.dist), None);
        assert_eq!(seq.algorithm, "SeqOptimized");
        assert_eq!(seq.threads, 1);
        let adaptive = Runner::new(RunConfig::seq_adaptive(10)).run(SeqEngine::adaptive(10), &g);
        assert_eq!(reference.dist.first_difference(&adaptive.dist), None);
        assert_eq!(adaptive.algorithm, "SeqAdaptive(w=10)");
    }

    #[test]
    fn adaptive_engine_supports_cancel_and_resume() {
        let g = barabasi_albert(120, 3, WeightSpec::Uniform { lo: 1, hi: 5 }, 13).unwrap();
        let full = Runner::new(RunConfig::seq_adaptive(10)).run(SeqEngine::adaptive(10), &g);
        let token = CancelToken::with_poll_budget(35);
        let outcome = Runner::new(RunConfig::seq_adaptive(10)).run_with_token(
            SeqEngine::adaptive(10),
            &g,
            &token,
        );
        let cp = outcome.into_checkpoint().expect("35 < 120 sources");
        assert_eq!(cp.completed_count(), 35);
        let resumed =
            Runner::new(RunConfig::seq_adaptive(10)).run_resumed(SeqEngine::adaptive(10), &g, cp);
        assert_eq!(full.dist.first_difference(&resumed.dist), None);
    }

    /// The dense matrix is born as zero pages and a row is reset to `INF`
    /// only when its owner claims it, so a run stopped after its first
    /// batch leaves most rows untouched zeros in the store. The stop
    /// checkpoint must still hold an all-`INF` row for every unfinished
    /// source, and resuming from it must land on seq-basic's matrix.
    #[test]
    fn stopped_dense_run_checkpoints_infinite_unfinished_rows_and_resumes() {
        const EVERY: usize = 16;
        let dir = std::env::temp_dir().join(format!("parapsp-first-touch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stop.ledger");
        std::fs::remove_file(&path).ok();
        let g = barabasi_albert(150, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 21).unwrap();
        let n = g.vertex_count();
        let config = RunConfig::par_apsp(2).with_ledger(&path, EVERY);
        assert_eq!(config.store().kind(), crate::store::StoreKind::Dense);
        // One poll per row: the budget lets exactly the first batch run.
        let token = CancelToken::with_poll_budget(EVERY as u64);
        let outcome = Runner::new(config.clone()).run_with_token(ApspEngine::new(), &g, &token);
        let cp = outcome.into_checkpoint().expect("stopped after one batch");
        assert_eq!(cp.completed_count(), EVERY);
        for s in (0..n as u32).filter(|&s| !cp.completed()[s as usize]) {
            assert!(
                cp.matrix().row(s).iter().all(|&d| d == INF),
                "unfinished row {s} must be all INF"
            );
        }
        let resumed = Runner::new(config).run_resumed(ApspEngine::new(), &g, cp);
        assert_eq!(seq_basic(&g).dist.first_difference(&resumed.dist), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--checkpoint-every` boundaries must produce identical ledger
    /// records across engines. With one thread, identity order, and a
    /// poll budget of `BUDGET`, every row engine completes exactly rows
    /// `0..BUDGET`, in that order — and since published rows are exact,
    /// the records after the header (whose run id differs per file) must
    /// be byte-identical across par, seq, and subset.
    #[test]
    fn checkpoint_every_boundaries_produce_identical_ledger_records_across_engines() {
        const BUDGET: u64 = 20;
        const EVERY: usize = 8; // not a divisor of BUDGET: exercises a mid-chunk stop
        const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(90, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();

        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        let mut record = |name: &str, run: &mut dyn FnMut(&std::path::Path, &CancelToken)| {
            let path = dir.join(format!("{name}.ledger"));
            std::fs::remove_file(&path).ok();
            let token = CancelToken::with_poll_budget(BUDGET);
            run(&path, &token);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(&bytes[..5], b"PAPD\x03", "{name} wrote a v3 ledger");
            // Each ledger alone replays exactly the budgeted rows.
            let cp = persist::read_checkpoint(bytes.as_slice()).unwrap();
            assert_eq!(cp.completed_count() as u64, BUDGET, "{name}");
            assert!(cp.completed()[..BUDGET as usize].iter().all(|&done| done));
            files.push((name.to_owned(), bytes[HEADER_LEN..].to_vec()));
        };

        record("par", &mut |path, token| {
            let config = RunConfig::par_apsp(1)
                .with_ordering(OrderingProcedure::Identity)
                .with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(ApspEngine::new(), &g, token);
            assert!(!outcome.is_complete());
        });
        record("seq", &mut |path, token| {
            let config = RunConfig::seq_basic().with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(SeqEngine::ordered(), &g, token);
            assert!(!outcome.is_complete());
        });
        record("subset", &mut |path, token| {
            let sources: Vec<u32> = (0..90).collect();
            let config = RunConfig::subset(1)
                .with_ordering(OrderingProcedure::Identity)
                .with_ledger(path, EVERY);
            let outcome = Runner::new(config).run_with_token(SubsetEngine::new(sources), &g, token);
            assert!(!outcome.is_complete());
        });

        let (first_name, first) = &files[0];
        assert_eq!(first.len(), BUDGET as usize * (8 + 4 * 90 + 4));
        for (name, bytes) in &files[1..] {
            assert_eq!(bytes, first, "{name} vs {first_name}");
        }

        // Blocked FW is not a row-checkpointing engine: a run with a
        // ledger configured must not write one, and its stop checkpoint
        // has zero completed rows by design.
        let fw_path = dir.join("fw.ledger");
        std::fs::remove_file(&fw_path).ok();
        let config = RunConfig::new(2).with_ledger(&fw_path, EVERY);
        let out = Runner::new(config.clone()).run(BlockedFwEngine::new(32), &g);
        assert_eq!(out.n(), 90);
        assert!(
            !fw_path.exists(),
            "non-row engine must skip periodic writes"
        );
        let token = CancelToken::with_poll_budget(1);
        let stopped = Runner::new(config).run_with_token(BlockedFwEngine::new(32), &g, &token);
        assert_eq!(stopped.checkpoint().unwrap().completed_count(), 0);
    }

    /// The run ledger is an O(row) drop-in for the O(n²) checkpoint
    /// rewrite — a cancelled ledger run resumes from its own ledger (no
    /// separate `--resume` artifact needed) and lands on the bit-identical
    /// final matrix, having recomputed only the missing rows. Swept over
    /// every store backend (mmap with a budget of a few rows) × {1, 2, 4}
    /// threads × {par-apsp, par-adaptive}, with the fsync policies rotated
    /// through the cells: row owners journal at publish time, so the
    /// stopped run's ledger holds exactly the rows its stop checkpoint
    /// holds.
    #[test]
    fn ledger_runs_resume_from_their_own_file_bit_identically() {
        const BUDGET: u64 = 20;
        const EVERY: usize = 8;
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(90, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();
        let reference = seq_basic(&g);

        let stores = [
            StoreSpec::dense(),
            StoreSpec::delta(4),
            StoreSpec::parse("mmap:4k").unwrap(),
        ];
        let mut cell = 0;
        for store in &stores {
            for threads in [1, 2, 4] {
                let fsync = FsyncPolicy::ALL[cell % FsyncPolicy::ALL.len()];
                cell += 1;
                for kind in [EngineKind::ParApsp, EngineKind::ParAdaptive] {
                    let name = format!(
                        "{}-{}-t{threads}-{}",
                        kind.value_name(),
                        store.label(),
                        fsync.name()
                    );
                    let path = dir.join(format!("run-{name}.ledger"));
                    std::fs::remove_file(&path).ok();
                    let engine = || kind.row_engine(threads, None).unwrap();
                    let config = engine()
                        .0
                        .with_ordering(OrderingProcedure::Identity)
                        .with_store(store.clone())
                        .with_ledger(&path, EVERY)
                        .with_fsync(fsync);
                    let token = CancelToken::with_poll_budget(BUDGET);
                    let outcome =
                        Runner::new(config.clone()).run_with_token(engine().1, &g, &token);
                    let stopped = outcome.into_checkpoint().expect("20 < 90 sources");
                    // The interrupted ledger replays to exactly the rows the
                    // stopped run published, every one of them exact.
                    let cp = persist::load_checkpoint(&path).unwrap();
                    assert_eq!(cp.completed(), stopped.completed(), "{name}");
                    if threads == 1 {
                        assert_eq!(cp.completed_count() as u64, BUDGET, "{name}");
                    }
                    for s in (0..90u32).filter(|&s| cp.completed()[s as usize]) {
                        assert_eq!(cp.matrix().row(s), reference.dist.row(s), "{name} row {s}");
                    }

                    // Re-running against the same ledger resumes implicitly.
                    let resumed = Runner::new(config).run(engine().1, &g);
                    assert_eq!(
                        reference.dist.first_difference(&resumed.dist),
                        None,
                        "{name}"
                    );
                    let cp = persist::load_checkpoint(&path).unwrap();
                    assert!(cp.is_complete(), "{name}");
                    assert_eq!(
                        cp.matrix().first_difference(&reference.dist),
                        None,
                        "{name}"
                    );
                    std::fs::remove_file(&path).ok();
                }
            }
        }
    }

    /// Row owners append their records in publish order, which differs
    /// from run to run under several threads. Every record is
    /// byte-for-byte the one [`persist::encode_record`] frames for its
    /// row, and the ledger replays complete and exact whatever order the
    /// records were appended in.
    #[test]
    fn a_two_thread_ledger_replays_exactly_in_any_record_order() {
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(80, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 21).unwrap();
        let n = g.vertex_count();
        let reference = seq_basic(&g);
        let path = dir.join("two-threads.ledger");
        std::fs::remove_file(&path).ok();
        let config = RunConfig::par_apsp(2)
            .with_store(StoreSpec::delta(4))
            .with_ledger(&path, 8)
            .with_fsync(FsyncPolicy::Never);
        let out = Runner::new(config).run(ApspEngine::new(), &g);
        assert_eq!(reference.dist.first_difference(&out.dist), None);

        let bytes = std::fs::read(&path).unwrap();
        let record_len = 8 + 4 * n + 4;
        let header_len = bytes.len() - n * record_len;
        let (header, body) = bytes.split_at(header_len);
        let mut records: Vec<&[u8]> = body.chunks_exact(record_len).collect();
        let mut expected = Vec::new();
        for record in &records {
            let source = u32::from_le_bytes(record[..4].try_into().unwrap());
            persist::encode_record(source, reference.dist.row(source), &mut expected);
            assert_eq!(*record, expected.as_slice(), "record of row {source}");
        }

        // Replay the same records in reverse and in a seeded shuffle.
        let reversed: Vec<&[u8]> = records.iter().rev().copied().collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..records.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            records.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (order, records) in [("reversed", reversed), ("shuffled", records)] {
            let mut file = header.to_vec();
            for record in records {
                file.extend_from_slice(record);
            }
            let cp = persist::read_checkpoint(file.as_slice()).unwrap();
            assert!(cp.is_complete(), "{order}");
            assert_eq!(
                cp.matrix().first_difference(&reference.dist),
                None,
                "{order}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A `--resume` checkpoint and a recovered ledger merge: rows known
    /// only to the checkpoint are backfilled into the ledger, rows known
    /// only to the ledger join the resume state.
    #[test]
    fn ledger_merges_with_an_explicit_resume_checkpoint() {
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(70, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 3).unwrap();
        let reference = seq_basic(&g);

        // A checkpoint knowing rows 0..25 ...
        let resume_cp = {
            let mut completed = vec![false; 70];
            for (s, done) in completed.iter_mut().enumerate().take(25) {
                let _ = s;
                *done = true;
            }
            Checkpoint::new(reference.dist.clone(), completed)
        };
        // ... and a ledger knowing rows 20..40.
        let path = dir.join("merge.ledger");
        std::fs::remove_file(&path).ok();
        let mut ledger = RowLedger::create(&path, 70, FsyncPolicy::Never).unwrap();
        for s in 20..40u32 {
            ledger.append(s, reference.dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();

        let config = RunConfig::seq_basic().with_ledger(&path, 16);
        let out = Runner::new(config).run_resumed(SeqEngine::ordered(), &g, resume_cp);
        assert_eq!(reference.dist.first_difference(&out.dist), None);
        // The finished ledger replays complete — including the backfilled
        // checkpoint-only rows 0..20.
        let cp = persist::load_checkpoint(&path).unwrap();
        assert!(cp.is_complete());
        std::fs::remove_file(&path).ok();
    }

    /// Every row-checkpointing engine — including the adaptive order,
    /// which picks its sources at run time, and the subset engine, which
    /// solves a source subset — produces a complete, exact ledger.
    #[test]
    fn all_row_engines_fill_a_ledger_completely() {
        let dir = std::env::temp_dir().join("parapsp-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = barabasi_albert(60, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 9).unwrap();
        let reference = seq_basic(&g);

        let run = |name: &str, run: &mut dyn FnMut(&std::path::Path)| {
            let path = dir.join(format!("engine-{name}.ledger"));
            std::fs::remove_file(&path).ok();
            run(&path);
            let cp = persist::load_checkpoint(&path).unwrap();
            assert!(cp.is_complete(), "{name}");
            assert_eq!(
                cp.matrix().first_difference(&reference.dist),
                None,
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        };
        run("par", &mut |path| {
            let config = RunConfig::par_apsp(4).with_ledger(path, 8);
            Runner::new(config).run(ApspEngine::new(), &g);
        });
        run("adaptive", &mut |path| {
            let config = RunConfig::seq_adaptive(10).with_ledger(path, 8);
            Runner::new(config).run(SeqEngine::adaptive(10), &g);
        });
        run("subset", &mut |path| {
            let sources: Vec<u32> = (0..60).collect();
            let config = RunConfig::subset(2).with_ledger(path, 8);
            Runner::new(config).run(SubsetEngine::new(sources), &g);
        });
    }

    #[test]
    fn config_accessors_round_trip() {
        let config = RunConfig::par_alg2(3)
            .with_threads(5)
            .with_max_distance(9)
            .with_relax(RelaxImpl::Portable)
            .with_label("custom");
        assert_eq!(config.threads(), 5);
        assert_eq!(config.ordering(), OrderingProcedure::selection());
        assert_eq!(config.kernel().max_distance, Some(9));
        assert_eq!(config.kernel().relax, RelaxImpl::Portable);
        assert_eq!(config.label(), Some("custom"));
        assert!(config.checkpoint().is_none());
    }
}
