//! The traced run's view into the `core` layers: an [`Engine`] adapter that
//! times each hook the `Runner` calls, from outside the engine.

use std::cell::Cell;
use std::time::{Duration, Instant};

use parapsp_core::engine::{Plan, RowsCtx, RowsOutcome, RunSummary};
use parapsp_core::persist::Checkpoint;
use parapsp_core::{Engine, RunConfig};
use parapsp_graph::CsrGraph;
use parapsp_parfor::ThreadPool;

/// Wall time of each engine hook over one run, summed over its calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `Engine::prepare`: ordering plus store and workspace allocation.
    pub prepare: Duration,
    /// The ordering share of `prepare`, as the engine reports it.
    pub ordering: Duration,
    /// Every `Engine::run_rows` batch.
    pub rows: Duration,
    /// Every `Engine::visit_rows` call (ledger runs only).
    pub visit: Duration,
    /// `Engine::finish`.
    pub finish: Duration,
}

impl Spans {
    /// The time spent inside the engine; a run's wall minus this is the
    /// `Runner`'s self time.
    pub fn engine_total(&self) -> Duration {
        self.prepare + self.rows + self.visit + self.finish
    }
}

/// Wraps an engine and records its [`Spans`]; the output is the inner
/// engine's output, untouched, plus the spans.
pub struct Timed<E> {
    inner: E,
    spans: Spans,
    // `visit_rows` borrows the engine shared, so its span needs a cell.
    visit: Cell<Duration>,
}

impl<E: Engine> Timed<E> {
    /// Times `inner`.
    pub fn new(inner: E) -> Self {
        Timed {
            inner,
            spans: Spans::default(),
            visit: Cell::new(Duration::ZERO),
        }
    }
}

impl<E: Engine> Engine for Timed<E> {
    type Output = (E::Output, Spans);

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn row_checkpoints(&self) -> bool {
        self.inner.row_checkpoints()
    }

    fn prepare(
        &mut self,
        graph: &CsrGraph,
        config: &RunConfig,
        pool: &ThreadPool,
        resume: Option<Checkpoint>,
    ) -> Plan {
        let start = Instant::now();
        let plan = self.inner.prepare(graph, config, pool, resume);
        self.spans.prepare += start.elapsed();
        self.spans.ordering += plan.ordering;
        plan
    }

    fn run_rows(&mut self, graph: &CsrGraph, units: &[u32], ctx: &RowsCtx<'_>) -> RowsOutcome {
        let start = Instant::now();
        let outcome = self.inner.run_rows(graph, units, ctx);
        self.spans.rows += start.elapsed();
        outcome
    }

    fn snapshot(&self) -> Checkpoint {
        self.inner.snapshot()
    }

    fn visit_rows(&self, units: &[u32], visit: &mut dyn FnMut(u32, &[u32])) {
        let start = Instant::now();
        self.inner.visit_rows(units, visit);
        self.visit.set(self.visit.get() + start.elapsed());
    }

    fn into_snapshot(self) -> Checkpoint {
        self.inner.into_snapshot()
    }

    fn finish(self, graph: &CsrGraph, summary: RunSummary) -> Self::Output {
        let mut spans = self.spans;
        spans.visit = self.visit.get();
        let start = Instant::now();
        let output = self.inner.finish(graph, summary);
        spans.finish = start.elapsed();
        (output, spans)
    }
}
