//! The benchmark's workloads: which graph each one generates from the seed
//! and which run configuration solves it.
//!
//! All three share the paper's engine (ParAPSP: MultiLists ordering plus
//! dynamic-cyclic scheduling) and uniform weights 1..9; they differ in
//! the graph and in the store and durability layers the solve goes through.

use std::path::Path;

use parapsp_core::{FsyncPolicy, RunConfig, StoreSpec};
use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
use parapsp_graph::io::ParseOptions;
use parapsp_graph::{CsrGraph, Direction};

const WEIGHTS: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };

/// Edges each new Barabási–Albert vertex attaches with.
const BA_M: usize = 4;

/// Erdős–Rényi edges per vertex: `BA_M`, so both graph models have the
/// same mean degree and differ only in the degree distribution.
const ER_EDGES_PER_VERTEX: usize = BA_M;

/// Rows per ledger commit (one fsync each) on the durable workload.
const LEDGER_BATCH: usize = 64;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Barabási–Albert, dense store, no durability: the paper's target.
    BaDense,
    /// Erdős–Rényi with `BaDense`'s mean degree, dense store: no hubs, so
    /// the row solves dominate.
    ErDense,
    /// `BaDense`'s graph on the landmark-delta store with a run ledger:
    /// the memory-bounded, crash-safe user.
    BaDeltaLedger,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BaDense,
        Workload::ErDense,
        Workload::BaDeltaLedger,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BaDense => "ba-dense",
            Workload::ErDense => "er-dense",
            Workload::BaDeltaLedger => "ba-delta-ledger",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(raw: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == raw)
    }

    /// The workload's graph on `n` vertices, drawn from `seed`.
    pub fn graph(self, n: usize, seed: u64) -> CsrGraph {
        match self {
            Workload::BaDense | Workload::BaDeltaLedger => barabasi_albert(n, BA_M, WEIGHTS, seed),
            Workload::ErDense => erdos_renyi_gnm(
                n,
                ER_EDGES_PER_VERTEX * n,
                Direction::Undirected,
                WEIGHTS,
                seed,
            ),
        }
        .expect("workload generator parameters are valid")
    }

    /// How the edge-list file of [`Workload::graph`] is read back: both
    /// models are undirected.
    pub fn parse_options(self) -> ParseOptions {
        ParseOptions::snap(Direction::Undirected)
    }

    /// The run configuration at `threads` solver threads; `ledger` is the
    /// run ledger's path, used only by the durable workload.
    pub fn config(self, threads: usize, ledger: &Path) -> RunConfig {
        let config = RunConfig::par_apsp(threads);
        match self {
            Workload::BaDense | Workload::ErDense => config,
            Workload::BaDeltaLedger => config
                .with_store(StoreSpec::parse("delta").expect("the default delta spec parses"))
                .with_ledger(ledger, LEDGER_BATCH)
                .with_fsync(FsyncPolicy::Commit),
        }
    }
}
