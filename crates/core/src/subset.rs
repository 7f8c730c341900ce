//! APSP from a *subset* of sources — the memory-bounded entry point.
//!
//! The paper's hard limit is the O(n²) result matrix (its sx-superuser run
//! needs 160 GB, §5.1). Many analyses don't need all rows: landmark-based
//! distance estimation, closeness sampling, or per-community probes use
//! k ≪ n sources. [`SubsetEngine`] runs the row engine,
//! [`ApspEngine`], from exactly those sources
//! into a `k × n` shape of the dense store (per-vertex flags, a vertex →
//! slot map, O(k·n) cells), with row reuse **among the subset** (a
//! completed subset row accelerates the remaining subset runs exactly as
//! in full ParAPSP). Being the row engine, the subset path has the
//! [`Runner`](crate::engine::Runner)'s resume and run ledger, and the
//! kernel's solvers, relax choice, prefetch, `max_distance` caps and
//! counters:
//!
//! ```
//! use parapsp_core::engine::{RunConfig, Runner, SubsetEngine};
//! use parapsp_graph::generate::{barabasi_albert, WeightSpec};
//!
//! let g = barabasi_albert(100, 3, WeightSpec::Unit, 7).unwrap();
//! let rows = Runner::new(RunConfig::subset(2)).run(SubsetEngine::new(vec![0, 42]), &g);
//! assert_eq!(rows.row_of(42).unwrap().len(), 100);
//! ```

use parapsp_graph::CsrGraph;
use parapsp_parfor::ThreadPool;

use crate::engine::{
    forward_to_row_engine, ApspEngine, Engine, Plan, RowsCtx, RowsOutcome, RunConfig, RunSummary,
};
use crate::persist::Checkpoint;

/// Distance rows for a chosen set of sources, in O(k·n) memory.
#[derive(Debug)]
pub struct SubsetRows {
    n: usize,
    sources: Vec<u32>,
    /// Row-major k × n distances, ordered like `sources`.
    data: Box<[u32]>,
    /// Wall time of the sweep.
    pub elapsed: std::time::Duration,
}

impl SubsetRows {
    /// The sources, in the order their rows are stored.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Number of vertices (row length).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The distance row of the i-th source.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The distance row of source vertex `s`, if `s` was in the subset.
    pub fn row_of(&self, s: u32) -> Option<&[u32]> {
        self.sources
            .iter()
            .position(|&v| v == s)
            .map(|i| self.row(i))
    }
}

/// The subset-of-sources engine: the row engine with the subset as its
/// order source, plus a finish that hands back [`SubsetRows`].
///
/// Work units are the subset's source vertices. Resume takes a
/// vertex-keyed checkpoint (rows outside the subset are ignored), and the
/// run ledger, distance caps, solver and relax selection come from the
/// [`RunConfig`]; the subset rows always live in dense memory, whatever
/// its store. With [`OrderingProcedure::Identity`] the sources run in
/// list order; any other ordering visits them in descending degree
/// order. Duplicate or out-of-range sources panic at
/// [`Engine::prepare`].
///
/// [`OrderingProcedure::Identity`]: parapsp_order::OrderingProcedure::Identity
pub struct SubsetEngine {
    sources: Vec<u32>,
    inner: ApspEngine,
}

impl SubsetEngine {
    /// An engine computing the rows of `sources` (duplicates rejected at
    /// [`Engine::prepare`] time).
    pub fn new(sources: Vec<u32>) -> Self {
        SubsetEngine {
            inner: ApspEngine::subset(sources.clone()),
            sources,
        }
    }

    /// The configured sources, in slot order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

impl Engine for SubsetEngine {
    type Output = SubsetRows;

    forward_to_row_engine!();

    fn finish(self, _graph: &CsrGraph, summary: RunSummary) -> SubsetRows {
        let (store, _, _) = self.inner.into_results();
        SubsetRows {
            n: store.n(),
            sources: self.sources,
            data: store.into_subset_rows(),
            elapsed: summary.timings.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dijkstra_sssp;
    use crate::engine::Runner;
    use crate::outcome::RunOutcome;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::{Direction, INF};
    use parapsp_parfor::CancelToken;

    fn par_apsp_subset(graph: &CsrGraph, sources: &[u32], threads: usize) -> SubsetRows {
        Runner::new(RunConfig::subset(threads)).run(SubsetEngine::new(sources.to_vec()), graph)
    }

    fn par_apsp_subset_cancellable(
        graph: &CsrGraph,
        sources: &[u32],
        threads: usize,
        token: &CancelToken,
    ) -> RunOutcome<SubsetRows> {
        Runner::new(RunConfig::subset(threads)).run_with_token(
            SubsetEngine::new(sources.to_vec()),
            graph,
            token,
        )
    }

    #[test]
    fn subset_rows_match_per_source_dijkstra() {
        let g = barabasi_albert(300, 3, WeightSpec::Unit, 31).unwrap();
        let sources: Vec<u32> = vec![5, 0, 120, 299, 42];
        for threads in [1, 4] {
            let rows = par_apsp_subset(&g, &sources, threads);
            assert_eq!(rows.sources(), &sources[..]);
            assert_eq!(rows.n(), 300);
            let mut expected = vec![0u32; 300];
            for (i, &s) in sources.iter().enumerate() {
                dijkstra_sssp(&g, s, &mut expected);
                assert_eq!(rows.row(i), &expected[..], "source {s}, {threads} threads");
                assert_eq!(rows.row_of(s), Some(&expected[..]));
            }
        }
    }

    #[test]
    fn subset_on_weighted_directed_graph() {
        let g = erdos_renyi_gnm(
            200,
            1_200,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 15 },
            32,
        )
        .unwrap();
        let sources: Vec<u32> = (0..200).step_by(13).collect();
        let rows = par_apsp_subset(&g, &sources, 3);
        let mut expected = vec![0u32; 200];
        for (i, &s) in sources.iter().enumerate() {
            dijkstra_sssp(&g, s, &mut expected);
            assert_eq!(rows.row(i), &expected[..], "source {s}");
        }
    }

    #[test]
    fn full_subset_equals_full_apsp() {
        let g = barabasi_albert(120, 2, WeightSpec::Unit, 33).unwrap();
        let all: Vec<u32> = (0..120).collect();
        let rows = par_apsp_subset(&g, &all, 4);
        let full = Runner::new(RunConfig::par_apsp(4)).run(crate::engine::ApspEngine::new(), &g);
        for s in 0..120u32 {
            assert_eq!(rows.row_of(s).unwrap(), full.dist.row(s));
        }
    }

    #[test]
    fn capped_subset_matches_post_filtered_rows() {
        let g = barabasi_albert(150, 2, WeightSpec::Uniform { lo: 1, hi: 9 }, 71).unwrap();
        let sources: Vec<u32> = vec![0, 9, 80, 149];
        let cap = 12u32;
        let exact = par_apsp_subset(&g, &sources, 2);
        let capped = Runner::new(RunConfig::subset(2).with_max_distance(cap))
            .run(SubsetEngine::new(sources.clone()), &g);
        for (i, &s) in sources.iter().enumerate() {
            let expected: Vec<u32> = exact
                .row(i)
                .iter()
                .enumerate()
                .map(|(v, &d)| if v as u32 != s && d > cap { INF } else { d })
                .collect();
            assert_eq!(capped.row(i), &expected[..], "source {s}");
        }
    }

    #[test]
    fn missing_source_lookup_returns_none() {
        let g = barabasi_albert(50, 2, WeightSpec::Unit, 34).unwrap();
        let rows = par_apsp_subset(&g, &[1, 2], 2);
        assert!(rows.row_of(10).is_none());
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_sources_rejected() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 35).unwrap();
        let _ = par_apsp_subset(&g, &[3, 3], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 36).unwrap();
        let _ = par_apsp_subset(&g, &[25], 1);
    }

    #[test]
    fn cancellable_subset_completes_when_untripped() {
        let g = barabasi_albert(150, 3, WeightSpec::Unit, 61).unwrap();
        let sources: Vec<u32> = vec![0, 7, 50, 149];
        let token = parapsp_parfor::CancelToken::new();
        let rows = par_apsp_subset_cancellable(&g, &sources, 3, &token).unwrap_complete();
        let plain = par_apsp_subset(&g, &sources, 3);
        for (i, _) in sources.iter().enumerate() {
            assert_eq!(rows.row(i), plain.row(i));
        }
    }

    #[test]
    fn cancelled_subset_checkpoints_finished_rows_exactly() {
        let g = barabasi_albert(200, 3, WeightSpec::Uniform { lo: 1, hi: 7 }, 62).unwrap();
        let sources: Vec<u32> = (0..200).step_by(5).collect(); // 40 sources
        let token = parapsp_parfor::CancelToken::with_poll_budget(12);
        let outcome = par_apsp_subset_cancellable(&g, &sources, 2, &token);
        let cp = outcome.into_checkpoint().expect("12 < 40 sources");
        assert!(cp.completed_count() < sources.len());
        // Completed rows only ever belong to the subset, and each one is
        // the exact per-source Dijkstra row.
        let mut expected = vec![0u32; 200];
        for (s, &done) in cp.completed().iter().enumerate() {
            if done {
                assert!(sources.contains(&(s as u32)), "row {s} not in subset");
                dijkstra_sssp(&g, s as u32, &mut expected);
                assert_eq!(cp.matrix().row(s as u32), &expected[..]);
            }
        }
        // The checkpoint survives the v2 format round trip.
        let mut buf = Vec::new();
        crate::persist::write_checkpoint(&cp, &mut buf).unwrap();
        assert_eq!(crate::persist::read_checkpoint(buf.as_slice()).unwrap(), cp);
    }

    #[test]
    fn subset_resumes_its_own_checkpoint() {
        let g = barabasi_albert(160, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 63).unwrap();
        let sources: Vec<u32> = (0..160).step_by(4).collect(); // 40 sources
        let full = par_apsp_subset(&g, &sources, 2);
        let token = parapsp_parfor::CancelToken::with_poll_budget(15);
        let cp = par_apsp_subset_cancellable(&g, &sources, 2, &token)
            .into_checkpoint()
            .expect("15 < 40 sources");
        let resumed = Runner::new(RunConfig::subset(2)).run_resumed(
            SubsetEngine::new(sources.clone()),
            &g,
            cp,
        );
        for (i, _) in sources.iter().enumerate() {
            assert_eq!(resumed.row(i), full.row(i), "slot {i}");
        }
    }

    #[test]
    fn empty_subset_is_fine() {
        let g = barabasi_albert(20, 2, WeightSpec::Unit, 37).unwrap();
        let rows = par_apsp_subset(&g, &[], 2);
        assert!(rows.sources().is_empty());
    }
}
