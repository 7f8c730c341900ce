//! Output verification, always outside the timed spans.
//!
//! Every solve is checked twice: its FNV-1a checksum over all rows must
//! equal the checksum of single-threaded seq-basic on the same graph (the
//! repository's bit-identity oracle, computed once per run), and a few
//! seeded sample rows must match the binary-heap Dijkstra baseline bit for
//! bit.

use parapsp_core::baselines::dijkstra_sssp;
use parapsp_core::{DistanceMatrix, RunConfig, Runner, SeqEngine};
use parapsp_graph::CsrGraph;

/// Rows per solve recomputed with Dijkstra.
pub const SAMPLE_ROWS: usize = 8;

/// FNV-1a over the matrix's words (little-endian bytes) in row order.
pub fn checksum(dist: &DistanceMatrix) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &d in dist.as_slice() {
        for byte in d.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The oracle: [`checksum`] of single-threaded seq-basic on `graph`.
pub fn reference_checksum(graph: &CsrGraph) -> u64 {
    checksum(
        &Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), graph)
            .dist,
    )
}

/// SplitMix64 step: the sample-row generator, so a seed always picks the
/// same rows.
fn next_sample(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checks one solve's matrix against the oracle's `reference` checksum and
/// against Dijkstra on [`SAMPLE_ROWS`] rows drawn from `sample_seed`.
pub fn verify(
    graph: &CsrGraph,
    dist: &DistanceMatrix,
    reference: u64,
    sample_seed: u64,
) -> Result<(), String> {
    let n = graph.vertex_count();
    if dist.n() != n {
        return Err(format!(
            "matrix is {}x{0}, graph has {n} vertices",
            dist.n()
        ));
    }
    let sum = checksum(dist);
    if sum != reference {
        return Err(format!("checksum {sum:016x} != reference {reference:016x}"));
    }
    let mut state = sample_seed;
    let mut expected = vec![0u32; n];
    for _ in 0..SAMPLE_ROWS.min(n) {
        let source = (next_sample(&mut state) % n as u64) as u32;
        dijkstra_sssp(graph, source, &mut expected);
        if dist.row(source) != expected.as_slice() {
            return Err(format!("row {source} differs from Dijkstra"));
        }
    }
    Ok(())
}

/// Verified and failed solves of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Solves checked.
    pub attempted: u64,
    /// Solves that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked solve, reporting a failure on stderr.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("verification failed: {why}");
        }
    }

    /// Share of attempted solves that passed (1 − fail ratio).
    pub fn verified_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn oracle_counts_a_single_corrupted_distance_as_a_failure() {
        let graph = Workload::BaDense.graph(300, 7);
        let reference = reference_checksum(&graph);
        let solved = Runner::new(RunConfig::par_apsp(2))
            .run(parapsp_core::ApspEngine::new(), &graph)
            .dist;

        let mut tally = Tally::default();
        tally.record(verify(&graph, &solved, reference, 1));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let n = solved.n();
        let mut raw = solved.into_raw();
        // One cell of the last row; the checksum catches it whichever rows
        // the samples pick.
        raw[n * (n - 1) + 3] = raw[n * (n - 1) + 3].wrapping_add(1);
        let corrupted = DistanceMatrix::from_raw(n, raw);
        tally.record(verify(&graph, &corrupted, reference, 1));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.verified_ratio(), 0.5);
    }

    #[test]
    fn sample_rows_catch_a_wrong_reference() {
        let graph = Workload::ErDense.graph(200, 3);
        let solved = Runner::new(RunConfig::par_apsp(2))
            .run(parapsp_core::ApspEngine::new(), &graph)
            .dist;
        let mut raw = solved.into_raw();
        raw[1] = raw[1].wrapping_add(1);
        let corrupted = DistanceMatrix::from_raw(200, raw);
        // Even against a reference taken from the corrupted matrix itself,
        // row 0 must fail once a sample lands on it.
        let sum = checksum(&corrupted);
        let caught = (0..64).any(|seed| verify(&graph, &corrupted, sum, seed).is_err());
        assert!(caught, "no sample seed hit the corrupted row");
    }
}
