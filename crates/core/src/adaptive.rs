//! A **parallel** adaptive-ordering APSP — the extension the paper left on
//! the table.
//!
//! Peng et al.'s third sequential variant re-prioritizes sources as it
//! learns which vertices actually relay shortest paths. The ICPP paper
//! chose not to parallelize it because the order adapts between iterations
//! (§2.2). This module implements the natural compromise: **wave-based
//! adaptation**. Sources are processed in waves of `wave_size × threads`;
//! within a wave the order is fixed (so the wave parallelizes exactly like
//! ParAPSP), and between waves the remaining sources are re-ranked by
//! `intermediate_credit × weight + degree`.
//!
//! With `wave_size` large this degenerates to ParAPSP (one wave, pure
//! degree order); with `wave_size = 1` and one thread it approaches the
//! sequential adaptive algorithm.

use std::time::Instant;

use parapsp_graph::{degree, CsrGraph};
use parapsp_parfor::{PerThread, Schedule, ThreadPool};

use crate::kernel::{modified_dijkstra, KernelOptions, Workspace};
use crate::stats::{ApspOutput, Counters, PhaseTimings};
use crate::store::{Store, StoreSpec};

/// Configuration for [`par_adaptive`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Sources per thread per wave (the adaptation granularity).
    pub wave_size: usize,
    /// Multiplier on intermediate credit relative to degree in the rank.
    pub credit_weight: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            wave_size: 8,
            credit_weight: 16,
        }
    }
}

/// Runs the wave-adaptive parallel APSP. Exact, like every algorithm in
/// this crate; only the *order* (and hence the running time) differs.
pub fn par_adaptive(graph: &CsrGraph, threads: usize, config: AdaptiveConfig) -> ApspOutput {
    assert!(config.wave_size > 0, "wave size must be positive");
    let n = graph.vertex_count();
    let pool = ThreadPool::new(threads);
    let degrees = degree::out_degrees(graph);
    let start = Instant::now();

    let store = Store::new(n, &StoreSpec::dense());
    let locals: PerThread<(Workspace, Counters, Vec<u64>)> =
        PerThread::from_fn(pool.num_threads(), |_| {
            (Workspace::new(n), Counters::default(), vec![0u64; n])
        });
    let mut global_credit = vec![0u64; n];
    let mut remaining: Vec<u32> = (0..n as u32).collect();
    let options = KernelOptions::default();

    let t_sssp = Instant::now();
    while !remaining.is_empty() {
        // Rank remaining sources: highest credit-adjusted degree first.
        remaining.sort_by_key(|&v| {
            std::cmp::Reverse(
                global_credit[v as usize]
                    .saturating_mul(config.credit_weight)
                    .saturating_add(degrees[v as usize] as u64),
            )
        });
        let take = (config.wave_size * pool.num_threads()).min(remaining.len());
        let wave: Vec<u32> = remaining.drain(..take).collect();

        let wave_ref = &wave;
        let store_ref = &store;
        pool.parallel_for(wave.len(), Schedule::dynamic_cyclic(), |tid, k| {
            let s = wave_ref[k];
            // SAFETY: one scratch slot per pool thread.
            let (ws, counters, credit) = unsafe { locals.get_mut(tid) };
            // Each wave source appears exactly once across all waves, so
            // the unique-row-owner contract holds.
            modified_dijkstra(graph, s, store_ref, ws, options, counters, Some(credit));
        });

        // Fold per-thread credit into the global ranking signal. The slots
        // are drained (zeroed) so each wave contributes once.
        // SAFETY: the parallel region above has completed; `locals` is
        // only touched from this thread now.
        for tid in 0..pool.num_threads() {
            let (_, _, credit) = unsafe { locals.get_mut(tid) };
            for (global, local) in global_credit.iter_mut().zip(credit.iter_mut()) {
                *global += *local;
                *local = 0;
            }
        }
    }
    let sssp = t_sssp.elapsed();

    let mut counters = Counters::default();
    for (_, c, _) in locals.into_inner() {
        counters.merge(&c);
    }
    ApspOutput {
        dist: store.into_matrix(pool.num_threads()),
        timings: PhaseTimings {
            ordering: std::time::Duration::ZERO,
            sssp,
            total: start.elapsed(),
        },
        counters,
        threads: pool.num_threads(),
        thread_busy: Vec::new(),
        algorithm: format!(
            "ParAdaptive(wave={}, w={})",
            config.wave_size, config.credit_weight
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::apsp_dijkstra;
    use parapsp_graph::generate::{barabasi_albert, erdos_renyi_gnm, WeightSpec};
    use parapsp_graph::Direction;

    #[test]
    fn adaptive_parallel_is_exact() {
        let g = barabasi_albert(200, 3, WeightSpec::Unit, 55).unwrap();
        let reference = apsp_dijkstra(&g);
        for threads in [1, 4] {
            for wave_size in [1, 4, 64] {
                let out = par_adaptive(
                    &g,
                    threads,
                    AdaptiveConfig {
                        wave_size,
                        credit_weight: 16,
                    },
                );
                assert_eq!(
                    reference.first_difference(&out.dist),
                    None,
                    "threads={threads} wave={wave_size}"
                );
                assert_eq!(out.counters.sources, 200);
            }
        }
    }

    #[test]
    fn adaptive_on_weighted_directed_graph() {
        let g = erdos_renyi_gnm(
            150,
            900,
            Direction::Directed,
            WeightSpec::Uniform { lo: 1, hi: 20 },
            56,
        )
        .unwrap();
        let reference = apsp_dijkstra(&g);
        let out = par_adaptive(&g, 3, AdaptiveConfig::default());
        assert_eq!(reference.first_difference(&out.dist), None);
    }

    #[test]
    fn credit_accumulates_on_hubs() {
        // After the run, hubs should have collected intermediate credit —
        // indirectly observable through identical output but exercised here
        // via the default config path on a hub-dominated graph.
        let g = parapsp_graph::generate::star_graph(64);
        let out = par_adaptive(&g, 2, AdaptiveConfig::default());
        assert_eq!(out.counters.sources, 64);
        assert!(out.dist.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "wave size")]
    fn zero_wave_size_rejected() {
        let g = parapsp_graph::generate::star_graph(4);
        let _ = par_adaptive(
            &g,
            1,
            AdaptiveConfig {
                wave_size: 0,
                credit_weight: 1,
            },
        );
    }
}
