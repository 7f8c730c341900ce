//! The modified Dijkstra kernel (paper Alg. 1, after Peng et al.).
//!
//! Despite the name it is *not* a priority-queue Dijkstra: Peng's procedure
//! is a FIFO label-correcting SSSP (SPFA-style) with one extra move — when
//! the dequeued vertex `t` already has a complete SSSP row (`flag[t]`),
//! the whole row `D[t][*]` is used to relax every vertex at once and `t`'s
//! edges are *not* expanded. Vertices improved by a row reuse are not
//! re-enqueued; Peng et al. prove this preserves exactness (the intuition:
//! any continuation of a path through a flagged vertex is already covered
//! by that vertex's complete row).
//!
//! The kernel writes into a caller-supplied row and reads other rows
//! through the publication protocol of the [`crate::store`] backends,
//! which makes the very same code the engine of the sequential *and*
//! parallel algorithms, against any storage tier.

use std::collections::VecDeque;

use parapsp_graph::{CsrGraph, INF};
use parapsp_parfor::BitSet;

use crate::relax::{relax_row, RelaxImpl};
use crate::stats::Counters;
use crate::store::{LeaseOrigin, Store};

/// Tuning/ablation switches for the kernel. The defaults reproduce the
/// paper; the switches exist so the benchmark harness can quantify each
/// ingredient separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptions {
    /// Reuse published rows (the dynamic-programming step of Alg. 1,
    /// lines 6–11). Disabling degrades the kernel to plain SPFA.
    pub row_reuse: bool,
    /// Skip enqueueing a vertex that is already queued (the standard SPFA
    /// guard; the paper's pseudocode enqueues unconditionally).
    pub dedup_queue: bool,
    /// Distance cap: pairs farther than this stay at [`INF`].
    /// Bounded-horizon APSP ("k-hop neighborhoods") does much less work on
    /// small-world graphs while remaining exact within the cap: any path of
    /// total length ≤ cap decomposes into segments that are themselves
    /// ≤ cap, so capped rows compose correctly under reuse.
    pub max_distance: Option<u32>,
    /// Which [`relax_row`] implementation performs the dense row-reuse
    /// pass. All variants are bit-identical; the switch exists so the
    /// benchmark harness can quantify the vectorization win.
    pub relax: RelaxImpl,
    /// Which per-source SSSP solver computes each row (see
    /// [`crate::solver`]). All solvers produce bit-identical distances;
    /// they differ in how they order relaxations.
    pub solver: crate::solver::SolverKind,
}

impl Default for KernelOptions {
    fn default() -> Self {
        KernelOptions {
            row_reuse: true,
            dedup_queue: true,
            max_distance: None,
            relax: RelaxImpl::Auto,
            solver: crate::solver::SolverKind::Dijkstra,
        }
    }
}

/// Reusable per-task scratch space, sized once per thread so the inner loop
/// performs no allocation in the steady state.
///
/// Every [`crate::solver`] variant shares this one structure: the FIFO
/// kernel uses `queue`/`in_queue`, the bucketed solvers additionally use
/// the cyclic [`BucketRing`] plus the `removed`/`scratch` staging lists.
/// Sharing matters for the no-alloc guarantee — each solver borrows the
/// same warmed capacities instead of allocating per source.
pub(crate) struct Workspace {
    pub(crate) queue: VecDeque<u32>,
    /// Packed "is queued" bitmap: `n/8` bytes instead of `n`, so frontier
    /// bookkeeping stays cache-resident while rows stream through.
    pub(crate) in_queue: BitSet,
    /// Cyclic bucket array for the Δ-stepping solver.
    pub(crate) buckets: BucketRing,
    /// Vertices removed from the current bucket, staged for the
    /// heavy-edge phase (Δ-stepping only).
    pub(crate) removed: Vec<u32>,
    /// Membership bitmap for `removed` (cleared by iterating `removed`,
    /// never by an O(n) sweep).
    pub(crate) in_removed: BitSet,
    /// Drain staging: bucket slots are swapped here so a light-phase
    /// relaxation can push back into the slot being drained.
    pub(crate) scratch: Vec<u32>,
    /// Staging row for store backends that cannot lend in-place mutable
    /// rows: [`Store::claim_row`] hands it out reset, the solver computes
    /// into it, and [`Store::publish_claimed`] hands it over.
    /// Allocated once per thread, like the rest of the workspace.
    pub(crate) row_buf: Vec<u32>,
    /// The owner's encoded run-ledger record ([`RowJournal::record`]);
    /// stays empty on runs without a ledger.
    ///
    /// [`RowJournal::record`]: crate::engine::RowJournal::record
    pub(crate) record_buf: Vec<u8>,
}

impl Workspace {
    pub(crate) fn new(n: usize) -> Self {
        Workspace {
            queue: VecDeque::with_capacity(64),
            in_queue: BitSet::new(n),
            buckets: BucketRing::new(),
            removed: Vec::new(),
            in_removed: BitSet::new(n),
            scratch: Vec::new(),
            row_buf: vec![INF; n],
            record_buf: Vec::new(),
        }
    }
}

/// A cyclic array of distance buckets, reused across sources.
///
/// Bucket `b` (absolute index `tent / Δ`) lives in slot `b % ring`. The
/// ring only needs to cover the live window: every queued tentative
/// distance lies within `max_weight` of the bucket being processed, so a
/// ring of `⌈max_weight / Δ⌉ + slack` slots guarantees no two *live*
/// absolute buckets alias one slot. Entries are lazily deleted — a
/// vertex may have stale entries in higher buckets after an improvement;
/// consumers drop an entry whose current `tent / Δ` no longer matches
/// the absolute bucket being drained (distances only decrease, so a
/// stale entry can never masquerade as a ring-aliased future bucket).
///
/// `reset` clears slots but keeps their capacity, which is what makes
/// per-source solves allocation-free once warm.
pub(crate) struct BucketRing {
    slots: Vec<Vec<u32>>,
    ring: usize,
    live: usize,
}

impl BucketRing {
    pub(crate) fn new() -> Self {
        BucketRing {
            slots: Vec::new(),
            ring: 0,
            live: 0,
        }
    }

    /// Prepares the ring for a new source with `ring` slots, retaining
    /// previously grown slot capacities.
    pub(crate) fn reset(&mut self, ring: usize) {
        debug_assert!(ring >= 1);
        if self.slots.len() < ring {
            self.slots.resize_with(ring, Vec::new);
        }
        for slot in &mut self.slots {
            slot.clear();
        }
        self.ring = ring;
        self.live = 0;
    }

    /// Number of entries currently queued (including stale ones).
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    #[inline]
    pub(crate) fn push(&mut self, abs_bucket: u64, v: u32) {
        let idx = (abs_bucket % self.ring as u64) as usize;
        self.slots[idx].push(v);
        self.live += 1;
    }

    /// Whether absolute bucket `abs_bucket`'s slot holds any entries.
    #[inline]
    pub(crate) fn slot_is_empty(&self, abs_bucket: u64) -> bool {
        self.slots[(abs_bucket % self.ring as u64) as usize].is_empty()
    }

    /// Moves every entry of `abs_bucket`'s slot into `into` (appending),
    /// leaving the slot empty but with its capacity intact.
    pub(crate) fn drain_into(&mut self, abs_bucket: u64, into: &mut Vec<u32>) {
        let idx = (abs_bucket % self.ring as u64) as usize;
        self.live -= self.slots[idx].len();
        into.append(&mut self.slots[idx]);
    }
}

/// Runs the modified Dijkstra from source `s`, filling row `s` of `store`
/// and publishing it on completion.
///
/// # Safety contract (enforced by callers)
///
/// The caller must guarantee that it is the unique task running source `s`
/// (see [`Store::claim_row`]). Every APSP driver in this crate iterates
/// a permutation of the sources, which provides that guarantee.
///
/// On the dense store the solve happens in place; otherwise it is staged
/// in `ws.row_buf` and handed over on publication. Row reuse fires on
/// *every* backend through [`Store::lease_row`]: dense rows are lent at
/// zero cost, delta/mmap rows are pinned in the hot-row cache for the
/// duration of the relaxation pass (decoding on a miss), and the
/// queue-front [`Store::prefetch_row`] hint turns into a decode-ahead
/// that hides that decode behind the current row's work.
///
/// Optional `intermediate_credit`: incremented at `t` whenever expanding
/// `t`'s edges improved some other vertex — the signal Peng's *adaptive*
/// ordering feeds back into source selection.
pub(crate) fn modified_dijkstra(
    graph: &CsrGraph,
    s: u32,
    store: &Store,
    ws: &mut Workspace,
    options: KernelOptions,
    counters: &mut Counters,
    mut intermediate_credit: Option<&mut [u64]>,
) {
    let n = store.n();
    debug_assert_eq!(graph.vertex_count(), n);
    debug_assert!(ws.in_queue.none_set(), "dirty workspace");

    // SAFETY: the caller guarantees unique ownership of row `s` and that it
    // is unpublished; the borrow ends before publication below.
    let (row, staged) = unsafe { store.claim_row(s, &mut ws.row_buf) };
    row[s as usize] = 0;

    ws.queue.push_back(s);
    if options.dedup_queue {
        ws.in_queue.set(s as usize);
    }

    let cap = options.max_distance.unwrap_or(u32::MAX);
    // Resolve the dispatch once per source, not once per dequeued row.
    let relax_impl = options.relax.resolve();
    // Counter updates are hoisted into locals and flushed once on return:
    // a per-element write to a `&mut Counters` field inside the row-reuse
    // loop is a loop-carried memory dependence that blocks vectorization.
    let mut queue_pops = 0u64;
    let mut relaxations = 0u64;
    let mut row_reuses = 0u64;
    let mut lease_hits = 0u64;
    let mut lease_misses = 0u64;
    let mut decode_ahead_hits = 0u64;

    while let Some(t) = ws.queue.pop_front() {
        queue_pops += 1;
        if options.dedup_queue {
            ws.in_queue.clear(t as usize);
        }
        let dt = row[t as usize];

        // Alg. 1 lines 6–11: a flagged vertex contributes its whole row.
        // `t != s` always holds for published rows (row `s` is published
        // only after this function returns), so no aliasing with `row`.
        if options.row_reuse {
            // Overlap the latency of the *next* reuse candidate with the
            // work on `t`: on dense its row head starts travelling toward
            // the cache now; on delta/mmap the decode-ahead worker starts
            // materializing it into the hot-row cache.
            if let Some(&next) = ws.queue.front() {
                store.prefetch_row(next);
            }
            if let Some(t_row) = store.lease_row(t) {
                row_reuses += 1;
                match t_row.origin() {
                    LeaseOrigin::CacheMiss => lease_misses += 1,
                    LeaseOrigin::DecodeAhead => {
                        lease_hits += 1;
                        decode_ahead_hits += 1;
                    }
                    LeaseOrigin::Lent | LeaseOrigin::CacheHit => lease_hits += 1,
                }
                relaxations += relax_row(relax_impl, row, &t_row, dt, cap);
                continue;
            }
        }

        // Alg. 1 lines 12–18: ordinary edge relaxation with enqueue.
        let mut improved_someone = false;
        for (v, w) in graph.out_edges(t) {
            let alt = dt.saturating_add(w);
            if alt < row[v as usize] && alt <= cap {
                row[v as usize] = alt;
                relaxations += 1;
                improved_someone = true;
                if !options.dedup_queue || !ws.in_queue.get(v as usize) {
                    ws.queue.push_back(v);
                    if options.dedup_queue {
                        ws.in_queue.set(v as usize);
                    }
                }
            }
        }
        if improved_someone && t != s {
            if let Some(credit) = intermediate_credit.as_deref_mut() {
                credit[t as usize] += 1;
            }
        }
    }

    counters.queue_pops += queue_pops;
    counters.relaxations += relaxations;
    counters.row_reuses += row_reuses;
    counters.lease_hits += lease_hits;
    counters.lease_misses += lease_misses;
    counters.decode_ahead_hits += decode_ahead_hits;
    counters.sources += 1;
    // Alg. 1 line 21: flag[s] = 1 — i.e. publish the completed row.
    store.publish_claimed(s, row, staged);

    if !options.dedup_queue {
        // Without the guard the bitmap was never written, nothing to clean.
        debug_assert!(ws.in_queue.none_set());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreSpec;
    use parapsp_graph::{CsrGraph, Direction, INF};

    fn run_all_sources_on(
        graph: &CsrGraph,
        options: KernelOptions,
        spec: &StoreSpec,
    ) -> crate::DistanceMatrix {
        let n = graph.vertex_count();
        let store = Store::new(n, spec);
        let mut ws = Workspace::new(n);
        let mut counters = Counters::default();
        for s in 0..n as u32 {
            modified_dijkstra(graph, s, &store, &mut ws, options, &mut counters, None);
        }
        assert_eq!(counters.sources, n as u64);
        store.into_matrix(2)
    }

    fn run_all_sources(graph: &CsrGraph, options: KernelOptions) -> crate::DistanceMatrix {
        run_all_sources_on(graph, options, &StoreSpec::dense())
    }

    #[test]
    fn every_store_backend_is_bit_identical() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            70,
            350,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            17,
        )
        .unwrap();
        let dense = run_all_sources(&g, KernelOptions::default());
        for spec in [StoreSpec::delta(4), StoreSpec::mmap(1 << 20)] {
            let got = run_all_sources_on(&g, KernelOptions::default(), &spec);
            assert_eq!(dense.first_difference(&got), None, "{}", spec.label());
        }
    }

    #[test]
    fn weighted_diamond_exact_distances() {
        // 0 -> 1 (2), 0 -> 2 (1), 1 -> 3 (1), 2 -> 3 (5): best 0->3 is 3.
        let g = CsrGraph::from_edges(
            4,
            Direction::Directed,
            &[(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 5)],
        )
        .unwrap();
        let d = run_all_sources(&g, KernelOptions::default());
        assert_eq!(d.get(0, 3), 3);
        assert_eq!(d.get(0, 2), 1);
        assert_eq!(d.get(3, 0), INF);
        assert_eq!(d.get(2, 2), 0);
    }

    #[test]
    fn unit_weight_path_graph() {
        let g = parapsp_graph::generate::path_graph(6, Direction::Undirected);
        let d = run_all_sources(&g, KernelOptions::default());
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(d.get(u, v), u.abs_diff(v));
            }
        }
    }

    #[test]
    fn distance_cap_truncates_exactly() {
        let g = parapsp_graph::generate::path_graph(10, Direction::Undirected);
        let capped = run_all_sources(
            &g,
            KernelOptions {
                max_distance: Some(3),
                ..KernelOptions::default()
            },
        );
        let full = run_all_sources(&g, KernelOptions::default());
        for u in 0..10u32 {
            for v in 0..10u32 {
                let exact = full.get(u, v);
                let expect = if exact <= 3 { exact } else { INF };
                assert_eq!(capped.get(u, v), expect, "({u}, {v})");
            }
        }
    }

    #[test]
    fn distance_cap_is_exact_within_cap_on_weighted_graph() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            100,
            500,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            71,
        )
        .unwrap();
        let full = run_all_sources(&g, KernelOptions::default());
        for cap in [0u32, 5, 17, 50] {
            let capped = run_all_sources(
                &g,
                KernelOptions {
                    max_distance: Some(cap),
                    ..KernelOptions::default()
                },
            );
            for u in 0..100u32 {
                for v in 0..100u32 {
                    let exact = full.get(u, v);
                    let expect = if exact <= cap || u == v { exact } else { INF };
                    assert_eq!(capped.get(u, v), expect, "cap {cap} ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn row_reuse_and_plain_spfa_agree_on_every_backend() {
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            80,
            300,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 20 },
            13,
        )
        .unwrap();
        let reference = run_all_sources(
            &g,
            KernelOptions {
                row_reuse: false,
                ..KernelOptions::default()
            },
        );
        for spec in [
            StoreSpec::dense(),
            StoreSpec::delta(4),
            StoreSpec::mmap(1 << 20),
        ] {
            let with_reuse = run_all_sources_on(&g, KernelOptions::default(), &spec);
            assert_eq!(
                reference.first_difference(&with_reuse),
                None,
                "{} reuse vs plain SPFA",
                spec.label()
            );
            let without = run_all_sources_on(
                &g,
                KernelOptions {
                    row_reuse: false,
                    ..KernelOptions::default()
                },
                &spec,
            );
            assert_eq!(reference.first_difference(&without), None, "{}", spec.label());
        }
    }

    #[test]
    fn dedup_toggle_does_not_change_results() {
        let g = parapsp_graph::generate::barabasi_albert(
            120,
            2,
            parapsp_graph::generate::WeightSpec::Unit,
            5,
        )
        .unwrap();
        let a = run_all_sources(&g, KernelOptions::default());
        let b = run_all_sources(
            &g,
            KernelOptions {
                dedup_queue: false,
                ..KernelOptions::default()
            },
        );
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn row_reuse_actually_fires_on_later_sources() {
        let g = parapsp_graph::generate::complete_graph(10);
        let store = Store::new(10, &StoreSpec::dense());
        let mut ws = Workspace::new(10);
        let mut counters = Counters::default();
        for s in 0..10u32 {
            modified_dijkstra(
                &g,
                s,
                &store,
                &mut ws,
                KernelOptions::default(),
                &mut counters,
                None,
            );
        }
        assert!(
            counters.row_reuses > 0,
            "complete graph must trigger row reuse"
        );
        assert_eq!(store.published_count(), 10);
    }

    #[test]
    fn row_reuse_fires_on_every_backend_and_stays_exact() {
        // The regression PR 10 closes: delta/mmap used to fall back to
        // plain edge expansion (row_reuses == 0). Leases must now serve
        // reuse on every backend, with the lease split accounting for
        // every reuse.
        let g = parapsp_graph::generate::complete_graph(12);
        let expect = run_all_sources(&g, KernelOptions::default());
        for spec in [StoreSpec::delta(2), StoreSpec::mmap(1 << 20)] {
            let store = Store::new(12, &spec);
            let mut ws = Workspace::new(12);
            let mut counters = Counters::default();
            for s in 0..12u32 {
                modified_dijkstra(
                    &g,
                    s,
                    &store,
                    &mut ws,
                    KernelOptions::default(),
                    &mut counters,
                    None,
                );
            }
            assert!(
                counters.row_reuses > 0,
                "{}: leases must win reuse back on non-lending backends",
                spec.label()
            );
            assert_eq!(
                counters.row_reuses,
                counters.lease_hits + counters.lease_misses,
                "{}: every reuse is a lease hit or miss",
                spec.label()
            );
            assert!(
                counters.decode_ahead_hits <= counters.lease_hits,
                "{}: decode-ahead hits are a subset of hits",
                spec.label()
            );
            let got = store.into_matrix(2);
            assert_eq!(expect.first_difference(&got), None, "{}", spec.label());
        }
    }

    #[test]
    fn relax_impls_agree_bit_for_bit_including_counters() {
        // Hoisting the counter updates and switching implementations must
        // not change a single counter value: same graph, same visit order,
        // same pops / reuses / relaxations for every RelaxImpl.
        let g = parapsp_graph::generate::erdos_renyi_gnm(
            90,
            500,
            Direction::Directed,
            parapsp_graph::generate::WeightSpec::Uniform { lo: 1, hi: 9 },
            29,
        )
        .unwrap();
        let run = |options: KernelOptions| {
            let store = Store::new(90, &StoreSpec::dense());
            let mut ws = Workspace::new(90);
            let mut counters = Counters::default();
            for s in 0..90u32 {
                modified_dijkstra(&g, s, &store, &mut ws, options, &mut counters, None);
            }
            (store.into_matrix(2), counters)
        };
        for max_distance in [None, Some(7)] {
            let mut reference: Option<(crate::DistanceMatrix, Counters)> = None;
            for relax in RelaxImpl::ALL {
                let (dist, counters) = run(KernelOptions {
                    relax,
                    max_distance,
                    ..KernelOptions::default()
                });
                match &reference {
                    None => reference = Some((dist, counters)),
                    Some((ref_dist, ref_counters)) => {
                        assert_eq!(
                            ref_dist.first_difference(&dist),
                            None,
                            "{relax:?} cap={max_distance:?} distances"
                        );
                        assert_eq!(
                            *ref_counters, counters,
                            "{relax:?} cap={max_distance:?} counters"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disconnected_components_stay_infinite() {
        let g = CsrGraph::from_unit_edges(4, Direction::Undirected, &[(0, 1), (2, 3)]).unwrap();
        let d = run_all_sources(&g, KernelOptions::default());
        assert_eq!(d.get(0, 1), 1);
        assert_eq!(d.get(0, 2), INF);
        assert_eq!(d.get(3, 1), INF);
        assert!(d.is_symmetric());
    }

    #[test]
    fn intermediate_credit_counts_hub() {
        // Star graph: every cross-leaf path passes through the hub 0.
        let g = parapsp_graph::generate::star_graph(8);
        let store = Store::new(8, &StoreSpec::dense());
        let mut ws = Workspace::new(8);
        let mut counters = Counters::default();
        let mut credit = vec![0u64; 8];
        // Disable row reuse so edges are always expanded.
        let opts = KernelOptions {
            row_reuse: false,
            ..KernelOptions::default()
        };
        for s in 0..8u32 {
            modified_dijkstra(
                &g,
                s,
                &store,
                &mut ws,
                opts,
                &mut counters,
                Some(&mut credit),
            );
        }
        assert!(credit[0] > 0, "the hub must collect intermediate credit");
        assert!(credit[1..].iter().all(|&c| c == 0), "leaves never relay");
    }
}
