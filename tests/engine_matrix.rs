//! Cross-engine equivalence matrix: every [`parapsp::core::Engine`] must
//! reproduce the sequential basic algorithm's distances bit-for-bit on
//! every generator fixture, with and without a `max_distance` cap.
//!
//! Capped runs are compared against the *post-filtered* exact matrix:
//! because every capped entry is either the exact distance (≤ cap) or
//! unreachable, applying the cap inside the kernel, as a finish-time
//! post-filter (BlockedFW, Dist), or to the finished exact matrix all
//! produce identical bits.

use parapsp::core::{
    ApspEngine, BlockedFwEngine, DistanceMatrix, EngineKind, RunConfig, Runner, SeqEngine,
    SolverKind, StoreSpec, SubsetEngine, INF,
};
use parapsp::dist::{ClusterConfig, DistEngine};
use parapsp::graph::generate::{
    barabasi_albert, erdos_renyi_gnm, grid_graph, path_graph, star_graph, watts_strogatz,
    WeightSpec,
};
use parapsp::graph::{CsrGraph, Direction};
use parapsp::parfor::{Schedule, ThreadPool};

const WEIGHTS: WeightSpec = WeightSpec::Uniform { lo: 1, hi: 9 };

fn fixtures() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "erdos-renyi",
            erdos_renyi_gnm(60, 240, Direction::Directed, WEIGHTS, 11).unwrap(),
        ),
        (
            "barabasi-albert",
            barabasi_albert(70, 3, WEIGHTS, 22).unwrap(),
        ),
        (
            "watts-strogatz",
            watts_strogatz(64, 4, 0.2, WEIGHTS, 33).unwrap(),
        ),
        ("star", star_graph(50)),
        ("path", path_graph(55, Direction::Directed)),
        ("grid", grid_graph(7, 8)),
    ]
}

/// The `par-adaptive` cells: its wave-adaptive order at {1, 2, 4} threads.
fn par_adaptive_cells() -> Vec<(String, RunConfig, ApspEngine)> {
    [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let (config, engine) = EngineKind::ParAdaptive.row_engine(threads, None).unwrap();
            (format!("par-adaptive(t={threads})"), config, engine)
        })
        .collect()
}

/// The expected value of cell `(u, v)` under `cap`: the exact distance,
/// or unreachable when an off-diagonal entry exceeds the cap.
fn expected(full: &DistanceMatrix, u: u32, v: u32, cap: Option<u32>) -> u32 {
    let exact = full.get(u, v);
    match cap {
        Some(c) if u != v && exact > c => INF,
        _ => exact,
    }
}

fn assert_matrix(
    engine: &str,
    fixture: &str,
    cap: Option<u32>,
    full: &DistanceMatrix,
    got: &DistanceMatrix,
) {
    assert_eq!(full.n(), got.n(), "{engine} on {fixture}: size mismatch");
    for u in 0..full.n() as u32 {
        for v in 0..full.n() as u32 {
            assert_eq!(
                got.get(u, v),
                expected(full, u, v, cap),
                "{engine} on {fixture} (cap {cap:?}) differs at ({u}, {v})"
            );
        }
    }
}

#[test]
fn every_engine_matches_seq_basic_on_every_fixture() {
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };

            // Shared-memory parallel family: one engine, three configs.
            for (label, config) in [
                ("par-apsp", RunConfig::par_apsp(4)),
                ("par-alg1", RunConfig::par_alg1(2)),
                ("par-alg2", RunConfig::par_alg2(3)),
            ] {
                let out = Runner::new(with_cap(config)).run(ApspEngine::new(), &graph);
                assert_matrix(label, fixture, cap, &full, &out.dist);
            }

            // Sequential family (the order differs per config; the
            // distances must not).
            for (label, config, engine) in [
                (
                    "seq-optimized",
                    RunConfig::seq_optimized(1.0),
                    SeqEngine::ordered(),
                ),
                (
                    "seq-optimized-bucket",
                    RunConfig::seq_optimized_bucket(),
                    SeqEngine::ordered(),
                ),
                (
                    "seq-adaptive",
                    RunConfig::seq_adaptive(10),
                    SeqEngine::adaptive(10),
                ),
            ] {
                let out = Runner::new(with_cap(config)).run(engine, &graph);
                assert_matrix(label, fixture, cap, &full, &out.dist);
            }

            // The adaptive order in parallel waves: a different source
            // order at every thread count, the same distances, every
            // source solved once.
            for (label, config, engine) in par_adaptive_cells() {
                let out = Runner::new(with_cap(config)).run(engine, &graph);
                assert_matrix(&label, fixture, cap, &full, &out.dist);
                assert_eq!(out.counters.sources as usize, graph.vertex_count());
            }

            // Blocked Floyd–Warshall (returns the matrix directly).
            let fw = Runner::new(with_cap(RunConfig::new(3))).run(BlockedFwEngine::new(16), &graph);
            assert_matrix("blocked-fw", fixture, cap, &full, &fw);

            // Distributed cluster simulation, 2 nodes.
            let cluster = DistEngine::new(ClusterConfig {
                nodes: 2,
                ..Default::default()
            });
            let out = Runner::new(with_cap(RunConfig::new(1))).run(cluster, &graph);
            assert_matrix("dist", fixture, cap, &full, &out.dist);

            // Subset engine over every source: each row must equal the
            // corresponding full-matrix row.
            let sources: Vec<u32> = (0..graph.vertex_count() as u32).collect();
            let rows =
                Runner::new(with_cap(RunConfig::subset(3))).run(SubsetEngine::new(sources), &graph);
            for u in 0..graph.vertex_count() as u32 {
                let row = rows.row_of(u).expect("every source requested");
                for v in 0..graph.vertex_count() as u32 {
                    assert_eq!(
                        row[v as usize],
                        expected(&full, u, v, cap),
                        "subset on {fixture} (cap {cap:?}) differs at ({u}, {v})"
                    );
                }
            }
        }
    }
}

/// Schedule axis: the loop schedule decides *who* computes each row and
/// *when*, never *what* the row contains — every parallel engine must be
/// bit-identical to seq-basic under every schedule, including the
/// nondeterministically interleaved work-stealing backend.
#[test]
fn every_schedule_matches_seq_basic_on_every_fixture() {
    let schedules = [
        ("dynamic-cyclic", Schedule::dynamic_cyclic()),
        ("dynamic(4)", Schedule::DynamicChunked(4)),
        ("work-stealing", Schedule::work_stealing()),
    ];
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for (sched_label, schedule) in schedules {
            for (label, config) in [
                ("par-apsp", RunConfig::par_apsp(4)),
                ("par-alg1", RunConfig::par_alg1(2)),
                ("par-alg2", RunConfig::par_alg2(3)),
            ] {
                let out =
                    Runner::new(config.with_schedule(schedule)).run(ApspEngine::new(), &graph);
                assert_matrix(
                    &format!("{label}[{sched_label}]"),
                    fixture,
                    None,
                    &full,
                    &out.dist,
                );
            }
        }
    }
}

/// Solver axis: the per-source SSSP solver decides the *order* of
/// relaxations inside one row, never the distances — every solver must be
/// bit-identical to seq-basic on every fixture, through the parallel,
/// sequential and adaptive configurations, uncapped and capped. `auto`
/// resolves against each
/// graph at engine prepare time, so this also proves that whatever the
/// tuner picks passes the oracle.
#[test]
fn every_solver_matches_seq_basic_on_every_fixture() {
    let solvers = [
        SolverKind::Dijkstra,
        SolverKind::Delta { delta: None },
        SolverKind::Delta { delta: Some(4) },
        SolverKind::Auto,
    ];
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };
            for solver in solvers {
                for (label, config) in [
                    ("par-apsp", RunConfig::par_apsp(4)),
                    ("par-alg1", RunConfig::par_alg1(2)),
                ] {
                    let out = Runner::new(with_cap(config).with_solver(solver))
                        .run(ApspEngine::new(), &graph);
                    assert_matrix(
                        &format!("{label}[{}]", solver.label()),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                }
                for (label, config, engine) in [
                    ("seq-basic", RunConfig::seq_basic(), SeqEngine::ordered()),
                    (
                        "seq-optimized",
                        RunConfig::seq_optimized(1.0),
                        SeqEngine::ordered(),
                    ),
                    (
                        "seq-adaptive",
                        RunConfig::seq_adaptive(10),
                        SeqEngine::adaptive(10),
                    ),
                ] {
                    let out = Runner::new(with_cap(config).with_solver(solver)).run(engine, &graph);
                    assert_matrix(
                        &format!("{label}[{}]", solver.label()),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                }
                for (label, config, engine) in par_adaptive_cells() {
                    let out = Runner::new(with_cap(config).with_solver(solver)).run(engine, &graph);
                    assert_matrix(
                        &format!("{label}[{}]", solver.label()),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                }
            }
        }
    }
}

/// Store axis: the matrix storage backend decides *where* finished rows
/// live — dense heap memory, landmark-delta compressed blocks, or
/// out-of-core mmap shards — never what they contain. Every store must be
/// bit-identical to seq-basic through the parallel, sequential, adaptive
/// and distributed engines, uncapped and capped. The delta store runs with a
/// deliberately tiny hot-row cache and the mmap stores with tiny decoded
/// budgets so eviction/decode round trips are actually exercised; the
/// `mmap-tiny` cell holds only ~15 decoded rows at these fixture sizes,
/// so leases pin and evict constantly while 4 kernel threads race.
///
/// Row reuse must actually *fire* through the lease layer on every
/// backend — a backend that silently degrades to plain SPFA would still
/// pass the bit-identity oracle, so the test also asserts each store
/// accumulated nonzero `row_reuses` across the sweep.
#[test]
fn every_store_matches_seq_basic_on_every_fixture() {
    let stores = [
        ("dense", StoreSpec::dense()),
        ("delta", StoreSpec::delta(4)),
        ("mmap", StoreSpec::mmap(64 * 1024)),
        ("mmap-tiny", StoreSpec::mmap(4096)),
    ];
    let mut reuses: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (fixture, graph) in fixtures() {
        let full = Runner::new(RunConfig::seq_basic())
            .run(SeqEngine::ordered(), &graph)
            .dist;
        for cap in [None, Some(6u32)] {
            let with_cap = |config: RunConfig| match cap {
                Some(c) => config.with_max_distance(c),
                None => config,
            };
            for (store_label, store) in &stores {
                let mut cells = vec![
                    (
                        "par-apsp".to_string(),
                        RunConfig::par_apsp(4),
                        ApspEngine::new(),
                    ),
                    (
                        "seq-basic".to_string(),
                        RunConfig::seq_basic(),
                        SeqEngine::ordered(),
                    ),
                    (
                        "seq-optimized".to_string(),
                        RunConfig::seq_optimized(1.0),
                        SeqEngine::ordered(),
                    ),
                ];
                cells.extend(par_adaptive_cells());
                for (label, config, engine) in cells {
                    let config = with_cap(config).with_store(store.clone());
                    let out = Runner::new(config).run(engine, &graph);
                    assert_matrix(
                        &format!("{label}[{store_label}]"),
                        fixture,
                        cap,
                        &full,
                        &out.dist,
                    );
                    assert_eq!(
                        out.counters.row_reuses,
                        out.counters.lease_hits + out.counters.lease_misses,
                        "{label}[{store_label}] on {fixture}: every reuse goes through a lease"
                    );
                    *reuses.entry(store_label).or_insert(0) += out.counters.row_reuses;
                }

                // Distributed: the store backs the driver's gather target.
                let cluster = DistEngine::new(ClusterConfig {
                    nodes: 2,
                    ..Default::default()
                });
                let out = Runner::new(with_cap(RunConfig::new(1)).with_store(store.clone()))
                    .run(cluster, &graph);
                assert_matrix(
                    &format!("dist[{store_label}]"),
                    fixture,
                    cap,
                    &full,
                    &out.dist,
                );
            }
        }
    }
    for (store_label, _) in &stores {
        assert!(
            reuses.get(store_label).copied().unwrap_or(0) > 0,
            "{store_label}: row reuse never fired across the whole sweep — \
             the lease layer is being bypassed on this backend"
        );
    }
}

/// Steal-counter stress: a deliberately imbalanced workload — one dense
/// cluster whose SSSP rows are expensive, plus a large fringe of isolated
/// vertices whose rows are trivial — seeds one worker's deque with nearly
/// all of the work. The other workers must obtain rows by stealing, so
/// the pool's steal counter comes out nonzero while the distances stay
/// bit-identical to seq-basic.
#[test]
fn work_stealing_engine_steals_under_imbalanced_load() {
    // Dense directed cluster on vertices 0..100 (expensive rows), isolated
    // vertices 100..400 (each row is INF except the diagonal).
    let cluster = 100u32;
    let n = 400usize;
    let mut edges = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64; // splitmix-style seed
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..4_000 {
        let u = (next() % cluster as u64) as u32;
        let v = (next() % cluster as u64) as u32;
        if u != v {
            edges.push((u, v, 1 + (next() % 9) as u32));
        }
    }
    let graph = CsrGraph::from_edges(n, Direction::Directed, &edges).unwrap();
    let full = Runner::new(RunConfig::seq_basic())
        .run(SeqEngine::ordered(), &graph)
        .dist;

    // chunk: 1 keeps every undistributed row stealable; degree-descending
    // source ordering packs all expensive rows into the first worker's
    // contiguous block.
    let config = RunConfig::par_apsp(4).with_schedule(Schedule::WorkStealing { chunk: 1 });
    let runner = Runner::new(config);
    // The counters are statistical (a thief can in principle lose every
    // race), so allow a few attempts before declaring failure; each run
    // must still be bit-identical regardless.
    let mut steals = 0u64;
    for _ in 0..5 {
        let pool = ThreadPool::new(4);
        let out = runner.run_with_pool(ApspEngine::new(), &graph, &pool);
        assert_matrix("par-apsp[work-stealing]", "cluster", None, &full, &out.dist);
        let stats = pool.take_schedule_stats();
        assert!(
            stats.pops > 0,
            "owner never popped its own deque: {stats:?}"
        );
        steals += stats.steals;
        if steals > 0 {
            break;
        }
    }
    assert!(
        steals > 0,
        "no steals observed across 5 imbalanced runs — work stealing inactive"
    );
}
