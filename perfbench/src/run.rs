//! The two runs of a workload: the untraced run that measures the
//! end-to-end metrics, and the traced run that times each layer from
//! outside through its public functions.
//!
//! Load is one closed loop: a single caller runs each solve or pipeline
//! only after the previous one finished.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parapsp_analysis::{
    closeness_centrality, harmonic_centrality, paths::path_stats, Normalization,
};
use parapsp_core::{ApspEngine, Counters, DistanceMatrix, Runner};
use parapsp_graph::io::{read_edge_list_file, write_edge_list};
use parapsp_graph::CsrGraph;
use parapsp_parfor::ThreadPool;

use crate::host::{peak_rss_mb, process_cpu};
use crate::report::{median, percentile, summary, EXACT};
use crate::traced::Timed;
use crate::verify::{verify, Tally};
use crate::workload::Workload;

/// Size and pacing of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Vertices of the workload graph.
    pub n: usize,
    /// Solver threads.
    pub threads: usize,
    /// Seconds the measured loop runs for (it ends with the first
    /// iteration that finishes after this).
    pub seconds: f64,
    /// Iterations the measured loop runs at least.
    pub min_iterations: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark's size: n = 8000 at 2 solver threads.
    pub fn full(seconds: f64) -> Params {
        Params {
            n: 8000,
            threads: 2,
            seconds,
            min_iterations: 3,
            setup_reps: 3,
        }
    }
}

/// What a run hands back for the result line.
pub struct Outcome {
    /// Solves checked and failed.
    pub tally: Tally,
    /// No solve failed and every exact counter repeated.
    pub correct: bool,
    /// Every metric the run measures, by declared name.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Computes the oracle checksum of the graph in an edge-list file.
pub type Oracle<'a> = &'a dyn Fn(&Path) -> u64;

/// The run's scratch directory, removed with everything in it on drop.
pub struct WorkDir {
    root: PathBuf,
    dir: PathBuf,
}

impl WorkDir {
    /// A fresh directory for this process under `root`.
    pub fn create(root: &Path) -> WorkDir {
        let dir = root.join(std::process::id().to_string());
        fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("creating work directory {}: {e}", dir.display()));
        WorkDir {
            root: root.to_owned(),
            dir,
        }
    }

    /// The workload's edge-list file.
    pub fn graph(&self) -> PathBuf {
        self.dir.join("graph.txt")
    }

    /// The run ledger of the durable workload.
    pub fn ledger(&self) -> PathBuf {
        self.dir.join("run.ledger")
    }

    /// Removes the ledger: a solve would otherwise resume from the rows a
    /// previous solve left in it.
    fn clear_ledger(&self) {
        match fs::remove_file(self.ledger()) {
            Err(e) if e.kind() != ErrorKind::NotFound => {
                panic!("removing {}: {e}", self.ledger().display())
            }
            _ => {}
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Fails while another run still uses the root, which is fine.
        let _ = fs::remove_dir(&self.root);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn load(workload: Workload, path: &Path) -> CsrGraph {
    read_edge_list_file(path, workload.parse_options())
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        .graph
}

/// What `parapsp analyze` computes from the matrix.
fn analyze(dist: &DistanceMatrix) {
    black_box(path_stats(dist));
    black_box(closeness_centrality(dist, Normalization::WassermanFaust));
    black_box(harmonic_centrality(dist));
}

/// Seed of the sample rows checked after iteration `i`.
fn sample_seed(seed: u64, i: u64) -> u64 {
    seed.rotate_left(32) ^ i
}

fn keep_going(done: usize, start: Instant, params: &Params) -> bool {
    done < params.min_iterations || secs(start.elapsed()) < params.seconds
}

/// The graph as the solves see it, a warm pool, and the oracle's
/// checksum.
struct Fixture {
    graph: CsrGraph,
    pool: ThreadPool,
    reference: u64,
    setup_s: Vec<f64>,
}

/// Set-up, timed `params.setup_reps` times: generate the graph, write it
/// as an edge list, read it back, spawn the pool and run a warm-up solve
/// of the graph. The full-size warm-up keeps `setup_s` from being a few
/// milliseconds of file and allocator work, which vary by half from run
/// to run. The oracle runs afterwards, untimed.
fn set_up(
    workload: Workload,
    seed: u64,
    params: &Params,
    work: &WorkDir,
    oracle: Oracle<'_>,
) -> Fixture {
    let mut setup_s = Vec::with_capacity(params.setup_reps);
    let mut ready = None;
    for _ in 0..params.setup_reps {
        drop(ready.take());
        let start = Instant::now();
        let graph = workload.graph(params.n, seed);
        let path = work.graph();
        let mut out = BufWriter::new(
            File::create(&path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display())),
        );
        write_edge_list(&graph, &mut out)
            .and_then(|()| out.flush().map_err(Into::into))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        drop(out);
        let graph = load(workload, &path);
        let pool = ThreadPool::new(params.threads);
        work.clear_ledger();
        let runner = Runner::new(workload.config(params.threads, &work.ledger()));
        black_box(runner.run_with_pool(ApspEngine::new(), &graph, &pool));
        setup_s.push(secs(start.elapsed()));
        ready = Some((graph, pool));
    }
    let (graph, pool) = ready.expect("set-up runs at least once");
    let t_oracle = Instant::now();
    let reference = oracle(&work.graph());
    println!("oracle: {:.3} s, untimed", secs(t_oracle.elapsed()));
    Fixture {
        graph,
        pool,
        reference,
        setup_s,
    }
}

/// The untraced run: each iteration is the `parapsp analyze` job — read
/// the edge list, solve, analyse — with the solve timed on its own.
pub fn measure(
    workload: Workload,
    seed: u64,
    params: &Params,
    work: &WorkDir,
    oracle: Oracle<'_>,
) -> Outcome {
    let fixture = set_up(workload, seed, params, work, oracle);
    let runner = Runner::new(workload.config(params.threads, &work.ledger()));
    let (mut solve, mut pipeline, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let start = Instant::now();
    while keep_going(solve.len(), start, params) {
        work.clear_ledger();
        let t_pipeline = Instant::now();
        let graph = load(workload, &work.graph());
        let (cpu_start, t_solve) = (process_cpu(), Instant::now());
        let out = runner.run_with_pool(ApspEngine::new(), &graph, &fixture.pool);
        solve.push(secs(t_solve.elapsed()));
        cpu.push(secs(process_cpu() - cpu_start));
        analyze(&out.dist);
        pipeline.push(secs(t_pipeline.elapsed()));
        let check = verify(
            &graph,
            &out.dist,
            fixture.reference,
            sample_seed(seed, tally.attempted),
        );
        tally.record(check);
    }
    for (name, values) in [
        ("solve_s", &solve),
        ("pipeline_s", &pipeline),
        ("solve_cpu_s", &cpu),
        ("setup_s", &fixture.setup_s),
    ] {
        println!("{}", summary(name, "s", values));
    }
    Outcome {
        tally,
        correct: tally.failed == 0,
        metrics: vec![
            ("solve_s", median(&solve)),
            ("pipeline_s", median(&pipeline)),
            ("solve_cpu_s", median(&cpu)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", median(&fixture.setup_s)),
            ("verified_ratio", tally.verified_ratio()),
        ],
    }
}

/// One traced iteration: the pipeline with the solve run through the
/// [`Timed`] adapter and `Runner::run_traced`. Returns the per-solve layer
/// metrics, the solve's wall time and its rows' solve times.
fn traced_iteration(
    workload: Workload,
    runner: &Runner,
    work: &WorkDir,
    check: &mut dyn FnMut(&CsrGraph, &DistanceMatrix),
) -> (Vec<(&'static str, f64)>, f64, Vec<Duration>) {
    work.clear_ledger();
    let t_load = Instant::now();
    let graph = load(workload, &work.graph());
    let load_s = secs(t_load.elapsed());
    let t_solve = Instant::now();
    let ((out, spans), row_times) = runner.run_traced(Timed::new(ApspEngine::new()), &graph);
    let solve = t_solve.elapsed();
    let ledger_bytes = fs::metadata(work.ledger()).map_or(0, |m| m.len()) as f64;
    let t_analysis = Instant::now();
    analyze(&out.dist);
    let analysis_s = secs(t_analysis.elapsed());
    check(&graph, &out.dist);

    let c = out.counters;
    let leases = c.lease_hits + c.lease_misses;
    let rows_s = secs(spans.rows);
    let busy: f64 = out.thread_busy.iter().copied().map(secs).sum();
    let busy_max = out
        .thread_busy
        .iter()
        .copied()
        .map(secs)
        .fold(0.0, f64::max);
    let ledger_s = secs(solve.saturating_sub(spans.engine_total()));
    let layers = vec![
        ("graph.load_s", load_s),
        ("order.ordering_s", secs(spans.ordering)),
        (
            "store.alloc_s",
            secs(spans.prepare.saturating_sub(spans.ordering)),
        ),
        (
            "store.lease_hit_ratio",
            if leases == 0 {
                1.0
            } else {
                c.lease_hits as f64 / leases as f64
            },
        ),
        ("store.lease_misses", c.lease_misses as f64),
        ("store.decode_ahead_hits", c.decode_ahead_hits as f64),
        ("store.pinned_bytes_peak", c.pinned_bytes_peak as f64),
        ("engine.rows_s", rows_s),
        ("engine.finish_s", secs(spans.finish)),
        ("kernel.relaxations", c.relaxations as f64),
        ("kernel.queue_pops", c.queue_pops as f64),
        ("kernel.row_reuses", c.row_reuses as f64),
        (
            "kernel.reuse_ratio",
            c.row_reuses as f64 / c.queue_pops.max(1) as f64,
        ),
        (
            "kernel.reuse_bytes_computed",
            (c.row_reuses * graph.vertex_count() as u64 * 4) as f64,
        ),
        ("parfor.imbalance", out.load_imbalance().unwrap_or(1.0)),
        (
            "parfor.idle_frac",
            1.0 - busy / (out.threads as f64 * rows_s),
        ),
        ("parfor.busy_max_s", busy_max),
        ("persist.visit_s", secs(spans.visit)),
        ("persist.ledger_s", ledger_s),
        ("persist.ledger_bytes", ledger_bytes),
        (
            "persist.ledger_mb_per_s",
            if ledger_bytes > 0.0 {
                ledger_bytes / 1e6 / ledger_s
            } else {
                0.0
            },
        ),
        ("analysis.run_s", analysis_s),
    ];
    (layers, secs(solve), row_times)
}

/// The kernel counters that repeat exactly at one thread.
fn exact_counters(c: &Counters) -> [u64; 3] {
    [c.relaxations, c.queue_pops, c.row_reuses]
}

/// The traced run: untraced solves alternate with traced pipelines until
/// the time is up, then two 1-thread passes give the single-threaded
/// baseline and the counters that repeat exactly.
pub fn trace(
    workload: Workload,
    seed: u64,
    params: &Params,
    work: &WorkDir,
    oracle: Oracle<'_>,
) -> Outcome {
    let fixture = set_up(workload, seed, params, work, oracle);
    let runner = Runner::new(workload.config(params.threads, &work.ledger()));
    let mut tally = Tally::default();
    let mut check = |graph: &CsrGraph, dist: &DistanceMatrix| {
        let result = verify(
            graph,
            dist,
            fixture.reference,
            sample_seed(seed, tally.attempted),
        );
        tally.record(result);
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut per_solve: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut row_us = Vec::new();
    let start = Instant::now();
    while keep_going(traced.len(), start, params) {
        work.clear_ledger();
        let t_solve = Instant::now();
        let out = runner.run_with_pool(ApspEngine::new(), &fixture.graph, &fixture.pool);
        untraced.push(secs(t_solve.elapsed()));
        check(&fixture.graph, &out.dist);
        drop(out);

        let (layers, solve_s, row_times) = traced_iteration(workload, &runner, work, &mut check);
        traced.push(solve_s);
        per_solve.push(layers);
        row_us.extend(row_times.iter().map(|d| secs(*d) * 1e6));
    }

    let single = Runner::new(workload.config(1, &work.ledger()));
    let mut passes = Vec::new();
    for _ in 0..2 {
        work.clear_ledger();
        let ((out, spans), _) = single.run_traced(Timed::new(ApspEngine::new()), &fixture.graph);
        check(&fixture.graph, &out.dist);
        passes.push((secs(spans.rows), exact_counters(&out.counters)));
    }
    let exact_repeat = passes[0].1 == passes[1].1;
    if !exact_repeat {
        eprintln!(
            "1-thread kernel counters differ between passes: {:?} vs {:?}",
            passes[0].1, passes[1].1
        );
    }

    let mut metrics: Vec<(&'static str, f64)> = per_solve[0]
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = per_solve
                .iter()
                .map(|layers| {
                    layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .expect("same layers")
                        .1
                })
                .collect();
            (name, median(&values))
        })
        .collect();
    let rows_2t = metrics
        .iter()
        .find(|(n, _)| *n == "engine.rows_s")
        .expect("rows span")
        .1;
    let rows_1t = median(&[passes[0].0, passes[1].0]);
    let [relaxations, queue_pops, row_reuses] = passes[0].1;
    metrics.extend([
        ("kernel.relaxations_1t", relaxations as f64),
        ("kernel.queue_pops_1t", queue_pops as f64),
        ("kernel.row_reuses_1t", row_reuses as f64),
        ("kernel.row_p50_us", percentile(&row_us, 0.50)),
        ("kernel.row_p99_us", percentile(&row_us, 0.99)),
        ("kernel.row_max_us", percentile(&row_us, 1.0)),
        ("parfor.speedup_1t", rows_1t / rows_2t),
        ("trace.overhead_ratio", median(&traced) / median(&untraced)),
    ]);

    println!("{}", summary("solve_s untraced", "s", &untraced));
    println!("{}", summary("solve_s traced", "s", &traced));
    println!(
        "row latencies: {} rows pooled over {} traced solves",
        row_us.len(),
        traced.len()
    );
    println!(
        "exact counters (1 thread, repeat bit for bit{}): {}; the 2-thread kernel \
         and store counters vary with row publication timing",
        if exact_repeat {
            ""
        } else {
            " -- FAILED to repeat"
        },
        EXACT.join(", ")
    );
    Outcome {
        tally,
        correct: tally.failed == 0 && exact_repeat,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, END_TO_END, PER_LAYER};
    use crate::verify::reference_checksum;

    fn small() -> Params {
        Params {
            n: 300,
            threads: 2,
            seconds: 0.0,
            min_iterations: 2,
            setup_reps: 2,
        }
    }

    fn in_process_oracle(workload: Workload) -> impl Fn(&Path) -> u64 {
        move |path| reference_checksum(&load(workload, path))
    }

    fn scratch(name: &str) -> WorkDir {
        WorkDir::create(&std::env::temp_dir().join(format!("perfbench-test-{name}")))
    }

    #[test]
    fn adapter_output_is_bit_identical_to_the_untraced_run() {
        for workload in Workload::ALL {
            let work = scratch(workload.name());
            let graph = workload.graph(400, 11);
            let runner = Runner::new(workload.config(2, &work.ledger()));
            work.clear_ledger();
            let plain = runner.run(ApspEngine::new(), &graph);
            work.clear_ledger();
            let ((traced, spans), rows) = runner.run_traced(Timed::new(ApspEngine::new()), &graph);
            assert_eq!(plain.dist, traced.dist, "{}", workload.name());
            assert_eq!(rows.len(), 400);
            assert!(spans.rows > Duration::ZERO);
            assert!(spans.engine_total() >= spans.prepare + spans.rows);
        }
    }

    #[test]
    fn both_runs_report_exactly_the_declared_metrics() {
        for workload in Workload::ALL {
            let work = scratch(&format!("report-{}", workload.name()));
            let oracle = in_process_oracle(workload);
            let run = measure(workload, 5, &small(), &work, &oracle);
            assert!(run.correct);
            assert_eq!(run.tally.failed, 0);
            result_line(true, 1, 0, &run.metrics, END_TO_END);
            let run = trace(workload, 5, &small(), &work, &oracle);
            assert!(run.correct, "{}", workload.name());
            result_line(true, 1, 0, &run.metrics, PER_LAYER);
        }
    }
}
