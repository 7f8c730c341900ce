//! The `parapsp` subcommand implementations.

use parapsp_analysis::components::weakly_connected_components;
use parapsp_analysis::paths::{distance_distribution, path_stats};
use parapsp_analysis::{
    average_clustering, betweenness_centrality, closeness_centrality, degree_assortativity,
    harmonic_centrality, top_k, Normalization,
};
use parapsp_core::baselines;
use parapsp_core::engine::{
    ApspEngine, BlockedFwEngine, Engine, EngineKind, RunConfig, Runner, ValueEnum,
};
use parapsp_core::paths::par_apsp_with_paths;
use parapsp_core::persist::{self, Checkpoint};
use parapsp_core::{
    autotune, DistanceMatrix, FsyncPolicy, RelaxImpl, RowLedger, RunOutcome, SolverKind,
};
use parapsp_dist::{
    run_worker, BindSpec, ClusterConfig, DistEngine, FaultPlan, LedgerSpec, SocketConfig,
    SourcePartition, TransportSpec, WorkerMode, WorkerOptions, WorkerOutcome,
};
use parapsp_graph::io::{read_edge_list_file, LoadedGraph, ParseOptions};
use parapsp_graph::{degree, transform, CsrGraph, Direction};
use parapsp_parfor::{CancelToken, Schedule, ThreadPool};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::args::Args;
use crate::interrupt;

/// Set once stdout's reader has gone away; later report lines are dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes one line of a command's report to stdout. A reader that closes
/// the pipe early (`parapsp apsp g.txt | head -1`) is not an error: the
/// rest of the report is dropped and the command carries on, so its
/// `--out` file is still written and it exits with its own status.
pub fn say_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("warning: writing to stdout: {e}; dropping the rest of the report");
        }
    }
}

/// `println!` for command reports, through [`say_line`].
macro_rules! say {
    ($($arg:tt)*) => {
        say_line(format_args!($($arg)*))
    };
}

/// A command failure, split by exit code: *usage* errors (bad flag values,
/// rejected configurations — exit 2, matching the argument parser) versus
/// *runtime* failures (I/O, worker loss — exit 1).
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself is wrong; fix the command line (exit 2).
    Usage(String),
    /// The invocation was fine but the run failed (exit 1).
    Failure(String),
}

impl CliError {
    /// Wraps a runtime failure (exit 1). The `From<String>` conversion
    /// classifies as usage instead, because `?` in the command bodies
    /// overwhelmingly propagates flag validation.
    pub fn failure(message: impl Into<String>) -> CliError {
        CliError::Failure(message.into())
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failure(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Failure(message) => f.write_str(message),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

/// Help text shared with `main`.
pub const USAGE: &str = "\
parapsp — parallel all-pairs shortest paths for complex graph analysis

usage: parapsp <command> [options]

commands:
  stats <file>               degree / component / clustering summary
  apsp <file>                run an APSP algorithm, report timings
                             (alias: run)
  analyze <file>             APSP + centralities + path statistics
  path <file> <src> <dst>    print one shortest route
  estimate <file> <s> <d>    landmark distance bounds (O(k·n) memory;
                             --top <K> landmarks, default 16)
  generate                   write a synthetic graph to --out
  node                       socket worker for a `dist` driver (see below)
  help                       this text

common options (each command rejects options it does not read, exit 2):
  --directed | --undirected  edge interpretation (default: undirected)
  --format <snap|konect>     comment style (default: snap)
  --threads <N>              worker threads for apsp, analyze, path and
                             estimate (default: 4)
  --help                     this text, after any command

apsp options:
  --algorithm <name>         par-apsp | par-alg1 | par-alg2 | par-adaptive |
                             seq-basic | seq-optimized | seq-adaptive |
                             blocked-fw | floyd-warshall | dijkstra | dist
  --nodes <P>                cluster size for `dist`; every worker runs the
                             row kernel, so --cap, --relax and --solver
                             act inside each worker's rows
  --hub-fraction <F>         hub broadcast fraction for `dist`
  --partition <name>         dist source partition: cyclic-degree |
                             block-degree | cyclic-id
  --credit-weight <W>        intermediate-credit weight for seq-adaptive
                             (default: 10) and par-adaptive (default: 16)
  --block <B>                tile side for blocked-fw (default: 64)
  --cap <D>                  bounded horizon: leave pairs beyond distance D
                             at infinity (every algorithm except
                             floyd-warshall and dijkstra)
  --relax <impl>             row-relaxation kernel: auto | avx2 | portable |
                             scalar (par-*, seq-* and dist, whose workers
                             run the same kernel; default auto — all
                             variants are bit-identical)
  --solver <s>               per-source SSSP solver: dijkstra (default; the
                             paper's modified Dijkstra) | delta[:<width>]
                             (Δ-stepping, width from the mean weight when
                             omitted) | auto (probe the graph, pick solver
                             + Δ, and fill unset --schedule/--relax); same
                             algorithms as --relax; distances are
                             bit-identical under every solver
  --schedule <s>             source-sweep loop schedule for par-apsp |
                             par-alg1 | par-alg2 | par-adaptive (each
                             par-adaptive wave): block | static-cyclic |
                             dynamic-cyclic | dynamic:<chunk> |
                             guided:<min-chunk> | work-stealing[:<chunk>]
                             (default: each algorithm's paper schedule;
                             the distances are identical under all of them)
  --store <s>                distance-matrix storage backend: dense
                             (default; one flat n² allocation) |
                             delta[:<refs>] (landmark-delta compression
                             against <refs> reference rows, default 16) |
                             mmap[:<budget>] (out-of-core file shards, in-
                             memory cache capped at <budget> bytes; accepts
                             k/m/g suffixes, default 64m); row engines and
                             dist; the final matrix is bit-identical under
                             every backend
  --out <file>               save the distance matrix (.tsv/.txt = text,
                             anything else = compact binary)
  --checkpoint <file>        journal every completed row to <file>, a
                             crash-safe append-only run ledger (O(row)
                             bytes and one checksum per row); an existing
                             ledger of this size there resumes the run;
                             an older v1/v2 file there is refused, carry
                             its rows over with --resume <old>
                             --checkpoint <new> (row engines and dist)
  --ledger <file>            another spelling of --checkpoint (give one)
  --checkpoint-every <K>     rows between ledger commits (default: 64)
  --ledger-fsync <policy>    when ledger appends reach the disk: always |
                             commit (default) | never
  --resume <file>            load a run ledger or an old v1/v2 checkpoint
                             and compute only the missing rows (row
                             engines and dist)
  --deadline <secs>          stop once the wall-clock budget expires,
                             keep the completed rows in a ledger, exit 124
  --on-interrupt <mode>      checkpoint (default): SIGINT/SIGTERM stop at
                             a row boundary, keep the completed rows in a
                             ledger, exit 130; abort: die immediately (OS
                             default) (cancellable: everything except
                             floyd-warshall, dijkstra; the rows are in
                             --checkpoint's ledger, or written to a new
                             ledger at <file>.interrupt.ckpt)

dist transport (default: in-process channels):
  --transport <t>            channel | tcp | unix — tcp/unix run the
                             cluster over length-prefix-framed sockets to
                             real worker processes (spawned from this
                             binary unless --external)
  --listen <addr>            listen address: host:port for tcp (default:
                             ephemeral loopback) or a path for unix
                             (default: a temp path)
  --external                 don't spawn workers; print the listen address
                             and wait for `parapsp node --connect <addr>`
                             processes started elsewhere
  --heartbeat <ms>           worker keepalive interval (default: 20)
  --heartbeat-misses <N>     silent intervals before a worker is declared
                             dead and its sources re-dealt (default: 50;
                             EOF/resets are detected immediately)
  --row-batch <K>            rows buffered per gather frame (default: 4)
  --accept-timeout <secs>    how long to wait for workers to connect
                             (default: 10); empty slots are re-dealt
  --read-timeout <ms>        driver-side socket read poll quantum
                             (default: 10)
  --write-timeout <ms>       socket write bound on both ends (default:
                             2000); a blocked write past it is a dead peer
  --delay-ms <ms>            forwarded to spawned workers: sleep this long
                             before each source (testing aid)
  with --external + --ledger the driver is restartable: kill it mid-run,
  re-run the same command with --resume <ledger>, and surviving workers
  re-handshake under the recovered run id (only missing rows recompute)

node options (socket worker; driver supplies everything else):
  --connect <addr>           the driver's listen address (required)
  --connect-attempts <N>     dial attempts with exponential backoff (20)
  --write-timeout <ms>       socket write bound toward the driver (2000)
  --delay-ms <ms>            sleep before each source (testing aid)
                             a worker that loses its driver mid-run
                             re-dials and re-handshakes under its last
                             run id/epoch until the dial budget runs out
                             exit codes: 0 clean, 3 injected crash

dist fault injection (deterministic, seeded):
  --fault-seed <S>           seed for the fault plan (default: 0)
  --crash <node:k[,..]>      crash node(s) after their k-th source
  --drop-prob <P>            drop each hub broadcast with probability P
  --corrupt-prob <Q>         bit-flip each row payload with probability Q

generate options:
  --model <ba|er|ws> --n <N> --m <M> [--p <P>] [--seed <S>] --out <file>
";

fn parse_options(args: &Args) -> Result<ParseOptions, String> {
    let direction = if args.flag("directed") {
        Direction::Directed
    } else {
        Direction::Undirected
    };
    match args.get("format").unwrap_or("snap") {
        "snap" => Ok(ParseOptions::snap(direction)),
        "konect" => Ok(ParseOptions::konect(direction)),
        other => Err(format!("unknown format `{other}` (snap or konect)")),
    }
}

fn load(args: &Args) -> Result<LoadedGraph, String> {
    let path = args
        .positional(0)
        .ok_or_else(|| "expected a graph file argument".to_string())?;
    read_edge_list_file(path, parse_options(args)?).map_err(|e| format!("loading {path}: {e}"))
}

fn check_matrix_budget(n: usize) -> Result<(), String> {
    let bytes = (n as u64) * (n as u64) * 4;
    if bytes > 8 << 30 {
        return Err(format!(
            "a {n}-vertex APSP needs a {:.1} GiB distance matrix; \
             extract a component first (this is the paper's own memory wall)",
            bytes as f64 / (1u64 << 30) as f64
        ));
    }
    Ok(())
}

/// `parapsp stats <file>` — structural summary, no O(n²) allocation.
pub fn stats(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    say!(
        "{}: {} vertices, {} edges ({})",
        args.positional(0).unwrap_or("-"),
        g.vertex_count(),
        g.edge_count(),
        if g.direction().is_directed() {
            "directed"
        } else {
            "undirected"
        }
    );
    let degrees = degree::out_degrees(g);
    if let Some(s) = degree::degree_stats(&degrees) {
        say!(
            "degree: min {} / median {} / mean {:.2} / max {}",
            s.min,
            s.median,
            s.mean,
            s.max
        );
    }
    let (_, components) = weakly_connected_components(g);
    say!("weakly connected components: {components}");
    let (lcc, _) = transform::largest_connected_component(g);
    say!(
        "largest component: {} vertices ({:.1}%)",
        lcc.vertex_count(),
        lcc.vertex_count() as f64 / g.vertex_count().max(1) as f64 * 100.0
    );
    if !g.direction().is_directed() {
        say!("average clustering: {:.4}", average_clustering(g));
    }
    say!("degree assortativity: {:+.4}", degree_assortativity(g));
    say!("\ndegree distribution (log-binned):");
    for (bin, count) in degree::log_binned_histogram(&degrees) {
        say!("  >= {bin:<6} {count}");
    }
    Ok(())
}

/// Builds the `dist` fault plan from `--fault-seed`, `--crash`,
/// `--drop-prob`, and `--corrupt-prob`.
fn parse_fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::seeded(args.get_parsed("fault-seed", 0u64)?);
    if let Some(spec) = args.get("crash") {
        for entry in spec.split(',') {
            let (node, after) = entry
                .split_once(':')
                .ok_or_else(|| format!("--crash entry `{entry}` is not <node>:<k>"))?;
            let node: usize = node
                .parse()
                .map_err(|_| format!("--crash node `{node}` is invalid"))?;
            let after: u64 = after
                .parse()
                .map_err(|_| format!("--crash count `{after}` is invalid"))?;
            plan = plan.crash_node_after(node, after);
        }
    }
    let drop_prob = args.get_parsed("drop-prob", 0.0f64)?;
    if !(0.0..=1.0).contains(&drop_prob) {
        return Err(format!("--drop-prob {drop_prob} outside [0, 1]"));
    }
    let corrupt_prob = args.get_parsed("corrupt-prob", 0.0f64)?;
    if !(0.0..1.0).contains(&corrupt_prob) {
        return Err(format!("--corrupt-prob {corrupt_prob} outside [0, 1)"));
    }
    Ok(plan
        .with_drop_probability(drop_prob)
        .with_corrupt_probability(corrupt_prob))
}

/// Builds the `dist` transport from `--transport`, `--listen`,
/// `--heartbeat`, `--heartbeat-misses`, `--row-batch`,
/// `--accept-timeout`, `--external`, and `--delay-ms`.
fn parse_transport(args: &Args) -> Result<TransportSpec, String> {
    let kind = args.get("transport").unwrap_or("channel");
    if kind == "channel" {
        return Ok(TransportSpec::InProcess);
    }
    let bind = match kind {
        "tcp" => match args.get("listen") {
            None => BindSpec::TcpEphemeral,
            Some(addr) => BindSpec::Tcp(addr.to_string()),
        },
        #[cfg(unix)]
        "unix" => {
            let path = match args.get("listen") {
                Some(path) => std::path::PathBuf::from(path),
                None => std::env::temp_dir().join(format!("parapsp-{}.sock", std::process::id())),
            };
            BindSpec::Unix(path)
        }
        other => {
            return Err(format!(
                "unknown transport `{other}` (channel, tcp, or unix)"
            ))
        }
    };
    let workers = if args.flag("external") {
        WorkerMode::External
    } else {
        // Self-spawn: each worker is this very binary running the `node`
        // subcommand; faults and the graph travel in the Setup frame.
        let program =
            std::env::current_exe().map_err(|e| format!("resolving the worker executable: {e}"))?;
        let mut node_args = vec!["node".to_string()];
        for forwarded in ["delay-ms", "write-timeout"] {
            if let Some(value) = args.get(forwarded) {
                node_args.push(format!("--{forwarded}"));
                node_args.push(value.to_string());
            }
        }
        WorkerMode::Spawn {
            program,
            args: node_args,
        }
    };
    let heartbeat_ms = args.get_parsed("heartbeat", 20u64)?;
    let heartbeat_misses = args.get_parsed("heartbeat-misses", 50u32)?;
    let row_batch = args.get_parsed("row-batch", 4usize)?;
    let accept_secs = args.get_parsed("accept-timeout", 10u64)?;
    let defaults = SocketConfig::default();
    let read_timeout_ms =
        args.get_parsed("read-timeout", defaults.read_timeout.as_millis() as u64)?;
    let write_timeout_ms =
        args.get_parsed("write-timeout", defaults.write_timeout.as_millis() as u64)?;
    // Zero intervals/timeouts are rejected later by
    // `ClusterConfig::validate`, before any socket is opened.
    Ok(TransportSpec::Socket(SocketConfig {
        bind,
        workers,
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        heartbeat_misses,
        row_batch,
        accept_timeout: Duration::from_secs(accept_secs),
        read_timeout: Duration::from_millis(read_timeout_ms),
        write_timeout: Duration::from_millis(write_timeout_ms),
        announce: args.flag("external"),
        ..defaults
    }))
}

/// `parapsp node --connect <addr>` — a socket worker process: dials the
/// driver, receives its graph and share in the Setup frame, and streams
/// rows back until told to shut down. A worker whose driver vanishes
/// without a shutdown (a driver crash) re-dials the same address and
/// re-handshakes under its last run id/epoch, so a restarted driver can
/// reclaim it; a driver that never returns exhausts the dial budget and
/// surfaces as a connection failure. Returns the process exit code: 0 on
/// a clean run, 3 when a deterministic fault-plan crash fired (the socket
/// is torn down abruptly, as a real crash would).
pub fn node(args: &Args) -> Result<i32, CliError> {
    let addr = args
        .get("connect")
        .ok_or_else(|| "node needs --connect <addr> (the driver's listen address)".to_string())?;
    let connect = parapsp_dist::ConnectRetry {
        attempts: args.get_parsed("connect-attempts", 20u32)?,
        ..parapsp_dist::ConnectRetry::default()
    };
    if connect.attempts == 0 {
        return Err("--connect-attempts must be at least 1".to_string().into());
    }
    let mut options = WorkerOptions {
        connect,
        source_delay: Duration::from_millis(args.get_parsed("delay-ms", 0u64)?),
        write_timeout: Duration::from_millis(args.get_parsed("write-timeout", 2000u64)?),
        ..WorkerOptions::default()
    };
    if options.write_timeout.is_zero() {
        return Err("--write-timeout must be at least 1 ms".to_string().into());
    }
    loop {
        match run_worker(addr, options.clone()).map_err(CliError::failure)? {
            WorkerOutcome::Clean(stats) => {
                eprintln!(
                    "node: {} sources, {} remote reuses, {} retries, {} reconnects, {} KiB sent",
                    stats.sources,
                    stats.remote_reuses,
                    stats.retries,
                    stats.reconnects,
                    stats.bytes_sent / 1024,
                );
                return Ok(0);
            }
            WorkerOutcome::Crashed => return Ok(3),
            WorkerOutcome::Lost { session } => {
                eprintln!(
                    "node: driver connection lost (run {:#018x} epoch {}); re-dialing {addr}",
                    session.0, session.1
                );
                options.session = session;
            }
        }
    }
}

/// What an `apsp` run produced.
enum RunStatus {
    /// Finished: the distance matrix plus a one-line summary.
    Done(DistanceMatrix, String),
    /// Stopped early (interrupt or deadline); the checkpoint is already on
    /// disk and the process should exit with `code`.
    Stopped { code: i32 },
}

/// What a SIGINT/SIGTERM does to a cancellable run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnInterrupt {
    /// Stop at a row boundary, write a checkpoint, exit 130.
    Checkpoint,
    /// Die immediately (the OS default disposition).
    Abort,
}

impl ValueEnum for OnInterrupt {
    fn value_variants() -> &'static [Self] {
        &[OnInterrupt::Checkpoint, OnInterrupt::Abort]
    }

    fn value_name(&self) -> &'static str {
        match self {
            OnInterrupt::Checkpoint => "checkpoint",
            OnInterrupt::Abort => "abort",
        }
    }
}

/// The stable names of every [`EngineKind`] passing `select`, for error
/// messages that enumerate what a flag applies to.
fn kinds_where(select: fn(EngineKind) -> bool) -> String {
    let names: Vec<&str> = EngineKind::value_variants()
        .iter()
        .copied()
        .filter(|&kind| select(kind))
        .map(|kind| kind.value_name())
        .collect();
    names.join(", ")
}

/// Builds the run's cancel token from `--deadline`/`--on-interrupt`.
/// Returns the token plus whether the SIGINT/SIGTERM bridge should be
/// installed; `None` when the run should take the plain, token-free path.
fn cancellation_setup(
    args: &Args,
    kind: EngineKind,
) -> Result<Option<(CancelToken, bool)>, String> {
    let deadline: Option<f64> = match args.get("deadline") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("--deadline value `{raw}` is invalid"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!(
                    "--deadline must be a non-negative number of seconds (got {raw})"
                ));
            }
            Some(secs)
        }
    };
    let checkpoint_on_interrupt =
        args.get_enum("on-interrupt", OnInterrupt::Checkpoint)? == OnInterrupt::Checkpoint;
    if !kind.cancellable() {
        // Only explicit flags are an error — the default interrupt mode
        // must not break non-cancellable algorithms.
        if args.get("deadline").is_some() || args.get("on-interrupt").is_some() {
            return Err(format!(
                "--deadline/--on-interrupt work with {} (got `{}`)",
                kinds_where(EngineKind::cancellable),
                kind.value_name()
            ));
        }
        return Ok(None);
    }
    if deadline.is_none() && !checkpoint_on_interrupt {
        return Ok(None); // no deadline, abort-on-signal: the legacy path
    }
    let token = match deadline {
        Some(secs) => CancelToken::with_deadline(std::time::Duration::from_secs_f64(secs)),
        None => CancelToken::new(),
    };
    Ok(Some((token, checkpoint_on_interrupt)))
}

/// The run ledger's path: `--checkpoint` and `--ledger` are two spellings
/// of one option, resolved here and nowhere else.
fn ledger_path(args: &Args) -> Result<Option<&str>, String> {
    match (args.get("checkpoint"), args.get("ledger")) {
        (Some(_), Some(_)) => {
            Err("--checkpoint and --ledger are two spellings of one option; give one".into())
        }
        (checkpoint, ledger) => Ok(checkpoint.or(ledger)),
    }
}

/// Makes a stopped run's completed rows durable and reports how to
/// resume. A run with a `ledger` has journaled every one of them there
/// already; any other run writes them now to a fresh ledger at
/// `<graph-file>.interrupt.ckpt`, one record per completed row.
fn write_stop_checkpoint(
    args: &Args,
    ledger: Option<&str>,
    checkpoint: &Checkpoint,
    why: &str,
    code: i32,
) -> Result<RunStatus, CliError> {
    let (done, n) = (checkpoint.completed_count(), checkpoint.n());
    if let Some(path) = ledger {
        eprintln!(
            "{why}: {done} of {n} rows already durable in the ledger {path} \
             (resume with --resume {path} --checkpoint {path})"
        );
        return Ok(RunStatus::Stopped { code });
    }
    let path = format!("{}.interrupt.ckpt", args.positional(0).unwrap_or("apsp"));
    let write = || -> Result<(), persist::PersistError> {
        let mut stop = RowLedger::create(&path, n, FsyncPolicy::default())?;
        for s in (0..n as u32).filter(|&s| checkpoint.completed()[s as usize]) {
            stop.append(s, checkpoint.matrix().row(s))?;
        }
        stop.finish()
    };
    write().map_err(|e| CliError::failure(format!("writing stop checkpoint {path}: {e}")))?;
    eprintln!(
        "{why}: {done} of {n} rows complete; checkpoint written to {path} \
         (resume with --resume {path})"
    );
    Ok(RunStatus::Stopped { code })
}

/// Loads `--resume`'s checkpoint, validated against the graph.
fn load_resume(args: &Args, graph: &CsrGraph) -> Result<Option<Checkpoint>, String> {
    let Some(path) = args.get("resume") else {
        return Ok(None);
    };
    let cp =
        persist::load_checkpoint(path).map_err(|e| format!("loading checkpoint {path}: {e}"))?;
    if cp.n() != graph.vertex_count() {
        return Err(format!(
            "checkpoint {path} is for {} vertices but the graph has {}",
            cp.n(),
            graph.vertex_count()
        ));
    }
    say!(
        "resuming: {} of {} rows already complete",
        cp.completed_count(),
        cp.n()
    );
    Ok(Some(cp))
}

/// Drives `engine` through the [`Runner`], from `--resume`'s checkpoint
/// when given, with or without a cancel token. A stopped run makes its
/// rows durable (see [`write_stop_checkpoint`]) and comes back as `Err`
/// with the exit status.
fn drive<E: Engine>(
    runner: &Runner,
    engine: E,
    graph: &CsrGraph,
    args: &Args,
    ledger: Option<&str>,
    token: Option<&CancelToken>,
) -> Result<Result<E::Output, RunStatus>, CliError> {
    let outcome = match (token, load_resume(args, graph)?) {
        (Some(token), Some(cp)) => runner.run_resumed_with_token(engine, graph, cp, token),
        (Some(token), None) => runner.run_with_token(engine, graph, token),
        (None, Some(cp)) => RunOutcome::Complete(runner.run_resumed(engine, graph, cp)),
        (None, None) => RunOutcome::Complete(runner.run(engine, graph)),
    };
    let (checkpoint, why, code) = match outcome {
        RunOutcome::Complete(out) => return Ok(Ok(out)),
        RunOutcome::Cancelled { checkpoint } => (checkpoint, "interrupted", 130),
        RunOutcome::DeadlineExceeded { checkpoint } => (checkpoint, "deadline exceeded", 124),
    };
    write_stop_checkpoint(args, ledger, &checkpoint, why, code).map(Err)
}

fn run_algorithm(
    kind: EngineKind,
    graph: &CsrGraph,
    threads: usize,
    args: &Args,
    token: Option<&CancelToken>,
) -> Result<RunStatus, CliError> {
    // A flag an algorithm would silently ignore is a usage error naming
    // the algorithms that honour it.
    let reject = |flag: &str, honours: fn(EngineKind) -> bool| -> Result<(), CliError> {
        if args.get(flag).is_some() && !honours(kind) {
            return Err(CliError::Usage(format!(
                "--{flag} works with {} (got `{}`)",
                kinds_where(honours),
                kind.value_name()
            )));
        }
        Ok(())
    };
    // Optional bounded horizon (exact within the cap, INF beyond it).
    let cap: Option<u32> = match args.get("cap") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--cap value `{raw}` is invalid"))?,
        ),
    };
    reject("cap", EngineKind::honours_cap)?;
    let credit_weight: Option<u64> = args
        .get("credit-weight")
        .map(|_| args.get_parsed("credit-weight", 0))
        .transpose()?;
    reject("credit-weight", EngineKind::adaptive)?;
    reject("block", |kind| kind == EngineKind::BlockedFw)?;
    // Row-relaxation implementation (the vectorized kernel ablation switch).
    let relax = args.get_enum("relax", RelaxImpl::Auto)?;
    // The run ledger and --resume need rows that are final mid-run; the
    // dist driver gathers exactly such rows, so it joins the row engines.
    // --relax needs the modified-Dijkstra kernel.
    let ledger = ledger_path(args)?;
    if (ledger.is_some() || args.get("resume").is_some())
        && !(kind.row_checkpoints() || kind == EngineKind::Dist)
    {
        let spelling = ["checkpoint", "ledger"]
            .into_iter()
            .find(|flag| args.get(flag).is_some())
            .unwrap_or("ledger");
        return Err(format!(
            "--{spelling}/--resume work with {}, dist (got `{}`)",
            kinds_where(EngineKind::row_checkpoints),
            kind.value_name()
        )
        .into());
    }
    let ledger_fsync = args.get_enum("ledger-fsync", FsyncPolicy::default())?;
    if args.get("ledger-fsync").is_some() && ledger.is_none() {
        return Err("--ledger-fsync needs --checkpoint (or --ledger)"
            .to_string()
            .into());
    }
    reject("relax", EngineKind::uses_kernel)?;
    // Source-sweep loop schedule (only the Runner-driven parallel engines
    // hand their source loop to the parfor pool).
    let schedule: Option<Schedule> = match args.get("schedule") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|e| format!("--schedule value `{raw}` is invalid: {e}"))?,
        ),
    };
    reject("schedule", EngineKind::honours_schedule)?;
    // Distance-matrix storage backend. Only engines that route published
    // rows through a `Store` (the row engines and the dist gather) can
    // honour it; the in-place baselines would silently ignore the flag.
    let store = args.get_spec("store", parapsp_core::StoreSpec::default())?;
    reject("store", EngineKind::supports_store)?;
    // Reject a hot-row cache budget that cannot hold the lease working
    // set here, where it is a clean `--store` error with the minimum
    // named, instead of a panic when the engine builds the store.
    store
        .validate_for(graph.vertex_count())
        .map_err(|e| format!("--store value `{}` is invalid: {e}", store.label()))?;
    // Per-source SSSP solver. Like --relax it needs the row kernel.
    // `--solver auto` probes the graph up front so the choice can be
    // reported, and its schedule/relax recommendations fill in whichever
    // of those flags the user left unset.
    let mut solver = args.get_spec("solver", SolverKind::default())?;
    reject("solver", EngineKind::uses_kernel)?;
    let mut relax = relax;
    let mut schedule = schedule;
    if solver == SolverKind::Auto && kind.uses_kernel() {
        let choice = autotune(graph);
        say!(
            "auto-tune: solver {} schedule {} relax {} (n={} m={} \
             degree-skew={:.1} weights {}..{} diameter~{})",
            choice.solver.label(),
            choice.schedule.label(),
            choice.relax.name(),
            choice.probe.n,
            choice.probe.m,
            choice.probe.degree_skew,
            choice.probe.weight_min,
            choice.probe.weight_max,
            choice.probe.approx_diameter,
        );
        solver = choice.solver;
        if args.get("relax").is_none() {
            relax = choice.relax;
        }
        if args.get("schedule").is_none() && kind.honours_schedule() {
            schedule = Some(choice.schedule);
        }
    }
    let checkpoint_every = args.get_parsed("checkpoint-every", 64usize)?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".to_string().into());
    }
    if let Some(path) = ledger {
        // A file at the ledger path that this run cannot resume is
        // refused here, untouched, rather than inside the run.
        persist::check_ledger_target(path, graph.vertex_count()).map_err(|e| {
            CliError::failure(format!(
                "refusing to journal to {path}: {e}; runs write run ledgers, so name a \
                 new file, and carry an old checkpoint's rows over with \
                 --resume {path} --checkpoint <new file>"
            ))
        })?;
    }
    // Every Runner-driven algorithm shares the same config plumbing: cap,
    // relax implementation, and run ledger land in one RunConfig.
    let configure = |mut config: RunConfig| -> RunConfig {
        if let Some(cap) = cap {
            config = config.with_max_distance(cap);
        }
        config = config.with_relax(relax);
        config = config.with_solver(solver);
        config = config.with_store(store.clone());
        if let Some(schedule) = schedule {
            config = config.with_schedule(schedule);
        }
        if let Some(path) = ledger {
            config = config
                .with_ledger(path, checkpoint_every)
                .with_fsync(ledger_fsync);
        }
        config
    };
    let (dist, summary) = match kind {
        EngineKind::FloydWarshall => {
            let start = std::time::Instant::now();
            let dist = baselines::floyd_warshall(graph);
            (dist, format!("floyd-warshall: {:?}", start.elapsed()))
        }
        EngineKind::Dijkstra => {
            let pool = ThreadPool::new(threads);
            let start = std::time::Instant::now();
            let dist = baselines::par_apsp_dijkstra(graph, &pool);
            let summary = format!("parallel heap-dijkstra: {:?}", start.elapsed());
            (dist, summary)
        }
        EngineKind::BlockedFw => {
            let block = args.get_parsed("block", 64usize)?;
            let runner = Runner::new(configure(RunConfig::new(threads)));
            let start = std::time::Instant::now();
            let dist = match drive(
                &runner,
                BlockedFwEngine::new(block),
                graph,
                args,
                ledger,
                token,
            )? {
                Ok(dist) => dist,
                Err(stopped) => return Ok(stopped),
            };
            let summary = format!(
                "blocked floyd-warshall ({threads} threads, {block}-tile): {:?}",
                start.elapsed()
            );
            (dist, summary)
        }
        EngineKind::Dist => {
            let nodes = args.get_parsed("nodes", 4usize)?;
            let hub_fraction = args.get_parsed("hub-fraction", 0.05f64)?;
            let partition = args.get_enum("partition", SourcePartition::default())?;
            let faults = parse_fault_plan(args)?;
            let transport = parse_transport(args)?;
            let cluster = ClusterConfig {
                nodes,
                hub_fraction,
                partition,
                faults,
                transport,
                ledger: ledger.map(|path| LedgerSpec {
                    path: path.into(),
                    fsync: ledger_fsync,
                }),
                ..ClusterConfig::default()
            };
            // Degenerate configurations (zero nodes, more nodes than
            // sources, dead timeouts) are rejected here with a
            // self-describing message instead of panicking mid-run.
            cluster
                .validate(graph.vertex_count())
                .map_err(|e| e.to_string())?;
            // A restarted driver resumes from its own ledger (or any
            // checkpoint): prior rows pre-seed the gather and only the
            // missing sources are dealt to the workers.
            let runner = Runner::new(configure(RunConfig::new(1)));
            let out = match drive(
                &runner,
                DistEngine::new(cluster),
                graph,
                args,
                ledger,
                token,
            )? {
                Ok(out) => out,
                Err(stopped) => return Ok(stopped),
            };
            let sum = |field: fn(&parapsp_dist::NodeStats) -> u64| {
                out.node_stats.iter().map(field).sum::<u64>()
            };
            let summary = format!(
                "distributed ({} nodes, {} crashed): {:?}; computed {} rows, replayed {} rows, \
                 broadcast {} KiB, gather {} KiB, \
                 remote reuses {}, rows rejected {} (+{} at gather), retries {}, reassigned {}, \
                 reconnects {}, heartbeat misses {}",
                nodes,
                out.crashed_nodes(),
                out.elapsed,
                sum(|s| s.sources),
                out.replayed_rows,
                out.total_broadcast_bytes() / 1024,
                out.gather_bytes / 1024,
                sum(|s| s.remote_reuses),
                sum(|s| s.rows_rejected),
                out.gather_rejected,
                sum(|s| s.retries),
                sum(|s| s.reassigned_sources),
                sum(|s| s.reconnects),
                sum(|s| s.heartbeat_misses),
            );
            (out.dist, summary)
        }
        // Every other kind is a configuration of the one row engine.
        _ => {
            let (config, engine) = kind
                .row_engine(threads, credit_weight)
                .expect("the remaining kinds are row engines");
            let out = match drive(
                &Runner::new(configure(config)),
                engine,
                graph,
                args,
                ledger,
                token,
            )? {
                Ok(out) => out,
                Err(stopped) => return Ok(stopped),
            };
            let summary = format!(
                "{} ({} threads): ordering {:?}, sssp {:?}, total {:?}; {} relaxations, {} row \
                 reuses ({} lease hits / {} misses, {} decode-ahead, pinned peak {} B)",
                out.algorithm,
                out.threads,
                out.timings.ordering,
                out.timings.sssp,
                out.timings.total,
                out.counters.relaxations,
                out.counters.row_reuses,
                out.counters.lease_hits,
                out.counters.lease_misses,
                out.counters.decode_ahead_hits,
                out.counters.pinned_bytes_peak
            );
            (out.dist, summary)
        }
    };
    Ok(RunStatus::Done(dist, summary))
}

/// `parapsp apsp <file>` (alias `run`) — run one algorithm and report.
/// Returns the process exit code: 0 on success, 130 when interrupted with
/// a checkpoint, 124 when a `--deadline` expired with a checkpoint.
pub fn apsp(args: &Args) -> Result<i32, CliError> {
    let loaded = load(args).map_err(CliError::failure)?;
    check_matrix_budget(loaded.graph.vertex_count()).map_err(CliError::failure)?;
    let threads = args.get_parsed("threads", 4usize)?;
    let algorithm = args.get_enum("algorithm", EngineKind::ParApsp)?;
    let setup = cancellation_setup(args, algorithm)?;
    // The guard keeps a watcher thread that trips the token on
    // SIGINT/SIGTERM; dropping it (any exit path) stops the watcher.
    let _guard = match &setup {
        Some((token, true)) => Some(interrupt::guard(token)),
        _ => None,
    };
    let token = setup.as_ref().map(|(token, _)| token);
    let (dist, summary) = match run_algorithm(algorithm, &loaded.graph, threads, args, token)? {
        RunStatus::Done(dist, summary) => (dist, summary),
        RunStatus::Stopped { code } => return Ok(code),
    };
    say!("{summary}");
    let stats = path_stats(&dist);
    say!(
        "diameter {} / radius {} / avg path {:.3} / connectivity {:.1}%",
        stats.diameter,
        stats.radius,
        stats.average_path_length,
        stats.connectivity() * 100.0
    );
    if let Some(out_path) = args.get("out") {
        if out_path.ends_with(".tsv") || out_path.ends_with(".txt") {
            let file = std::fs::File::create(out_path)
                .map_err(|e| CliError::failure(format!("creating {out_path}: {e}")))?;
            persist::write_tsv(&dist, file).map_err(|e| CliError::failure(e.to_string()))?;
        } else {
            persist::save_binary(&dist, out_path).map_err(|e| CliError::failure(e.to_string()))?;
        }
        say!("distance matrix written to {out_path}");
    }
    Ok(0)
}

/// `parapsp analyze <file>` — APSP plus the full analysis report.
pub fn analyze(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    let g = &loaded.graph;
    check_matrix_budget(g.vertex_count())?;
    let threads = args.get_parsed("threads", 4usize)?;
    let top = args.get_parsed("top", 5usize)?;

    let out = Runner::new(RunConfig::par_apsp(threads)).run(ApspEngine::new(), g);
    say!(
        "ParAPSP: {:?} on {} threads\n",
        out.timings.total,
        out.threads
    );

    let stats = path_stats(&out.dist);
    say!(
        "diameter {} / radius {} / avg path {:.3} / connectivity {:.1}%",
        stats.diameter,
        stats.radius,
        stats.average_path_length,
        stats.connectivity() * 100.0
    );
    say!("\ndistance distribution:");
    for (d, count) in distance_distribution(&out.dist).iter().enumerate().skip(1) {
        if *count > 0 {
            say!("  {d}: {count}");
        }
    }

    let degrees = degree::out_degrees(g);
    let closeness = closeness_centrality(&out.dist, Normalization::WassermanFaust);
    let harmonic = harmonic_centrality(&out.dist);
    let original = |v: u32| loaded.original_ids[v as usize];
    say!("\ntop {top} by closeness:");
    for v in top_k(&closeness, top) {
        say!(
            "  vertex {} (file id {}): {:.4}  degree {}",
            v,
            original(v),
            closeness[v as usize],
            degrees[v as usize]
        );
    }
    say!("top {top} by harmonic centrality:");
    for v in top_k(&harmonic, top) {
        say!(
            "  vertex {} (file id {}): {:.4}  degree {}",
            v,
            original(v),
            harmonic[v as usize],
            degrees[v as usize]
        );
    }
    if !g.direction().is_directed() && g.is_unit_weight() {
        let pool = ThreadPool::new(threads);
        let betweenness = betweenness_centrality(g, &pool);
        say!("top {top} by betweenness:");
        for v in top_k(&betweenness, top) {
            say!(
                "  vertex {} (file id {}): {:.1}  degree {}",
                v,
                original(v),
                betweenness[v as usize],
                degrees[v as usize]
            );
        }
    }
    Ok(())
}

/// `parapsp path <file> <src> <dst>` — one reconstructed route.
pub fn path(args: &Args) -> Result<(), String> {
    let loaded = load(args)?;
    check_matrix_budget(loaded.graph.vertex_count())?;
    let threads = args.get_parsed("threads", 4usize)?;
    let parse_vertex = |index: usize, what: &str| -> Result<u32, String> {
        let raw = args
            .positional(index)
            .ok_or_else(|| format!("expected a {what} vertex id"))?;
        let original: u64 = raw
            .parse()
            .map_err(|_| format!("{what} id `{raw}` is not an integer"))?;
        loaded
            .dense_id(original)
            .ok_or_else(|| format!("{what} id {original} not present in the file"))
    };
    let src = parse_vertex(1, "source")?;
    let dst = parse_vertex(2, "destination")?;

    let result = par_apsp_with_paths(&loaded.graph, threads);
    match result.pred.path(src, dst) {
        Some(route) => {
            say!(
                "distance {} over {} hops:",
                result.dist.get(src, dst),
                route.len() - 1
            );
            let labels: Vec<String> = route
                .iter()
                .map(|&v| loaded.original_ids[v as usize].to_string())
                .collect();
            say!("  {}", labels.join(" -> "));
        }
        None => say!("no path"),
    }
    Ok(())
}

/// `parapsp estimate <file> <src> <dst> [--top <K>]` — landmark-based
/// distance bounds from `K` hub landmarks (default 16) without the O(n²)
/// matrix (for graphs where `apsp` won't fit).
pub fn estimate(args: &Args) -> Result<(), String> {
    use parapsp_analysis::landmarks::{LandmarkIndex, LandmarkStrategy};
    let loaded = load(args)?;
    if loaded.graph.direction().is_directed() {
        return Err("estimate requires an undirected graph (triangulation)".into());
    }
    let threads = args.get_parsed("threads", 4usize)?;
    let k = args
        .get_parsed("top", 16usize)? // --top is the landmark count
        .min(loaded.graph.vertex_count());
    let parse_vertex = |index: usize, what: &str| -> Result<u32, String> {
        let raw = args
            .positional(index)
            .ok_or_else(|| format!("expected a {what} vertex id"))?;
        let original: u64 = raw
            .parse()
            .map_err(|_| format!("{what} id `{raw}` is not an integer"))?;
        loaded
            .dense_id(original)
            .ok_or_else(|| format!("{what} id {original} not present in the file"))
    };
    let src = parse_vertex(1, "source")?;
    let dst = parse_vertex(2, "destination")?;
    let index = LandmarkIndex::build(
        &loaded.graph,
        k.max(1),
        LandmarkStrategy::HighestDegree,
        threads,
    );
    let lo = index.lower_bound(src, dst);
    let hi = index.upper_bound(src, dst);
    if hi == parapsp_graph::INF {
        say!("no landmark reaches both endpoints (likely disconnected)");
    } else {
        say!(
            "d({}, {}) ∈ [{lo}, {hi}]  ({} hub landmarks, O(k·n) memory)",
            args.positional(1).unwrap_or("?"),
            args.positional(2).unwrap_or("?"),
            index.landmarks().len()
        );
    }
    Ok(())
}

/// `parapsp generate --model ba --n 1000 --m 4 --out g.txt`.
pub fn generate(args: &Args) -> Result<(), String> {
    use parapsp_graph::generate as gen;
    let n = args.get_parsed("n", 1_000usize)?;
    let m = args.get_parsed("m", 4usize)?;
    let p = args.get_parsed("p", 0.1f64)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let out_path = args
        .get("out")
        .ok_or_else(|| "generate needs --out <file>".to_string())?;
    let graph = match args.get("model").unwrap_or("ba") {
        "ba" => gen::barabasi_albert(n, m, gen::WeightSpec::Unit, seed),
        "er" => gen::erdos_renyi_gnp(n, p, Direction::Undirected, gen::WeightSpec::Unit, seed),
        "ws" => gen::watts_strogatz(n, m.max(2) & !1, p, gen::WeightSpec::Unit, seed),
        other => return Err(format!("unknown model `{other}` (ba, er, ws)")),
    }
    .map_err(|e| e.to_string())?;
    let file = std::fs::File::create(out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
    parapsp_graph::io::write_edge_list(&graph, std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    say!(
        "wrote {} vertices / {} edges to {out_path}",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    /// A scratch directory of one test, removed on drop. Tests run in
    /// parallel, so none may share a file: a test reading a file another
    /// test is rewriting can see it empty or torn.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new() -> TestDir {
            static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "parapsp-cli-tests-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        /// Writes the five-vertex sample graph into the directory.
        fn sample(&self) -> String {
            let path = self.0.join("sample.txt");
            std::fs::write(&path, "# demo\n1 2\n2 3\n3 1\n3 4\n4 5\n").unwrap();
            path.to_string_lossy().into_owned()
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = std::path::Path;

        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn stats_and_apsp_run_on_sample() {
        let dir = TestDir::new();
        let file = dir.sample();
        stats(&args(&["stats", &file])).unwrap();
        for algorithm in [
            "par-apsp",
            "par-alg1",
            "par-alg2",
            "par-adaptive",
            "seq-basic",
            "seq-optimized",
            "seq-adaptive",
            "blocked-fw",
            "floyd-warshall",
            "dijkstra",
            "dist",
        ] {
            apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--threads",
                "2",
            ]))
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        }
    }

    #[test]
    fn analyze_and_path_run_on_sample() {
        let dir = TestDir::new();
        let file = dir.sample();
        analyze(&args(&["analyze", &file, "--top", "3"])).unwrap();
        path(&args(&["path", &file, "1", "5"])).unwrap();
        // Unknown vertex id.
        assert!(path(&args(&["path", &file, "1", "99"])).is_err());
    }

    #[test]
    fn capped_apsp_runs_and_bad_cap_errors() {
        let dir = TestDir::new();
        let file = dir.sample();
        apsp(&args(&["apsp", &file, "--cap", "1", "--threads", "2"])).unwrap();
        assert!(apsp(&args(&["apsp", &file, "--cap", "many"])).is_err());
    }

    #[test]
    fn cap_is_honoured_or_rejected() {
        let dir = TestDir::new();
        let file = dir.sample();
        let run = |algorithm: &str, extra: &[&str]| -> Vec<u8> {
            let out = dir.join(format!("{algorithm}{}.bin", extra.concat()));
            let out = out.to_string_lossy();
            let mut tokens = vec!["apsp", &file, "--algorithm", algorithm, "--out", &out];
            tokens.extend_from_slice(extra);
            assert_eq!(apsp(&args(&tokens)).unwrap(), 0, "{algorithm} {extra:?}");
            std::fs::read(out.as_ref()).unwrap()
        };
        // par-adaptive applies the cap in its kernel, like par-apsp...
        let capped = run("par-apsp", &["--cap", "1"]);
        assert_ne!(capped, run("par-apsp", &[]));
        assert_eq!(run("par-adaptive", &["--cap", "1"]), capped);
        // ...and the baselines, which would ignore it, reject it.
        for algorithm in ["floyd-warshall", "dijkstra"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--cap",
                "1",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            let message = err.to_string();
            assert!(
                message.contains("--cap works with") && message.contains("par-adaptive"),
                "{algorithm}: {message}"
            );
        }
    }

    #[test]
    fn credit_weight_reaches_both_adaptive_kinds_and_nothing_else() {
        let dir = TestDir::new();
        let file = dir.sample();
        for (algorithm, label) in [
            ("par-adaptive", "ParAdaptive(wave=8, w=5)"),
            ("seq-adaptive", "SeqAdaptive(w=5)"),
        ] {
            let args = args(&["apsp", &file, "--credit-weight", "5"]);
            let graph = load(&args).unwrap().graph;
            let kind = EngineKind::parse_value(algorithm).unwrap();
            match run_algorithm(kind, &graph, 2, &args, None).unwrap() {
                RunStatus::Done(_, summary) => assert!(summary.starts_with(label), "{summary}"),
                RunStatus::Stopped { .. } => panic!("{algorithm} stopped"),
            }
        }
        for algorithm in ["par-apsp", "seq-basic", "blocked-fw", "dist"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--credit-weight",
                "5",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            assert!(
                err.to_string().contains("--credit-weight works with"),
                "{algorithm}: {err}"
            );
        }
    }

    #[test]
    fn relax_impl_selection_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        for relax in ["auto", "avx2", "portable", "scalar"] {
            apsp(&args(&["apsp", &file, "--relax", relax, "--threads", "2"]))
                .unwrap_or_else(|e| panic!("--relax {relax}: {e}"));
        }
        assert!(apsp(&args(&["apsp", &file, "--relax", "sse9"])).is_err());
        // The collapsed SeqEngine runs the same kernel, so --relax now
        // applies to the sequential family too...
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-basic",
            "--relax",
            "scalar",
        ]))
        .unwrap();
        // ...but not to algorithms that never touch the modified Dijkstra.
        for algorithm in ["floyd-warshall", "blocked-fw"] {
            assert!(
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--relax",
                    "scalar"
                ]))
                .is_err(),
                "{algorithm} must reject --relax"
            );
        }
    }

    #[test]
    fn schedule_selection_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        // Every spelling the parser accepts, on every engine that hands its
        // source loop to the parfor pool.
        for schedule in [
            "block",
            "static-cyclic",
            "dynamic-cyclic",
            "dynamic:4",
            "guided:2",
            "work-stealing",
            "work-stealing:4",
        ] {
            for algorithm in ["par-apsp", "par-alg1", "par-alg2", "par-adaptive"] {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--schedule",
                    schedule,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --schedule {schedule}: {e}"));
            }
        }
        // Malformed specs are rejected with the parser's explanation.
        for bad in ["warp", "dynamic:0", "work-stealing:x", "block:4"] {
            let err = apsp(&args(&["apsp", &file, "--schedule", bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("--schedule"), "{bad}: {err}");
        }
        // Engines that run their own loops (or no parfor loop at all)
        // reject the flag rather than silently ignoring it.
        for algorithm in [
            "seq-basic",
            "seq-adaptive",
            "blocked-fw",
            "floyd-warshall",
            "dist",
        ] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--schedule",
                "work-stealing",
            ]))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--schedule works with"),
                "{algorithm} must reject --schedule: {err}"
            );
        }
    }

    #[test]
    fn solver_selection_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        // Every spelling the parser accepts, on both a parallel and a
        // sequential kernel engine.
        for solver in ["dijkstra", "delta", "delta:auto", "delta:3", "auto"] {
            for algorithm in ["par-apsp", "seq-optimized"] {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--solver",
                    solver,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --solver {solver}: {e}"));
            }
        }
        // `auto` must not clobber an explicit --schedule/--relax.
        apsp(&args(&[
            "apsp",
            &file,
            "--solver",
            "auto",
            "--schedule",
            "block",
            "--relax",
            "scalar",
        ]))
        .unwrap();
        // Malformed specs are rejected with the parser's explanation.
        for bad in ["warp", "delta:0", "delta:wide", "stepping:2", "auto:1"] {
            let err = apsp(&args(&["apsp", &file, "--solver", bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("--solver"), "{bad}: {err}");
        }
        // The removed bucket-fusion solver is a usage error that lists
        // the remaining values.
        let err = apsp(&args(&["apsp", &file, "--solver", "stepping"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(
            err.to_string()
                .contains("(possible values: dijkstra, delta[:<Δ>|:auto], auto)"),
            "{err}"
        );
        // Algorithms that never touch the row kernel reject the flag,
        // naming the ones that do.
        for algorithm in ["floyd-warshall", "blocked-fw", "dijkstra"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--solver",
                "delta",
            ]))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--solver works with") && err.contains("dist"),
                "{algorithm} must reject --solver: {err}"
            );
        }
    }

    #[test]
    fn dist_workers_run_the_kernel_under_cap_solver_and_relax() {
        // The dist workers run the row solver with the run's kernel
        // options: the capped, Δ-stepping, scalar-relax cluster run is
        // byte-identical to the capped sequential reference.
        let dir = TestDir::new();
        let file = dir.sample();
        let run = |name: &str, extra: &[&str]| -> Vec<u8> {
            let out = dir.join(name);
            let out = out.to_string_lossy();
            let mut tokens = vec!["apsp", &file, "--cap", "4", "--out", &out];
            tokens.extend_from_slice(extra);
            assert_eq!(apsp(&args(&tokens)).unwrap(), 0, "{extra:?}");
            std::fs::read(out.as_ref()).unwrap()
        };
        let reference = run("seq.bin", &["--algorithm", "seq-basic"]);
        let dist = run(
            "dist.bin",
            &[
                "--algorithm",
                "dist",
                "--nodes",
                "2",
                "--solver",
                "delta",
                "--relax",
                "scalar",
            ],
        );
        assert!(reference == dist, "capped dist run differs from seq-basic");
    }

    #[test]
    fn store_selection_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        // Every spelling the parser accepts, on a parallel row engine, a
        // sequential one, the adaptive one, and the dist gather.
        for store in ["dense", "delta", "delta:4", "mmap", "mmap:64k"] {
            for algorithm in ["par-apsp", "seq-basic", "par-adaptive", "dist"] {
                apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    "--store",
                    store,
                    "--threads",
                    "2",
                ]))
                .unwrap_or_else(|e| panic!("{algorithm} --store {store}: {e}"));
            }
        }
        // Malformed specs are rejected with the parser's explanation.
        for bad in [
            "ram",
            "dense:1",
            "delta:0",
            "delta:wide",
            "mmap:lots",
            "mmap:0",
        ] {
            let err = apsp(&args(&["apsp", &file, "--store", bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains("--store"), "{bad}: {err}");
        }
        // Engines that mutate a dense matrix in place reject the flag,
        // naming the ones that route rows through a store.
        for algorithm in ["blocked-fw", "floyd-warshall", "dijkstra"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--store",
                "delta",
            ]))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("--store works with"),
                "{algorithm} must reject --store: {err}"
            );
        }
    }

    #[test]
    fn apsp_saves_matrix_when_out_is_given() {
        let dir = TestDir::new();
        let file = dir.sample();

        let bin = dir.join("out.bin").to_string_lossy().into_owned();
        apsp(&args(&["apsp", &file, "--out", &bin])).unwrap();
        let loaded = parapsp_core::persist::load_binary(&bin).unwrap();
        assert_eq!(loaded.n(), 5);

        let tsv = dir.join("out.tsv").to_string_lossy().into_owned();
        apsp(&args(&["apsp", &file, "--out", &tsv])).unwrap();
        let text = std::fs::read_to_string(&tsv).unwrap();
        assert_eq!(text.lines().count(), 5);
    }

    /// Asserts that `path` holds a version-3 run ledger.
    fn assert_ledger(path: &str) {
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(&bytes[..5], b"PAPD\x03", "{path} is a v3 run ledger");
    }

    /// The five-vertex sample's exact matrix.
    fn sample_matrix(file: &str) -> DistanceMatrix {
        let graph = load(&args(&["apsp", file])).unwrap().graph;
        Runner::new(RunConfig::seq_basic())
            .run(ApspEngine::ordered(), &graph)
            .dist
    }

    /// Writes `dist` restricted to `rows` as a version-2 checkpoint, the
    /// format runs wrote before the run ledger.
    fn write_v2(path: &std::path::Path, dist: DistanceMatrix, rows: &[usize]) {
        let completed = (0..dist.n()).map(|s| rows.contains(&s)).collect();
        let file = std::fs::File::create(path).unwrap();
        persist::write_checkpoint(&Checkpoint::new(dist, completed), file).unwrap();
    }

    #[test]
    fn checkpoint_and_resume_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        let ckpt = dir.join("cli.ckpt").to_string_lossy().into_owned();
        apsp(&args(&[
            "apsp",
            &file,
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "2",
            "--ledger-fsync",
            "never",
        ]))
        .unwrap();
        // The periodic file is a run ledger.
        assert_ledger(&ckpt);
        let cp = parapsp_core::persist::load_checkpoint(&ckpt).unwrap();
        assert!(cp.is_complete());
        // Resuming from a complete checkpoint recomputes nothing and succeeds.
        apsp(&args(&["apsp", &file, "--resume", &ckpt])).unwrap();
        // The sequential engines are row engines too: checkpoint one and
        // resume on it (checkpoints are engine-agnostic).
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-basic",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-optimized",
            "--resume",
            &ckpt,
        ]))
        .unwrap();
        // The dist driver journals its gather to the same ledger format.
        let dist_ckpt = dir.join("dist.ckpt").to_string_lossy().into_owned();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--nodes",
            "2",
            "--checkpoint",
            &dist_ckpt,
        ]))
        .unwrap();
        assert_ledger(&dist_ckpt);
        assert!(parapsp_core::persist::load_checkpoint(&dist_ckpt)
            .unwrap()
            .is_complete());
        // Engines whose rows are not final mid-run reject the flags.
        for algorithm in ["blocked-fw", "floyd-warshall"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--checkpoint",
                &ckpt,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{algorithm}: {err}");
            assert!(
                err.to_string().contains("--checkpoint/--resume work with"),
                "{algorithm}: {err}"
            );
        }
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "0"
        ]))
        .is_err());
        assert!(apsp(&args(&["apsp", &file, "--resume", "/no/such/checkpoint"])).is_err());
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn ledger_journals_and_resumes_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        let ledger = dir.join("cli.ledger").to_string_lossy().into_owned();
        std::fs::remove_file(&ledger).ok();
        // A row engine journals every completed row...
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-basic",
            "--ledger",
            &ledger,
            "--ledger-fsync",
            "never",
        ]))
        .unwrap();
        // ...and the ledger loads back as a complete checkpoint that any
        // row engine (or the same one) resumes from.
        let cp = parapsp_core::persist::load_checkpoint(&ledger).unwrap();
        assert!(cp.is_complete());
        apsp(&args(&["apsp", &file, "--resume", &ledger])).unwrap();
        std::fs::remove_file(&ledger).ok();
        // The dist driver journals its gather the same way, and a resumed
        // dist run replays the rows instead of recomputing them.
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--nodes",
            "2",
            "--ledger",
            &ledger,
        ]))
        .unwrap();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--nodes",
            "2",
            "--ledger",
            &ledger,
            "--resume",
            &ledger,
        ]))
        .unwrap();
        std::fs::remove_file(&ledger).ok();
    }

    /// A file at the ledger path that the run cannot resume — an old v1
    /// matrix or v2 checkpoint, or a ledger of another size — is refused
    /// before the run under either spelling, with exit 1, and left as it
    /// was.
    #[test]
    fn a_non_ledger_file_at_the_checkpoint_path_is_refused_untouched() {
        let dir = TestDir::new();
        let file = dir.sample();
        let full = sample_matrix(&file);
        let v1 = dir.join("old.bin");
        persist::save_binary(&full, &v1).unwrap();
        let v2 = dir.join("old.v2");
        write_v2(&v2, full, &[0, 1, 2, 3, 4]);
        let other = dir.join("other.ledger");
        RowLedger::create(&other, 6, FsyncPolicy::Never)
            .unwrap()
            .finish()
            .unwrap();
        for (path, what) in [
            (&v1, "version-1 distance matrix"),
            (&v2, "version-2 checkpoint"),
            (&other, "version-3 run ledger for 6 vertices"),
        ] {
            let before = std::fs::read(path).unwrap();
            let path = path.to_string_lossy();
            for (algorithm, spelling) in [
                ("par-apsp", "--checkpoint"),
                ("seq-basic", "--ledger"),
                ("dist", "--checkpoint"),
            ] {
                let err = apsp(&args(&[
                    "apsp",
                    &file,
                    "--algorithm",
                    algorithm,
                    spelling,
                    &path,
                ]))
                .unwrap_err();
                assert_eq!(err.exit_code(), 1, "{algorithm} {spelling} {path}: {err}");
                let message = err.to_string();
                assert!(
                    message.contains(what)
                        && message.contains(&format!("--resume {path} --checkpoint <new file>")),
                    "{message}"
                );
            }
            assert_eq!(std::fs::read(path.as_ref()).unwrap(), before, "{path}");
        }
    }

    /// An old v2 checkpoint migrates to a run ledger through
    /// `--resume <old> --checkpoint <new>`: the run matches a clean one,
    /// and the new ledger alone replays the complete matrix.
    #[test]
    fn resume_from_a_v2_checkpoint_migrates_it_into_a_new_ledger() {
        let dir = TestDir::new();
        let file = dir.sample();
        let full = sample_matrix(&file);
        let clean = dir.join("clean.bin").to_string_lossy().into_owned();
        apsp(&args(&["apsp", &file, "--out", &clean])).unwrap();
        let old = dir.join("old.v2");
        write_v2(&old, full.clone(), &[0, 3]);
        let old = old.to_string_lossy();
        let new = dir.join("new.ckpt").to_string_lossy().into_owned();
        let resumed = dir.join("resumed.bin").to_string_lossy().into_owned();
        let code = apsp(&args(&[
            "apsp",
            &file,
            "--resume",
            &old,
            "--checkpoint",
            &new,
            "--out",
            &resumed,
        ]))
        .unwrap();
        assert_eq!(code, 0);
        assert_eq!(
            std::fs::read(&resumed).unwrap(),
            std::fs::read(&clean).unwrap()
        );
        assert_ledger(&new);
        let cp = persist::load_checkpoint(&new).unwrap();
        assert!(cp.is_complete());
        assert_eq!(cp.matrix().first_difference(&full), None);
    }

    /// A run stopped without a ledger writes its completed rows to a new
    /// ledger at `<graph>.interrupt.ckpt`, one record per row, and that
    /// file resumes.
    #[test]
    fn a_stop_without_a_ledger_writes_one_at_the_default_path() {
        let dir = TestDir::new();
        let file = dir.sample();
        let full = sample_matrix(&file);
        // Rows 1 and 3 come from a resumed v2 file; the expired deadline
        // stops the run before it computes any other.
        let old = dir.join("old.v2");
        write_v2(&old, full.clone(), &[1, 3]);
        let code = apsp(&args(&[
            "apsp",
            &file,
            "--resume",
            &old.to_string_lossy(),
            "--deadline",
            "0",
        ]))
        .unwrap();
        assert_eq!(code, 124);
        let stop = format!("{file}.interrupt.ckpt");
        assert_ledger(&stop);
        let cp = persist::load_checkpoint(&stop).unwrap();
        assert_eq!(cp.completed(), &[false, true, false, true, false]);
        for s in [1, 3] {
            assert_eq!(cp.matrix().row(s), full.row(s));
        }
        assert_eq!(apsp(&args(&["apsp", &file, "--resume", &stop])).unwrap(), 0);
    }

    #[test]
    fn ledger_flag_combinations_are_validated() {
        let dir = TestDir::new();
        let file = dir.sample();
        // --ledger-fsync without --ledger, unknown fsync policy, and
        // mixing the two durability sinks are all usage errors (exit 2).
        for bad in [
            vec!["--ledger-fsync", "never"],
            vec!["--ledger", "/tmp/x.ledger", "--ledger-fsync", "eventually"],
            vec!["--ledger", "/tmp/x.ledger", "--checkpoint", "/tmp/x.ckpt"],
        ] {
            let mut tokens = vec!["apsp", file.as_str()];
            tokens.extend_from_slice(&bad);
            let err = apsp(&args(&tokens)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
        // Engines without final mid-run rows reject the ledger.
        for algorithm in ["blocked-fw", "floyd-warshall"] {
            let err = apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                algorithm,
                "--ledger",
                "/tmp/x.ledger",
            ]))
            .unwrap_err();
            assert!(
                err.to_string().contains("--ledger/--resume work with"),
                "{algorithm}: {err}"
            );
        }
        // Runtime failures stay exit 1.
        assert_eq!(
            apsp(&args(&["apsp", "/no/such/graph"]))
                .unwrap_err()
                .exit_code(),
            1
        );
    }

    #[test]
    fn socket_timeout_flags_parse_and_zero_values_are_usage_errors() {
        let dir = TestDir::new();
        let file = dir.sample();
        // The flags land on the socket config (the end-to-end run over a
        // real socket is covered by the integration tests, which use the
        // installed binary rather than the test harness as the worker).
        let spec = parse_transport(&args(&[
            "apsp",
            &file,
            "--transport",
            "tcp",
            "--read-timeout",
            "5",
            "--write-timeout",
            "1000",
        ]))
        .unwrap();
        match spec {
            TransportSpec::Socket(socket) => {
                assert_eq!(socket.read_timeout, Duration::from_millis(5));
                assert_eq!(socket.write_timeout, Duration::from_millis(1000));
            }
            other => panic!("expected a socket transport, got {other:?}"),
        }
        // Zero timeouts are rejected at construction, before any socket
        // opens, with exit code 2.
        for bad in [
            ["--read-timeout", "0"],
            ["--write-timeout", "0"],
            ["--heartbeat", "0"],
            ["--accept-timeout", "0"],
        ] {
            let mut tokens = vec![
                "apsp",
                file.as_str(),
                "--algorithm",
                "dist",
                "--transport",
                "tcp",
            ];
            tokens.extend_from_slice(&bad);
            let err = apsp(&args(&tokens)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
            assert!(err.to_string().contains("zero"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn dist_partitions_via_cli() {
        let dir = TestDir::new();
        let file = dir.sample();
        for partition in ["cyclic-degree", "block-degree", "cyclic-id"] {
            apsp(&args(&[
                "apsp",
                &file,
                "--algorithm",
                "dist",
                "--nodes",
                "2",
                "--partition",
                partition,
            ]))
            .unwrap_or_else(|e| panic!("{partition}: {e}"));
        }
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dist",
            "--partition",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn new_engine_knobs_parse_and_reject() {
        let dir = TestDir::new();
        let file = dir.sample();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-adaptive",
            "--credit-weight",
            "100",
        ]))
        .unwrap();
        apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "blocked-fw",
            "--block",
            "16",
            "--cap",
            "1",
        ]))
        .unwrap();
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "seq-adaptive",
            "--credit-weight",
            "heavy"
        ]))
        .is_err());
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "blocked-fw",
            "--block",
            "-3"
        ]))
        .is_err());
    }

    #[test]
    fn estimate_runs_on_sample_and_rejects_directed() {
        let dir = TestDir::new();
        let file = dir.sample();
        estimate(&args(&["estimate", &file, "1", "5", "--top", "2"])).unwrap();
        assert!(estimate(&args(&["estimate", &file, "1", "5", "--directed"])).is_err());
        assert!(estimate(&args(&["estimate", &file, "1"])).is_err());
    }

    #[test]
    fn generate_roundtrip() {
        let dir = TestDir::new();
        let out = dir.join("generated.txt").to_string_lossy().into_owned();
        generate(&args(&[
            "generate", "--model", "ba", "--n", "200", "--m", "3", "--out", &out,
        ]))
        .unwrap();
        let loaded = read_edge_list_file(&out, ParseOptions::snap(Direction::Undirected)).unwrap();
        assert_eq!(loaded.graph.vertex_count(), 200);
        stats(&args(&["stats", &out])).unwrap();
    }

    #[test]
    fn expired_deadline_exits_124_with_a_loadable_checkpoint() {
        let dir = TestDir::new();
        let file = dir.sample();
        let ckpt = dir.join("deadline.ckpt").to_string_lossy().into_owned();
        // A zero deadline expires before the first row; the stop checkpoint
        // must land on the --checkpoint path and load back.
        let code = apsp(&args(&[
            "apsp",
            &file,
            "--deadline",
            "0",
            "--checkpoint",
            &ckpt,
        ]))
        .unwrap();
        assert_eq!(code, 124);
        assert_ledger(&ckpt);
        let cp = parapsp_core::persist::load_checkpoint(&ckpt).unwrap();
        assert_eq!(cp.n(), 5);
        // The checkpoint resumes to a normal, complete run.
        let code = apsp(&args(&["apsp", &file, "--resume", &ckpt])).unwrap();
        assert_eq!(code, 0);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn deadline_works_for_every_cancellable_algorithm() {
        let dir = TestDir::new();
        let file = dir.sample();
        for (i, algorithm) in [
            "par-alg1",
            "par-alg2",
            "par-adaptive",
            "seq-basic",
            "seq-optimized",
            "seq-adaptive",
            "blocked-fw",
            "dist",
        ]
        .into_iter()
        .enumerate()
        {
            let ckpt = dir
                .join(format!("deadline-{i}.ckpt"))
                .to_string_lossy()
                .into_owned();
            let tokens: [&str; 8] = [
                "apsp",
                file.as_str(),
                "--algorithm",
                algorithm,
                "--deadline",
                "0",
                "--checkpoint",
                ckpt.as_str(),
            ];
            // --checkpoint applies to the row engines and dist; blocked-fw
            // falls back to the derived <file>.interrupt.ckpt path.
            let code = if algorithm != "blocked-fw" {
                apsp(&args(&tokens)).unwrap()
            } else {
                apsp(&args(&tokens[..6])).unwrap()
            };
            assert_eq!(code, 124, "{algorithm}");
            std::fs::remove_file(&ckpt).ok();
        }
        std::fs::remove_file(format!("{file}.interrupt.ckpt")).ok();
        // A generous deadline completes normally.
        let code = apsp(&args(&["apsp", &file, "--deadline", "3600"])).unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn cancellation_flags_are_validated() {
        let dir = TestDir::new();
        let file = dir.sample();
        // Non-cancellable algorithms reject explicit flags...
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "floyd-warshall",
            "--deadline",
            "5"
        ]))
        .is_err());
        assert!(apsp(&args(&[
            "apsp",
            &file,
            "--algorithm",
            "dijkstra",
            "--on-interrupt",
            "checkpoint"
        ]))
        .is_err());
        // ...but still run fine with the default interrupt mode.
        assert_eq!(
            apsp(&args(&["apsp", &file, "--algorithm", "floyd-warshall"])).unwrap(),
            0
        );
        assert!(apsp(&args(&["apsp", &file, "--deadline", "-1"])).is_err());
        assert!(apsp(&args(&["apsp", &file, "--deadline", "soon"])).is_err());
        assert!(apsp(&args(&["apsp", &file, "--on-interrupt", "panic"])).is_err());
        // Abort mode takes the plain path and completes.
        assert_eq!(
            apsp(&args(&["apsp", &file, "--on-interrupt", "abort"])).unwrap(),
            0
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(load(&args(&["stats", "/no/such/file"])).is_err());
        assert!(stats(&args(&["stats"])).is_err());
        let dir = TestDir::new();
        let file = dir.sample();
        assert!(apsp(&args(&["apsp", &file, "--algorithm", "nope"])).is_err());
        assert!(parse_options(&args(&["stats", "x", "--format", "bad"])).is_err());
        assert!(generate(&args(&["generate"])).is_err());
    }

    #[test]
    fn budget_guard_trips_on_huge_inputs() {
        assert!(check_matrix_budget(100_000).is_err());
        assert!(check_matrix_budget(10_000).is_ok());
    }
}
