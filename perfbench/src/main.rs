//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ba-dense|er-dense|ba-delta-ledger> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's graph from the seed, measures for the given
//! seconds and verifies every solve. With `--trace 0` it reports the
//! end-to-end metrics, with `--trace 1` the per-layer ones; the last line
//! of stdout is the result object, the lines before it the host block
//! and sample summaries. Exits 1 when a solve fails verification.
//!
//! `perfbench oracle <workload> <edge-list>` is the child mode that
//! computes the oracle checksum in its own process, so the reference
//! solve's memory stays out of the measured process's peak.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and calls clock_gettime: 64-bit Linux only");

mod host;
mod report;
mod run;
mod traced;
mod verify;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use report::{result_line, END_TO_END, PER_LAYER};
use run::{Params, WorkDir};
use workload::Workload;

/// Scratch space for the edge-list file and the ledger, relative to the
/// directory the benchmark runs in.
const WORK_ROOT: &str = ".perfbench_work";

const USAGE: &str = "usage: perfbench --workload <ba-dense|er-dense|ba-delta-ledger> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs the oracle in a child process of this executable.
fn oracle_child(workload: Workload, path: &Path) -> u64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let output = Command::new(exe)
        .arg("oracle")
        .arg(workload.name())
        .arg(path)
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning the oracle process");
    assert!(output.status.success(), "oracle process: {}", output.status);
    let text = String::from_utf8_lossy(&output.stdout);
    u64::from_str_radix(text.trim(), 16).expect("the oracle prints a hex checksum")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, workload, path] = raw.as_slice() {
        if mode == "oracle" {
            let workload = Workload::parse(workload).expect("oracle: known workload");
            let graph = parapsp_graph::io::read_edge_list_file(path, workload.parse_options())
                .unwrap_or_else(|e| panic!("oracle: reading {path}: {e}"))
                .graph;
            println!("{:016x}", verify::reference_checksum(&graph));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let ticks_start = host::CpuTicks::now();
    let params = Params::full(args.seconds);
    let work = WorkDir::create(Path::new(WORK_ROOT));
    let oracle = |path: &Path| oracle_child(args.workload, path);
    println!(
        "workload {} seed {} n {} threads {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        params.n,
        params.threads,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, declared) = if args.trace {
        (
            run::trace(args.workload, args.seed, &params, &work, &oracle),
            PER_LAYER,
        )
    } else {
        (
            run::measure(args.workload, args.seed, &params, &work, &oracle),
            END_TO_END,
        )
    };
    drop(work);

    let ticks_end = host::CpuTicks::now();
    let (steal, _) = host::shares(ticks_start, ticks_end);
    if steal > host::STEAL_BOUND {
        eprintln!(
            "steal share {steal:.3} exceeds {}: this run's timings are not comparable",
            host::STEAL_BOUND
        );
    }
    println!("{}", host::describe(ticks_start, ticks_end));
    let tally = outcome.tally;
    println!(
        "verification: {} of {} solves failed",
        tally.failed, tally.attempted
    );
    println!(
        "{}",
        result_line(
            outcome.correct,
            tally.attempted,
            tally.failed,
            &outcome.metrics,
            declared
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
