//! End-to-end interruption tests: drive the real `parapsp` binary as a
//! child process, stop it with a deadline or a SIGINT, and verify the
//! promised exit codes (124 / 130) and a loadable, resumable run ledger.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parapsp_core::persist;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("parapsp-interrupt-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Vertices of [`big_graph`].
const N: usize = 4000;

/// Bytes before the first ledger record.
const LEDGER_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Bytes of one ledger record of an `N`-vertex run.
const RECORD_LEN: usize = 8 + 4 * N + 4;

/// Generates (once) an Erdős–Rényi graph with mean degree 16 whose full
/// APSP takes ~0.7 s at two threads on a 2-core host — room for a
/// deadline or a signal to land mid-run. Without hubs, row reuse saves
/// less than on a BA graph of the same size, so rows cost more. The
/// tests run in parallel, so the first caller generates the file under a
/// temporary name and renames it into place while the others wait.
fn big_graph() -> String {
    static GRAPH: OnceLock<String> = OnceLock::new();
    GRAPH.get_or_init(generate_big_graph).clone()
}

fn generate_big_graph() -> String {
    let path = workdir().join(format!("er-{N}.txt"));
    if !path.exists() {
        let partial = workdir().join(format!("er-{N}.txt.{}", std::process::id()));
        let status = Command::new(bin())
            .args([
                "generate",
                "--model",
                "er",
                "--n",
                &N.to_string(),
                "--p",
                &(16.0 / N as f64).to_string(),
                "--seed",
                "7",
                "--out",
                partial.to_str().unwrap(),
            ])
            .status()
            .expect("spawn parapsp generate");
        assert!(status.success());
        std::fs::rename(&partial, &path).unwrap();
    }
    path.to_string_lossy().into_owned()
}

/// Reads a file a run wrote and asserts it is a version-3 run ledger.
fn read_ledger(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).expect("the run wrote its ledger");
    assert_eq!(
        &bytes[..5],
        b"PAPD\x03",
        "{} is a v3 run ledger",
        path.display()
    );
    bytes
}

/// Runs `parapsp run <graph> <extra>` at two threads and returns its output.
fn run(graph: &str, extra: &[&str]) -> std::process::Output {
    Command::new(bin())
        .args(["run", graph, "--threads", "2"])
        .args(extra)
        .output()
        .expect("spawn parapsp run")
}

#[test]
fn deadline_exits_124_with_resumable_checkpoint() {
    let graph = big_graph();
    let ckpt = workdir().join("deadline.ckpt");
    std::fs::remove_file(&ckpt).ok();
    // The `run` alias is part of the contract.
    let output = run(
        &graph,
        &["--deadline", "0.1", "--checkpoint", ckpt.to_str().unwrap()],
    );
    assert_eq!(
        output.status.code(),
        Some(124),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("deadline exceeded"),
        "stderr must say why: {stderr}"
    );
    read_ledger(&ckpt);
    let cp = persist::load_checkpoint(ckpt.to_str().unwrap()).expect("checkpoint must load");
    assert_eq!(cp.n(), N);
    assert!(
        !cp.is_complete(),
        "a 0.1 s deadline cannot finish this graph"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn sigint_exits_130_with_loadable_checkpoint() {
    let graph = big_graph();
    let ckpt = workdir().join("sigint.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let mut child = Command::new(bin())
        .args([
            "run",
            &graph,
            "--threads",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parapsp run");
    // Interrupt it once it is sweeping: its ledger holds a few rows.
    let give_up = Instant::now() + Duration::from_secs(60);
    while std::fs::metadata(&ckpt).map_or(0, |m| m.len() as usize)
        < LEDGER_HEADER_LEN + 8 * RECORD_LEN
    {
        assert!(Instant::now() < give_up, "the run never started journaling");
        assert!(child.try_wait().unwrap().is_none(), "the run ended early");
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "child must exit promptly after SIGINT"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(130), "graceful interrupt exit code");
    read_ledger(&ckpt);
    let cp = persist::load_checkpoint(ckpt.to_str().unwrap()).expect("checkpoint must load");
    assert_eq!(cp.n(), N);
    assert!(!cp.is_complete(), "interrupted mid-run");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn interrupt_checkpoint_resumes_to_completion() {
    // A 50 ms deadline leaves most of the work undone.
    let graph = big_graph();
    let ckpt = workdir().join("resume.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let output = run(
        &graph,
        &["--deadline", "0.05", "--checkpoint", ckpt.to_str().unwrap()],
    );
    assert_eq!(output.status.code(), Some(124));
    let resumed = run(&graph, &["--resume", ckpt.to_str().unwrap()]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resuming:"), "stdout: {stdout}");
    std::fs::remove_file(&ckpt).ok();
}

/// The run ledger checksums every record: a payload byte flipped in a
/// stopped run's ledger drops that record and everything after it on
/// resume, so those rows are recomputed and the matrix stays exact.
#[test]
fn flipped_ledger_payload_byte_is_recomputed_on_resume() {
    let graph = big_graph();
    let dir = workdir();
    let ckpt = dir.join("flip.ckpt");
    let (resumed, clean) = (dir.join("flip-resumed.bin"), dir.join("flip-clean.bin"));
    std::fs::remove_file(&ckpt).ok();
    let stopped = run(
        &graph,
        &["--deadline", "0.1", "--checkpoint", ckpt.to_str().unwrap()],
    );
    assert_eq!(stopped.status.code(), Some(124));

    let mut bytes = read_ledger(&ckpt);
    let written = (bytes.len() - LEDGER_HEADER_LEN) / RECORD_LEN;
    assert!(
        written >= 2,
        "the stopped run journaled only {written} rows"
    );
    let victim = written / 2;
    bytes[LEDGER_HEADER_LEN + victim * RECORD_LEN + 8 + 4 * (N / 2)] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();

    let output = run(
        &graph,
        &[
            "--resume",
            ckpt.to_str().unwrap(),
            "--out",
            resumed.to_str().unwrap(),
        ],
    );
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let replayed: usize = stdout
        .split("resuming: ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|k| k.parse().ok())
        .unwrap_or_else(|| panic!("no resume line: {stdout}"));
    assert_eq!(replayed, victim, "replay stops at the corrupt record");
    assert!(replayed < written);

    let output = run(&graph, &["--out", clean.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0));
    assert!(
        std::fs::read(&resumed).unwrap() == std::fs::read(&clean).unwrap(),
        "the resumed matrix must be bit-identical to a clean run"
    );
    for path in [&ckpt, &resumed, &clean] {
        std::fs::remove_file(path).ok();
    }
}
