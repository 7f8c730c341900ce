//! The command-line surface of the real `parapsp` binary: per-command
//! option sets and a stdout whose reader goes away early.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_parapsp")
}

/// A scratch directory of one test, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("parapsp-usage-tests-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }

    /// Writes a Barabási–Albert graph of `n` vertices and returns its path.
    fn graph(&self, n: usize) -> String {
        let path = self.path("g.txt");
        let n = n.to_string();
        let out = run(&[
            "generate", "--model", "ba", "--n", &n, "--m", "3", "--seed", "7", "--out", &path,
        ]);
        assert!(out.status.success(), "{out:?}");
        path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn parapsp")
}

#[test]
fn an_option_outside_the_commands_set_exits_2_naming_both() {
    let dir = TestDir::new("options");
    let graph = dir.graph(60);
    let out = run(&["stats", &graph, "--cap", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--cap") && stderr.contains("stats"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");

    let ledger = dir.path("x.led");
    let small = dir.path("small.txt");
    let out = run(&[
        "generate",
        "--model",
        "ba",
        "--n",
        "100",
        "--m",
        "2",
        "--seed",
        "1",
        "--out",
        &small,
        "--checkpoint",
        &ledger,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--checkpoint") && stderr.contains("generate"),
        "{stderr}"
    );
    assert!(
        !std::path::Path::new(&small).exists(),
        "generate ran anyway"
    );
    assert!(!std::path::Path::new(&ledger).exists());

    // The options a command does read still run it.
    let out = run(&["stats", &graph, "--directed", "--format", "snap"]);
    assert!(out.status.success(), "{out:?}");
}

/// `parapsp apsp g.txt | head -1` used to panic with "failed printing to
/// stdout: Broken pipe" and exit 101. The reader here closes its end
/// before the command prints anything, so every report line meets a
/// closed pipe.
#[test]
fn a_reader_that_closes_stdout_early_ends_the_command_quietly() {
    let dir = TestDir::new("pipe");
    let graph = dir.graph(400);
    for command in [
        &["apsp"][..],
        &["run", "--store", "delta"],
        &["analyze"],
        &["stats"],
    ] {
        let out_file = dir.path("m.bin");
        std::fs::remove_file(&out_file).ok();
        let mut args: Vec<&str> = command.to_vec();
        args.push(&graph);
        let writes_matrix = command[0] != "analyze" && command[0] != "stats";
        if writes_matrix {
            args.extend(["--threads", "2", "--out", &out_file]);
        }
        let mut child = Command::new(bin())
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn parapsp");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for parapsp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "{args:?}: {stderr}"
        );
        if writes_matrix {
            let bytes = std::fs::metadata(&out_file).map(|m| m.len()).unwrap_or(0);
            assert_eq!(
                bytes,
                13 + 4 * 400 * 400,
                "{args:?}: --out must still be written"
            );
        }
    }
}
