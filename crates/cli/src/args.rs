//! Tiny dependency-free argument parser for the `parapsp` binary.

use std::collections::HashMap;

/// Parsed invocation: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The first positional token (`apsp`, `stats`, …).
    pub command: String,
    /// Remaining positional tokens.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Options that take a value.
const VALUED: &[&str] = &[
    "--threads",
    "--algorithm",
    "--format",
    "--top",
    "--model",
    "--n",
    "--m",
    "--p",
    "--seed",
    "--out",
    "--nodes",
    "--hub-fraction",
    "--cap",
    "--relax",
    "--solver",
    "--store",
    "--schedule",
    "--partition",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
    "--fault-seed",
    "--crash",
    "--drop-prob",
    "--corrupt-prob",
    "--deadline",
    "--on-interrupt",
    "--credit-weight",
    "--block",
    "--transport",
    "--listen",
    "--connect",
    "--connect-attempts",
    "--heartbeat",
    "--heartbeat-misses",
    "--row-batch",
    "--accept-timeout",
    "--read-timeout",
    "--write-timeout",
    "--delay-ms",
    "--ledger",
    "--ledger-fsync",
];

/// Options that take no value. Any other `--name` is a usage error, so a
/// misspelt option fails instead of being silently ignored.
const BARE: &[&str] = &["--directed", "--undirected", "--external", "--help"];

/// How a graph file is read: every command with a `<file>` argument.
const GRAPH_INPUT: &[&str] = &["--format", "--directed", "--undirected"];

/// What `apsp` (alias `run`) reads beyond the graph input.
const APSP: &[&str] = &[
    "--threads",
    "--algorithm",
    "--out",
    "--nodes",
    "--hub-fraction",
    "--partition",
    "--cap",
    "--relax",
    "--solver",
    "--store",
    "--schedule",
    "--credit-weight",
    "--block",
    "--checkpoint",
    "--ledger",
    "--checkpoint-every",
    "--ledger-fsync",
    "--resume",
    "--deadline",
    "--on-interrupt",
    "--fault-seed",
    "--crash",
    "--drop-prob",
    "--corrupt-prob",
    "--transport",
    "--listen",
    "--external",
    "--heartbeat",
    "--heartbeat-misses",
    "--row-batch",
    "--accept-timeout",
    "--read-timeout",
    "--write-timeout",
    "--delay-ms",
];

/// The options each command reads; `--help` goes with every command.
/// An option outside its command's set is a usage error rather than
/// silently ignored (`stats --cap 3` applied no cap, `generate
/// --checkpoint x.led` wrote no ledger).
const COMMAND_OPTIONS: &[(&str, &[&[&str]])] = &[
    ("stats", &[GRAPH_INPUT]),
    ("apsp", &[GRAPH_INPUT, APSP]),
    ("run", &[GRAPH_INPUT, APSP]),
    ("analyze", &[GRAPH_INPUT, &["--threads", "--top"]]),
    ("path", &[GRAPH_INPUT, &["--threads"]]),
    ("estimate", &[GRAPH_INPUT, &["--threads", "--top"]]),
    (
        "generate",
        &[&["--model", "--n", "--m", "--p", "--seed", "--out"]],
    ),
    (
        "node",
        &[&[
            "--connect",
            "--connect-attempts",
            "--write-timeout",
            "--delay-ms",
        ]],
    ),
    ("help", &[]),
    ("", &[]),
];

impl Args {
    /// Parses raw arguments (excluding the program name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if VALUED.contains(&token.as_str()) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option {token} needs a value"))?;
                    args.options.insert(name.to_string(), value);
                } else if BARE.contains(&token.as_str()) {
                    args.flags.push(name.to_string());
                } else {
                    return Err(format!("unknown option {token} (see `parapsp help`)"));
                }
            } else if args.command.is_empty() {
                args.command = token;
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Rejects any option the command does not read, naming the option
    /// and the command. Commands outside the table are left to the
    /// dispatcher, which reports them as unknown.
    pub fn check_command_options(&self) -> Result<(), String> {
        let Some((_, groups)) = COMMAND_OPTIONS
            .iter()
            .find(|(command, _)| *command == self.command)
        else {
            return Ok(());
        };
        let accepts = |name: &str| {
            name == "help"
                || groups
                    .iter()
                    .flat_map(|group| group.iter())
                    .any(|o| &o[2..] == name)
        };
        let mut given: Vec<&str> = self
            .options
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|name| !accepts(name))
            .collect();
        given.sort_unstable();
        match given.first() {
            None => Ok(()),
            Some(name) => {
                let command = if self.command.is_empty() {
                    "parapsp"
                } else {
                    &self.command
                };
                Err(format!(
                    "option --{name} does not apply to `{command}` (see `parapsp help`)"
                ))
            }
        }
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed `--name` value or a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name} value `{raw}` is invalid")),
        }
    }

    /// A closed-set `--name` value parsed through
    /// [`ValueEnum`](parapsp_core::ValueEnum), or a default. The error
    /// names the option and enumerates every accepted value.
    pub fn get_enum<T: parapsp_core::ValueEnum>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => T::parse_value(raw).map_err(|e| format!("--{name} {e}")),
        }
    }

    /// A `--name` value with a `name[:param]` spec grammar (`--schedule`,
    /// `--solver`), parsed through the type's `FromStr`, or a default. The
    /// spec parsers already produce self-describing errors; this only
    /// prefixes the option name.
    pub fn get_spec<T: std::str::FromStr<Err = String>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Whether `--name` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The n-th positional argument after the command.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_positionals_options_and_flags() {
        let args = parse(&[
            "apsp",
            "graph.txt",
            "--threads",
            "8",
            "--directed",
            "--algorithm",
            "par-alg2",
        ]);
        assert_eq!(args.command, "apsp");
        assert_eq!(args.positional(0), Some("graph.txt"));
        assert_eq!(args.get("threads"), Some("8"));
        assert_eq!(args.get("algorithm"), Some("par-alg2"));
        assert!(args.flag("directed"));
        assert!(!args.flag("undirected"));
    }

    #[test]
    fn parsed_values_and_defaults() {
        let args = parse(&["stats", "--threads", "4"]);
        assert_eq!(args.get_parsed("threads", 1usize).unwrap(), 4);
        assert_eq!(args.get_parsed("top", 10usize).unwrap(), 10);
        assert!(args.get_parsed::<usize>("threads", 1).is_ok());
    }

    #[test]
    fn invalid_value_reports_option_name() {
        let args = parse(&["stats", "--threads", "lots"]);
        let err = args.get_parsed::<usize>("threads", 1).unwrap_err();
        assert!(err.contains("threads"));
        assert!(err.contains("lots"));
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        // A misspelt --checkpoint used to run without writing a ledger.
        let err = Args::parse(
            ["apsp", "g.txt", "--chekpoint", "run.led"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap_err();
        assert!(err.contains("--chekpoint"), "{err}");
        // `estimate` takes its landmark count from --top; --k used to be
        // ignored, leaving the default 16 landmarks.
        let err = Args::parse(
            ["estimate", "g.txt", "1", "5", "--k", "4"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap_err();
        assert!(err.contains("--k"), "{err}");
        let args = parse(&["estimate", "g.txt", "1", "5", "--top", "4"]);
        assert_eq!(args.get_parsed("top", 16usize).unwrap(), 4);
        // The known bare flags still parse.
        let args = parse(&["apsp", "g.txt", "--undirected", "--external", "--help"]);
        assert!(args.flag("undirected") && args.flag("external") && args.flag("help"));
    }

    #[test]
    fn each_command_rejects_options_it_does_not_read() {
        let err = parse(&["stats", "g.txt", "--cap", "3"])
            .check_command_options()
            .unwrap_err();
        assert!(err.contains("--cap") && err.contains("`stats`"), "{err}");
        let err = parse(&["generate", "--n", "100", "--checkpoint", "x.led"])
            .check_command_options()
            .unwrap_err();
        assert!(
            err.contains("--checkpoint") && err.contains("`generate`"),
            "{err}"
        );
        let err = parse(&["node", "--connect", "a.sock", "--directed"])
            .check_command_options()
            .unwrap_err();
        assert!(
            err.contains("--directed") && err.contains("`node`"),
            "{err}"
        );
        for ok in [
            &["stats", "g.txt", "--directed", "--format", "konect"][..],
            &[
                "apsp",
                "g.txt",
                "--cap",
                "3",
                "--checkpoint",
                "r.led",
                "--external",
            ],
            &["run", "g.txt", "--store", "delta", "--help"],
            &["analyze", "g.txt", "--top", "3", "--threads", "2"],
            &["estimate", "g.txt", "1", "2", "--top", "4", "--undirected"],
            &[
                "generate", "--model", "er", "--n", "10", "--p", "0.5", "--out", "g.txt",
            ],
            &[
                "node",
                "--connect",
                "a.sock",
                "--delay-ms",
                "5",
                "--write-timeout",
                "9",
            ],
            // Unknown commands are the dispatcher's to report.
            &["frobnicate", "--cap", "3"],
        ] {
            parse(ok).check_command_options().unwrap();
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["x".to_string(), "--threads".to_string()]).unwrap_err();
        assert!(err.contains("--threads"));
    }

    #[test]
    fn enum_values_parse_with_defaults_and_self_describing_rejection() {
        use parapsp_core::{EngineKind, RelaxImpl};
        let args = parse(&["apsp", "--algorithm", "seq-adaptive", "--relax", "avx2"]);
        assert_eq!(
            args.get_enum("algorithm", EngineKind::ParApsp).unwrap(),
            EngineKind::SeqAdaptive
        );
        assert_eq!(
            args.get_enum("relax", RelaxImpl::Auto).unwrap(),
            RelaxImpl::Avx2
        );
        // Absent option: the default wins.
        assert_eq!(
            args.get_enum("partition", parapsp_dist::SourcePartition::default())
                .unwrap(),
            parapsp_dist::SourcePartition::CyclicByDegree
        );
        // Rejection names the option and lists every accepted value.
        let args = parse(&["apsp", "--algorithm", "par-warp"]);
        let err = args.get_enum("algorithm", EngineKind::ParApsp).unwrap_err();
        assert!(err.starts_with("--algorithm"), "{err}");
        assert!(
            err.contains("par-warp") && err.contains("possible values"),
            "{err}"
        );
        assert!(
            err.contains("par-apsp") && err.contains("blocked-fw"),
            "{err}"
        );
    }
}
