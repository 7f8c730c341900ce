//! Metric names, summary statistics and the result line.
//!
//! The two tables below must match `BENCHMARK.json`: a test checks that
//! they declare the same names and units, and [`result_line`] refuses to
//! print any other name.

/// End-to-end metrics (untraced run), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("pipeline_s", "s"),
    ("solve_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("verified_ratio", "ratio"),
];

/// Per-layer metrics (traced run), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("order.ordering_s", "s"),
    ("store.alloc_s", "s"),
    ("store.lease_hit_ratio", "ratio"),
    ("store.lease_misses", "count"),
    ("store.decode_ahead_hits", "count"),
    ("store.pinned_bytes_peak", "bytes"),
    ("engine.rows_s", "s"),
    ("engine.finish_s", "s"),
    ("kernel.relaxations", "count"),
    ("kernel.queue_pops", "count"),
    ("kernel.row_reuses", "count"),
    ("kernel.reuse_ratio", "ratio"),
    ("kernel.reuse_bytes_computed", "bytes"),
    ("kernel.relaxations_1t", "count"),
    ("kernel.queue_pops_1t", "count"),
    ("kernel.row_reuses_1t", "count"),
    ("kernel.row_p50_us", "us"),
    ("kernel.row_p99_us", "us"),
    ("kernel.row_max_us", "us"),
    ("parfor.imbalance", "ratio"),
    ("parfor.idle_frac", "ratio"),
    ("parfor.busy_max_s", "s"),
    ("parfor.speedup_1t", "ratio"),
    ("persist.visit_s", "s"),
    ("persist.ledger_s", "s"),
    ("persist.ledger_bytes", "bytes"),
    ("persist.ledger_mb_per_s", "MB/s"),
    ("analysis.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Kernel counters that repeat exactly from run to run: the 1-thread
/// pass's. At 2 threads reuse depends on when rows are published.
pub const EXACT: &[&str] = &[
    "kernel.relaxations_1t",
    "kernel.queue_pops_1t",
    "kernel.row_reuses_1t",
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `q` (0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A one-line human summary of a timing sample: median, range and count.
pub fn summary(name: &str, unit: &str, values: &[f64]) -> String {
    let sorted = sorted(values);
    format!(
        "{name}: median {:.6} {unit} over {} samples (min {:.6}, max {:.6})",
        median(values),
        values.len(),
        sorted[0],
        sorted[sorted.len() - 1],
    )
}

/// The final stdout line: `correct`, `attempted`, `failed` and the
/// metrics, in `declared` order, as one JSON object.
///
/// # Panics
///
/// Panics unless `metrics` reports each `declared` name exactly once and
/// nothing else, or when a value is one JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    declared: &[(&str, &str)],
) -> String {
    for (name, _) in metrics {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    assert_eq!(metrics.len(), declared.len(), "a metric is reported twice");
    let body: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|(reported, _)| *reported == name)
                .unwrap_or_else(|| panic!("metric {name} is not reported"))
                .1;
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one list of `BENCHMARK.json`. The
    /// file keeps one metric object per line, which is all this needs.
    fn declared_in_benchmark_json(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let section = &text[start..];
        let section = &section[..section.find(']').expect("list is closed")];
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        section
            .lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(PER_LAYER));
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn result_line_refuses_an_undeclared_metric() {
        result_line(true, 1, 0, &[("latency_ms", 1.0)], &[("solve_s", "s")]);
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
    }
}
