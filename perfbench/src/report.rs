//! Result assembly: the metric tables, the one-line JSON result, and the
//! small helpers every workload shares.

use prefetch_hash::Fnv64;
use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("refs_per_s", "refs/s"),
    ("miss_rate", "ratio"),
    ("virtual_s", "s"),
    ("batch_p50_us", "us"),
    ("batch_p95_us", "us"),
];

/// The per-layer metrics (name, unit), reported by every traced run. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.next_record_ns", "ns"),
    ("cache.reference_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.apply_victim_ns", "ns"),
    ("policy.after_reference_ns", "ns"),
    ("policy.demand_victim_ns", "ns"),
    ("core.record_reference_ns", "ns"),
    ("core.prefetch_round_ns", "ns"),
    ("core.demand_victim_ns", "ns"),
    ("core.candidates_per_round", "count"),
    ("core.prefetches_per_round", "count"),
    ("core.prefetch_useful_frac", "ratio"),
    ("tree.seed_batch_empty_frac", "ratio"),
    ("tree.seed_batch_p99_len", "count"),
    ("tree.seed_candidates_ns", "ns"),
    ("kernel.net_benefit_ns", "ns"),
    ("tree.nodes", "count"),
    ("tree.bytes_per_node", "B"),
    ("sim.unattributed_frac", "ratio"),
    ("serve.parse_ns", "ns"),
    ("serve.tenant_event_ns", "ns"),
    ("serve.engine_share", "ratio"),
    ("serve.tenant_bytes", "B"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.checkpoints", "count"),
    ("wal.bytes_per_event", "B/event"),
    ("recover.s", "s"),
    ("recover.replayed_events", "count"),
    ("recover.ns_per_event", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Every metric of `table`, valued from `values` (0 where absent).
///
/// # Panics
/// Panics if `values` names a metric the table does not list.
pub fn fill(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v),
            unit,
        })
        .collect()
}

/// Timed calls of one segment of a workload (a simulator cell, or one
/// half of the service script) across the passes of a run.
#[derive(Default)]
pub struct SegmentTimes {
    secs: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
}

impl SegmentTimes {
    /// Record one pass of the segment: the seconds of each timed call.
    pub fn push(&mut self, calls: &mut [f64]) {
        self.secs.push(calls.iter().sum());
        self.p50.push(percentile(calls, 0.50));
        self.p95.push(percentile(calls, 0.95));
    }

    /// Median seconds of the segment's passes.
    pub fn median_secs(&self) -> f64 {
        median(&mut self.secs.clone())
    }
}

/// Reduce segment timings over passes, per segment first: segments can
/// differ several-fold in cost per call, so pooling their calls would put
/// a percentile between two modes. Returns the sum over segments of the
/// median pass seconds, and the means over segments of the median
/// per-pass 50th and 95th percentile call seconds.
pub fn reduce(segments: &mut [SegmentTimes]) -> (f64, f64, f64) {
    let n = segments.len() as f64;
    let secs = segments.iter_mut().map(|s| median(&mut s.secs)).sum();
    let p50 = segments.iter_mut().map(|s| median(&mut s.p50)).sum::<f64>() / n;
    let p95 = segments.iter_mut().map(|s| median(&mut s.p95)).sum::<f64>() / n;
    (secs, p50, p95)
}

/// Correctness bookkeeping: every check is one attempted operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: failed: {what}");
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    /// The run's outcome: correct when nothing failed.
    pub fn outcome(&self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// What a workload run hands back to `main`: the correctness verdict, the
/// operation counts, and the metrics of the requested kind (end-to-end
/// with tracing off, per-layer with tracing on).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number: non-finite values (an empty denominator) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `v`; sorts `v`.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (mean of the middle pair for even lengths); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of a string.
pub fn digest(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.str(s);
    h.finish()
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
