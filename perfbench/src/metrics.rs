//! The metric registry, the per-run outcome, and the summary statistics.
//!
//! Every metric the benchmark can print is named here once, with its unit.
//! An untraced run prints every end-to-end metric, a traced run every
//! per-layer metric; a layer the workload does not run reads 0.

use crate::seed::PROGRAMS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`. Every workload measures all of
/// them; a "job" is the workload's unit of work: one pass over the corpus
/// for the batch workloads (`foray-gen model` of every program, or
/// `trace record` then `trace analyze` of every program), one daemon job
/// for the served workloads. Times are process CPU time (see
/// [`process_cpu_s`]); the median job and the wall-clock views are
/// per-layer metrics.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("jobs_per_cpu_s", "1/s"), ("job_cpu_p95_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics with fixed names: `(name, unit)`. The per-program
/// rows come from [`per_layer`].
const LAYERS: &[(&str, &str)] = &[
    // Workload-level views of the product paths: the median job's CPU
    // time, then wall-clock time.
    ("job_cpu_p50_ms", "ms"),
    ("wall.jobs_per_s", "1/s"),
    ("wall.job_p50_ms", "ms"),
    ("wall.job_p95_ms", "ms"),
    ("model_s", "s"),
    ("record_s", "s"),
    ("replay_s", "s"),
    ("trace_mb", "MB"),
    ("failed_frac", "ratio"),
    // minic / minic-sim
    ("minic.frontend_s", "s"),
    ("minic-sim.lower_s", "s"),
    ("minic-sim.vm_s", "s"),
    ("minic-sim.mrec_per_s", "Mrec/s"),
    ("minic-sim.records", "count"),
    // foray
    ("foray.analyzer_s", "s"),
    ("foray.analyzer_ns_per_rec", "ns"),
    ("foray.replay_analyzer_s", "s"),
    ("foray.extract_s", "s"),
    ("foray.codegen_s", "s"),
    ("foray.hints_s", "s"),
    ("foray.refs_seen", "count"),
    ("foray.refs_kept", "count"),
    ("foray.kept_ratio", "ratio"),
    ("foray.capture_share", "ratio"),
    ("foray.seq_s", "s"),
    ("foray.stream_s", "s"),
    ("foray.shard_overhead", "ratio"),
    // minic-trace
    ("minic-trace.stats_s", "s"),
    ("minic-trace.stats_share", "ratio"),
    ("minic-trace.encode_s", "s"),
    ("minic-trace.bytes_per_rec", "B"),
    ("minic-trace.decode_s", "s"),
    ("minic-trace.decode_mrec_per_s", "Mrec/s"),
    // foray-spm / foray-serve
    ("foray-spm.dse_s", "s"),
    ("foray-serve.hit_p50_ms", "ms"),
    ("foray-serve.miss_p50_ms", "ms"),
    ("foray-serve.queue_wait_ms", "ms"),
    ("foray-serve.hit_ratio", "ratio"),
    ("foray-serve.deduped", "count"),
    ("foray-serve.rejected", "count"),
    ("foray-serve.failed", "count"),
    // The trace itself.
    ("bench.tracing_overhead", "ratio"),
    ("bench.unaccounted_s", "s"),
    ("bench.unaccounted_share", "ratio"),
];

/// Every per-layer metric, per-program rows included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for p in PROGRAMS {
        all.push((format!("prog.{p}.model_s"), "s"));
        all.push((format!("prog.{p}.replay_s"), "s"));
    }
    all
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Operations attempted (jobs, plus each output comparison).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// One line per output mismatch or failed operation.
    pub problems: Vec<String>,
    /// Human-readable report lines (shares, schedule, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failing it with `problem` if given.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Compares an output with its expected bytes as one checked operation.
    pub fn expect_eq(&mut self, what: &str, got: &str, want: &str) {
        self.check((got != want).then(|| format!("{what}: output differs from the reference")));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Renders the result line: the selected metrics, each with its unit.
    /// Metrics the workload did not set read 0.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        };
        let mut body = String::new();
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Records the job metrics from each job's wall-clock and CPU time in ms,
/// and the wall-clock seconds the jobs were measured over.
pub fn report_jobs(out: &mut Outcome, wall_ms: &[f64], cpu_ms: &[f64], wall_s: f64) {
    out.set("jobs_per_cpu_s", cpu_ms.len() as f64 / (cpu_ms.iter().sum::<f64>() / 1e3));
    out.set("job_cpu_p50_ms", median(cpu_ms));
    out.set("job_cpu_p95_ms", percentile(cpu_ms, 95.0));
    out.set("wall.jobs_per_s", wall_ms.len() as f64 / wall_s);
    out.set("wall.job_p50_ms", median(wall_ms));
    out.set("wall.job_p95_ms", percentile(wall_ms, 95.0));
}

/// Runs `f` and returns its value with its wall-clock and process CPU
/// time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (cpu, wall) = (process_cpu_s(), Instant::now());
    let value = f();
    (value, wall.elapsed().as_secs_f64(), process_cpu_s() - cpu)
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// CPU time this process has used, in seconds, summed over all its
/// threads, ended ones included (`CLOCK_PROCESS_CPUTIME_ID`). Time the
/// hypervisor steals from the host's virtual CPUs is not part of it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant Linux knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, which
    /// writes each metric as `{"name": "..", "unit": "..", ...}`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|item| {
                let (name, rest) = item.split_once('"').expect("name closes");
                let unit = rest.split("\"unit\": \"").nth(1).expect("unit present");
                (name.to_owned(), unit.split('"').next().expect("unit closes").to_owned())
            })
            .collect()
    }

    #[test]
    fn every_named_metric_is_registered_with_its_unit() {
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn result_line_carries_every_selected_metric_with_a_unit() {
        let mut o = Outcome::default();
        o.set("job_cpu_p95_ms", 1.5);
        o.expect_eq("x", "a", "a");
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{name}");
        }
        assert!(line.contains("\"job_cpu_p95_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        let traced = o.result_line(true);
        for (name, _) in per_layer() {
            assert!(traced.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
        }
        o.expect_eq("y", "a", "b");
        assert!(o
            .result_line(false)
            .contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
