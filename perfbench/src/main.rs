//! `perfbench` — one seeded benchmark of the FORAY-GEN product paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload model-corpus|trace-replay|serve-miss|serve-hit \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each run sets up its inputs from the
//! seed (several times, reporting the median set-up time), measures the
//! workload for `--seconds`, checks every output, and prints one JSON
//! result line last on stdout. `--trace 0` reports the end-to-end metrics
//! with tracing off; `--trace 1` records spans around the calls into each
//! layer and reports the per-layer metrics instead. A human-readable
//! report with provenance goes to stderr and, with the spans of a traced
//! run, under `.perfbench/`. The exit code is 1 when any output was wrong
//! or any operation failed.

mod corpus;
mod metrics;
mod replay;
mod seed;
mod serve;
mod spans;

use metrics::{median, Outcome};
use serve::Traffic;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, with the program scale each runs at.
const WORKLOADS: [(&str, u32); 4] = [
    ("model-corpus", corpus::SCALE),
    ("trace-replay", corpus::SCALE),
    ("serve-miss", serve::SCALE),
    ("serve-hit", serve::SCALE),
];

/// Set-ups per run; the reported set-up time is their median.
const SETUP_REPS: usize = 5;
/// Passes a batch workload makes at least, however short `--seconds`.
pub const MIN_ROUNDS: usize = 2;

/// How one run is configured.
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Program scale.
    pub scale: u32,
    /// Where the run keeps its scratch files and writes its report.
    pub work_dir: PathBuf,
    /// Jobs a served workload completes at least.
    pub min_jobs: usize,
}

impl RunConfig {
    /// Runs `make` [`SETUP_REPS`] times and keeps the last result; returns it
    /// with the median process CPU time of one set-up. Earlier results are
    /// dropped outside the timed region.
    pub fn setup<T>(&self, mut make: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let (value, _, cpu) = metrics::timed(&mut make);
            times.push(cpu);
            last = Some(value);
        }
        (last.expect("at least one set-up"), median(&times))
    }
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (seed::DEFAULT_SEED, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(w, _)| w == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds".to_owned())?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let &(workload, scale) = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        traced,
        scale,
        work_dir: PathBuf::from(".perfbench"),
        min_jobs: serve::MIN_JOBS,
    })
}

/// Runs one configured workload.
pub fn run(cfg: &RunConfig, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    match cfg.workload {
        "model-corpus" => corpus::run(cfg, tr, &mut out),
        "trace-replay" => replay::run(cfg, tr, &mut out),
        "serve-miss" => serve::run(cfg, Traffic::Miss, tr, &mut out),
        "serve-hit" => serve::run(cfg, Traffic::Hit, tr, &mut out),
        other => unreachable!("workload `{other}` passed argument parsing"),
    }
    out.set("failed_frac", out.failed_frac());
    out
}

/// Where the numbers came from: host parallelism, the schedule the
/// daemon's streaming jobs take, the build and the source revision.
fn provenance() -> Vec<String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = foray::resolve_shards(0);
    let threads = std::env::var("FORAY_TEST_THREADS").unwrap_or_else(|_| "unset".to_owned());
    let schedule = if parallelism == 1 {
        "inline (parallelism 1: the sequential analyzer rides the VM)".to_owned()
    } else {
        format!("threaded ({shards} shard workers)")
    };
    vec![
        format!(
            "host: available_parallelism {parallelism}, resolve_shards(0) {shards}, \
             FORAY_TEST_THREADS {threads}"
        ),
        format!("forayd streaming schedule: {schedule}"),
        format!(
            "build: {} profile; revision {}",
            if cfg!(debug_assertions) { "debug" } else { "release" },
            revision()
        ),
    ]
}

/// The checked-out commit, or "unknown" outside a git checkout.
fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Host CPU time since boot, in ticks: `(steal, total)` from the first
/// line of `/proc/stat`, or `None` where it is unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let tr = Tracer::new(cfg.traced);
    let ticks = cpu_ticks();
    let out = run(&cfg, &tr);
    let steal = ticks.zip(cpu_ticks()).map(|((s0, t0), (s1, t1))| {
        format!(
            "host steal during the run: {:.2}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        )
    });
    let tag = format!("{}-seed{}-trace{}", cfg.workload, cfg.seed, u8::from(cfg.traced));
    let mut report = vec![format!(
        "perfbench {tag}: {} attempted, {} failed (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed_frac()
    )];
    report.extend(provenance());
    report.extend(steal);
    report.extend(out.notes.iter().cloned());
    report.extend(out.problems.iter().map(|p| format!("FAILED: {p}")));
    let (names, units): (Vec<String>, Vec<&str>) = if cfg.traced {
        metrics::per_layer().into_iter().unzip()
    } else {
        metrics::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).unzip()
    };
    for (name, unit) in names.iter().zip(units) {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        report.push(format!("  {name:<34} {value:>16.6} {unit}"));
    }
    let report = report.join("\n") + "\n";
    eprint!("{report}");
    let _ = std::fs::write(cfg.work_dir.join(format!("report-{tag}.txt")), &report);
    if cfg.traced {
        let _ = std::fs::write(
            cfg.work_dir.join(format!("spans-{tag}.jsonl")),
            spans::to_json_lines(&tr.spans()),
        );
    }
    println!("{}", out.result_line(cfg.traced));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &'static str, traced: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 3,
            seconds: Duration::ZERO,
            traced,
            scale: 1,
            work_dir: PathBuf::from("target/perfbench-test").join(format!("{workload}-{traced}")),
            min_jobs: 24,
        }
    }

    /// Every workload, untraced and traced, at scale 1: outputs check out,
    /// every end-to-end metric is measured (never 0), and the layers the
    /// workload runs are measured.
    #[test]
    fn every_workload_measures_its_metrics_and_checks_its_outputs() {
        let layers: [(&str, &[&str]); 4] = [
            ("model-corpus", &["minic-trace.stats_share", "foray.analyzer_s", "prog.fftc.model_s"]),
            (
                "trace-replay",
                &[
                    "minic-trace.decode_s",
                    "minic-trace.encode_s",
                    "minic-trace.stats_s",
                    "prog.fftc.replay_s",
                ],
            ),
            ("serve-miss", &["foray.shard_overhead", "foray-serve.miss_p50_ms", "foray-spm.dse_s"]),
            ("serve-hit", &["foray-serve.hit_ratio", "foray-serve.hit_p50_ms"]),
        ];
        for (workload, measured) in layers {
            for traced in [false, true] {
                let cfg = quick(workload, traced);
                std::fs::create_dir_all(&cfg.work_dir).unwrap();
                let out = run(&cfg, &Tracer::new(traced));
                assert_eq!(out.failed, 0, "{workload}: {:?}", out.problems);
                assert!(out.attempted > 0);
                for (name, _) in metrics::END_TO_END {
                    assert!(out.values.get(*name).is_some_and(|v| *v > 0.0), "{workload} {name}");
                }
                if traced {
                    for name in measured {
                        assert!(
                            out.values.get(*name).is_some_and(|v| *v != 0.0),
                            "{workload} {name}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let owned = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let cfg = parse_args(&owned(&[
            "--workload",
            "serve-hit",
            "--seed",
            "4",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds.as_secs(), cfg.traced),
            ("serve-hit", 4, 3, true)
        );
        assert_eq!(cfg.scale, serve::SCALE);
        let cfg = parse_args(&owned(&["--workload", "model-corpus"])).unwrap();
        assert_eq!((cfg.seed, cfg.traced, cfg.scale), (seed::DEFAULT_SEED, false, corpus::SCALE));
        for bad in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"], &[], &["--x"]] {
            assert!(parse_args(&owned(bad)).is_err(), "{bad:?}");
        }
    }
}
