//! `analyzer_hot` — analyzer hot-path overhead report.
//!
//! Measures what the online analyzer costs on top of bare execution, the
//! way `foray-gen model` runs it: the VM with the sequential
//! [`foray::Analyzer`] as its sink. One workload is measured three ways:
//!
//! * **bare** — simulation into a [`minic_trace::NullSink`]: the floor;
//! * **seq-hash** — the online analyzer with [`LookupStrategy::Hash`],
//!   the paper's hash-table lookup;
//! * **sequential** — the same analyzer with the default
//!   [`LookupStrategy::Dense`] tables and last-instruction memo.
//!
//! A second sweep runs bare vs sequential over the whole corpus, with a
//! total row. All analysis rows are asserted byte-identical before
//! anything is reported. Writes a machine-readable
//! `foray-analyzer-bench/v2` JSON report (CI uploads it as
//! `BENCH_analyzer.json`).
//!
//! ```text
//! cargo run --release -p foray-bench --bin analyzer_hot -- \
//!     [--workload NAME] [--scale N] [--iters N] [--quick] \
//!     [--json PATH] [--check-overhead X]
//! ```
//!
//! `--check-overhead X` exits non-zero if the sequential profile+analyze
//! run costs more than `X` times bare execution, either on the measured
//! workload or over the corpus total. It is a CI gate.

use foray::{Analysis, Analyzer, AnalyzerConfig, LookupStrategy};
use foray_workloads::{Params, Workload};
use minic_trace::NullSink;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    scale: u32,
    iters: u32,
    json: Option<String>,
    check_overhead: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: "fftc".to_owned(), scale: 2, iters: 40, json: None, check_overhead: None };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = need(&mut it, "--workload")?,
            "--scale" => {
                args.scale =
                    need(&mut it, "--scale")?.parse().map_err(|_| "bad --scale".to_owned())?;
            }
            "--iters" => {
                args.iters =
                    need(&mut it, "--iters")?.parse().map_err(|_| "bad --iters".to_owned())?;
            }
            // Enough best-of rounds to shake off scheduler noise in the
            // gated ratios while staying CI-cheap (a round is ~10 ms).
            "--quick" => args.iters = 20,
            "--json" => args.json = Some(need(&mut it, "--json")?),
            "--check-overhead" => {
                args.check_overhead = Some(
                    need(&mut it, "--check-overhead")?
                        .parse()
                        .map_err(|_| "bad --check-overhead".to_owned())?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.iters == 0 {
        return Err("--iters must be at least 1".to_owned());
    }
    Ok(args)
}

struct Row {
    mode: &'static str,
    seconds: Duration,
    overhead: f64,
}

struct CorpusRow {
    workload: &'static str,
    records: u64,
    bare: Duration,
    sequential: Duration,
}

/// Time one run, folding it into a best-so-far. Modes are measured
/// round-robin so a slow scheduling window inflates every mode's sample
/// equally instead of skewing one ratio.
fn timed<T>(best: &mut Duration, run: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = run();
    *best = (*best).min(start.elapsed());
    value
}

/// One bare run; returns the record count.
fn run_bare(prog: &minic::Program, sim: &minic_sim::SimConfig, w: &Workload) -> u64 {
    let outcome = minic_sim::run_with_sink(prog, sim, &w.inputs, &mut NullSink)
        .unwrap_or_else(|e| panic!("{} runs bare: {e}", w.name));
    outcome.accesses + outcome.checkpoints
}

/// One profile+analyze run with the analyzer riding the VM.
fn run_analyzed(
    prog: &minic::Program,
    sim: &minic_sim::SimConfig,
    w: &Workload,
    config: &AnalyzerConfig,
) -> Analysis {
    let mut analyzer = Analyzer::with_config(config.clone());
    minic_sim::run_with_sink(prog, sim, &w.inputs, &mut analyzer)
        .unwrap_or_else(|e| panic!("{} runs analyzed: {e}", w.name));
    analyzer.into_analysis()
}

fn json_report(
    args: &Args,
    records: u64,
    bare: Duration,
    rows: &[Row],
    corpus: &[CorpusRow],
    corpus_overhead: f64,
) -> String {
    // Hand-rolled JSON, like every report in this workspace: the build is
    // offline and dependency-free by construction.
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"foray-analyzer-bench/v2\",\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", args.workload);
    let _ = writeln!(s, "  \"scale\": {},", args.scale);
    let _ = writeln!(s, "  \"iters\": {},", args.iters);
    let _ = writeln!(s, "  \"records\": {records},");
    let _ = writeln!(s, "  \"bare_seconds\": {:.6},", bare.as_secs_f64());
    s.push_str("  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(s, "\"mode\": \"{}\", ", r.mode);
        let _ = write!(s, "\"seconds\": {:.6}, ", r.seconds.as_secs_f64());
        let _ = write!(s, "\"overhead_vs_bare\": {:.3}", r.overhead);
        s.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n  \"corpus\": [\n");
    for (i, c) in corpus.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(s, "\"workload\": \"{}\", ", c.workload);
        let _ = write!(s, "\"records\": {}, ", c.records);
        let _ = write!(s, "\"bare_seconds\": {:.6}, ", c.bare.as_secs_f64());
        let _ = write!(s, "\"sequential_seconds\": {:.6}", c.sequential.as_secs_f64());
        s.push_str(if i + 1 < corpus.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"corpus_overhead_vs_bare\": {corpus_overhead:.3}");
    s.push_str("}\n");
    s
}

fn ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: analyzer_hot [--workload NAME] [--scale N] [--iters N] [--quick] \
                 [--json PATH] [--check-overhead X]"
            );
            std::process::exit(1);
        }
    };
    let params = Params { scale: args.scale };
    let Some(w) = foray_workloads::by_name(&args.workload, params) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        std::process::exit(1);
    };
    let prog = w.frontend().expect("workload compiles");
    let sim = minic_sim::SimConfig::default();

    println!("analyzer_hot: {} at scale {} (best of {} iters)", w.name, args.scale, args.iters);

    let hash_config = AnalyzerConfig { lookup: LookupStrategy::Hash, ..AnalyzerConfig::default() };
    let dense_config = AnalyzerConfig::default();

    let (mut bare, mut hash_t, mut dense_t) = (Duration::MAX, Duration::MAX, Duration::MAX);
    let (mut records, mut last) = (0u64, None);
    for _ in 0..args.iters {
        records = timed(&mut bare, || run_bare(&prog, &sim, &w));
        let hashed = timed(&mut hash_t, || run_analyzed(&prog, &sim, &w, &hash_config));
        let dense = timed(&mut dense_t, || run_analyzed(&prog, &sim, &w, &dense_config));
        last = Some((hashed, dense));
    }
    let (hashed, dense) = last.expect("iters >= 1");
    assert_eq!(dense, hashed, "dense lookup must be byte-identical to hash");

    let overhead = |d: Duration| d.as_secs_f64() / bare.as_secs_f64();
    let rows = [
        Row { mode: "seq-hash", seconds: hash_t, overhead: overhead(hash_t) },
        Row { mode: "sequential", seconds: dense_t, overhead: overhead(dense_t) },
    ];
    let table = foray_bench::render_table(
        &["mode", "records", "time", "vs bare"],
        &std::iter::once(vec![
            "bare".to_owned(),
            foray_bench::human(records),
            ms(bare),
            "1.00x".to_owned(),
        ])
        .chain(rows.iter().map(|r| {
            vec![
                r.mode.to_owned(),
                foray_bench::human(records),
                ms(r.seconds),
                format!("{:.2}x", r.overhead),
            ]
        }))
        .collect::<Vec<_>>(),
    );
    println!("{table}");

    // Corpus sweep: bare vs sequential on every workload. Half the rounds
    // of the hot-path section (a corpus round costs ~20x more); best-of-N
    // still needs enough rounds per workload to catch a quiet window.
    let corpus_iters = (args.iters / 2).max(3);
    let mut corpus: Vec<CorpusRow> = Vec::new();
    for cw in foray_workloads::all(params) {
        let cprog = cw.frontend().expect("corpus workload compiles");
        let (mut cbare, mut cseq) = (Duration::MAX, Duration::MAX);
        let mut crecords = 0u64;
        for _ in 0..corpus_iters {
            crecords = timed(&mut cbare, || run_bare(&cprog, &sim, &cw));
            timed(&mut cseq, || run_analyzed(&cprog, &sim, &cw, &dense_config));
        }
        corpus.push(CorpusRow {
            workload: cw.name,
            records: crecords,
            bare: cbare,
            sequential: cseq,
        });
    }
    let bare_total: Duration = corpus.iter().map(|c| c.bare).sum();
    let seq_total: Duration = corpus.iter().map(|c| c.sequential).sum();
    let records_total: u64 = corpus.iter().map(|c| c.records).sum();
    let corpus_overhead = seq_total.as_secs_f64() / bare_total.as_secs_f64();
    let corpus_row = |name: &str, records: u64, bare: Duration, seq: Duration| {
        vec![
            name.to_owned(),
            foray_bench::human(records),
            ms(bare),
            ms(seq),
            format!("{:.2}x", seq.as_secs_f64() / bare.as_secs_f64()),
        ]
    };
    let corpus_table = foray_bench::render_table(
        &["workload", "records", "bare", "sequential", "vs bare"],
        &corpus
            .iter()
            .map(|c| corpus_row(c.workload, c.records, c.bare, c.sequential))
            .chain(std::iter::once(corpus_row("total", records_total, bare_total, seq_total)))
            .collect::<Vec<_>>(),
    );
    println!("{corpus_table}");

    if let Some(path) = &args.json {
        let report = json_report(&args, records, bare, &rows, &corpus, corpus_overhead);
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} (foray-analyzer-bench/v2)");
    }
    if let Some(max) = args.check_overhead {
        let mut failed = false;
        for (what, got) in [
            (format!("sequential {}", w.name), rows[1].overhead),
            ("corpus total".to_owned(), corpus_overhead),
        ] {
            if got > max {
                eprintln!("FAIL: {what} overhead {got:.2}x is above the {max:.2}x gate");
                failed = true;
            } else {
                println!("check passed: {what} {got:.2}x <= {max:.2}x");
            }
        }
        if failed {
            std::process::exit(3);
        }
    }
}
