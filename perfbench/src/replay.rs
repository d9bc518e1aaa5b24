//! `trace-replay`: every corpus program recorded to a v2 `.ftrace` as
//! `foray-gen trace record` does it (VM + `SampleSink` + `TraceWriter`),
//! then every file
//! replayed as `foray-gen trace analyze` does it (`TraceReader` +
//! sequential analyzer + extract + emit).
//!
//! This path runs the analyzer without the VM and without `TraceStats`,
//! and uses the trace codec both ways. A job is one program's record plus
//! its replay.

use crate::corpus::{self, LayerSplit};
use crate::metrics::{self, median, Outcome};
use crate::seed::{self, Program};
use crate::spans::{self, Tracer};
use crate::RunConfig;
use foray::{AnalyzerConfig, FilterConfig, ForayModel};
use minic_sim::{SimConfig, Vm};
use minic_trace::{
    CountingSink, NullSink, RecordSource, SampleSink, SampleSpec, TraceReader, TraceWriter,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Span names of the staged record and replay paths.
const ENCODE: &str = "minic-sim.vm+minic-trace.encode";
const REPLAY: &str = "minic-trace.decode+foray.analyzer";
const PROBE_DECODE: &str = "probe.minic-trace.decode";

/// `trace record`: profile `p` into a v2 trace file at `path`, behind the
/// default (keep-all) sampling filter as the CLI does.
fn record(p: &Program, path: &Path) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{} record: {e}", p.name);
    let prog = minic::frontend(&p.source).map_err(|e| fail(&e))?;
    let file = File::create(path).map_err(|e| fail(&e))?;
    let mut writer = TraceWriter::new(BufWriter::new(file));
    let mut sink = SampleSink::new(SampleSpec::default(), &mut writer);
    minic_sim::run_with_sink(&prog, &SimConfig::default(), &p.inputs, &mut sink)
        .map_err(|e| fail(&e))?;
    drop(sink);
    finish_writer(writer).map_err(|e| fail(&e))
}

/// Surfaces a writer's latched error, then flushes the file.
fn finish_writer(writer: TraceWriter<BufWriter<File>>) -> std::io::Result<()> {
    if let Some(e) = writer.io_error() {
        return Err(std::io::Error::new(e.kind(), e.to_string()));
    }
    writer.into_inner().flush()
}

/// `trace analyze`: replay the file at `path` into a model.
fn replay(name: &str, path: &Path) -> Result<String, String> {
    let analysis = foray::analyze_source_with(open(name, path)?, AnalyzerConfig::default())
        .map_err(|e| format!("{name} replay: {e}"))?;
    let model = ForayModel::extract(&analysis, &FilterConfig::default());
    Ok(foray::codegen::emit(&model))
}

/// `trace record` stage by stage, one span each under `parent`; returns the
/// number of records written.
fn staged_record(
    tr: &Tracer,
    parent: u64,
    job: u64,
    p: &Program,
    path: &Path,
) -> Result<u64, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{} record: {e}", p.name);
    let (prog, _) = tr.span(corpus::FRONTEND, Some(parent), job, |_| minic::frontend(&p.source));
    let prog = prog.map_err(|e| fail(&e))?;
    let (compiled, _) = tr.span(corpus::LOWER, Some(parent), job, |_| minic_sim::compile(&prog));
    tr.span(ENCODE, Some(parent), job, |_| {
        let file = File::create(path).map_err(|e| fail(&e))?;
        let mut writer = TraceWriter::new(BufWriter::new(file));
        let mut sink = SampleSink::new(SampleSpec::default(), &mut writer);
        let (outcome, _) = Vm::new(&compiled, SimConfig::default(), p.inputs.clone(), &mut sink)
            .run()
            .map_err(|e| fail(&e))?;
        drop(sink);
        finish_writer(writer).map_err(|e| fail(&e))?;
        Ok(outcome.accesses + outcome.checkpoints)
    })
    .0
}

fn open(name: &str, path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{name} replay: {e}");
    let file = File::open(path).map_err(|e| fail(&e))?;
    TraceReader::new(BufReader::new(file)).map_err(|e| fail(&e))
}

/// `trace analyze` stage by stage, one span each under `parent`.
fn staged_replay(
    tr: &Tracer,
    parent: u64,
    job: u64,
    name: &str,
    path: &Path,
) -> Result<String, String> {
    let (analysis, _) = tr.span(REPLAY, Some(parent), job, |_| {
        foray::analyze_source_with(open(name, path)?, AnalyzerConfig::default())
            .map_err(|e| format!("{name} replay: {e}"))
    });
    let analysis = analysis?;
    let (model, _) = tr.span(corpus::EXTRACT, Some(parent), job, |_| {
        ForayModel::extract(&analysis, &FilterConfig::default())
    });
    Ok(tr.span(corpus::CODEGEN, Some(parent), job, |_| foray::codegen::emit(&model)).0)
}

/// The subtractive probes, one span each under `parent`: the bare VM (to
/// split the encoder off recording) and a decode into a counter (to split
/// the analyzer off replay). Returns the number of records decoded.
fn probes(tr: &Tracer, parent: u64, job: u64, p: &Program, path: &Path) -> Result<u64, String> {
    let prog = minic::frontend(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
    let compiled = minic_sim::compile(&prog);
    tr.span(corpus::PROBE_VM, Some(parent), job, |_| {
        Vm::new(&compiled, SimConfig::default(), p.inputs.clone(), &mut NullSink).run().map(drop)
    })
    .0
    .map_err(|e| format!("{}: {e}", p.name))?;
    tr.span(PROBE_DECODE, Some(parent), job, |_| {
        let mut counter = CountingSink::new();
        open(p.name, path)?.stream_into(&mut counter).map_err(|e| format!("{}: {e}", p.name))?;
        Ok(counter.total())
    })
    .0
}

fn trace_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.ftrace"))
}

/// Runs the workload: per program, `trace record` then `trace analyze`. A
/// traced run follows each pair with its staged walk and the probes, so
/// that all of them see the same host conditions.
pub fn run(cfg: &RunConfig, tr: &Tracer, out: &mut Outcome) {
    let dir = cfg.work_dir.join(format!("traces-{}", std::process::id()));
    let (programs, setup_s) = cfg.setup(|| {
        let programs = seed::corpus(cfg.scale, cfg.seed);
        std::fs::create_dir_all(&dir).expect("the trace directory can be created");
        programs
    });
    out.set("setup_s", setup_s);
    let n = programs.len();
    let mut reference: Vec<Option<String>> = vec![None; n];
    let (mut record_s, mut replay_s, mut staged_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_cpu_ms = Vec::new();
    let mut per_prog_replay: Vec<Vec<f64>> = vec![Vec::new(); n];
    let (mut bytes, mut records) = (0u64, 0u64);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < crate::MIN_ROUNDS || start.elapsed() < cfg.seconds {
        let (mut recording, mut replaying, mut staged, mut cpu) = (0.0, 0.0, 0.0, 0.0);
        (bytes, records) = (0, 0);
        for (i, p) in programs.iter().enumerate() {
            let path = trace_path(&dir, p.name);
            let (recorded, took, record_cpu) = metrics::timed(|| record(p, &path));
            recording += took;
            let (result, took, replay_cpu) =
                metrics::timed(|| recorded.and_then(|()| replay(p.name, &path)));
            replaying += took;
            cpu += record_cpu + replay_cpu;
            per_prog_replay[i].push(took);
            bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            corpus::check_against(out, &mut reference[i], p.name, "replayed model", result);
            if cfg.traced {
                let job = (rounds * n + i + 1) as u64;
                let (result, wall) = tr.span("job", None, job, |id| {
                    let written = staged_record(tr, id, job, p, &path)?;
                    records += written;
                    Ok((written, staged_replay(tr, id, job, p.name, &path)?))
                });
                staged += wall.as_secs_f64();
                let decoded = tr.span("probes", None, job, |id| probes(tr, id, job, p, &path)).0;
                let code = match (result, decoded) {
                    (Ok((written, code)), Ok(decoded)) if written == decoded => Ok(code),
                    (Ok((written, _)), Ok(decoded)) => {
                        Err(format!("{}: wrote {written} records, decoded {decoded}", p.name))
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                };
                corpus::check_against(out, &mut reference[i], p.name, "staged replay", code);
            }
        }
        record_s.push(recording);
        replay_s.push(replaying);
        staged_s.push(staged);
        pass_cpu_ms.push(cpu * 1e3);
        rounds += 1;
    }
    let pass_s: Vec<f64> = record_s.iter().zip(&replay_s).map(|(a, b)| a + b).collect();
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    metrics::report_jobs(out, &pass_ms, &pass_cpu_ms, pass_s.iter().sum());
    out.set("peak_rss_mb", metrics::peak_rss_mb());
    let (record_med, replay_med) = (median(&record_s), median(&replay_s));
    let trace_mb = bytes as f64 / 1e6;
    out.set("record_s", record_med);
    out.set("replay_s", replay_med);
    out.set("trace_mb", trace_mb);
    for (i, p) in programs.iter().enumerate() {
        out.set(format!("prog.{}.replay_s", p.name), median(&per_prog_replay[i]));
    }
    out.note(format!(
        "{rounds} passes of {n} programs at scale {}: record_s {record_med:.4} s, replay_s \
         {replay_med:.4} s (medians), trace_mb {trace_mb:.6}; passes {pass_s:.4?} s, CPU \
         {pass_cpu_ms:.1?} ms",
        cfg.scale
    ));
    if cfg.traced {
        // Span sums are per run, so compare them with the mean pass.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (base, staged) = (mean(&pass_s), mean(&staged_s));
        let spans = tr.spans();
        let names = spans::self_by_name(&spans);
        let self_s = |name: &str| names.get(name).copied().unwrap_or(0.0) / rounds as f64;
        let split = LayerSplit::from_spans(&spans, rounds);
        let (vm, decode) = (split.vm, self_s(PROBE_DECODE));
        let (encode, replay_analyzer) = (self_s(ENCODE) - vm, self_s(REPLAY) - decode);
        out.set("minic.frontend_s", split.frontend);
        out.set("minic-sim.lower_s", split.lower);
        out.set("minic-sim.vm_s", vm);
        out.set("minic-sim.records", records as f64);
        out.set("minic-sim.mrec_per_s", records as f64 / vm / 1e6);
        out.set("minic-trace.encode_s", encode);
        out.set("minic-trace.bytes_per_rec", bytes as f64 / records as f64);
        out.set("minic-trace.decode_s", decode);
        out.set("minic-trace.decode_mrec_per_s", records as f64 / decode / 1e6);
        out.set("foray.replay_analyzer_s", replay_analyzer);
        out.set("foray.extract_s", split.extract);
        out.set("foray.codegen_s", split.codegen);
        let layers = split.frontend
            + split.lower
            + vm
            + encode
            + decode
            + replay_analyzer
            + split.extract
            + split.codegen;
        // The staged walk runs the product's own sinks, so a per-record
        // tee such as `TraceStats` inside `run_with_sink` or
        // `analyze_source_with` would show only in the product pass: the
        // part of it that no layer explains. No other layer is left to
        // take that remainder here, so it is also the unaccounted part.
        out.set("minic-trace.stats_s", base - layers);
        out.set("minic-trace.stats_share", (base - layers) / base);
        out.set("bench.tracing_overhead", staged / base - 1.0);
        out.set("bench.unaccounted_s", base - layers);
        out.set("bench.unaccounted_share", (base - layers) / base);
        let share = |v: f64| 100.0 * v / base;
        out.note(format!(
            "shares of record + replay = {base:.4} s: frontend {:.1}%, lower {:.1}%, vm {:.1}%, \
             encode {:.1}%, decode {:.1}%, replay analyzer {:.1}%, extract {:.2}%, codegen \
             {:.2}%; product time no layer explains (a TraceStats-like tee would show here) \
             {:.2}%",
            share(split.frontend),
            share(split.lower),
            share(vm),
            share(encode),
            share(decode),
            share(replay_analyzer),
            share(split.extract),
            share(split.codegen),
            share(base - layers)
        ));
        out.note(format!(
            "tracing overhead: staged traced pass {staged:.4} s vs untraced {base:.4} s ({:+.2}%)",
            100.0 * (staged / base - 1.0)
        ));
    }
    // Replayed models must equal the fused in-memory models.
    corpus::check_references(out, &programs, &reference, "fused model", corpus::product_model);
    let _ = std::fs::remove_dir_all(&dir);
}
