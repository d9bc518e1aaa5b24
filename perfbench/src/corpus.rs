//! `model-corpus`: every corpus program through `ForayGen::run_source`, as
//! `foray-gen model` runs it (sequential analyzer, `TraceStats` tee).
//!
//! The traced run also walks the same path stage by stage, each stage in
//! its own span, and splits the per-record cost subtractively: bare VM,
//! then VM + `Analyzer`, then the product call itself, whose execute stage
//! adds the `TraceStats` tee. Per-record layers cannot be timed inline
//! without distorting them.

use crate::metrics::{self, median, Outcome};
use crate::seed::{self, Program};
use crate::spans::{self, Tracer};
use crate::RunConfig;
use foray::{Analyzer, AnalyzerConfig, Engine, FilterConfig, ForayGen, ForayModel};
use minic_sim::{SimConfig, Vm};
use minic_trace::{NullSink, TeeSink, TraceStats};
use std::time::Instant;

/// Corpus size for this workload: 18.6 M trace records at the default
/// seed.
pub const SCALE: u32 = 8;

/// Span names of the staged product path.
pub const FRONTEND: &str = "minic.frontend";
pub const LOWER: &str = "minic-sim.lower";
pub const EXECUTE: &str = "minic-sim.vm+foray.analyzer+minic-trace.stats";
pub const EXTRACT: &str = "foray.extract";
pub const CODEGEN: &str = "foray.codegen";
pub const HINTS: &str = "foray.hints";
/// Span names of the subtractive probes.
pub const PROBE_VM: &str = "probe.minic-sim.vm";
pub const PROBE_ANALYZER: &str = "probe.minic-sim.vm+foray.analyzer";

/// The product call: `foray-gen model` on one program.
pub fn product_model(p: &Program) -> Result<String, String> {
    ForayGen::new()
        .inputs(p.inputs.clone())
        .run_source(&p.source)
        .map(|out| out.code)
        .map_err(|e| format!("{}: {e}", p.name))
}

/// The oracle: the same flow on the tree-walking interpreter, which
/// shares no code with the VM.
pub fn oracle_model(p: &Program) -> Result<String, String> {
    ForayGen::new()
        .engine(Engine::Tree)
        .inputs(p.inputs.clone())
        .run_source(&p.source)
        .map(|out| out.code)
        .map_err(|e| format!("{} (tree oracle): {e}", p.name))
}

/// What the staged walk of one program produced, or the counts of several
/// programs summed by [`Staged::add`].
#[derive(Default)]
pub struct Staged {
    pub code: String,
    pub records: u64,
    pub refs_seen: u64,
    pub refs_kept: u64,
    pub accesses: u64,
    pub covered: u64,
}

impl Staged {
    /// Adds `other`'s counts to these and returns its model code.
    pub fn add(&mut self, other: Staged) -> String {
        self.records += other.records;
        self.refs_seen += other.refs_seen;
        self.refs_kept += other.refs_kept;
        self.accesses += other.accesses;
        self.covered += other.covered;
        other.code
    }

    /// Records the exact model counts.
    pub fn report(&self, out: &mut Outcome) {
        out.set("foray.refs_seen", self.refs_seen as f64);
        out.set("foray.refs_kept", self.refs_kept as f64);
        out.set("foray.kept_ratio", self.refs_kept as f64 / self.refs_seen.max(1) as f64);
        out.set("foray.capture_share", self.covered as f64 / self.accesses.max(1) as f64);
    }
}

/// Walks the product path of [`product_model`] stage by stage, one span
/// per stage under `parent`.
pub fn staged_model(tr: &Tracer, parent: u64, job: u64, p: &Program) -> Result<Staged, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", p.name);
    let (prog, _) = tr.span(FRONTEND, Some(parent), job, |_| minic::frontend(&p.source));
    let prog = prog.map_err(|e| fail(&e))?;
    let (compiled, _) = tr.span(LOWER, Some(parent), job, |_| minic_sim::compile(&prog));
    let (executed, _) = tr.span(EXECUTE, Some(parent), job, |_| {
        let mut sink =
            TeeSink::new(Analyzer::with_config(AnalyzerConfig::default()), TraceStats::new());
        let (outcome, _) = Vm::new(&compiled, SimConfig::default(), p.inputs.clone(), &mut sink)
            .run()
            .map_err(|e| fail(&e))?;
        Ok::<_, String>((sink.into_inner().0.into_analysis(), outcome))
    });
    let (analysis, outcome) = executed?;
    let (model, _) = tr.span(EXTRACT, Some(parent), job, |_| {
        ForayModel::extract(&analysis, &FilterConfig::default())
    });
    let (code, _) = tr.span(CODEGEN, Some(parent), job, |_| foray::codegen::emit(&model));
    tr.span(HINTS, Some(parent), job, |_| foray::hints::inline_hints(&prog, analysis.tree()));
    Ok(Staged {
        code,
        records: outcome.accesses + outcome.checkpoints,
        refs_seen: analysis.refs().len() as u64,
        refs_kept: model.refs.len() as u64,
        accesses: analysis.accesses(),
        covered: model.covered_accesses(),
    })
}

/// The subtractive probes for `p`, one span each under `parent`: bare VM,
/// then VM + analyzer, over the same compiled program.
pub fn probes(tr: &Tracer, parent: u64, job: u64, p: &Program) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", p.name);
    let prog = minic::frontend(&p.source).map_err(|e| fail(&e))?;
    let compiled = minic_sim::compile(&prog);
    let inputs = || p.inputs.clone();
    tr.span(PROBE_VM, Some(parent), job, |_| {
        Vm::new(&compiled, SimConfig::default(), inputs(), &mut NullSink).run().map(drop)
    })
    .0
    .map_err(|e| fail(&e))?;
    tr.span(PROBE_ANALYZER, Some(parent), job, |_| {
        let mut analyzer = Analyzer::with_config(AnalyzerConfig::default());
        Vm::new(&compiled, SimConfig::default(), inputs(), &mut analyzer).run()?;
        drop(analyzer.into_analysis());
        Ok(())
    })
    .0
    .map_err(|e: minic_sim::RuntimeError| fail(&e))
}

/// Per-layer seconds of the staged walk, from span self times summed over
/// the run and divided by `rounds`. `stats` is the `TraceStats` tee as the
/// staged walk reconstructs it; the reported layer is measured against the
/// product call instead (see [`LayerSplit::report`]).
pub struct LayerSplit {
    pub frontend: f64,
    pub lower: f64,
    pub vm: f64,
    pub analyzer: f64,
    pub stats: f64,
    pub extract: f64,
    pub codegen: f64,
    pub hints: f64,
}

impl LayerSplit {
    pub fn from_spans(spans: &[spans::Span], rounds: usize) -> LayerSplit {
        let names = spans::self_by_name(spans);
        let self_s = |n: &str| names.get(n).copied().unwrap_or(0.0) / rounds.max(1) as f64;
        let (vm, vm_an, fused) = (self_s(PROBE_VM), self_s(PROBE_ANALYZER), self_s(EXECUTE));
        LayerSplit {
            frontend: self_s(FRONTEND),
            lower: self_s(LOWER),
            vm,
            analyzer: vm_an - vm,
            stats: fused - vm_an,
            extract: self_s(EXTRACT),
            codegen: self_s(CODEGEN),
            hints: self_s(HINTS),
        }
    }

    pub fn total(&self) -> f64 {
        self.frontend
            + self.lower
            + self.vm
            + self.analyzer
            + self.stats
            + self.extract
            + self.codegen
            + self.hints
    }

    /// Records the split as per-layer metrics; `records` is per round and
    /// `base_s` is the untraced product pass. `minic-trace.stats_s` is the
    /// part of the product pass that the layers without the tee do not
    /// explain, so it falls if the product drops its tee; the staged
    /// reconstruction is reported alongside, and the rest is unaccounted.
    pub fn report(&self, out: &mut Outcome, records: u64, base_s: f64) {
        let stats = base_s - (self.total() - self.stats);
        out.set("minic.frontend_s", self.frontend);
        out.set("minic-sim.lower_s", self.lower);
        out.set("minic-sim.vm_s", self.vm);
        out.set("minic-sim.records", records as f64);
        out.set("minic-sim.mrec_per_s", records as f64 / self.vm / 1e6);
        out.set("foray.analyzer_s", self.analyzer);
        out.set("foray.analyzer_ns_per_rec", self.analyzer / records as f64 * 1e9);
        out.set("minic-trace.stats_s", stats);
        out.set("minic-trace.stats_share", stats / base_s);
        out.set("foray.extract_s", self.extract);
        out.set("foray.codegen_s", self.codegen);
        out.set("foray.hints_s", self.hints);
        let share = |v: f64| 100.0 * v / base_s;
        out.note(format!(
            "shares of {base_s:.4} s: frontend {:.1}%, lower {:.1}%, vm {:.1}%, analyzer {:.1}%, \
             TraceStats {:.1}% (staged tee {:.1}%), extract {:.2}%, codegen {:.2}%, hints {:.2}%",
            share(self.frontend),
            share(self.lower),
            share(self.vm),
            share(self.analyzer),
            share(stats),
            share(self.stats),
            share(self.extract),
            share(self.codegen),
            share(self.hints)
        ));
    }
}

/// Runs the workload. A traced run interleaves, per program, the untraced
/// product call, the staged walk and the probes, so that all three see the
/// same host conditions.
pub fn run(cfg: &RunConfig, tr: &Tracer, out: &mut Outcome) {
    let (programs, setup_s) = cfg.setup(|| seed::corpus(cfg.scale, cfg.seed));
    out.set("setup_s", setup_s);
    let n = programs.len();
    let mut reference: Vec<Option<String>> = vec![None; n];
    let (mut pass_s, mut pass_cpu_ms, mut staged_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_prog_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut counts = Staged::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < crate::MIN_ROUNDS || start.elapsed() < cfg.seconds {
        let (mut pass, mut pass_cpu, mut staged) = (0.0, 0.0, 0.0);
        counts = Staged::default();
        for (i, p) in programs.iter().enumerate() {
            let (result, took, cpu) = metrics::timed(|| product_model(p));
            pass += took;
            pass_cpu += cpu;
            per_prog_s[i].push(took);
            check_against(out, &mut reference[i], p.name, "model", result);
            if cfg.traced {
                let job = (rounds * n + i + 1) as u64;
                let (result, wall) = tr.span("job", None, job, |id| staged_model(tr, id, job, p));
                staged += wall.as_secs_f64();
                let code = result.map(|s| counts.add(s));
                check_against(out, &mut reference[i], p.name, "staged model", code);
                if let Err(e) = tr.span("probes", None, job, |id| probes(tr, id, job, p)).0 {
                    out.check(Some(e));
                }
            }
        }
        pass_s.push(pass);
        pass_cpu_ms.push(pass_cpu * 1e3);
        staged_s.push(staged);
        rounds += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let model_s = median(&pass_s);
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    metrics::report_jobs(out, &pass_ms, &pass_cpu_ms, pass_s.iter().sum());
    out.set("model_s", model_s);
    out.set("peak_rss_mb", metrics::peak_rss_mb());
    out.note(format!(
        "{rounds} passes of {n} programs at scale {} in {wall:.2} s; model_s (median pass) \
         {model_s:.4} s; passes {pass_s:.4?} s, CPU {pass_cpu_ms:.1?} ms",
        cfg.scale
    ));
    for (i, p) in programs.iter().enumerate() {
        out.set(format!("prog.{}.model_s", p.name), median(&per_prog_s[i]));
    }
    if cfg.traced {
        // Span sums are per run, so compare them with the mean pass.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (base, staged) = (mean(&pass_s), mean(&staged_s));
        let split = LayerSplit::from_spans(&tr.spans(), rounds);
        split.report(out, counts.records, base);
        counts.report(out);
        let unaccounted = base - split.total();
        out.set("bench.tracing_overhead", staged / base - 1.0);
        out.set("bench.unaccounted_s", unaccounted);
        out.set("bench.unaccounted_share", unaccounted / base);
        out.note(format!(
            "tracing overhead: staged traced pass {staged:.4} s vs untraced {base:.4} s \
             ({:+.2}%); unaccounted by any layer: {unaccounted:.4} s ({:.2}%)",
            100.0 * (staged / base - 1.0),
            100.0 * unaccounted / base
        ));
    }
    check_references(out, &programs, &reference, "tree oracle", oracle_model);
}

/// Compares each program's reference output with `expected(program)`,
/// computed after the measured window on up to `nproc` threads.
pub fn check_references(
    out: &mut Outcome,
    programs: &[Program],
    reference: &[Option<String>],
    against: &str,
    expected: impl Fn(&Program) -> Result<String, String> + Sync,
) {
    let wants = foray::map_ordered(programs, 0, |_, p| expected(p));
    for ((p, got), want) in programs.iter().zip(reference).zip(wants) {
        match (want, got) {
            (Ok(want), Some(got)) => out.expect_eq(&format!("{} vs {against}", p.name), got, &want),
            (Err(e), _) => out.check(Some(e)),
            (Ok(_), None) => {} // the measured run already failed and was counted
        }
    }
}

/// Counts one produced output: it must succeed and match the first output
/// of the same program in this run, which becomes the reference.
pub fn check_against(
    out: &mut Outcome,
    reference: &mut Option<String>,
    name: &str,
    what: &str,
    result: Result<String, String>,
) {
    match (result, reference.as_ref()) {
        (Ok(code), Some(first)) => out.expect_eq(&format!("{name} {what}"), &code, first),
        (Ok(code), None) => {
            out.check(None);
            *reference = Some(code);
        }
        (Err(e), _) => out.check(Some(e)),
    }
}
