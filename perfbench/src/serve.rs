//! `serve-miss` and `serve-hit`: an in-process `forayd`
//! (`foray_serve::serve`) on a Unix socket with the CLI defaults (1 worker,
//! queue 64, cache 128), driven by one closed-loop client that runs
//! connect → submit → wait for each job.
//!
//! Both deal the jobs from seeded, shuffled decks of every (program, kind)
//! pair: the 7 corpus programs at scale 2 times the `model`, `report` and
//! `dse` kinds, each pair once per deck of 21. Nothing records how forayd
//! is used, so no pair is weighted above another, and the two paths of the
//! result cache are measured apart rather than in an assumed blend:
//!
//! - `serve-miss`: every job carries fresh seeded inputs through
//!   `JobSpec::inputs`, so its key is new and the daemon computes it, as
//!   when content changed since the last submission.
//! - `serve-hit`: set-up submits every pair once; the measured jobs
//!   resubmit those specs, so the cache answers each, as in a re-run over
//!   unchanged content.

use crate::corpus::{self, LayerSplit};
use crate::metrics::{self, median, percentile, Outcome};
use crate::seed::{self, Program, PROGRAMS};
use crate::spans::Tracer;
use crate::RunConfig;
use foray::{AnalyzerConfig, BatchJob, FilterConfig, ForayGen, MemoryBehavior};
use foray_serve::json::{obj, Json};
use foray_serve::{Client, JobInput, JobKind, JobSpec, Response, ServeAddr, ServeConfig, Server};
use foray_workloads::input::XorShift;
use std::collections::BTreeMap;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Program size for the served jobs.
pub const SCALE: u32 = 2;
/// Completed jobs a run needs at least, so that ten lie beyond p95.
pub const MIN_JOBS: usize = 200;
/// The job kinds; a deck holds every program with every kind.
const KINDS: [JobKind; 3] = [JobKind::Model, JobKind::Report, JobKind::Dse];
const PAIRS: usize = PROGRAMS.len() * KINDS.len();

/// Which path of the result cache the measured jobs take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every job has a new key and is computed.
    Miss,
    /// Every job repeats a key primed in set-up and is answered from the
    /// cache.
    Hit,
}

/// One planned submission: which program, which kind, which input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planned {
    program: usize,
    kind: JobKind,
    stream: u64,
}

impl Planned {
    /// Pair `pair` of a deck, on input stream `stream`.
    fn pair(pair: usize, stream: u64) -> Planned {
        Planned { program: pair / KINDS.len(), kind: KINDS[pair % KINDS.len()], stream }
    }

    fn spec(self, scale: u32, seed: u64) -> JobSpec {
        let name = PROGRAMS[self.program];
        JobSpec {
            kind: self.kind,
            input: JobInput::Workload(name.to_owned()),
            scale,
            inputs: Some(seed::inputs(name, scale, seed, self.stream)),
            ..JobSpec::default()
        }
    }
}

/// Position of `kind` in [`KINDS`].
fn kind_index(kind: JobKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("a planned kind")
}

/// The seeded job sequence, `len` jobs long: shuffled decks of every
/// (program, kind) pair. Miss traffic gives each job its own input stream;
/// hit traffic gives pair `p` stream `p + 1`, that of its primed job.
fn plan(seed: u64, traffic: Traffic, len: usize) -> Vec<Planned> {
    let mut rng = XorShift::new(seed ^ 0x5e7e_d00d_cafe_f00d);
    let mut deck = Vec::with_capacity(PAIRS);
    let mut jobs = Vec::with_capacity(len);
    while jobs.len() < len {
        if deck.is_empty() {
            deck.extend(0..PAIRS);
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let pair = deck.pop().expect("refilled");
        let stream = match traffic {
            Traffic::Miss => jobs.len() as u64 + 1,
            Traffic::Hit => pair as u64 + 1,
        };
        jobs.push(Planned::pair(pair, stream));
    }
    jobs
}

/// An in-process daemon serving on a Unix socket from its own thread.
struct Daemon {
    addr: ServeAddr,
    thread: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(socket: &Path) -> Daemon {
        let addr = ServeAddr::Unix(socket.to_owned());
        let server = Server::new(ServeConfig::default());
        let serve_addr = addr.clone();
        let thread = thread::spawn(move || foray_serve::serve(server, &serve_addr));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ready = Client::connect(&addr).and_then(|mut c| c.ping());
            if matches!(ready, Ok(Response::Pong)) {
                break;
            }
            assert!(Instant::now() < deadline, "forayd did not come up on {addr}: {ready:?}");
            thread::sleep(Duration::from_millis(1));
        }
        Daemon { addr, thread: Some(thread) }
    }

    /// Asks the daemon to drain, then waits for its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request: {e}"))?;
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("forayd: {e}")),
            Err(_) => Err("the forayd thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A served job: its key, whether the cache answered it, and the payload.
type Served = Result<(String, bool, String), String>;

/// connect → submit → wait for job `job`, spanned when traced; returns
/// the outcome and the round-trip time in ms.
fn one_job(tr: &Tracer, addr: &ServeAddr, job: u64, spec: &JobSpec) -> (Served, f64) {
    let t = Instant::now();
    let (outcome, _) = tr.span("job", None, job, |id| {
        let (client, _) = tr.span("client.connect", Some(id), job, |_| Client::connect(addr));
        let mut client = client.map_err(|e| format!("connect: {e}"))?;
        let (submitted, _) = tr.span("client.submit", Some(id), job, |_| client.submit(spec));
        let (job_id, key) = match submitted.map_err(|e| format!("submit: {e}"))? {
            Response::Submitted { job, key, .. } => (job, key),
            Response::Error(e) => {
                return Err(format!("submit refused: {}: {}", e.code.as_str(), e.message))
            }
            other => return Err(format!("unexpected submit reply {other:?}")),
        };
        let (waited, _) = tr.span("client.wait", Some(id), job, |_| client.wait(&job_id, None));
        match waited.map_err(|e| format!("wait: {e}"))? {
            Response::Result { hit, result, .. } => Ok((key, hit, result)),
            Response::Error(e) => Err(format!("job failed: {}: {}", e.code.as_str(), e.message)),
            other => Err(format!("unexpected wait reply {other:?}")),
        }
    });
    (outcome, t.elapsed().as_secs_f64() * 1e3)
}

/// The report payload, rendered from public APIs as the daemon renders it.
fn render_report(name: &str, key: &str, out: &foray::ForayGenOutput) -> String {
    let mb = MemoryBehavior::compute(&out.analysis, &out.model);
    let n = |v: u64| Json::Int(v as i64);
    obj([
        ("schema", Json::Str("foray-serve-report/v1".into())),
        ("name", Json::Str(name.to_owned())),
        ("key", Json::Str(key.to_owned())),
        ("total_refs", n(mb.total_refs)),
        ("total_accesses", n(mb.total_accesses)),
        ("total_footprint", n(mb.total_footprint)),
        ("model_refs", n(mb.model_refs)),
        ("model_accesses", n(mb.model_accesses)),
        ("model_footprint", n(mb.model_footprint)),
        ("lib_refs", n(mb.lib_refs)),
        ("lib_accesses", n(mb.lib_accesses)),
        ("lib_footprint", n(mb.lib_footprint)),
        ("other_footprint", n(mb.other_footprint)),
        ("model_loops", n(out.model.loops.len() as u64)),
        ("code", Json::Str(out.code.clone())),
    ])
    .render()
}

/// Computes a job's payload in-process, with the sequential analyzer or
/// with the streaming schedule the daemon uses.
fn direct(spec: &JobSpec, program: &Program, streaming: bool) -> Result<String, String> {
    let pipeline = ForayGen::new()
        .filter(FilterConfig { n_exec: spec.n_exec, n_loc: spec.n_loc })
        .analyzer(AnalyzerConfig { sample: spec.sample, ..AnalyzerConfig::default() })
        .sharded(streaming)
        .engine(spec.engine)
        .inputs(program.inputs.clone());
    let fail = |e: &dyn std::fmt::Display| format!("{} {}: {e}", program.name, spec.kind.as_str());
    match spec.kind {
        JobKind::Model => {
            pipeline.run_source(&program.source).map(|o| o.code).map_err(|e| fail(&e))
        }
        JobKind::Report => {
            let key = foray_serve::resolve(spec).map_err(|e| fail(&e.message))?.key;
            pipeline
                .run_source(&program.source)
                .map(|o| render_report(program.name, &key, &o))
                .map_err(|e| fail(&e))
        }
        JobKind::Dse => foray_spm::SpmDesignSpace::new()
            .capacities(&[256, 512, 1024, 2048, 4096, 8192])
            .preset_models()
            .workloads([BatchJob::new(program.name, program.source.clone()).pipeline(pipeline)])
            .explore(1)
            .map(|r| r.to_json())
            .map_err(|e| fail(&e)),
    }
}

/// The first payload served for each key, with the job that produced it.
type Firsts = BTreeMap<String, (Planned, String)>;

/// Counts one served job: it must succeed, and its payload must equal the
/// first payload served for its key, which becomes that key's reference.
/// Returns whether the cache answered it.
fn check_served(out: &mut Outcome, firsts: &mut Firsts, what: &str, p: Planned, s: Served) -> bool {
    match s {
        Ok((key, hit, payload)) => {
            match firsts.get(&key) {
                Some((_, want)) => {
                    out.expect_eq(&format!("{what} vs first payload"), &payload, want)
                }
                None => {
                    out.check(None);
                    firsts.insert(key, (p, payload));
                }
            }
            hit
        }
        Err(e) => {
            out.check(Some(format!("{what}: {e}")));
            false
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, traffic: Traffic, tr: &Tracer, out: &mut Outcome) {
    let socket = cfg.work_dir.join(format!("forayd-{}.sock", std::process::id()));
    let per_second = match traffic {
        Traffic::Miss => 100,
        Traffic::Hit => 5000,
    };
    let max_jobs = per_second * cfg.seconds.as_secs() as usize + 4 * cfg.min_jobs;
    // Hit traffic primes the cache with every pair in set-up, then reuses
    // these specs, so that building one is not part of a job.
    let primed: Vec<Planned> = match traffic {
        Traffic::Miss => Vec::new(),
        Traffic::Hit => (0..PAIRS).map(|p| Planned::pair(p, p as u64 + 1)).collect(),
    };
    let primed_specs: Vec<JobSpec> = primed.iter().map(|p| p.spec(cfg.scale, cfg.seed)).collect();
    let ((jobs, sources, mut daemon, priming), setup_s) = cfg.setup(|| {
        let jobs = plan(cfg.seed, traffic, max_jobs);
        let sources: Vec<String> =
            seed::corpus(cfg.scale, cfg.seed).into_iter().map(|p| p.source).collect();
        let daemon = Daemon::start(&socket);
        let quiet = Tracer::new(false);
        let priming: Vec<Served> =
            primed_specs.iter().map(|spec| one_job(&quiet, &daemon.addr, 0, spec).0).collect();
        (jobs, sources, daemon, priming)
    });
    out.set("setup_s", setup_s);
    let mut firsts = Firsts::new();
    for (i, (p, s)) in primed.iter().zip(priming).enumerate() {
        check_served(out, &mut firsts, &format!("primed job {i}"), *p, s);
    }
    let (mut hit_ms, mut miss_ms, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut miss_keys: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rss_mb = None;
    let mut cpu_ms = Vec::new();
    let start = Instant::now();
    for (index, &planned) in jobs.iter().enumerate() {
        if start.elapsed() >= cfg.seconds && all_ms.len() >= cfg.min_jobs {
            break;
        }
        let fresh;
        let spec = match traffic {
            Traffic::Hit => &primed_specs[planned.program * KINDS.len() + kind_index(planned.kind)],
            Traffic::Miss => {
                fresh = planned.spec(cfg.scale, cfg.seed);
                &fresh
            }
        };
        // One job is in flight at a time, so the process's CPU time over
        // the call is the job's, client and daemon threads together.
        let ((served, ms), _, cpu) =
            metrics::timed(|| one_job(tr, &daemon.addr, index as u64 + 1, spec));
        cpu_ms.push(cpu * 1e3);
        let key = served.as_ref().ok().map(|(k, _, _)| k.clone());
        let hit = check_served(out, &mut firsts, &format!("job {index}"), planned, served);
        all_ms.push(ms);
        if hit {
            hit_ms.push(ms);
        } else if let Some(key) = key {
            miss_ms.push(ms);
            miss_keys.entry(key).or_default().push(ms);
        }
        if all_ms.len() == cfg.min_jobs {
            // Peak memory after a fixed amount of work: the daemon keeps
            // every job's record, so it grows with throughput.
            rss_mb = Some(metrics::peak_rss_mb());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = Client::connect(&daemon.addr).and_then(|mut c| c.stats());
    if let Err(e) = daemon.stop() {
        out.check(Some(e));
    }
    metrics::report_jobs(out, &all_ms, &cpu_ms, wall);
    out.set("peak_rss_mb", rss_mb.unwrap_or_else(metrics::peak_rss_mb));
    out.set("foray-serve.hit_p50_ms", median(&hit_ms));
    out.set("foray-serve.miss_p50_ms", median(&miss_ms));
    match stats {
        Ok(Response::Stats(s)) => {
            out.set("foray-serve.hit_ratio", s.cache_hits as f64 / s.submitted.max(1) as f64);
            out.set("foray-serve.deduped", s.deduped as f64);
            out.set("foray-serve.rejected", s.rejected as f64);
            out.set("foray-serve.failed", s.failed as f64);
            out.note(format!(
                "forayd stats: submitted {}, hits {}, misses {}, deduped {}, computed {}, \
                 failed {}, rejected {}",
                s.submitted,
                s.cache_hits,
                s.cache_misses,
                s.deduped,
                s.computed,
                s.failed,
                s.rejected
            ));
        }
        other => out.check(Some(format!("stats request: {other:?}"))),
    }
    out.note(format!(
        "{} jobs by 1 closed-loop client in {wall:.2} s: p50 {:.2} ms, p95 {:.2} ms (CPU p50 \
         {:.2} ms, p95 {:.2} ms); hits {} (p50 {:.2} ms), misses {} (p50 {:.2} ms)",
        all_ms.len(),
        median(&all_ms),
        percentile(&all_ms, 95.0),
        median(&cpu_ms),
        percentile(&cpu_ms, 95.0),
        hit_ms.len(),
        median(&hit_ms),
        miss_ms.len(),
        median(&miss_ms)
    ));

    // Every first payload of a key must equal a direct compute of its spec.
    let direct_input = |planned: Planned| {
        let spec = planned.spec(cfg.scale, cfg.seed);
        let program = Program {
            name: PROGRAMS[planned.program],
            source: sources[planned.program].clone(),
            inputs: spec.inputs.clone().expect("planned jobs carry inputs"),
        };
        (spec, program)
    };
    if !cfg.traced || traffic == Traffic::Hit {
        // Untimed: compute on up to `nproc` threads.
        let firsts: Vec<(&Planned, &String)> = firsts.values().map(|(p, s)| (p, s)).collect();
        let wants = foray::map_ordered(&firsts, 0, |_, &(planned, _)| {
            let (spec, program) = direct_input(*planned);
            direct(&spec, &program, false)
        });
        for ((planned, served), want) in firsts.into_iter().zip(wants) {
            match want {
                Ok(want) => out.expect_eq(&format!("{planned:?} vs direct compute"), served, &want),
                Err(e) => out.check(Some(e)),
            }
        }
        return;
    }
    // Traced miss traffic: time each spec sequentially, both ways, to split
    // the streaming schedule's cost from the sequential analyzer's.
    let (mut seq_s, mut stream_s, mut dse_s, mut queue_wait_ms) =
        (0.0, 0.0, Vec::new(), Vec::new());
    let mut layer_programs: Vec<Option<Program>> = vec![None; PROGRAMS.len()];
    for (i, (key, (planned, served))) in firsts.iter().enumerate() {
        let (spec, program) = direct_input(*planned);
        // Numbered after the served jobs.
        let job = (jobs.len() + i + 1) as u64;
        let (want, seq) = tr.span("foray.seq", None, job, |_| direct(&spec, &program, false));
        match want {
            Ok(want) => out.expect_eq(&format!("{planned:?} vs direct compute"), served, &want),
            Err(e) => out.check(Some(e)),
        }
        let (streamed, stream) =
            tr.span("foray.stream", None, job, |_| direct(&spec, &program, true));
        match streamed {
            Ok(s) => out.expect_eq(&format!("{planned:?} streamed vs direct"), &s, served),
            Err(e) => out.check(Some(e)),
        }
        seq_s += seq.as_secs_f64();
        stream_s += stream.as_secs_f64();
        if planned.kind == JobKind::Dse {
            dse_s.push(stream.as_secs_f64());
        }
        for ms in miss_keys.get(key).into_iter().flatten() {
            queue_wait_ms.push(ms - stream.as_secs_f64() * 1e3);
        }
        if planned.kind == JobKind::Model && layer_programs[planned.program].is_none() {
            layer_programs[planned.program] = Some(program);
        }
    }
    out.set("foray.seq_s", seq_s);
    out.set("foray.stream_s", stream_s);
    out.set("foray.shard_overhead", stream_s / seq_s);
    out.set("foray-spm.dse_s", median(&dse_s));
    out.set("foray-serve.queue_wait_ms", median(&queue_wait_ms));
    out.note(format!(
        "{} distinct specs computed directly: sequential {seq_s:.4} s, streaming {stream_s:.4} s \
         (shard_overhead {:.3}); queue wait p50 {:.2} ms over {} misses",
        firsts.len(),
        stream_s / seq_s,
        median(&queue_wait_ms),
        queue_wait_ms.len()
    ));
    layer_split(tr, out, layer_programs.into_iter().flatten().collect());
}

/// Splits one model job per program into layers, as `model-corpus` does
/// for its pass.
fn layer_split(tr: &Tracer, out: &mut Outcome, programs: Vec<Program>) {
    let (mut records, mut product_s) = (0, 0.0);
    tr.span("layers", None, 0, |id| {
        for p in &programs {
            let t = Instant::now();
            let product = corpus::product_model(p);
            product_s += t.elapsed().as_secs_f64();
            let staged = corpus::staged_model(tr, id, 0, p).and_then(|s| {
                corpus::probes(tr, id, 0, p)?;
                Ok(s)
            });
            match (staged, product) {
                (Ok(s), Ok(want)) => {
                    records += s.records;
                    out.expect_eq(&format!("{} staged vs product", p.name), &s.code, &want);
                }
                (Err(e), _) | (_, Err(e)) => out.check(Some(e)),
            }
        }
    });
    // Job 0 marks these spans; served and direct jobs are numbered from 1.
    let layer_spans: Vec<_> = tr.spans().into_iter().filter(|s| s.job == 0).collect();
    let split = LayerSplit::from_spans(&layer_spans, 1);
    split.report(out, records, product_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deck_deals_each_pair_once_and_traffic_sets_the_keys() {
        let miss = plan(9, Traffic::Miss, 3 * PAIRS);
        let hit = plan(9, Traffic::Hit, 3 * PAIRS);
        for deck in miss.chunks(PAIRS) {
            let mut pairs: Vec<usize> =
                deck.iter().map(|p| p.program * KINDS.len() + kind_index(p.kind)).collect();
            pairs.sort_unstable();
            assert_eq!(pairs, (0..PAIRS).collect::<Vec<_>>());
        }
        // Same seed, same order; miss streams are all new, hit streams are
        // those of the primed pairs.
        assert!(miss.iter().zip(&hit).all(|(m, h)| (m.program, m.kind) == (h.program, h.kind)));
        let mut streams: Vec<u64> = miss.iter().map(|p| p.stream).collect();
        streams.dedup();
        assert_eq!(streams.len(), miss.len());
        for p in &hit {
            assert_eq!(p.stream, (p.program * KINDS.len() + kind_index(p.kind)) as u64 + 1);
        }
        assert_ne!(plan(10, Traffic::Miss, PAIRS), miss[..PAIRS]);
    }
}
