//! Batch execution: fan many full FORAY-GEN jobs across a shared thread
//! pool.
//!
//! Analysis of one trace is a single sequential pass (the analyzer is
//! online and constant-space); parallelism lives *across* independent
//! jobs — the shape of the bench suite (workload corpus × tables), of
//! design-space exploration sweeps and of multi-file replay. Jobs are
//! pulled from a shared atomic cursor by `N` scoped worker threads, and
//! results are returned **in job order** regardless of which worker
//! finished first, so batch output is deterministic.

use crate::analyzer::{analyze_source_with, Analysis, AnalyzerConfig};
use crate::pipeline::{ForayGen, ForayGenOutput, PipelineError};
use minic_trace::{ReadError, TraceFile};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One unit of batch work: a source program plus the pipeline to run it
/// through (filter thresholds, inputs, analyzer configuration).
#[derive(Debug, Clone, Default)]
pub struct BatchJob {
    /// Label for reports (workload name, file name, ...).
    pub name: String,
    /// mini-C source text.
    pub source: String,
    /// The configured pipeline to run the source through.
    pub pipeline: ForayGen,
}

impl BatchJob {
    /// Creates a job with a default pipeline.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchJob {
        BatchJob { name: name.into(), source: source.into(), pipeline: ForayGen::new() }
    }

    /// Replaces the pipeline configuration.
    pub fn pipeline(mut self, pipeline: ForayGen) -> BatchJob {
        self.pipeline = pipeline;
        self
    }
}

/// Resolves a requested job-pool worker count: `0` means auto-detect
/// ([`std::thread::available_parallelism`], at least 1); any other value
/// passes through verbatim.
///
/// # Examples
///
/// ```
/// assert_eq!(foray::resolve_shards(3), 3);
/// assert!(foray::resolve_shards(0) >= 1);
/// ```
pub fn resolve_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1)
}

/// Applies `f` to every item across `workers` threads (`0` = auto-detect,
/// see [`resolve_shards`]), returning one result per item **in item
/// order** regardless of which worker finished first.
///
/// This is the shared pool under [`analyze_batch`] and
/// `foray_spm`'s design-space exploration: items are pulled from an atomic
/// cursor by scoped workers, so any `Fn(index, &item)` fan-out inherits the
/// same determinism guarantee. `f` receives the item's index alongside the
/// item so callers can label work without capturing extra state.
///
/// # Examples
///
/// ```
/// let squares = foray::map_ordered(&[1u32, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = resolve_shards(workers).min(items.len());
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("every item produces exactly one result")).collect()
}

/// Runs every job across `workers` threads (`0` = auto-detect, see
/// [`resolve_shards`]), returning one result per job **in job order**.
///
/// # Examples
///
/// ```
/// use foray::BatchJob;
///
/// let jobs = vec![
///     BatchJob::new("a", "int x[64]; void main() { int i; for (i = 0; i < 64; i++) { x[i] = i; } }"),
///     BatchJob::new("b", "void main() {"), // does not compile
/// ];
/// let results = foray::analyze_batch(&jobs, 2);
/// assert!(results[0].is_ok());
/// assert!(matches!(results[1], Err(foray::PipelineError::Frontend(_))));
/// ```
pub fn analyze_batch(
    jobs: &[BatchJob],
    workers: usize,
) -> Vec<Result<ForayGenOutput, PipelineError>> {
    map_ordered(jobs, workers, |_, job| job.pipeline.run_source(&job.source))
}

/// Analyzes many pre-recorded `foray-trace/v1` files across `workers`
/// threads (`0` = auto-detect), one result per path **in path order**.
///
/// This is the batch companion of [`crate::analyze_source`]: each file is
/// opened with [`minic_trace::TraceFile::open`] and analyzed with a
/// sequential analyzer under `config`; parallelism comes from the fan-out
/// across files. Per-file failures stay in their slot.
///
/// # Examples
///
/// ```no_run
/// let paths = ["a.ftrace", "b.ftrace"];
/// let results = foray::analyze_trace_files(&paths, 0, &foray::AnalyzerConfig::default());
/// assert_eq!(results.len(), 2);
/// ```
pub fn analyze_trace_files<P: AsRef<Path> + Sync>(
    paths: &[P],
    workers: usize,
    config: &AnalyzerConfig,
) -> Vec<Result<Analysis, ReadError>> {
    map_ordered(paths, workers, |_, path| {
        let file = TraceFile::open(path)?;
        analyze_source_with(&file, config.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "int a[128]; void main() { int i; for (i = 0; i < 128; i++) { a[i] = i; } }";

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n).map(|i| BatchJob::new(format!("job{i}"), GOOD)).collect()
    }

    #[test]
    fn results_arrive_in_job_order() {
        let js = jobs(9);
        let results = analyze_batch(&js, 4);
        assert_eq!(results.len(), 9);
        for r in &results {
            let out = r.as_ref().expect("job runs");
            assert_eq!(out.model.ref_count(), 1);
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let mut js = jobs(4);
        js[2].source = "void main() {".to_owned();
        let results = analyze_batch(&js, 2);
        assert!(results[0].is_ok() && results[1].is_ok() && results[3].is_ok());
        assert!(matches!(results[2], Err(PipelineError::Frontend(_))));
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(analyze_batch(&[], 4).is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let js = jobs(2);
        let results = analyze_batch(&js, 16);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn map_ordered_is_deterministic_and_ordered() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 5, 0] {
            assert_eq!(map_ordered(&items, workers, |_, &x| x * 3 + 1), expected);
        }
        assert!(map_ordered(&[] as &[u64], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn map_ordered_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = map_ordered(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn resolve_shards_prefers_explicit_request() {
        for n in [1usize, 2, 7, 64] {
            assert_eq!(resolve_shards(n), n);
        }
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(resolve_shards(0), avail.max(1));
    }

    /// Distinct programs (one of which fails to compile) rendered to one
    /// report string: the batch must be byte-identical and in job order
    /// whatever the pool width.
    #[test]
    fn batch_output_is_byte_identical_across_worker_counts() {
        let sources = [
            GOOD,
            "int b[64]; void main() { int i; for (i = 63; i >= 0; i--) { b[i] = 2 * i; } }",
            "void main() {",
            "int c[16][16]; void main() { int i; int j;
             for (i = 0; i < 16; i++) { for (j = 0; j < 16; j++) { c[j][i] = i + j; } } }",
            "char d[256]; void main() { int i; for (i = 0; i < 256; i += 3) { d[i] = 1; } }",
        ];
        let js: Vec<BatchJob> = sources
            .iter()
            .enumerate()
            .map(|(i, src)| {
                BatchJob::new(format!("job{i}"), *src)
                    .pipeline(ForayGen::new().filter(crate::FilterConfig { n_exec: 4, n_loc: 4 }))
            })
            .collect();
        let render_one = |job: &BatchJob, r: &Result<ForayGenOutput, PipelineError>| match r {
            Ok(out) => format!("== {}\n{}", job.name, out.code),
            Err(e) => format!("== {}\nerror: {e}\n", job.name),
        };
        let direct: Vec<String> =
            js.iter().map(|job| render_one(job, &job.pipeline.run_source(&job.source))).collect();
        assert!(direct[2].starts_with("== job2\nerror: frontend"), "{}", direct[2]);
        for workers in [1usize, 2, 7] {
            let batch = analyze_batch(&js, workers);
            let rendered: Vec<String> =
                js.iter().zip(&batch).map(|(job, r)| render_one(job, r)).collect();
            assert_eq!(rendered, direct, "analyze_batch, workers={workers}");
            let mapped = map_ordered(&js, workers, |i, job| {
                (i, render_one(job, &job.pipeline.run_source(&job.source)))
            });
            let expected: Vec<(usize, String)> = direct.iter().cloned().enumerate().collect();
            assert_eq!(mapped, expected, "map_ordered, workers={workers}");
        }
    }

    #[test]
    fn batch_agrees_with_direct_runs() {
        let js = jobs(3);
        let batch = analyze_batch(&js, 3);
        for (job, res) in js.iter().zip(&batch) {
            let direct = job.pipeline.run_source(&job.source).unwrap();
            let out = res.as_ref().unwrap();
            assert_eq!(out.analysis, direct.analysis);
            assert_eq!(out.code, direct.code);
        }
    }
}
