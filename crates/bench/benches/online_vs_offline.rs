//! Online (analyze during profiling, constant space) vs offline
//! (materialize the trace, then analyze) — the trade-off the paper
//! resolves in favour of online at the end of Section 4 — plus the batch
//! pool, which parallelizes across whole programs.

use criterion::{criterion_group, criterion_main, Criterion};
use foray_workloads::{by_name, Params};
use minic_sim::SimConfig;
use std::hint::black_box;

fn bench_modes(c: &mut Criterion) {
    let w = by_name("fftc", Params::default()).expect("fftc exists");
    let prog = w.frontend().expect("fftc compiles");
    let mut group = c.benchmark_group("online_vs_offline");
    group.sample_size(10);

    group.bench_function("online", |b| {
        b.iter(|| {
            let mut analyzer = foray::Analyzer::new();
            let outcome = minic_sim::run_with_sink(
                black_box(&prog),
                &SimConfig::default(),
                &w.inputs,
                &mut analyzer,
            )
            .expect("runs");
            black_box((outcome.accesses, analyzer.into_analysis().refs().len()))
        });
    });

    group.bench_function("offline_collect_then_analyze", |b| {
        b.iter(|| {
            let (_, records) =
                minic_sim::run(black_box(&prog), &SimConfig::default(), &w.inputs).expect("runs");
            let analysis = foray::analyze(&records);
            black_box(analysis.refs().len())
        });
    });

    group.bench_function("batch_suite_six_workloads", |b| {
        // The batch layer's real consumer shape: the six-workload suite
        // fanned across the shared pool.
        let jobs: Vec<foray::BatchJob> = foray_workloads::all(Params::default())
            .iter()
            .map(|wl| wl.batch_job(foray::ForayGen::new()))
            .collect();
        b.iter(|| {
            let results = foray::analyze_batch(black_box(&jobs), 0);
            black_box(results.iter().filter(|r| r.is_ok()).count())
        });
    });

    group.bench_function("offline_with_text_serialization", |b| {
        // Models the paper's "typically large trace file" path: serialize
        // to the text format and parse back before analyzing.
        b.iter(|| {
            let (_, records) =
                minic_sim::run(black_box(&prog), &SimConfig::default(), &w.inputs).expect("runs");
            let text = minic_trace::text::to_text(&records);
            let parsed = minic_trace::text::from_text(&text).expect("parses");
            let analysis = foray::analyze(&parsed);
            black_box(analysis.refs().len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
