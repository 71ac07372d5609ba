//! Criterion benches for the simulator hot path: frontend stages (lex,
//! parse, elaborate) and the event loop under both execution engines on
//! the shared 128-bit pipeline workload: per-stage means for regression
//! hunting. End-to-end perf claims are measured by `perfbench` against
//! `BENCHMARK.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dda_bench::perf_workload;
use dda_sim::{EvalMode, SimOptions, Simulator};

const BENCH_CYCLES: u64 = 500;

fn bench_frontend(c: &mut Criterion) {
    let src = perf_workload(BENCH_CYCLES);
    c.bench_function("perf/lex", |b| {
        b.iter(|| dda_verilog::lex(std::hint::black_box(&src)).unwrap())
    });
    c.bench_function("perf/parse", |b| {
        b.iter(|| dda_verilog::parse(std::hint::black_box(&src)).unwrap())
    });
    let sf = dda_verilog::parse(&src).unwrap();
    c.bench_function("perf/elaborate", |b| {
        b.iter(|| Simulator::new(std::hint::black_box(&sf), "tb").unwrap())
    });
}

fn bench_engines(c: &mut Criterion) {
    let src = perf_workload(BENCH_CYCLES);
    let sf = dda_verilog::parse(&src).unwrap();
    for (name, mode) in [
        ("perf/run_ast", EvalMode::Ast),
        ("perf/run_bytecode", EvalMode::Bytecode),
    ] {
        let opts = SimOptions {
            eval_mode: mode,
            ..SimOptions::default()
        };
        c.bench_function(name, |b| {
            b.iter_batched(
                || Simulator::new(&sf, "tb").unwrap(),
                |mut sim| sim.run(&opts).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(benches, bench_frontend, bench_engines);
criterion_main!(benches);
