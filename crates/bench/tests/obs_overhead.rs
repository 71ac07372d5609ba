//! Metrics-overhead bar: turning the `dda-obs` recorder on must stay cheap
//! on the two instrumented hot paths, a batch of retrieval queries and a
//! simulator run.
//!
//! Both states get one untimed warm-up, then every rep times *both* states
//! back to back, alternating which goes first, and the compared number is
//! the per-state median. Running all of one state before the other lets
//! the second run on warmed caches at ramped clocks, which can swing the
//! measured overhead by tens of percent either way; interleaving removes
//! that bias and the median removes the jitter. Each workload runs for
//! about ten milliseconds, where scheduler noise can still outweigh the
//! instrumentation, so a path only fails when the enabled recorder is
//! both more than 5% and more than 2 ms slower than the disabled one.
//!
//! Timing in a debug build measures the optimizer's absence, so the test
//! is ignored there; CI runs it with `--release`.

use dda_bench::perf_workload;
use dda_sim::{SimOptions, Simulator};
use dda_slm::{TfIdfIndex, PROGRESSIVE_ORDER};
use rand::SeedableRng;
use std::time::Instant;

const REPS: usize = 7;
const MAX_OVERHEAD_PCT: f64 = 5.0;
const MAX_OVERHEAD_MS: f64 = 2.0;

/// Augmented training entries as retrieval documents (`instruct\ninput`,
/// the exact string the SLM indexes), cycled up to `target` documents.
fn corpus(modules: usize, target: usize) -> Vec<String> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2024);
    let corpus = dda_corpus::generate_corpus(modules, &mut rng);
    let (data, _) = dda_core::pipeline::augment(
        &corpus,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    );
    let base: Vec<String> = PROGRESSIVE_ORDER
        .iter()
        .flat_map(|kind| data.entries(*kind))
        .map(|e| format!("{}\n{}", e.instruct, e.input))
        .collect();
    assert!(!base.is_empty(), "augmentation produced no entries");
    (0..target).map(|i| base[i % base.len()].clone()).collect()
}

fn sim_run(sf: &dda_verilog::SourceFile) {
    let mut sim = Simulator::new(sf, "tb").expect("workload elaborates");
    let out = sim.run(&SimOptions::default()).expect("workload runs");
    assert!(out.finished, "workload did not reach $finish");
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64() * 1e3)
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bar; run with --release")]
fn enabled_recorder_stays_within_budget() {
    let docs = corpus(32, 1_000);
    let mut idx = TfIdfIndex::new();
    for d in &docs {
        idx.add(d);
    }
    idx.finish();
    // One query per document, so the batch (like the sim run) takes
    // longer than the 2 ms slack and the 5% bar can bite.
    let queries: Vec<&str> = docs
        .iter()
        .map(|d| d.lines().next().unwrap_or(""))
        .collect();
    let query_workload = || {
        queries
            .iter()
            .map(|q| idx.try_query(q, 32).unwrap().len())
            .sum::<usize>()
    };
    let sim_sf = dda_verilog::parse(&perf_workload(2_000)).expect("workload parses");

    assert!(!dda_obs::enabled(), "recorder must start disabled");
    // Shared warm-up: one untimed pass per state so the first timed trial
    // of *either* state runs on equally warm caches.
    query_workload();
    sim_run(&sim_sf);
    dda_obs::enable();
    let mut hits = query_workload();
    sim_run(&sim_sf);
    dda_obs::disable();

    // [state][workload] samples; state 0 = disabled, 1 = enabled.
    let mut samples = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for rep in 0..REPS {
        // Alternate which state leads each rep so slow clock/thermal drift
        // cancels instead of loading one side.
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            if enabled {
                dda_obs::enable();
            }
            let (h, query_ms) = time_ms(query_workload);
            let ((), sim_ms) = time_ms(|| sim_run(&sim_sf));
            if enabled {
                dda_obs::disable();
                hits = h;
            }
            samples[enabled as usize][0].push(query_ms);
            samples[enabled as usize][1].push(sim_ms);
        }
    }
    let snap = dda_obs::snapshot();
    // Counter sanity: the warm-up plus every enabled-state trial counted.
    assert_eq!(
        snap.counter("slm.query.postings"),
        ((REPS + 1) * queries.len()) as u64,
        "query counter missed increments"
    );
    assert_eq!(
        snap.counter("sim.run.bytecode"),
        (REPS + 1) as u64,
        "sim run counter missed increments"
    );
    assert!(hits > 0, "query workload returned no hits");
    dda_obs::reset();

    let [mut off, mut on] = samples;
    for (w, name) in ["query", "sim"].into_iter().enumerate() {
        let off_ms = median_ms(&mut off[w]);
        let on_ms = median_ms(&mut on[w]);
        let pct = 100.0 * (on_ms - off_ms) / off_ms;
        eprintln!("{name}: disabled {off_ms:.3} ms, enabled {on_ms:.3} ms ({pct:+.2}%)");
        assert!(
            pct <= MAX_OVERHEAD_PCT || on_ms - off_ms <= MAX_OVERHEAD_MS,
            "{name}: enabled recorder adds {pct:.2}% ({:.3} ms) — over the \
             {MAX_OVERHEAD_PCT}% + {MAX_OVERHEAD_MS} ms budget",
            on_ms - off_ms
        );
    }
}
