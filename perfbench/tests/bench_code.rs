//! Tests of the benchmark's own code: its request streams, its
//! percentile helper, its result line, and the traced paths that must
//! reproduce the library's outputs exactly.

use dda_eval::{agent_batch, ModelId, ModelZoo, ZooOptions};
use dda_runtime::CancelToken;
use dda_serve::handlers::{execute, HandlerCx};
use dda_serve::ReqBody;
use perfbench::pipeline::{
    run_op, run_op_traced, sampling_seed, sweep_digests, sweep_order, Op, Outcome, Protocols,
    Suites, CORPUS_MODULES, DEFAULT_SEED, GOLDEN,
};
use perfbench::serve::{self, Flavor};
use perfbench::stats::{median, percentile, summarise, Sample, MIN_TAIL};
use perfbench::trace::Trace;
use perfbench::{Report, END_TO_END, PER_LAYER};
use std::collections::HashMap;

fn stream(flavor: Flavor, seed: u64, n: u64) -> Vec<ReqBody> {
    let problems = serve::problems();
    (0..n)
        .map(|i| serve::request(flavor, &problems, seed, i))
        .collect()
}

#[test]
fn same_seed_gives_the_same_stream_and_another_seed_another() {
    for (flavor, n) in [(Flavor::Hot, 300), (Flavor::Cold, 60)] {
        let a = stream(flavor, 7, n);
        assert_eq!(
            a,
            stream(flavor, 7, n),
            "{flavor:?} stream is not a function of its seed"
        );
        assert_ne!(
            a,
            stream(flavor, 8, n),
            "{flavor:?} stream ignores its seed"
        );
    }
}

#[test]
fn every_verb_of_each_mix_is_drawn() {
    let verbs = |flavor| {
        let mut v: Vec<&str> = stream(flavor, 3, 200).iter().map(ReqBody::verb).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    assert_eq!(verbs(Flavor::Hot), ["generate", "retrieve", "score"]);
    assert_eq!(verbs(Flavor::Cold), ["augment", "repair", "score"]);
    let lanes = stream(Flavor::Hot, 3, 400)
        .iter()
        .filter(|b| matches!(b, ReqBody::Score { runs: 8, .. }))
        .count();
    assert!(lanes > 0, "no 8-lane score requests drawn");
}

#[test]
fn pipeline_sweep_order_is_seeded_and_complete() {
    let n = Suites::load().sweep().len();
    let a = sweep_order(n, sampling_seed(1, 0));
    assert_eq!(a, sweep_order(n, sampling_seed(1, 0)));
    assert_ne!(a, sweep_order(n, sampling_seed(2, 0)));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n).collect::<Vec<_>>());
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.99), Ok(990.0));
    let err = percentile(&sorted[..999], 0.99).unwrap_err();
    assert!(err.beyond < MIN_TAIL, "{err}");
    assert_eq!(percentile(&sorted[..100], 0.5), Ok(50.0));
    assert!(percentile(&sorted[..19], 0.5).is_err());
    assert!(percentile(&[], 0.5).is_err());
}

#[test]
fn summary_takes_median_windows_and_pooled_p99() {
    // Five windows at 1 ms per op, one window slowed tenfold: the median
    // window ignores the slow one; the pooled p99 sees it.
    let samples: Vec<Sample> = (0..1000)
        .map(|i| Sample {
            at_s: i as f64 / 100.0,
            ms: if i >= 800 { 10.0 } else { 1.0 },
        })
        .collect();
    let s = summarise(&samples, 10.0, 5).unwrap();
    assert_eq!(s.p50_ms, 1.0);
    assert_eq!(s.ops_per_s, 1000.0);
    assert_eq!(s.p99_ms, 10.0);
    assert!(summarise(&samples[..999], 10.0, 5).is_err());
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
}

#[test]
fn result_line_carries_exactly_the_declared_metrics() {
    let mut report = Report {
        attempted: 3,
        ..Report::default()
    };
    report.metric("p50_ms", 1.5, "ms");
    report.finish(false);
    assert!(
        !report.correct(),
        "missing end-to-end metrics must refuse the run"
    );
    assert_eq!(report.metrics.len(), END_TO_END.len());

    let mut traced = Report {
        attempted: 3,
        ..Report::default()
    };
    traced.metric("slm.generate.ms", 0.25, "ms");
    traced.metric("not.declared", 1.0, "count");
    traced.finish(true);
    assert!(traced.correct());
    let names: Vec<&str> = traced.metrics.iter().map(|(n, ..)| n.as_str()).collect();
    assert_eq!(names, PER_LAYER.map(|(n, _)| n));
    let line = traced.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"slm.generate.ms\": {\"value\": 0.25, \"unit\": \"ms\"}"));
}

#[test]
fn benchmark_manifest_declares_the_same_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    for workload in ["paper_pipeline", "serve_hot", "serve_cold"] {
        assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
    }
}

fn small_zoo() -> ModelZoo {
    ModelZoo::build(&ZooOptions {
        corpus_modules: 16,
        seed: 5,
        train_workers: 1,
    })
}

#[test]
fn traced_pipeline_reproduces_the_library_cells_exactly() {
    let zoo = small_zoo();
    let suites = Suites::load();
    let protocols = Protocols::new(sampling_seed(9, 1));
    let mut trace = Trace::default();
    let mut checked = [0usize; 4];
    for op in suites.sweep() {
        let sampled = match op {
            Op::Gen { problem, .. } => problem % 5 == 0,
            Op::Repair { problem, .. } => problem % 4 == 0,
            Op::Script { .. } => true,
            Op::Agent { problem, .. } => problem % 6 == 0,
        };
        if !sampled {
            continue;
        }
        let plain = run_op(&zoo, &suites, op, &protocols);
        let traced = run_op_traced(&zoo, &suites, op, &protocols, &mut trace);
        assert_eq!(plain, traced, "{op:?}");
        assert!(plain.is_valid(), "{op:?}: {plain:?}");
        checked[op.table()] += 1;
    }
    assert!(checked.iter().all(|&n| n > 0), "{checked:?}");
    for layer in [
        "slm.generate",
        "lint.check",
        "sim.frontend",
        "sim.run",
        "sc.eval",
        "eval.agent",
    ] {
        assert!(trace.get(layer).calls > 0, "{layer} never traced");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a full paper-scale sweep; run with --release"
)]
fn default_seed_first_sweep_matches_the_golden_digests() {
    let zoo = ModelZoo::build(&ZooOptions {
        corpus_modules: CORPUS_MODULES,
        seed: DEFAULT_SEED,
        train_workers: 1,
    });
    let suites = Suites::load();
    let ops = suites.sweep();
    let sseed = sampling_seed(DEFAULT_SEED, 0);
    let protocols = Protocols::new(sseed);
    let mut outcomes = vec![None; ops.len()];
    for i in sweep_order(ops.len(), sseed) {
        outcomes[i] = Some(run_op(&zoo, &suites, ops[i], &protocols));
    }
    assert_eq!(sweep_digests(&ops, &outcomes), GOLDEN[0]);
}

#[test]
fn traced_agent_batch_matches_the_parallel_engine() {
    let zoo = small_zoo();
    let suites = Suites::load();
    let protocols = Protocols::new(sampling_seed(4, 0));
    for problem in [0, 7, 12] {
        let op = Op::Agent {
            problem,
            level: 2,
            rounds: 3,
        };
        let Outcome::Agent(traced) =
            run_op_traced(&zoo, &suites, op, &protocols, &mut Trace::default())
        else {
            panic!("agent op gave a non-agent outcome");
        };
        let mut opts = protocols.agent.clone();
        opts.protocol.max_feedback_iters = 3;
        opts.workers = 2;
        let parallel = agent_batch(
            zoo.model(ModelId::Ours13B),
            &suites.thakur[problem],
            2,
            &[],
            &opts,
        );
        assert_eq!(traced, parallel, "problem {problem}");
    }
}

#[test]
fn traced_handlers_answer_like_the_daemon() {
    let cx = HandlerCx::bootstrap(8, false);
    let token = CancelToken::new();
    let mut trace = Trace::default();
    let mut generated = HashMap::new();
    for (flavor, n) in [(Flavor::Hot, 90), (Flavor::Cold, 30)] {
        for body in stream(flavor, 11, n) {
            let want = execute(&cx, &body, &token);
            assert_eq!(
                serve::handle_traced(&cx, &body, &mut trace),
                want,
                "{body:?}"
            );
            assert!(
                serve::check(&body, &want, &mut generated),
                "{body:?} -> {want:?}"
            );
        }
    }
    let error = dda_serve::RespBody::Error {
        code: dda_serve::ErrorCode::Deadline,
        message: String::new(),
    };
    assert!(!serve::check(
        &stream(Flavor::Hot, 1, 1)[0],
        &error,
        &mut generated
    ));
}

#[test]
fn traced_bootstrap_builds_the_daemon_model() {
    let daemon = HandlerCx::bootstrap(8, false);
    let traced = serve::bootstrap_traced(8, &mut Trace::default());
    assert_eq!(traced.problems.len(), daemon.problems.len());
    let token = CancelToken::new();
    for body in stream(Flavor::Hot, 2, 40) {
        assert_eq!(
            execute(&traced, &body, &token),
            execute(&daemon, &body, &token)
        );
    }
}
