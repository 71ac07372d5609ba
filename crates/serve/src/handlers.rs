//! Data-plane request execution.
//!
//! One [`HandlerCx`] is built at startup and shared (read-only) by every
//! pool worker; [`execute`] maps a decoded [`ReqBody`] plus the worker's
//! [`CancelToken`] to a [`RespBody`]. Handlers are pure with respect to
//! the service: they touch only the context, the process-global design
//! cache, and the token. Deadline enforcement happens at two levels —
//! cooperative (the simulator polls the token mid-run) and a final check
//! here so CPU-bound stages that finished after the deadline still
//! report `deadline` rather than a stale success.

use crate::proto::{ErrorCode, ReqBody, RespBody};
use dda_core::pipeline::{self, PipelineOptions, StageSet};
use dda_corpus::{CorpusModule, Family};
use dda_eval::generation::{run_testbench_verdict_with, testbench_sim_options, TestbenchVerdict};
use dda_eval::{agent_batch, AgentBatchOptions, AgentProtocol};
use dda_obs::event::escape;
use dda_runtime::CancelToken;
use dda_slm::{GenOptions, ShardedTfIdf, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Shard count for the resident retrieval index: enough shards that the
/// daemon's `retrieve` path always exercises the multi-shard pruned query
/// (and the `slm.shard.merge` failpoint), small enough that bootstrap
/// stays instant.
pub const RETRIEVE_SHARDS: usize = 4;

/// Floor on the retrieval corpus size, one module per generator family,
/// so `retrieve` has every design family to draw from even when the
/// daemon runs a pretrained model (`--model-modules 0`).
const RETRIEVE_CORPUS_MIN: usize = 49;

/// Read-only state shared by all workers.
pub struct HandlerCx {
    /// The resident model used by `generate`.
    pub slm: Slm,
    /// Benchmark problems by id (Thakur + RTLLM suites).
    pub problems: BTreeMap<String, dda_benchmarks::VerilogProblem>,
    /// Corpus modules behind the retrieval index; [`ShardedTfIdf`] hit
    /// ids are indices into this vec.
    pub retrieve_corpus: Vec<CorpusModule>,
    /// Sharded index over `retrieve_corpus` (name + source text).
    pub retrieval: ShardedTfIdf,
    /// Whether `poison` requests are honored (chaos tests only).
    pub fault_injection: bool,
}

impl HandlerCx {
    /// Builds the startup context: benchmark suites indexed by id, plus a
    /// resident SLM. With `model_modules > 0` the model is finetuned on an
    /// augmented corpus of that many generated modules (the paper's
    /// pipeline, EDA stage off to keep startup fast); with `0` it stays
    /// pretrained.
    pub fn bootstrap(model_modules: usize, fault_injection: bool) -> HandlerCx {
        let mut problems = BTreeMap::new();
        for p in dda_benchmarks::thakur_suite()
            .into_iter()
            .chain(dda_benchmarks::rtllm_suite())
        {
            problems.insert(p.id.to_string(), p);
        }
        let profile = SlmProfile::llama2(13.0);
        let slm = if model_modules == 0 {
            Slm::pretrained(profile)
        } else {
            let mut rng = SmallRng::seed_from_u64(2024);
            let corpus = dda_corpus::generate_corpus(model_modules, &mut rng);
            let opts = PipelineOptions {
                stages: StageSet {
                    eda_script: false,
                    ..StageSet::FULL
                },
                ..PipelineOptions::default()
            };
            let (ds, _report) = pipeline::augment(&corpus, &opts, &mut rng);
            Slm::finetune(profile, &ds, &PROGRESSIVE_ORDER)
        };
        // Retrieval corpus: its own RNG stream so the model above stays
        // byte-identical to pre-retrieval daemons.
        let mut rrng = SmallRng::seed_from_u64(4242);
        let retrieve_corpus =
            dda_corpus::generate_corpus(model_modules.max(RETRIEVE_CORPUS_MIN), &mut rrng);
        let mut retrieval = ShardedTfIdf::new(RETRIEVE_SHARDS);
        for (i, m) in retrieve_corpus.iter().enumerate() {
            retrieval
                .insert(i as u64, &format!("{} {}", m.name, m.source))
                .expect("corpus ids are unique by construction");
        }
        HandlerCx {
            slm,
            problems,
            retrieve_corpus,
            retrieval,
            fault_injection,
        }
    }
}

fn deadline_error(token: &CancelToken) -> Option<RespBody> {
    if token.is_cancelled() {
        Some(RespBody::Error {
            code: ErrorCode::Deadline,
            message: "wall-clock deadline expired".to_string(),
        })
    } else {
        None
    }
}

/// Executes one data-plane request body on a worker thread.
///
/// Never panics for well-formed contexts except via `Poison` (and the
/// service wraps the call in `catch_unwind` regardless, so even handler
/// bugs become structured `panic` responses).
pub fn execute(cx: &HandlerCx, body: &ReqBody, token: &CancelToken) -> RespBody {
    if let Some(err) = deadline_error(token) {
        return err;
    }
    let resp = match body {
        ReqBody::Ping | ReqBody::Stats | ReqBody::Health | ReqBody::Ready | ReqBody::Shutdown => {
            RespBody::Error {
                code: ErrorCode::BadRequest,
                message: format!("`{}` is a control verb, not pool work", body.verb()),
            }
        }
        ReqBody::Poison => {
            if cx.fault_injection {
                panic!("poison request (fault injection enabled)");
            }
            RespBody::Error {
                code: ErrorCode::BadRequest,
                message: "poison requires --fault-injection".to_string(),
            }
        }
        ReqBody::Augment { name, source, seed } => run_augment(name, source, *seed),
        ReqBody::Generate {
            instruct,
            prompt,
            temperature,
            seed,
        } => {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let opts = GenOptions {
                temperature: *temperature,
            };
            RespBody::Generated {
                output: cx.slm.generate(instruct, prompt, &opts, &mut rng),
            }
        }
        ReqBody::Repair {
            name,
            source,
            budget,
        } => {
            let file = format!("{name}.v");
            let out = dda_slm::fixer::try_fix(&file, source, *budget as usize);
            RespBody::Repaired {
                source: out.source,
                clean: out.clean,
                cost: out.cost as u64,
            }
        }
        ReqBody::Retrieve { query, k } => run_retrieve(cx, query, *k),
        ReqBody::Agent {
            problem,
            level,
            k,
            rounds,
            early_exit,
            rag_k,
            seed,
            ..
        } => run_agent(
            cx,
            problem,
            *level,
            *k,
            *rounds,
            *early_exit,
            *rag_k,
            *seed,
            token,
        ),
        ReqBody::Score {
            source,
            problem,
            testbench,
            top,
            runs,
        } => run_score(
            cx,
            source,
            problem.as_deref(),
            testbench.as_deref(),
            top,
            *runs,
            token,
        ),
    };
    // CPU-bound stages (augment, repair) don't poll the token; surface an
    // expired deadline instead of returning work the client gave up on.
    deadline_error(token).unwrap_or(resp)
}

fn run_augment(name: &str, source: &str, seed: u64) -> RespBody {
    let module = CorpusModule {
        family: Family::WireBuf,
        name: name.to_string(),
        source: source.to_string(),
    };
    let opts = PipelineOptions {
        stages: StageSet {
            eda_script: false,
            ..StageSet::FULL
        },
        ..PipelineOptions::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let (ds, report) = pipeline::augment(std::slice::from_ref(&module), &opts, &mut rng);
    let mut jsonl = String::new();
    for (_kind, entry) in ds.iter() {
        jsonl.push_str(&dda_core::json::to_json_line(entry));
        jsonl.push('\n');
    }
    RespBody::Augmented {
        entries: ds.len() as u64,
        quarantined: report.quarantines.len() as u64,
        jsonl,
    }
}

/// K-nearest corpus modules for a free-text query, best first. The
/// sharded query path runs the `slm.shard.merge` failpoint site, so
/// chaos schedules can kill a worker mid-query; the index is read-only
/// here, so a replayed request always sees the same state.
fn run_retrieve(cx: &HandlerCx, query: &str, k: u64) -> RespBody {
    let k = k.clamp(1, crate::proto::MAX_RETRIEVE_K) as usize;
    let hits = cx.retrieval.query(query, k);
    let mut jsonl = String::new();
    for h in &hits {
        let m = &cx.retrieve_corpus[h.id as usize];
        let _ = writeln!(
            jsonl,
            "{{\"id\": {}, \"score\": {}, \"name\": \"{}\", \"source\": \"{}\"}}",
            h.id,
            h.score,
            escape(&m.name),
            escape(&m.source),
        );
    }
    RespBody::Retrieved {
        count: hits.len() as u64,
        jsonl,
    }
}

/// Runs one pass@k tool-in-the-loop agent batch on the worker thread.
///
/// The daemon runs chains sequentially (`workers: 1`) — parallelism in
/// the daemon comes from the request pool, not nested engines — so one
/// `agent` request costs one worker, and the outcome is the sequential
/// reference outcome by construction. The request deadline carries into
/// the batch as the per-chain deadline; with `rag_k > 0` each chain's
/// repair prompts pull that many context documents from the resident
/// retrieval index (queried with the problem prompt itself). The request's
/// `runs` is accepted for wire compatibility and changes nothing: the batch
/// scores each distinct candidate once.
#[allow(clippy::too_many_arguments)]
fn run_agent(
    cx: &HandlerCx,
    problem: &str,
    level: u64,
    k: u64,
    rounds: u64,
    early_exit: bool,
    rag_k: u64,
    seed: u64,
    token: &CancelToken,
) -> RespBody {
    let Some(p) = cx.problems.get(problem) else {
        return RespBody::Error {
            code: ErrorCode::BadRequest,
            message: format!("unknown problem `{problem}`"),
        };
    };
    let level = (level as usize).min(p.prompts.len().saturating_sub(1));
    let context: Vec<String> = if rag_k > 0 {
        cx.retrieval
            .query(&p.prompts[level], rag_k as usize)
            .into_iter()
            .map(|h| cx.retrieve_corpus[h.id as usize].source.clone())
            .collect()
    } else {
        Vec::new()
    };
    let opts = AgentBatchOptions {
        k: k as usize,
        protocol: AgentProtocol {
            max_feedback_iters: rounds as usize,
            seed,
            ..AgentProtocol::default()
        },
        workers: 1,
        early_exit,
        chain_deadline: token.remaining(),
        ..AgentBatchOptions::default()
    };
    let out = agent_batch(&cx.slm, p, level, &context, &opts);
    let mut jsonl = String::new();
    for c in &out.chains {
        let _ = writeln!(
            jsonl,
            "{{\"chain\": {}, \"rounds\": {}, \"lint\": {}, \"function\": {}, \
             \"repaired\": {}, \"cancelled\": {}}}",
            c.chain, c.rounds, c.lint_clean, c.function, c.repaired_by_loop, c.cancelled,
        );
    }
    RespBody::AgentReport {
        passed: out.passed(),
        winner: out.winner.map(|w| w as u64),
        chains: out.chains.len() as u64,
        rounds_total: out.rounds_total as u64,
        quarantined: out.quarantined as u64,
        jsonl,
    }
}

fn run_score(
    cx: &HandlerCx,
    source: &str,
    problem: Option<&str>,
    testbench: Option<&str>,
    top: &str,
    runs: u64,
    token: &CancelToken,
) -> RespBody {
    let opts = testbench_sim_options(token);
    // Every lane of a `runs > 1` request is the same deterministic run, so
    // one scalar run stands for all of them; `lanes` echoes the count.
    let lanes = runs.clamp(1, dda_sim::MAX_BATCH_LANES as u64);
    let verdict = match (problem, testbench) {
        (Some(id), None) => match cx.problems.get(id) {
            Some(p) => run_testbench_verdict_with(p, source, &opts),
            None => {
                return RespBody::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("unknown problem `{id}`"),
                }
            }
        },
        (None, Some(tb)) => score_inline(source, tb, top, &opts),
        _ => {
            return RespBody::Error {
                code: ErrorCode::BadRequest,
                message: "score needs exactly one of `problem` or `testbench`".to_string(),
            }
        }
    };
    // A wall-timeout verdict under an expired token is the deadline, not a
    // slow design.
    if verdict.is_timeout() {
        if let Some(err) = deadline_error(token) {
            return err;
        }
    }
    let detail = match &verdict {
        TestbenchVerdict::Scored(_) => String::new(),
        TestbenchVerdict::ParseError(m)
        | TestbenchVerdict::ElabError(m)
        | TestbenchVerdict::Timeout(m)
        | TestbenchVerdict::Crash(m) => m.clone(),
    };
    RespBody::Scored {
        verdict: verdict.kind().to_string(),
        pass_rate: verdict.pass_rate(),
        detail,
        lanes,
    }
}

/// Scores a candidate against an inline testbench by hitting the shared
/// design cache directly, mirroring `run_testbench_verdict_with` for
/// sources that aren't part of a registered suite.
fn score_inline(
    source: &str,
    testbench: &str,
    top: &str,
    opts: &dda_sim::SimOptions,
) -> TestbenchVerdict {
    use dda_sim::cache::{shared_design, FrontendError};
    use dda_sim::Simulator;
    let src = format!("{source}\n{testbench}");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<TestbenchVerdict, TestbenchVerdict> {
            let design = shared_design(&src, top).map_err(|e| match e {
                FrontendError::Parse(m) => TestbenchVerdict::ParseError(m),
                FrontendError::Elab(e) => TestbenchVerdict::ElabError(e.message),
            })?;
            let result = Simulator::from_design(design)
                .run(opts)
                .map_err(|e| TestbenchVerdict::Timeout(e.to_string()))?;
            Ok(match dda_benchmarks::parse_result(&result.output) {
                Some((pass, total)) if total > 0 => {
                    TestbenchVerdict::Scored(pass as f64 / total as f64)
                }
                _ => TestbenchVerdict::Scored(0.0),
            })
        },
    ));
    match outcome {
        Ok(Ok(v)) | Ok(Err(v)) => v,
        Err(_) => TestbenchVerdict::Crash("simulator panic".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx() -> HandlerCx {
        HandlerCx::bootstrap(0, false)
    }

    #[test]
    fn score_against_registered_problem() {
        let cx = cx();
        let p = cx.problems.values().next().unwrap();
        let reference = p.reference.to_string();
        let body = ReqBody::Score {
            source: reference,
            problem: Some(p.id.to_string()),
            testbench: None,
            top: "tb".to_string(),
            runs: 1,
        };
        match execute(&cx, &body, &CancelToken::new()) {
            RespBody::Scored {
                verdict,
                pass_rate,
                lanes,
                ..
            } => {
                assert_eq!(verdict, "scored");
                assert_eq!(lanes, 1);
                assert!((pass_rate - 1.0).abs() < 1e-9, "reference must pass");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn batched_score_matches_scalar() {
        let cx = cx();
        let p = cx.problems.values().next().unwrap();
        let score = |runs: u64| ReqBody::Score {
            source: p.reference.to_string(),
            problem: Some(p.id.to_string()),
            testbench: None,
            top: "tb".to_string(),
            runs,
        };
        let scalar = execute(&cx, &score(1), &CancelToken::new());
        match execute(&cx, &score(8), &CancelToken::new()) {
            RespBody::Scored {
                verdict,
                pass_rate,
                detail,
                lanes,
            } => {
                assert_eq!(lanes, 8);
                match scalar {
                    RespBody::Scored {
                        verdict: sv,
                        pass_rate: sp,
                        detail: sd,
                        lanes: sl,
                    } => {
                        assert_eq!((verdict, pass_rate, detail), (sv, sp, sd));
                        assert_eq!(sl, 1);
                    }
                    other => panic!("unexpected scalar response: {other:?}"),
                }
            }
            other => panic!("unexpected batched response: {other:?}"),
        }
    }

    #[test]
    fn batched_inline_score_matches_scalar() {
        let cx = cx();
        let source = "module bw(input in, output out);\nassign out = in;\nendmodule\n";
        let tb = "module tb;\nreg in; wire out;\nbw dut(.in(in), .out(out));\n\
                  integer pass; integer total;\ninitial begin\n  pass = 0; total = 0;\n  \
                  in = 0; #1 total = total + 1; if (out === 1'b0) pass = pass + 1;\n  \
                  in = 1; #1 total = total + 1; if (out === 1'b1) pass = pass + 1;\n  \
                  $display(\"RESULT %0d %0d\", pass, total);\n  $finish;\nend\nendmodule\n";
        let score = |runs: u64| ReqBody::Score {
            source: source.to_string(),
            problem: None,
            testbench: Some(tb.to_string()),
            top: "tb".to_string(),
            runs,
        };
        for runs in [4u64, 64] {
            match (
                execute(&cx, &score(1), &CancelToken::new()),
                execute(&cx, &score(runs), &CancelToken::new()),
            ) {
                (
                    RespBody::Scored {
                        verdict: sv,
                        pass_rate: sp,
                        detail: sd,
                        ..
                    },
                    RespBody::Scored {
                        verdict,
                        pass_rate,
                        detail,
                        lanes,
                    },
                ) => {
                    assert_eq!(lanes, runs);
                    assert_eq!((verdict, pass_rate, detail), (sv, sp, sd));
                    assert!((pass_rate - 1.0).abs() < 1e-9);
                }
                other => panic!("unexpected responses: {other:?}"),
            }
        }
    }

    #[test]
    fn score_unknown_problem_is_bad_request() {
        let body = ReqBody::Score {
            source: "module m; endmodule".into(),
            problem: Some("no_such_problem".into()),
            testbench: None,
            top: "tb".into(),
            runs: 1,
        };
        match execute(&cx(), &body, &CancelToken::new()) {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn augment_produces_entries() {
        let body = ReqBody::Augment {
            name: "wirebuf".into(),
            source: "module wirebuf(input a, output y);\nassign y = a;\nendmodule\n".into(),
            seed: 1,
        };
        match execute(&cx(), &body, &CancelToken::new()) {
            RespBody::Augmented { entries, jsonl, .. } => {
                assert!(entries > 0);
                assert_eq!(jsonl.lines().count() as u64, entries);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn expired_token_short_circuits_to_deadline() {
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let body = ReqBody::Generate {
            instruct: String::new(),
            prompt: "a counter".into(),
            temperature: 0.1,
            seed: 3,
        };
        match execute(&cx(), &body, &token) {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::Deadline),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn retrieve_returns_ranked_known_modules() {
        let cx = cx();
        assert!(cx.retrieve_corpus.len() >= 49);
        assert_eq!(cx.retrieval.shard_count(), RETRIEVE_SHARDS);
        // Query with a module's own name + source: that module must win.
        let target = &cx.retrieve_corpus[7];
        let query = format!("{} {}", target.name, target.source);
        let body = ReqBody::Retrieve { query, k: 3 };
        match execute(&cx, &body, &CancelToken::new()) {
            RespBody::Retrieved { count, jsonl } => {
                assert_eq!(count, 3);
                assert_eq!(jsonl.lines().count(), 3);
                let first = jsonl.lines().next().unwrap();
                assert!(
                    first.starts_with("{\"id\": 7, "),
                    "self-query must rank the module itself first: {first}"
                );
                assert!(first.contains(&format!("\"name\": \"{}\"", escape(&target.name))));
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn retrieve_with_unknown_terms_is_empty_ok() {
        let body = ReqBody::Retrieve {
            query: "zzz qqq xyzzy".into(),
            k: 5,
        };
        match execute(&cx(), &body, &CancelToken::new()) {
            RespBody::Retrieved { count, jsonl } => {
                assert_eq!(count, 0);
                assert!(jsonl.is_empty());
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn agent_report_reconciles_with_library_outcome() {
        let cx = cx();
        let p = cx.problems.values().next().unwrap();
        let body = ReqBody::Agent {
            problem: p.id.to_string(),
            level: 2,
            k: 2,
            rounds: 1,
            early_exit: false,
            rag_k: 0,
            runs: 1,
            seed: crate::proto::DEFAULT_AGENT_SEED,
        };
        let resp = execute(&cx, &body, &CancelToken::new());
        // The daemon runs the sequential-reference configuration, so the
        // report must equal a direct library call with the same knobs
        // (the daemon clamps the level to the problem's prompt count).
        let level = 2usize.min(p.prompts.len() - 1);
        let want = agent_batch(
            &cx.slm,
            p,
            level,
            &[],
            &AgentBatchOptions {
                k: 2,
                protocol: AgentProtocol {
                    max_feedback_iters: 1,
                    ..AgentProtocol::default()
                },
                ..AgentBatchOptions::default()
            },
        );
        match resp {
            RespBody::AgentReport {
                passed,
                winner,
                chains,
                rounds_total,
                quarantined,
                jsonl,
            } => {
                assert_eq!(passed, want.passed());
                assert_eq!(winner, want.winner.map(|w| w as u64));
                assert_eq!(chains, want.chains.len() as u64);
                assert_eq!(rounds_total, want.rounds_total as u64);
                assert_eq!(quarantined, 0);
                assert_eq!(jsonl.lines().count() as u64, chains);
                for (line, c) in jsonl.lines().zip(&want.chains) {
                    assert!(
                        line.contains(&format!("\"rounds\": {}", c.rounds)),
                        "chain {} detail drifted: {line}",
                        c.chain
                    );
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn agent_with_rag_context_still_reports_every_chain() {
        let cx = cx();
        let p = cx.problems.values().next().unwrap();
        let body = ReqBody::Agent {
            problem: p.id.to_string(),
            level: 0,
            k: 2,
            rounds: 1,
            early_exit: true,
            rag_k: 2,
            runs: 4,
            seed: 7,
        };
        match execute(&cx, &body, &CancelToken::new()) {
            RespBody::AgentReport { chains, jsonl, .. } => {
                assert_eq!(chains, 2);
                assert_eq!(jsonl.lines().count(), 2);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn agent_unknown_problem_is_bad_request() {
        let body = ReqBody::Agent {
            problem: "no_such_problem".into(),
            level: 2,
            k: 1,
            rounds: 0,
            early_exit: false,
            rag_k: 0,
            runs: 1,
            seed: 1,
        };
        match execute(&cx(), &body, &CancelToken::new()) {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn poison_without_fault_injection_is_bad_request() {
        match execute(&cx(), &ReqBody::Poison, &CancelToken::new()) {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}
