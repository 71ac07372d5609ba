//! The daemon workloads: one tool-calling client on one connection to
//! an in-process `chipdda serve` daemon on a real Unix socket, closed
//! loop (the next request goes out when the previous answer is back).
//!
//! * `serve_hot` — steady state: `score` of a problem's reference (a
//!   quarter on 8 lockstep lanes), `retrieve` k = 8 and `generate` on a
//!   problem prompt. Set-up warms every problem into the design cache,
//!   so scoring skips the frontend.
//! * `serve_cold` — every request carries input the daemon has never
//!   seen: `score` of a reference with a request-unique comment (parse,
//!   elaborate, compile, cache insert and eviction), `augment` of a
//!   seed-generated corpus module, `repair` of that module broken by
//!   the paper's injection rules. No generation.
//!
//! The traced run replays the live request stream in-process against
//! the same handler context after reproducing the cache state, in
//! alternating slices through [`dda_serve::handlers::execute`] and layer
//! by layer ([`handle_traced`]); every answer must equal the daemon's.

use crate::calibrate::Calibrator;
use crate::clock::{timed, Phase, Timing};
use crate::pipeline::testbench_traced;
use crate::stats;
use crate::trace::Trace;
use crate::{fnv, host, splitmix, Report};
use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::pipeline::{self, PipelineOptions, StageSet};
use dda_core::repair::{break_verilog, RepairOptions};
use dda_corpus::{CorpusModule, Family};
use dda_eval::generation::{testbench_sim_options, TestbenchVerdict};
use dda_runtime::{CancelToken, Priority};
use dda_serve::handlers::{execute, HandlerCx, RETRIEVE_SHARDS};
use dda_serve::proto::MAX_RETRIEVE_K;
use dda_serve::{Client, ReqBody, Request, RespBody, Response, ServeOptions, Server};
use dda_slm::{GenOptions, ShardedTfIdf, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Corpus modules the daemon finetunes its model on at start-up.
pub const MODEL_MODULES: usize = 192;

/// Daemon pool workers (the benchmark host's core count).
const WORKERS: usize = 2;

/// Checker-call budget of every `repair` request.
const REPAIR_BUDGET: u64 = 64;

/// Hits asked of every `retrieve` request.
const RETRIEVE_K: u64 = 8;

/// Lockstep lanes of the multi-lane `score` requests.
const LANES: u64 = 8;

/// Distinct sampling seeds of hot `generate` requests; small, so the
/// stream repeats (prompt, seed) pairs and the answers can be checked
/// against each other.
const GENERATE_SEEDS: u64 = 4;

/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 5;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Repeated inputs the caches hold.
    Hot,
    /// Inputs never seen before.
    Cold,
}

/// The daemon's benchmark problems, in its own (id-sorted) order: the
/// ones a handler context holds.
pub fn problems() -> Vec<VerilogProblem> {
    HandlerCx::bootstrap(0, false)
        .problems
        .into_values()
        .collect()
}

/// A `score` request of a problem's reference on one lane: the request
/// that warms the design cache.
fn reference_score(p: &VerilogProblem) -> ReqBody {
    ReqBody::Score {
        source: p.reference.to_string(),
        problem: Some(p.id.to_string()),
        testbench: None,
        top: "tb".to_string(),
        runs: 1,
    }
}

/// Request `n` of the stream for workload seed `seed`: a pure function,
/// so a seed always yields the same stream.
pub fn request(flavor: Flavor, problems: &[VerilogProblem], seed: u64, n: u64) -> ReqBody {
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ splitmix(n)));
    let p = &problems[rng.gen_range(0..problems.len())];
    let prompt = p.prompts[rng.gen_range(0..p.prompts.len())].clone();
    let score = |source: String, runs: u64| ReqBody::Score {
        source,
        problem: Some(p.id.to_string()),
        testbench: None,
        top: "tb".to_string(),
        runs,
    };
    match (flavor, rng.gen_range(0..3)) {
        (Flavor::Hot, 0) => score(
            p.reference.to_string(),
            if rng.gen_range(0..4) == 0 { LANES } else { 1 },
        ),
        (Flavor::Hot, 1) => ReqBody::Retrieve {
            query: prompt,
            k: RETRIEVE_K,
        },
        (Flavor::Hot, _) => ReqBody::Generate {
            instruct: ALIGN_INSTRUCT.to_string(),
            prompt,
            temperature: 0.1,
            seed: rng.gen_range(0..GENERATE_SEEDS),
        },
        (Flavor::Cold, 0) => score(format!("{}\n// request {seed:x}.{n}\n", p.reference), 1),
        (Flavor::Cold, verb) => {
            let family = Family::ALL[rng.gen_range(0..Family::ALL.len())];
            let module = dda_corpus::generate_module(family, n as usize, &mut rng);
            if verb == 1 {
                ReqBody::Augment {
                    name: module.name,
                    source: module.source,
                    seed: rng.gen(),
                }
            } else {
                let broken = (0..50)
                    .find_map(|_| {
                        break_verilog(&module.source, &RepairOptions::default(), &mut rng)
                    })
                    .map_or_else(|| module.source.replacen(';', "", 1), |b| b.source);
                ReqBody::Repair {
                    name: module.name,
                    source: broken,
                    budget: REPAIR_BUDGET,
                }
            }
        }
    }
}

/// Known-answer check of one response. `generated` remembers the first
/// answer to each (prompt, seed) so repeats must agree.
pub fn check(
    body: &ReqBody,
    resp: &RespBody,
    generated: &mut HashMap<(String, u64), String>,
) -> bool {
    match (body, resp) {
        (
            ReqBody::Score { runs, .. },
            RespBody::Scored {
                verdict,
                pass_rate,
                lanes,
                ..
            },
        ) => verdict == "scored" && *pass_rate == 1.0 && lanes == runs,
        (ReqBody::Retrieve { k, .. }, RespBody::Retrieved { count, jsonl }) => {
            let scores: Vec<f64> = jsonl.lines().filter_map(hit_score).collect();
            count <= k && scores.len() as u64 == *count && scores.windows(2).all(|w| w[0] >= w[1])
        }
        (ReqBody::Generate { prompt, seed, .. }, RespBody::Generated { output }) => {
            generated
                .entry((prompt.clone(), *seed))
                .or_insert_with(|| output.clone())
                == output
        }
        (ReqBody::Augment { .. }, RespBody::Augmented { entries, jsonl, .. }) => {
            jsonl.lines().count() as u64 == *entries
        }
        (ReqBody::Repair { .. }, RespBody::Repaired { .. }) => true,
        _ => false,
    }
}

/// The `score` field of one retrieval hit line.
fn hit_score(line: &str) -> Option<f64> {
    let rest = line.split("\"score\": ").nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

/// The daemon as the benchmark runs it: two workers, journal off.
fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        model_modules: MODEL_MODULES,
        journal: None,
        ..ServeOptions::default()
    }
}

/// A socket path inside the checkout, short enough for `sun_path`.
fn socket_path() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_build");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("perfbench-{}.sock", std::process::id())))
}

fn call(client: &mut Client, id: u64, body: ReqBody) -> Result<Response, String> {
    let req = Request {
        id,
        priority: Priority::Normal,
        deadline_ms: None,
        body,
    };
    client.call(&req).map_err(|e| format!("{e:?}"))
}

/// Scores every problem's reference once over the wire, so the design
/// cache holds them all.
fn warm(client: &mut Client, problems: &[VerilogProblem]) -> Result<(), String> {
    for (i, p) in problems.iter().enumerate() {
        let body = reference_score(p);
        let resp = call(client, i as u64, body.clone())?;
        if !check(&body, &resp.body, &mut HashMap::new()) {
            return Err(format!("warm-up score of {} failed: {:?}", p.id, resp.body));
        }
    }
    Ok(())
}

/// A started, warmed daemon and its one client connection.
struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    fn start(problems: &[VerilogProblem]) -> Result<Daemon, String> {
        let path = socket_path().map_err(|e| e.to_string())?;
        let server = Server::start(&path, &serve_options()).map_err(|e| e.to_string())?;
        let mut client = Client::connect(&path).map_err(|e| format!("{e:?}"))?;
        warm(&mut client, problems)?;
        Ok(Daemon { server, client })
    }

    /// The daemon's `stats` counters.
    fn stats(&mut self) -> Result<dda_serve::StatsBody, String> {
        match call(&mut self.client, u64::MAX, ReqBody::Stats)?.body {
            RespBody::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    /// Drains and joins the daemon (its socket is unlinked).
    fn shutdown(mut self) -> Result<(), String> {
        let resp = call(&mut self.client, u64::MAX - 1, ReqBody::Shutdown);
        drop(self.client);
        self.server.stop();
        self.server.join();
        resp.map(|_| ())
    }
}

/// What a live phase saw: its timings, the requests it sent and a
/// digest of each answer.
struct Live {
    phase: Phase,
    bodies: Vec<ReqBody>,
    answers: Vec<u64>,
}

/// Closed-loop traffic for `seconds` (and at least `min_ops` requests):
/// request `n` is `stream(n)`.
fn live_phase(
    daemon: &mut Daemon,
    stream: impl Fn(u64) -> ReqBody,
    seconds: f64,
    min_ops: usize,
    cal: &mut Calibrator,
    report: &mut Report,
) -> Result<Live, String> {
    let mut phase = Phase::start(seconds);
    let mut bodies = Vec::new();
    let mut answers = Vec::new();
    let mut generated = HashMap::new();
    for n in 0u64.. {
        if phase.elapsed_s() >= seconds && phase.len() >= min_ops {
            break;
        }
        let body = stream(n);
        let resp = phase.op(cal, || call(&mut daemon.client, n, body.clone()))?;
        report.attempted += 1;
        if resp.id != n || !check(&body, &resp.body, &mut generated) {
            report.failed += 1;
            if report.failed <= 3 {
                report.notes.push(format!("failed op {n}: {:?}", resp.body));
            }
        }
        bodies.push(body);
        answers.push(fnv(&format!("{:?}", resp.body)));
    }
    let stats = daemon.stats()?;
    if stats.shed != 0 || stats.timed_out != 0 {
        report.refuse(format!(
            "daemon shed {} and timed out {} requests",
            stats.shed, stats.timed_out
        ));
    }
    report.metric("serve.shed", stats.shed as f64, "count");
    report.metric("serve.timed_out", stats.timed_out as f64, "count");
    Ok(Live {
        phase,
        bodies,
        answers,
    })
}

/// Runs a daemon workload.
pub fn run(flavor: Flavor, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let problems = problems();
    let result = Calibrator::spawn().and_then(|mut cal| {
        if traced {
            run_traced(flavor, &problems, seed, seconds, &mut cal, &mut report)?;
        } else {
            run_untraced(flavor, &problems, seed, seconds, &mut cal, &mut report)?;
        }
        cal.error().map_or(Ok(()), |e| Err(e.to_string()))
    });
    if let Err(e) = result {
        report.refuse(e);
    }
    report
}

/// The untraced run: set-ups, then the live phase.
fn run_untraced(
    flavor: Flavor,
    problems: &[VerilogProblem],
    seed: u64,
    seconds: f64,
    cal: &mut Calibrator,
    report: &mut Report,
) -> Result<(), String> {
    // The calibration bursts around every set-up are pooled into one
    // slowness.
    let setups_start = Instant::now();
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        dda_sim::cache::clear();
        let (started, setup) = timed(cal, || Daemon::start(problems));
        daemon = Some(started?);
        setups.push(setup.net_s());
    }
    let setup_slowness = cal.slowness_since(setups_start);
    let mut daemon = daemon.expect("at least one set-up");
    let live = live_phase(
        &mut daemon,
        |n| request(flavor, problems, seed, n),
        seconds,
        crate::pipeline::MIN_OPS,
        cal,
        report,
    );
    daemon.shutdown()?;
    let live = live?;
    let (samples, steal_s) = live.phase.finish(cal);
    report.host_note(&steal_s, cal.slowness_since(live.phase.started()));
    report.wall_note(&live.phase.ops, seconds);
    let lat = stats::summarise(&samples, seconds, stats::WINDOWS).map_err(|e| e.to_string())?;
    report.metric("setup_s", stats::median(&setups) / setup_slowness, "s");
    report.latency(&lat, &live.phase);
    Ok(())
}

/// The traced run: set-up layers, a live phase of half the run for the
/// round trips, then an in-process replay of the same requests that
/// alternates plain and traced slices.
fn run_traced(
    flavor: Flavor,
    problems: &[VerilogProblem],
    seed: u64,
    seconds: f64,
    cal: &mut Calibrator,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_trace = Trace::default();
    let (cx, setup) = timed(cal, || bootstrap_traced(MODEL_MODULES, &mut setup_trace));
    report.setup_layers(&setup_trace, setup.factor());

    dda_sim::cache::clear();
    let mut daemon = Daemon::start(problems)?;
    let steal0 = host::steal_seconds();
    let cache0 = dda_sim::cache::stats();
    let live = live_phase(
        &mut daemon,
        |n| request(flavor, problems, seed, n),
        seconds / 2.0,
        1,
        cal,
        report,
    );
    report.cache_layers(&cache0);
    daemon.shutdown()?;
    let live = live?;
    let ops = live.bodies.len().max(1) as f64;
    let rtt: f64 = live.phase.finish(cal).0.iter().map(|s| s.ms).sum();
    let rtt_per_op = rtt / ops;

    // Replay in the live phase's cache state, alternating slices of
    // plain ops (the daemon's own handler) and traced ops (codec and
    // handler layer by layer), so both run on equally noisy time. Every
    // answer must equal the one the daemon gave over the socket.
    warm_local(&cx);
    let token = CancelToken::new();
    let mut trace = Trace::default();
    // (ops, handler ms) of the plain and traced slices.
    let mut slices = [(0usize, 0.0f64); 2];
    let mut diverged = 0;
    let steal_before = host::steal_seconds();
    let start = Instant::now();
    for (n, (body, answer)) in live.bodies.iter().zip(&live.answers).enumerate() {
        cal.tick();
        let in_trace = (start.elapsed().as_secs_f64() / crate::TRACE_SLICE_S) as usize % 2 == 1;
        let (resp, handler) = if in_trace {
            traced_op(&cx, n as u64, body, &mut trace)?
        } else {
            let t = Instant::now();
            let resp = execute(&cx, body, &token);
            (resp, t.elapsed())
        };
        let slice = &mut slices[usize::from(in_trace)];
        slice.0 += 1;
        slice.1 += handler.as_secs_f64() * 1e3;
        if fnv(&format!("{resp:?}")) != *answer {
            diverged += 1;
        }
    }
    let replay = Timing {
        wall_s: start.elapsed().as_secs_f64(),
        steal_s: host::steal_seconds() - steal_before,
        slowness: cal.slowness_since(start),
    };
    if diverged > 0 {
        report.failed += diverged;
        report.notes.push(format!(
            "{diverged} replayed answers differ from the daemon's"
        ));
    }
    report.host_note(&[host::steal_seconds() - steal0], replay.slowness);

    let [plain, traced] = slices;
    let factor = replay.factor();
    report.op_layers(&trace, traced.0, factor);
    let per_op = |layer: &str| trace.get(layer).ms() * factor / traced.0.max(1) as f64;
    let handlers: f64 = HANDLER_LAYERS.iter().map(|l| per_op(l)).sum();
    let inner: f64 = INNER_LAYERS.iter().map(|l| per_op(l)).sum();
    let codec = per_op("serve.codec");
    report.metric("serve.overhead.ms", rtt_per_op - handlers - codec, "ms");
    report.metric("unattributed.ms", handlers - inner, "ms");
    report.metric("coverage.pct", 100.0 * (inner + codec) / rtt_per_op, "%");
    let rate = |(n, ms): (usize, f64)| n as f64 / ms;
    report.metric(
        "trace.overhead_pct",
        100.0 * (rate(plain) / rate(traced) - 1.0),
        "%",
    );
    Ok(())
}

/// One replayed op as the daemon runs it, traced: the request through
/// the codec, [`handle_traced`] (its whole time also booked to the
/// verb's `serve.handler` layer), the response through the codec.
/// Returns the answer and the handler's time.
fn traced_op(
    cx: &HandlerCx,
    id: u64,
    body: &ReqBody,
    trace: &mut Trace,
) -> Result<(RespBody, Duration), String> {
    let req = Request {
        id,
        priority: Priority::Normal,
        deadline_ms: None,
        body: body.clone(),
    };
    trace
        .time("serve.codec", || Request::from_line(&req.to_line()))
        .map_err(|e| e.message)?;
    let t = Instant::now();
    let resp = handle_traced(cx, body, trace);
    let handler = t.elapsed();
    trace.add(handler_layer(body), handler);
    let resp = Response {
        id,
        verb: body.verb().to_string(),
        body: resp,
    };
    trace
        .time("serve.codec", || Response::from_line(&resp.to_line()))
        .map_err(|e| e.message)?;
    Ok((resp.body, handler))
}

/// Layers the handlers call into.
const INNER_LAYERS: [&str; 6] = [
    "slm.generate",
    "slm.retrieve",
    "slm.fixer",
    "core.augment.served",
    "sim.frontend",
    "sim.run",
];

const HANDLER_LAYERS: [&str; 5] = [
    "serve.handler.score",
    "serve.handler.retrieve",
    "serve.handler.generate",
    "serve.handler.augment",
    "serve.handler.repair",
];

fn handler_layer(body: &ReqBody) -> &'static str {
    match body {
        ReqBody::Score { .. } => "serve.handler.score",
        ReqBody::Retrieve { .. } => "serve.handler.retrieve",
        ReqBody::Generate { .. } => "serve.handler.generate",
        ReqBody::Augment { .. } => "serve.handler.augment",
        _ => "serve.handler.repair",
    }
}

/// Reproduces the daemon's cache state after set-up in this thread:
/// the global tier emptied, then every reference scored once.
pub fn warm_local(cx: &HandlerCx) {
    dda_sim::cache::clear();
    let token = CancelToken::new();
    for p in cx.problems.values() {
        execute(cx, &reference_score(p), &token);
    }
}

/// [`HandlerCx::bootstrap`] for a finetuned model, one layer call at a
/// time.
pub fn bootstrap_traced(model_modules: usize, trace: &mut Trace) -> HandlerCx {
    let problems = HandlerCx::bootstrap(0, false).problems;
    let mut rng = SmallRng::seed_from_u64(2024);
    let corpus = trace.time("corpus.generate", || {
        dda_corpus::generate_corpus(model_modules, &mut rng)
    });
    let opts = served_pipeline();
    let (ds, _) = trace.time("core.augment", || {
        pipeline::augment(&corpus, &opts, &mut rng)
    });
    let slm = trace.time("slm.finetune", || {
        Slm::finetune(SlmProfile::llama2(13.0), &ds, &PROGRESSIVE_ORDER)
    });
    let mut rrng = SmallRng::seed_from_u64(4242);
    let retrieve_corpus = trace.time("corpus.generate", || {
        dda_corpus::generate_corpus(model_modules.max(Family::ALL.len()), &mut rrng)
    });
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
        fault_injection: false,
    }
}

/// The daemon's augmentation pipeline: every stage but EDA scripts.
fn served_pipeline() -> PipelineOptions {
    PipelineOptions {
        stages: StageSet {
            eda_script: false,
            ..StageSet::FULL
        },
        ..PipelineOptions::default()
    }
}

/// `dda_serve::handlers::execute` for the benchmark's verbs, one layer
/// call at a time. Answers equal `execute`'s exactly.
pub fn handle_traced(cx: &HandlerCx, body: &ReqBody, trace: &mut Trace) -> RespBody {
    match body {
        ReqBody::Score {
            source,
            problem: Some(id),
            runs,
            ..
        } => {
            let Some(p) = cx.problems.get(id) else {
                return execute(cx, body, &CancelToken::new());
            };
            let lanes = (*runs).clamp(1, dda_sim::MAX_BATCH_LANES as u64);
            let opts = testbench_sim_options(&CancelToken::new());
            let verdict = testbench_traced(p, source, lanes as usize, &opts, trace);
            let (verdict_s, detail) = match &verdict {
                TestbenchVerdict::Scored(_) => ("scored", String::new()),
                TestbenchVerdict::ParseError(m) => ("parse_error", m.clone()),
                TestbenchVerdict::ElabError(m) => ("elab_error", m.clone()),
                TestbenchVerdict::Timeout(m) => ("timeout", m.clone()),
                TestbenchVerdict::Crash(m) => ("crash", m.clone()),
            };
            RespBody::Scored {
                verdict: verdict_s.to_string(),
                pass_rate: verdict.pass_rate(),
                detail,
                lanes,
            }
        }
        ReqBody::Retrieve { query, k } => {
            let k = (*k).clamp(1, MAX_RETRIEVE_K) as usize;
            let hits = trace.time("slm.retrieve", || cx.retrieval.query(query, k));
            let mut jsonl = String::new();
            for h in &hits {
                let m = &cx.retrieve_corpus[h.id as usize];
                jsonl.push_str(&format!(
                    "{{\"id\": {}, \"score\": {}, \"name\": \"{}\", \"source\": \"{}\"}}\n",
                    h.id,
                    h.score,
                    dda_core::json::escape(&m.name),
                    dda_core::json::escape(&m.source),
                ));
            }
            RespBody::Retrieved {
                count: hits.len() as u64,
                jsonl,
            }
        }
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
            let output = trace.time("slm.generate", || {
                cx.slm.generate(instruct, prompt, &opts, &mut rng)
            });
            RespBody::Generated { output }
        }
        ReqBody::Augment { name, source, seed } => {
            let module = CorpusModule {
                family: Family::WireBuf,
                name: name.clone(),
                source: source.clone(),
            };
            let opts = served_pipeline();
            let mut rng = SmallRng::seed_from_u64(*seed);
            let (ds, report) = trace.time("core.augment.served", || {
                pipeline::augment(std::slice::from_ref(&module), &opts, &mut rng)
            });
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
        ReqBody::Repair {
            name,
            source,
            budget,
        } => {
            let file = format!("{name}.v");
            let out = trace.time("slm.fixer", || {
                dda_slm::fixer::try_fix(&file, source, *budget as usize)
            });
            RespBody::Repaired {
                source: out.source,
                clean: out.clean,
                cost: out.cost as u64,
            }
        }
        _ => execute(cx, body, &CancelToken::new()),
    }
}
