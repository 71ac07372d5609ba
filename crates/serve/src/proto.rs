//! Typed request/response messages and their JSON object codec.
//!
//! One frame ([`crate::wire`]) carries one flat JSON object in the
//! workspace's one JSON codec, `dda_obs::event` (the escaping and parsing
//! the trace files, dataset JSONL and journals use too). Requests use the
//! verb as the `"ev"` kind:
//!
//! ```json
//! {"ev": "score", "id": 7, "priority": "high", "deadline_ms": 2000,
//!  "source": "module simple_wire(...); ... endmodule", "problem": "simple_wire"}
//! ```
//!
//! Responses are `"ev": "response"` objects echoing the request id and
//! verb with a `status` of `"ok"` or `"error"`; errors carry a stable
//! machine-readable `code` (see [`ErrorCode`]) plus a human message:
//!
//! ```json
//! {"ev": "response", "id": 7, "verb": "score", "status": "ok",
//!  "verdict": "scored", "pass_rate": 1}
//! {"ev": "response", "id": 9, "verb": "augment", "status": "error",
//!  "code": "overloaded", "message": "pool queue full (64 jobs queued)"}
//! ```
//!
//! Decoding is strict where it matters (unknown verbs, missing required
//! fields, wrong field types are [`ProtoError`]s that become structured
//! `bad_request` responses, never panics) and lenient where it helps
//! (unknown *extra* fields are ignored, so the protocol can grow).

use dda_obs::event::{encode, parse, Event, Value};
use dda_runtime::Priority;

/// Ceiling on the simulator deadline a request may ask for, so one
/// request cannot park a worker for minutes (`deadline_ms` is clamped to
/// this at decode time).
pub const MAX_DEADLINE_MS: u64 = 60_000;

/// Ceiling on the hit count a `retrieve` request may ask for (`k` is
/// clamped to this at decode time, and zero means 1).
pub const MAX_RETRIEVE_K: u64 = 64;

/// Ceiling on the candidate chains an `agent` request may ask for (`k`
/// is clamped to this at decode time, and zero means 1).
pub const MAX_AGENT_K: u64 = 16;

/// Ceiling on the tool-feedback rounds an `agent` request may ask for
/// (`rounds` is clamped to this at decode time).
pub const MAX_AGENT_ROUNDS: u64 = 8;

/// Default chains per `agent` request (the paper's pass@5 protocol).
pub const DEFAULT_AGENT_K: u64 = 5;

/// Default tool-feedback round budget per `agent` chain.
pub const DEFAULT_AGENT_ROUNDS: u64 = 3;

/// Default prompt detail level for `agent` requests (the most detailed
/// of the three levels each benchmark problem carries).
pub const DEFAULT_AGENT_LEVEL: u64 = 2;

/// Default `agent` sampling seed (matches `dda_eval::AgentProtocol`).
pub const DEFAULT_AGENT_SEED: u64 = 7331;

/// The work a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqBody {
    /// Liveness probe; answered inline, bypassing admission control.
    Ping,
    /// Service/cache/pool counters; answered inline.
    Stats,
    /// Liveness + provenance probe: uptime, supervisor generation,
    /// replay count, failpoint build flavor. Answered inline.
    Health,
    /// Readiness probe: whether the daemon is accepting data-plane work
    /// (journal replay submitted, not draining). Answered inline.
    Ready,
    /// Begin graceful drain; answered inline, then the daemon stops
    /// accepting, finishes admitted work, and exits.
    Shutdown,
    /// Run the augmentation pipeline over one Verilog module.
    Augment {
        /// Module (file-stem) name, used in diagnostics and repair pairs.
        name: String,
        /// Verilog source text.
        source: String,
        /// Pipeline RNG seed.
        seed: u64,
    },
    /// Sample the service's SLM.
    Generate {
        /// Instruction (defaults to the NL→Verilog alignment instruct).
        instruct: String,
        /// Prompt / input text.
        prompt: String,
        /// Sampling temperature.
        temperature: f64,
        /// Sampling seed.
        seed: u64,
    },
    /// Lint-guided repair search on a broken module.
    Repair {
        /// Module name (for diagnostics).
        name: String,
        /// Broken source.
        source: String,
        /// Checker-call budget.
        budget: u64,
    },
    /// Score a candidate against a named benchmark problem's testbench,
    /// or against an inline testbench.
    Score {
        /// Candidate module source.
        source: String,
        /// Benchmark problem id (`thakur`/`rtllm` suites); mutually
        /// exclusive with `testbench`.
        problem: Option<String>,
        /// Inline self-checking testbench (prints `RESULT <pass> <total>`).
        testbench: Option<String>,
        /// Top module of the inline testbench (default `tb`).
        top: String,
        /// Simulation lanes requested (default 1; clamped to
        /// [`dda_sim::MAX_BATCH_LANES`] at decode time). Every lane of a
        /// deterministic run has the same verdict, so the verdict is
        /// computed once and replicated, and the response echoes the
        /// count as `lanes`; kept for wire compatibility.
        runs: u64,
    },
    /// K-nearest corpus modules for a free-text query, from the resident
    /// sharded retrieval index (RAG candidates for few-shot prompting).
    Retrieve {
        /// Free-text query (a description, an interface, a broken file).
        query: String,
        /// How many hits to return (clamped to [`MAX_RETRIEVE_K`] at
        /// decode time).
        k: u64,
    },
    /// Run a pass@k tool-in-the-loop agent batch against a named
    /// benchmark problem: k candidate chains of generate → lint →
    /// simulate → feed-diagnostics → repair on the supervised engine
    /// (see `dda_eval::agent_batch`).
    Agent {
        /// Benchmark problem id (`thakur`/`rtllm` suites).
        problem: String,
        /// Prompt detail level (default [`DEFAULT_AGENT_LEVEL`]).
        level: u64,
        /// Candidate chains (clamped to [`MAX_AGENT_K`]).
        k: u64,
        /// Tool-feedback rounds per chain after the first draft (clamped
        /// to [`MAX_AGENT_ROUNDS`]).
        rounds: u64,
        /// Commit the lowest-indexed passing chain early and cancel the
        /// chains above it (default off = every chain runs).
        early_exit: bool,
        /// Few-shot context documents pulled from the resident retrieval
        /// index into each chain's repair prompts (0 = no RAG).
        rag_k: u64,
        /// Simulation lanes per candidate scoring (default 1; clamped to
        /// [`dda_sim::MAX_BATCH_LANES`]). Each distinct candidate's
        /// verdict is computed once per batch and shared, so the count
        /// changes no work and no outcome; kept for wire compatibility.
        runs: u64,
        /// Chain RNG seed (default [`DEFAULT_AGENT_SEED`]).
        seed: u64,
    },
    /// Deliberately panics the worker. Only honored when the service was
    /// started with fault injection enabled (chaos tests / storm bench);
    /// otherwise a `bad_request` error.
    Poison,
}

impl ReqBody {
    /// The wire verb for this body.
    pub fn verb(&self) -> &'static str {
        match self {
            ReqBody::Ping => "ping",
            ReqBody::Stats => "stats",
            ReqBody::Health => "health",
            ReqBody::Ready => "ready",
            ReqBody::Shutdown => "shutdown",
            ReqBody::Augment { .. } => "augment",
            ReqBody::Generate { .. } => "generate",
            ReqBody::Repair { .. } => "repair",
            ReqBody::Score { .. } => "score",
            ReqBody::Retrieve { .. } => "retrieve",
            ReqBody::Agent { .. } => "agent",
            ReqBody::Poison => "poison",
        }
    }

    /// Whether the service answers this verb inline on the connection
    /// thread (control plane) rather than queueing it (data plane). The
    /// control plane stays responsive under overload by construction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            ReqBody::Ping | ReqBody::Stats | ReqBody::Health | ReqBody::Ready | ReqBody::Shutdown
        )
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Wall-clock budget in milliseconds, measured from admission
    /// (`None` = the service default). Clamped to [`MAX_DEADLINE_MS`].
    pub deadline_ms: Option<u64>,
    /// The work itself.
    pub body: ReqBody,
}

/// Machine-readable failure class on an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded queue was full; the request was shed, not queued.
    /// Back off and retry.
    Overloaded,
    /// The request was malformed (unknown verb, missing field, bad type,
    /// unknown problem id, ...).
    BadRequest,
    /// The request's wall-clock deadline expired (in queue or mid-work).
    Deadline,
    /// The handler panicked; the panic was isolated and the daemon lives.
    Panic,
    /// The daemon is draining and no longer admits data-plane work.
    Shutdown,
}

impl ErrorCode {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Panic => "panic",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    fn from_str(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "bad_request" => ErrorCode::BadRequest,
            "deadline" => ErrorCode::Deadline,
            "panic" => ErrorCode::Panic,
            "shutdown" => ErrorCode::Shutdown,
            _ => return None,
        })
    }
}

/// Service/cache/pool counters returned by a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Requests admitted to the queue since startup.
    pub admitted: u64,
    /// Data-plane requests answered successfully.
    pub completed: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests that died to their deadline.
    pub timed_out: u64,
    /// Handler panics isolated.
    pub panics: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Design-cache hits (both tiers).
    pub cache_hits: u64,
    /// Design-cache frontend computes.
    pub cache_misses: u64,
    /// Design-cache evictions from the global tier.
    pub cache_evictions: u64,
    /// Designs resident in the global cache tier.
    pub cache_resident: u64,
    /// Admitted-but-unstarted jobs discarded by a crash-stop
    /// ([`crate::service::Server::abort`] / an escaped dispatch panic).
    /// Their requests sit unanswered in the journal until replay.
    pub dropped: u64,
    /// Journaled requests re-executed by startup replay this generation.
    pub replayed: u64,
}

/// Response payloads, one per verb (plus the error case).
#[derive(Debug, Clone, PartialEq)]
pub enum RespBody {
    /// `ping` answer.
    Pong,
    /// `stats` answer.
    Stats(StatsBody),
    /// `shutdown` acknowledged; drain begins.
    ShuttingDown,
    /// `health` answer.
    Health {
        /// Milliseconds since this service generation started.
        uptime_ms: u64,
        /// Supervisor restart generation (0 = first start).
        generation: u64,
        /// Journaled requests replayed when this generation started.
        replayed: u64,
        /// Whether the daemon was built with `dda-fail` failpoints.
        failpoints: bool,
    },
    /// `ready` answer.
    Ready {
        /// Whether data-plane work is being accepted (startup replay
        /// fully submitted and not draining/crashed).
        ready: bool,
    },
    /// `augment` result.
    Augmented {
        /// Dataset entries produced.
        entries: u64,
        /// Units quarantined by the pipeline's panic isolation.
        quarantined: u64,
        /// The entries as JSONL (one `{"instruct", "input", "output"}`
        /// object per line).
        jsonl: String,
    },
    /// `generate` result.
    Generated {
        /// Sampled output.
        output: String,
    },
    /// `repair` result.
    Repaired {
        /// Best source found.
        source: String,
        /// Whether it lints clean.
        clean: bool,
        /// Checker calls spent.
        cost: u64,
    },
    /// `score` result.
    Scored {
        /// Verdict class: `scored`, `parse_error`, `elab_error`,
        /// `timeout`, or `crash`.
        verdict: String,
        /// Functional pass rate in `[0, 1]` (zero for failure verdicts).
        pass_rate: f64,
        /// Failure detail (empty for `scored`).
        detail: String,
        /// Lanes the verdict stands for: echoes the request's clamped
        /// `runs` (the verdict is computed once and replicated).
        lanes: u64,
    },
    /// `retrieve` result.
    Retrieved {
        /// Hits returned (may be fewer than the requested `k`).
        count: u64,
        /// The hits as JSONL (one `{"id", "score", "name", "source"}`
        /// object per line, best first).
        jsonl: String,
    },
    /// `agent` result.
    AgentReport {
        /// Whether any chain passed the problem's testbench.
        passed: bool,
        /// Lowest-indexed passing chain, when one exists.
        winner: Option<u64>,
        /// Chains run (echoes the request's clamped `k`).
        chains: u64,
        /// Tool-feedback rounds summed over the committed chains — the
        /// batch's deterministic work measure.
        rounds_total: u64,
        /// Chains lost to panics or per-chain deadline trips (0 on a
        /// healthy run; omitted from the wire when 0).
        quarantined: u64,
        /// Per-chain detail as JSONL (one `{"chain", "rounds", "lint",
        /// "function", "repaired", "cancelled"}` object per line, in
        /// chain order).
        jsonl: String,
    },
    /// Any verb's failure.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response frame: the echoed id/verb plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id echoed from the request (0 when the request was so
    /// malformed no id could be recovered).
    pub id: u64,
    /// Echoed verb (`"?"` when unrecoverable).
    pub verb: String,
    /// Payload.
    pub body: RespBody,
}

/// A decode failure; the service turns this into a `bad_request` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError {
        message: message.into(),
    }
}

fn req_str(ev: &Event, name: &str) -> Result<String, ProtoError> {
    match ev.field(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(bad(format!("field `{name}` must be a string"))),
        None => Err(bad(format!("missing field `{name}`"))),
    }
}

fn opt_str(ev: &Event, name: &str) -> Result<Option<String>, ProtoError> {
    match ev.field(name) {
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad(format!("field `{name}` must be a string"))),
        None => Ok(None),
    }
}

fn opt_u64(ev: &Event, name: &str) -> Result<Option<u64>, ProtoError> {
    match ev.field(name) {
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field `{name}` must be a non-negative integer"))),
        None => Ok(None),
    }
}

fn opt_bool(ev: &Event, name: &str) -> Result<Option<bool>, ProtoError> {
    match ev.field(name) {
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(bad(format!("field `{name}` must be a boolean"))),
        None => Ok(None),
    }
}

fn opt_f64(ev: &Event, name: &str) -> Result<Option<f64>, ProtoError> {
    match ev.field(name) {
        Some(Value::F64(v)) => Ok(Some(*v)),
        Some(Value::U64(v)) => Ok(Some(*v as f64)),
        Some(Value::I64(v)) => Ok(Some(*v as f64)),
        Some(_) => Err(bad(format!("field `{name}` must be a number"))),
        None => Ok(None),
    }
}

impl Request {
    /// Encodes to one JSON line (the frame payload).
    pub fn to_line(&self) -> String {
        let mut ev = Event::new(self.body.verb()).u64("id", self.id);
        if self.priority == Priority::High {
            ev = ev.str("priority", "high");
        }
        if let Some(ms) = self.deadline_ms {
            ev = ev.u64("deadline_ms", ms);
        }
        ev = match &self.body {
            ReqBody::Ping
            | ReqBody::Stats
            | ReqBody::Health
            | ReqBody::Ready
            | ReqBody::Shutdown
            | ReqBody::Poison => ev,
            ReqBody::Augment { name, source, seed } => ev
                .str("name", name.clone())
                .str("source", source.clone())
                .u64("seed", *seed),
            ReqBody::Generate {
                instruct,
                prompt,
                temperature,
                seed,
            } => ev
                .str("instruct", instruct.clone())
                .str("prompt", prompt.clone())
                .f64("temperature", *temperature)
                .u64("seed", *seed),
            ReqBody::Repair {
                name,
                source,
                budget,
            } => ev
                .str("name", name.clone())
                .str("source", source.clone())
                .u64("budget", *budget),
            ReqBody::Score {
                source,
                problem,
                testbench,
                top,
                runs,
            } => {
                let mut ev = ev.str("source", source.clone());
                if let Some(p) = problem {
                    ev = ev.str("problem", p.clone());
                }
                if let Some(t) = testbench {
                    ev = ev.str("testbench", t.clone());
                }
                // `runs: 1` stays off the wire so pre-batch frames (and
                // their goldens) are byte-identical.
                if *runs != 1 {
                    ev = ev.u64("runs", *runs);
                }
                ev.str("top", top.clone())
            }
            ReqBody::Retrieve { query, k } => ev.str("query", query.clone()).u64("k", *k),
            ReqBody::Agent {
                problem,
                level,
                k,
                rounds,
                early_exit,
                rag_k,
                runs,
                seed,
            } => {
                // Default-valued knobs stay off the wire so the common
                // frame (paper protocol, no RAG, scalar scoring) is
                // minimal and byte-stable.
                let mut ev = ev.str("problem", problem.clone());
                if *level != DEFAULT_AGENT_LEVEL {
                    ev = ev.u64("level", *level);
                }
                if *k != DEFAULT_AGENT_K {
                    ev = ev.u64("k", *k);
                }
                if *rounds != DEFAULT_AGENT_ROUNDS {
                    ev = ev.u64("rounds", *rounds);
                }
                if *early_exit {
                    ev = ev.bool("early_exit", true);
                }
                if *rag_k != 0 {
                    ev = ev.u64("rag_k", *rag_k);
                }
                if *runs != 1 {
                    ev = ev.u64("runs", *runs);
                }
                if *seed != DEFAULT_AGENT_SEED {
                    ev = ev.u64("seed", *seed);
                }
                ev
            }
        };
        encode(&ev)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for malformed JSON, unknown verbs, missing or
    /// mistyped fields — the caller answers with `bad_request`.
    pub fn from_line(line: &str) -> Result<Request, ProtoError> {
        let ev = parse(line).ok_or_else(|| bad("invalid JSON object"))?;
        let id = opt_u64(&ev, "id")?.ok_or_else(|| bad("missing field `id`"))?;
        let priority = match opt_str(&ev, "priority")?.as_deref() {
            None | Some("normal") => Priority::Normal,
            Some("high") => Priority::High,
            Some(other) => return Err(bad(format!("unknown priority `{other}`"))),
        };
        let deadline_ms = opt_u64(&ev, "deadline_ms")?.map(|ms| ms.min(MAX_DEADLINE_MS));
        let body = match ev.kind.as_str() {
            "ping" => ReqBody::Ping,
            "stats" => ReqBody::Stats,
            "health" => ReqBody::Health,
            "ready" => ReqBody::Ready,
            "shutdown" => ReqBody::Shutdown,
            "poison" => ReqBody::Poison,
            "augment" => ReqBody::Augment {
                name: req_str(&ev, "name")?,
                source: req_str(&ev, "source")?,
                seed: opt_u64(&ev, "seed")?.unwrap_or(2024),
            },
            "generate" => ReqBody::Generate {
                instruct: opt_str(&ev, "instruct")?
                    .unwrap_or_else(|| dda_core::align::ALIGN_INSTRUCT.to_string()),
                prompt: req_str(&ev, "prompt")?,
                temperature: opt_f64(&ev, "temperature")?.unwrap_or(0.1),
                seed: opt_u64(&ev, "seed")?.unwrap_or(99),
            },
            "repair" => ReqBody::Repair {
                name: opt_str(&ev, "name")?.unwrap_or_else(|| "broken".to_string()),
                source: req_str(&ev, "source")?,
                budget: opt_u64(&ev, "budget")?.unwrap_or(200),
            },
            "score" => {
                let problem = opt_str(&ev, "problem")?;
                let testbench = opt_str(&ev, "testbench")?;
                if problem.is_some() == testbench.is_some() {
                    return Err(bad("score needs exactly one of `problem` or `testbench`"));
                }
                ReqBody::Score {
                    source: req_str(&ev, "source")?,
                    problem,
                    testbench,
                    top: opt_str(&ev, "top")?.unwrap_or_else(|| "tb".to_string()),
                    runs: opt_u64(&ev, "runs")?
                        .unwrap_or(1)
                        .clamp(1, dda_sim::MAX_BATCH_LANES as u64),
                }
            }
            "retrieve" => ReqBody::Retrieve {
                query: req_str(&ev, "query")?,
                k: opt_u64(&ev, "k")?.unwrap_or(5).clamp(1, MAX_RETRIEVE_K),
            },
            "agent" => ReqBody::Agent {
                problem: req_str(&ev, "problem")?,
                level: opt_u64(&ev, "level")?.unwrap_or(DEFAULT_AGENT_LEVEL),
                k: opt_u64(&ev, "k")?
                    .unwrap_or(DEFAULT_AGENT_K)
                    .clamp(1, MAX_AGENT_K),
                rounds: opt_u64(&ev, "rounds")?
                    .unwrap_or(DEFAULT_AGENT_ROUNDS)
                    .min(MAX_AGENT_ROUNDS),
                early_exit: opt_bool(&ev, "early_exit")?.unwrap_or(false),
                rag_k: opt_u64(&ev, "rag_k")?.unwrap_or(0).min(MAX_RETRIEVE_K),
                runs: opt_u64(&ev, "runs")?
                    .unwrap_or(1)
                    .clamp(1, dda_sim::MAX_BATCH_LANES as u64),
                seed: opt_u64(&ev, "seed")?.unwrap_or(DEFAULT_AGENT_SEED),
            },
            other => return Err(bad(format!("unknown verb `{other}`"))),
        };
        Ok(Request {
            id,
            priority,
            deadline_ms,
            body,
        })
    }
}

impl Response {
    /// Convenience constructor for an error response.
    pub fn error(
        id: u64,
        verb: impl Into<String>,
        code: ErrorCode,
        message: impl Into<String>,
    ) -> Response {
        Response {
            id,
            verb: verb.into(),
            body: RespBody::Error {
                code,
                message: message.into(),
            },
        }
    }

    /// Encodes to one JSON line (the frame payload).
    pub fn to_line(&self) -> String {
        let ev = Event::new("response")
            .u64("id", self.id)
            .str("verb", self.verb.clone());
        let ev = match &self.body {
            RespBody::Error { code, message } => ev
                .str("status", "error")
                .str("code", code.as_str())
                .str("message", message.clone()),
            ok => {
                let ev = ev.str("status", "ok");
                match ok {
                    RespBody::Pong | RespBody::ShuttingDown => ev,
                    RespBody::Stats(s) => ev
                        .u64("admitted", s.admitted)
                        .u64("completed", s.completed)
                        .u64("shed", s.shed)
                        .u64("timed_out", s.timed_out)
                        .u64("panics", s.panics)
                        .u64("queue_depth", s.queue_depth)
                        .u64("cache_hits", s.cache_hits)
                        .u64("cache_misses", s.cache_misses)
                        .u64("cache_evictions", s.cache_evictions)
                        .u64("cache_resident", s.cache_resident)
                        .u64("dropped", s.dropped)
                        .u64("replayed", s.replayed),
                    RespBody::Health {
                        uptime_ms,
                        generation,
                        replayed,
                        failpoints,
                    } => ev
                        .u64("uptime_ms", *uptime_ms)
                        .u64("generation", *generation)
                        .u64("replayed", *replayed)
                        .bool("failpoints", *failpoints),
                    RespBody::Ready { ready } => ev.bool("ready", *ready),
                    RespBody::Augmented {
                        entries,
                        quarantined,
                        jsonl,
                    } => ev
                        .u64("entries", *entries)
                        .u64("quarantined", *quarantined)
                        .str("jsonl", jsonl.clone()),
                    RespBody::Generated { output } => ev.str("output", output.clone()),
                    RespBody::Repaired {
                        source,
                        clean,
                        cost,
                    } => ev
                        .str("source", source.clone())
                        .bool("clean", *clean)
                        .u64("cost", *cost),
                    RespBody::Scored {
                        verdict,
                        pass_rate,
                        detail,
                        lanes,
                    } => {
                        let ev = ev
                            .str("verdict", verdict.clone())
                            .f64("pass_rate", *pass_rate)
                            .str("detail", detail.clone());
                        if *lanes != 1 {
                            ev.u64("lanes", *lanes)
                        } else {
                            ev
                        }
                    }
                    RespBody::Retrieved { count, jsonl } => {
                        ev.u64("count", *count).str("jsonl", jsonl.clone())
                    }
                    RespBody::AgentReport {
                        passed,
                        winner,
                        chains,
                        rounds_total,
                        quarantined,
                        jsonl,
                    } => {
                        let mut ev = ev.bool("passed", *passed);
                        if let Some(w) = winner {
                            ev = ev.u64("winner", *w);
                        }
                        ev = ev.u64("chains", *chains).u64("rounds_total", *rounds_total);
                        if *quarantined != 0 {
                            ev = ev.u64("quarantined", *quarantined);
                        }
                        ev.str("jsonl", jsonl.clone())
                    }
                    RespBody::Error { .. } => unreachable!("handled above"),
                }
            }
        };
        encode(&ev)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for anything that is not a well-formed response
    /// object.
    pub fn from_line(line: &str) -> Result<Response, ProtoError> {
        let ev = parse(line).ok_or_else(|| bad("invalid JSON object"))?;
        if ev.kind != "response" {
            return Err(bad(format!("expected a response, got `{}`", ev.kind)));
        }
        let id = opt_u64(&ev, "id")?.ok_or_else(|| bad("missing field `id`"))?;
        let verb = req_str(&ev, "verb")?;
        let status = req_str(&ev, "status")?;
        let body = match status.as_str() {
            "error" => {
                let code_s = req_str(&ev, "code")?;
                RespBody::Error {
                    code: ErrorCode::from_str(&code_s)
                        .ok_or_else(|| bad(format!("unknown error code `{code_s}`")))?,
                    message: req_str(&ev, "message")?,
                }
            }
            "ok" => match verb.as_str() {
                "ping" => RespBody::Pong,
                "shutdown" => RespBody::ShuttingDown,
                "stats" => RespBody::Stats(StatsBody {
                    admitted: opt_u64(&ev, "admitted")?.unwrap_or(0),
                    completed: opt_u64(&ev, "completed")?.unwrap_or(0),
                    shed: opt_u64(&ev, "shed")?.unwrap_or(0),
                    timed_out: opt_u64(&ev, "timed_out")?.unwrap_or(0),
                    panics: opt_u64(&ev, "panics")?.unwrap_or(0),
                    queue_depth: opt_u64(&ev, "queue_depth")?.unwrap_or(0),
                    cache_hits: opt_u64(&ev, "cache_hits")?.unwrap_or(0),
                    cache_misses: opt_u64(&ev, "cache_misses")?.unwrap_or(0),
                    cache_evictions: opt_u64(&ev, "cache_evictions")?.unwrap_or(0),
                    cache_resident: opt_u64(&ev, "cache_resident")?.unwrap_or(0),
                    dropped: opt_u64(&ev, "dropped")?.unwrap_or(0),
                    replayed: opt_u64(&ev, "replayed")?.unwrap_or(0),
                }),
                "health" => RespBody::Health {
                    uptime_ms: opt_u64(&ev, "uptime_ms")?.unwrap_or(0),
                    generation: opt_u64(&ev, "generation")?.unwrap_or(0),
                    replayed: opt_u64(&ev, "replayed")?.unwrap_or(0),
                    failpoints: opt_bool(&ev, "failpoints")?.unwrap_or(false),
                },
                "ready" => RespBody::Ready {
                    ready: opt_bool(&ev, "ready")?.unwrap_or(false),
                },
                "augment" => RespBody::Augmented {
                    entries: opt_u64(&ev, "entries")?.unwrap_or(0),
                    quarantined: opt_u64(&ev, "quarantined")?.unwrap_or(0),
                    jsonl: req_str(&ev, "jsonl")?,
                },
                "generate" => RespBody::Generated {
                    output: req_str(&ev, "output")?,
                },
                "repair" => RespBody::Repaired {
                    source: req_str(&ev, "source")?,
                    clean: opt_bool(&ev, "clean")?.unwrap_or(false),
                    cost: opt_u64(&ev, "cost")?.unwrap_or(0),
                },
                "score" => RespBody::Scored {
                    verdict: req_str(&ev, "verdict")?,
                    pass_rate: opt_f64(&ev, "pass_rate")?.unwrap_or(0.0),
                    detail: opt_str(&ev, "detail")?.unwrap_or_default(),
                    lanes: opt_u64(&ev, "lanes")?.unwrap_or(1),
                },
                "retrieve" => RespBody::Retrieved {
                    count: opt_u64(&ev, "count")?.unwrap_or(0),
                    jsonl: req_str(&ev, "jsonl")?,
                },
                "agent" => RespBody::AgentReport {
                    passed: opt_bool(&ev, "passed")?.unwrap_or(false),
                    winner: opt_u64(&ev, "winner")?,
                    chains: opt_u64(&ev, "chains")?.unwrap_or(0),
                    rounds_total: opt_u64(&ev, "rounds_total")?.unwrap_or(0),
                    quarantined: opt_u64(&ev, "quarantined")?.unwrap_or(0),
                    jsonl: req_str(&ev, "jsonl")?,
                },
                other => return Err(bad(format!("unknown response verb `{other}`"))),
            },
            other => return Err(bad(format!("unknown status `{other}`"))),
        };
        Ok(Response { id, verb, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request {
                id: 1,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Ping,
            },
            Request {
                id: 2,
                priority: Priority::High,
                deadline_ms: Some(1500),
                body: ReqBody::Augment {
                    name: "ctr".into(),
                    source: "module ctr;\nendmodule\n".into(),
                    seed: 7,
                },
            },
            Request {
                id: 3,
                priority: Priority::Normal,
                deadline_ms: Some(10),
                body: ReqBody::Score {
                    source: "module m(input a, output b);\nassign b = a;\nendmodule".into(),
                    problem: Some("simple_wire".into()),
                    testbench: None,
                    top: "tb".into(),
                    runs: 1,
                },
            },
            Request {
                id: 4,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Score {
                    source: "module m(input a, output b);\nassign b = a;\nendmodule".into(),
                    problem: Some("simple_wire".into()),
                    testbench: None,
                    top: "tb".into(),
                    runs: 8,
                },
            },
            Request {
                id: 5,
                priority: Priority::Normal,
                deadline_ms: Some(250),
                body: ReqBody::Retrieve {
                    query: "an eight bit counter with enable".into(),
                    k: 3,
                },
            },
            Request {
                id: 6,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Agent {
                    problem: "simple_wire".into(),
                    level: DEFAULT_AGENT_LEVEL,
                    k: DEFAULT_AGENT_K,
                    rounds: DEFAULT_AGENT_ROUNDS,
                    early_exit: false,
                    rag_k: 0,
                    runs: 1,
                    seed: DEFAULT_AGENT_SEED,
                },
            },
            Request {
                id: 7,
                priority: Priority::High,
                deadline_ms: Some(5000),
                body: ReqBody::Agent {
                    problem: "counter".into(),
                    level: 1,
                    k: 3,
                    rounds: 2,
                    early_exit: true,
                    rag_k: 4,
                    runs: 8,
                    seed: 42,
                },
            },
        ];
        for r in reqs {
            let back = Request::from_line(&r.to_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response {
                id: 1,
                verb: "ping".into(),
                body: RespBody::Pong,
            },
            Response {
                id: 2,
                verb: "score".into(),
                body: RespBody::Scored {
                    verdict: "scored".into(),
                    pass_rate: 0.5,
                    detail: String::new(),
                    lanes: 1,
                },
            },
            Response {
                id: 3,
                verb: "score".into(),
                body: RespBody::Scored {
                    verdict: "scored".into(),
                    pass_rate: 1.0,
                    detail: String::new(),
                    lanes: 8,
                },
            },
            Response {
                id: 4,
                verb: "retrieve".into(),
                body: RespBody::Retrieved {
                    count: 2,
                    jsonl: "{\"id\": 7, \"score\": 0.5, \"name\": \"ctr\", \
                            \"source\": \"module ctr;\\nendmodule\\n\"}\n"
                        .into(),
                },
            },
            Response {
                id: 5,
                verb: "agent".into(),
                body: RespBody::AgentReport {
                    passed: true,
                    winner: Some(2),
                    chains: 5,
                    rounds_total: 9,
                    quarantined: 0,
                    jsonl: "{\"chain\": 0, \"rounds\": 3, \"lint\": true, \
                            \"function\": 0.5, \"repaired\": true, \"cancelled\": false}\n"
                        .into(),
                },
            },
            Response {
                id: 6,
                verb: "agent".into(),
                body: RespBody::AgentReport {
                    passed: false,
                    winner: None,
                    chains: 2,
                    rounds_total: 8,
                    quarantined: 1,
                    jsonl: String::new(),
                },
            },
            Response::error(9, "augment", ErrorCode::Overloaded, "pool queue full"),
        ];
        for r in resps {
            let back = Response::from_line(&r.to_line()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad_line in [
            "",
            "not json",
            "{\"ev\": \"nope\", \"id\": 1}",
            "{\"ev\": \"score\", \"id\": 1, \"source\": \"m\"}", // neither problem nor testbench
            "{\"ev\": \"augment\", \"id\": 1}",                  // missing source
            "{\"ev\": \"retrieve\", \"id\": 1}",                 // missing query
            "{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\", \"k\": -1}",
            "{\"ev\": \"ping\"}",             // missing id
            "{\"ev\": \"ping\", \"id\": -3}", // negative id
            "{\"ev\": \"ping\", \"id\": 1, \"priority\": \"urgent\"}",
        ] {
            assert!(
                Request::from_line(bad_line).is_err(),
                "accepted {bad_line:?}"
            );
        }
    }

    #[test]
    fn mistyped_booleans_are_structured_errors() {
        let ok = "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\", \"early_exit\": true}";
        match Request::from_line(ok).unwrap().body {
            ReqBody::Agent { early_exit, .. } => assert!(early_exit),
            other => panic!("{other:?}"),
        }
        for v in ["1", "0", "\"true\"", "1.0"] {
            let line = format!(
                "{{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\", \"early_exit\": {v}}}"
            );
            let err = Request::from_line(&line).unwrap_err();
            assert!(err.message.contains("early_exit"), "{v}: {err}");
        }
        for (verb, field) in [
            ("health", "failpoints"),
            ("ready", "ready"),
            ("repair", "clean"),
            ("agent", "passed"),
        ] {
            let line = format!(
                "{{\"ev\": \"response\", \"id\": 1, \"verb\": \"{verb}\", \"status\": \"ok\", \
                 \"source\": \"s\", \"jsonl\": \"\", \"{field}\": 1}}"
            );
            let err = Response::from_line(&line).unwrap_err();
            assert!(err.message.contains(field), "{verb}: {err}");
        }
    }

    #[test]
    fn score_runs_is_lenient_and_clamped() {
        // Absent on old-client frames: defaults to 1 (scalar scoring).
        let line = "{\"ev\": \"score\", \"id\": 1, \"source\": \"m\", \"problem\": \"p\"}";
        match Request::from_line(line).unwrap().body {
            ReqBody::Score { runs, .. } => assert_eq!(runs, 1),
            other => panic!("{other:?}"),
        }
        // Oversized asks clamp to the engine's lane ceiling; zero means 1.
        for (asked, want) in [(0u64, 1u64), (7, 7), (10_000, 64)] {
            let line = format!(
                "{{\"ev\": \"score\", \"id\": 1, \"source\": \"m\", \
                 \"problem\": \"p\", \"runs\": {asked}}}"
            );
            match Request::from_line(&line).unwrap().body {
                ReqBody::Score { runs, .. } => assert_eq!(runs, want, "asked {asked}"),
                other => panic!("{other:?}"),
            }
        }
        // Old-server responses without `lanes` decode to 1.
        let line = "{\"ev\": \"response\", \"id\": 1, \"verb\": \"score\", \
                    \"status\": \"ok\", \"verdict\": \"scored\", \"pass_rate\": 1}";
        match Response::from_line(line).unwrap().body {
            RespBody::Scored { lanes, .. } => assert_eq!(lanes, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retrieve_k_is_lenient_and_clamped() {
        // Absent: defaults to 5; zero means 1; oversized clamps.
        for (line_k, want) in [(None, 5u64), (Some(0), 1), (Some(9), 9), (Some(10_000), 64)] {
            let line = match line_k {
                None => "{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\"}".to_string(),
                Some(k) => {
                    format!("{{\"ev\": \"retrieve\", \"id\": 1, \"query\": \"q\", \"k\": {k}}}")
                }
            };
            match Request::from_line(&line).unwrap().body {
                ReqBody::Retrieve { k, .. } => assert_eq!(k, want, "asked {line_k:?}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn agent_defaults_are_lenient_and_clamped() {
        // A bare frame gets the paper protocol: level 2, pass@5, 3
        // rounds, no early-exit, no RAG, scalar scoring, seed 7331.
        let line = "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\"}";
        match Request::from_line(line).unwrap().body {
            ReqBody::Agent {
                level,
                k,
                rounds,
                early_exit,
                rag_k,
                runs,
                seed,
                ..
            } => {
                assert_eq!(level, DEFAULT_AGENT_LEVEL);
                assert_eq!(k, DEFAULT_AGENT_K);
                assert_eq!(rounds, DEFAULT_AGENT_ROUNDS);
                assert!(!early_exit);
                assert_eq!(rag_k, 0);
                assert_eq!(runs, 1);
                assert_eq!(seed, DEFAULT_AGENT_SEED);
            }
            other => panic!("{other:?}"),
        }
        // Default-valued fields stay off the wire.
        let req = Request {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: None,
            body: ReqBody::Agent {
                problem: "p".into(),
                level: DEFAULT_AGENT_LEVEL,
                k: DEFAULT_AGENT_K,
                rounds: DEFAULT_AGENT_ROUNDS,
                early_exit: false,
                rag_k: 0,
                runs: 1,
                seed: DEFAULT_AGENT_SEED,
            },
        };
        let wire = req.to_line();
        for absent in ["level", "rounds", "early_exit", "rag_k", "runs", "seed"] {
            assert!(!wire.contains(absent), "`{absent}` leaked onto {wire}");
        }
        // Oversized asks clamp; zero k means 1.
        let line = "{\"ev\": \"agent\", \"id\": 1, \"problem\": \"p\", \
                    \"k\": 0, \"rounds\": 99, \"rag_k\": 10000, \"runs\": 10000}";
        match Request::from_line(line).unwrap().body {
            ReqBody::Agent {
                k,
                rounds,
                rag_k,
                runs,
                ..
            } => {
                assert_eq!(k, 1);
                assert_eq!(rounds, MAX_AGENT_ROUNDS);
                assert_eq!(rag_k, MAX_RETRIEVE_K);
                assert_eq!(runs, dda_sim::MAX_BATCH_LANES as u64);
            }
            other => panic!("{other:?}"),
        }
        // Missing problem is a structured error.
        assert!(Request::from_line("{\"ev\": \"agent\", \"id\": 1}").is_err());
    }

    #[test]
    fn deadline_is_clamped() {
        let line = format!(
            "{{\"ev\": \"ping\", \"id\": 1, \"deadline_ms\": {}}}",
            u64::MAX
        );
        let r = Request::from_line(&line).unwrap();
        assert_eq!(r.deadline_ms, Some(MAX_DEADLINE_MS));
    }

    #[test]
    fn health_and_ready_round_trip() {
        for r in [
            Request {
                id: 4,
                priority: Priority::Normal,
                deadline_ms: None,
                body: ReqBody::Health,
            },
            Request {
                id: 5,
                priority: Priority::High,
                deadline_ms: None,
                body: ReqBody::Ready,
            },
        ] {
            assert_eq!(Request::from_line(&r.to_line()).unwrap(), r);
        }
        for resp in [
            Response {
                id: 4,
                verb: "health".into(),
                body: RespBody::Health {
                    uptime_ms: 1234,
                    generation: 2,
                    replayed: 7,
                    failpoints: true,
                },
            },
            Response {
                id: 5,
                verb: "ready".into(),
                body: RespBody::Ready { ready: false },
            },
        ] {
            assert_eq!(Response::from_line(&resp.to_line()).unwrap(), resp);
        }
    }

    #[test]
    fn control_plane_classification() {
        assert!(ReqBody::Ping.is_control());
        assert!(ReqBody::Stats.is_control());
        assert!(ReqBody::Health.is_control());
        assert!(ReqBody::Ready.is_control());
        assert!(ReqBody::Shutdown.is_control());
        assert!(!ReqBody::Poison.is_control());
        assert!(!ReqBody::Retrieve {
            query: String::new(),
            k: 5
        }
        .is_control());
        assert!(!ReqBody::Generate {
            instruct: String::new(),
            prompt: String::new(),
            temperature: 0.1,
            seed: 0
        }
        .is_control());
        assert!(!ReqBody::Agent {
            problem: String::new(),
            level: DEFAULT_AGENT_LEVEL,
            k: DEFAULT_AGENT_K,
            rounds: DEFAULT_AGENT_ROUNDS,
            early_exit: false,
            rag_k: 0,
            runs: 1,
            seed: DEFAULT_AGENT_SEED,
        }
        .is_control());
    }
}
