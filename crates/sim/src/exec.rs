//! Event-driven scheduler and process interpreter.
//!
//! The simulator follows the IEEE 1364 stratified event queue: active events
//! run to exhaustion, then nonblocking-assignment updates apply (one delta),
//! and only when the current time is quiescent does time advance to the next
//! scheduled event. Procedural processes are resumable: their continuation
//! is an explicit task stack, so `#delay`, `@(event)` and `wait` suspend and
//! resume without threads.
//!
//! Two execution engines share this scheduler (selected by
//! [`SimOptions::eval_mode`]):
//!
//! * **AST interpretation** re-walks the syntax tree per event — the
//!   reference semantics.
//! * **Bytecode** (the default) runs the flat programs produced by
//!   [`crate::compile`]: signal slots are pre-resolved, expression trees are
//!   register programs, and loop bodies re-push `Arc` pointers instead of
//!   cloning subtrees. Task-stack structure is kept 1:1 with the
//!   interpreter so step budgets and event ordering match exactly.

use crate::compile::{CCont, CStmt, CompiledDesign, ExprProg, Instr};
use crate::elab::{elaborate, Design, ElabError, Process, ProcessKind, SigId};
use crate::eval::{case_label_matches, format_value};
use crate::ops::LogicVecExt;
use dda_runtime::CancelToken;
use dda_verilog::ast::{AssignKind, BinaryOp, Edge, Sensitivity, Stmt, UnaryOp};
use dda_verilog::{Expr, LogicBit, LogicVec, PackedVec, SourceFile};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Which execution engine drives process bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Re-interpret the AST on every event (reference semantics).
    Ast,
    /// Run bytecode compiled once at start-up (same observable behaviour,
    /// checked against the interpreter by the dual-mode tests).
    #[default]
    Bytecode,
}

/// Limits for one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Hard stop on simulated time (a run reaching this is not "finished").
    pub max_time: u64,
    /// Delta-cycle limit within one time step (combinational-loop guard).
    pub max_deltas: usize,
    /// Total statement-execution budget; also the most continuous
    /// assignments evaluated in a row with no procedural statement between.
    pub max_steps: u64,
    /// Cap on captured `$display` output, in bytes.
    pub output_limit: usize,
    /// Cooperative wall-clock cancellation: the exec loop polls this token
    /// every few thousand statements and aborts with
    /// [`RunErrorKind::WallTimeout`] when it trips. The default token
    /// never trips, so untimed runs pay only an occasional atomic load.
    pub cancel: CancelToken,
    /// Which execution engine to use (bytecode by default). This is the
    /// reference switch of `dda-sim` alone: the evaluation harness and the
    /// table binaries always run bytecode, and the engine-equivalence
    /// tests and perf benches select [`EvalMode::Ast`] to hold bytecode to
    /// the interpreter.
    pub eval_mode: EvalMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_time: 1_000_000,
            max_deltas: 10_000,
            max_steps: 20_000_000,
            output_limit: 1 << 20,
            cancel: CancelToken::new(),
            eval_mode: EvalMode::default(),
        }
    }
}

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// `$finish`/`$stop` was executed.
    pub finished: bool,
    /// Final simulated time.
    pub time: u64,
    /// Captured `$display`/`$write`/`$monitor` output.
    pub output: String,
    /// Number of `$error`/`$fatal` calls.
    pub error_count: usize,
}

/// Which resource a failed run exhausted. Distinguishes *wall-clock*
/// timeouts (the host spent too long, regardless of simulated time) from
/// the simulated-resource budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// Delta-cycle limit within one time step (combinational loop).
    DeltaLimit,
    /// Total statement-execution budget (zero-delay runaway loop).
    StepBudget,
    /// The wall-clock deadline on [`SimOptions::cancel`] tripped (or the
    /// run was cancelled by a supervisor).
    WallTimeout,
}

/// A hard simulation failure (runaway loops, wall-clock cutoff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// What blew up.
    pub message: String,
    /// Simulated time at failure.
    pub time: u64,
    /// Which budget was exhausted.
    pub kind: RunErrorKind,
}

impl RunError {
    /// Whether this failure was a wall-clock cutoff rather than a
    /// simulated-resource budget.
    pub fn is_wall_timeout(&self) -> bool {
        self.kind == RunErrorKind::WallTimeout
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation failed at t={}: {}", self.time, self.message)
    }
}

impl Error for RunError {}

/// How often (in interpreted statements) the exec loop polls the
/// wall-clock cancel token. A power of two keeps the modulo a mask. The
/// period balances overhead (one atomic load per poll) against detection
/// latency for slow-burn bodies whose individual statements are
/// expensive (wide-vector ops run ~µs–ms per statement).
const WALL_POLL_PERIOD: u64 = 1024;

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Task {
    Exec(Stmt),
    /// Apply a pre-evaluated blocking write (after an intra-assign delay).
    Apply(WriteTarget, PackedVec),
    LoopWhile {
        cond: Expr,
        body: Box<Stmt>,
    },
    LoopFor {
        cond: Expr,
        step: Box<Stmt>,
        body: Box<Stmt>,
    },
    LoopRepeat {
        remaining: u64,
        body: Box<Stmt>,
    },
    LoopForever {
        body: Box<Stmt>,
    },
    /// Re-check a `wait` condition on resume.
    WaitCheck(Expr),
    /// Execute one compiled statement (bytecode mode).
    CExec(Arc<CStmt>),
    /// Loop continuations over compiled nodes: each holds the loop's own
    /// [`CStmt`] so re-pushing is an `Arc` clone, not a subtree clone.
    CLoopWhile(Arc<CStmt>),
    CLoopFor(Arc<CStmt>),
    CLoopRepeat {
        remaining: u64,
        node: Arc<CStmt>,
    },
    CLoopForever(Arc<CStmt>),
    /// Re-check a compiled `wait` condition on resume.
    CWaitCheck {
        cond: Arc<ExprProg>,
        watches: Arc<[SensWatch]>,
    },
}

/// Where a write lands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WriteTarget {
    Full(SigId),
    Bits(SigId, usize, usize),
    Word(SigId, usize),
    /// Concatenated lvalue: parts MSB-first with widths.
    Pack(Vec<(WriteTarget, usize)>),
    /// Discarded (out of range / unknown index).
    Void,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    WaitEvent,
    WaitTime,
    Done,
}

/// One entry of a process's wait set: a signal, an optional bit, and an
/// optional edge requirement.
#[derive(Debug, Clone)]
pub(crate) struct SensWatch {
    pub(crate) sig: SigId,
    pub(crate) bit: Option<usize>,
    pub(crate) edge: Option<Edge>,
}

#[derive(Debug)]
struct ProcRt {
    tasks: Vec<Task>,
    status: Status,
    /// Current wait set (event controls / always sensitivity).
    watches: Arc<[SensWatch]>,
    /// Re-arm sensitivity for `always @(...)` processes.
    rearm: Option<Arc<[SensWatch]>>,
    /// `always` with no event control re-runs on completion.
    free_running: bool,
    is_initial: bool,
    /// A continuous assignment: re-evaluated, never stepped.
    continuous: bool,
}

#[derive(Debug)]
struct MonitorSpec {
    args: Vec<Expr>,
    last: Option<String>,
}

#[derive(Debug)]
enum FutureEvent {
    Wake(usize),
    Nba(WriteTarget, PackedVec),
}

/// The simulator: elaborated design + runtime state.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sf = dda_verilog::parse(
///     "module tb;\n\
///      reg [3:0] n = 0;\n\
///      initial begin n = n + 1; $display(\"n=%d\", n); $finish; end\n\
///      endmodule")?;
/// let mut sim = dda_sim::Simulator::new(&sf, "tb")?;
/// let result = sim.run(&dda_sim::SimOptions::default())?;
/// assert!(result.finished);
/// assert_eq!(result.output.trim(), "n=1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    /// Shared with the design cache and every other run of the design.
    pub(crate) design: Arc<Design>,
    pub(crate) store: Vec<PackedVec>,
    pub(crate) mems: Vec<Vec<PackedVec>>,
    pub(crate) time: u64,
    pub(crate) rand_state: Cell<u64>,
    procs: Vec<ProcRt>,
    ready: VecDeque<usize>,
    in_ready: Vec<bool>,
    future: BTreeMap<u64, Vec<FutureEvent>>,
    nba: Vec<(WriteTarget, PackedVec)>,
    pending: Vec<(SigId, PackedVec, PackedVec)>,
    monitors: Vec<MonitorSpec>,
    output: String,
    finished: bool,
    error_count: usize,
    started: bool,
    mode: EvalMode,
    /// The design's bytecode, installed at `start` in bytecode mode.
    compiled: Option<Arc<CompiledDesign>>,
    /// Register file reused across [`Self::eval_prog`] calls (taken with
    /// `mem::take` during evaluation, so programs never observe each
    /// other's registers — they are written before read anyway).
    scratch: Vec<PackedVec>,
    /// Drained future-map buckets, kept for the run's next time slots (up
    /// to 64; see [`Self::future_push`]): `BTreeMap` nodes cannot retain
    /// capacity across inserts, but their `Vec` payloads can.
    bucket_pool: Vec<Vec<FutureEvent>>,
    /// Fused superinstructions executed (reported to dda-obs per run).
    fused_hits: u64,
    vcd: Option<crate::vcd::VcdRecorder>,
}

impl Simulator {
    /// Elaborates `top` from `sf` and prepares a simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`ElabError`] from elaboration.
    pub fn new(sf: &SourceFile, top: &str) -> Result<Simulator, ElabError> {
        let design = elaborate(sf, top)?;
        Ok(Simulator::from_design(design))
    }

    /// Builds a simulator from an already-elaborated design.
    ///
    /// The simulator borrows the design through the `Arc`: a design from
    /// [`shared_design`](crate::cache::shared_design) is not copied, and
    /// what a run allocates up front grows with the design's signals and
    /// processes, not with the size of their bodies. A plain [`Design`]
    /// is moved into a new `Arc`.
    pub fn from_design(design: impl Into<Arc<Design>>) -> Simulator {
        let design: Arc<Design> = design.into();
        let mut store = Vec::with_capacity(design.signals.len());
        let mut mems = Vec::with_capacity(design.signals.len());
        for s in &design.signals {
            store.push(PackedVec::xs(s.width));
            if s.mem.is_some() {
                mems.push(vec![PackedVec::xs(s.width); s.mem_len()]);
            } else {
                mems.push(Vec::new());
            }
        }
        let procs = design
            .processes
            .iter()
            .map(|p| Self::make_proc(p, &design))
            .collect();
        Simulator {
            design,
            store,
            mems,
            time: 0,
            rand_state: Cell::new(0x9E3779B97F4A7C15),
            procs,
            ready: VecDeque::new(),
            in_ready: Vec::new(),
            future: BTreeMap::new(),
            nba: Vec::new(),
            pending: Vec::new(),
            monitors: Vec::new(),
            output: String::new(),
            finished: false,
            error_count: 0,
            started: false,
            mode: EvalMode::default(),
            compiled: None,
            scratch: Vec::new(),
            bucket_pool: Vec::new(),
            fused_hits: 0,
            vcd: None,
        }
    }

    /// Attaches a waveform recorder; every subsequent signal transition is
    /// captured (see [`crate::vcd::VcdRecorder`]).
    pub fn enable_vcd(&mut self, mut recorder: crate::vcd::VcdRecorder) {
        for s in &self.design.signals {
            recorder.register(&s.name, s.width);
        }
        self.vcd = Some(recorder);
    }

    /// Detaches and returns the waveform recorder, if one was attached.
    pub fn take_vcd(&mut self) -> Option<crate::vcd::VcdRecorder> {
        self.vcd.take()
    }

    /// Seeds the `$random` generator (runs are deterministic per seed).
    pub fn seed_random(&mut self, seed: u64) {
        // splitmix64 step so nearby seeds give unrelated streams
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        self.rand_state.set((z ^ (z >> 31)) | 1);
    }

    /// Clones a process body, defaulting to an empty block so a malformed
    /// `Process` (no body) degrades to a no-op instead of panicking.
    fn body_stmt(p: &Process) -> Stmt {
        p.body
            .as_ref()
            .map(|b| (**b).clone())
            .unwrap_or(Stmt::Block {
                name: None,
                stmts: Vec::new(),
                span: dda_verilog::token::Span::default(),
            })
    }

    /// A process's wait state. Its task stack starts empty: `start` seeds
    /// it with the body in the engine's own form.
    fn make_proc(p: &Process, design: &Design) -> ProcRt {
        let (watches, status) = match &p.kind {
            ProcessKind::Initial => (Vec::new().into(), Status::Ready),
            ProcessKind::Always(sens) => {
                let watches: Arc<[SensWatch]> = compile_sens(sens, design).into();
                let status = if watches.is_empty() {
                    Status::Ready
                } else {
                    Status::WaitEvent
                };
                (watches, status)
            }
            ProcessKind::Continuous { lhs, rhs } => {
                let mut reads = Vec::new();
                collect_expr_reads(rhs, design, &mut reads);
                collect_lhs_index_reads(lhs, design, &mut reads);
                (reads.into(), Status::Ready)
            }
        };
        ProcRt {
            tasks: Vec::new(),
            status,
            rearm: (!matches!(p.kind, ProcessKind::Initial)).then(|| Arc::clone(&watches)),
            free_running: matches!(p.kind, ProcessKind::Always(_)) && watches.is_empty(),
            is_initial: matches!(p.kind, ProcessKind::Initial),
            continuous: matches!(p.kind, ProcessKind::Continuous { .. }),
            watches,
        }
    }

    /// Reads a signal by hierarchical name.
    pub fn peek(&self, name: &str) -> Option<LogicVec> {
        self.design
            .index
            .get(name)
            .map(|id| self.store[*id].to_logic_vec())
    }

    /// Forces a signal value (testing hook); triggers dependent processes.
    pub fn poke(&mut self, name: &str, value: LogicVec) -> bool {
        let Some(&id) = self.design.index.get(name) else {
            return false;
        };
        self.write(WriteTarget::Full(id), PackedVec::from_logic(&value));
        self.drain_changes();
        true
    }

    /// Captured output so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Current simulated time.
    pub fn time(&self) -> u64 {
        self.time
    }

    fn start(&mut self, mode: EvalMode) {
        self.started = true;
        self.mode = mode;
        // Seed each procedural body in the engine's form (continuous
        // processes have no body and keep their empty task stack).
        match self.mode {
            EvalMode::Bytecode => {
                let compiled = self.design.compiled();
                self.scratch.clear();
                self.scratch.resize(compiled.nregs, PackedVec::default());
                for (i, cp) in compiled.procs.iter().enumerate() {
                    if let Some(b) = &cp.body {
                        self.procs[i].tasks.push(Task::CExec(Arc::clone(b)));
                    }
                }
                self.compiled = Some(compiled);
            }
            EvalMode::Ast => {
                for (rt, p) in self.procs.iter_mut().zip(&self.design.processes) {
                    if !rt.continuous {
                        rt.tasks.push(Task::Exec(Self::body_stmt(p)));
                    }
                }
            }
        }
        self.in_ready = vec![false; self.procs.len()];
        // Apply reg initialisers as time-0 changes so combinational logic
        // watching them wakes up.
        for (id, def) in self.design.signals.iter().enumerate() {
            if let Some(init) = &def.init {
                let old = self.store[id].clone();
                let new = PackedVec::from_logic(init).resize(def.width, false);
                self.store[id] = new.clone();
                self.pending.push((id, old, new));
            }
        }
        for (i, p) in self.procs.iter().enumerate() {
            if p.status == Status::Ready {
                self.ready.push_back(i);
                self.in_ready[i] = true;
            }
        }
        self.drain_changes();
    }

    /// Runs to completion, quiescence, or a limit.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the delta or step budget is exhausted
    /// (combinational loops, zero-delay infinite loops).
    pub fn run(&mut self, opts: &SimOptions) -> Result<SimResult, RunError> {
        if !self.started {
            self.start(opts.eval_mode);
        }
        if dda_obs::enabled() {
            dda_obs::count(
                match self.mode {
                    EvalMode::Bytecode => "sim.run.bytecode",
                    EvalMode::Ast => "sim.run.ast",
                },
                1,
            );
        }
        let mut steps: u64 = 0;
        let result = self.run_loop(opts, &mut steps);
        if dda_obs::enabled() {
            if steps > 0 {
                dda_obs::count("sim.steps", steps);
            }
            if self.fused_hits > 0 {
                dda_obs::count("sim.fused.hits", self.fused_hits);
            }
        }
        self.fused_hits = 0;
        result
    }

    /// The event loop behind [`Sim::run`], split out so the retired-step
    /// count is observable on every exit path (quiescence, `$finish`, and
    /// budget trips alike).
    fn run_loop(&mut self, opts: &SimOptions, steps: &mut u64) -> Result<SimResult, RunError> {
        // Continuous assignments evaluated since a procedural process last
        // ran. They retire no statements, so a zero-delay loop through
        // them alone (`assign a = en ? a + 1 : 0`) would never reach the
        // step budget; past `max_steps` evaluations in a row it is one.
        let mut cont_streak: u64 = 0;
        loop {
            // One time step: drain active events and NBA deltas.
            let mut deltas = 0usize;
            loop {
                if self.finished {
                    break;
                }
                if let Some(p) = self.ready.pop_front() {
                    self.in_ready[p] = false;
                    if self.procs[p].continuous {
                        cont_streak += 1;
                        if cont_streak > opts.max_steps {
                            return Err(RunError {
                                message: "statement budget exceeded (continuous-assignment loop?)"
                                    .into(),
                                time: self.time,
                                kind: RunErrorKind::StepBudget,
                            });
                        }
                        if cont_streak.is_multiple_of(WALL_POLL_PERIOD) {
                            self.check_wall(opts)?;
                        }
                        self.run_cont(p);
                    } else {
                        cont_streak = 0;
                        self.run_proc(p, steps, opts)?;
                    }
                    continue;
                }
                if !self.nba.is_empty() {
                    deltas += 1;
                    if deltas > opts.max_deltas {
                        return Err(RunError {
                            message: "nonblocking-update delta limit exceeded".into(),
                            time: self.time,
                            kind: RunErrorKind::DeltaLimit,
                        });
                    }
                    let updates = std::mem::take(&mut self.nba);
                    for (t, v) in updates {
                        self.write(t, v);
                    }
                    self.drain_changes();
                    continue;
                }
                break;
            }
            if self.finished {
                break;
            }
            self.print_monitors();
            // Advance time.
            let Some((&t, _)) = self.future.iter().next() else {
                break; // quiescent
            };
            if t > opts.max_time {
                break;
            }
            // Also poll once per time advance: event-driven livelocks (clock
            // ticks with tiny bodies) advance time far faster than they
            // retire statements.
            self.check_wall(opts)?;
            self.time = t;
            let mut events = self.future.remove(&t).unwrap_or_default();
            for ev in events.drain(..) {
                match ev {
                    FutureEvent::Wake(p) => {
                        if self.procs[p].status == Status::WaitTime {
                            self.procs[p].status = Status::Ready;
                            self.enqueue(p);
                        }
                    }
                    FutureEvent::Nba(t, v) => self.nba.push((t, v)),
                }
            }
            if self.bucket_pool.len() < 64 {
                self.bucket_pool.push(events);
            }
        }
        Ok(SimResult {
            finished: self.finished,
            time: self.time,
            output: self.output.clone(),
            error_count: self.error_count,
        })
    }

    /// Returns a [`RunErrorKind::WallTimeout`] error if the run's cancel
    /// token has tripped (deadline passed or supervisor cancellation).
    #[inline]
    fn check_wall(&self, opts: &SimOptions) -> Result<(), RunError> {
        if opts.cancel.is_cancelled() {
            return Err(RunError {
                message: "wall-clock deadline exceeded".into(),
                time: self.time,
                kind: RunErrorKind::WallTimeout,
            });
        }
        Ok(())
    }

    fn enqueue(&mut self, p: usize) {
        if !self.in_ready[p] {
            self.in_ready[p] = true;
            self.ready.push_back(p);
        }
    }

    /// Runs procedural process `p` until it suspends or completes.
    fn run_proc(&mut self, p: usize, steps: &mut u64, opts: &SimOptions) -> Result<(), RunError> {
        loop {
            if self.finished {
                return Ok(());
            }
            *steps += 1;
            if *steps > opts.max_steps {
                return Err(RunError {
                    message: "statement budget exceeded (runaway loop?)".into(),
                    time: self.time,
                    kind: RunErrorKind::StepBudget,
                });
            }
            // Wall-clock deadline: polled sparsely so the common case pays
            // one branch per statement, and slow wide-vector statements
            // (which burn wall time at few steps) are still caught within
            // a few thousand steps.
            if (*steps).is_multiple_of(WALL_POLL_PERIOD) {
                self.check_wall(opts)?;
            }
            let Some(task) = self.procs[p].tasks.pop() else {
                // Body complete.
                if self.procs[p].is_initial {
                    self.procs[p].status = Status::Done;
                    return Ok(());
                }
                let rearm = self.procs[p]
                    .rearm
                    .clone()
                    .unwrap_or_else(|| Vec::new().into());
                if self.design.processes[p].body.is_none() {
                    // Malformed always with no body: never reschedule.
                    return Ok(());
                }
                let task = match self.mode {
                    EvalMode::Bytecode => {
                        let body = self
                            .compiled
                            .as_ref()
                            .expect("bytecode installed at start")
                            .procs[p]
                            .body
                            .clone()
                            .expect("non-continuous process has a compiled body");
                        Task::CExec(body)
                    }
                    EvalMode::Ast => {
                        let body = self.design.processes[p]
                            .body
                            .as_ref()
                            .map(|b| (**b).clone())
                            .expect("checked above");
                        Task::Exec(body)
                    }
                };
                self.procs[p].tasks.push(task);
                if self.procs[p].free_running {
                    continue; // always with no sensitivity: run again
                }
                self.procs[p].watches = rearm;
                self.procs[p].status = Status::WaitEvent;
                return Ok(());
            };
            if !self.exec_task(p, task)? {
                return Ok(()); // suspended
            }
        }
    }

    /// One evaluation of a continuous assignment, then re-suspend.
    fn run_cont(&mut self, p: usize) {
        if self.mode == EvalMode::Bytecode {
            let compiled = Arc::clone(self.compiled.as_ref().expect("bytecode installed"));
            if let Some(CCont::Prog { rhs, target }) = &compiled.procs[p].cont {
                let v = self.eval_prog(rhs);
                let wt = self.resolve_ctarget(target);
                let width = target_width(&wt, &self.design);
                self.write(wt, v.resize(width.max(1), false));
                self.procs[p].status = Status::WaitEvent;
                self.drain_changes();
                return;
            }
        }
        let design = Arc::clone(&self.design);
        let ProcessKind::Continuous { lhs, rhs } = &design.processes[p].kind else {
            unreachable!("run_cont on a procedural process");
        };
        let w = self.natural_width(lhs, None);
        let v = self.eval(rhs, w, None);
        let target = self.resolve_target(lhs);
        let width = target_width(&target, &self.design);
        self.write(
            target,
            PackedVec::from_logic(&v.resize(width.max(1), false)),
        );
        self.procs[p].status = Status::WaitEvent;
        self.drain_changes();
    }

    /// Executes one task; returns `false` when the process suspended.
    fn exec_task(&mut self, p: usize, task: Task) -> Result<bool, RunError> {
        match task {
            Task::Apply(target, value) => {
                self.write(target, value);
                self.drain_changes();
                Ok(true)
            }
            Task::WaitCheck(cond) => {
                let v = self.eval(&cond, 0, None);
                if v.truthy() == Some(true) {
                    Ok(true)
                } else {
                    // Keep waiting: push ourselves back and re-suspend.
                    self.procs[p].tasks.push(Task::WaitCheck(cond.clone()));
                    self.set_level_watch(p, &cond);
                    self.procs[p].status = Status::WaitEvent;
                    Ok(false)
                }
            }
            Task::LoopWhile { cond, body } => {
                if self.eval(&cond, 0, None).truthy() == Some(true) {
                    self.procs[p].tasks.push(Task::LoopWhile {
                        cond,
                        body: body.clone(),
                    });
                    self.procs[p].tasks.push(Task::Exec(*body));
                }
                Ok(true)
            }
            Task::LoopFor { cond, step, body } => {
                if self.eval(&cond, 0, None).truthy() == Some(true) {
                    self.procs[p].tasks.push(Task::LoopFor {
                        cond,
                        step: step.clone(),
                        body: body.clone(),
                    });
                    self.procs[p].tasks.push(Task::Exec(*step));
                    self.procs[p].tasks.push(Task::Exec(*body));
                }
                Ok(true)
            }
            Task::LoopRepeat { remaining, body } => {
                if remaining > 0 {
                    self.procs[p].tasks.push(Task::LoopRepeat {
                        remaining: remaining - 1,
                        body: body.clone(),
                    });
                    self.procs[p].tasks.push(Task::Exec(*body));
                }
                Ok(true)
            }
            Task::LoopForever { body } => {
                self.procs[p]
                    .tasks
                    .push(Task::LoopForever { body: body.clone() });
                self.procs[p].tasks.push(Task::Exec(*body));
                Ok(true)
            }
            Task::Exec(stmt) => self.exec_stmt(p, stmt),
            Task::CExec(node) => self.exec_cstmt(p, node),
            Task::CLoopWhile(node) => {
                let CStmt::While { cond, body } = &*node else {
                    unreachable!("CLoopWhile holds a While node");
                };
                if self.eval_prog(cond).truthy() == Some(true) {
                    let body = Arc::clone(body);
                    self.procs[p]
                        .tasks
                        .push(Task::CLoopWhile(Arc::clone(&node)));
                    self.procs[p].tasks.push(Task::CExec(body));
                }
                Ok(true)
            }
            Task::CLoopFor(node) => {
                let CStmt::For {
                    cond, step, body, ..
                } = &*node
                else {
                    unreachable!("CLoopFor holds a For node");
                };
                if self.eval_prog(cond).truthy() == Some(true) {
                    let (step, body) = (Arc::clone(step), Arc::clone(body));
                    self.procs[p].tasks.push(Task::CLoopFor(Arc::clone(&node)));
                    self.procs[p].tasks.push(Task::CExec(step));
                    self.procs[p].tasks.push(Task::CExec(body));
                }
                Ok(true)
            }
            Task::CLoopRepeat { remaining, node } => {
                if remaining > 0 {
                    let CStmt::Repeat { body, .. } = &*node else {
                        unreachable!("CLoopRepeat holds a Repeat node");
                    };
                    let body = Arc::clone(body);
                    self.procs[p].tasks.push(Task::CLoopRepeat {
                        remaining: remaining - 1,
                        node: Arc::clone(&node),
                    });
                    self.procs[p].tasks.push(Task::CExec(body));
                }
                Ok(true)
            }
            Task::CLoopForever(node) => {
                let CStmt::Forever { body } = &*node else {
                    unreachable!("CLoopForever holds a Forever node");
                };
                let body = Arc::clone(body);
                self.procs[p]
                    .tasks
                    .push(Task::CLoopForever(Arc::clone(&node)));
                self.procs[p].tasks.push(Task::CExec(body));
                Ok(true)
            }
            Task::CWaitCheck { cond, watches } => {
                if self.eval_prog(&cond).truthy() == Some(true) {
                    Ok(true)
                } else {
                    self.procs[p].tasks.push(Task::CWaitCheck {
                        cond,
                        watches: Arc::clone(&watches),
                    });
                    self.procs[p].watches = watches;
                    self.procs[p].status = Status::WaitEvent;
                    Ok(false)
                }
            }
        }
    }

    fn exec_stmt(&mut self, p: usize, stmt: Stmt) -> Result<bool, RunError> {
        match stmt {
            Stmt::Block { stmts, .. } => {
                for s in stmts.into_iter().rev() {
                    self.procs[p].tasks.push(Task::Exec(s));
                }
                Ok(true)
            }
            Stmt::Null { .. } => Ok(true),
            Stmt::Assign {
                lhs,
                rhs,
                kind,
                delay,
                ..
            } => {
                let w = self.natural_width(&lhs, None);
                let value = self.eval(&rhs, w, None);
                let target = self.resolve_target(&lhs);
                let width = target_width(&target, &self.design).max(1);
                let value =
                    PackedVec::from_logic(&value.resize(width, self.is_signed_expr(&rhs, None)));
                let delay_amt = delay
                    .as_ref()
                    .map(|d| self.eval(d, 0, None).to_u64_ext().unwrap_or(0));
                self.finish_assign(p, kind, target, value, delay_amt)
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
                ..
            } => {
                let c = self.eval(&cond, 0, None);
                if c.truthy() == Some(true) {
                    self.procs[p].tasks.push(Task::Exec(*then_stmt));
                } else if let Some(e) = else_stmt {
                    self.procs[p].tasks.push(Task::Exec(*e));
                }
                Ok(true)
            }
            Stmt::Case {
                kind, expr, arms, ..
            } => {
                let selw = self.natural_width(&expr, None);
                let sel = self.eval(&expr, 0, None);
                let mut default = None;
                for arm in arms {
                    if arm.labels.is_empty() {
                        default = Some(arm.body);
                        continue;
                    }
                    let mut hit = false;
                    for l in &arm.labels {
                        let lv = self.eval(l, selw, None);
                        if case_label_matches(kind, &sel, &lv) {
                            hit = true;
                            break;
                        }
                    }
                    if hit {
                        self.procs[p].tasks.push(Task::Exec(arm.body));
                        return Ok(true);
                    }
                }
                if let Some(d) = default {
                    self.procs[p].tasks.push(Task::Exec(d));
                }
                Ok(true)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.procs[p].tasks.push(Task::LoopFor { cond, step, body });
                self.procs[p].tasks.push(Task::Exec(*init));
                Ok(true)
            }
            Stmt::While { cond, body, .. } => {
                self.procs[p].tasks.push(Task::LoopWhile { cond, body });
                Ok(true)
            }
            Stmt::Repeat { count, body, .. } => {
                let n = self.eval(&count, 0, None).to_u64_ext().unwrap_or(0);
                self.procs[p]
                    .tasks
                    .push(Task::LoopRepeat { remaining: n, body });
                Ok(true)
            }
            Stmt::Forever { body, .. } => {
                self.procs[p].tasks.push(Task::LoopForever { body });
                Ok(true)
            }
            Stmt::Delay { amount, stmt, .. } => {
                let d = self.eval(&amount, 0, None).to_u64_ext().unwrap_or(0);
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::Exec(*s));
                }
                self.schedule_wake(p, self.time + d);
                Ok(false)
            }
            Stmt::Event {
                sensitivity, stmt, ..
            } => {
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::Exec(*s));
                }
                let watches = compile_sens(&sensitivity, &self.design);
                if watches.is_empty() {
                    // Nothing observable: treat as a no-op rather than hang.
                    return Ok(true);
                }
                self.procs[p].watches = watches.into();
                self.procs[p].status = Status::WaitEvent;
                Ok(false)
            }
            Stmt::Wait { cond, stmt, .. } => {
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::Exec(*s));
                }
                let v = self.eval(&cond, 0, None);
                if v.truthy() == Some(true) {
                    Ok(true)
                } else {
                    self.procs[p].tasks.push(Task::WaitCheck(cond.clone()));
                    self.set_level_watch(p, &cond);
                    self.procs[p].status = Status::WaitEvent;
                    Ok(false)
                }
            }
            Stmt::SysCall { name, args, .. } => {
                self.exec_syscall(p, &name, &args);
                Ok(!self.finished)
            }
        }
    }

    /// Executes one compiled statement (bytecode mode). Task-push order
    /// matches [`Self::exec_stmt`] arm for arm so step counts and event
    /// ordering are identical across modes.
    fn exec_cstmt(&mut self, p: usize, node: Arc<CStmt>) -> Result<bool, RunError> {
        match &*node {
            CStmt::Block(stmts) => {
                for s in stmts.iter().rev() {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(s)));
                }
                Ok(true)
            }
            CStmt::Null => Ok(true),
            CStmt::Assign {
                rhs,
                target,
                signed,
                kind,
                delay,
            } => {
                let value = self.eval_prog(rhs);
                let target = self.resolve_ctarget(target);
                let width = target_width(&target, &self.design).max(1);
                let value = value.resize(width, *signed);
                let delay_amt = delay
                    .as_ref()
                    .map(|d| self.eval_prog(d).to_u64_ext().unwrap_or(0));
                self.finish_assign(p, *kind, target, value, delay_amt)
            }
            CStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                if self.eval_prog(cond).truthy() == Some(true) {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(then_s)));
                } else if let Some(e) = else_s {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(e)));
                }
                Ok(true)
            }
            CStmt::Case {
                wild_z,
                wild_x,
                sel,
                arms,
            } => {
                let sel = self.eval_prog(sel);
                let mut default = None;
                for arm in arms.iter() {
                    if arm.labels.is_empty() {
                        default = Some(&arm.body);
                        continue;
                    }
                    let mut hit = false;
                    for l in arm.labels.iter() {
                        let lv = self.eval_prog(l);
                        if sel.matches_with_wildcards(&lv, *wild_z, *wild_x) {
                            hit = true;
                            break;
                        }
                    }
                    if hit {
                        self.procs[p].tasks.push(Task::CExec(Arc::clone(&arm.body)));
                        return Ok(true);
                    }
                }
                if let Some(d) = default {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(d)));
                }
                Ok(true)
            }
            CStmt::For { init, .. } => {
                self.procs[p].tasks.push(Task::CLoopFor(Arc::clone(&node)));
                self.procs[p].tasks.push(Task::CExec(Arc::clone(init)));
                Ok(true)
            }
            CStmt::While { .. } => {
                self.procs[p]
                    .tasks
                    .push(Task::CLoopWhile(Arc::clone(&node)));
                Ok(true)
            }
            CStmt::Repeat { count, .. } => {
                let n = self.eval_prog(count).to_u64_ext().unwrap_or(0);
                self.procs[p].tasks.push(Task::CLoopRepeat {
                    remaining: n,
                    node: Arc::clone(&node),
                });
                Ok(true)
            }
            CStmt::Forever { .. } => {
                self.procs[p]
                    .tasks
                    .push(Task::CLoopForever(Arc::clone(&node)));
                Ok(true)
            }
            CStmt::Delay { amount, stmt } => {
                let d = self.eval_prog(amount).to_u64_ext().unwrap_or(0);
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(s)));
                }
                self.schedule_wake(p, self.time + d);
                Ok(false)
            }
            CStmt::Event { watches, stmt } => {
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(s)));
                }
                if watches.is_empty() {
                    return Ok(true);
                }
                self.procs[p].watches = Arc::clone(watches);
                self.procs[p].status = Status::WaitEvent;
                Ok(false)
            }
            CStmt::Wait {
                cond,
                watches,
                stmt,
            } => {
                if let Some(s) = stmt {
                    self.procs[p].tasks.push(Task::CExec(Arc::clone(s)));
                }
                if self.eval_prog(cond).truthy() == Some(true) {
                    Ok(true)
                } else {
                    self.procs[p].tasks.push(Task::CWaitCheck {
                        cond: Arc::clone(cond),
                        watches: Arc::clone(watches),
                    });
                    self.procs[p].watches = Arc::clone(watches);
                    self.procs[p].status = Status::WaitEvent;
                    Ok(false)
                }
            }
            CStmt::SysCall { name, args } => {
                self.exec_syscall(p, name, args);
                Ok(!self.finished)
            }
            CStmt::Ast(s) => self.exec_stmt(p, (**s).clone()),
        }
    }

    /// Shared tail of blocking/nonblocking assignment dispatch.
    fn finish_assign(
        &mut self,
        p: usize,
        kind: AssignKind,
        target: WriteTarget,
        value: PackedVec,
        delay_amt: Option<u64>,
    ) -> Result<bool, RunError> {
        match (kind, delay_amt) {
            (AssignKind::Blocking, None) => {
                self.write(target, value);
                self.drain_changes();
                Ok(true)
            }
            (AssignKind::Blocking, Some(d)) => {
                self.procs[p].tasks.push(Task::Apply(target, value));
                self.schedule_wake(p, self.time + d);
                Ok(false)
            }
            (AssignKind::NonBlocking, None) => {
                self.nba.push((target, value));
                Ok(true)
            }
            (AssignKind::NonBlocking, Some(d)) => {
                let t = self.time + d;
                self.future_push(t, FutureEvent::Nba(target, value));
                Ok(true)
            }
        }
    }

    /// Runs a register program and returns its result value.
    fn eval_prog(&mut self, prog: &ExprProg) -> PackedVec {
        // Take the scratch register file so `&self` helpers (the AST
        // fallback, `$random`) can run while registers are held. Programs
        // write every register before reading it, so stale values from a
        // previous program are never observed.
        let mut regs = std::mem::take(&mut self.scratch);
        if regs.len() < prog.nregs {
            regs.resize(prog.nregs, PackedVec::default());
        }
        for ins in prog.instrs.iter() {
            let (dst, v) = match ins {
                Instr::Const { dst, v } => (*dst, v.clone()),
                Instr::Load { dst, sig } => (*dst, self.store[*sig].clone()),
                Instr::LoadBit { dst, sig, off } => {
                    (*dst, PackedVec::from_bit(self.store[*sig].bit(*off)))
                }
                Instr::LoadSlice {
                    dst,
                    sig,
                    lo,
                    width,
                } => (*dst, self.store[*sig].slice(*lo, *width)),
                Instr::LoadWordConst { dst, sig, off } => (*dst, self.mems[*sig][*off].clone()),
                Instr::LoadWord { dst, sig, idx } => {
                    let def = &self.design.signals[*sig];
                    let v = match regs[*idx].to_u64_ext() {
                        Some(i) => match def.word_offset(i as i64) {
                            Some(off) => self.mems[*sig][off].clone(),
                            None => PackedVec::xs(def.width),
                        },
                        None => PackedVec::xs(def.width),
                    };
                    (*dst, v)
                }
                Instr::LoadBitDyn { dst, sig, idx } => {
                    let v = match regs[*idx].to_u64_ext() {
                        Some(i) => match self.design.signals[*sig].bit_offset(i as i64) {
                            Some(off) => PackedVec::from_bit(self.store[*sig].bit(off)),
                            None => PackedVec::xs(1),
                        },
                        None => PackedVec::xs(1),
                    };
                    (*dst, v)
                }
                Instr::SliceReg { dst, a, lo, width } => (*dst, regs[*a].slice(*lo, *width)),
                Instr::Resize {
                    dst,
                    a,
                    width,
                    signed,
                } => (*dst, regs[*a].resize(*width, *signed)),
                Instr::Un { dst, op, a } => {
                    use UnaryOp::*;
                    let x = &regs[*a];
                    let v = match op {
                        Plus => x.clone(),
                        Neg => x.neg(),
                        LogicNot => x.log_not(),
                        BitNot => x.bit_not(),
                        RedAnd => x.reduce_and(false),
                        RedNand => x.reduce_and(true),
                        RedOr => x.reduce_or(false),
                        RedNor => x.reduce_or(true),
                        RedXor => x.reduce_xor(false),
                        RedXnor => x.reduce_xor(true),
                    };
                    (*dst, v)
                }
                Instr::Bin {
                    dst,
                    op,
                    a,
                    b,
                    signed,
                } => (*dst, apply_bin(*op, &regs[*a], &regs[*b], *signed)),
                Instr::LoadBin {
                    dst,
                    sig,
                    op,
                    b,
                    swapped,
                    signed,
                } => {
                    self.fused_hits += 1;
                    let s = &self.store[*sig];
                    let v = if *swapped {
                        apply_bin(*op, &regs[*b], s, *signed)
                    } else {
                        apply_bin(*op, s, &regs[*b], *signed)
                    };
                    (*dst, v)
                }
                Instr::BinImm {
                    dst,
                    op,
                    a,
                    imm,
                    swapped,
                    signed,
                } => {
                    self.fused_hits += 1;
                    let v = if *swapped {
                        apply_bin(*op, imm, &regs[*a], *signed)
                    } else {
                        apply_bin(*op, &regs[*a], imm, *signed)
                    };
                    (*dst, v)
                }
                Instr::Mux { dst, cond, t, f } => {
                    let v = match regs[*cond].truthy() {
                        Some(true) => regs[*t].clone(),
                        Some(false) => regs[*f].clone(),
                        None => regs[*t].ternary_merge(&regs[*f]),
                    };
                    (*dst, v)
                }
                Instr::CmpMux {
                    dst,
                    op,
                    a,
                    b,
                    signed,
                    t,
                    f,
                } => {
                    self.fused_hits += 1;
                    let cond = apply_bin(*op, &regs[*a], &regs[*b], *signed);
                    let v = match cond.truthy() {
                        Some(true) => regs[*t].clone(),
                        Some(false) => regs[*f].clone(),
                        None => regs[*t].ternary_merge(&regs[*f]),
                    };
                    (*dst, v)
                }
                Instr::Concat { dst, parts } => {
                    let mut acc = PackedVec::default();
                    for r in parts.iter() {
                        acc = acc.concat(&regs[*r]);
                    }
                    let v = if acc.is_empty() {
                        PackedVec::xs(1)
                    } else {
                        acc
                    };
                    (*dst, v)
                }
                Instr::Repl { dst, parts, count } => {
                    let mut inner = PackedVec::default();
                    for r in parts.iter() {
                        inner = inner.concat(&regs[*r]);
                    }
                    let r = inner.replicate(*count);
                    let v = if r.is_empty() { PackedVec::zeros(1) } else { r };
                    (*dst, v)
                }
                Instr::Rand { dst } => {
                    let mut s = self.rand_state.get();
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    self.rand_state.set(s);
                    (*dst, PackedVec::from_u64(s & 0xFFFF_FFFF, 32))
                }
                Instr::Time { dst } => (*dst, PackedVec::from_u64(self.time, 64)),
                Instr::Fallback { dst, expr, ctx } => {
                    (*dst, PackedVec::from_logic(&self.eval(expr, *ctx, None)))
                }
            };
            regs[dst] = v;
        }
        let out = std::mem::take(&mut regs[prog.out]);
        self.scratch = regs;
        out
    }

    /// Resolves a compiled lvalue, running index programs for the dynamic
    /// shapes; mirrors [`Self::resolve_target`].
    fn resolve_ctarget(&mut self, t: &crate::compile::CTarget) -> WriteTarget {
        use crate::compile::CTarget;
        match t {
            CTarget::Full(id) => WriteTarget::Full(*id),
            CTarget::BitsConst(id, lo, w) => WriteTarget::Bits(*id, *lo, *w),
            CTarget::WordConst(id, off) => WriteTarget::Word(*id, *off),
            CTarget::BitDyn { sig, idx } => match self.eval_prog(idx).to_u64_ext() {
                Some(v) => match self.design.signals[*sig].bit_offset(v as i64) {
                    Some(o) => WriteTarget::Bits(*sig, o, 1),
                    None => WriteTarget::Void,
                },
                None => WriteTarget::Void,
            },
            CTarget::WordDyn { sig, idx } => match self.eval_prog(idx).to_u64_ext() {
                Some(v) => match self.design.signals[*sig].word_offset(v as i64) {
                    Some(o) => WriteTarget::Word(*sig, o),
                    None => WriteTarget::Void,
                },
                None => WriteTarget::Void,
            },
            CTarget::Pack(parts) => WriteTarget::Pack(
                parts
                    .iter()
                    .map(|part| {
                        let t = self.resolve_ctarget(part);
                        let w = target_width(&t, &self.design);
                        (t, w)
                    })
                    .collect(),
            ),
            CTarget::Void => WriteTarget::Void,
        }
    }

    fn set_level_watch(&mut self, p: usize, cond: &Expr) {
        self.procs[p].watches = level_watches(cond, &self.design).into();
    }

    fn schedule_wake(&mut self, p: usize, t: u64) {
        self.procs[p].status = Status::WaitTime;
        self.future_push(t, FutureEvent::Wake(p));
    }

    /// Inserts a future event, reusing a drained bucket from
    /// `bucket_pool` for a new time slot, so a long run stops allocating
    /// one per slot.
    fn future_push(&mut self, t: u64, ev: FutureEvent) {
        use std::collections::btree_map::Entry;
        match self.future.entry(t) {
            Entry::Occupied(mut e) => e.get_mut().push(ev),
            Entry::Vacant(e) => {
                let mut bucket = self.bucket_pool.pop().unwrap_or_default();
                bucket.push(ev);
                e.insert(bucket);
            }
        }
    }

    fn exec_syscall(&mut self, p: usize, name: &str, args: &[Expr]) {
        match name {
            "display" | "write" | "strobe" => {
                let text = self.format_args(args);
                self.push_output(&text);
                if name != "write" {
                    self.push_output("\n");
                }
            }
            "monitor" => {
                self.monitors.push(MonitorSpec {
                    args: args.to_vec(),
                    last: None,
                });
            }
            "finish" | "stop" => {
                self.finished = true;
            }
            "error" | "warning" | "info" => {
                if name == "error" {
                    self.error_count += 1;
                }
                let text = self.format_args(args);
                self.push_output(&format!("[{}] {}\n", name.to_uppercase(), text));
            }
            "fatal" => {
                self.error_count += 1;
                let text = self.format_args(args);
                self.push_output(&format!("[FATAL] {text}\n"));
                self.finished = true;
            }
            // Waveform / misc directives are accepted and ignored.
            "dumpfile" | "dumpvars" | "dumpon" | "dumpoff" | "timeformat" | "readmemh"
            | "readmemb" => {}
            _ => {
                let _ = p;
            }
        }
    }

    fn push_output(&mut self, s: &str) {
        // Output cap prevents runaway testbenches from eating memory; the
        // limit is generous compared to benchmark transcripts.
        if self.output.len() < (1 << 20) {
            self.output.push_str(s);
        }
    }

    fn format_args(&self, args: &[Expr]) -> String {
        let mut out = String::new();
        if args.is_empty() {
            return out;
        }
        if let Expr::Str(fmt, _) = &args[0] {
            let mut rest = args[1..].iter();
            let mut chars = fmt.chars().peekable();
            while let Some(c) = chars.next() {
                if c != '%' {
                    out.push(c);
                    continue;
                }
                // %[0][width]conv
                let mut zero = false;
                let mut width = String::new();
                while let Some(&d) = chars.peek() {
                    if d == '0' && width.is_empty() {
                        zero = true;
                        chars.next();
                    } else if d.is_ascii_digit() {
                        width.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let Some(conv) = chars.next() else { break };
                match conv {
                    '%' => out.push('%'),
                    'm' | 'M' => {
                        // Instance path of the calling process; best-effort.
                        out.push_str("top");
                    }
                    't' | 'T' => {
                        if let Some(a) = rest.next() {
                            let v = self.eval(a, 0, None);
                            out.push_str(&format_value(&v, 'd', false));
                        }
                    }
                    's' | 'S' => {
                        if let Some(a) = rest.next() {
                            if let Expr::Str(s, _) = a {
                                out.push_str(s);
                            } else {
                                let v = self.eval(a, 0, None);
                                out.push_str(&format_value(&v, 's', false));
                            }
                        }
                    }
                    c => {
                        if let Some(a) = rest.next() {
                            let signed = self.is_signed_expr(a, None);
                            let v = self.eval(a, 0, None);
                            let s = format_value(&v, c, signed);
                            let w: usize = width.parse().unwrap_or(0);
                            if s.len() < w {
                                let pad = if zero { '0' } else { ' ' };
                                for _ in 0..(w - s.len()) {
                                    out.push(pad);
                                }
                            }
                            out.push_str(&s);
                        }
                    }
                }
            }
        } else {
            let parts: Vec<String> = args
                .iter()
                .map(|a| {
                    let signed = self.is_signed_expr(a, None);
                    let v = self.eval(a, 0, None);
                    format_value(&v, 'd', signed)
                })
                .collect();
            out.push_str(&parts.join(" "));
        }
        out
    }

    fn print_monitors(&mut self) {
        for i in 0..self.monitors.len() {
            let text = self.format_args(&self.monitors[i].args);
            if self.monitors[i].last.as_deref() != Some(text.as_str()) {
                self.push_output(&text);
                self.push_output("\n");
                self.monitors[i].last = Some(text);
            }
        }
    }

    /// Resolves an lvalue expression to a write target, evaluating index
    /// expressions with current values.
    fn resolve_target(&self, lhs: &Expr) -> WriteTarget {
        match lhs {
            Expr::Ident(i) => match self.design.index.get(&i.name) {
                Some(id) => WriteTarget::Full(*id),
                None => WriteTarget::Void,
            },
            Expr::Index { base, index, .. } => {
                let Some(name) = base.as_ident() else {
                    return WriteTarget::Void;
                };
                let Some((id, def)) = self.design.signal(name) else {
                    return WriteTarget::Void;
                };
                let (is_mem, bit_off, word_off) = {
                    let idx = self.eval(index, 0, None);
                    match idx.to_u64_ext() {
                        None => return WriteTarget::Void,
                        Some(v) => {
                            let v = v as i64;
                            (def.mem.is_some(), def.bit_offset(v), def.word_offset(v))
                        }
                    }
                };
                if is_mem {
                    match word_off {
                        Some(o) => WriteTarget::Word(id, o),
                        None => WriteTarget::Void,
                    }
                } else {
                    match bit_off {
                        Some(o) => WriteTarget::Bits(id, o, 1),
                        None => WriteTarget::Void,
                    }
                }
            }
            Expr::PartSelect { base, msb, lsb, .. } => {
                let Some(name) = base.as_ident() else {
                    return WriteTarget::Void;
                };
                let Some((id, def)) = self.design.signal(name) else {
                    return WriteTarget::Void;
                };
                let m = self.eval(msb, 0, None).to_u64_ext();
                let l = self.eval(lsb, 0, None).to_u64_ext();
                let (Some(m), Some(l)) = (m, l) else {
                    return WriteTarget::Void;
                };
                let (m, l) = (m as i64, l as i64);
                let width = m.abs_diff(l) as usize + 1;
                let lo = def.bit_offset(if def.msb >= def.lsb { l } else { m });
                match lo {
                    Some(lo) => WriteTarget::Bits(id, lo, width),
                    None => WriteTarget::Void,
                }
            }
            Expr::IndexedPart {
                base,
                start,
                width,
                ascending,
                ..
            } => {
                let Some(name) = base.as_ident() else {
                    return WriteTarget::Void;
                };
                let Some((id, def)) = self.design.signal(name) else {
                    return WriteTarget::Void;
                };
                let s = self.eval(start, 0, None).to_u64_ext();
                let w = self.eval(width, 0, None).to_u64_ext();
                let (Some(s), Some(w)) = (s, w) else {
                    return WriteTarget::Void;
                };
                let (s, w) = (s as i64, w.max(1) as usize);
                let (msb, lsb) = if *ascending {
                    (s + w as i64 - 1, s)
                } else {
                    (s, s - w as i64 + 1)
                };
                let lo = def.bit_offset(if def.msb >= def.lsb { lsb } else { msb });
                match lo {
                    Some(lo) => WriteTarget::Bits(id, lo, w),
                    None => WriteTarget::Void,
                }
            }
            Expr::Concat(parts, _) => {
                let resolved: Vec<(WriteTarget, usize)> = parts
                    .iter()
                    .map(|p| {
                        let t = self.resolve_target(p);
                        let w = target_width(&t, &self.design);
                        (t, w)
                    })
                    .collect();
                WriteTarget::Pack(resolved)
            }
            _ => WriteTarget::Void,
        }
    }

    /// Applies a write, recording value changes for event wake-up.
    fn write(&mut self, target: WriteTarget, value: PackedVec) {
        match target {
            WriteTarget::Void => {}
            WriteTarget::Full(id) => {
                let width = self.design.signals[id].width;
                let new = value.resize(width, false);
                let old = std::mem::replace(&mut self.store[id], new.clone());
                if old != new {
                    if let Some(vcd) = &mut self.vcd {
                        vcd.record(self.time, id, &new.to_logic_vec());
                    }
                    self.pending.push((id, old, new));
                }
            }
            WriteTarget::Bits(id, lo, width) => {
                let old = self.store[id].clone();
                let mut new = old.clone();
                new.set_range(lo, width, &value);
                if old != new {
                    self.store[id] = new.clone();
                    if let Some(vcd) = &mut self.vcd {
                        vcd.record(self.time, id, &new.to_logic_vec());
                    }
                    self.pending.push((id, old, new));
                }
            }
            WriteTarget::Word(id, off) => {
                let width = self.design.signals[id].width;
                let new = value.resize(width, false);
                if let Some(slot) = self.mems[id].get_mut(off) {
                    let old = std::mem::replace(slot, new.clone());
                    if old != new {
                        // Word writes wake level watchers of the memory.
                        self.pending
                            .push((id, PackedVec::zeros(1), PackedVec::from_bool(true)));
                        let _ = old;
                    }
                }
            }
            WriteTarget::Pack(parts) => {
                // MSB-first: the first part takes the top bits.
                let total: usize = parts.iter().map(|(_, w)| w).sum();
                let v = value.resize(total.max(1), false);
                let mut hi = total;
                for (t, w) in parts {
                    let lo = hi - w;
                    self.write(t, v.slice(lo, w));
                    hi = lo;
                }
            }
        }
    }

    /// Wakes processes whose watches match the pending changes.
    fn drain_changes(&mut self) {
        while !self.pending.is_empty() {
            let changes = std::mem::take(&mut self.pending);
            let mut to_wake = Vec::new();
            for (pi, proc) in self.procs.iter().enumerate() {
                if proc.status != Status::WaitEvent {
                    continue;
                }
                'w: for w in proc.watches.iter() {
                    for (sig, old, new) in &changes {
                        if w.sig != *sig {
                            continue;
                        }
                        if watch_matches(w, old, new) {
                            to_wake.push(pi);
                            break 'w;
                        }
                    }
                }
            }
            for pi in to_wake {
                self.procs[pi].status = Status::Ready;
                self.enqueue(pi);
            }
        }
    }
}

/// Applies a compiled binary operator exactly as the bytecode engine does
/// (shared by the `Bin` arm and the fused superinstructions).
fn apply_bin(op: BinaryOp, x: &PackedVec, y: &PackedVec, signed: bool) -> PackedVec {
    use BinaryOp::*;
    match op {
        Add => x.add(y),
        Sub => x.sub(y),
        Mul => x.mul(y),
        Div => x.div(y),
        Mod => x.rem(y),
        Pow => x.pow(y),
        Shl => x.shl(y),
        Shr => x.shr(y),
        AShr => {
            if signed {
                x.ashr(y)
            } else {
                x.shr(y)
            }
        }
        Eq => x.log_eq(y),
        Ne => x.log_ne(y),
        CaseEq => PackedVec::from_bool(x.case_eq(y)),
        CaseNe => PackedVec::from_bool(!x.case_eq(y)),
        Lt => x.cmp_lt(y, signed),
        Gt => y.cmp_lt(x, signed),
        Le => y.cmp_lt(x, signed).log_not(),
        Ge => x.cmp_lt(y, signed).log_not(),
        BitAnd => x.bit_and(y),
        BitOr => x.bit_or(y),
        BitXor => x.bit_xor(y),
        BitXnor => x.bit_xnor(y),
        LogicAnd => x.log_and(y),
        LogicOr => x.log_or(y),
    }
}

fn watch_matches(w: &SensWatch, old: &PackedVec, new: &PackedVec) -> bool {
    match w.edge {
        None => {
            if let Some(b) = w.bit {
                old.bit(b) != new.bit(b)
            } else {
                old != new
            }
        }
        Some(edge) => {
            let b = w.bit.unwrap_or(0);
            let (o, n) = (old.bit(b), new.bit(b));
            match edge {
                Edge::Pos => {
                    (o == LogicBit::Zero && n != LogicBit::Zero)
                        || (o.is_unknown() && n == LogicBit::One)
                }
                Edge::Neg => {
                    (o == LogicBit::One && n != LogicBit::One)
                        || (o.is_unknown() && n == LogicBit::Zero)
                }
            }
        }
    }
}

fn target_width(t: &WriteTarget, design: &Design) -> usize {
    match t {
        WriteTarget::Void => 0,
        WriteTarget::Full(id) | WriteTarget::Word(id, _) => design.signals[*id].width,
        WriteTarget::Bits(_, _, w) => *w,
        WriteTarget::Pack(parts) => parts.iter().map(|(_, w)| w).sum(),
    }
}

/// Lowers a sensitivity list to watches against the design's signal table.
pub(crate) fn compile_sens(s: &Sensitivity, design: &Design) -> Vec<SensWatch> {
    let mut out = Vec::new();
    let Sensitivity::List(items) = s else {
        return out;
    };
    for item in items {
        match &item.expr {
            Expr::Ident(i) => {
                if let Some(id) = design.index.get(&i.name) {
                    out.push(SensWatch {
                        sig: *id,
                        bit: None,
                        edge: item.edge,
                    });
                }
            }
            Expr::Index { base, index, .. } => {
                if let (Some(name), Expr::Number(n, _)) = (base.as_ident(), index.as_ref()) {
                    if let Some((id, def)) = design.signal(name) {
                        let bit = n.value.to_u64().and_then(|v| def.bit_offset(v as i64));
                        out.push(SensWatch {
                            sig: id,
                            bit,
                            edge: item.edge,
                        });
                        continue;
                    }
                }
                // Fallback: level-watch every identifier in the expression.
                out.extend(level_watches(&item.expr, design));
            }
            other => {
                out.extend(level_watches(other, design));
            }
        }
    }
    out
}

/// Level (any-change) watches for every identifier an expression reads.
pub(crate) fn level_watches(e: &Expr, design: &Design) -> Vec<SensWatch> {
    let mut watches = Vec::new();
    collect_expr_reads(e, design, &mut watches);
    watches
}

/// Appends a level watch for each signal of `design` that `e` reads and
/// `out` does not watch yet, in reading order. A repeated read would add
/// a duplicate that can never wake the process on its own.
fn collect_expr_reads(e: &Expr, design: &Design, out: &mut Vec<SensWatch>) {
    use dda_verilog::visit::{walk_expr, Visitor};
    struct R<'v> {
        design: &'v Design,
        out: &'v mut Vec<SensWatch>,
    }
    impl Visitor for R<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let Expr::Ident(i) = e {
                let sig = self.design.index.get(&i.name).copied();
                if let Some(sig) = sig.filter(|&s| self.out.iter().all(|w| w.sig != s)) {
                    self.out.push(SensWatch {
                        sig,
                        bit: None,
                        edge: None,
                    });
                }
            }
            walk_expr(self, e);
        }
    }
    R { design, out }.visit_expr(e);
}

fn collect_lhs_index_reads(e: &Expr, design: &Design, out: &mut Vec<SensWatch>) {
    match e {
        Expr::Index { index, .. } => collect_expr_reads(index, design, out),
        Expr::PartSelect { msb, lsb, .. } => {
            collect_expr_reads(msb, design, out);
            collect_expr_reads(lsb, design, out);
        }
        Expr::IndexedPart { start, width, .. } => {
            collect_expr_reads(start, design, out);
            collect_expr_reads(width, design, out);
        }
        Expr::Concat(parts, _) => {
            for p in parts {
                collect_lhs_index_reads(p, design, out);
            }
        }
        _ => {}
    }
}
