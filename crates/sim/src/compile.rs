//! Bytecode compilation of elaborated process bodies.
//!
//! The AST interpreter in [`crate::eval`] re-walks every expression tree on
//! every event, paying string-keyed signal lookups, recursion, and per-node
//! allocation. This pass lowers each process / continuous-assign expression
//! **once** (lazily, on first run) into a flat register program
//! ([`ExprProg`]) whose operands are pre-resolved signal slot indices, and
//! each statement into a [`CStmt`] tree whose children sit behind `Arc` so
//! loop iterations re-push a pointer instead of cloning a subtree.
//!
//! Semantics are mirrored arm-for-arm from the interpreter, including its
//! width-context propagation quirks. Wherever the static compiler cannot
//! reproduce the interpreter exactly — user-defined function calls,
//! ternaries containing calls (the interpreter only evaluates the taken
//! branch, which matters for the `$random` stream), dynamic part-select
//! bounds, non-constant replication counts — it emits a per-subtree
//! [`Instr::Fallback`] or a whole-statement [`CStmt::Ast`] node that defers
//! to the interpreter, so the two modes stay bit-identical by construction
//! (and are checked against each other by the dual-mode equivalence tests).

use crate::elab::{Design, SigId};
use crate::exec::{compile_sens, SensWatch, Simulator};
use crate::ops::LogicVecExt;
use dda_verilog::ast::{AssignKind, BinaryOp, CaseKind, Stmt, UnaryOp};
use dda_verilog::consteval::is_const_expr;
use dda_verilog::printer::print_expr;
use dda_verilog::{Expr, LogicVec, PackedVec};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A flat register program for one expression evaluation.
#[derive(Debug)]
pub(crate) struct ExprProg {
    /// Instructions in execution order.
    pub instrs: Box<[Instr]>,
    /// Register holding the result after the last instruction.
    pub out: usize,
    /// Number of registers the program uses.
    pub nregs: usize,
}

/// One register-machine instruction. Registers hold [`PackedVec`] values.
#[derive(Debug)]
pub(crate) enum Instr {
    /// Load an immediate (constant-folded at compile time).
    Const { dst: usize, v: PackedVec },
    /// Load a full signal value from its store slot.
    Load { dst: usize, sig: SigId },
    /// Load one statically-resolved bit of a signal.
    LoadBit { dst: usize, sig: SigId, off: usize },
    /// Load a statically-resolved part select of a signal.
    LoadSlice {
        dst: usize,
        sig: SigId,
        lo: usize,
        width: usize,
    },
    /// Load a memory word at a statically-resolved offset.
    LoadWordConst { dst: usize, sig: SigId, off: usize },
    /// Load a memory word at a runtime index (x/z or out-of-range → all-x).
    LoadWord { dst: usize, sig: SigId, idx: usize },
    /// Load a signal bit at a runtime index (x/z or out-of-range → x).
    LoadBitDyn { dst: usize, sig: SigId, idx: usize },
    /// Slice a register value at static bounds.
    SliceReg {
        dst: usize,
        a: usize,
        lo: usize,
        width: usize,
    },
    /// Zero-/sign-extend or truncate to a static width.
    Resize {
        dst: usize,
        a: usize,
        width: usize,
        signed: bool,
    },
    /// Unary operator.
    Un { dst: usize, op: UnaryOp, a: usize },
    /// Binary operator; `signed` feeds comparisons and `>>>`.
    Bin {
        dst: usize,
        op: BinaryOp,
        a: usize,
        b: usize,
        signed: bool,
    },
    /// Ternary select: known condition picks a branch, unknown merges
    /// bitwise (x where the branches disagree).
    Mux {
        dst: usize,
        cond: usize,
        t: usize,
        f: usize,
    },
    /// Concatenate part registers, first part highest (empty → 1-bit x).
    Concat { dst: usize, parts: Box<[usize]> },
    /// Concatenate then replicate `count` times (empty → 1-bit zero).
    Repl {
        dst: usize,
        parts: Box<[usize]>,
        count: usize,
    },
    /// `$random`/`$urandom`: advance the xorshift stream, take 32 bits.
    Rand { dst: usize },
    /// `$time`/`$stime`/`$realtime` as a 64-bit value.
    Time { dst: usize },
    /// Defer this subtree to the AST interpreter (exact-semantics escape
    /// hatch for calls, dynamic bounds, and other non-static shapes).
    Fallback {
        dst: usize,
        expr: Arc<Expr>,
        ctx: usize,
    },
    /// Fused load+binary superinstruction (peephole, see [`fuse_prog`]):
    /// the signal value feeds the operator without staging in a register.
    /// `swapped` puts the load on the right-hand side.
    LoadBin {
        dst: usize,
        sig: SigId,
        op: BinaryOp,
        b: usize,
        swapped: bool,
        signed: bool,
    },
    /// Fused binary-with-immediate superinstruction (peephole): shifts and
    /// masks by constants skip the per-eval `Const` register clone.
    /// `swapped` puts the immediate on the left-hand side.
    BinImm {
        dst: usize,
        op: BinaryOp,
        a: usize,
        imm: PackedVec,
        swapped: bool,
        signed: bool,
    },
    /// Fused compare+select superinstruction (peephole): the comparison
    /// drives the mux directly, skipping the 1-bit condition register.
    CmpMux {
        dst: usize,
        op: BinaryOp,
        a: usize,
        b: usize,
        signed: bool,
        t: usize,
        f: usize,
    },
}

/// A compiled lvalue. Mirrors `Simulator::resolve_target`: static shapes
/// resolve at compile time, dynamic indices carry a register program.
#[derive(Debug)]
pub(crate) enum CTarget {
    Full(SigId),
    /// Static bit/part select: (signal, low bit offset, width).
    BitsConst(SigId, usize, usize),
    /// Static memory word.
    WordConst(SigId, usize),
    /// Runtime bit select.
    BitDyn {
        sig: SigId,
        idx: ExprProg,
    },
    /// Runtime memory word select.
    WordDyn {
        sig: SigId,
        idx: ExprProg,
    },
    /// Concatenated lvalue, MSB-first.
    Pack(Box<[CTarget]>),
    /// Statically discarded (unknown name, shapes the interpreter drops).
    Void,
}

/// One arm of a compiled `case`; `labels` is empty for `default` arms.
#[derive(Debug)]
pub(crate) struct CCaseArm {
    pub labels: Box<[ExprProg]>,
    pub body: Arc<CStmt>,
}

/// A compiled statement. Children are `Arc` so control flow re-pushes
/// pointers; [`CStmt::Ast`] defers to the interpreter wholesale.
#[derive(Debug)]
pub(crate) enum CStmt {
    Block(Box<[Arc<CStmt>]>),
    Null,
    Assign {
        rhs: ExprProg,
        target: CTarget,
        signed: bool,
        kind: AssignKind,
        delay: Option<ExprProg>,
    },
    If {
        cond: ExprProg,
        then_s: Arc<CStmt>,
        else_s: Option<Arc<CStmt>>,
    },
    Case {
        wild_z: bool,
        wild_x: bool,
        sel: ExprProg,
        arms: Box<[CCaseArm]>,
    },
    For {
        init: Arc<CStmt>,
        cond: ExprProg,
        step: Arc<CStmt>,
        body: Arc<CStmt>,
    },
    While {
        cond: ExprProg,
        body: Arc<CStmt>,
    },
    Repeat {
        count: ExprProg,
        body: Arc<CStmt>,
    },
    Forever {
        body: Arc<CStmt>,
    },
    Delay {
        amount: ExprProg,
        stmt: Option<Arc<CStmt>>,
    },
    Event {
        watches: Arc<[SensWatch]>,
        stmt: Option<Arc<CStmt>>,
    },
    Wait {
        cond: Arc<ExprProg>,
        watches: Arc<[SensWatch]>,
        stmt: Option<Arc<CStmt>>,
    },
    SysCall {
        name: String,
        args: Vec<Expr>,
    },
    /// Interpreter fallback for statements the compiler cannot mirror
    /// exactly (dynamic lvalue bounds, non-static widths).
    Ast(Arc<Stmt>),
}

/// A compiled continuous assignment.
#[derive(Debug)]
pub(crate) enum CCont {
    Prog {
        rhs: ExprProg,
        target: CTarget,
    },
    /// Fall back to the stored `(lhs, rhs)` AST pair.
    Ast,
}

/// Per-process compilation result.
#[derive(Debug)]
pub(crate) struct CProc {
    /// Compiled body for initial/always processes.
    pub body: Option<Arc<CStmt>>,
    /// Compiled continuous assignment, if this process is one.
    pub cont: Option<CCont>,
}

/// The design's full bytecode; cached on [`Design`] behind an `Arc` so every
/// simulator cloned from the same elaboration shares one copy.
#[derive(Debug)]
pub(crate) struct CompiledDesign {
    pub procs: Vec<CProc>,
    /// Max register count over all programs (sizes the scratch file once).
    pub nregs: usize,
}

/// Compiles every process of `design`.
///
/// Constant subexpressions are folded by evaluating them on a *probe*
/// simulator that shares the design's `Arc`: they contain no identifiers
/// and no calls, so the probe's (all-x) store is never consulted and the
/// fold reproduces the interpreter's exact width/sign quirks. The probe
/// never runs, so it never reads the bytecode cell this compilation is
/// filling, and there is no reentrancy.
pub(crate) fn compile_design(design: &Arc<Design>) -> CompiledDesign {
    let probe = Simulator::from_design(Arc::clone(design));
    let mut cx = Cx {
        probe: &probe,
        nregs: 0,
    };
    let mut procs = Vec::with_capacity(design.processes.len());
    for p in &design.processes {
        match &p.kind {
            crate::elab::ProcessKind::Continuous { lhs, rhs } => {
                let cont = compile_cont(&mut cx, lhs, rhs);
                procs.push(CProc {
                    body: None,
                    cont: Some(cont),
                });
            }
            _ => {
                let body = match &p.body {
                    Some(b) => compile_stmt(&mut cx, b),
                    // A missing body degrades to an empty block, like the
                    // interpreter's `body_stmt`, so step counts match.
                    None => Arc::new(CStmt::Block(Box::new([]))),
                };
                procs.push(CProc {
                    body: Some(body),
                    cont: None,
                });
            }
        }
    }
    CompiledDesign {
        procs,
        nregs: cx.nregs,
    }
}

/// Process-global switch for the superinstruction peepholes. On by
/// default; [`set_fusion`] exists for A/B measurement and debugging.
///
/// Note the switch is consulted at *compile* time: designs whose bytecode
/// is already cached (the shared design cache, or a `Design` whose
/// `compiled()` cell is populated) keep the programs they were compiled
/// with. Benchmarks comparing both settings must compile fresh designs.
static FUSION: AtomicBool = AtomicBool::new(true);

/// Enables or disables superinstruction fusion for subsequent compiles.
pub fn set_fusion(enabled: bool) {
    FUSION.store(enabled, Ordering::Relaxed);
}

/// Whether superinstruction fusion is currently enabled.
pub fn fusion_enabled() -> bool {
    FUSION.load(Ordering::Relaxed)
}

/// Peephole pass producing fused superinstructions.
///
/// Programs are SSA by construction (`ExprCompiler` allocates a fresh
/// register per value), so each register has exactly one defining
/// instruction and a countable number of readers. Three rewrites, each
/// applied only when the producer's value has exactly one reader (and is
/// not the program result):
///
/// * **compare+select** — a comparison feeding a `Mux` condition becomes
///   [`Instr::CmpMux`].
/// * **load+bin** — a full-signal `Load` feeding a `Bin` operand becomes
///   [`Instr::LoadBin`].
/// * **const+bin** — a `Const` feeding a `Bin` operand (shift amounts,
///   masks, addends) becomes [`Instr::BinImm`].
///
/// All rewrites reorder nothing observable: instruction programs are pure
/// over the store, and `$random` (the only stateful instruction) is never
/// part of a fused pair, so values and side-effect order are identical to
/// the unfused program. The Ast-vs-Bytecode equivalence batteries run with
/// fusion on and guard exactly that.
fn fuse_prog(prog: ExprProg) -> ExprProg {
    let instrs = prog.instrs;
    let n = instrs.len();
    let mut uses = vec![0u32; prog.nregs.max(prog.out + 1)];
    let mut def: Vec<Option<usize>> = vec![None; uses.len()];
    uses[prog.out] += 1;
    for (i, ins) in instrs.iter().enumerate() {
        for r in instr_operands(ins) {
            uses[r] += 1;
        }
        def[instr_dst(ins)] = Some(i);
    }
    let once = |r: usize| uses[r] == 1;
    let mut deleted = vec![false; n];
    let mut fused: Vec<Option<Instr>> = (0..n).map(|_| None).collect();
    // Pass 1: compare+select. Claims the compare before the load/const
    // peepholes can, matching the listed priority.
    for i in 0..n {
        let Instr::Mux { dst, cond, t, f } = &instrs[i] else {
            continue;
        };
        let Some(j) = def[*cond] else { continue };
        if !once(*cond) || deleted[j] {
            continue;
        }
        if let Instr::Bin {
            op, a, b, signed, ..
        } = &instrs[j]
        {
            if is_cmp_op(*op) {
                deleted[j] = true;
                fused[i] = Some(Instr::CmpMux {
                    dst: *dst,
                    op: *op,
                    a: *a,
                    b: *b,
                    signed: *signed,
                    t: *t,
                    f: *f,
                });
            }
        }
    }
    // Pass 2: load+bin and const+bin on the surviving plain Bins.
    for i in 0..n {
        if deleted[i] || fused[i].is_some() {
            continue;
        }
        let Instr::Bin {
            dst,
            op,
            a,
            b,
            signed,
        } = &instrs[i]
        else {
            continue;
        };
        let (dst, op, a, b, signed) = (*dst, *op, *a, *b, *signed);
        let candidate = |r: usize, deleted: &[bool], fused: &[Option<Instr>]| -> Option<usize> {
            let j = def[r]?;
            (once(r) && !deleted[j] && fused[j].is_none()).then_some(j)
        };
        let mut pick: Option<(usize, Instr)> = None;
        if let Some(j) = candidate(a, &deleted, &fused) {
            if let Instr::Load { sig, .. } = &instrs[j] {
                pick = Some((
                    j,
                    Instr::LoadBin {
                        dst,
                        sig: *sig,
                        op,
                        b,
                        swapped: false,
                        signed,
                    },
                ));
            }
        }
        if pick.is_none() {
            if let Some(j) = candidate(b, &deleted, &fused) {
                match &instrs[j] {
                    Instr::Load { sig, .. } => {
                        pick = Some((
                            j,
                            Instr::LoadBin {
                                dst,
                                sig: *sig,
                                op,
                                b: a,
                                swapped: true,
                                signed,
                            },
                        ));
                    }
                    Instr::Const { v, .. } => {
                        pick = Some((
                            j,
                            Instr::BinImm {
                                dst,
                                op,
                                a,
                                imm: v.clone(),
                                swapped: false,
                                signed,
                            },
                        ));
                    }
                    _ => {}
                }
            }
        }
        if pick.is_none() {
            if let Some(j) = candidate(a, &deleted, &fused) {
                if let Instr::Const { v, .. } = &instrs[j] {
                    pick = Some((
                        j,
                        Instr::BinImm {
                            dst,
                            op,
                            a: b,
                            imm: v.clone(),
                            swapped: true,
                            signed,
                        },
                    ));
                }
            }
        }
        if let Some((j, ins)) = pick {
            deleted[j] = true;
            fused[i] = Some(ins);
        }
    }
    let out: Vec<Instr> = instrs
        .into_vec()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !deleted[*i])
        .map(|(i, ins)| fused[i].take().unwrap_or(ins))
        .collect();
    ExprProg {
        instrs: out.into_boxed_slice(),
        out: prog.out,
        nregs: prog.nregs,
    }
}

fn is_cmp_op(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(op, Eq | Ne | CaseEq | CaseNe | Lt | Gt | Le | Ge)
}

fn instr_dst(ins: &Instr) -> usize {
    match ins {
        Instr::Const { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::LoadBit { dst, .. }
        | Instr::LoadSlice { dst, .. }
        | Instr::LoadWordConst { dst, .. }
        | Instr::LoadWord { dst, .. }
        | Instr::LoadBitDyn { dst, .. }
        | Instr::SliceReg { dst, .. }
        | Instr::Resize { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Mux { dst, .. }
        | Instr::Concat { dst, .. }
        | Instr::Repl { dst, .. }
        | Instr::Rand { dst }
        | Instr::Time { dst }
        | Instr::Fallback { dst, .. }
        | Instr::LoadBin { dst, .. }
        | Instr::BinImm { dst, .. }
        | Instr::CmpMux { dst, .. } => *dst,
    }
}

fn instr_operands(ins: &Instr) -> Vec<usize> {
    match ins {
        Instr::Const { .. }
        | Instr::Load { .. }
        | Instr::LoadBit { .. }
        | Instr::LoadSlice { .. }
        | Instr::LoadWordConst { .. }
        | Instr::Rand { .. }
        | Instr::Time { .. }
        | Instr::Fallback { .. } => Vec::new(),
        Instr::LoadWord { idx, .. } | Instr::LoadBitDyn { idx, .. } => vec![*idx],
        Instr::SliceReg { a, .. } | Instr::Resize { a, .. } | Instr::Un { a, .. } => vec![*a],
        Instr::Bin { a, b, .. } => vec![*a, *b],
        Instr::Mux { cond, t, f, .. } => vec![*cond, *t, *f],
        Instr::Concat { parts, .. } | Instr::Repl { parts, .. } => parts.to_vec(),
        Instr::LoadBin { b, .. } => vec![*b],
        Instr::BinImm { a, .. } => vec![*a],
        Instr::CmpMux { a, b, t, f, .. } => vec![*a, *b, *t, *f],
    }
}

struct Cx<'a> {
    probe: &'a Simulator,
    nregs: usize,
}

impl Cx<'_> {
    fn prog(&mut self, e: &Expr, ctx: usize) -> ExprProg {
        let mut c = ExprCompiler {
            probe: self.probe,
            instrs: Vec::new(),
            next: 0,
        };
        let (out, _) = c.compile(e, ctx);
        self.nregs = self.nregs.max(c.next);
        let prog = ExprProg {
            instrs: c.instrs.into_boxed_slice(),
            out,
            nregs: c.next,
        };
        if fusion_enabled() {
            fuse_prog(prog)
        } else {
            prog
        }
    }

    fn design(&self) -> &Design {
        &self.probe.design
    }
}

fn compile_cont(cx: &mut Cx<'_>, lhs: &Expr, rhs: &Expr) -> CCont {
    // Mirrors the interpreter's continuous path: rhs is evaluated at the
    // lvalue's natural width, so that width must be static.
    let Some(w) = static_nat_width(cx.probe, lhs) else {
        return CCont::Ast;
    };
    let Some(target) = compile_target(cx, lhs) else {
        return CCont::Ast;
    };
    CCont::Prog {
        rhs: cx.prog(rhs, w),
        target,
    }
}

fn compile_stmt(cx: &mut Cx<'_>, s: &Stmt) -> Arc<CStmt> {
    match try_compile_stmt(cx, s) {
        Some(c) => Arc::new(c),
        None => Arc::new(CStmt::Ast(Arc::new(s.clone()))),
    }
}

/// Returns `None` when the statement cannot be mirrored statically; the
/// caller wraps it in [`CStmt::Ast`].
fn try_compile_stmt(cx: &mut Cx<'_>, s: &Stmt) -> Option<CStmt> {
    Some(match s {
        Stmt::Block { stmts, .. } => {
            CStmt::Block(stmts.iter().map(|st| compile_stmt(cx, st)).collect())
        }
        Stmt::Null { .. } => CStmt::Null,
        Stmt::Assign {
            lhs,
            rhs,
            kind,
            delay,
            ..
        } => {
            // The interpreter evaluates rhs at the lvalue's natural width
            // (dynamic-width lvalues would force a runtime width; defer).
            let w = static_nat_width(cx.probe, lhs)?;
            let target = compile_target(cx, lhs)?;
            let signed = cx.probe.is_signed_expr(rhs, None);
            CStmt::Assign {
                rhs: cx.prog(rhs, w),
                target,
                signed,
                kind: *kind,
                delay: delay.as_ref().map(|d| cx.prog(d, 0)),
            }
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            ..
        } => CStmt::If {
            cond: cx.prog(cond, 0),
            then_s: compile_stmt(cx, then_stmt),
            else_s: else_stmt.as_ref().map(|e| compile_stmt(cx, e)),
        },
        Stmt::Case {
            kind, expr, arms, ..
        } => {
            // Labels are evaluated at the selector's natural width.
            let selw = static_nat_width(cx.probe, expr)?;
            let (wild_z, wild_x) = match kind {
                CaseKind::Exact => (false, false),
                CaseKind::Z => (true, false),
                CaseKind::X => (false, true),
            };
            CStmt::Case {
                wild_z,
                wild_x,
                sel: cx.prog(expr, 0),
                arms: arms
                    .iter()
                    .map(|arm| CCaseArm {
                        labels: arm.labels.iter().map(|l| cx.prog(l, selw)).collect(),
                        body: compile_stmt(cx, &arm.body),
                    })
                    .collect(),
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => CStmt::For {
            init: compile_stmt(cx, init),
            cond: cx.prog(cond, 0),
            step: compile_stmt(cx, step),
            body: compile_stmt(cx, body),
        },
        Stmt::While { cond, body, .. } => CStmt::While {
            cond: cx.prog(cond, 0),
            body: compile_stmt(cx, body),
        },
        Stmt::Repeat { count, body, .. } => CStmt::Repeat {
            count: cx.prog(count, 0),
            body: compile_stmt(cx, body),
        },
        Stmt::Forever { body, .. } => CStmt::Forever {
            body: compile_stmt(cx, body),
        },
        Stmt::Delay { amount, stmt, .. } => CStmt::Delay {
            amount: cx.prog(amount, 0),
            stmt: stmt.as_ref().map(|st| compile_stmt(cx, st)),
        },
        Stmt::Event {
            sensitivity, stmt, ..
        } => CStmt::Event {
            watches: compile_sens(sensitivity, cx.design()).into(),
            stmt: stmt.as_ref().map(|st| compile_stmt(cx, st)),
        },
        Stmt::Wait { cond, stmt, .. } => {
            // Level watches depend only on which identifiers the condition
            // reads, so they are precomputed here instead of per suspend.
            let watches: Arc<[SensWatch]> = crate::exec::level_watches(cond, cx.design()).into();
            CStmt::Wait {
                cond: Arc::new(cx.prog(cond, 0)),
                watches,
                stmt: stmt.as_ref().map(|st| compile_stmt(cx, st)),
            }
        }
        Stmt::SysCall { name, args, .. } => CStmt::SysCall {
            name: name.clone(),
            args: args.clone(),
        },
    })
}

/// Compiles an lvalue; `None` defers the whole enclosing assignment.
fn compile_target(cx: &mut Cx<'_>, lhs: &Expr) -> Option<CTarget> {
    Some(match lhs {
        Expr::Ident(i) => match cx.design().index.get(&i.name) {
            Some(id) => CTarget::Full(*id),
            None => CTarget::Void,
        },
        Expr::Index { base, index, .. } => {
            let Some(name) = base.as_ident() else {
                return Some(CTarget::Void);
            };
            let Some((id, def)) = cx.design().signal(name) else {
                return Some(CTarget::Void);
            };
            let is_mem = def.mem.is_some();
            if is_const_expr(index) {
                let Some(v) = cx.probe.eval(index, 0, None).to_u64_ext() else {
                    return Some(CTarget::Void);
                };
                let v = v as i64;
                if is_mem {
                    match def.word_offset(v) {
                        Some(o) => CTarget::WordConst(id, o),
                        None => CTarget::Void,
                    }
                } else {
                    match def.bit_offset(v) {
                        Some(o) => CTarget::BitsConst(id, o, 1),
                        None => CTarget::Void,
                    }
                }
            } else {
                let idx = cx.prog(index, 0);
                if is_mem {
                    CTarget::WordDyn { sig: id, idx }
                } else {
                    CTarget::BitDyn { sig: id, idx }
                }
            }
        }
        Expr::PartSelect { base, msb, lsb, .. } => {
            let Some(name) = base.as_ident() else {
                return Some(CTarget::Void);
            };
            let Some((id, def)) = cx.design().signal(name) else {
                return Some(CTarget::Void);
            };
            // Dynamic bounds would be evaluated twice by the interpreter
            // (once for the natural width, once for the target); only the
            // constant shape can be mirrored from a single compile.
            if !(is_const_expr(msb) && is_const_expr(lsb)) {
                return None;
            }
            let m = cx.probe.eval(msb, 0, None).to_u64_ext();
            let l = cx.probe.eval(lsb, 0, None).to_u64_ext();
            let (Some(m), Some(l)) = (m, l) else {
                return Some(CTarget::Void);
            };
            let (m, l) = (m as i64, l as i64);
            let width = m.abs_diff(l) as usize + 1;
            match def.bit_offset(if def.msb >= def.lsb { l } else { m }) {
                Some(lo) => CTarget::BitsConst(id, lo, width),
                None => CTarget::Void,
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
                return Some(CTarget::Void);
            };
            let Some((id, def)) = cx.design().signal(name) else {
                return Some(CTarget::Void);
            };
            if !(is_const_expr(start) && is_const_expr(width)) {
                return None;
            }
            let s = cx.probe.eval(start, 0, None).to_u64_ext();
            let w = cx.probe.eval(width, 0, None).to_u64_ext();
            let (Some(s), Some(w)) = (s, w) else {
                return Some(CTarget::Void);
            };
            let (s, w) = (s as i64, w.max(1) as usize);
            let (msb, lsb) = if *ascending {
                (s + w as i64 - 1, s)
            } else {
                (s, s - w as i64 + 1)
            };
            match def.bit_offset(if def.msb >= def.lsb { lsb } else { msb }) {
                Some(lo) => CTarget::BitsConst(id, lo, w),
                None => CTarget::Void,
            }
        }
        Expr::Concat(parts, _) => CTarget::Pack(
            parts
                .iter()
                .map(|p| compile_target(cx, p))
                .collect::<Option<_>>()?,
        ),
        _ => CTarget::Void,
    })
}

/// Whether the subtree contains any function/system call. Calls can be
/// side-effecting (`$random`, user functions that call it), so both-branch
/// evaluation of a ternary must not touch them.
fn contains_call(e: &Expr) -> bool {
    use dda_verilog::visit::{walk_expr, Visitor};
    struct C(bool);
    impl Visitor for C {
        fn visit_expr(&mut self, e: &Expr) {
            if matches!(e, Expr::Call { .. }) {
                self.0 = true;
            }
            walk_expr(self, e);
        }
    }
    let mut c = C(false);
    c.visit_expr(e);
    c.0
}

/// Static mirror of `Simulator::natural_width` with `frame = None`: returns
/// `None` for the arms whose width depends on runtime signal values
/// (non-constant select bounds, replication counts, function ranges).
pub(crate) fn static_nat_width(probe: &Simulator, e: &Expr) -> Option<usize> {
    let const_u64 = |b: &Expr| -> Option<Option<u64>> {
        if is_const_expr(b) {
            Some(probe.eval(b, 0, None).to_u64_ext())
        } else {
            None
        }
    };
    Some(match e {
        Expr::Number(n, _) => n.width.map(|w| w as usize).unwrap_or(32),
        Expr::Str(s, _) => (s.len() * 8).max(1),
        Expr::Ident(i) => probe
            .design
            .signal(&i.name)
            .map(|(_, s)| s.width)
            .unwrap_or(1),
        Expr::Unary { op, expr, .. } => match op {
            UnaryOp::LogicNot
            | UnaryOp::RedAnd
            | UnaryOp::RedOr
            | UnaryOp::RedXor
            | UnaryOp::RedNand
            | UnaryOp::RedNor
            | UnaryOp::RedXnor => 1,
            _ => static_nat_width(probe, expr)?,
        },
        Expr::Binary { op, lhs, rhs, .. } => match op {
            BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::CaseEq
            | BinaryOp::CaseNe
            | BinaryOp::LogicAnd
            | BinaryOp::LogicOr => 1,
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr | BinaryOp::Pow => {
                static_nat_width(probe, lhs)?
            }
            _ => static_nat_width(probe, lhs)?.max(static_nat_width(probe, rhs)?),
        },
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => static_nat_width(probe, then_expr)?.max(static_nat_width(probe, else_expr)?),
        Expr::Concat(parts, _) => {
            let mut sum = 0usize;
            for p in parts {
                sum += static_nat_width(probe, p)?;
            }
            sum
        }
        Expr::Repeat { count, exprs, .. } => {
            let c = const_u64(count)?.unwrap_or(0).min(4096) as usize;
            let mut inner = 0usize;
            for p in exprs {
                inner += static_nat_width(probe, p)?;
            }
            (c * inner).max(1)
        }
        Expr::Index { base, .. } => {
            if let Some(name) = base.as_ident() {
                if let Some((_, s)) = probe.design.signal(name) {
                    if s.mem.is_some() {
                        return Some(s.width);
                    }
                }
            }
            1
        }
        Expr::PartSelect { msb, lsb, .. } => {
            let m = const_u64(msb)?.unwrap_or(0) as i64;
            let l = const_u64(lsb)?.unwrap_or(0) as i64;
            (m.abs_diff(l) as usize) + 1
        }
        Expr::IndexedPart { width, .. } => const_u64(width)?.unwrap_or(1) as usize,
        Expr::Call { name, args, .. } => match name.name.as_str() {
            "$time" | "$stime" | "$realtime" => 64,
            "$random" | "$urandom" => 32,
            "$signed" | "$unsigned" => match args.first() {
                Some(a) => static_nat_width(probe, a)?,
                None => 1,
            },
            "$clog2" => 32,
            _ => match probe.design.functions.get(&name.name) {
                Some(f) => match &f.range {
                    Some(r) => {
                        let m = const_u64(&r.msb)??;
                        let l = const_u64(&r.lsb)??;
                        (m as i64).abs_diff(l as i64) as usize + 1
                    }
                    None => 1,
                },
                None => 1,
            },
        },
    })
}

struct ExprCompiler<'a> {
    probe: &'a Simulator,
    instrs: Vec<Instr>,
    next: usize,
}

impl ExprCompiler<'_> {
    fn fresh(&mut self) -> usize {
        let r = self.next;
        self.next += 1;
        r
    }

    /// Emits a constant register; the tracked width is exact.
    fn constant(&mut self, v: LogicVec) -> (usize, Option<usize>) {
        let v = PackedVec::from_logic(&v);
        let w = v.width();
        let dst = self.fresh();
        self.instrs.push(Instr::Const { dst, v });
        (dst, Some(w))
    }

    fn fallback(&mut self, e: &Expr, ctx: usize) -> (usize, Option<usize>) {
        let dst = self.fresh();
        self.instrs.push(Instr::Fallback {
            dst,
            expr: Arc::new(e.clone()),
            ctx,
        });
        (dst, None)
    }

    /// Forces `(reg, width)` to `width`/`signed`, skipping the resize when
    /// the register's value statically already has that width (resizing to
    /// the current width is the identity).
    fn coerce(&mut self, r: (usize, Option<usize>), width: usize, signed: bool) -> usize {
        if r.1 == Some(width) {
            return r.0;
        }
        let dst = self.fresh();
        self.instrs.push(Instr::Resize {
            dst,
            a: r.0,
            width,
            signed,
        });
        dst
    }

    fn nat(&self, e: &Expr) -> Option<usize> {
        static_nat_width(self.probe, e)
    }

    fn signed(&self, e: &Expr) -> bool {
        self.probe.is_signed_expr(e, None)
    }

    /// Compiles `e` at context width `ctx`, returning the result register
    /// and its statically-known width (`None` when only runtime knows).
    fn compile(&mut self, e: &Expr, ctx: usize) -> (usize, Option<usize>) {
        // Closed constants fold completely: no identifiers and no calls
        // means the probe's evaluation is the interpreter's, verbatim.
        if is_const_expr(e) {
            let v = self.probe.eval(e, ctx, None);
            return self.constant(v);
        }
        match e {
            Expr::Number(..) | Expr::Str(..) => unreachable!("literals are const"),
            Expr::Ident(i) => match self.probe.design.signal(&i.name) {
                Some((id, def)) => {
                    let dst = self.fresh();
                    self.instrs.push(Instr::Load { dst, sig: id });
                    let w = def.width.max(ctx);
                    let signed = self.signed(e);
                    let r = self.coerce((dst, Some(def.width)), w, signed);
                    (r, Some(w))
                }
                None => self.constant(LogicVec::xs(ctx.max(1))),
            },
            Expr::Unary { op, expr, .. } => {
                use UnaryOp::*;
                match op {
                    Plus => self.compile(expr, ctx),
                    Neg | BitNot => {
                        let (a, w) = self.compile(expr, ctx);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Un { dst, op: *op, a });
                        (dst, w)
                    }
                    LogicNot | RedAnd | RedOr | RedXor | RedNand | RedNor | RedXnor => {
                        let (a, _) = self.compile(expr, 0);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Un { dst, op: *op, a });
                        (dst, Some(1))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                use BinaryOp::*;
                match op {
                    Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => {
                        let (Some(wl), Some(wr)) = (self.nat(lhs), self.nat(rhs)) else {
                            return self.fallback(e, ctx);
                        };
                        let w = ctx.max(wl).max(wr);
                        let sa = self.signed(lhs);
                        let sb = self.signed(rhs);
                        let ra = self.compile(lhs, w);
                        let a = self.coerce(ra, w, sa);
                        let rb = self.compile(rhs, w);
                        let b = self.coerce(rb, w, sb);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Bin {
                            dst,
                            op: *op,
                            a,
                            b,
                            signed: false,
                        });
                        (dst, Some(w))
                    }
                    Pow => {
                        let (a, wa) = self.compile(lhs, ctx);
                        let (b, _) = self.compile(rhs, 0);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Bin {
                            dst,
                            op: *op,
                            a,
                            b,
                            signed: false,
                        });
                        (dst, wa)
                    }
                    Shl | Shr | AShr => {
                        let signed = self.signed(lhs);
                        let (a, wa) = self.compile(lhs, ctx);
                        let (b, _) = self.compile(rhs, 0);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Bin {
                            dst,
                            op: *op,
                            a,
                            b,
                            signed,
                        });
                        (dst, wa)
                    }
                    Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
                        let (Some(wl), Some(wr)) = (self.nat(lhs), self.nat(rhs)) else {
                            return self.fallback(e, ctx);
                        };
                        let w = wl.max(wr);
                        let signed = self.signed(lhs) && self.signed(rhs);
                        let ra = self.compile(lhs, w);
                        let a = self.coerce(ra, w, signed);
                        let rb = self.compile(rhs, w);
                        let b = self.coerce(rb, w, signed);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Bin {
                            dst,
                            op: *op,
                            a,
                            b,
                            signed,
                        });
                        (dst, Some(1))
                    }
                    LogicAnd | LogicOr => {
                        let (a, _) = self.compile(lhs, 0);
                        let (b, _) = self.compile(rhs, 0);
                        let dst = self.fresh();
                        self.instrs.push(Instr::Bin {
                            dst,
                            op: *op,
                            a,
                            b,
                            signed: false,
                        });
                        (dst, Some(1))
                    }
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                // The interpreter evaluates only the taken branch; a Mux
                // evaluates both. That is observable whenever a call hides
                // anywhere inside (the `$random` stream, function loops).
                if contains_call(e) {
                    return self.fallback(e, ctx);
                }
                let (c, _) = self.compile(cond, 0);
                let (t, wt) = self.compile(then_expr, ctx);
                let (f, wf) = self.compile(else_expr, ctx);
                let dst = self.fresh();
                self.instrs.push(Instr::Mux { dst, cond: c, t, f });
                (dst, if wt == wf { wt } else { None })
            }
            Expr::Concat(parts, _) => {
                let mut regs = Vec::with_capacity(parts.len());
                let mut sum = Some(0usize);
                for p in parts {
                    let (r, w) = self.compile(p, 0);
                    regs.push(r);
                    sum = match (sum, w) {
                        (Some(s), Some(w)) => Some(s + w),
                        _ => None,
                    };
                }
                let dst = self.fresh();
                self.instrs.push(Instr::Concat {
                    dst,
                    parts: regs.into_boxed_slice(),
                });
                (dst, sum.map(|s| s.max(1)))
            }
            Expr::Repeat { count, exprs, .. } => {
                if !is_const_expr(count) {
                    return self.fallback(e, ctx);
                }
                let c = self
                    .probe
                    .eval(count, 0, None)
                    .to_u64_ext()
                    .unwrap_or(0)
                    .min(4096) as usize;
                let mut regs = Vec::with_capacity(exprs.len());
                let mut inner = Some(0usize);
                for p in exprs {
                    let (r, w) = self.compile(p, 0);
                    regs.push(r);
                    inner = match (inner, w) {
                        (Some(s), Some(w)) => Some(s + w),
                        _ => None,
                    };
                }
                let dst = self.fresh();
                self.instrs.push(Instr::Repl {
                    dst,
                    parts: regs.into_boxed_slice(),
                    count: c,
                });
                (dst, inner.map(|s| (c * s).max(1)))
            }
            Expr::Index { base, index, .. } => {
                let Some(name) = base.as_ident() else {
                    // Bit select on a computed value — rare; defer.
                    return self.fallback(e, ctx);
                };
                let Some((id, def)) = self.probe.design.signal(name) else {
                    // Unknown identifier reads as x (no frames at process
                    // level, so no function-local path to mirror).
                    return self.constant(LogicVec::xs(1));
                };
                if def.mem.is_some() {
                    let mem_w = def.width;
                    if is_const_expr(index) {
                        match self
                            .probe
                            .eval(index, 0, None)
                            .to_u64_ext()
                            .and_then(|v| def.word_offset(v as i64))
                        {
                            Some(off) => {
                                let dst = self.fresh();
                                self.instrs.push(Instr::LoadWordConst { dst, sig: id, off });
                                (dst, Some(mem_w))
                            }
                            None => self.constant(LogicVec::xs(mem_w)),
                        }
                    } else {
                        let (idx, _) = self.compile(index, 0);
                        let dst = self.fresh();
                        self.instrs.push(Instr::LoadWord { dst, sig: id, idx });
                        (dst, Some(mem_w))
                    }
                } else if is_const_expr(index) {
                    match self
                        .probe
                        .eval(index, 0, None)
                        .to_u64_ext()
                        .and_then(|v| def.bit_offset(v as i64))
                    {
                        Some(off) => {
                            let dst = self.fresh();
                            self.instrs.push(Instr::LoadBit { dst, sig: id, off });
                            (dst, Some(1))
                        }
                        None => self.constant(LogicVec::xs(1)),
                    }
                } else {
                    let (idx, _) = self.compile(index, 0);
                    let dst = self.fresh();
                    self.instrs.push(Instr::LoadBitDyn { dst, sig: id, idx });
                    (dst, Some(1))
                }
            }
            Expr::PartSelect { base, msb, lsb, .. } => {
                if !(is_const_expr(msb) && is_const_expr(lsb)) {
                    return self.fallback(e, ctx);
                }
                let m = self.probe.eval(msb, 0, None).to_u64_ext();
                let l = self.probe.eval(lsb, 0, None).to_u64_ext();
                let (Some(m), Some(l)) = (m, l) else {
                    return self.constant(LogicVec::xs(1));
                };
                let (m, l) = (m as i64, l as i64);
                let width = m.abs_diff(l) as usize + 1;
                if let Some(name) = base.as_ident() {
                    let Some((id, def)) = self.probe.design.signal(name) else {
                        // Unknown name: interpreter reads x then slices.
                        return self.fallback(e, ctx);
                    };
                    return match def.bit_offset(if def.msb >= def.lsb { l } else { m }) {
                        Some(lo) => {
                            let dst = self.fresh();
                            self.instrs.push(Instr::LoadSlice {
                                dst,
                                sig: id,
                                lo,
                                width,
                            });
                            (dst, Some(width))
                        }
                        None => self.constant(LogicVec::xs(width)),
                    };
                }
                let (a, _) = self.compile(base, 0);
                let dst = self.fresh();
                self.instrs.push(Instr::SliceReg {
                    dst,
                    a,
                    lo: l.min(m) as usize,
                    width,
                });
                (dst, Some(width))
            }
            Expr::IndexedPart {
                base,
                start,
                width,
                ascending,
                ..
            } => {
                if !(is_const_expr(start) && is_const_expr(width)) {
                    return self.fallback(e, ctx);
                }
                let s = self.probe.eval(start, 0, None).to_u64_ext();
                let w = self.probe.eval(width, 0, None).to_u64_ext();
                let (Some(s), Some(w)) = (s, w) else {
                    return self.constant(LogicVec::xs(1));
                };
                let (s, w) = (s as i64, w.max(1) as usize);
                let (msb, lsb) = if *ascending {
                    (s + w as i64 - 1, s)
                } else {
                    (s, s - w as i64 + 1)
                };
                if let Some(name) = base.as_ident() {
                    let Some((id, def)) = self.probe.design.signal(name) else {
                        return self.fallback(e, ctx);
                    };
                    return match def.bit_offset(if def.msb >= def.lsb { lsb } else { msb }) {
                        Some(lo) => {
                            let dst = self.fresh();
                            self.instrs.push(Instr::LoadSlice {
                                dst,
                                sig: id,
                                lo,
                                width: w,
                            });
                            (dst, Some(w))
                        }
                        None => self.constant(LogicVec::xs(w)),
                    };
                }
                let (a, _) = self.compile(base, 0);
                let dst = self.fresh();
                self.instrs.push(Instr::SliceReg {
                    dst,
                    a,
                    lo: lsb.max(0) as usize,
                    width: w,
                });
                (dst, Some(w))
            }
            Expr::Call { name, args, .. } => match name.name.as_str() {
                "$time" | "$stime" | "$realtime" => {
                    let dst = self.fresh();
                    self.instrs.push(Instr::Time { dst });
                    (dst, Some(64))
                }
                "$random" | "$urandom" => {
                    let dst = self.fresh();
                    self.instrs.push(Instr::Rand { dst });
                    (dst, Some(32))
                }
                "$signed" | "$unsigned" => match args.first() {
                    Some(a) => self.compile(a, ctx),
                    None => self.constant(LogicVec::xs(1)),
                },
                "$clog2" => match args.first() {
                    Some(a) if is_const_expr(a) => {
                        let v = self.probe.eval(a, 0, None).to_u64_ext().unwrap_or(0);
                        let r = (64 - (v.max(1) - 1).leading_zeros() as u64) as u128;
                        self.constant(crate::ops::from_u128(r, 32))
                    }
                    _ => self.fallback(e, ctx),
                },
                // User functions (and anything else) go through the
                // interpreter: frames, recursion limits, loop budgets.
                _ => self.fallback(e, ctx),
            },
        }
    }
}

impl fmt::Display for ExprProg {
    /// Disassembly listing, one instruction per line (`rN <- op ...`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ins in self.instrs.iter() {
            match ins {
                Instr::Const { dst, v } => writeln!(f, "r{dst} <- const {v}")?,
                Instr::Load { dst, sig } => writeln!(f, "r{dst} <- load s{sig}")?,
                Instr::LoadBit { dst, sig, off } => writeln!(f, "r{dst} <- loadbit s{sig}[{off}]")?,
                Instr::LoadSlice {
                    dst,
                    sig,
                    lo,
                    width,
                } => writeln!(f, "r{dst} <- loadslice s{sig}[{lo}+:{width}]")?,
                Instr::LoadWordConst { dst, sig, off } => {
                    writeln!(f, "r{dst} <- loadword s{sig}[{off}]")?
                }
                Instr::LoadWord { dst, sig, idx } => {
                    writeln!(f, "r{dst} <- loadword s{sig}[r{idx}]")?
                }
                Instr::LoadBitDyn { dst, sig, idx } => {
                    writeln!(f, "r{dst} <- loadbit s{sig}[r{idx}]")?
                }
                Instr::SliceReg { dst, a, lo, width } => {
                    writeln!(f, "r{dst} <- slice r{a}[{lo}+:{width}]")?
                }
                Instr::Resize {
                    dst,
                    a,
                    width,
                    signed,
                } => writeln!(
                    f,
                    "r{dst} <- resize r{a} to {width}{}",
                    if *signed { " signed" } else { "" }
                )?,
                Instr::Un { dst, op, a } => writeln!(f, "r{dst} <- {} r{a}", op.as_str())?,
                Instr::Bin {
                    dst,
                    op,
                    a,
                    b,
                    signed,
                } => writeln!(
                    f,
                    "r{dst} <- r{a} {} r{b}{}",
                    op.as_str(),
                    if *signed { " signed" } else { "" }
                )?,
                Instr::Mux {
                    dst,
                    cond,
                    t,
                    f: fr,
                } => writeln!(f, "r{dst} <- mux r{cond} ? r{t} : r{fr}")?,
                Instr::Concat { dst, parts } => {
                    let ps: Vec<String> = parts.iter().map(|r| format!("r{r}")).collect();
                    writeln!(f, "r{dst} <- concat {{{}}}", ps.join(", "))?
                }
                Instr::Repl { dst, parts, count } => {
                    let ps: Vec<String> = parts.iter().map(|r| format!("r{r}")).collect();
                    writeln!(f, "r{dst} <- repl {count}x{{{}}}", ps.join(", "))?
                }
                Instr::Rand { dst } => writeln!(f, "r{dst} <- $random")?,
                Instr::Time { dst } => writeln!(f, "r{dst} <- $time")?,
                Instr::Fallback { dst, expr, ctx } => {
                    writeln!(f, "r{dst} <- interp[{ctx}] {}", print_expr(expr))?
                }
                Instr::LoadBin {
                    dst,
                    sig,
                    op,
                    b,
                    swapped,
                    signed,
                } => {
                    let (lhs, rhs) = if *swapped {
                        (format!("r{b}"), format!("s{sig}"))
                    } else {
                        (format!("s{sig}"), format!("r{b}"))
                    };
                    writeln!(
                        f,
                        "r{dst} <- loadbin {lhs} {} {rhs}{}",
                        op.as_str(),
                        if *signed { " signed" } else { "" }
                    )?
                }
                Instr::BinImm {
                    dst,
                    op,
                    a,
                    imm,
                    swapped,
                    signed,
                } => {
                    let (lhs, rhs) = if *swapped {
                        (format!("{imm}"), format!("r{a}"))
                    } else {
                        (format!("r{a}"), format!("{imm}"))
                    };
                    writeln!(
                        f,
                        "r{dst} <- binimm {lhs} {} {rhs}{}",
                        op.as_str(),
                        if *signed { " signed" } else { "" }
                    )?
                }
                Instr::CmpMux {
                    dst,
                    op,
                    a,
                    b,
                    signed,
                    t,
                    f: fr,
                } => writeln!(
                    f,
                    "r{dst} <- cmpmux (r{a} {} r{b}{}) ? r{t} : r{fr}",
                    op.as_str(),
                    if *signed { " signed" } else { "" }
                )?,
            }
        }
        write!(f, "ret r{}", self.out)
    }
}
