//! Elaboration: flattens a module hierarchy into a [`Design`] of signals and
//! processes.
//!
//! Each instance is expanded by cloning the instantiated module's items,
//! substituting parameters with their (possibly overridden) constant values,
//! and prefixing every local name with the instance path (`dut.count`).
//! Port connections become continuous assignments between parent and child
//! scopes, so the simulator only ever sees one flat namespace.

use crate::ops;
use dda_verilog::ast::*;
use dda_verilog::consteval::{eval_const, eval_range};
use dda_verilog::{Expr, LogicVec, Span, Stmt};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Elaboration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl ElabError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ElabError {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error at {}: {}", self.span, self.message)
    }
}

impl Error for ElabError {}

/// Index of a signal in the flattened design.
pub type SigId = usize;

/// A flattened signal.
#[derive(Debug, Clone)]
pub struct SignalDef {
    /// Dotted hierarchical name (`dut.count`).
    pub name: String,
    /// Packed width in bits.
    pub width: usize,
    /// Declared MSB label.
    pub msb: i64,
    /// Declared LSB label.
    pub lsb: i64,
    /// Two's-complement interpretation in comparisons.
    pub signed: bool,
    /// Declared as a variable (`reg`/`integer`).
    pub is_reg: bool,
    /// Array bounds for memories (`reg [7:0] mem [0:255]`).
    pub mem: Option<(i64, i64)>,
    /// Initial value from a reg initialiser.
    pub init: Option<LogicVec>,
}

impl SignalDef {
    /// Number of words for memories, 0 for plain signals.
    pub fn mem_len(&self) -> usize {
        self.mem
            .map(|(a, b)| a.abs_diff(b) as usize + 1)
            .unwrap_or(0)
    }

    /// Maps a Verilog bit index to a storage offset (`None` if out of range).
    pub fn bit_offset(&self, idx: i64) -> Option<usize> {
        let off = if self.msb >= self.lsb {
            idx.checked_sub(self.lsb)?
        } else {
            self.lsb.checked_sub(idx)?
        };
        usize::try_from(off).ok().filter(|o| *o < self.width)
    }

    /// Maps a memory word index to a storage offset.
    pub fn word_offset(&self, idx: i64) -> Option<usize> {
        let (a, b) = self.mem?;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if idx < lo || idx > hi {
            return None;
        }
        Some((idx - lo) as usize)
    }
}

/// How a process is (re)triggered.
#[derive(Debug, Clone)]
pub enum ProcessKind {
    /// Runs once from time 0.
    Initial,
    /// Loops: wait for the sensitivity, run the body.
    Always(Sensitivity),
    /// Continuous assignment (including synthesized port bindings).
    Continuous {
        /// Target lvalue.
        lhs: Expr,
        /// Driven expression.
        rhs: Expr,
    },
}

/// One elaborated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Trigger discipline.
    pub kind: ProcessKind,
    /// Procedural body (absent for continuous assignments).
    pub body: Option<Arc<Stmt>>,
    /// Dotted instance path, used for `%m`.
    pub path: String,
}

/// The flattened design.
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// Signals in declaration order.
    pub signals: Vec<SignalDef>,
    /// Name → signal index.
    pub index: HashMap<String, SigId>,
    /// All processes.
    pub processes: Vec<Process>,
    /// Functions by flattened name.
    pub functions: HashMap<String, FunctionDecl>,
    /// Lazily built bytecode programs, shared by every holder of the
    /// design's `Arc` (and by clones made after the first compilation:
    /// cloning an initialized `OnceLock` keeps its value).
    pub(crate) compiled: std::sync::OnceLock<std::sync::Arc<crate::compile::CompiledDesign>>,
}

/// The global design cache hands clones of one [`Design`] to concurrent
/// service requests; this fails to compile if a non-thread-safe pointer
/// (`Rc`, `Cell`, ...) ever sneaks back into the design graph.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Design>()
};

impl Design {
    /// Looks up a signal by hierarchical name.
    pub fn signal(&self, name: &str) -> Option<(SigId, &SignalDef)> {
        self.index.get(name).map(|id| (*id, &self.signals[*id]))
    }

    /// The design's bytecode, compiling it on first use.
    pub(crate) fn compiled(self: &Arc<Self>) -> Arc<crate::compile::CompiledDesign> {
        self.compiled
            .get_or_init(|| Arc::new(crate::compile::compile_design(self)))
            .clone()
    }
}

/// Elaborates `top` (and everything it instantiates) from `sf`.
///
/// # Errors
///
/// Returns [`ElabError`] when the top module is missing, an instantiated
/// module has no definition (and is not a gate primitive), a range is not
/// constant, or the hierarchy exceeds the depth limit.
pub fn elaborate(sf: &SourceFile, top: &str) -> Result<Design, ElabError> {
    let module = sf
        .module(top)
        .ok_or_else(|| ElabError::new(format!("top module `{top}` not found"), Span::default()))?;
    let mut design = Design::default();
    let mut ctx = Elaborator {
        file: sf,
        design: &mut design,
        depth: 0,
    };
    ctx.instantiate(module, "", &HashMap::new(), module.span)?;
    Ok(design)
}

const GATES: &[&str] = &["and", "or", "not", "nand", "nor", "xor", "xnor", "buf"];
const MAX_DEPTH: usize = 64;

/// Widest vector elaboration will allocate. Untrusted sources can declare
/// `reg [8388607:0]`-style signals whose four-state storage would exhaust
/// memory; past this limit elaboration fails with an [`ElabError`] instead.
const MAX_SIGNAL_WIDTH: usize = 1 << 16;

/// Largest memory (array) word count, for the same reason.
const MAX_MEMORY_WORDS: u64 = 1 << 16;

struct Elaborator<'a> {
    file: &'a SourceFile,
    design: &'a mut Design,
    depth: usize,
}

impl Elaborator<'_> {
    fn instantiate(
        &mut self,
        module: &Module,
        prefix: &str,
        param_overrides: &HashMap<String, i64>,
        span: Span,
    ) -> Result<(), ElabError> {
        if self.depth > MAX_DEPTH {
            return Err(ElabError::new("instance hierarchy too deep", span));
        }
        // 1. Resolve parameters (header order, then body order).
        let mut params: HashMap<String, i64> = HashMap::new();
        for p in &module.header_params {
            let v = match param_overrides.get(&p.name.name) {
                Some(v) => *v,
                None => {
                    eval_const(&p.value, &params).map_err(|e| ElabError::new(e.reason, e.span))?
                }
            };
            params.insert(p.name.name.clone(), v);
        }
        for item in &module.items {
            if let Item::Param(p) = item {
                let v = match param_overrides.get(&p.name.name).filter(|_| !p.local) {
                    Some(v) => *v,
                    None => eval_const(&p.value, &params)
                        .map_err(|e| ElabError::new(e.reason, e.span))?,
                };
                params.insert(p.name.name.clone(), v);
            }
        }
        // 2. Compute the set of local names that must be prefixed.
        let mut locals: HashSet<String> = HashSet::new();
        for p in &module.ports {
            locals.insert(p.name.name.clone());
        }
        for item in &module.items {
            match item {
                Item::Port(pd) => {
                    for n in &pd.names {
                        locals.insert(n.name.clone());
                    }
                }
                Item::Net(nd) => {
                    for n in &nd.nets {
                        locals.insert(n.name.name.clone());
                    }
                }
                Item::Function(f) => {
                    locals.insert(f.name.name.clone());
                }
                _ => {}
            }
        }
        let ren = Renamer {
            prefix,
            locals: &locals,
            params: &params,
        };

        // 3. Declare signals: merge header ports with body declarations.
        let mut decls: HashMap<String, SignalDef> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let upsert = |decls: &mut HashMap<String, SignalDef>,
                      order: &mut Vec<String>,
                      name: &str,
                      range: &Option<Range>,
                      signed: bool,
                      is_reg: bool,
                      array: Option<(i64, i64)>,
                      init: Option<LogicVec>|
         -> Result<(), ElabError> {
            let (msb, lsb) = match range {
                None => (0, 0),
                Some(r) => eval_range(r, &params).map_err(|e| ElabError::new(e.reason, e.span))?,
            };
            let width = msb.abs_diff(lsb) as usize + 1;
            if width > MAX_SIGNAL_WIDTH {
                return Err(ElabError::new(
                    format!(
                        "signal `{prefix}{name}` is {width} bits wide \
                             (limit {MAX_SIGNAL_WIDTH})"
                    ),
                    range.as_ref().map(|r| r.span).unwrap_or_default(),
                ));
            }
            if let Some((a, b)) = array {
                let words = a.abs_diff(b).saturating_add(1);
                if words > MAX_MEMORY_WORDS {
                    return Err(ElabError::new(
                        format!(
                            "memory `{prefix}{name}` has {words} words \
                                 (limit {MAX_MEMORY_WORDS})"
                        ),
                        range.as_ref().map(|r| r.span).unwrap_or_default(),
                    ));
                }
            }
            let full = format!("{prefix}{name}");
            match decls.get_mut(&full) {
                Some(existing) => {
                    if range.is_some() && existing.width == 1 {
                        existing.width = width;
                        existing.msb = msb;
                        existing.lsb = lsb;
                    }
                    existing.is_reg |= is_reg;
                    existing.signed |= signed;
                    if existing.mem.is_none() {
                        existing.mem = array;
                    }
                    if existing.init.is_none() {
                        existing.init = init;
                    }
                }
                None => {
                    order.push(full.clone());
                    decls.insert(
                        full.clone(),
                        SignalDef {
                            name: full,
                            width,
                            msb,
                            lsb,
                            signed,
                            is_reg,
                            mem: array,
                            init,
                        },
                    );
                }
            }
            Ok(())
        };

        for p in &module.ports {
            upsert(
                &mut decls,
                &mut order,
                &p.name.name,
                &p.range,
                p.signed,
                p.is_reg,
                None,
                None,
            )?;
        }
        for item in &module.items {
            match item {
                Item::Port(pd) => {
                    for n in &pd.names {
                        upsert(
                            &mut decls, &mut order, &n.name, &pd.range, pd.signed, pd.is_reg, None,
                            None,
                        )?;
                    }
                }
                Item::Net(nd) => {
                    let is_reg = matches!(nd.kind, NetKind::Reg | NetKind::Integer);
                    for ni in &nd.nets {
                        let array = match &ni.array {
                            None => None,
                            Some(r) => Some(
                                eval_range(r, &params)
                                    .map_err(|e| ElabError::new(e.reason, e.span))?,
                            ),
                        };
                        // Constant reg initialisers become time-0 values; all
                        // others become processes below.
                        let init = ni
                            .init
                            .as_ref()
                            .filter(|_| is_reg)
                            .and_then(|e| eval_const(e, &params).ok())
                            .map(|v| {
                                let range = if nd.kind == NetKind::Integer {
                                    Some((31, 0))
                                } else {
                                    match &nd.range {
                                        None => None,
                                        Some(r) => eval_range(r, &params).ok(),
                                    }
                                };
                                let w = range.map(|(m, l)| m.abs_diff(l) as usize + 1).unwrap_or(1);
                                ops::from_u128(v as u128, w)
                            });
                        if nd.kind == NetKind::Integer {
                            let full = format!("{prefix}{}", ni.name.name);
                            if !decls.contains_key(&full) {
                                order.push(full.clone());
                                decls.insert(
                                    full.clone(),
                                    SignalDef {
                                        name: full,
                                        width: 32,
                                        msb: 31,
                                        lsb: 0,
                                        signed: true,
                                        is_reg: true,
                                        mem: array,
                                        init,
                                    },
                                );
                            }
                        } else {
                            upsert(
                                &mut decls,
                                &mut order,
                                &ni.name.name,
                                &nd.range,
                                nd.signed,
                                is_reg,
                                array,
                                init,
                            )?;
                        }
                    }
                }
                _ => {}
            }
        }
        for name in order {
            // `order` holds each name once (pushed only on first insert),
            // but stay total on malformed input rather than panicking.
            let Some(def) = decls.remove(&name) else {
                continue;
            };
            let id = self.design.signals.len();
            self.design.index.insert(name, id);
            self.design.signals.push(def);
        }

        // 4. Convert items to processes / functions / child instances.
        for item in &module.items {
            match item {
                Item::Assign(a) => {
                    self.design.processes.push(Process {
                        kind: ProcessKind::Continuous {
                            lhs: ren.expr(&a.lhs),
                            rhs: ren.expr(&a.rhs),
                        },
                        body: None,
                        path: prefix.trim_end_matches('.').to_owned(),
                    });
                }
                Item::Net(nd) => {
                    // Wire initialisers and non-constant reg initialisers.
                    for ni in &nd.nets {
                        let Some(init) = &ni.init else { continue };
                        let is_reg = matches!(nd.kind, NetKind::Reg | NetKind::Integer);
                        if is_reg && eval_const(init, &params).is_ok() {
                            continue; // handled as a time-0 value
                        }
                        let lhs = Expr::Ident(Ident::spanned(
                            format!("{prefix}{}", ni.name.name),
                            ni.name.span,
                        ));
                        let rhs = ren.expr(init);
                        if is_reg {
                            self.design.processes.push(Process {
                                kind: ProcessKind::Initial,
                                body: Some(Arc::new(Stmt::Assign {
                                    lhs,
                                    rhs,
                                    kind: AssignKind::Blocking,
                                    delay: None,
                                    span: nd.span,
                                })),
                                path: prefix.trim_end_matches('.').to_owned(),
                            });
                        } else {
                            self.design.processes.push(Process {
                                kind: ProcessKind::Continuous { lhs, rhs },
                                body: None,
                                path: prefix.trim_end_matches('.').to_owned(),
                            });
                        }
                    }
                }
                Item::Always(a) => {
                    let sens = match &a.sensitivity {
                        Sensitivity::Star => Sensitivity::List(star_sensitivity(&a.body, &ren)),
                        s => ren.sensitivity(s),
                    };
                    self.design.processes.push(Process {
                        kind: ProcessKind::Always(sens),
                        body: Some(Arc::new(ren.stmt(&a.body))),
                        path: prefix.trim_end_matches('.').to_owned(),
                    });
                }
                Item::Initial(i) => {
                    self.design.processes.push(Process {
                        kind: ProcessKind::Initial,
                        body: Some(Arc::new(ren.stmt(&i.body))),
                        path: prefix.trim_end_matches('.').to_owned(),
                    });
                }
                Item::Function(f) => {
                    let renamed = ren.function(f);
                    self.design
                        .functions
                        .insert(format!("{prefix}{}", f.name.name), renamed);
                }
                Item::Instance(inst) => self.elab_instance(inst, prefix, &ren)?,
                Item::Param(_) | Item::Port(_) => {}
            }
        }
        Ok(())
    }

    fn elab_instance(
        &mut self,
        inst: &Instance,
        prefix: &str,
        ren: &Renamer<'_>,
    ) -> Result<(), ElabError> {
        let mod_name = inst.module.name.as_str();
        if GATES.contains(&mod_name) {
            return self.elab_gate(inst, ren);
        }
        let Some(child) = self.file.module(mod_name) else {
            return Err(ElabError::new(
                format!("module `{mod_name}` is not defined"),
                inst.module.span,
            ));
        };
        // Parameter overrides evaluate in the parent scope.
        let mut overrides = HashMap::new();
        for (i, c) in inst.params.iter().enumerate() {
            let Some(expr) = &c.expr else { continue };
            let renamed = ren.expr(expr);
            let v = eval_const(&renamed, &HashMap::new())
                .map_err(|e| ElabError::new(e.reason, e.span))?;
            let pname = match &c.name {
                Some(n) => n.name.clone(),
                None => child
                    .header_params
                    .get(i)
                    .map(|p| p.name.name.clone())
                    .ok_or_else(|| {
                        ElabError::new("too many positional parameter overrides", inst.span)
                    })?,
            };
            overrides.insert(pname, v);
        }
        let child_prefix = format!("{prefix}{}.", inst.name.name);
        self.depth += 1;
        self.instantiate(child, &child_prefix, &overrides, inst.span)?;
        self.depth -= 1;

        // Port bindings. Determine each header port's direction (from the
        // header or from body declarations).
        let dir_of = |port: &Port| -> PortDir {
            if let Some(d) = port.dir {
                return d;
            }
            for item in &child.items {
                if let Item::Port(pd) = item {
                    if pd.names.iter().any(|n| n.name == port.name.name) {
                        return pd.dir;
                    }
                }
            }
            PortDir::Input
        };
        for (i, c) in inst.ports.iter().enumerate() {
            let Some(expr) = &c.expr else { continue };
            let port = match &c.name {
                Some(n) => child.ports.iter().find(|p| p.name.name == n.name),
                None => child.ports.get(i),
            };
            let Some(port) = port else {
                return Err(ElabError::new(
                    format!("connection does not match a port of `{mod_name}`"),
                    inst.span,
                ));
            };
            let parent_expr = ren.expr(expr);
            let child_sig = Expr::Ident(Ident::spanned(
                format!("{child_prefix}{}", port.name.name),
                port.name.span,
            ));
            let (lhs, rhs) = match dir_of(port) {
                PortDir::Input => (child_sig, parent_expr),
                PortDir::Output | PortDir::Inout => (parent_expr, child_sig),
            };
            self.design.processes.push(Process {
                kind: ProcessKind::Continuous { lhs, rhs },
                body: None,
                path: prefix.trim_end_matches('.').to_owned(),
            });
        }
        Ok(())
    }

    fn elab_gate(&mut self, inst: &Instance, ren: &Renamer<'_>) -> Result<(), ElabError> {
        let exprs: Vec<Expr> = inst
            .ports
            .iter()
            .filter_map(|c| c.expr.as_ref())
            .map(|e| ren.expr(e))
            .collect();
        if exprs.len() < 2 {
            return Err(ElabError::new(
                format!(
                    "gate `{}` needs an output and at least one input",
                    inst.module.name
                ),
                inst.span,
            ));
        }
        let out = exprs[0].clone();
        let ins = &exprs[1..];
        let fold = |op: BinaryOp| -> Expr {
            let mut it = ins.iter().cloned();
            let first = it
                .next()
                .unwrap_or(Expr::Number(Number::from_u64(0), inst.span));
            it.fold(first, |acc, e| Expr::Binary {
                op,
                span: inst.span,
                lhs: Box::new(acc),
                rhs: Box::new(e),
            })
        };
        let invert = |e: Expr| Expr::Unary {
            op: UnaryOp::BitNot,
            expr: Box::new(e),
            span: inst.span,
        };
        let rhs = match inst.module.name.as_str() {
            "and" => fold(BinaryOp::BitAnd),
            "or" => fold(BinaryOp::BitOr),
            "xor" => fold(BinaryOp::BitXor),
            "nand" => invert(fold(BinaryOp::BitAnd)),
            "nor" => invert(fold(BinaryOp::BitOr)),
            "xnor" => invert(fold(BinaryOp::BitXor)),
            "not" => invert(ins[0].clone()),
            _ => ins[0].clone(), // buf
        };
        self.design.processes.push(Process {
            kind: ProcessKind::Continuous { lhs: out, rhs },
            body: None,
            path: String::new(),
        });
        Ok(())
    }
}

/// Computes the static sensitivity of an `always @(*)` body: every signal
/// read by the body (rhs expressions, conditions, selectors, and lvalue
/// index expressions), already renamed.
fn star_sensitivity(body: &Stmt, ren: &Renamer<'_>) -> Vec<SensItem> {
    let mut reads: Vec<String> = Vec::new();
    collect_reads_stmt(body, &mut reads);
    let mut seen = HashSet::new();
    let mut items = Vec::new();
    for name in reads {
        let renamed = ren.rename_name(&name);
        if seen.insert(renamed.clone()) {
            items.push(SensItem {
                edge: None,
                expr: Expr::Ident(Ident::new(renamed)),
            });
        }
    }
    items
}

fn collect_reads_expr(e: &Expr, out: &mut Vec<String>) {
    use dda_verilog::visit::{walk_expr, Visitor};
    struct R<'v>(&'v mut Vec<String>);
    impl Visitor for R<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let Expr::Ident(i) = e {
                self.0.push(i.name.clone());
            }
            walk_expr(self, e);
        }
    }
    R(out).visit_expr(e);
}

fn collect_lvalue_index_reads(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Index { index, .. } => collect_reads_expr(index, out),
        Expr::PartSelect { msb, lsb, .. } => {
            collect_reads_expr(msb, out);
            collect_reads_expr(lsb, out);
        }
        Expr::IndexedPart { start, width, .. } => {
            collect_reads_expr(start, out);
            collect_reads_expr(width, out);
        }
        Expr::Concat(parts, _) => {
            for p in parts {
                collect_lvalue_index_reads(p, out);
            }
        }
        _ => {}
    }
}

fn collect_reads_stmt(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block { stmts, .. } => {
            for st in stmts {
                collect_reads_stmt(st, out);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            collect_reads_expr(rhs, out);
            collect_lvalue_index_reads(lhs, out);
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            ..
        } => {
            collect_reads_expr(cond, out);
            collect_reads_stmt(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_reads_stmt(e, out);
            }
        }
        Stmt::Case { expr, arms, .. } => {
            collect_reads_expr(expr, out);
            for a in arms {
                for l in &a.labels {
                    collect_reads_expr(l, out);
                }
                collect_reads_stmt(&a.body, out);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            collect_reads_stmt(init, out);
            collect_reads_expr(cond, out);
            collect_reads_stmt(step, out);
            collect_reads_stmt(body, out);
        }
        Stmt::While { cond, body, .. } => {
            collect_reads_expr(cond, out);
            collect_reads_stmt(body, out);
        }
        Stmt::Repeat { count, body, .. } => {
            collect_reads_expr(count, out);
            collect_reads_stmt(body, out);
        }
        Stmt::Forever { body, .. } => collect_reads_stmt(body, out),
        Stmt::Delay { stmt, .. } | Stmt::Event { stmt, .. } => {
            if let Some(s) = stmt {
                collect_reads_stmt(s, out);
            }
        }
        Stmt::Wait { cond, stmt, .. } => {
            collect_reads_expr(cond, out);
            if let Some(s) = stmt {
                collect_reads_stmt(s, out);
            }
        }
        Stmt::SysCall { args, .. } => {
            for a in args {
                collect_reads_expr(a, out);
            }
        }
        Stmt::Null { .. } => {}
    }
}

/// Rewrites identifiers to flat hierarchical names and substitutes
/// parameters with literal values.
struct Renamer<'a> {
    prefix: &'a str,
    locals: &'a HashSet<String>,
    params: &'a HashMap<String, i64>,
}

impl Renamer<'_> {
    fn rename_name(&self, name: &str) -> String {
        if self.locals.contains(name) {
            format!("{}{}", self.prefix, name)
        } else {
            name.to_owned()
        }
    }

    fn ident(&self, i: &Ident) -> Ident {
        Ident::spanned(self.rename_name(&i.name), i.span)
    }

    fn expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Ident(i) => {
                if let Some(v) = self.params.get(&i.name) {
                    Expr::Number(
                        Number {
                            width: Some(32),
                            signed: true,
                            value: ops::from_u128(*v as u64 as u128, 32),
                            spelling: if *v < 0 {
                                format!("32'sd{}", (*v as u32))
                            } else {
                                v.to_string()
                            },
                        },
                        i.span,
                    )
                } else {
                    Expr::Ident(self.ident(i))
                }
            }
            Expr::Number(..) | Expr::Str(..) => e.clone(),
            Expr::Unary { op, expr, span } => Expr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
                span: *span,
            },
            Expr::Binary { op, lhs, rhs, span } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
                span: *span,
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                span,
            } => Expr::Ternary {
                cond: Box::new(self.expr(cond)),
                then_expr: Box::new(self.expr(then_expr)),
                else_expr: Box::new(self.expr(else_expr)),
                span: *span,
            },
            Expr::Concat(parts, span) => {
                Expr::Concat(parts.iter().map(|p| self.expr(p)).collect(), *span)
            }
            Expr::Repeat { count, exprs, span } => Expr::Repeat {
                count: Box::new(self.expr(count)),
                exprs: exprs.iter().map(|p| self.expr(p)).collect(),
                span: *span,
            },
            Expr::Index { base, index, span } => Expr::Index {
                base: Box::new(self.expr(base)),
                index: Box::new(self.expr(index)),
                span: *span,
            },
            Expr::PartSelect {
                base,
                msb,
                lsb,
                span,
            } => Expr::PartSelect {
                base: Box::new(self.expr(base)),
                msb: Box::new(self.expr(msb)),
                lsb: Box::new(self.expr(lsb)),
                span: *span,
            },
            Expr::IndexedPart {
                base,
                start,
                width,
                ascending,
                span,
            } => Expr::IndexedPart {
                base: Box::new(self.expr(base)),
                start: Box::new(self.expr(start)),
                width: Box::new(self.expr(width)),
                ascending: *ascending,
                span: *span,
            },
            Expr::Call { name, args, span } => Expr::Call {
                name: if name.name.starts_with('$') {
                    name.clone()
                } else {
                    self.ident(name)
                },
                args: args.iter().map(|a| self.expr(a)).collect(),
                span: *span,
            },
        }
    }

    fn sensitivity(&self, s: &Sensitivity) -> Sensitivity {
        match s {
            Sensitivity::Star => Sensitivity::Star,
            Sensitivity::None => Sensitivity::None,
            Sensitivity::List(items) => Sensitivity::List(
                items
                    .iter()
                    .map(|i| SensItem {
                        edge: i.edge,
                        expr: self.expr(&i.expr),
                    })
                    .collect(),
            ),
        }
    }

    fn stmt(&self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Block { name, stmts, span } => Stmt::Block {
                name: name.clone(),
                stmts: stmts.iter().map(|st| self.stmt(st)).collect(),
                span: *span,
            },
            Stmt::Assign {
                lhs,
                rhs,
                kind,
                delay,
                span,
            } => Stmt::Assign {
                lhs: self.expr(lhs),
                rhs: self.expr(rhs),
                kind: *kind,
                delay: delay.as_ref().map(|d| self.expr(d)),
                span: *span,
            },
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
                span,
            } => Stmt::If {
                cond: self.expr(cond),
                then_stmt: Box::new(self.stmt(then_stmt)),
                else_stmt: else_stmt.as_ref().map(|e| Box::new(self.stmt(e))),
                span: *span,
            },
            Stmt::Case {
                kind,
                expr,
                arms,
                span,
            } => Stmt::Case {
                kind: *kind,
                expr: self.expr(expr),
                arms: arms
                    .iter()
                    .map(|a| CaseArm {
                        labels: a.labels.iter().map(|l| self.expr(l)).collect(),
                        body: self.stmt(&a.body),
                    })
                    .collect(),
                span: *span,
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => Stmt::For {
                init: Box::new(self.stmt(init)),
                cond: self.expr(cond),
                step: Box::new(self.stmt(step)),
                body: Box::new(self.stmt(body)),
                span: *span,
            },
            Stmt::While { cond, body, span } => Stmt::While {
                cond: self.expr(cond),
                body: Box::new(self.stmt(body)),
                span: *span,
            },
            Stmt::Repeat { count, body, span } => Stmt::Repeat {
                count: self.expr(count),
                body: Box::new(self.stmt(body)),
                span: *span,
            },
            Stmt::Forever { body, span } => Stmt::Forever {
                body: Box::new(self.stmt(body)),
                span: *span,
            },
            Stmt::Delay { amount, stmt, span } => Stmt::Delay {
                amount: self.expr(amount),
                stmt: stmt.as_ref().map(|s| Box::new(self.stmt(s))),
                span: *span,
            },
            Stmt::Event {
                sensitivity,
                stmt,
                span,
            } => Stmt::Event {
                sensitivity: self.sensitivity(sensitivity),
                stmt: stmt.as_ref().map(|s| Box::new(self.stmt(s))),
                span: *span,
            },
            Stmt::Wait { cond, stmt, span } => Stmt::Wait {
                cond: self.expr(cond),
                stmt: stmt.as_ref().map(|s| Box::new(self.stmt(s))),
                span: *span,
            },
            Stmt::SysCall { name, args, span } => Stmt::SysCall {
                name: name.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                span: *span,
            },
            Stmt::Null { span } => Stmt::Null { span: *span },
        }
    }

    /// Renames a function: the function name is global (prefixed); args and
    /// locals stay call-frame-local.
    fn function(&self, f: &FunctionDecl) -> FunctionDecl {
        let mut fn_locals: HashSet<String> = HashSet::new();
        fn_locals.insert(f.name.name.clone());
        for (_, a) in &f.args {
            fn_locals.insert(a.name.clone());
        }
        for l in &f.locals {
            for n in &l.nets {
                fn_locals.insert(n.name.name.clone());
            }
        }
        // Names local to the frame keep their spelling except the function
        // name itself, which becomes the prefixed return variable.
        let narrowed: HashSet<String> = self
            .locals
            .iter()
            .filter(|n| !fn_locals.contains(*n) || **n == f.name.name)
            .cloned()
            .collect();
        let inner = Renamer {
            prefix: self.prefix,
            locals: &narrowed,
            params: self.params,
        };
        FunctionDecl {
            range: f.range.clone(),
            name: inner.ident(&f.name),
            args: f.args.clone(),
            locals: f.locals.clone(),
            body: inner.stmt(&f.body),
            span: f.span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_verilog::parse;

    #[test]
    fn flattens_simple_hierarchy() {
        let sf = parse(
            "module inv(input a, output y); assign y = ~a; endmodule\n\
             module top(input x, output z);\n\
             wire w;\n\
             inv u0(.a(x), .y(w));\n\
             inv u1(.a(w), .y(z));\n\
             endmodule",
        )
        .unwrap();
        let d = elaborate(&sf, "top").unwrap();
        assert!(d.signal("x").is_some());
        assert!(d.signal("u0.a").is_some());
        assert!(d.signal("u1.y").is_some());
        // 2 gate bodies + 4 port bindings
        assert_eq!(d.processes.len(), 6);
    }

    #[test]
    fn parameter_overrides_apply() {
        let sf = parse(
            "module buffer #(parameter W = 2)(input [W-1:0] a, output [W-1:0] y);\n\
             assign y = a;\n\
             endmodule\n\
             module top(input [7:0] i, output [7:0] o);\n\
             buffer #(.W(8)) u(.a(i), .y(o));\n\
             endmodule",
        )
        .unwrap();
        let d = elaborate(&sf, "top").unwrap();
        let (_, s) = d.signal("u.a").unwrap();
        assert_eq!(s.width, 8);
    }

    #[test]
    fn missing_module_is_an_error() {
        let sf = parse("module top; ghost u(); endmodule").unwrap();
        let e = elaborate(&sf, "top").unwrap_err();
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn missing_top_is_an_error() {
        let sf = parse("module a; endmodule").unwrap();
        assert!(elaborate(&sf, "b").is_err());
    }

    #[test]
    fn star_sensitivity_collects_reads() {
        let sf = parse(
            "module m(input a, b, s, output reg y);\n\
             always @(*) if (s) y = a; else y = b;\n\
             endmodule",
        )
        .unwrap();
        let d = elaborate(&sf, "m").unwrap();
        let ProcessKind::Always(Sensitivity::List(items)) = &d.processes[0].kind else {
            panic!("expected always process");
        };
        let names: Vec<_> = items.iter().filter_map(|i| i.expr.as_ident()).collect();
        assert_eq!(names, vec!["s", "a", "b"]);
    }

    #[test]
    fn reg_initialisers_become_time0_values() {
        let sf = parse("module m; reg clk = 0; reg [3:0] n = 5; endmodule").unwrap();
        let d = elaborate(&sf, "m").unwrap();
        let (_, clk) = d.signal("clk").unwrap();
        assert_eq!(clk.init.as_ref().unwrap().to_u64(), Some(0));
        let (_, n) = d.signal("n").unwrap();
        assert_eq!(n.init.as_ref().unwrap().to_u64(), Some(5));
        assert_eq!(n.init.as_ref().unwrap().width(), 4);
    }

    #[test]
    fn memories_get_bounds() {
        let sf = parse("module m; reg [7:0] mem [0:15]; endmodule").unwrap();
        let d = elaborate(&sf, "m").unwrap();
        let (_, s) = d.signal("mem").unwrap();
        assert_eq!(s.mem_len(), 16);
        assert_eq!(s.width, 8);
        assert_eq!(s.word_offset(3), Some(3));
        assert_eq!(s.word_offset(16), None);
    }

    #[test]
    fn bit_offset_handles_descending_and_ascending() {
        let s = SignalDef {
            name: "x".into(),
            width: 4,
            msb: 3,
            lsb: 0,
            signed: false,
            is_reg: false,
            mem: None,
            init: None,
        };
        assert_eq!(s.bit_offset(0), Some(0));
        assert_eq!(s.bit_offset(3), Some(3));
        assert_eq!(s.bit_offset(4), None);
        let s2 = SignalDef {
            msb: 0,
            lsb: 3,
            ..s
        };
        assert_eq!(s2.bit_offset(3), Some(0));
        assert_eq!(s2.bit_offset(0), Some(3));
    }

    #[test]
    fn localparams_substitute() {
        let sf = parse(
            "module m(output [7:0] y);\n\
             localparam W = 8;\n\
             wire [W-1:0] t;\n\
             assign t = {W{1'b1}};\n\
             assign y = t;\n\
             endmodule",
        )
        .unwrap();
        let d = elaborate(&sf, "m").unwrap();
        let (_, t) = d.signal("t").unwrap();
        assert_eq!(t.width, 8);
    }

    #[test]
    fn gate_primitives_become_continuous() {
        let sf = parse("module m(input a, b, output y); and g(y, a, b); endmodule").unwrap();
        let d = elaborate(&sf, "m").unwrap();
        assert!(matches!(
            d.processes[0].kind,
            ProcessKind::Continuous { .. }
        ));
    }

    #[test]
    fn huge_signal_width_is_an_error_not_an_allocation() {
        let sf = parse("module m; reg [8388607:0] big; endmodule").unwrap();
        let err = elaborate(&sf, "m").unwrap_err();
        assert!(err.message.contains("bits wide"), "{}", err.message);
    }

    #[test]
    fn huge_memory_is_an_error_not_an_allocation() {
        let sf = parse("module m; reg [7:0] mem [0:16777215]; endmodule").unwrap();
        let err = elaborate(&sf, "m").unwrap_err();
        assert!(err.message.contains("words"), "{}", err.message);
    }

    #[test]
    fn wide_but_reasonable_signals_still_elaborate() {
        let sf = parse("module m; reg [1023:0] wide; reg [7:0] mem [0:255]; endmodule").unwrap();
        let d = elaborate(&sf, "m").unwrap();
        assert_eq!(d.signal("wide").unwrap().1.width, 1024);
    }
}
