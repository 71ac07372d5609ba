//! Semantic checks over the parsed AST.
//!
//! The checker elaborates each module far enough to catch the error classes
//! the repair-augmentation rules inject (missing words surface as syntax
//! errors; wire/reg swaps as assignment-kind errors; width edits as width
//! warnings; junk words as undeclared identifiers; dropped conditions pass
//! the linter — they are functional bugs, as in the paper).

use crate::diagnostic::{DiagKind, Diagnostic, LintReport, Severity};
use dda_verilog::ast::*;
use dda_verilog::consteval::{eval_const, range_width};
use dda_verilog::parser::{parse, ParseError};
use dda_verilog::visit::{walk_expr, Visitor};
use dda_verilog::Expr;
use std::collections::HashMap;

/// Lints `src`, reporting in terms of `file_name`.
///
/// Parsing stops at the first syntax error (as yosys does); semantic checks
/// only run on files that parse.
///
/// ```
/// let report = dda_lint::check_source("m.v", "module m(input a, output y); assign y = ~a; endmodule");
/// assert!(report.is_clean());
/// ```
pub fn check_source(file_name: &str, src: &str) -> LintReport {
    match parse(src) {
        Ok(sf) => check_file(file_name, &sf),
        Err(e) => syntax_error(file_name, &e),
    }
}

/// The report for a file whose parse stopped at `e`: one syntax error.
pub(crate) fn syntax_error(file_name: &str, e: &ParseError) -> LintReport {
    let mut report = LintReport::new(file_name);
    report.diagnostics.push(Diagnostic::error(
        DiagKind::SyntaxError,
        format!("syntax error, unexpected '{}'", e.found),
        e.span,
    ));
    report
}

/// Lints an already-parsed file.
pub fn check_file(file_name: &str, sf: &SourceFile) -> LintReport {
    let mut report = LintReport::new(file_name);
    let module_names: Vec<&str> = sf.modules.iter().map(|m| m.name.name.as_str()).collect();
    for m in &sf.modules {
        let mut mc = ModuleChecker::new(m, &module_names, sf);
        mc.run();
        report.diagnostics.extend(mc.diags);
    }
    check_style(sf, &mut report);
    report
        .diagnostics
        .sort_by_key(|d| (d.span.line, d.span.col, d.severity == Severity::Warning));
    report
}

/// What a name refers to inside a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymKind {
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Genvar,
    Param,
    Function,
}

impl SymKind {
    fn is_port(self) -> bool {
        matches!(self, SymKind::Input | SymKind::Output | SymKind::Inout)
    }

    fn is_variable(self) -> bool {
        matches!(self, SymKind::Reg | SymKind::Integer)
    }
}

#[derive(Debug, Clone)]
struct Symbol {
    kind: SymKind,
    /// True when an output port is also declared `reg`.
    is_reg: bool,
    width: Option<usize>,
    is_mem: bool,
    decl_span: dda_verilog::Span,
    cont_drivers: usize,
    proc_driven: bool,
    /// Appears in an instance connection (a child may drive it).
    conn_driven: bool,
    used: bool,
}

struct ModuleChecker<'a> {
    module: &'a Module,
    file: &'a SourceFile,
    module_names: &'a [&'a str],
    params: HashMap<String, i64>,
    symbols: HashMap<String, Symbol>,
    diags: Vec<Diagnostic>,
}

const GATE_PRIMITIVES: &[&str] = &["and", "or", "not", "nand", "nor", "xor", "xnor", "buf"];

impl<'a> ModuleChecker<'a> {
    fn new(module: &'a Module, module_names: &'a [&'a str], file: &'a SourceFile) -> Self {
        ModuleChecker {
            module,
            file,
            module_names,
            params: HashMap::new(),
            symbols: HashMap::new(),
            diags: Vec::new(),
        }
    }

    fn run(&mut self) {
        self.collect_params();
        self.collect_symbols();
        self.check_port_directions();
        self.check_drivers_and_uses();
        self.check_instances();
        self.check_undriven_outputs();
        self.check_unused();
    }

    fn width_of_range(&mut self, range: &Option<Range>) -> Option<usize> {
        range_width(range, &self.params).ok()
    }

    fn collect_params(&mut self) {
        for p in self
            .module
            .header_params
            .iter()
            .chain(self.module.items.iter().filter_map(|i| match i {
                Item::Param(p) => Some(p),
                _ => None,
            }))
        {
            if let Ok(v) = eval_const(&p.value, &self.params) {
                self.params.insert(p.name.name.clone(), v);
            }
            let width = self.width_of_range(&p.range);
            self.declare(
                &p.name,
                SymKind::Param,
                false,
                width,
                false,
                p.span,
                /*merge_port*/ false,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn declare(
        &mut self,
        name: &Ident,
        kind: SymKind,
        is_reg: bool,
        width: Option<usize>,
        is_mem: bool,
        span: dda_verilog::Span,
        merge_port: bool,
    ) {
        if let Some(existing) = self.symbols.get_mut(&name.name) {
            // `output count; reg count;` and ANSI+body combos merge; anything
            // else is a redeclaration.
            let mergeable = merge_port
                || (existing.kind.is_port() && matches!(kind, SymKind::Wire | SymKind::Reg))
                || (matches!(existing.kind, SymKind::Wire | SymKind::Reg) && kind.is_port());
            if mergeable {
                if kind == SymKind::Reg || is_reg {
                    existing.is_reg = true;
                }
                if kind.is_port() {
                    existing.kind = kind;
                }
                if existing.width.is_none() {
                    existing.width = width;
                }
                if is_mem {
                    existing.is_mem = true;
                }
                return;
            }
            self.diags.push(Diagnostic::error(
                DiagKind::Redeclaration,
                format!("Duplicate declaration of `{}'", name.name),
                span,
            ));
            return;
        }
        self.symbols.insert(
            name.name.clone(),
            Symbol {
                kind,
                is_reg: is_reg || kind.is_variable(),
                width,
                is_mem,
                decl_span: span,
                cont_drivers: 0,
                proc_driven: false,
                conn_driven: false,
                used: false,
            },
        );
    }

    fn collect_symbols(&mut self) {
        let header_names: Vec<String> = self
            .module
            .ports
            .iter()
            .map(|p| p.name.name.clone())
            .collect();
        for p in &self.module.ports {
            let kind = match p.dir {
                Some(PortDir::Input) => SymKind::Input,
                Some(PortDir::Output) => SymKind::Output,
                Some(PortDir::Inout) => SymKind::Inout,
                // Direction comes later from a body declaration; park as wire.
                None => SymKind::Wire,
            };
            let width = self.width_of_range(&p.range);
            let name = p.name.clone();
            self.declare(&name, kind, p.is_reg, width, false, p.name.span, true);
        }
        for item in &self.module.items {
            match item {
                Item::Port(pd) => {
                    let kind = match pd.dir {
                        PortDir::Input => SymKind::Input,
                        PortDir::Output => SymKind::Output,
                        PortDir::Inout => SymKind::Inout,
                    };
                    let width = self.width_of_range(&pd.range);
                    for n in &pd.names {
                        if !header_names.contains(&n.name) && !header_names.is_empty() {
                            self.diags.push(Diagnostic::error(
                                DiagKind::PortNotInHeader,
                                format!(
                                    "Port `{}' is not declared in the module port list",
                                    n.name
                                ),
                                n.span,
                            ));
                        } else if header_names.is_empty() {
                            self.diags.push(Diagnostic::error(
                                DiagKind::PortNotInHeader,
                                format!(
                                    "Module has no ports but `{}' is declared {}",
                                    n.name, pd.dir
                                ),
                                n.span,
                            ));
                        }
                        self.declare(n, kind, pd.is_reg, width, false, pd.span, true);
                    }
                }
                Item::Net(nd) => {
                    let kind = match nd.kind {
                        NetKind::Wire | NetKind::Supply0 | NetKind::Supply1 => SymKind::Wire,
                        NetKind::Reg => SymKind::Reg,
                        NetKind::Integer => SymKind::Integer,
                        NetKind::Genvar => SymKind::Genvar,
                    };
                    let width = if kind == SymKind::Integer {
                        Some(32)
                    } else {
                        self.width_of_range(&nd.range)
                    };
                    for ni in &nd.nets {
                        self.declare(
                            &ni.name,
                            kind,
                            kind.is_variable(),
                            width,
                            ni.array.is_some(),
                            nd.span,
                            false,
                        );
                    }
                }
                Item::Function(f) => {
                    let width = self.width_of_range(&f.range);
                    self.declare(
                        &f.name,
                        SymKind::Function,
                        false,
                        width,
                        false,
                        f.span,
                        false,
                    );
                }
                Item::Instance(inst) => {
                    // Instance names occupy the namespace too.
                    let name = inst.name.clone();
                    self.symbols.entry(name.name.clone()).or_insert(Symbol {
                        kind: SymKind::Wire,
                        is_reg: false,
                        width: None,
                        is_mem: false,
                        decl_span: inst.span,
                        cont_drivers: 0,
                        proc_driven: false,
                        conn_driven: false,
                        used: true,
                    });
                }
                _ => {}
            }
        }
    }

    fn check_port_directions(&mut self) {
        // Non-ANSI header names must receive a direction from the body.
        for p in &self.module.ports {
            if p.dir.is_some() {
                continue;
            }
            let declared = self.module.items.iter().any(
                |i| matches!(i, Item::Port(pd) if pd.names.iter().any(|n| n.name == p.name.name)),
            );
            if !declared {
                self.diags.push(Diagnostic::error(
                    DiagKind::PortWithoutDirection,
                    format!("Port `{}' has no direction declaration", p.name.name),
                    p.name.span,
                ));
            }
        }
    }

    fn mark_used(&mut self, name: &str) {
        if let Some(s) = self.symbols.get_mut(name) {
            s.used = true;
        }
    }

    fn check_expr_idents(&mut self, e: &Expr, in_function: Option<&FunctionDecl>) {
        struct IdentCollector<'b> {
            names: Vec<(String, dda_verilog::Span)>,
            _phantom: std::marker::PhantomData<&'b ()>,
        }
        impl Visitor for IdentCollector<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                match e {
                    Expr::Ident(i) => self.names.push((i.name.clone(), i.span)),
                    Expr::Call { name, args, .. } => {
                        if !name.name.starts_with('$') {
                            self.names.push((name.name.clone(), name.span));
                        }
                        for a in args {
                            self.visit_expr(a);
                        }
                        return;
                    }
                    _ => {}
                }
                walk_expr(self, e);
            }
        }
        let mut c = IdentCollector {
            names: Vec::new(),
            _phantom: std::marker::PhantomData,
        };
        c.visit_expr(e);
        for (name, span) in c.names {
            if self.symbols.contains_key(&name) {
                self.mark_used(&name);
                continue;
            }
            if let Some(f) = in_function {
                let local = f.name.name == name
                    || f.args.iter().any(|(_, a)| a.name == name)
                    || f.locals
                        .iter()
                        .any(|l| l.nets.iter().any(|n| n.name.name == name));
                if local {
                    continue;
                }
            }
            self.diags.push(Diagnostic::error(
                DiagKind::UndeclaredIdentifier,
                format!("Identifier `{name}' is implicitly declared outside of the module"),
                span,
            ));
        }
    }

    /// Infers the width of an expression, `None` when unknown.
    fn expr_width(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Number(n, _) => n.width.map(|w| w as usize),
            Expr::Str(s, _) => Some(s.len() * 8),
            Expr::Ident(i) => self.symbols.get(&i.name).and_then(|s| s.width),
            Expr::Unary { op, expr, .. } => match op {
                UnaryOp::LogicNot
                | UnaryOp::RedAnd
                | UnaryOp::RedOr
                | UnaryOp::RedXor
                | UnaryOp::RedNand
                | UnaryOp::RedNor
                | UnaryOp::RedXnor => Some(1),
                _ => self.expr_width(expr),
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
                | BinaryOp::LogicOr => Some(1),
                BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr | BinaryOp::Pow => {
                    self.expr_width(lhs)
                }
                _ => match (self.expr_width(lhs), self.expr_width(rhs)) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                },
            },
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => match (self.expr_width(then_expr), self.expr_width(else_expr)) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
            Expr::Concat(parts, _) => parts.iter().map(|p| self.expr_width(p)).sum(),
            Expr::Repeat { count, exprs, .. } => {
                let c = eval_const(count, &self.params).ok()? as usize;
                let inner: Option<usize> = exprs.iter().map(|p| self.expr_width(p)).sum();
                Some(c * inner?)
            }
            Expr::Index { base, .. } => {
                // Memory word select yields the word width; bit select yields 1.
                if let Some(name) = base.as_ident() {
                    if let Some(sym) = self.symbols.get(name) {
                        if sym.is_mem {
                            return sym.width;
                        }
                    }
                }
                Some(1)
            }
            Expr::PartSelect { msb, lsb, .. } => {
                let m = eval_const(msb, &self.params).ok()?;
                let l = eval_const(lsb, &self.params).ok()?;
                Some(m.abs_diff(l) as usize + 1)
            }
            Expr::IndexedPart { width, .. } => {
                eval_const(width, &self.params).ok().map(|w| w as usize)
            }
            Expr::Call { name, .. } => {
                if name.name.starts_with('$') {
                    None
                } else {
                    self.symbols.get(&name.name).and_then(|s| s.width)
                }
            }
        }
    }

    fn check_assignment_width(&mut self, lhs: &Expr, rhs: &Expr, span: dda_verilog::Span) {
        // Unsized literals adapt to the context, so only flag sized ones.
        let (Some(lw), Some(rw)) = (self.expr_width(lhs), self.expr_width(rhs)) else {
            return;
        };
        if lw != rw {
            self.diags.push(Diagnostic::warning(
                DiagKind::WidthMismatch,
                format!("assignment width mismatch: target is {lw} bits, value is {rw} bits"),
                span,
            ));
        }
    }

    fn lvalue_targets(e: &Expr, out: &mut Vec<(String, dda_verilog::Span, bool)>) {
        match e {
            Expr::Ident(i) => out.push((i.name.clone(), i.span, true)),
            Expr::Index { base, .. }
            | Expr::PartSelect { base, .. }
            | Expr::IndexedPart { base, .. } => {
                if let Some(n) = base.lvalue_ident() {
                    out.push((n.to_owned(), e.span(), false));
                }
            }
            Expr::Concat(parts, _) => {
                for p in parts {
                    Self::lvalue_targets(p, out);
                }
            }
            _ => {}
        }
    }

    fn check_cont_assign(&mut self, a: &ContAssign) {
        let mut targets = Vec::new();
        Self::lvalue_targets(&a.lhs, &mut targets);
        for (name, span, full) in targets {
            match self.symbols.get_mut(&name) {
                None => self.diags.push(Diagnostic::error(
                    DiagKind::UndeclaredIdentifier,
                    format!("Identifier `{name}' is implicitly declared outside of the module"),
                    span,
                )),
                Some(sym) => {
                    if full {
                        sym.cont_drivers += 1;
                        if sym.cont_drivers > 1 {
                            self.diags.push(Diagnostic::warning(
                                DiagKind::MultipleDrivers,
                                format!(
                                    "Net `{name}' is driven by multiple continuous assignments"
                                ),
                                span,
                            ));
                        }
                    }
                    if sym.kind == SymKind::Input {
                        self.diags.push(Diagnostic::error(
                            DiagKind::AssignToInput,
                            format!("Cannot assign to input port `{name}'"),
                            span,
                        ));
                    } else if sym.is_reg {
                        self.diags.push(Diagnostic::error(
                            DiagKind::ContinuousAssignToReg,
                            format!(
                                "Continuous assignment to register `{name}'; use a wire or a procedural block"
                            ),
                            span,
                        ));
                    }
                }
            }
        }
        self.check_expr_idents(&a.rhs, None);
        // Index/select expressions on the LHS also reference identifiers.
        self.check_lhs_index_exprs(&a.lhs);
        self.check_assignment_width(&a.lhs, &a.rhs, a.span);
    }

    fn check_lhs_index_exprs(&mut self, lhs: &Expr) {
        match lhs {
            Expr::Index { index, .. } => self.check_expr_idents(index, None),
            Expr::PartSelect { msb, lsb, .. } => {
                self.check_expr_idents(msb, None);
                self.check_expr_idents(lsb, None);
            }
            Expr::IndexedPart { start, width, .. } => {
                self.check_expr_idents(start, None);
                self.check_expr_idents(width, None);
            }
            Expr::Concat(parts, _) => {
                for p in parts {
                    self.check_lhs_index_exprs(p);
                }
            }
            _ => {}
        }
    }

    fn check_proc_assign(&mut self, lhs: &Expr, rhs: &Expr, span: dda_verilog::Span) {
        let mut targets = Vec::new();
        Self::lvalue_targets(lhs, &mut targets);
        for (name, span, _) in targets {
            match self.symbols.get_mut(&name) {
                None => self.diags.push(Diagnostic::error(
                    DiagKind::UndeclaredIdentifier,
                    format!("Identifier `{name}' is implicitly declared outside of the module"),
                    span,
                )),
                Some(sym) => {
                    sym.proc_driven = true;
                    if sym.kind == SymKind::Input {
                        self.diags.push(Diagnostic::error(
                            DiagKind::AssignToInput,
                            format!("Cannot assign to input port `{name}'"),
                            span,
                        ));
                    } else if !sym.is_reg && sym.kind != SymKind::Genvar {
                        self.diags.push(Diagnostic::error(
                            DiagKind::ProceduralAssignToWire,
                            format!(
                                "Left hand side of procedural assignment is not a register: `{name}'"
                            ),
                            span,
                        ));
                    }
                }
            }
        }
        self.check_expr_idents(rhs, None);
        self.check_lhs_index_exprs(lhs);
        self.check_assignment_width(lhs, rhs, span);
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Block { stmts, .. } => {
                for st in stmts {
                    self.check_stmt(st);
                }
            }
            Stmt::Assign { lhs, rhs, span, .. } => self.check_proc_assign(lhs, rhs, *span),
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
                ..
            } => {
                self.check_expr_idents(cond, None);
                self.check_stmt(then_stmt);
                if let Some(e) = else_stmt {
                    self.check_stmt(e);
                }
            }
            Stmt::Case { expr, arms, .. } => {
                self.check_expr_idents(expr, None);
                for arm in arms {
                    for l in &arm.labels {
                        self.check_expr_idents(l, None);
                    }
                    self.check_stmt(&arm.body);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.check_stmt(init);
                self.check_expr_idents(cond, None);
                self.check_stmt(step);
                self.check_stmt(body);
            }
            Stmt::While { cond, body, .. } => {
                self.check_expr_idents(cond, None);
                self.check_stmt(body);
            }
            Stmt::Repeat { count, body, .. } => {
                self.check_expr_idents(count, None);
                self.check_stmt(body);
            }
            Stmt::Forever { body, .. } => self.check_stmt(body),
            Stmt::Delay { amount, stmt, .. } => {
                self.check_expr_idents(amount, None);
                if let Some(s) = stmt {
                    self.check_stmt(s);
                }
            }
            Stmt::Event {
                sensitivity, stmt, ..
            } => {
                if let Sensitivity::List(items) = sensitivity {
                    for it in items {
                        self.check_expr_idents(&it.expr, None);
                    }
                }
                if let Some(s) = stmt {
                    self.check_stmt(s);
                }
            }
            Stmt::Wait { cond, stmt, .. } => {
                self.check_expr_idents(cond, None);
                if let Some(s) = stmt {
                    self.check_stmt(s);
                }
            }
            Stmt::SysCall { args, .. } => {
                for a in args {
                    self.check_expr_idents(a, None);
                }
            }
            Stmt::Null { .. } => {}
        }
    }

    fn check_drivers_and_uses(&mut self) {
        for item in &self.module.items {
            match item {
                Item::Assign(a) => self.check_cont_assign(a),
                Item::Always(a) => {
                    if let Sensitivity::List(items) = &a.sensitivity {
                        for it in items {
                            self.check_expr_idents(&it.expr, None);
                        }
                    }
                    self.check_stmt(&a.body);
                }
                Item::Initial(i) => self.check_stmt(&i.body),
                Item::Net(nd) => {
                    for ni in &nd.nets {
                        if let Some(e) = &ni.init {
                            self.check_expr_idents(e, None);
                        }
                    }
                }
                Item::Function(_) => {
                    // Function bodies use their own scope; checked shallowly.
                }
                _ => {}
            }
        }
    }

    fn check_instances(&mut self) {
        let mut conns: Vec<(Option<String>, Vec<Connection>, dda_verilog::Span)> = Vec::new();
        for item in &self.module.items {
            if let Item::Instance(inst) = item {
                let target = self
                    .module_names
                    .iter()
                    .find(|n| **n == inst.module.name)
                    .map(|n| (*n).to_owned());
                if target.is_none() && !GATE_PRIMITIVES.contains(&inst.module.name.as_str()) {
                    self.diags.push(Diagnostic::warning(
                        DiagKind::UnknownModule,
                        format!(
                            "Module `{}' is not defined in this file; treating as a black box",
                            inst.module.name
                        ),
                        inst.module.span,
                    ));
                }
                conns.push((target, inst.ports.clone(), inst.span));
                // Named connections must exist on the target.
                if let Some(target_name) =
                    self.module_names.iter().find(|n| **n == inst.module.name)
                {
                    let target_mod = self.file.module(target_name).expect("name came from file");
                    for c in &inst.ports {
                        if let Some(pname) = &c.name {
                            if !target_mod.port_names().any(|n| n == pname.name) {
                                self.diags.push(Diagnostic::error(
                                    DiagKind::NoSuchPort,
                                    format!(
                                        "Module `{}' has no port named `{}'",
                                        inst.module.name, pname.name
                                    ),
                                    pname.span,
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Connected expressions reference identifiers in this module; a
        // connected net may be driven by the child, so it is never flagged
        // as undriven.
        for (_, ports, _) in &conns {
            for c in ports {
                if let Some(e) = &c.expr {
                    self.check_expr_idents(e, None);
                    if let Some(name) = e.as_ident() {
                        if let Some(sym) = self.symbols.get_mut(name) {
                            sym.conn_driven = true;
                        }
                    }
                }
            }
        }
    }

    fn check_undriven_outputs(&mut self) {
        // Modules with no items at all are interface stubs; stay quiet.
        if self.module.items.is_empty() {
            return;
        }
        let mut undriven: Vec<(String, dda_verilog::Span)> = self
            .symbols
            .iter()
            .filter(|(_, s)| {
                s.kind == SymKind::Output && s.cont_drivers == 0 && !s.proc_driven && !s.conn_driven
            })
            .map(|(n, s)| (n.clone(), s.decl_span))
            .collect();
        undriven.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, span) in undriven {
            self.diags.push(Diagnostic::warning(
                DiagKind::UndrivenOutput,
                format!("Output port `{name}' is never driven"),
                span,
            ));
        }
    }

    fn check_unused(&mut self) {
        let mut unused: Vec<(String, dda_verilog::Span)> = self
            .symbols
            .iter()
            .filter(|(_, s)| {
                !s.used
                    && !s.kind.is_port()
                    && s.kind != SymKind::Param
                    && s.kind != SymKind::Function
                    && s.cont_drivers == 0
                    && !s.proc_driven
            })
            .map(|(n, s)| (n.clone(), s.decl_span))
            .collect();
        unused.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, span) in unused {
            self.diags.push(Diagnostic::warning(
                DiagKind::UnusedSignal,
                format!("Signal `{name}' is declared but never used"),
                span,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors(src: &str) -> Vec<DiagKind> {
        check_source("t.v", src)
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.kind)
            .collect()
    }

    fn warnings(src: &str) -> Vec<DiagKind> {
        check_source("t.v", src)
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.kind)
            .collect()
    }

    #[test]
    fn clean_module_passes() {
        let r = check_source(
            "ok.v",
            "module counter(input clk, rst, output reg [1:0] count);\n\
             always @(posedge clk) if (rst) count <= 2'd0; else count <= count + 2'd1;\n\
             endmodule",
        );
        assert!(r.is_clean(), "unexpected findings: {}", r.render());
    }

    #[test]
    fn syntax_error_is_reported_with_line() {
        let r = check_source("b.v", "module m(input a;\nendmodule");
        let e = r.first_error().unwrap();
        assert_eq!(e.kind, DiagKind::SyntaxError);
        assert!(e.message.contains("unexpected ';'"), "{}", e.message);
        assert_eq!(e.span.line, 1);
    }

    #[test]
    fn undeclared_identifier() {
        let e = errors("module m(input a, output y); assign y = a & b; endmodule");
        assert_eq!(e, vec![DiagKind::UndeclaredIdentifier]);
    }

    #[test]
    fn procedural_assign_to_wire() {
        let e = errors(
            "module m(input clk, a, output y);\n\
             always @(posedge clk) y <= a;\n\
             endmodule",
        );
        assert_eq!(e, vec![DiagKind::ProceduralAssignToWire]);
    }

    #[test]
    fn continuous_assign_to_reg() {
        let e = errors("module m(input a, output reg y); assign y = a; endmodule");
        assert_eq!(e, vec![DiagKind::ContinuousAssignToReg]);
    }

    #[test]
    fn assign_to_input() {
        let e =
            errors("module m(input a, input b, output y); assign a = b; assign y = a; endmodule");
        assert_eq!(e, vec![DiagKind::AssignToInput]);
    }

    #[test]
    fn redeclaration() {
        let e = errors("module m(input a, output y); wire t; wire t; assign y = a & t; endmodule");
        assert_eq!(e, vec![DiagKind::Redeclaration]);
    }

    #[test]
    fn output_reg_merge_is_legal() {
        let r = check_source(
            "m.v",
            "module m(clk, q);\n\
             input clk;\n\
             output q;\n\
             reg q;\n\
             always @(posedge clk) q <= ~q;\n\
             endmodule",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn port_without_direction() {
        let e = errors("module m(a, y); input a; assign y = a; endmodule");
        assert!(e.contains(&DiagKind::PortWithoutDirection));
    }

    #[test]
    fn body_port_not_in_header() {
        let e = errors("module m(a); input a; input b; endmodule");
        assert!(e.contains(&DiagKind::PortNotInHeader));
    }

    #[test]
    fn width_mismatch_is_warning() {
        let w = warnings(
            "module m(input [7:0] a, output [3:0] y);\n\
             assign y = a;\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::WidthMismatch));
        // but the file still lints clean
        assert!(check_source(
            "t.v",
            "module m(input [7:0] a, output [3:0] y); assign y = a; endmodule"
        )
        .is_clean());
    }

    #[test]
    fn unsized_literals_do_not_warn() {
        let w = warnings("module m(input [7:0] a, output [7:0] y); assign y = a + 1; endmodule");
        assert!(!w.contains(&DiagKind::WidthMismatch));
    }

    #[test]
    fn multiple_drivers_warn() {
        let w = warnings(
            "module m(input a, b, output y);\n\
             assign y = a;\n\
             assign y = b;\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::MultipleDrivers));
    }

    #[test]
    fn unknown_module_is_blackbox_warning() {
        let w = warnings("module top(input a, output y); mystery u(.i(a), .o(y)); endmodule");
        assert!(w.contains(&DiagKind::UnknownModule));
    }

    #[test]
    fn named_connection_checked_against_target() {
        let e = errors(
            "module sub(input i, output o); assign o = i; endmodule\n\
             module top(input a, output y); sub u(.i(a), .oops(y)); endmodule",
        );
        assert_eq!(e, vec![DiagKind::NoSuchPort]);
    }

    #[test]
    fn unused_signal_warns() {
        let w = warnings("module m(input a, output y); wire dead; assign y = a; endmodule");
        assert!(w.contains(&DiagKind::UnusedSignal));
    }

    #[test]
    fn paper_fig6_lfsr_fault() {
        // The broken LFSR of Fig. 6: `KEY0]` instead of `KEY[0]`.
        let src = "module LFSR_3bit (\n\
                   input [2:0] SW,\n\
                   input [1:0] KEY,\n\
                   output reg [2:0] LEDR\n\
                   );\n\
                   always @(posedge KEY0])\n\
                   LEDR <= KEY[1] ? SW : {LEDR[2] ^ LEDR[1], LEDR[0], LEDR[2]};\n\
                   endmodule";
        let r = check_source("111_3-bit LFSR.v", src);
        let e = r.first_error().unwrap();
        assert_eq!(e.kind, DiagKind::SyntaxError);
        assert_eq!(e.span.line, 6);
        let rendered = r.render_one(e);
        assert!(
            rendered.starts_with("/111_3-bit LFSR.v:6: ERROR: syntax error, unexpected ']'"),
            "{rendered}"
        );
    }

    #[test]
    fn memory_word_width_inferred() {
        let w = warnings(
            "module m(input [3:0] addr, input clk, output reg [7:0] q);\n\
             reg [7:0] mem [0:15];\n\
             always @(posedge clk) q <= mem[addr];\n\
             endmodule",
        );
        assert!(!w.contains(&DiagKind::WidthMismatch), "{w:?}");
    }

    #[test]
    fn undriven_output_warns() {
        let w = warnings("module m(input a, output y, output z); assign y = a; endmodule");
        assert!(w.contains(&DiagKind::UndrivenOutput), "{w:?}");
    }

    #[test]
    fn output_driven_by_child_is_fine() {
        let r = check_source(
            "m.v",
            "module inv(input a, output y); assign y = ~a; endmodule\n\
             module top(input a, output y); inv u(.a(a), .y(y)); endmodule",
        );
        let w: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagKind::UndrivenOutput)
            .collect();
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn testbench_module_lints_clean() {
        let r = check_source(
            "tb.v",
            "module tb;\n\
             reg clk = 0;\n\
             wire [1:0] q;\n\
             counter dut(.clk(clk), .rst(1'b0), .count(q));\n\
             always #5 clk = ~clk;\n\
             initial begin #100 $display(\"%d\", q); $finish; end\n\
             endmodule\n\
             module counter(input clk, rst, output reg [1:0] count);\n\
             always @(posedge clk) if (rst) count <= 2'd0; else count <= count + 2'd1;\n\
             endmodule",
        );
        assert!(r.is_clean(), "{}", r.render());
    }
}

/// Style and latch-inference analysis, appended to the checker pipeline.
mod style {
    use super::*;

    /// Set of names assigned on *every* control path of a statement.
    pub(super) fn assigned_on_all_paths(s: &Stmt, out: &mut std::collections::HashSet<String>) {
        match s {
            Stmt::Block { stmts, .. } => {
                for st in stmts {
                    assigned_on_all_paths(st, out);
                }
            }
            Stmt::Assign { lhs, .. } => {
                if let Some(n) = lhs.lvalue_ident() {
                    out.insert(n.to_owned());
                }
            }
            Stmt::If {
                then_stmt,
                else_stmt: Some(e),
                ..
            } => {
                let mut a = std::collections::HashSet::new();
                let mut b = std::collections::HashSet::new();
                assigned_on_all_paths(then_stmt, &mut a);
                assigned_on_all_paths(e, &mut b);
                out.extend(a.intersection(&b).cloned());
            }
            Stmt::Case { arms, .. } if arms.iter().any(|a| a.labels.is_empty()) => {
                let mut sets: Vec<std::collections::HashSet<String>> = Vec::new();
                for arm in arms {
                    let mut s = std::collections::HashSet::new();
                    assigned_on_all_paths(&arm.body, &mut s);
                    sets.push(s);
                }
                if let Some(first) = sets.first().cloned() {
                    let common = sets
                        .iter()
                        .skip(1)
                        .fold(first, |acc, s| acc.intersection(s).cloned().collect());
                    out.extend(common);
                }
            }
            // `if` without `else`, `case` without `default`, loops, delays:
            // no guaranteed assignment.
            _ => {}
        }
    }

    /// Every name assigned anywhere in a statement, with the assignment
    /// kind observed.
    pub(super) fn assigned_anywhere(
        s: &Stmt,
        out: &mut Vec<(String, AssignKind, dda_verilog::Span)>,
    ) {
        match s {
            Stmt::Block { stmts, .. } => {
                for st in stmts {
                    assigned_anywhere(st, out);
                }
            }
            Stmt::Assign {
                lhs, kind, span, ..
            } => {
                if let Some(n) = lhs.lvalue_ident() {
                    out.push((n.to_owned(), *kind, *span));
                }
            }
            Stmt::If {
                then_stmt,
                else_stmt,
                ..
            } => {
                assigned_anywhere(then_stmt, out);
                if let Some(e) = else_stmt {
                    assigned_anywhere(e, out);
                }
            }
            Stmt::Case { arms, .. } => {
                for arm in arms {
                    assigned_anywhere(&arm.body, out);
                }
            }
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::Repeat { body, .. }
            | Stmt::Forever { body, .. } => assigned_anywhere(body, out),
            Stmt::Delay { stmt, .. } | Stmt::Event { stmt, .. } | Stmt::Wait { stmt, .. } => {
                if let Some(st) = stmt {
                    assigned_anywhere(st, out);
                }
            }
            _ => {}
        }
    }
}

/// Runs the style/latch pass over a parsed file and appends findings.
pub(crate) fn check_style(sf: &SourceFile, report: &mut LintReport) {
    for m in &sf.modules {
        for item in &m.items {
            let Item::Always(a) = item else { continue };
            let edge_triggered = matches!(&a.sensitivity, Sensitivity::List(items)
                if items.iter().any(|i| i.edge.is_some()));
            let combinational = matches!(a.sensitivity, Sensitivity::Star)
                || matches!(&a.sensitivity, Sensitivity::List(items)
                    if !items.is_empty() && items.iter().all(|i| i.edge.is_none()));
            let mut anywhere = Vec::new();
            style::assigned_anywhere(&a.body, &mut anywhere);
            if edge_triggered {
                for (name, kind, span) in &anywhere {
                    if *kind == AssignKind::Blocking {
                        report.diagnostics.push(Diagnostic::warning(
                            DiagKind::BlockingInSequential,
                            format!(
                                "blocking assignment to `{name}' in an edge-triggered block; use `<=`"
                            ),
                            *span,
                        ));
                        break; // one per block is enough
                    }
                }
            }
            if combinational {
                for (name, kind, span) in &anywhere {
                    if *kind == AssignKind::NonBlocking {
                        report.diagnostics.push(Diagnostic::warning(
                            DiagKind::NonblockingInCombinational,
                            format!(
                                "nonblocking assignment to `{name}' in a combinational block; use `=`"
                            ),
                            *span,
                        ));
                        break;
                    }
                }
                let mut complete = std::collections::HashSet::new();
                style::assigned_on_all_paths(&a.body, &mut complete);
                let mut flagged = std::collections::HashSet::new();
                for (name, _, span) in &anywhere {
                    if !complete.contains(name) && flagged.insert(name.clone()) {
                        report.diagnostics.push(Diagnostic::warning(
                            DiagKind::LatchInferred,
                            format!(
                                "`{name}' is not assigned on every path of a combinational block; a latch is inferred"
                            ),
                            *span,
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod style_tests {
    use super::*;

    fn warnings_of(src: &str) -> Vec<DiagKind> {
        check_source("t.v", src)
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.kind)
            .collect()
    }

    #[test]
    fn latch_inferred_for_incomplete_if() {
        let w = warnings_of(
            "module m(input en, input [3:0] d, output reg [3:0] q);\n\
             always @(*) if (en) q = d;\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::LatchInferred), "{w:?}");
    }

    #[test]
    fn no_latch_with_default_assignment() {
        let w = warnings_of(
            "module m(input en, input [3:0] d, output reg [3:0] q);\n\
             always @(*) begin\n  q = 4'd0;\n  if (en) q = d;\nend\n\
             endmodule",
        );
        assert!(!w.contains(&DiagKind::LatchInferred), "{w:?}");
    }

    #[test]
    fn no_latch_with_full_if_else() {
        let w = warnings_of(
            "module m(input s, input [3:0] a, b, output reg [3:0] q);\n\
             always @(*) if (s) q = a; else q = b;\n\
             endmodule",
        );
        assert!(!w.contains(&DiagKind::LatchInferred), "{w:?}");
    }

    #[test]
    fn latch_for_case_without_default() {
        let w = warnings_of(
            "module m(input [1:0] s, output reg q);\n\
             always @(*) case (s)\n  2'b00: q = 1'b1;\n  2'b01: q = 1'b0;\nendcase\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::LatchInferred), "{w:?}");
    }

    #[test]
    fn no_latch_for_case_with_default() {
        let w = warnings_of(
            "module m(input [1:0] s, output reg q);\n\
             always @(*) case (s)\n  2'b00: q = 1'b1;\n  default: q = 1'b0;\nendcase\n\
             endmodule",
        );
        assert!(!w.contains(&DiagKind::LatchInferred), "{w:?}");
    }

    #[test]
    fn blocking_in_sequential_warns() {
        let w = warnings_of(
            "module m(input clk, d, output reg q);\n\
             always @(posedge clk) q = d;\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::BlockingInSequential), "{w:?}");
    }

    #[test]
    fn nonblocking_in_combinational_warns() {
        let w = warnings_of(
            "module m(input a, b, output reg y);\n\
             always @(*) y <= a & b;\n\
             endmodule",
        );
        assert!(w.contains(&DiagKind::NonblockingInCombinational), "{w:?}");
    }

    #[test]
    fn clean_styles_stay_quiet() {
        let w = warnings_of(
            "module m(input clk, rst, d, output reg q, output reg y);\n\
             always @(posedge clk) if (rst) q <= 1'b0; else q <= d;\n\
             always @(*) y = q & d;\n\
             endmodule",
        );
        assert!(!w.contains(&DiagKind::BlockingInSequential));
        assert!(!w.contains(&DiagKind::NonblockingInCombinational));
        assert!(!w.contains(&DiagKind::LatchInferred));
    }
}
