//! Test-only oracle: the recursive-descent parser that `dda_verilog::parser`
//! replaced, with its eleven-level `binary_expr(level)` expression chain.
//! Kept verbatim apart from imports, the token type's lifetime and the
//! copies of borrowed token text (and `ParseError::new`, which is private
//! to the library, spelled `perr`) so the differential tests in
//! `frontend_oracle.rs` can hold the precedence-climbing parser to it.

use super::lexer::lex;
use dda_verilog::ast::*;
use dda_verilog::logic::{LogicBit, LogicVec};
use dda_verilog::parser::ParseError;
use dda_verilog::token::{Keyword, Span, Token, TokenKind};

fn perr(tok: &Token<'_>, expected: impl Into<String>) -> ParseError {
    ParseError {
        span: tok.span,
        found: tok.kind.render(),
        expected: expected.into(),
    }
}

/// Parses a complete source file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; like yosys, parsing stops at
/// the first syntax error.
///
/// ```
/// # fn main() -> Result<(), dda_verilog::parser::ParseError> {
/// let sf = dda_verilog::parse("module m(input a, output y); assign y = ~a; endmodule")?;
/// assert_eq!(sf.modules[0].name.name, "m");
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src)?;
    Parser::new(tokens).source_file()
}

/// Parses a single expression (used by tests and the mutation engine).
///
/// # Errors
///
/// Returns a [`ParseError`] when `src` is not a well-formed expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Hard ceiling on combined expression/statement nesting depth.
///
/// Each bracketed expression level costs two units (`expr` + `unary_expr`),
/// so this admits ~32 levels of parentheses/concatenation — far beyond any
/// real RTL — while keeping the recursive descent (whose debug-build frames
/// are large: `Expr` is returned by value through twelve precedence levels)
/// inside a 2 MiB test-thread stack. Untrusted input past the limit gets a
/// [`ParseError`] instead of a stack overflow (which would abort the
/// process and cannot be isolated with `catch_unwind`).
const MAX_NESTING: usize = 64;

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    pos: usize,
    eof: Token<'src>,
    depth: usize,
}

impl<'src> Parser<'src> {
    fn new(tokens: Vec<Token<'src>>) -> Self {
        let end = tokens.last().map(|t| t.span).unwrap_or_default();
        Parser {
            tokens,
            pos: 0,
            eof: Token::new(TokenKind::Eof, end),
            depth: 0,
        }
    }

    /// Runs `f` `weight` nesting units deeper, failing fast at
    /// [`MAX_NESTING`]. Statement recursion charges double because its
    /// debug-build stack frames are roughly twice the size of the
    /// expression chain's.
    fn nested_weighted<T>(
        &mut self,
        weight: usize,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth + weight > MAX_NESTING {
            return Err(perr(
                self.peek(),
                format!("shallower nesting (depth limit {MAX_NESTING} reached)"),
            ));
        }
        self.depth += weight;
        let out = f(self);
        self.depth -= weight;
        out
    }

    /// Runs `f` one nesting unit deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.nested_weighted(1, f)
    }

    fn peek(&self) -> &Token<'src> {
        self.tokens.get(self.pos).unwrap_or(&self.eof)
    }

    fn bump(&mut self) -> &Token<'src> {
        let i = self.pos;
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        self.tokens.get(i).unwrap_or(&self.eof)
    }

    fn at_op(&self, op: &str) -> bool {
        self.peek().is_op(op)
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        self.peek().is_kw(kw)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.at_op(op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &'static str) -> Result<&Token<'src>, ParseError> {
        if self.at_op(op) {
            Ok(self.bump())
        } else {
            Err(perr(self.peek(), format!("`{op}`")))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<&Token<'src>, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            Err(perr(self.peek(), format!("`{}`", kw.as_str())))
        }
    }

    fn expect_ident(&mut self) -> Result<Ident, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = (*name).to_owned();
                let span = self.peek().span;
                self.bump();
                Ok(Ident::spanned(name, span))
            }
            _ => Err(perr(self.peek(), "an identifier")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek().kind, TokenKind::Eof) && self.pos >= self.tokens.len() {
            Ok(())
        } else {
            Err(perr(self.peek(), "end of input"))
        }
    }

    // ---------------------------------------------------------------- file

    fn source_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut sf = SourceFile::default();
        loop {
            match &self.peek().kind {
                TokenKind::Directive(d) => {
                    sf.directives.push((*d).to_owned());
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Module) => sf.modules.push(self.module()?),
                TokenKind::Eof => break,
                _ => {
                    if self.pos >= self.tokens.len() {
                        break;
                    }
                    return Err(perr(self.peek(), "`module`"));
                }
            }
        }
        Ok(sf)
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        let start = self.expect_kw(Keyword::Module)?.span;
        let name = self.expect_ident()?;
        let mut header_params = Vec::new();
        if self.eat_op("#") {
            self.expect_op("(")?;
            loop {
                self.eat_kw(Keyword::Parameter);
                let range = self.opt_range()?;
                let pname = self.expect_ident()?;
                self.expect_op("=")?;
                let value = self.expr()?;
                let span = pname.span.to(value.span());
                header_params.push(ParamDecl {
                    local: false,
                    range,
                    name: pname,
                    value,
                    span,
                });
                if !self.eat_op(",") {
                    break;
                }
            }
            self.expect_op(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_op("(") {
            if !self.at_op(")") {
                loop {
                    ports.push(self.header_port(ports.last())?);
                    if !self.eat_op(",") {
                        break;
                    }
                }
            }
            self.expect_op(")")?;
        }
        self.expect_op(";")?;
        let mut items = Vec::new();
        while !self.at_kw(Keyword::Endmodule) {
            if matches!(self.peek().kind, TokenKind::Eof) {
                return Err(perr(self.peek(), "`endmodule`"));
            }
            if let TokenKind::Directive(_) = self.peek().kind {
                self.bump();
                continue;
            }
            self.item(&mut items)?;
        }
        let end = self.expect_kw(Keyword::Endmodule)?.span;
        Ok(Module {
            name,
            header_params,
            ports,
            items,
            span: start.to(end),
        })
    }

    /// One port in the header; inherits direction/range from the previous
    /// port when only a name is given after an ANSI-style entry, per IEEE
    /// 1364 list-of-port-declarations rules.
    fn header_port(&mut self, prev: Option<&Port>) -> Result<Port, ParseError> {
        let dir = match &self.peek().kind {
            TokenKind::Keyword(Keyword::Input) => {
                self.bump();
                Some(PortDir::Input)
            }
            TokenKind::Keyword(Keyword::Output) => {
                self.bump();
                Some(PortDir::Output)
            }
            TokenKind::Keyword(Keyword::Inout) => {
                self.bump();
                Some(PortDir::Inout)
            }
            _ => None,
        };
        let explicit = dir.is_some();
        let is_reg = if explicit {
            let r = self.eat_kw(Keyword::Reg);
            if !r {
                self.eat_kw(Keyword::Wire);
            }
            r
        } else {
            false
        };
        let signed = if explicit {
            self.eat_kw(Keyword::Signed)
        } else {
            false
        };
        let range = if explicit { self.opt_range()? } else { None };
        let name = self.expect_ident()?;
        if explicit {
            Ok(Port {
                dir,
                is_reg,
                signed,
                range,
                name,
            })
        } else if let Some(p) = prev.filter(|p| p.dir.is_some()) {
            // `input a, b` — b inherits the declaration of a.
            Ok(Port {
                dir: p.dir,
                is_reg: p.is_reg,
                signed: p.signed,
                range: p.range.clone(),
                name,
            })
        } else {
            // Non-ANSI header: just the name.
            Ok(Port {
                dir: None,
                is_reg: false,
                signed: false,
                range: None,
                name,
            })
        }
    }

    fn opt_range(&mut self) -> Result<Option<Range>, ParseError> {
        if !self.at_op("[") {
            return Ok(None);
        }
        let start = self.bump().span;
        let msb = self.expr()?;
        self.expect_op(":")?;
        let lsb = self.expr()?;
        let end = self.expect_op("]")?.span;
        Ok(Some(Range {
            msb,
            lsb,
            span: start.to(end),
        }))
    }

    // --------------------------------------------------------------- items

    fn item(&mut self, items: &mut Vec<Item>) -> Result<(), ParseError> {
        let item = self.item_one(items)?;
        if let Some(item) = item {
            items.push(item);
        }
        Ok(())
    }

    /// Parses one item; multi-declarator `parameter a = 1, b = 2;` pushes
    /// extras directly and returns `None` handled by the caller.
    fn item_one(&mut self, items: &mut Vec<Item>) -> Result<Option<Item>, ParseError> {
        let kw = match &self.peek().kind {
            TokenKind::Keyword(kw) => *kw,
            TokenKind::Ident(_) => return Ok(Some(Item::Instance(self.instance()?))),
            _ => return Err(perr(self.peek(), "a module item")),
        };
        match kw {
            Keyword::Input | Keyword::Output | Keyword::Inout => {
                Ok(Some(Item::Port(self.port_decl()?)))
            }
            Keyword::Wire
            | Keyword::Reg
            | Keyword::Integer
            | Keyword::Genvar
            | Keyword::Supply0
            | Keyword::Supply1 => Ok(Some(Item::Net(self.net_decl()?))),
            Keyword::Parameter | Keyword::Localparam => {
                for p in self.param_decls()? {
                    items.push(Item::Param(p));
                }
                Ok(None)
            }
            Keyword::Assign => Ok(Some(Item::Assign(self.cont_assign()?))),
            Keyword::Always => Ok(Some(Item::Always(self.always_block()?))),
            Keyword::Initial => {
                let start = self.bump().span;
                let body = self.stmt()?;
                let span = start.to(body.span());
                Ok(Some(Item::Initial(InitialBlock { body, span })))
            }
            Keyword::Function => Ok(Some(Item::Function(self.function_decl()?))),
            Keyword::Task => {
                // Tasks are accepted and skipped (not modelled).
                let start = self.bump().span;
                while !self.at_kw(Keyword::Endtask) {
                    if matches!(self.peek().kind, TokenKind::Eof) {
                        return Err(perr(self.peek(), "`endtask`"));
                    }
                    self.bump();
                }
                let end = self.bump().span;
                Ok(Some(Item::Initial(InitialBlock {
                    body: Stmt::Null {
                        span: start.to(end),
                    },
                    span: start.to(end),
                })))
            }
            Keyword::And | Keyword::Or | Keyword::Not => {
                Ok(Some(Item::Instance(self.gate_instance()?)))
            }
            _ => Err(perr(self.peek(), "a module item")),
        }
    }

    fn port_decl(&mut self) -> Result<PortDecl, ParseError> {
        let tok = self.bump();
        let start = tok.span;
        let dir = match tok.kind {
            TokenKind::Keyword(Keyword::Input) => PortDir::Input,
            TokenKind::Keyword(Keyword::Output) => PortDir::Output,
            TokenKind::Keyword(Keyword::Inout) => PortDir::Inout,
            _ => unreachable!("caller checked the keyword"),
        };
        let is_reg = self.eat_kw(Keyword::Reg);
        if !is_reg {
            self.eat_kw(Keyword::Wire);
        }
        let signed = self.eat_kw(Keyword::Signed);
        let range = self.opt_range()?;
        let mut names = vec![self.expect_ident()?];
        while self.eat_op(",") {
            names.push(self.expect_ident()?);
        }
        let end = self.expect_op(";")?.span;
        Ok(PortDecl {
            dir,
            is_reg,
            signed,
            range,
            names,
            span: start.to(end),
        })
    }

    fn net_decl(&mut self) -> Result<NetDecl, ParseError> {
        let tok = self.bump();
        let start = tok.span;
        let kind = match tok.kind {
            TokenKind::Keyword(Keyword::Wire) => NetKind::Wire,
            TokenKind::Keyword(Keyword::Reg) => NetKind::Reg,
            TokenKind::Keyword(Keyword::Integer) => NetKind::Integer,
            TokenKind::Keyword(Keyword::Genvar) => NetKind::Genvar,
            TokenKind::Keyword(Keyword::Supply0) => NetKind::Supply0,
            TokenKind::Keyword(Keyword::Supply1) => NetKind::Supply1,
            _ => unreachable!("caller checked the keyword"),
        };
        let signed = self.eat_kw(Keyword::Signed);
        let range = self.opt_range()?;
        let mut nets = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let array = self.opt_range()?;
            let init = if self.eat_op("=") {
                Some(self.expr()?)
            } else {
                None
            };
            nets.push(NetInit { name, array, init });
            if !self.eat_op(",") {
                break;
            }
        }
        let end = self.expect_op(";")?.span;
        Ok(NetDecl {
            kind,
            signed,
            range,
            nets,
            span: start.to(end),
        })
    }

    fn param_decls(&mut self) -> Result<Vec<ParamDecl>, ParseError> {
        let tok = self.bump();
        let start = tok.span;
        let local = matches!(tok.kind, TokenKind::Keyword(Keyword::Localparam));
        let range = self.opt_range()?;
        let mut out = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect_op("=")?;
            let value = self.expr()?;
            out.push(ParamDecl {
                local,
                range: range.clone(),
                name,
                value,
                span: start,
            });
            if !self.eat_op(",") {
                break;
            }
        }
        let end = self.expect_op(";")?.span;
        for p in &mut out {
            p.span = start.to(end);
        }
        Ok(out)
    }

    fn cont_assign(&mut self) -> Result<ContAssign, ParseError> {
        let start = self.expect_kw(Keyword::Assign)?.span;
        let delay = if self.eat_op("#") {
            Some(self.delay_value()?)
        } else {
            None
        };
        let lhs = self.lvalue()?;
        self.expect_op("=")?;
        let rhs = self.expr()?;
        let end = self.expect_op(";")?.span;
        Ok(ContAssign {
            lhs,
            rhs,
            delay,
            span: start.to(end),
        })
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, ParseError> {
        let start = self.expect_kw(Keyword::Always)?.span;
        let sensitivity = if self.at_op("@") {
            self.bump();
            self.sensitivity()?
        } else {
            Sensitivity::None
        };
        let body = self.stmt()?;
        let span = start.to(body.span());
        Ok(AlwaysBlock {
            sensitivity,
            body,
            span,
        })
    }

    fn sensitivity(&mut self) -> Result<Sensitivity, ParseError> {
        if self.eat_op("*") {
            return Ok(Sensitivity::Star);
        }
        self.expect_op("(")?;
        if self.eat_op("*") {
            self.expect_op(")")?;
            return Ok(Sensitivity::Star);
        }
        let mut items = Vec::new();
        loop {
            let edge = if self.eat_kw(Keyword::Posedge) {
                Some(Edge::Pos)
            } else if self.eat_kw(Keyword::Negedge) {
                Some(Edge::Neg)
            } else {
                None
            };
            let expr = self.expr()?;
            items.push(SensItem { edge, expr });
            if self.eat_op(",") || self.eat_kw(Keyword::Or) {
                continue;
            }
            break;
        }
        self.expect_op(")")?;
        Ok(Sensitivity::List(items))
    }

    fn function_decl(&mut self) -> Result<FunctionDecl, ParseError> {
        let start = self.expect_kw(Keyword::Function)?.span;
        self.eat_kw(Keyword::Signed);
        let range = self.opt_range()?;
        let name = self.expect_ident()?;
        let mut args = Vec::new();
        let mut locals = Vec::new();
        if self.eat_op("(") {
            // ANSI-style argument list.
            if !self.at_op(")") {
                loop {
                    self.expect_kw(Keyword::Input)?;
                    self.eat_kw(Keyword::Signed);
                    let r = self.opt_range()?;
                    let n = self.expect_ident()?;
                    args.push((r, n));
                    if !self.eat_op(",") {
                        break;
                    }
                }
            }
            self.expect_op(")")?;
        }
        self.expect_op(";")?;
        // Classic-style declarations before the body.
        loop {
            if self.at_kw(Keyword::Input) {
                let pd = self.port_decl()?;
                for n in pd.names {
                    args.push((pd.range.clone(), n));
                }
            } else if self.at_kw(Keyword::Reg) || self.at_kw(Keyword::Integer) {
                locals.push(self.net_decl()?);
            } else {
                break;
            }
        }
        let body = self.stmt()?;
        let end = self.expect_kw(Keyword::Endfunction)?.span;
        Ok(FunctionDecl {
            range,
            name,
            args,
            locals,
            body,
            span: start.to(end),
        })
    }

    fn gate_instance(&mut self) -> Result<Instance, ParseError> {
        let tok = self.bump();
        let start = tok.span;
        let gate = match tok.kind {
            TokenKind::Keyword(Keyword::And) => "and",
            TokenKind::Keyword(Keyword::Or) => "or",
            TokenKind::Keyword(Keyword::Not) => "not",
            _ => unreachable!("caller checked the keyword"),
        };
        let name = if let TokenKind::Ident(_) = self.peek().kind {
            self.expect_ident()?
        } else {
            Ident::spanned(format!("{gate}_inst"), start)
        };
        self.expect_op("(")?;
        let mut ports = Vec::new();
        if !self.at_op(")") {
            loop {
                ports.push(Connection {
                    name: None,
                    expr: Some(self.expr()?),
                });
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        self.expect_op(")")?;
        let end = self.expect_op(";")?.span;
        Ok(Instance {
            module: Ident::spanned(gate, start),
            params: Vec::new(),
            name,
            ports,
            span: start.to(end),
        })
    }

    fn instance(&mut self) -> Result<Instance, ParseError> {
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_op("#") {
            self.expect_op("(")?;
            params = self.connections()?;
            self.expect_op(")")?;
        }
        let name = self.expect_ident()?;
        self.expect_op("(")?;
        let ports = self.connections()?;
        self.expect_op(")")?;
        let end = self.expect_op(";")?.span;
        Ok(Instance {
            span: module.span.to(end),
            module,
            params,
            name,
            ports,
        })
    }

    fn connections(&mut self) -> Result<Vec<Connection>, ParseError> {
        let mut out = Vec::new();
        if self.at_op(")") {
            return Ok(out);
        }
        loop {
            if self.eat_op(".") {
                let name = self.expect_ident()?;
                self.expect_op("(")?;
                let expr = if self.at_op(")") {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_op(")")?;
                out.push(Connection {
                    name: Some(name),
                    expr,
                });
            } else {
                out.push(Connection {
                    name: None,
                    expr: Some(self.expr()?),
                });
            }
            if !self.eat_op(",") {
                break;
            }
        }
        Ok(out)
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested_weighted(2, Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        /// What the next token starts, copied out of the peeked token so
        /// the arms below can borrow the parser mutably. Only the system
        /// task name is owned — everything else is `Copy`.
        enum Head {
            Kw(Keyword),
            Op(&'static str),
            Sys(String),
            AssignStart,
        }
        let head = match &self.peek().kind {
            TokenKind::Keyword(k) => Head::Kw(*k),
            TokenKind::Op(o) => Head::Op(o),
            TokenKind::SysIdent(name) => Head::Sys((*name).to_owned()),
            TokenKind::Ident(_) => Head::AssignStart,
            _ => return Err(perr(self.peek(), "a statement")),
        };
        match head {
            Head::Kw(Keyword::Begin) => {
                let start = self.bump().span;
                let name = if self.eat_op(":") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                let mut stmts = Vec::new();
                while !self.at_kw(Keyword::End) {
                    if matches!(self.peek().kind, TokenKind::Eof) {
                        return Err(perr(self.peek(), "`end`"));
                    }
                    stmts.push(self.stmt()?);
                }
                let end = self.bump().span;
                Ok(Stmt::Block {
                    name,
                    stmts,
                    span: start.to(end),
                })
            }
            Head::Kw(Keyword::If) => {
                let start = self.bump().span;
                self.expect_op("(")?;
                let cond = self.expr()?;
                self.expect_op(")")?;
                let then_stmt = Box::new(self.stmt()?);
                let (else_stmt, end) = if self.eat_kw(Keyword::Else) {
                    let s = self.stmt()?;
                    let sp = s.span();
                    (Some(Box::new(s)), sp)
                } else {
                    (None, then_stmt.span())
                };
                Ok(Stmt::If {
                    cond,
                    then_stmt,
                    else_stmt,
                    span: start.to(end),
                })
            }
            Head::Kw(k @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                let kind = match k {
                    Keyword::Case => CaseKind::Exact,
                    Keyword::Casez => CaseKind::Z,
                    _ => CaseKind::X,
                };
                let start = self.bump().span;
                self.expect_op("(")?;
                let expr = self.expr()?;
                self.expect_op(")")?;
                let mut arms = Vec::new();
                while !self.at_kw(Keyword::Endcase) {
                    if matches!(self.peek().kind, TokenKind::Eof) {
                        return Err(perr(self.peek(), "`endcase`"));
                    }
                    let labels = if self.eat_kw(Keyword::Default) {
                        self.eat_op(":");
                        Vec::new()
                    } else {
                        let mut labels = vec![self.expr()?];
                        while self.eat_op(",") {
                            labels.push(self.expr()?);
                        }
                        self.expect_op(":")?;
                        labels
                    };
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                let end = self.bump().span;
                Ok(Stmt::Case {
                    kind,
                    expr,
                    arms,
                    span: start.to(end),
                })
            }
            Head::Kw(Keyword::For) => {
                let start = self.bump().span;
                self.expect_op("(")?;
                let init = Box::new(self.plain_assign()?);
                self.expect_op(";")?;
                let cond = self.expr()?;
                self.expect_op(";")?;
                let step = Box::new(self.plain_assign()?);
                self.expect_op(")")?;
                let body = Box::new(self.stmt()?);
                let span = start.to(body.span());
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            Head::Kw(Keyword::While) => {
                let start = self.bump().span;
                self.expect_op("(")?;
                let cond = self.expr()?;
                self.expect_op(")")?;
                let body = Box::new(self.stmt()?);
                let span = start.to(body.span());
                Ok(Stmt::While { cond, body, span })
            }
            Head::Kw(Keyword::Repeat) => {
                let start = self.bump().span;
                self.expect_op("(")?;
                let count = self.expr()?;
                self.expect_op(")")?;
                let body = Box::new(self.stmt()?);
                let span = start.to(body.span());
                Ok(Stmt::Repeat { count, body, span })
            }
            Head::Kw(Keyword::Forever) => {
                let start = self.bump().span;
                let body = Box::new(self.stmt()?);
                let span = start.to(body.span());
                Ok(Stmt::Forever { body, span })
            }
            Head::Kw(Keyword::Wait) => {
                let start = self.bump().span;
                self.expect_op("(")?;
                let cond = self.expr()?;
                self.expect_op(")")?;
                let (stmt, end) = self.opt_controlled_stmt(start)?;
                Ok(Stmt::Wait {
                    cond,
                    stmt,
                    span: start.to(end),
                })
            }
            Head::Kw(Keyword::Disable) => {
                let start = self.bump().span;
                let _ = self.expect_ident()?;
                let end = self.expect_op(";")?.span;
                Ok(Stmt::Null {
                    span: start.to(end),
                })
            }
            Head::Op("#") => {
                let start = self.bump().span;
                let amount = self.delay_value()?;
                let (stmt, end) = self.opt_controlled_stmt(start)?;
                Ok(Stmt::Delay {
                    amount,
                    stmt,
                    span: start.to(end),
                })
            }
            Head::Op("@") => {
                let start = self.bump().span;
                let sensitivity = self.sensitivity()?;
                let (stmt, end) = self.opt_controlled_stmt(start)?;
                Ok(Stmt::Event {
                    sensitivity,
                    stmt,
                    span: start.to(end),
                })
            }
            Head::Op(";") => {
                let span = self.bump().span;
                Ok(Stmt::Null { span })
            }
            Head::Sys(name) => {
                let start = self.bump().span;
                let mut args = Vec::new();
                if self.eat_op("(") {
                    if !self.at_op(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                    }
                    self.expect_op(")")?;
                }
                let end = self.expect_op(";")?.span;
                Ok(Stmt::SysCall {
                    name,
                    args,
                    span: start.to(end),
                })
            }
            Head::AssignStart | Head::Op("{") => self.assign_stmt(),
            _ => Err(perr(self.peek(), "a statement")),
        }
    }

    fn opt_controlled_stmt(
        &mut self,
        start: Span,
    ) -> Result<(Option<Box<Stmt>>, Span), ParseError> {
        if self.eat_op(";") {
            Ok((None, start))
        } else {
            let s = self.stmt()?;
            let sp = s.span();
            Ok((Some(Box::new(s)), sp))
        }
    }

    /// `lhs = rhs` or `lhs <= rhs` without the trailing semicolon (for-loop
    /// init/step position).
    fn plain_assign(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.lvalue()?;
        let (kind, _) = self.assign_op()?;
        let delay = if self.eat_op("#") {
            Some(self.delay_value()?)
        } else {
            None
        };
        let rhs = self.expr()?;
        let span = lhs.span().to(rhs.span());
        Ok(Stmt::Assign {
            lhs,
            rhs,
            kind,
            delay,
            span,
        })
    }

    fn assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let s = self.plain_assign()?;
        let end = self.expect_op(";")?.span;
        if let Stmt::Assign {
            lhs,
            rhs,
            kind,
            delay,
            span,
        } = s
        {
            Ok(Stmt::Assign {
                lhs,
                rhs,
                kind,
                delay,
                span: span.to(end),
            })
        } else {
            unreachable!("plain_assign returns Stmt::Assign")
        }
    }

    fn assign_op(&mut self) -> Result<(AssignKind, Span), ParseError> {
        if self.at_op("=") {
            let sp = self.bump().span;
            Ok((AssignKind::Blocking, sp))
        } else if self.at_op("<=") {
            let sp = self.bump().span;
            Ok((AssignKind::NonBlocking, sp))
        } else {
            Err(perr(self.peek(), "`=` or `<=`"))
        }
    }

    /// Lvalues: identifiers with selects, or concatenations of lvalues.
    fn lvalue(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::lvalue_inner)
    }

    fn lvalue_inner(&mut self) -> Result<Expr, ParseError> {
        if self.at_op("{") {
            let start = self.bump().span;
            let mut parts = vec![self.lvalue()?];
            while self.eat_op(",") {
                parts.push(self.lvalue()?);
            }
            let end = self.expect_op("}")?.span;
            return Ok(Expr::Concat(parts, start.to(end)));
        }
        let id = self.expect_ident()?;
        let mut e = Expr::Ident(id);
        while self.at_op("[") {
            e = self.select_suffix(e)?;
        }
        Ok(e)
    }

    fn select_suffix(&mut self, base: Expr) -> Result<Expr, ParseError> {
        let start = self.expect_op("[")?.span;
        let first = self.expr()?;
        if self.eat_op(":") {
            let lsb = self.expr()?;
            let end = self.expect_op("]")?.span;
            Ok(Expr::PartSelect {
                span: base.span().to(end).to(start),
                base: Box::new(base),
                msb: Box::new(first),
                lsb: Box::new(lsb),
            })
        } else if self.at_op("+:") || self.at_op("-:") {
            let ascending = self.at_op("+:");
            self.bump();
            let width = self.expr()?;
            let end = self.expect_op("]")?.span;
            Ok(Expr::IndexedPart {
                span: base.span().to(end),
                base: Box::new(base),
                start: Box::new(first),
                width: Box::new(width),
                ascending,
            })
        } else {
            let end = self.expect_op("]")?.span;
            Ok(Expr::Index {
                span: base.span().to(end),
                base: Box::new(base),
                index: Box::new(first),
            })
        }
    }

    /// Delay values: a number, identifier, or parenthesised expression.
    fn delay_value(&mut self) -> Result<Expr, ParseError> {
        if self.at_op("(") {
            self.bump();
            let e = self.expr()?;
            self.expect_op(")")?;
            Ok(e)
        } else {
            self.primary()
        }
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::ternary_expr)
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.eat_op("?") {
            let then_expr = self.expr()?;
            self.expect_op(":")?;
            let else_expr = self.expr()?;
            let span = cond.span().to(else_expr.span());
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self, level: u8) -> Option<BinaryOp> {
        use BinaryOp::*;
        let op = match &self.peek().kind {
            TokenKind::Op(o) => *o,
            _ => return None,
        };
        let (lvl, bop) = match op {
            "||" => (0, LogicOr),
            "&&" => (1, LogicAnd),
            "|" => (2, BitOr),
            "^" => (3, BitXor),
            "~^" | "^~" => (3, BitXnor),
            "&" => (4, BitAnd),
            "==" => (5, Eq),
            "!=" => (5, Ne),
            "===" => (5, CaseEq),
            "!==" => (5, CaseNe),
            "<" => (6, Lt),
            "<=" => (6, Le),
            ">" => (6, Gt),
            ">=" => (6, Ge),
            "<<" => (7, Shl),
            ">>" => (7, Shr),
            "<<<" => (7, Shl),
            ">>>" => (7, AShr),
            "+" => (8, Add),
            "-" => (8, Sub),
            "*" => (9, Mul),
            "/" => (9, Div),
            "%" => (9, Mod),
            "**" => (10, Pow),
            _ => return None,
        };
        if lvl == level {
            Some(bop)
        } else {
            None
        }
    }

    fn binary_expr(&mut self, level: u8) -> Result<Expr, ParseError> {
        if level > 10 {
            return self.unary_expr();
        }
        let mut lhs = self.binary_expr(level + 1)?;
        while let Some(op) = self.binop_at(level) {
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_expr_inner)
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseError> {
        let op = match &self.peek().kind {
            TokenKind::Op("+") => Some(UnaryOp::Plus),
            TokenKind::Op("-") => Some(UnaryOp::Neg),
            TokenKind::Op("!") => Some(UnaryOp::LogicNot),
            TokenKind::Op("~") => Some(UnaryOp::BitNot),
            TokenKind::Op("&") => Some(UnaryOp::RedAnd),
            TokenKind::Op("|") => Some(UnaryOp::RedOr),
            TokenKind::Op("^") => Some(UnaryOp::RedXor),
            TokenKind::Op("~&") => Some(UnaryOp::RedNand),
            TokenKind::Op("~|") => Some(UnaryOp::RedNor),
            TokenKind::Op("~^") | TokenKind::Op("^~") => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            let start = self.bump().span;
            let expr = self.unary_expr()?;
            let span = start.to(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.at_op("[") {
            e = self.select_suffix(e)?;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        /// Owned start of a primary, copied out of the peeked token so the
        /// arms below can borrow the parser mutably. Payload arms clone
        /// exactly the string the AST will own — never the whole token.
        enum Head {
            Num(Number),
            Str(String),
            Sys(String),
            Id(String),
            Op(&'static str),
        }
        let span = self.peek().span;
        let head = match &self.peek().kind {
            TokenKind::Number(text) => match decode_number(text) {
                Some(num) => Head::Num(num),
                None => return Err(perr(self.peek(), "a valid number literal")),
            },
            TokenKind::Str(s) => Head::Str(s.to_string()),
            TokenKind::SysIdent(name) => Head::Sys(format!("${name}")),
            TokenKind::Ident(name) => Head::Id((*name).to_owned()),
            TokenKind::Op(o) => Head::Op(o),
            _ => return Err(perr(self.peek(), "an expression")),
        };
        match head {
            Head::Num(num) => {
                self.bump();
                Ok(Expr::Number(num, span))
            }
            Head::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, span))
            }
            Head::Sys(name) => {
                self.bump();
                let mut args = Vec::new();
                if self.eat_op("(") {
                    if !self.at_op(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                    }
                    self.expect_op(")")?;
                }
                Ok(Expr::Call {
                    name: Ident::spanned(name, span),
                    args,
                    span,
                })
            }
            Head::Id(name) => {
                let id = Ident::spanned(name, span);
                self.bump();
                if self.at_op("(") {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_op(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                    }
                    let end = self.expect_op(")")?.span;
                    Ok(Expr::Call {
                        span: span.to(end),
                        name: id,
                        args,
                    })
                } else {
                    Ok(Expr::Ident(id))
                }
            }
            Head::Op("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_op(")")?;
                Ok(e)
            }
            Head::Op("{") => {
                let start = self.bump().span;
                let first = self.expr()?;
                if self.at_op("{") {
                    // Replication: {count{expr, ...}}
                    self.bump();
                    let mut exprs = vec![self.expr()?];
                    while self.eat_op(",") {
                        exprs.push(self.expr()?);
                    }
                    self.expect_op("}")?;
                    let end = self.expect_op("}")?.span;
                    return Ok(Expr::Repeat {
                        count: Box::new(first),
                        exprs,
                        span: start.to(end),
                    });
                }
                let mut parts = vec![first];
                while self.eat_op(",") {
                    parts.push(self.expr()?);
                }
                let end = self.expect_op("}")?.span;
                Ok(Expr::Concat(parts, start.to(end)))
            }
            Head::Op(_) => Err(perr(self.peek(), "an expression")),
        }
    }
}

/// Decodes a number literal spelling into a [`Number`].
///
/// Handles plain decimals (`42`), based literals (`8'hFF`, `'b1x_0z`,
/// `4'd12`, `2'sb11`) and real literals (rounded to the nearest integer,
/// which suffices for `#0.5`-style delays in the supported subset).
pub fn decode_number(text: &str) -> Option<Number> {
    if let Some(tick) = text.find('\'') {
        let (width_part, rest) = text.split_at(tick);
        let width: Option<u32> = if width_part.is_empty() {
            None
        } else {
            Some(width_part.replace('_', "").parse().ok()?)
        };
        let mut rest = &rest[1..];
        let mut signed = false;
        if rest.starts_with(['s', 'S']) {
            signed = true;
            rest = &rest[1..];
        }
        let base = rest.chars().next()?;
        let digits: String = rest[base.len_utf8()..].replace('_', "");
        let bits_per = match base {
            'b' | 'B' => 1,
            'o' | 'O' => 3,
            'h' | 'H' => 4,
            'd' | 'D' => 0,
            _ => return None,
        };
        let mut value = if bits_per == 0 {
            if digits.chars().all(|c| c == 'x' || c == 'X') {
                LogicVec::xs(width.unwrap_or(32) as usize)
            } else if digits.chars().all(|c| c == 'z' || c == 'Z' || c == '?') {
                LogicVec::zs(width.unwrap_or(32) as usize)
            } else {
                let v: u64 = digits.parse().ok()?;
                LogicVec::from_u64(v, 64)
            }
        } else {
            let mut bits = Vec::new();
            for c in digits.chars().rev() {
                match c {
                    'x' | 'X' => bits.extend(std::iter::repeat_n(LogicBit::X, bits_per)),
                    'z' | 'Z' | '?' => bits.extend(std::iter::repeat_n(LogicBit::Z, bits_per)),
                    _ => {
                        let d = c.to_digit(1 << bits_per)? as u64;
                        for i in 0..bits_per {
                            bits.push(LogicBit::from(d >> i & 1 == 1));
                        }
                    }
                }
            }
            LogicVec::from_bits(bits)
        };
        let target = width.unwrap_or(32).max(1) as usize;
        // Based literals extend with the top bit when it is x/z, else zero.
        if value.width() < target {
            let fill = match value.bits().last() {
                Some(LogicBit::X) => LogicBit::X,
                Some(LogicBit::Z) => LogicBit::Z,
                _ => LogicBit::Zero,
            };
            let mut bits = value.bits().to_vec();
            bits.resize(target, fill);
            value = LogicVec::from_bits(bits);
        } else if value.width() > target {
            value = value.slice(0, target);
        }
        Some(Number {
            width,
            signed,
            value,
            spelling: text.to_owned(),
        })
    } else if text.contains('.') {
        let v: f64 = text.replace('_', "").parse().ok()?;
        Some(Number {
            width: None,
            signed: false,
            value: LogicVec::from_u64(v.round() as u64, 64),
            spelling: text.to_owned(),
        })
    } else {
        let v: u64 = text.replace('_', "").parse().ok()?;
        Some(Number {
            width: None,
            // Unbased, unsized decimal literals are signed (IEEE 1364
            // §4.8.1), which makes `i >= 0` on an integer a signed compare.
            signed: true,
            value: LogicVec::from_u64(v, if v > u32::MAX as u64 { 64 } else { 32 }),
            spelling: text.to_owned(),
        })
    }
}
