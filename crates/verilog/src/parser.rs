//! Recursive-descent parser for the supported Verilog subset.
//!
//! The parser accepts both ANSI (`module m(input a, output reg [1:0] b);`)
//! and non-ANSI (`module m(a, b); input a; ...`) headers, parameterised
//! modules, procedural code with event/delay controls, instantiations and
//! testbench system tasks.
//!
//! Errors carry the offending token and span; the linter renders them in
//! yosys style (``ERROR: syntax error, unexpected '...'``).
//!
//! The parser reads only the token at its cursor. That makes each head of
//! a module's item loop a [`Checkpoint`] that a parse of an edited token
//! stream can [`resume`] at, when the edit left everything up to it alone.

use crate::ast::*;
use crate::lexer::{lex, LexError};
use crate::logic::{LogicBit, LogicVec};
use crate::token::{Keyword, Span, Token, TokenKind};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the failure happened.
    pub span: Span,
    /// Source rendering of the unexpected token.
    pub found: String,
    /// What the parser was expecting (free text).
    pub expected: String,
}

impl ParseError {
    fn new(tok: &Token<'_>, expected: impl Into<String>) -> Self {
        ParseError {
            span: tok.span,
            found: tok.kind.render(),
            expected: expected.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syntax error at {}: unexpected `{}`, expecting {}",
            self.span, self.found, self.expected
        )
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            found: e.ch.to_string(),
            expected: "a Verilog token".into(),
        }
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
    parse_tokens(&lex(src)?)
}

/// Parses a lexed file; [`parse`] is `lex` followed by this.
///
/// # Errors
///
/// Returns the first [`ParseError`], as [`parse`] does.
pub fn parse_tokens(tokens: &[Token<'_>]) -> Result<SourceFile, ParseError> {
    Parser::new(tokens).source_file()
}

/// A head of a module's item loop, where the parser stood at token
/// [`token`](Checkpoint::token) with nothing left to do but the rest of that
/// module's items, its `endmodule`, and the source-file loop after it.
///
/// The parser is LL(1): it reads only the token at its cursor. So the parse
/// up to a checkpoint read no token past the checkpoint's own, and any
/// token stream that agrees with the recorded one up to and including that
/// token reaches the same checkpoint in the same state. [`resume`] starts
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    token: usize,
}

impl Checkpoint {
    /// Index of the token the parser stood at.
    pub fn token(self) -> usize {
        self.token
    }
}

/// Every [`Checkpoint`] a parse of `tokens` passes, up to its first error,
/// in token order.
pub fn checkpoints(tokens: &[Token<'_>]) -> Vec<Checkpoint> {
    let mut p = Parser::new(tokens);
    p.checkpoints = Some(Vec::new());
    let _ = p.source_file();
    p.checkpoints.unwrap_or_default()
}

/// Parses `tokens` from `at` to the end, as [`parse_tokens`] would from
/// there: the rest of the module's item loop, its `endmodule`, then the
/// source-file loop. `at` must come from [`checkpoints`] over a
/// stream that agrees with `tokens` up to and including token
/// `at.token()`; then the outcome is [`parse_tokens`]'s error, or `Ok`
/// exactly when `parse_tokens` succeeds. The AST of the resumed part is
/// not returned.
///
/// # Errors
///
/// Returns the first [`ParseError`] after the checkpoint.
pub fn resume(tokens: &[Token<'_>], at: Checkpoint) -> Result<(), ParseError> {
    let mut p = Parser::new(tokens);
    p.pos = at.token;
    p.module_body()?;
    p.source_items(&mut SourceFile::default())
}

/// Parses a single expression (used by tests and the mutation engine).
///
/// # Errors
///
/// Returns a [`ParseError`] when `src` is not a well-formed expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Hard ceiling on combined expression/statement nesting depth.
///
/// Only `expr` and `unary_expr` charge a unit each (statements charge two),
/// so a bracketed expression level costs two units and this admits ~32
/// levels of parentheses/concatenation — far beyond any real RTL — while
/// keeping the recursive descent inside a 2 MiB test-thread stack even in
/// debug builds. Binary operators are parsed by precedence climbing, which
/// charges nothing and recurses only where binding power rises (at most
/// eleven frames per operand). Untrusted input past the limit gets a
/// [`ParseError`] instead of a stack overflow (which would abort the
/// process and cannot be isolated with `catch_unwind`).
const MAX_NESTING: usize = 64;

struct Parser<'t, 'src> {
    tokens: &'t [Token<'src>],
    pos: usize,
    eof: Token<'static>,
    depth: usize,
    /// Module-item checkpoints passed so far, when recording.
    checkpoints: Option<Vec<Checkpoint>>,
    /// The highest token index read. Every read goes through
    /// [`Parser::peek`], which keeps this up to date, so a checkpoint can
    /// assert that the parse before it read no token past its own.
    #[cfg(debug_assertions)]
    read_max: std::cell::Cell<usize>,
}

impl<'t, 'src> Parser<'t, 'src> {
    fn new(tokens: &'t [Token<'src>]) -> Self {
        let end = tokens.last().map(|t| t.span).unwrap_or_default();
        Parser {
            tokens,
            pos: 0,
            eof: Token::new(TokenKind::Eof, end),
            depth: 0,
            checkpoints: None,
            #[cfg(debug_assertions)]
            read_max: std::cell::Cell::new(0),
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
            return Err(ParseError::new(
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

    /// The token at the cursor: the only token the parser ever reads.
    fn peek(&self) -> &Token<'src> {
        #[cfg(debug_assertions)]
        self.read_max.set(self.read_max.get().max(self.pos));
        self.tokens.get(self.pos).unwrap_or(&self.eof)
    }

    fn bump(&mut self) -> &Token<'src> {
        let i = self.pos;
        self.peek();
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
            Err(ParseError::new(self.peek(), format!("`{op}`")))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<&Token<'src>, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            Err(ParseError::new(self.peek(), format!("`{}`", kw.as_str())))
        }
    }

    /// Consumes the token at the cursor and returns its text, which the
    /// AST copies as it needs.
    fn bump_text(&mut self) -> (&'t str, Span) {
        self.peek();
        let tokens: &'t [Token<'src>] = self.tokens;
        let Some(tok) = tokens.get(self.pos) else {
            return ("", self.eof.span);
        };
        self.pos += 1;
        let text: &'t str = match &tok.kind {
            TokenKind::Ident(s)
            | TokenKind::SysIdent(s)
            | TokenKind::Number(s)
            | TokenKind::Directive(s) => s,
            TokenKind::Str(s) => s,
            _ => "",
        };
        (text, tok.span)
    }

    fn expect_ident(&mut self) -> Result<Ident, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let (name, span) = self.bump_text();
                Ok(Ident::spanned(name, span))
            }
            _ => Err(ParseError::new(self.peek(), "an identifier")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek().kind, TokenKind::Eof) && self.pos >= self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(self.peek(), "end of input"))
        }
    }

    // ---------------------------------------------------------------- file

    fn source_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut sf = SourceFile::default();
        self.source_items(&mut sf)?;
        Ok(sf)
    }

    /// The source-file loop: directives and modules up to the end of input.
    fn source_items(&mut self, sf: &mut SourceFile) -> Result<(), ParseError> {
        loop {
            match &self.peek().kind {
                TokenKind::Directive(_) => sf.directives.push(self.bump_text().0.to_owned()),
                TokenKind::Keyword(Keyword::Module) => sf.modules.push(self.module()?),
                TokenKind::Eof => return Ok(()),
                _ => return Err(ParseError::new(self.peek(), "`module`")),
            }
        }
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
        let (items, end) = self.module_body()?;
        Ok(Module {
            name,
            header_params,
            ports,
            items,
            span: start.to(end),
        })
    }

    /// The module's item loop and its `endmodule`: the items and the span
    /// of `endmodule`. Each head of the loop is a [`Checkpoint`].
    fn module_body(&mut self) -> Result<(Vec<Item>, Span), ParseError> {
        let mut items = Vec::new();
        loop {
            #[cfg(debug_assertions)]
            debug_assert!(
                self.read_max.get() <= self.pos,
                "the parse before a checkpoint read past it"
            );
            if let Some(checkpoints) = &mut self.checkpoints {
                checkpoints.push(Checkpoint { token: self.pos });
            }
            match self.peek().kind {
                TokenKind::Keyword(Keyword::Endmodule) => break,
                TokenKind::Eof => return Err(ParseError::new(self.peek(), "`endmodule`")),
                TokenKind::Directive(_) => {
                    self.bump();
                }
                _ => self.item(&mut items)?,
            }
        }
        let end = self.bump().span;
        Ok((items, end))
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
            _ => return Err(ParseError::new(self.peek(), "a module item")),
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
                        return Err(ParseError::new(self.peek(), "`endtask`"));
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
            _ => Err(ParseError::new(self.peek(), "a module item")),
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
        /// the arms below can borrow the parser mutably.
        enum Head {
            Kw(Keyword),
            Op(&'static str),
            Sys,
            AssignStart,
        }
        let head = match &self.peek().kind {
            TokenKind::Keyword(k) => Head::Kw(*k),
            TokenKind::Op(o) => Head::Op(o),
            TokenKind::SysIdent(_) => Head::Sys,
            TokenKind::Ident(_) => Head::AssignStart,
            _ => return Err(ParseError::new(self.peek(), "a statement")),
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
                        return Err(ParseError::new(self.peek(), "`end`"));
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
                        return Err(ParseError::new(self.peek(), "`endcase`"));
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
            Head::Sys => {
                let (name, start) = self.bump_text();
                let name = name.to_owned();
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
            _ => Err(ParseError::new(self.peek(), "a statement")),
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
            Err(ParseError::new(self.peek(), "`=` or `<=`"))
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

    /// Precedence climbing: parses operands joined by binary operators that
    /// bind at least as tightly as `min_prec`. Recursing at `prec + 1` for
    /// the right operand makes every level left-associative, building the
    /// same trees as one grammar rule per level would, while looking each
    /// operator up once instead of once per level.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        while let Some((prec, op)) = binop(&self.peek().kind).filter(|&(p, _)| p >= min_prec) {
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
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
        /// What the next token starts, copied out of the peeked token so the
        /// arms below can borrow the parser mutably. Payload arms copy the
        /// token's text into the AST with [`Parser::bump_text`].
        enum Head {
            Num(Option<u32>, bool, LogicVec),
            Str,
            Sys,
            Id,
            Op(&'static str),
        }
        let span = self.peek().span;
        let head = match &self.peek().kind {
            TokenKind::Number(text) => match decode_value(text) {
                Some((width, signed, value)) => Head::Num(width, signed, value),
                None => return Err(ParseError::new(self.peek(), "a valid number literal")),
            },
            TokenKind::Str(_) => Head::Str,
            TokenKind::SysIdent(_) => Head::Sys,
            TokenKind::Ident(_) => Head::Id,
            TokenKind::Op(o) => Head::Op(o),
            _ => return Err(ParseError::new(self.peek(), "an expression")),
        };
        match head {
            Head::Num(width, signed, value) => {
                let spelling = self.bump_text().0.to_owned();
                let num = Number {
                    width,
                    signed,
                    value,
                    spelling,
                };
                Ok(Expr::Number(num, span))
            }
            Head::Str => Ok(Expr::Str(self.bump_text().0.to_owned(), span)),
            Head::Sys => {
                let name = format!("${}", self.bump_text().0);
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
            Head::Id => {
                let id = Ident::spanned(self.bump_text().0, span);
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
            Head::Op(_) => Err(ParseError::new(self.peek(), "an expression")),
        }
    }
}

/// Binding power and operator of a binary-operator token, from `||` (0,
/// loosest) to `**` (10, tightest).
fn binop(kind: &TokenKind) -> Option<(u8, BinaryOp)> {
    use BinaryOp::*;
    let TokenKind::Op(op) = kind else {
        return None;
    };
    Some(match op.as_bytes() {
        [b'|', b'|'] => (0, LogicOr),
        [b'&', b'&'] => (1, LogicAnd),
        [b'|'] => (2, BitOr),
        [b'^'] => (3, BitXor),
        [b'~', b'^'] | [b'^', b'~'] => (3, BitXnor),
        [b'&'] => (4, BitAnd),
        [b'=', b'='] => (5, Eq),
        [b'!', b'='] => (5, Ne),
        [b'=', b'=', b'='] => (5, CaseEq),
        [b'!', b'=', b'='] => (5, CaseNe),
        [b'<'] => (6, Lt),
        [b'<', b'='] => (6, Le),
        [b'>'] => (6, Gt),
        [b'>', b'='] => (6, Ge),
        [b'<', b'<'] | [b'<', b'<', b'<'] => (7, Shl),
        [b'>', b'>'] => (7, Shr),
        [b'>', b'>', b'>'] => (7, AShr),
        [b'+'] => (8, Add),
        [b'-'] => (8, Sub),
        [b'*'] => (9, Mul),
        [b'/'] => (9, Div),
        [b'%'] => (9, Mod),
        [b'*', b'*'] => (10, Pow),
        _ => return None,
    })
}

/// Decodes a number literal spelling into a [`Number`].
///
/// Handles plain decimals (`42`), based literals (`8'hFF`, `'b1x_0z`,
/// `4'd12`, `2'sb11`) and real literals (rounded to the nearest integer,
/// which suffices for `#0.5`-style delays in the supported subset).
pub fn decode_number(text: &str) -> Option<Number> {
    let (width, signed, value) = decode_value(text)?;
    Some(Number {
        width,
        signed,
        value,
        spelling: text.to_owned(),
    })
}

/// `s` with digit-group underscores removed, borrowed when it has none.
fn strip_underscores(s: &str) -> Cow<'_, str> {
    if s.contains('_') {
        Cow::Owned(s.replace('_', ""))
    } else {
        Cow::Borrowed(s)
    }
}

/// [`decode_number`] without the spelling: `(width, signed, value)`.
fn decode_value(text: &str) -> Option<(Option<u32>, bool, LogicVec)> {
    if let Some(tick) = text.find('\'') {
        let (width_part, rest) = text.split_at(tick);
        let width: Option<u32> = if width_part.is_empty() {
            None
        } else {
            Some(strip_underscores(width_part).parse().ok()?)
        };
        let mut rest = &rest[1..];
        let mut signed = false;
        if rest.starts_with(['s', 'S']) {
            signed = true;
            rest = &rest[1..];
        }
        let base = rest.chars().next()?;
        let digits = strip_underscores(&rest[base.len_utf8()..]);
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
        Some((width, signed, value))
    } else if text.contains('.') {
        let v: f64 = strip_underscores(text).parse().ok()?;
        Some((None, false, LogicVec::from_u64(v.round() as u64, 64)))
    } else {
        let v: u64 = strip_underscores(text).parse().ok()?;
        // Unbased, unsized decimal literals are signed (IEEE 1364
        // §4.8.1), which makes `i >= 0` on an integer a signed compare.
        let width = if v > u32::MAX as u64 { 64 } else { 32 };
        Some((None, true, LogicVec::from_u64(v, width)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> SourceFile {
        match parse(src) {
            Ok(sf) => sf,
            Err(e) => panic!("parse failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parses_ansi_module() {
        let sf = parse_ok(
            "module counter(input clk, input rst, output reg [1:0] count);\n\
             always @(posedge clk) if (rst) count <= 2'd0; else count <= count + 2'd1;\n\
             endmodule",
        );
        let m = &sf.modules[0];
        assert_eq!(m.name.name, "counter");
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[2].dir, Some(PortDir::Output));
        assert!(m.ports[2].is_reg);
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn parses_non_ansi_module() {
        let sf = parse_ok(
            "module counter(clk, rst, en, count);\n\
             input clk, rst, en;\n\
             output reg [1:0] count;\n\
             always @(posedge clk)\n\
               if (rst) count <= 2'd0;\n\
               else if (en) count <= count + 2'd1;\n\
             endmodule",
        );
        let m = &sf.modules[0];
        assert_eq!(m.ports.len(), 4);
        assert!(m.ports.iter().all(|p| p.dir.is_none()));
        assert!(matches!(m.items[0], Item::Port(_)));
    }

    #[test]
    fn ansi_ports_inherit_direction() {
        let sf = parse_ok("module m(input a, b, output y); endmodule");
        let m = &sf.modules[0];
        assert_eq!(m.ports[1].dir, Some(PortDir::Input));
        assert_eq!(m.ports[2].dir, Some(PortDir::Output));
    }

    #[test]
    fn parses_parameters() {
        let sf = parse_ok(
            "module m #(parameter WIDTH = 8, DEPTH = 4)(input [WIDTH-1:0] d);\n\
             localparam HALF = WIDTH / 2;\n\
             endmodule",
        );
        let m = &sf.modules[0];
        assert_eq!(m.header_params.len(), 2);
        assert_eq!(m.header_params[1].name.name, "DEPTH");
        assert!(matches!(&m.items[0], Item::Param(p) if p.local));
    }

    #[test]
    fn parses_instances() {
        let sf = parse_ok(
            "module top(input a, output y);\n\
             wire w;\n\
             inv #(.D(2)) u0 (.in(a), .out(w));\n\
             inv u1 (w, y);\n\
             endmodule",
        );
        let m = &sf.modules[0];
        let insts: Vec<_> = m
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Instance(inst) => Some(inst),
                _ => None,
            })
            .collect();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].params.len(), 1);
        assert_eq!(insts[0].ports[0].name.as_ref().unwrap().name, "in");
        assert!(insts[1].ports[0].name.is_none());
    }

    #[test]
    fn parses_testbench_constructs() {
        let sf = parse_ok(
            "`timescale 1ns/1ps\n\
             module tb;\n\
             reg clk = 0;\n\
             always #5 clk = ~clk;\n\
             initial begin\n\
               #10;\n\
               @(posedge clk);\n\
               $display(\"t=%0d\", $time);\n\
               repeat (3) #1 clk = clk;\n\
               $finish;\n\
             end\n\
             endmodule",
        );
        assert_eq!(sf.directives.len(), 1);
        let m = &sf.modules[0];
        assert_eq!(m.items.len(), 3);
    }

    #[test]
    fn parses_case_statement() {
        let sf = parse_ok(
            "module m(input [1:0] s, output reg y);\n\
             always @(*) case (s)\n\
               2'b00, 2'b11: y = 1'b0;\n\
               2'b01: y = 1'b1;\n\
               default: y = 1'bx;\n\
             endcase\n\
             endmodule",
        );
        let m = &sf.modules[0];
        let Item::Always(a) = &m.items[0] else {
            panic!("expected always")
        };
        let Stmt::Case { arms, .. } = &a.body else {
            panic!("expected case")
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].labels.len(), 2);
        assert!(arms[2].labels.is_empty());
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let e = parse_expr("a + b * c").unwrap();
        let Expr::Binary { op, rhs, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Add);
        assert!(matches!(
            *rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_ternary_and_concat() {
        let e = parse_expr("s ? {a, b} : {2{c}}").unwrap();
        let Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(*then_expr, Expr::Concat(..)));
        assert!(matches!(*else_expr, Expr::Repeat { .. }));
    }

    #[test]
    fn parses_selects() {
        let e = parse_expr("x[3:0]").unwrap();
        assert!(matches!(e, Expr::PartSelect { .. }));
        let e = parse_expr("x[i]").unwrap();
        assert!(matches!(e, Expr::Index { .. }));
        let e = parse_expr("x[i +: 4]").unwrap();
        assert!(matches!(
            e,
            Expr::IndexedPart {
                ascending: true,
                ..
            }
        ));
    }

    #[test]
    fn le_vs_nonblocking() {
        // In expression position `<=` is comparison...
        let e = parse_expr("a <= b").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
        // ...in statement position it is a nonblocking assignment.
        let sf = parse_ok("module m(input a, output reg y); always @(*) y <= a; endmodule");
        let Item::Always(al) = &sf.modules[0].items[0] else {
            panic!()
        };
        assert!(matches!(
            al.body,
            Stmt::Assign {
                kind: AssignKind::NonBlocking,
                ..
            }
        ));
    }

    #[test]
    fn syntax_error_reports_token_and_location() {
        let err = parse("module m(input a;\nendmodule").unwrap_err();
        assert_eq!(err.found, ";");
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn error_on_missing_endmodule() {
        let err = parse("module m(input a);").unwrap_err();
        assert_eq!(err.found, "<eof>");
    }

    #[test]
    fn decode_based_literals() {
        let n = decode_number("8'hFF").unwrap();
        assert_eq!(n.width, Some(8));
        assert_eq!(n.value.to_u64(), Some(255));
        let n = decode_number("4'b10x1").unwrap();
        assert!(n.value.has_unknown());
        let n = decode_number("2'sb11").unwrap();
        assert!(n.signed);
        assert_eq!(n.value.to_i64(), Some(-1));
        let n = decode_number("'hx").unwrap();
        assert_eq!(n.value.width(), 32);
        assert!(n.value.has_unknown());
        let n = decode_number("12").unwrap();
        assert_eq!(n.width, None);
        assert_eq!(n.value.to_u64(), Some(12));
    }

    #[test]
    fn decode_number_widths() {
        // Narrower than digits: truncate. Wider: zero-extend.
        let n = decode_number("4'hFF").unwrap();
        assert_eq!(n.value.width(), 4);
        assert_eq!(n.value.to_u64(), Some(0xF));
        let n = decode_number("16'h1").unwrap();
        assert_eq!(n.value.width(), 16);
        assert_eq!(n.value.to_u64(), Some(1));
    }

    #[test]
    fn parses_for_loop() {
        let sf = parse_ok(
            "module m;\n\
             integer i;\n\
             reg [7:0] mem [0:15];\n\
             initial for (i = 0; i < 16; i = i + 1) mem[i] = i;\n\
             endmodule",
        );
        let m = &sf.modules[0];
        assert!(matches!(&m.items[2], Item::Initial(_)));
    }

    #[test]
    fn parses_functions() {
        let sf = parse_ok(
            "module m(input [7:0] a, output [7:0] y);\n\
             function [7:0] double;\n\
             input [7:0] v;\n\
             begin double = v << 1; end\n\
             endfunction\n\
             assign y = double(a);\n\
             endmodule",
        );
        let m = &sf.modules[0];
        let Item::Function(f) = &m.items[0] else {
            panic!("expected function")
        };
        assert_eq!(f.args.len(), 1);
        assert_eq!(f.name.name, "double");
    }

    #[test]
    fn parses_gate_primitives() {
        let sf = parse_ok("module m(input a, b, output y); and g(y, a, b); endmodule");
        let Item::Instance(inst) = &sf.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(inst.module.name, "and");
        assert_eq!(inst.ports.len(), 3);
    }

    #[test]
    fn parses_wait_and_forever() {
        parse_ok(
            "module tb; reg a; initial begin wait (a) a = 0; end\n\
             initial forever #5 a = ~a; endmodule",
        );
    }

    #[test]
    fn parses_multi_module_file() {
        let sf = parse_ok("module a; endmodule\nmodule b; endmodule");
        assert_eq!(sf.modules.len(), 2);
        assert!(sf.module("b").is_some());
        assert!(sf.module("c").is_none());
    }

    #[test]
    fn deep_paren_nesting_errors_instead_of_overflowing() {
        // Without the depth guard this recursion overflows the stack and
        // aborts the process (stack overflow is not unwindable).
        for depth in [5_000usize, 50_000] {
            let src = format!(
                "module m(input a, output y); assign y = {}a{}; endmodule",
                "(".repeat(depth),
                ")".repeat(depth)
            );
            let err = parse(&src).unwrap_err();
            assert!(err.expected.contains("depth limit"), "{err}");
        }
    }

    #[test]
    fn deep_concat_and_unary_nesting_error() {
        let concat = format!(
            "module m(output y); assign y = {}1'b0{}; endmodule",
            "{".repeat(4_000),
            "}".repeat(4_000)
        );
        assert!(parse(&concat).is_err());
        let unary = format!(
            "module m(input a, output y); assign y = {}a; endmodule",
            "~".repeat(4_000)
        );
        assert!(parse(&unary).is_err());
    }

    #[test]
    fn deep_statement_nesting_errors() {
        let src = format!(
            "module m; initial {}$finish; endmodule",
            "begin ".repeat(4_000)
        );
        assert!(parse(&src).is_err());
    }

    #[test]
    fn realistic_nesting_still_parses() {
        // Depth far beyond hand-written RTL but well under the limit.
        let src = format!(
            "module m(input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(24),
            ")".repeat(24)
        );
        parse_ok(&src);
        let stmts = format!(
            "module m; initial {}$finish; {}endmodule",
            "begin ".repeat(30),
            "end ".repeat(30)
        );
        parse_ok(&stmts);
    }
}
