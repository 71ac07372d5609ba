//! # dda-verilog
//!
//! Verilog front-end for the `chipdda` design-data augmentation framework:
//! a hand-written [lexer], a recursive-descent [parser] for a broad
//! synthesizable-plus-testbench subset, a typed [AST](ast), a deterministic
//! [pretty-printer](printer), and [visitors](visit).
//!
//! This crate plays the role ANTLR4 plays in the paper *"Data is all you
//! need"* (DAC 2024): it turns Verilog source into a syntax tree that the
//! program-analysis rules, the mutation engine, the linter, and the
//! simulator all share.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), dda_verilog::parser::ParseError> {
//! let src = "module counter(input clk, rst, output reg [1:0] count);\n\
//!            always @(posedge clk) if (rst) count <= 2'd0; else count <= count + 2'd1;\n\
//!            endmodule";
//! let file = dda_verilog::parse(src)?;
//! let module = &file.modules[0];
//! assert_eq!(module.name.name, "counter");
//! // Round-trip through the printer:
//! let printed = dda_verilog::printer::print_source(&file);
//! assert!(printed.starts_with("module counter"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod consteval;
pub mod lexer;
pub mod logic;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::{Expr, Item, Module, SourceFile, Stmt};
pub use lexer::lex;
pub use logic::{LogicBit, LogicVec, PackedVec};
pub use parser::{parse, parse_expr, ParseError};
pub use token::{Span, Token, TokenKind};
