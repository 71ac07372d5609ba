//! # dda-lint
//!
//! Yosys-style syntax and semantic checking for the `chipdda` framework.
//!
//! The paper pairs each rule-broken Verilog file with the diagnostic text an
//! EDA tool (yosys) emits for it. This crate is that tool substitute: it
//! parses with [`dda_verilog`] and elaborates far enough to report the same
//! classes of problems with the same flavour of message, e.g.
//!
//! ```text
//! /111_3-bit LFSR.v:7: ERROR: syntax error, unexpected ']'
//! ```
//!
//! ## Example
//!
//! ```
//! let report = dda_lint::check_source(
//!     "m.v",
//!     "module m(input a, output y); assign y = a & b; endmodule",
//! );
//! assert!(!report.is_clean());
//! assert!(report.render().contains("Identifier `b'"));
//! ```

#![warn(missing_docs)]

mod checker;
mod diagnostic;
mod edit;

pub use checker::{check_file, check_source};
pub use diagnostic::{DiagKind, Diagnostic, LintReport, Severity};
pub use edit::EditBase;
