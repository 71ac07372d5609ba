//! The frontend as it was before the byte-level lexer and the
//! precedence-climbing parser: reference implementations that exist only
//! for the differential tests.

#![allow(dead_code)]

pub mod lexer;
pub mod parser;
