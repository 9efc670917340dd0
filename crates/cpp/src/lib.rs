//! A C preprocessor and compiler front end for JMake.
//!
//! JMake (paper §III.A) uses the compiler in exactly two ways:
//!
//! 1. **`make file.i`** — run only the preprocessor, producing the token
//!    stream the compiler proper would see. JMake's mutation glyph
//!    (an invalid character followed by a string literal) survives
//!    preprocessing verbatim, both in plain code and through macro
//!    expansion at macro *use* sites, but disappears from conditionally
//!    excluded regions and from unused macro definitions.
//! 2. **`make file.o`** — run the full front end on the *unmutated* file to
//!    verify that the chosen configuration really compiles it.
//!
//! This crate reproduces both from scratch:
//!
//! - [`lex`] — a C token stream (identifiers, pp-numbers,
//!   strings, char constants, punctuators, and `Other` for characters that
//!   are not valid C — the mutation glyph among them);
//! - [`Preprocessor`] — translation phases 2–4: line splicing, comment
//!   removal, directive handling (`#define`/`#undef`/`#include`/
//!   `#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`/`#endif`/`#error`), object-
//!   and function-like macro expansion with `#`, `##`, `__VA_ARGS__`, and
//!   full `#if` expression evaluation;
//! - [`validate`] — the front-end stand-in: re-lexes the
//!   preprocessed output and rejects invalid characters, unterminated
//!   literals, and unbalanced bracketing, exactly the class of verification
//!   that makes a mutated file fail to produce a `.o`;
//! - [`analyze()`] — the lexical source map the mutation
//!   engine needs (paper §III.B): comment spans, macro-definition line
//!   ranges, conditional-compilation directive lines, and the file's
//!   [`cond::BranchTree`], the `#if`/`#elif`/`#else` nesting that the
//!   Table IV classifier, the precheck and the reachability analyzer read.
//!
//! # Example
//!
//! ```
//! use jmake_cpp::{Preprocessor, MapResolver};
//!
//! let mut pp = Preprocessor::new(MapResolver::default());
//! pp.define_object("CONFIG_FOO", "1");
//! let out = pp.preprocess("t.c", "#ifdef CONFIG_FOO\nint x;\n#endif\n");
//! assert!(out.text.contains("int x;"));
//! assert!(out.errors.is_empty());
//! ```

pub mod analyze;
pub mod cond;
pub mod error;
pub mod expand;
pub mod expr;
pub mod lexer;
pub mod lines;
pub mod macros;
pub mod memo;
pub mod preprocess;
pub mod syntax;
pub mod token;

pub use analyze::{analyze, LineInfo, MacroDefSpan, SourceMap};
pub use error::{CppError, SyntaxError};
pub use lexer::lex;
pub use macros::{MacroDef, MacroTable};
pub use memo::{IncludeEffect, IncludeKey, IncludeMemo, MacroEvent};
pub use preprocess::{
    resolve_include, IncludeResolver, MapResolver, PreprocessOutput, Preprocessor,
};
pub use syntax::validate;
pub use token::{Token, TokenKind};

#[cfg(test)]
mod proptests;
