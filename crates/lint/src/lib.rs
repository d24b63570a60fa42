//! # mirage-lint
//!
//! A workspace invariant checker that makes the Mirage hot-path
//! contracts machine-enforced.
//!
//! Mirage's accuracy story rests on **exact integer arithmetic**: BFP
//! mantissae and RNS residues flow through packed kernels with no stray
//! floating point, no silent re-quantization, and bit-identity between
//! the serial, parallel, prepared, and compiled paths. Those contracts
//! used to live in doc comments and proptests; this crate turns them
//! into a static gate that fails CI before a refactor can break them.
//!
//! The linter is std-only (no new dependencies) and built on a real
//! Rust lexer — nested block comments, raw strings, char-vs-lifetime
//! disambiguation, and doc comments are all handled, so a banned token
//! inside a string or comment never fires and a directive inside a
//! string is never honoured.
//!
//! ## Rules
//!
//! 1. **`float-in-kernel`** — code between
//!    `// mirage-lint: region(int_kernel)` and
//!    `// mirage-lint: end_region(int_kernel)` markers must contain no
//!    `f32`/`f64` tokens, float literals, or float-returning std calls.
//! 2. **`alloc-in-no-alloc`** — a function marked
//!    `// mirage-lint: no_alloc` must not call
//!    `Vec::new`/`with_capacity`, `Box::new`, `String::from`,
//!    `.push`/`.collect`/`.to_vec`/`.to_owned`/`.clone`, `format!`, or
//!    `vec!`.
//! 3. **`panic-in-serving`** — `.unwrap()`, `.expect()`, `panic!`, and
//!    the `assert!` family are banned in non-test code of the serving
//!    modules ([`rules::SERVING_MODULES`]); `debug_assert!` stays legal.
//! 4. **`crate-hygiene`** — every crate root carries the workspace's
//!    standard attribute block ([`rules::REQUIRED_CRATE_ATTRS`]);
//!    `#![deny(unsafe_code)]` is accepted in place of `forbid` so the
//!    SIMD kernel crates can open confined `#![allow(unsafe_code)]`
//!    scopes.
//! 5. **`unsafe-confined`** — `unsafe` appears only in the allowlisted
//!    SIMD kernel modules ([`rules::UNSAFE_KERNEL_MODULES`]), and every
//!    unsafe line there carries a `SAFETY:` justification comment.
//!
//! Findings can be waived line by line with
//! `// mirage-lint: allow(<key>) -- <reason>`; the reason is mandatory
//! and recorded in the report.
//!
//! ```
//! use mirage_lint::{classify, lint_source};
//!
//! let src = "// mirage-lint: region(int_kernel)\nfn dot() -> f64 { 0.0 }\n\
//!            // mirage-lint: end_region(int_kernel)\n";
//! let findings = lint_source("crates/x/src/kernel.rs", src, classify("crates/x/src/kernel.rs"));
//! assert_eq!(findings.len(), 2); // the `f64` token and the `0.0` literal
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

pub mod directives;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

pub use report::{Finding, Report, Rule};
pub use rules::{classify, lint_source, FileClass};

use std::io;
use std::path::Path;

/// Lints every `.rs` file of the workspace at `root` (skipping
/// `target/`, `vendor/`, and fixture trees) and returns the full
/// report.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::rust_files(root)?;
    let mut report = Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        findings: Vec::new(),
    };
    for path in &files {
        let rel = walk::relative(root, path);
        let source = std::fs::read_to_string(path)?;
        report
            .findings
            .extend(lint_source(&rel, &source, classify(&rel)));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
