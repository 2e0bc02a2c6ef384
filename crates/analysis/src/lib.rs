//! `simrank_analysis` — dependency-free determinism & concurrency
//! static analysis for this workspace, run as the `simcheck` binary.
//!
//! Every PR since the seed has staked correctness on one contract:
//! answers replay **bit-identically** against their epoch's rebuild.
//! The proptests and replay harnesses defend that contract dynamically;
//! this crate defends it statically, at CI time, against the bug
//! classes that dynamic tests are worst at catching — a `HashMap`
//! iterated in an answer-affecting path (wrong only across *process
//! runs*), a weakened atomic ordering on the `version_hint` fast path
//! (wrong only under the right interleaving), an inverted lock
//! acquisition (wrong only under contention), a new `unwrap` in library
//! code (wrong only on the input nobody tried).
//!
//! The pipeline is three small stages, in the house style of
//! `vendor/` — no dependencies, clarity over speed:
//!
//! 1. [`lexer`] — a minimal Rust lexer with line-accurate spans, whose
//!    one job is making sure comments and string literals can never
//!    masquerade as code;
//! 2. [`source`] + [`rules`] — per-file classification (library?
//!    answer-affecting? test span?) and the four token-pattern rules,
//!    with inline suppressions (`// simcheck: allow(rule-id) — reason`);
//! 3. [`scan`] + [`baseline`] — deterministic workspace traversal and
//!    the ratchet baseline that freezes existing debt while refusing
//!    new debt.
//!
//! See `docs/ANALYSIS.md` for the rule catalog and workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod source;
