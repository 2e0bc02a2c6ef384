//! `lock-discipline` — nested-lock ordering and channel ops under locks.
//!
//! The workspace has three lock families, and deadlock freedom rests on
//! always acquiring them in one declared order:
//!
//! ```text
//! cache shard Mutex  →  store RwLock  →  frontend Mutex
//!   (rank 1)             (rank 2)          (rank 3)
//! ```
//!
//! The rule tracks guard lifetimes through each file with a
//! statement/brace heuristic and reports two hazards:
//!
//! * **order inversion** — acquiring a lock whose rank is ≤ the rank of
//!   any guard still live (this includes two same-rank locks, e.g. two
//!   cache shards: without a tie-break protocol that can deadlock too);
//! * **blocking channel op under a lock** — `.send(…)` / `.recv()` /
//!   `.send_timeout(…)` / `.recv_timeout(…)` while any guard is live.
//!   A blocked channel op under a lock stalls every other thread that
//!   needs that lock; `try_send`/`try_recv` are exempt because they
//!   cannot block.
//!
//! Guard-lifetime model (heuristic, biased toward the workspace's
//! idioms): a lock call is `.lock()`/`.read()`/`.write()` with **empty**
//! parens (so `io::Read::read(&mut buf)` never matches). A guard counts
//! as `let`-bound only when the lock-call chain — plus unwrap-family
//! adapters — is the *entire* initializer (`let g = m.lock().unwrap();`);
//! it then lives until its enclosing brace closes or an explicit
//! `drop(binding)`. Any other guard is a temporary dying at the end of
//! its statement (`let t = mem::take(&mut *m.lock().unwrap());` holds
//! the lock only for the statement) — except in `for`/`match`/`while`
//! headers, where Rust keeps the temporary alive for the whole body,
//! and so does the rule.
//! Receivers the rank table does not recognize participate in the
//! channel check but not in ordering.

use super::{Diagnostic, Rule, Severity};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Ranks a lock by its receiver expression. Returns the hierarchy rank
/// and family name, or `None` for receivers outside the declared
/// hierarchy.
fn rank(receiver: &str) -> Option<(u8, &'static str)> {
    let r = receiver.to_ascii_lowercase();
    if r.contains("shard") {
        Some((1, "cache-shard"))
    } else if ["published", "writer", "pending", "store", "current"]
        .iter()
        .any(|k| r.contains(k))
    {
        Some((2, "store"))
    } else if ["outcome", "slot", "queue", "workspace"]
        .iter()
        .any(|k| r.contains(k))
    {
        Some((3, "frontend"))
    } else {
        None
    }
}

/// A live guard.
struct Held {
    /// `let` binding name, when the guard is bound.
    binding: Option<String>,
    /// The receiver expression the lock was taken on.
    receiver: String,
    /// Hierarchy rank, when the receiver is recognized.
    rank: Option<(u8, &'static str)>,
    /// Brace depth the guard lives at (released when it closes).
    depth: u32,
    /// True while the guard is an unbound temporary of the current
    /// statement.
    stmt_temp: bool,
    /// Acquisition line, for diagnostics.
    line: u32,
}

/// Checks nested lock order against the declared hierarchy and flags
/// blocking channel ops under any lock.
pub struct LockDiscipline;

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "lock acquired against the cache-shard → store → frontend hierarchy, or blocking channel op under a lock"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let tokens = &file.lexed.tokens;
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0u32;
        // First ident of the current statement (drives the for/match
        // temporary-lifetime special case) and its `let` binding.
        let mut stmt_first: Option<String> = None;
        let mut stmt_binding: Option<String> = None;

        let mut i = 0usize;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.is_punct(';') {
                held.retain(|h| !h.stmt_temp);
                stmt_first = None;
                stmt_binding = None;
            } else if t.is_punct('{') {
                depth += 1;
                let extend = matches!(stmt_first.as_deref(), Some("for" | "match" | "while"));
                if extend {
                    for h in held.iter_mut().filter(|h| h.stmt_temp) {
                        h.stmt_temp = false;
                        h.depth = depth;
                    }
                } else {
                    held.retain(|h| !h.stmt_temp);
                }
                stmt_first = None;
                stmt_binding = None;
            } else if t.is_punct('}') {
                held.retain(|h| h.depth < depth);
                depth = depth.saturating_sub(1);
                stmt_first = None;
                stmt_binding = None;
            } else if t.kind == TokenKind::Ident {
                if stmt_first.is_none() {
                    stmt_first = Some(t.text.clone());
                }
                if t.is_ident("let") {
                    // Binding name: first ident after `let`, skipping `mut`.
                    let mut j = i + 1;
                    while tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                        j += 1;
                    }
                    if let Some(name) = tokens.get(j).filter(|n| n.kind == TokenKind::Ident) {
                        stmt_binding = Some(name.text.clone());
                    }
                } else if t.is_ident("drop")
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
                {
                    if let Some(name) = tokens.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                        held.retain(|h| h.binding.as_deref() != Some(name.text.as_str()));
                    }
                } else if is_lock_call(tokens, i) {
                    let receiver = receiver_of(tokens, i - 1);
                    let new_rank = rank(&receiver);
                    if !file.in_test_code(t.line) {
                        if let Some((nr, nf)) = new_rank {
                            for h in held.iter() {
                                if let Some((hr, hf)) = h.rank {
                                    if nr <= hr {
                                        out.push(Diagnostic {
                                            path: file.path.clone(),
                                            line: t.line,
                                            rule: self.id(),
                                            severity: self.severity(),
                                            message: format!(
                                                "lock on `{receiver}` ({nf}, rank {nr}) acquired \
                                                 while holding `{}` ({hf}, rank {hr}, line {}) — \
                                                 the hierarchy is cache-shard → store → frontend, \
                                                 strictly increasing",
                                                h.receiver, h.line
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                    // The guard is bound (not a temporary) only when the
                    // statement is `let <name> = <receiver>.lock()` plus
                    // unwrap-family adapters, ending the initializer.
                    let bound = stmt_binding.is_some() && chain_reaches_semicolon(tokens, i + 2);
                    held.push(Held {
                        binding: if bound { stmt_binding.clone() } else { None },
                        receiver,
                        rank: new_rank,
                        depth,
                        stmt_temp: !bound,
                        line: t.line,
                    });
                } else if is_channel_op(tokens, i) && !file.in_test_code(t.line) {
                    if let Some(h) = held.first() {
                        out.push(Diagnostic {
                            path: file.path.clone(),
                            line: t.line,
                            rule: self.id(),
                            severity: self.severity(),
                            message: format!(
                                "blocking channel `{}` while holding lock on `{}` \
                                 (line {}) — drop the guard first, or use the try_ \
                                 variant",
                                t.text, h.receiver, h.line
                            ),
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

/// True when token `i` is the method name of a `.lock()`/`.read()`/
/// `.write()` call with empty parens.
fn is_lock_call(tokens: &[Token], i: usize) -> bool {
    (tokens[i].is_ident("lock") || tokens[i].is_ident("read") || tokens[i].is_ident("write"))
        && i > 0
        && tokens[i - 1].is_punct('.')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// True when the call chain continuing at `close` (the index of the
/// lock call's closing `)`) consists only of unwrap-family adapter
/// calls and then ends the statement — i.e. the `let` binds the guard
/// itself, not some value computed *through* a temporary guard.
fn chain_reaches_semicolon(tokens: &[Token], close: usize) -> bool {
    let mut j = close + 1;
    while tokens.get(j).is_some_and(|t| t.is_punct('.'))
        && tokens.get(j + 1).is_some_and(|t| {
            matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                && t.kind == TokenKind::Ident
        })
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('('))
    {
        j = group_close(tokens, j + 2) + 1;
    }
    tokens.get(j).is_some_and(|t| t.is_punct(';'))
}

/// Given `open` pointing at a `(`, returns the index of the matching
/// `)` (or the last token on unbalanced input).
fn group_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// True when token `i` is the method name of a blocking channel call.
fn is_channel_op(tokens: &[Token], i: usize) -> bool {
    matches!(
        tokens[i].text.as_str(),
        "send" | "recv" | "send_timeout" | "recv_timeout"
    ) && tokens[i].kind == TokenKind::Ident
        && i > 0
        && tokens[i - 1].is_punct('.')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Reconstructs the receiver expression ending at the `.` at index
/// `dot`, walking back through `ident`/`.`/`::` chains and skipping
/// `[…]`/`(…)` groups (`self.shards[shard_index(k)]` → `self.shards`).
fn receiver_of(tokens: &[Token], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // invariant: tokens[j] is the separator; look left of it
    while j > 0 {
        let prev = j - 1;
        let t = &tokens[prev];
        if t.kind == TokenKind::Ident || t.kind == TokenKind::Num {
            parts.push(t.text.clone());
            if prev >= 1 && tokens[prev - 1].is_punct('.') {
                j = prev - 1;
            } else if prev >= 2 && tokens[prev - 1].is_punct(':') && tokens[prev - 2].is_punct(':')
            {
                j = prev - 2;
            } else {
                break;
            }
        } else if t.is_punct(']') || t.is_punct(')') {
            j = group_open(tokens, prev);
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(".")
}

/// Given `close` pointing at a `]` or `)`, returns the index of the
/// matching opener (or 0 on unbalanced input).
fn group_open(tokens: &[Token], close: usize) -> usize {
    let (open_ch, close_ch) = if tokens[close].is_punct(']') {
        ('[', ']')
    } else {
        ('(', ')')
    };
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if tokens[j].is_punct(close_ch) {
            depth += 1;
        } else if tokens[j].is_punct(open_ch) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new("crates/core/src/x.rs", src);
        let mut out = Vec::new();
        LockDiscipline.check(&file, &mut out);
        out
    }

    #[test]
    fn receiver_reconstruction_skips_index_and_call_groups() {
        let lexed = crate::lexer::lex("self.shards[shard_index(k)].lock()");
        let dot = lexed.tokens.iter().rposition(|t| t.is_punct('.')).unwrap();
        assert_eq!(receiver_of(&lexed.tokens, dot), "self.shards");
    }

    #[test]
    fn inverted_order_is_flagged() {
        let src = "\
fn f(&self) {
    let g = self.store.write().expect(\"poisoned\");
    let s = self.shards[0].lock().expect(\"poisoned\");
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("cache-shard"));
    }

    #[test]
    fn declared_order_passes() {
        let src = "\
fn f(&self) {
    let s = self.shards[0].lock().expect(\"poisoned\");
    let g = self.store.read().expect(\"poisoned\");
    let q = self.queue.lock().expect(\"poisoned\");
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn same_rank_nesting_is_flagged() {
        let src = "\
fn f(&self) {
    let a = self.shards[0].lock().unwrap();
    let b = self.shards[1].lock().unwrap();
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn temporary_guard_dies_at_the_semicolon() {
        let src = "\
fn f(&self) {
    self.store.write().unwrap().insert(k, v);
    let s = self.shards[0].lock().unwrap();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn guard_temporary_inside_an_initializer_dies_at_the_semicolon() {
        // `let` binds the *taken value*, not the guard — the `pending`
        // lock is released before `published` is acquired.
        let src = "\
fn f(&self) {
    let mut touched = std::mem::take(&mut *self.pending.lock().unwrap_or_else(|p| p.into_inner()));
    let published = self.published.write().unwrap_or_else(|p| p.into_inner());
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let src = "\
fn f(&self) {
    let g = self.store.write().unwrap();
    drop(g);
    let s = self.shards[0].lock().unwrap();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_dies_when_its_block_closes() {
        let src = "\
fn f(&self) {
    {
        let g = self.store.write().unwrap();
    }
    let s = self.shards[0].lock().unwrap();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn blocking_channel_ops_under_a_lock_are_flagged() {
        let src = "\
fn f(&self) {
    let g = self.queue.lock().unwrap();
    self.tx.send(job).unwrap();
}
";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("blocking channel `send`"));
    }

    #[test]
    fn try_variants_and_lock_free_sends_pass() {
        assert!(run(
            "fn f(&self) { let g = self.queue.lock().unwrap(); self.tx.try_send(job); }\n"
        )
        .is_empty());
        assert!(run("fn f(&self) { self.tx.send(job).unwrap(); }\n").is_empty());
    }

    #[test]
    fn for_loop_header_temporary_lives_for_the_body() {
        let src = "\
fn f(&self) {
    for x in self.store.read().unwrap().iter() {
        self.tx.send(x).unwrap();
    }
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("blocking channel"));
    }

    #[test]
    fn unranked_receivers_skip_ordering_but_count_for_channel_ops() {
        // `self.misc` is outside the hierarchy: nesting it with a store
        // lock is not an order violation, but a recv under it still is.
        let src = "\
fn f(&self) {
    let g = self.misc.lock().unwrap();
    let h = self.store.read().unwrap();
    let x = self.rx.recv().unwrap();
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("recv"));
    }

    #[test]
    fn io_read_write_with_arguments_do_not_match() {
        let src = "\
fn f(&self) {
    let g = self.queue.lock().unwrap();
    file.read(&mut buf).unwrap();
    file.write(&buf).unwrap();
}
";
        assert!(run(src).is_empty());
    }
}
