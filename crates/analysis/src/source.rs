//! Per-file analysis context: path classification and test-code spans.
//!
//! Rules scope themselves by *where* a token lives, along two axes:
//!
//! * **Path class** — which part of the workspace the file belongs to.
//!   The determinism rule only polices the answer-affecting crates
//!   (`common`/`graph`/`walks`/`core`: everything a query's bits flow
//!   through); the panic rule only polices *library* code (binaries may
//!   `unwrap` their CLI plumbing, tests may unwrap at will).
//! * **Test spans** — `#[cfg(test)] mod … { … }` blocks and `#[test]`
//!   functions inside otherwise-library files. Token-accurate: the spans
//!   are computed from the lexed stream (attribute → item → matched
//!   braces), not from indentation or regexes, so a stray `}` in a string
//!   can't derail them.

use crate::lexer::{lex, Lexed, Token};

/// A lexed source file plus everything rules need to scope their checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/core/src/frontend.rs`).
    pub path: String,
    /// The lexed token/comment streams.
    pub lexed: Lexed,
    /// 1-based inclusive line spans of test-only code (`#[cfg(test)]`
    /// modules, `#[test]`/`#[should_panic]` functions).
    pub test_spans: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `source` under the given workspace-relative `path`.
    pub fn new(path: impl Into<String>, source: &str) -> Self {
        let lexed = lex(source);
        let test_spans = test_spans(&lexed.tokens);
        Self {
            path: path.into(),
            lexed,
            test_spans,
        }
    }

    /// True when `line` is inside test-only code.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True for library code the panic rule polices: `crates/*/src/**`
    /// and the umbrella `src/**`, excluding `src/bin/` binaries. Files
    /// under `tests/`, `examples/` and `benches/` are not library code.
    pub fn is_library(&self) -> bool {
        let p = self.path.as_str();
        let in_src = p.starts_with("src/") || (p.starts_with("crates/") && p.contains("/src/"));
        in_src && !p.contains("/bin/")
    }

    /// True for the answer-affecting crates — every crate a query answer's
    /// bits flow through (`simrank_common`, `simrank_graph`,
    /// `simrank_walks`, `simpush`). The determinism rule polices exactly
    /// these.
    pub fn is_answer_affecting(&self) -> bool {
        [
            "crates/common/src/",
            "crates/graph/src/",
            "crates/walks/src/",
            "crates/core/src/",
        ]
        .iter()
        .any(|prefix| self.path.starts_with(prefix))
    }
}

/// Extracts the line spans of test-only items from a token stream.
///
/// Recognized markers: `#[test]`, `#[should_panic…]`, and `#[cfg(test)]`
/// (exactly — `#[cfg(not(test))]` is production code and does not match).
/// The marked item is the next `mod`/`fn` at the same level; its span runs
/// from the attribute to the matching close brace of the item body.
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    let mut pending: Option<u32> = None; // line of the test attribute
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_line = tokens[i].line;
            let (inner, after) = bracket_group(tokens, i + 1);
            if is_test_attribute(inner) {
                pending = Some(pending.unwrap_or(attr_line));
            }
            i = after;
            continue;
        }
        if pending.is_some() && (tokens[i].is_ident("mod") || tokens[i].is_ident("fn")) {
            // Find the item's body and skip to its closing brace. A
            // semicolon first means a body-less item (`mod tests;`) —
            // nothing inline to span.
            let mut j = i + 1;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                // pending is Some by the guard above; default is unreachable.
                let start = pending.unwrap_or(tokens[i].line);
                spans.push((start, tokens.get(close).map_or(u32::MAX, |t| t.line)));
                i = close + 1;
                pending = None;
                continue;
            }
            pending = None;
            i = j + 1;
            continue;
        }
        // Attribute stacks (`#[cfg(test)] #[allow(…)] mod t`) keep the
        // pending marker across further attributes and visibility
        // keywords; anything else cancels it.
        if pending.is_some()
            && !(tokens[i].is_ident("pub")
                || tokens[i].is_ident("crate")
                || tokens[i].is_ident("super")
                || tokens[i].is_punct('(')
                || tokens[i].is_punct(')'))
        {
            pending = None;
        }
        i += 1;
    }
    spans
}

/// True when the attribute token slice (the tokens between `[` and its
/// matching `]`) marks test-only code.
fn is_test_attribute(inner: &[Token]) -> bool {
    let texts: Vec<&str> = inner.iter().map(|t| t.text.as_str()).collect();
    matches!(texts.as_slice(), ["test"] | ["cfg", "(", "test", ")"])
        || texts.first() == Some(&"should_panic")
}

/// Given `open` pointing at a `[`, returns the tokens strictly inside the
/// matching bracket pair and the index just past the closing `]`.
fn bracket_group(tokens: &[Token], open: usize) -> (&[Token], usize) {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (&tokens[open + 1..j], j + 1);
            }
        }
        j += 1;
    }
    (&tokens[open + 1..], tokens.len())
}

/// Given `open` pointing at a `{`, returns the index of the matching `}`
/// (or the last token on unbalanced input).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_span_their_whole_body() {
        let src = "\
fn library() {}            // line 1
#[cfg(test)]               // line 2
mod tests {                // line 3
    #[test]
    fn t() { helper(); }   // line 5
}                          // line 6
fn more_library() {}       // line 7
";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2), "the attribute itself is test code");
        assert!(f.in_test_code(5));
        assert!(f.in_test_code(6));
        assert!(!f.in_test_code(7));
    }

    #[test]
    fn bare_test_fns_and_should_panic_fns_are_test_code() {
        let src = "\
#[test]
fn standalone() { body(); }
#[should_panic(expected = \"boom\")]
#[test]
fn panicky() { body(); }
fn library() {}
";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nmod prod { fn f() {} }\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn attribute_stacks_and_pub_visibility_keep_the_marker() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\npub mod t { fn f() {} }\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(f.in_test_code(3));
    }

    #[test]
    fn outline_test_mod_spans_nothing() {
        let f = SourceFile::new(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests;\nfn lib() {}\n",
        );
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn path_classes() {
        let lib = SourceFile::new("crates/graph/src/io.rs", "");
        assert!(lib.is_library() && lib.is_answer_affecting());
        let bench_lib = SourceFile::new("crates/bench/src/json.rs", "");
        assert!(bench_lib.is_library() && !bench_lib.is_answer_affecting());
        let bin = SourceFile::new("crates/bench/src/bin/scenario_serve.rs", "");
        assert!(!bin.is_library());
        let umbrella = SourceFile::new("src/lib.rs", "");
        assert!(umbrella.is_library() && !umbrella.is_answer_affecting());
        let integration = SourceFile::new("tests/prop_cache.rs", "");
        assert!(!integration.is_library());
        let example = SourceFile::new("examples/quickstart.rs", "");
        assert!(!example.is_library());
    }
}
