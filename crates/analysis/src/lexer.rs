//! A minimal Rust-source lexer with line-accurate spans.
//!
//! The analyzer's rules are *token-pattern* rules (`Ordering::Relaxed`,
//! `.lock()`, `HashMap`, …), so the lexer's whole job is to hand them a
//! token stream in which comments and string/char literals can never
//! masquerade as code — the classic failure mode of grep-based lint
//! scripts (a rule that greps for `unwrap` fires on its own
//! documentation). It handles exactly the constructs needed for that
//! separation to be sound on real Rust source:
//!
//! * line (`//`, `///`, `//!`) and block (`/* … */`, nested) comments —
//!   kept, with their line spans, because suppression comments
//!   (`// simcheck: allow(…) — reason`) and `relaxed:` justification
//!   comments are read *from* them;
//! * string-ish literals: `"…"` with escapes, raw strings `r"…"` /
//!   `r#"…"#` (any hash depth), byte strings `b"…"` / `br#"…"#`, char
//!   literals `'x'` / `'\n'` / `'\u{1F600}'`, and the char-vs-lifetime
//!   ambiguity (`'a'` is a literal, `'a` in `&'a str` is not);
//! * identifiers/keywords, integer-ish number runs, and single-character
//!   punctuation tokens.
//!
//! It is **not** a parser: it never errors, and on malformed input (an
//! unterminated string, say) it degrades by consuming to end of input —
//! for a linter that must run on every tree state, "lex something
//! reasonable" beats "refuse to analyze". Like the rest of this crate,
//! clarity wins over speed everywhere; the whole workspace lexes in
//! milliseconds.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`self`, `lock`, `HashMap`, `fn`, …).
    Ident,
    /// A numeric literal run (`42`, `0xFF`, `1_000`). Float literals lex
    /// as number–dot–number, which is fine for pattern rules.
    Num,
    /// A single punctuation character (`.`, `:`, `(`, `{`, `!`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The token text (a single character for [`TokenKind::Punct`]).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True for a punctuation token equal to `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == ch.len_utf8()
            && self.text.starts_with(ch)
    }

    /// True for an identifier token equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// One comment (line or block) with its 1-based line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// The raw comment text, delimiters included.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (`== line` for line comments).
    pub end_line: u32,
}

/// The result of lexing one source file: code tokens plus comment trivia.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments and literals stripped).
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens and comments. Never fails; see the
/// [module docs](self) for the degradation contract on malformed input.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// Advances one byte, maintaining the line counter.
    fn bump(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn run(mut self) -> Lexed {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ if b.is_ascii() => {
                    self.out
                        .push(TokenKind::Punct, (b as char).to_string(), self.line);
                    self.bump();
                }
                // Non-ASCII outside strings/comments (e.g. a stray em dash
                // in code) — skip the whole UTF-8 scalar byte by byte.
                _ => self.bump(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.peek().is_some_and(|b| b != b'\n') {
            self.bump();
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
            line,
            end_line: line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: consume to EOF
            }
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
            line,
            end_line: self.line,
        });
    }

    /// A `"…"` string with the standard escapes. The contents are
    /// discarded — only the line counter matters.
    fn string(&mut self) {
        self.bump(); // opening '"'
        loop {
            match self.peek() {
                Some(b'\\') => {
                    self.bump();
                    if self.peek().is_some() {
                        self.bump(); // the escaped byte (covers \" and \\)
                    }
                }
                Some(b'"') => {
                    self.bump();
                    return;
                }
                Some(_) => self.bump(),
                None => return, // unterminated: consumed to EOF
            }
        }
    }

    /// A raw string `r"…"` / `r#"…"#` with `hashes` leading `#`s; the
    /// caller has consumed the prefix up to and including the opening
    /// quote.
    fn raw_string_body(&mut self, hashes: usize) {
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.bump();
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => self.bump(),
                None => return,
            }
        }
    }

    /// A `'` — either a char/byte literal or a lifetime.
    fn quote(&mut self) {
        self.bump(); // '\''
        match self.peek() {
            // Escaped char literal: '\n', '\u{…}', '\''.
            Some(b'\\') => {
                self.bump();
                if self.peek().is_some() {
                    self.bump();
                }
                // \u{…} — consume to the closing brace.
                if self.bytes.get(self.pos.wrapping_sub(1)) == Some(&b'u')
                    && self.peek() == Some(b'{')
                {
                    while self.peek().is_some_and(|b| b != b'}') {
                        self.bump();
                    }
                    if self.peek().is_some() {
                        self.bump();
                    }
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
            }
            // 'a' is a char literal; 'a (no closing quote) is a lifetime.
            Some(b) if is_ident_start(b) || b.is_ascii_digit() => {
                let mut end = self.pos;
                while self.bytes.get(end).copied().is_some_and(is_ident_continue) {
                    end += 1;
                }
                if self.bytes.get(end) == Some(&b'\'') {
                    while self.pos <= end {
                        self.bump(); // char literal incl. closing quote
                    }
                } else {
                    while self.pos < end {
                        self.bump(); // lifetime: skip the name, emit nothing
                    }
                }
            }
            // Any other single char literal: '(', ' ', a non-ASCII char.
            Some(_) => {
                self.bump();
                while self.peek().is_some_and(|b| b != b'\'' && b != b'\n') {
                    self.bump();
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
            }
            None => {}
        }
    }

    fn ident(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.peek().is_some_and(is_ident_continue) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        // Raw/byte string prefixes: r"…", r#"…"#, b"…", br#"…"#, rb"…".
        if matches!(text.as_str(), "r" | "b" | "br" | "rb") {
            let mut hashes = 0usize;
            while self.peek_at(hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek_at(hashes) == Some(b'"') && (hashes == 0 || text != "b") {
                for _ in 0..=hashes {
                    self.bump(); // the #s and the opening quote
                }
                if text == "b" {
                    // b"…" is an escaped byte string, not a raw one.
                    self.pos -= 1;
                    self.string();
                } else {
                    self.raw_string_body(hashes);
                }
                return;
            }
            if text == "b" && self.peek() == Some(b'\'') {
                self.quote(); // byte char literal b'x'
                return;
            }
        }
        self.out.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self) {
        let start = self.pos;
        let line = self.line;
        // Digits, hex/bin/octal letters, underscores and suffixes — but
        // never '.', so `0..n` and `1.5` both lex as separate tokens.
        while self.peek().is_some_and(is_ident_continue) {
            self.bump();
        }
        self.out.push(
            TokenKind::Num,
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
            line,
        );
    }
}

impl Lexed {
    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_never_leak_tokens() {
        let src = r##"
            // unwrap in a comment
            /* HashMap in /* a nested */ block comment */
            let s = "Ordering::Relaxed .unwrap()";
            let r = r#"panic!("not code")"#;
            let b = b"HashSet";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_owned()));
        for banned in ["unwrap", "HashMap", "Ordering", "panic", "HashSet"] {
            assert!(!ids.contains(&banned.to_owned()), "{banned} leaked");
        }
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        // 'a' is a literal (no token), &'a str has a lifetime (no token),
        // and the idents around them survive.
        let ids = idents("fn f<'a>(x: &'a str) -> char { let c = 'a'; let n = '\\n'; c }");
        assert_eq!(
            ids,
            ["fn", "f", "x", "str", "char", "let", "c", "let", "n", "c"]
                .map(str::to_owned)
                .to_vec()
        );
    }

    #[test]
    fn line_numbers_are_accurate_across_multiline_trivia() {
        let src = "a\n/* two\nlines */\n\"str\nwith newline\"\nb";
        let lexed = lex(src);
        assert_eq!(lexed.tokens.len(), 2);
        assert_eq!(
            (lexed.tokens[0].text.as_str(), lexed.tokens[0].line),
            ("a", 1)
        );
        assert_eq!(
            (lexed.tokens[1].text.as_str(), lexed.tokens[1].line),
            ("b", 6)
        );
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!((lexed.comments[0].line, lexed.comments[0].end_line), (2, 3));
    }

    #[test]
    fn comments_carry_their_text() {
        let lexed = lex("x(); // simcheck: allow(some-rule) — reason\n");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0]
            .text
            .contains("simcheck: allow(some-rule)"));
        assert_eq!(lexed.comments[0].line, 1);
    }

    #[test]
    fn numbers_do_not_swallow_dots() {
        let lexed = lex("0..n; 1.5; x.0.lock()");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["0", ".", ".", "n", ";", "1", ".", "5", ";", "x", ".", "0", ".", "lock", "(", ")"]
        );
    }

    #[test]
    fn punct_and_ident_helpers() {
        let lexed = lex("Ordering::Relaxed");
        assert!(lexed.tokens[0].is_ident("Ordering"));
        assert!(lexed.tokens[1].is_punct(':'));
        assert!(lexed.tokens[2].is_punct(':'));
        assert!(lexed.tokens[3].is_ident("Relaxed"));
    }

    #[test]
    fn raw_strings_with_hash_depths_terminate_correctly() {
        let ids = idents(r####"let x = r##"inner "# quote HashMap"## ; after"####);
        assert_eq!(ids, ["let", "x", "after"].map(str::to_owned).to_vec());
    }

    #[test]
    fn unterminated_input_degrades_without_panicking() {
        for bad in ["\"unterminated", "/* unterminated", "'", "r#\"unterminated"] {
            let _ = lex(bad); // must not panic or loop forever
        }
    }
}
