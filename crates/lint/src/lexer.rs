//! A lightweight Rust lexer: just enough tokenization for rule matching.
//!
//! The lexer's one job is to separate *code* from *non-code* so the rules
//! never fire on the contents of a comment, a string, or a char literal —
//! the classic failure mode of grep-based lint passes. It understands:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * plain, byte, and C strings with escapes; raw strings `r#"…"#` with
//!   any number of hashes (no escapes);
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped and
//!   non-ASCII chars;
//! * raw identifiers (`r#fn`);
//! * numbers with radix prefixes and type suffixes.
//!
//! Comments are not discarded: they come back in a side channel with line
//! spans, because a fixture's first line may carry the
//! `// lint-fixture-as:` scoping directive.

/// What a token is. Rules mostly care about `Ident` and `Punct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// A lifetime such as `'a` or `'static` (without quotes in `text`).
    Lifetime,
    /// Any string literal (plain, byte, C, or raw). `text` is the body.
    Str,
    /// A char literal. `text` is the body between the quotes.
    Char,
    /// A numeric literal, radix prefix and suffix included.
    Num,
    /// A single punctuation byte (`.`, `:`, `<`, …). Multi-byte operators
    /// arrive as consecutive puncts (`::` is two `:` tokens).
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what each class stores).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation byte `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// Identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        if self.kind == TokKind::Ident {
            Some(&self.text)
        } else {
            None
        }
    }
}

/// One comment (line or block) with its line span, marker included.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
    /// Raw comment text, `//` / `/* */` markers included.
    pub text: String,
}

/// Lexer output: the code tokens and the comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order. Comments, whitespace, and string/char
    /// *contents* never appear here.
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

/// Tokenizes `src`. Never panics: malformed input (unterminated strings,
/// stray bytes) degrades to best-effort tokens rather than an error — a
/// lint must keep walking the rest of the tree.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            out.comments.push(Comment {
                line,
                end_line: line,
                text: src[start..i].to_string(),
            });
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let (start, start_line) = (i, line);
            i += 2;
            let mut depth = 1u32;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            out.comments.push(Comment {
                line: start_line,
                end_line: line,
                text: src[start..i].to_string(),
            });
            continue;
        }
        // Plain string literal.
        if c == b'"' {
            let (body, ni, nl) = scan_escaped_string(src, i, line);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: body,
                line,
            });
            i = ni;
            line = nl;
            continue;
        }
        // Char literal or lifetime.
        if c == b'\'' {
            let next = b.get(i + 1).copied();
            match next {
                // Escaped char: '\n', '\'', '\u{1f600}'.
                Some(b'\\') => {
                    let start = i + 1;
                    i += 2; // past the backslash
                    if i < b.len() {
                        i += 1; // the escaped byte itself
                    }
                    while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                        i += 1; // \u{...} payloads
                    }
                    if i < b.len() && b[i] == b'\'' {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: src[start..i.saturating_sub(1).max(start)].to_string(),
                        line,
                    });
                }
                // Ident-ish follower: 'a' is a char only if a quote closes
                // it right after; otherwise it's a lifetime ('a, 'static).
                Some(n) if is_ident_byte(n) => {
                    if b.get(i + 2).copied() == Some(b'\'') {
                        out.toks.push(Tok {
                            kind: TokKind::Char,
                            text: src[i + 1..i + 2].to_string(),
                            line,
                        });
                        i += 3;
                    } else {
                        let start = i + 1;
                        i += 1;
                        while i < b.len() && is_ident_byte(b[i]) {
                            i += 1;
                        }
                        out.toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: src[start..i].to_string(),
                            line,
                        });
                    }
                }
                // Anything else ('(' , non-ASCII, …): a char literal; scan
                // to the closing quote on this line.
                _ => {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                        i += 1;
                    }
                    let end = i;
                    if i < b.len() && b[i] == b'\'' {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: src[start..end].to_string(),
                        line,
                    });
                }
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // Identifier — possibly a string prefix (r" b" br" c" cr" r#")
        // or a raw identifier (r#fn).
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            let is_prefix = matches!(word, "r" | "b" | "br" | "c" | "cr");
            if is_prefix && b.get(i).copied() == Some(b'"') {
                if word.ends_with('r') {
                    // Raw string, zero hashes.
                    let (body, ni, nl) = scan_raw_string(src, i, 0, line);
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: body,
                        line,
                    });
                    i = ni;
                    line = nl;
                } else {
                    // b"…" / c"…": escaped string body.
                    let (body, ni, nl) = scan_escaped_string(src, i, line);
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: body,
                        line,
                    });
                    i = ni;
                    line = nl;
                }
                continue;
            }
            if is_prefix && word.ends_with('r') && b.get(i).copied() == Some(b'#') {
                // Count hashes; a quote makes it a raw string, an ident
                // start (for plain `r#`) makes it a raw identifier.
                let mut j = i;
                while j < b.len() && b[j] == b'#' {
                    j += 1;
                }
                let hashes = j - i;
                if b.get(j).copied() == Some(b'"') {
                    let (body, ni, nl) = scan_raw_string(src, j, hashes, line);
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: body,
                        line,
                    });
                    i = ni;
                    line = nl;
                    continue;
                }
                if word == "r" && hashes == 1 && j < b.len() && is_ident_start(b[j]) {
                    let rstart = j;
                    let mut k = j;
                    while k < b.len() && is_ident_byte(b[k]) {
                        k += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: src[rstart..k].to_string(),
                        line,
                    });
                    i = k;
                    continue;
                }
                // Not a raw string/ident after all: fall through, emitting
                // the word; the hashes lex as punctuation next.
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: word.to_string(),
                line,
            });
            continue;
        }
        // Punctuation (ASCII); stray non-ASCII bytes are skipped.
        if c.is_ascii() {
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: (c as char).to_string(),
                line,
            });
        }
        i += 1;
    }
    out
}

/// Scans a `"…"`-style string with `\` escapes, starting at the opening
/// quote. Returns (body, next index, next line).
fn scan_escaped_string(src: &str, open: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let mut i = open + 1;
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                let body = src[start..i].to_string();
                return (body, i + 1, line);
            }
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start.min(b.len())..].to_string(), b.len(), line)
}

/// Scans a raw string starting at the opening quote, with `hashes` closing
/// hashes required. Returns (body, next index, next line).
fn scan_raw_string(src: &str, open: usize, hashes: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let mut i = open + 1;
    let start = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k).copied() == Some(b'#') {
                k += 1;
            }
            if k == hashes {
                let body = src[start..i].to_string();
                return (body, i + 1 + hashes, line);
            }
        }
        i += 1;
    }
    (src[start.min(b.len())..].to_string(), b.len(), line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_are_stripped_and_captured() {
        let l = lex("let x = 1; // trailing HashMap\n/* block\nSystemTime */ let y = 2;");
        assert_eq!(
            idents("let x = 1; // HashMap\nlet y = 2;"),
            ["let", "x", "let", "y"]
        );
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("trailing"));
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[1].end_line, 3);
        // No identifier leaked out of a comment.
        assert!(l
            .toks
            .iter()
            .all(|t| t.text != "HashMap" && t.text != "SystemTime"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner SystemTime */ still comment */ b");
        assert_eq!(
            l.toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "HashMap.iter() \" quoted"; t"#);
        // The contents survive only inside the Str token, never as idents.
        assert!(l.toks.iter().all(|t| !t.is_ident("HashMap")));
        let s = l.toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("HashMap.iter()"));
        assert!(l.toks.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r###"let s = r#"no "escape" SystemTime"#; x"###);
        let s = l.toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("SystemTime"));
        assert!(l.toks.iter().any(|t| t.is_ident("x")));
        assert!(!l.toks.iter().any(|t| t.is_ident("SystemTime")));

        // A raw string whose body contains a quote followed by too few
        // hashes must not terminate early.
        let l = lex(r####"r##"inner "# stays"## after"####);
        let s = l.toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("stays"));
        assert!(l.toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn byte_and_c_strings() {
        let l = lex(r#"b"bytes" c"cstr" br"rawbytes" done"#);
        let strs: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 3);
        assert!(l.toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let u = '\\u{1F600}'; }");
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
        // 'static in a bound is a lifetime, not an unterminated char.
        let l = lex("fn g<T: 'static>() {}");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
    }

    #[test]
    fn punct_char_literal_and_unicode_char() {
        let l = lex("let a = '('; let b = 'α'; after");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(l.toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn raw_identifiers() {
        let l = lex("let r#fn = 1; use r#type;");
        assert!(l.toks.iter().any(|t| t.is_ident("fn")));
        assert!(l.toks.iter().any(|t| t.is_ident("type")));
    }

    #[test]
    fn numbers_including_suffixes_and_radix() {
        let l = lex("0x1f 1_000u64 0b1010 7usize 1e3 0.5");
        let nums: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert!(nums.contains(&"0x1f".to_string()));
        assert!(nums.contains(&"1_000u64".to_string()));
        assert!(nums.contains(&"7usize".to_string()));
        // `0.5` splits into 0 . 5 — fine for rule matching.
        assert!(nums.contains(&"0".to_string()) && nums.contains(&"5".to_string()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let src = "a\n\"two\nline string\"\nb /* c\nd */ e";
        let l = lex(src);
        let a = l.toks.iter().find(|t| t.is_ident("a")).unwrap();
        let b = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        let e = l.toks.iter().find(|t| t.is_ident("e")).unwrap();
        assert_eq!((a.line, b.line, e.line), (1, 4, 5));
    }

    #[test]
    fn double_colon_arrives_as_two_puncts() {
        let l = lex("std::thread::spawn");
        let texts: Vec<_> = l.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["std", ":", ":", "thread", ":", ":", "spawn"]);
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let l = lex("let s = \"never closed");
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Str));
    }
}
