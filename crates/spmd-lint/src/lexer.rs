//! A minimal Rust lexer: just enough fidelity for structural lint passes.
//!
//! Comments and doc comments are dropped; string/char literals are collapsed
//! to single tokens (so braces or rule keywords inside them cannot confuse
//! the scanner); a small set of compound operators (`::`, `+=`, `=>`, …) is
//! kept intact because the rules key on them. Everything else is a
//! single-character punct token.

/// Token classification. The rules dispatch on `Ident` vs `Punct`; the
/// literal kinds exist so their text cannot be mistaken for either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Number,
    Str,
    Char,
    Lifetime,
    Punct,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Tok {
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// Two-character operators the rules need to see as one token. `<<`/`>>`/`..`
/// are deliberately left split so generics and ranges stay trivial to walk.
const COMPOUND: &[&str] = &[
    "::", "->", "=>", "+=", "-=", "*=", "/=", "%=", "==", "!=", "&&", "||", "<=", ">=",
];

pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advance over `chars[i..]` counting newlines.
    macro_rules! bump {
        ($n:expr) => {{
            for k in 0..$n {
                if chars[i + k] == '\n' {
                    line += 1;
                }
            }
            i += $n;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // Line comment (covers `///` and `//!`).
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && next == Some('*') {
            let mut depth = 1usize;
            bump!(2);
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // Raw strings: r"…", r#"…"#, br#"…"#; raw identifiers: r#type.
        let (raw_start, raw_prefix_len) = if c == 'r' && matches!(next, Some('"') | Some('#')) {
            (true, 1usize)
        } else if c == 'b' && next == Some('r') && matches!(chars.get(i + 2), Some('"') | Some('#'))
        {
            (true, 2usize)
        } else {
            (false, 0)
        };
        if raw_start {
            let start_line = line;
            let mut j = i + raw_prefix_len;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                // Raw string: scan for `"` followed by `hashes` hashes.
                j += 1;
                loop {
                    match chars.get(j) {
                        None => break,
                        Some('"') => {
                            let mut k = 0usize;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break;
                            }
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                let len = j - i;
                bump!(len);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::from("\"raw\""),
                    line: start_line,
                });
                continue;
            } else if hashes == 1 && raw_prefix_len == 1 {
                // Raw identifier r#name.
                let mut j = i + 2;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let text: String = chars[i + 2..j].iter().collect();
                let len = j - i;
                bump!(len);
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line: start_line,
                });
                continue;
            }
            // Fall through: lone `r` ident handled below.
        }
        // Byte string b"…" or plain string.
        if c == '"' || (c == 'b' && next == Some('"')) {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < chars.len() {
                match chars[j] {
                    '\\' => j += 2,
                    '"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let len = j - i;
            bump!(len);
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::from("\"str\""),
                line: start_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let start_line = line;
            if next == Some('\\') {
                // Escaped char literal '\n', '\u{..}', …
                let mut j = i + 2;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                let len = (j + 1).min(chars.len()) - i;
                bump!(len);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::from("'c'"),
                    line: start_line,
                });
                continue;
            }
            if let Some(n) = next {
                if n.is_alphanumeric() || n == '_' {
                    // Identifier run after the quote: 'a' is a char literal
                    // only if a closing quote immediately follows.
                    let mut j = i + 1;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'\'') {
                        let len = j + 1 - i;
                        bump!(len);
                        toks.push(Tok {
                            kind: TokKind::Char,
                            text: String::from("'c'"),
                            line: start_line,
                        });
                    } else {
                        let text: String = chars[i..j].iter().collect();
                        let len = j - i;
                        bump!(len);
                        toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text,
                            line: start_line,
                        });
                    }
                    continue;
                }
                // e.g. '(' char literal
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                let len = (j + 1).min(chars.len()) - i;
                bump!(len);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::from("'c'"),
                    line: start_line,
                });
                continue;
            }
            bump!(1);
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            i = j;
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: start_line,
            });
            continue;
        }
        // Number (int or float, with optional exponent and type suffix).
        if c.is_ascii_digit() {
            let start_line = line;
            let mut j = i;
            if c == '0' && matches!(next, Some('x') | Some('X') | Some('b') | Some('o')) {
                j += 2;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            } else {
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                    j += 1;
                }
                // Decimal point only when a digit follows (keeps `0..n` and
                // `x.1` intact).
                if chars.get(j) == Some(&'.')
                    && chars
                        .get(j + 1)
                        .map(|d| d.is_ascii_digit())
                        .unwrap_or(false)
                {
                    j += 1;
                    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                        j += 1;
                    }
                }
                if matches!(chars.get(j), Some('e') | Some('E'))
                    && chars
                        .get(j + 1)
                        .map(|d| d.is_ascii_digit() || *d == '+' || *d == '-')
                        .unwrap_or(false)
                {
                    j += 2;
                    while j < chars.len() && chars[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                // Type suffix (u32, f64, usize, …).
                let suffix_start = j;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let _ = suffix_start;
            }
            let text: String = chars[i..j].iter().collect();
            i = j;
            toks.push(Tok {
                kind: TokKind::Number,
                text,
                line: start_line,
            });
            continue;
        }
        // Compound punct.
        if let Some(n) = next {
            let two: String = [c, n].iter().collect();
            if COMPOUND.contains(&two.as_str()) {
                bump!(2);
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: two,
                    line,
                });
                continue;
            }
        }
        // Single punct.
        let start_line = line;
        bump!(1);
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: start_line,
        });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_collapsed() {
        let t = texts("let s = \"for x in map.iter() {\"; // HashMap\n/* thread_rng */ let y = 1;");
        assert_eq!(
            t,
            vec!["let", "s", "=", "\"str\"", ";", "let", "y", "=", "1", ";"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(t
            .iter()
            .any(|x| x.kind == TokKind::Lifetime && x.text == "'a"));
        assert!(t.iter().any(|x| x.kind == TokKind::Char));
    }

    #[test]
    fn numbers_are_single_tokens() {
        // `0.5` must not shed a `.` the method-call scan could trip on.
        let t = lex("0.5 1e9 0x1E 3 2f64 7u32");
        assert_eq!(t.len(), 6);
        assert!(t.iter().all(|x| x.kind == TokKind::Number));
    }

    #[test]
    fn compound_ops_and_lines() {
        let t = lex("a += b;\nc::d()");
        assert!(t.iter().any(|x| x.text == "+="));
        assert!(t.iter().any(|x| x.text == "::"));
        assert_eq!(t.iter().find(|x| x.text == "c").unwrap().line, 2);
    }

    #[test]
    fn raw_strings_do_not_leak_braces() {
        let t = texts("let x = r#\"{ not a brace }\"#; }");
        assert_eq!(t, vec!["let", "x", "=", "\"raw\"", ";", "}"]);
    }
}
