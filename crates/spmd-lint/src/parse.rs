//! Item-level parsing on top of the lexer: function items (with impl
//! qualification and body spans) and struct items (with named fields).
//!
//! This is the substrate the interprocedural analysis (`effects`) builds
//! on. It is deliberately not a full Rust parser — it tracks exactly the
//! structure the rules need: which token ranges belong to which function,
//! which impl block a method lives in, which items sit under
//! `#[cfg(test)]`, and which named fields a struct declares.

use crate::lexer::{Tok, TokKind};

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`run_rank`).
    pub name: String,
    /// Impl-qualified name when inside an `impl` block
    /// (`RankProgram::run_rank`), otherwise equal to `name`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the closing body brace.
    pub end_line: u32,
    /// Token index of the opening body brace.
    pub body_open: usize,
    /// Token index of the matching closing brace.
    pub body_close: usize,
    /// Inside `#[cfg(test)]` / `#[test]` — excluded from analysis.
    pub is_test: bool,
}

/// A struct with named fields (tuple/unit structs are skipped — the R7
/// checkpoint rule only applies to named-field state structs).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub line: u32,
    /// `(field name, declaration line)` in declaration order.
    pub fields: Vec<(String, u32)>,
}

/// Everything parsed out of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
}

impl ParsedFile {
    /// Qualified name of the innermost function enclosing `line`, for
    /// diagnostic attribution and fn-anchored allowlist entries.
    pub fn fn_at(&self, line: u32) -> Option<&str> {
        let mut best: Option<&FnItem> = None;
        for f in &self.fns {
            if f.line <= line && line <= f.end_line {
                // Innermost = latest-starting span that still covers it.
                if best.map(|b| f.line >= b.line).unwrap_or(true) {
                    best = Some(f);
                }
            }
        }
        best.map(|f| f.qual.as_str())
    }
}

/// For every `{` token index, the index of its matching `}` (and vice
/// versa). Unbalanced braces map to `usize::MAX`.
pub fn brace_match(toks: &[Tok]) -> Vec<usize> {
    let mut m = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    m[open] = i;
                    m[i] = open;
                }
            }
            _ => {}
        }
    }
    m
}

/// Find the `{` opening the body of a construct whose keyword is at
/// `start`, skipping parenthesized/bracketed groups in the head. `None`
/// when a `;` ends the item first (trait method declarations) or the head
/// runs out.
pub fn find_body_brace(toks: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start + 1) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The iterated expression of a `for` head (the tokens between the keyword
/// and the body brace): what follows the top-level `in`, or the whole head
/// when there is none.
pub fn for_iterated_expr(head: &[Tok]) -> &[Tok] {
    let mut depth = 0i32;
    for (k, h) in head.iter().enumerate() {
        match h.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "in" if depth <= 0 && h.kind == TokKind::Ident => return &head[k + 1..],
            _ => {}
        }
    }
    head
}

/// Scan an attribute starting at `#` (index `i`); returns
/// `(index after the closing `]`, is_test_marker)`.
fn scan_attribute(toks: &[Tok], i: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut is_test = false;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, is_test);
                }
            }
            "cfg"
                if toks.get(j + 1).map(|x| x.is("(")).unwrap_or(false)
                    && toks.get(j + 2).map(|x| x.is_ident("test")).unwrap_or(false) =>
            {
                is_test = true;
            }
            "test" if j > 0 && toks[j - 1].is("[") => is_test = true,
            _ => {}
        }
        j += 1;
    }
    (j, is_test)
}

/// The self-type of an `impl` head: the last path segment of the type the
/// impl applies to (`impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`).
fn impl_self_type(head: &[Tok]) -> Option<String> {
    // Restrict to the segment after a top-level `for` (trait impls), and
    // stop at `where`.
    let mut angle = 0i32;
    let mut seg_start = 0usize;
    let mut seg_end = head.len();
    for (k, t) in head.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 && t.kind == TokKind::Ident => seg_start = k + 1,
            "where" if angle == 0 && t.kind == TokKind::Ident => {
                seg_end = k;
                break;
            }
            _ => {}
        }
    }
    let mut angle = 0i32;
    let mut last: Option<&str> = None;
    for t in &head[seg_start..seg_end.min(head.len())] {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            _ if angle == 0 && t.kind == TokKind::Ident && t.text != "dyn" && t.text != "mut" => {
                last = Some(&t.text)
            }
            _ => {}
        }
    }
    last.map(|s| s.to_string())
}

/// Parse one file's token stream into items. `matches` must come from
/// [`brace_match`] on the same tokens.
pub fn parse_file(toks: &[Tok], matches: &[usize]) -> ParsedFile {
    let mut out = ParsedFile::default();

    // Scope context per open brace currently on the stack.
    #[derive(Clone)]
    enum Scope {
        Impl(String),
        TestMod,
        Other,
    }
    let mut pending: Vec<(usize, Scope)> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending_test = false;

    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        match t.text.as_str() {
            "#" if t.kind == TokKind::Punct
                && toks.get(i + 1).map(|x| x.is("[")).unwrap_or(false) =>
            {
                let (next, is_test) = scan_attribute(toks, i);
                if is_test {
                    pending_test = true;
                }
                i = next;
                continue;
            }
            "impl" if t.kind == TokKind::Ident => {
                if let Some(b) = find_body_brace(toks, i) {
                    let scope = match impl_self_type(&toks[i + 1..b]) {
                        Some(ty) if !pending_test => Scope::Impl(ty),
                        Some(_) => Scope::TestMod,
                        None => Scope::Other,
                    };
                    pending.push((b, scope));
                }
                pending_test = false;
            }
            "mod" if t.kind == TokKind::Ident => {
                if let Some(b) = find_body_brace(toks, i) {
                    if pending_test {
                        pending.push((b, Scope::TestMod));
                    }
                }
                pending_test = false;
            }
            "fn" if t.kind == TokKind::Ident => {
                let name = match toks.get(i + 1) {
                    Some(x) if x.kind == TokKind::Ident => x.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                if let Some(b) = find_body_brace(toks, i) {
                    let close = matches.get(b).copied().unwrap_or(usize::MAX);
                    if close == usize::MAX {
                        i += 1;
                        continue;
                    }
                    let in_test = pending_test
                        || stack.iter().any(|s| matches!(s, Scope::TestMod))
                        || pending.iter().any(|(_, s)| matches!(s, Scope::TestMod));
                    let qual = stack
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Scope::Impl(ty) => Some(format!("{ty}::{name}")),
                            _ => None,
                        })
                        .unwrap_or_else(|| name.clone());
                    out.fns.push(FnItem {
                        name,
                        qual,
                        line: t.line,
                        end_line: toks[close].line,
                        body_open: b,
                        body_close: close,
                        is_test: in_test,
                    });
                    pending.push((b, Scope::Other));
                }
                pending_test = false;
            }
            "struct" if t.kind == TokKind::Ident => {
                if let Some(name_tok) = toks.get(i + 1).filter(|x| x.kind == TokKind::Ident) {
                    if let Some(b) = find_body_brace(toks, i) {
                        let close = matches.get(b).copied().unwrap_or(usize::MAX);
                        if close != usize::MAX {
                            out.structs.push(StructItem {
                                name: name_tok.text.clone(),
                                line: t.line,
                                fields: struct_fields(toks, b, close),
                            });
                        }
                    }
                }
                pending_test = false;
            }
            "{" if t.kind == TokKind::Punct => {
                let scope = pending
                    .iter()
                    .position(|(idx, _)| *idx == i)
                    .map(|p| pending.remove(p).1)
                    .unwrap_or(Scope::Other);
                stack.push(scope);
                pending_test = false;
            }
            "}" if t.kind == TokKind::Punct => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Named fields of a struct body `toks[open+1 .. close]`: idents followed
/// by `:` at field position (start of body or right after a top-level
/// `,`), skipping attributes and visibility modifiers.
fn struct_fields(toks: &[Tok], open: usize, close: usize) -> Vec<(String, u32)> {
    let mut fields = Vec::new();
    let mut i = open + 1;
    loop {
        // Skip attributes and visibility at the field position.
        while i < close {
            let t = &toks[i];
            if t.is("#") && toks.get(i + 1).map(|x| x.is("[")).unwrap_or(false) {
                i = scan_attribute(toks, i).0;
            } else if t.is_ident("pub") {
                i += 1;
                if i < close && toks[i].is("(") {
                    // pub(crate) / pub(super)
                    let mut depth = 0i32;
                    while i < close {
                        match toks[i].text.as_str() {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            } else {
                break;
            }
        }
        if i >= close {
            break;
        }
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).map(|x| x.is(":")).unwrap_or(false) {
            fields.push((toks[i].text.clone(), toks[i].line));
        }
        // Advance to the token after the next top-level `,`.
        let mut depth = 0i32;
        let mut advanced = false;
        while i < close {
            match toks[i].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth == 0 => {
                    i += 1;
                    advanced = true;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        if !advanced {
            break;
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> (Vec<Tok>, ParsedFile) {
        let toks = lex(src);
        let m = brace_match(&toks);
        let p = parse_file(&toks, &m);
        (toks, p)
    }

    #[test]
    fn fns_get_impl_qualified_names_and_spans() {
        let src = "impl Foo {\n    fn bar(&self) { helper(); }\n}\nfn helper() {}\n";
        let (_, p) = parsed(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, vec!["Foo::bar", "helper"]);
        assert_eq!(p.fns[0].line, 2);
    }

    #[test]
    fn trait_impls_resolve_to_the_self_type() {
        let src = "impl fmt::Display for Diag<'_> {\n    fn fmt(&self) {}\n}";
        let (_, p) = parsed(src);
        assert_eq!(p.fns[0].qual, "Diag::fmt");
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live() {}";
        let (_, p) = parsed(src);
        assert!(p.fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!p.fns.iter().find(|f| f.name == "live").unwrap().is_test);
    }

    #[test]
    fn struct_fields_with_attrs_and_vis() {
        let src = "pub struct S {\n    pub a: u32,\n    #[allow(dead_code)]\n    b: Vec<(u32, f64)>,\n    pub(crate) c: HashMap<u32, u32>,\n}";
        let (_, p) = parsed(src);
        let f: Vec<&str> = p.structs[0]
            .fields
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(f, vec!["a", "b", "c"]);
    }

    #[test]
    fn fn_at_finds_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n}\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fn_at(3), Some("inner"));
        assert_eq!(p.fn_at(1), Some("outer"));
        assert_eq!(p.fn_at(99), None);
    }
}
