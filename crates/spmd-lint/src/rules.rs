//! R2 unordered-iteration, as a scan over the parsed files the
//! interprocedural analysis already holds.
//!
//! The rule asks one question of every non-test function body: does a
//! `for` head or an iterator method run over a hash container? It covers
//! the f64-fold case too — a `+=` inside such a loop is flagged at the
//! loop head, where the order is chosen. Container-ness is decided by
//! name, from the crate's own `name: HashMap<..>` ascriptions and
//! `let name = HashMap::new()`-style initializers. The heuristic is
//! deliberately conservative-but-auditable: anything it flags that is
//! provably safe goes in `spmd-lint.toml` with a written justification,
//! and anything it cannot see (e.g. a HashMap returned by value and
//! iterated at a call site it cannot type) is the documented residual
//! risk.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Rule};
use crate::effects::FileRec;
use crate::lexer::{Tok, TokKind};
use crate::parse::{find_body_brace, for_iterated_expr};

/// Order-sensitive iteration methods.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Methods on a hash container whose result is order-free, so mentioning
/// the container in a `for` head through one of these is fine
/// (`for i in 0..index.len()`).
const ORDER_FREE_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "contains_key",
    "contains",
    "get",
    "get_mut",
    "capacity",
    "entry",
];

/// Crates where unordered iteration order can reach wire bytes, election
/// order, or MDL accumulation.
const ORDERED_CRATES: &[&str] = &["infomap-distributed", "infomap-core", "infomap-mpisim"];

fn is_hash_type(t: &Tok) -> bool {
    t.is_ident("HashMap") || t.is_ident("HashSet")
}

/// Names with a hash-container type in one file's tokens, from
/// `name: HashMap<..>` ascriptions (fields, params, lets) and
/// `let name = HashMap::new()`-style initializers.
fn collect_hash_names(toks: &[Tok], names: &mut BTreeSet<String>) {
    for i in 0..toks.len() {
        // Pattern A: `name: [& 'a mut std::collections::] HashMap<..>`
        // (struct fields, fn params, typed lets).
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is(":")) {
            let ty = toks[i + 2..].iter().take(9).find(|t| {
                !(t.is("&")
                    || t.is_ident("mut")
                    || t.kind == TokKind::Lifetime
                    || t.is("::")
                    || t.is_ident("std")
                    || t.is_ident("collections"))
            });
            if ty.is_some_and(is_hash_type) {
                names.insert(toks[i].text.clone());
            }
        }
        // Pattern B: `let [mut] name = <init>;` — scan the initializer for a
        // hash-container constructor / collect target.
        if toks[i].is_ident("let") {
            let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.is_ident("mut")));
            if j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is("=") {
                let mut init = toks[j + 2..].iter().take(78).take_while(|t| !t.is(";"));
                if init.any(is_hash_type) {
                    names.insert(toks[j].text.clone());
                }
            }
        }
    }
}

/// The hash container a `for`-head expression iterates, if any.
fn iterated_hash<'t>(expr: &'t [Tok], names: &BTreeSet<String>) -> Option<&'t str> {
    expr.iter().enumerate().find_map(|(i, t)| {
        if is_hash_type(t) {
            return Some(t.text.as_str());
        }
        if t.kind != TokKind::Ident || !names.contains(&t.text) {
            return None;
        }
        // Exempt order-free access: `map.len()`, `map.get(&k)`, …
        let order_free = expr.get(i + 1).is_some_and(|n| n.is("."))
            && expr
                .get(i + 2)
                .is_some_and(|m| ORDER_FREE_METHODS.contains(&m.text.as_str()));
        (!order_free).then_some(t.text.as_str())
    })
}

/// The hash container an iterator method at `toks[dot + 1]` runs over:
/// a hash-typed receiver name, or — for `collect::<HashMap<_,_>>()
/// .into_iter()` and friends — a container type a short way back in the
/// same statement.
fn method_receiver_hash<'t>(
    toks: &'t [Tok],
    dot: usize,
    names: &BTreeSet<String>,
) -> Option<&'t str> {
    let recv = &toks[dot.checked_sub(1)?];
    if recv.kind == TokKind::Ident && names.contains(&recv.text) {
        return Some(&recv.text);
    }
    if !recv.is(")") {
        return None;
    }
    toks[dot.saturating_sub(25)..dot - 1]
        .iter()
        .rev()
        .take_while(|t| !(t.is(";") || t.is("{") || t.is("}")))
        .find(|t| is_hash_type(t))
        .map(|t| t.text.as_str())
}

/// R2 over every file of the ordered crates. Test functions (`#[test]`,
/// anything under `#[cfg(test)]`) are skipped by their parsed body spans.
pub fn check_unordered_iteration(files: &[FileRec]) -> Vec<Diagnostic> {
    let mut names: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        if ORDERED_CRATES.contains(&f.crate_name.as_str()) {
            collect_hash_names(&f.toks, names.entry(f.crate_name.as_str()).or_default());
        }
    }
    let mut diags = Vec::new();
    for f in files {
        let Some(names) = names.get(f.crate_name.as_str()) else {
            continue;
        };
        let test_bodies: BTreeMap<usize, usize> = f
            .parsed
            .fns
            .iter()
            .filter(|item| item.is_test)
            .map(|item| (item.body_open, item.body_close))
            .collect();
        // One finding per line: a `for` head can trip both the head check
        // and the method-chain check.
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut emit = |line: u32, what: String, src: &str| {
            if seen.insert(line) {
                diags.push(Diagnostic {
                    rule: Rule::UnorderedIteration,
                    path: f.path.clone(),
                    line,
                    fn_name: f.parsed.fn_at(line).map(str::to_string),
                    message: format!(
                        "{what} unordered container `{src}`; order can leak into wire \
                         bytes or an f64 fold — sort first or use a BTreeMap/BTreeSet"
                    ),
                    snippet: f.snippet_at(line),
                });
            }
        };
        let toks = &f.toks;
        let mut i = 0;
        while i < toks.len() {
            if let Some(&close) = test_bodies.get(&i) {
                i = close;
                continue;
            }
            let t = &toks[i];
            if t.is_ident("for") {
                if let Some(b) = find_body_brace(toks, i) {
                    if let Some(src) = iterated_hash(for_iterated_expr(&toks[i + 1..b]), names) {
                        emit(t.line, "`for` loop iterates".to_string(), src);
                    }
                }
            } else if t.is(".") && toks.get(i + 2).is_some_and(|p| p.is("(")) {
                let m = &toks[i + 1];
                if m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str()) {
                    if let Some(src) = method_receiver_hash(toks, i, names) {
                        emit(m.line, format!("`.{}()` over", m.text), src);
                    }
                }
            }
            i += 1;
        }
    }
    diags
}
