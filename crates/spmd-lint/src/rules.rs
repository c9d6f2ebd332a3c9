//! The five SPMD determinism rules, implemented as a structural scan over
//! the token stream.
//!
//! The scanner tracks the block structure (functions, conditionals, loops,
//! `#[cfg(test)]` modules) with a frame stack so rules can ask questions
//! like "is this `+=` inside a loop over a hash container?" without
//! a full AST. The heuristics are deliberately conservative-but-auditable:
//! anything they flag that is provably safe goes in `spmd-lint.toml` with a
//! written justification, and anything they cannot see (e.g. a HashMap
//! returned by value and iterated at a call site they cannot type) is the
//! documented residual risk.

use std::collections::BTreeSet;
use std::path::Path;

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{is_float_literal, lex, Tok, TokKind};

/// Order-sensitive iteration methods (R2).
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
/// order, or MDL accumulation (R2/R5 scope, per the issue).
const ORDERED_CRATES: &[&str] = &["infomap-distributed", "infomap-core", "infomap-mpisim"];

/// Crates whose `send`/`send_slice` call sites must carry wire metering
/// (R4 scope): everything that talks through `Comm` from the algorithm
/// side. mpisim itself is excluded — it *implements* the metering, and its
/// internal `.send(..)` calls are crossbeam channel operations.
const METERED_CRATES: &[&str] = &["infomap-distributed", "infomap-core", "infomap-baselines"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Plain,
    /// Function body; R4 sends are resolved when the frame pops.
    Fn,
    /// `for` body; `unordered` means the head iterates a hash container.
    For {
        unordered: bool,
    },
    /// `#[cfg(test)]` module or function: rules are silent inside.
    TestMod,
}

struct Frame {
    kind: FrameKind,
    /// R4 bookkeeping, only used for `Fn` frames.
    sends: Vec<(u32, String)>,
    metered: bool,
}

/// Names with a hash-container or float type, collected crate-wide from
/// `name: HashMap<..>` ascriptions (fields, params, lets) and
/// `let name = HashMap::new()`-style initializers.
#[derive(Default)]
pub struct TypedNames {
    hash: BTreeSet<String>,
    float: BTreeSet<String>,
}

pub fn collect_typed_names(files: &[(&Path, &str)]) -> TypedNames {
    let mut names = TypedNames::default();
    for (_, src) in files {
        let toks = lex(src);
        collect_from_tokens(&toks, &mut names);
    }
    names
}

fn collect_from_tokens(toks: &[Tok], names: &mut TypedNames) {
    for i in 0..toks.len() {
        // Pattern A: `name: [& 'a mut std::collections::] HashMap<..>`
        // (struct fields, fn params, typed lets).
        if toks[i].kind == TokKind::Ident && i + 1 < toks.len() && toks[i + 1].is(":") {
            let mut j = i + 2;
            let mut steps = 0;
            while j < toks.len() && steps < 8 {
                let t = &toks[j];
                if t.is("&")
                    || t.is_ident("mut")
                    || t.kind == TokKind::Lifetime
                    || t.is("::")
                    || t.is_ident("std")
                    || t.is_ident("collections")
                {
                    j += 1;
                    steps += 1;
                    continue;
                }
                break;
            }
            if j < toks.len() {
                if toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet") {
                    names.hash.insert(toks[i].text.clone());
                } else if toks[j].is_ident("f64") || toks[j].is_ident("f32") {
                    names.float.insert(toks[i].text.clone());
                }
            }
        }
        // Pattern B: `let [mut] name = <init>;` — scan the initializer for a
        // hash-container constructor / collect target, or a float literal.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is("=") {
                let name = toks[j].text.clone();
                let mut k = j + 2;
                let mut saw_hash = false;
                let mut first = true;
                let mut float_init = false;
                while k < toks.len() && !toks[k].is(";") && k < j + 80 {
                    if toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet") {
                        saw_hash = true;
                    }
                    if first && is_float_literal(&toks[k]) {
                        float_init = true;
                    }
                    first = false;
                    k += 1;
                }
                if saw_hash {
                    names.hash.insert(name.clone());
                }
                if float_init {
                    names.float.insert(name);
                }
            }
        }
    }
}

pub struct FileLint<'a> {
    crate_name: &'a str,
    path: &'a Path,
    lines: Vec<&'a str>,
    toks: Vec<Tok>,
    names: &'a TypedNames,
    diags: Vec<Diagnostic>,
    /// Dedup per (rule, line): a `for` head can trip both the head check
    /// and the method-chain check.
    seen: BTreeSet<(Rule, u32)>,
}

pub fn lint_file(
    crate_name: &str,
    path: &Path,
    source: &str,
    names: &TypedNames,
) -> Vec<Diagnostic> {
    let mut fl = FileLint {
        crate_name,
        path,
        lines: source.lines().collect(),
        toks: lex(source),
        names,
        diags: Vec::new(),
        seen: BTreeSet::new(),
    };
    fl.run();
    fl.diags
}

impl<'a> FileLint<'a> {
    fn emit(&mut self, rule: Rule, line: u32, message: String) {
        if !self.seen.insert((rule, line)) {
            return;
        }
        let snippet = self
            .lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        self.diags.push(Diagnostic {
            rule,
            path: self.path.to_path_buf(),
            line,
            fn_name: None,
            message,
            snippet,
        });
    }

    fn in_scope_r2(&self) -> bool {
        ORDERED_CRATES.contains(&self.crate_name)
    }

    fn in_scope_r3(&self) -> bool {
        // Outside the cost model and the bench crate (they legitimately
        // read wall clocks / sample distributions).
        self.crate_name != "infomap-bench" && !self.path.ends_with("cost.rs")
    }

    fn in_scope_r4(&self) -> bool {
        METERED_CRATES.contains(&self.crate_name)
    }

    /// Does a `for`-head expression iterate a hash container?
    fn expr_iterates_hash(&self, toks: &[Tok]) -> Option<String> {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "HashMap" || t.text == "HashSet" {
                return Some(t.text.clone());
            }
            if self.names.hash.contains(&t.text) {
                // Exempt order-free access: `map.len()`, `map.get(&k)`, …
                let next_is_dot = toks.get(i + 1).map(|n| n.is(".")).unwrap_or(false);
                if next_is_dot {
                    if let Some(m) = toks.get(i + 2) {
                        if ORDER_FREE_METHODS.contains(&m.text.as_str()) {
                            continue;
                        }
                    }
                }
                return Some(t.text.clone());
            }
        }
        None
    }

    /// Find the index of the `{` opening the body of a construct whose
    /// keyword sits at `start`, skipping over parenthesized/bracketed
    /// groups in the head. Returns `None` when a `;` ends the item first
    /// (trait method declarations) or nothing is found nearby.
    fn find_body_brace(toks: &[Tok], start: usize) -> Option<usize> {
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

    fn run(&mut self) {
        let toks = std::mem::take(&mut self.toks);
        let n = toks.len();
        let mut stack: Vec<Frame> = Vec::new();
        // Braces claimed by a construct head: opening-brace index -> frame.
        let mut pending: Vec<(usize, FrameKind)> = Vec::new();
        let mut pending_cfg_test = false;

        let mut i = 0usize;
        while i < n {
            let t = &toks[i];
            let in_test = stack.iter().any(|f| f.kind == FrameKind::TestMod);

            match t.text.as_str() {
                // ---- attributes --------------------------------------
                "#" if i + 1 < n && toks[i + 1].is("[") => {
                    let mut depth = 0i32;
                    let mut j = i + 1;
                    let mut is_cfg_test = false;
                    while j < n {
                        match toks[j].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "cfg"
                                if toks[j + 1..].first().map(|x| x.is("(")).unwrap_or(false)
                                    && toks
                                        .get(j + 2)
                                        .map(|x| x.is_ident("test"))
                                        .unwrap_or(false) =>
                            {
                                is_cfg_test = true;
                            }
                            "test" if toks[j - 1].is("[") => is_cfg_test = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    if is_cfg_test {
                        pending_cfg_test = true;
                    }
                    i = j + 1;
                    continue;
                }

                // ---- construct heads ---------------------------------
                "for" => {
                    if let Some(b) = Self::find_body_brace(&toks, i) {
                        let head = &toks[i + 1..b];
                        // Split the head at the top-level `in`.
                        let mut depth = 0i32;
                        let mut in_pos = None;
                        for (k, h) in head.iter().enumerate() {
                            match h.text.as_str() {
                                "(" | "[" | "<" => depth += 1,
                                ")" | "]" | ">" => depth -= 1,
                                "in" if depth <= 0 && h.kind == TokKind::Ident => {
                                    in_pos = Some(k);
                                    break;
                                }
                                _ => {}
                            }
                        }
                        let expr = in_pos.map(|p| &head[p + 1..]).unwrap_or(head);
                        let hash_src = if self.in_scope_r2() && !in_test {
                            self.expr_iterates_hash(expr)
                        } else {
                            None
                        };
                        let unordered = hash_src.is_some();
                        if let Some(src) = hash_src {
                            self.emit(
                                Rule::UnorderedIteration,
                                t.line,
                                format!(
                                    "`for` loop iterates unordered container `{src}`; \
                                     order can leak into wire bytes or accumulation — \
                                     sort first or use a BTreeMap/BTreeSet"
                                ),
                            );
                        }
                        pending.push((b, FrameKind::For { unordered }));
                    }
                }
                "fn" => {
                    if let Some(b) = Self::find_body_brace(&toks, i) {
                        if pending_cfg_test {
                            pending.push((b, FrameKind::TestMod));
                            pending_cfg_test = false;
                        } else {
                            pending.push((b, FrameKind::Fn));
                        }
                    }
                }
                "mod" => {
                    if let Some(b) = Self::find_body_brace(&toks, i) {
                        if pending_cfg_test {
                            pending.push((b, FrameKind::TestMod));
                            pending_cfg_test = false;
                        }
                        let _ = b;
                    }
                }

                // ---- braces ------------------------------------------
                "{" => {
                    let kind = pending
                        .iter()
                        .position(|(idx, _)| *idx == i)
                        .map(|p| pending.remove(p).1)
                        .unwrap_or(FrameKind::Plain);
                    stack.push(Frame {
                        kind,
                        sends: Vec::new(),
                        metered: false,
                    });
                }
                "}" => {
                    if let Some(frame) = stack.pop() {
                        match frame.kind {
                            FrameKind::Fn if !frame.metered => {
                                let sends = frame.sends.clone();
                                for (line, name) in sends {
                                    self.emit(
                                        Rule::UnmeteredSend,
                                        line,
                                        format!(
                                            "`.{name}(..)` call with no WIRE_BYTES-based \
                                             metering in the enclosing function — use \
                                             `add_codec_bytes` or a `*_WIRE_BYTES` size"
                                        ),
                                    );
                                }
                            }
                            _ => {}
                        }
                    }
                }

                // ---- token-level rules -------------------------------
                "." if !in_test && i + 2 < n && toks[i + 2].is("(") => {
                    let m = &toks[i + 1];
                    if m.kind == TokKind::Ident {
                        let name = m.text.as_str();
                        // R2: iteration method on a hash-typed receiver.
                        if self.in_scope_r2() && ITER_METHODS.contains(&name) && i > 0 {
                            let recv = &toks[i - 1];
                            let mut flagged: Option<String> = None;
                            if recv.kind == TokKind::Ident && self.names.hash.contains(&recv.text) {
                                flagged = Some(recv.text.clone());
                            } else if recv.is(")") {
                                // `collect::<HashMap<_,_>>().into_iter()` and
                                // friends: look back a short window for the
                                // container type.
                                let lo = i.saturating_sub(25);
                                for b in (lo..i.saturating_sub(1)).rev() {
                                    let bt = &toks[b];
                                    if bt.is(";") || bt.is("{") || bt.is("}") {
                                        break;
                                    }
                                    if bt.is_ident("HashMap") || bt.is_ident("HashSet") {
                                        flagged = Some(bt.text.clone());
                                        break;
                                    }
                                }
                            }
                            if let Some(src) = flagged {
                                self.emit(
                                    Rule::UnorderedIteration,
                                    m.line,
                                    format!(
                                        "`.{name}()` over unordered container `{src}`; \
                                         order can leak into wire bytes or accumulation — \
                                         sort first or use a BTreeMap/BTreeSet"
                                    ),
                                );
                            }
                        }
                        // R4: record sends on the nearest enclosing fn.
                        if self.in_scope_r4() && (name == "send" || name == "send_slice") {
                            if let Some(f) =
                                stack.iter_mut().rev().find(|f| f.kind == FrameKind::Fn)
                            {
                                f.sends.push((m.line, name.to_string()));
                            }
                        }
                    }
                }

                // R5: `+=` inside an unordered-container loop.
                "+=" if !in_test => {
                    let in_unordered = stack.iter().any(|f| {
                        matches!(
                            f.kind,
                            FrameKind::For {
                                unordered: true,
                                ..
                            }
                        )
                    });
                    if in_unordered && self.in_scope_r2() {
                        // Scan the statement's LHS for float evidence.
                        let mut lo = i;
                        while lo > 0 {
                            let b = &toks[lo - 1];
                            if b.is(";") || b.is("{") || b.is("}") {
                                break;
                            }
                            lo -= 1;
                        }
                        let lhs = &toks[lo..i];
                        let floaty = lhs.iter().any(|x| {
                            is_float_literal(x)
                                || (x.kind == TokKind::Ident && self.names.float.contains(&x.text))
                        });
                        if floaty {
                            self.emit(
                                Rule::FloatAccumulation,
                                t.line,
                                "f64 `+=` fold inside an unordered-container loop; \
                                 summation order is nondeterministic — accumulate in \
                                 sorted order or through the deterministic reduction \
                                 helpers"
                                    .to_string(),
                            );
                        }
                    }
                }

                // R3: ambient nondeterminism.
                _ if !in_test && t.kind == TokKind::Ident && self.in_scope_r3() => {
                    let flag = match t.text.as_str() {
                        "thread_rng" | "SystemTime" | "RandomState" => Some(t.text.clone()),
                        "Instant"
                            if toks.get(i + 1).map(|x| x.is("::")).unwrap_or(false)
                                && toks.get(i + 2).map(|x| x.is_ident("now")).unwrap_or(false) =>
                        {
                            Some("Instant::now".to_string())
                        }
                        _ => None,
                    };
                    if let Some(what) = flag {
                        self.emit(
                            Rule::NondeterministicSource,
                            t.line,
                            format!(
                                "`{what}` is a nondeterministic source; replayed code \
                                 must derive all state from the seed and the comm \
                                 schedule"
                            ),
                        );
                    }
                }
                _ => {}
            }

            // Metering markers make the enclosing fn R4-clean.
            if t.kind == TokKind::Ident
                && (t.text.contains("WIRE_BYTES")
                    || t.text == "add_codec_bytes"
                    || t.text == "wire_bytes")
            {
                if let Some(f) = stack.iter_mut().rev().find(|f| f.kind == FrameKind::Fn) {
                    f.metered = true;
                }
            }

            i += 1;
        }
        self.toks = toks;
    }
}

/// Lint one crate with the token-scan rules (R2–R5): collect crate-wide
/// typed names, then scan every file.
pub fn lint_crate(crate_name: &str, files: &[(&Path, &str)]) -> Vec<Diagnostic> {
    let names = collect_typed_names(files);
    let mut diags = Vec::new();
    for (path, src) in files {
        diags.extend(lint_file(crate_name, path, src, &names));
    }
    diags
}
