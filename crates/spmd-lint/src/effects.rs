//! Interprocedural collective-effect analysis (DESIGN.md note 19).
//!
//! Every non-test function is summarized as an abstract *effect sequence*:
//! the collectives it may emit, calls it makes, and the branch/loop
//! structure around them. Summaries are linked through a workspace-wide
//! call graph (resolved by impl-qualified name first, bare name second)
//! and propagated to answer two questions a per-line scanner cannot:
//!
//! * **Path sensitivity (R1/R6).** A rank-keyed branch is only a bug when
//!   its arms emit *different* collective shapes — `if rank == 0 { log }`
//!   is fine, `if rank == 0 { helper_that_allreduces() }` is a hang. The
//!   shape of an arm includes everything reachable through calls.
//! * **Checkpoint completeness (R7).** A struct declared as checkpointed
//!   must have every field mentioned by its serializer.
//!
//! Documented approximations (all conservative for conformance, see the
//! module tests): closures are inlined at their construction site, match
//! guards are treated as part of the pattern, argument evaluation order is
//! the textual order, `return`/`?` are ignored when comparing arm shapes,
//! and recursion among collective-relevant functions truncates to the
//! empty effect.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Tok, TokKind};
use crate::parse::{brace_match, find_body_brace, for_iterated_expr, parse_file, ParsedFile};

/// Collective methods on `Comm`. Kept in sync with
/// `crates/mpisim/src/comm.rs`.
pub const COLLECTIVES: &[&str] = &[
    "barrier",
    "allreduce_f64",
    "allreduce_u64",
    "allreduce_with",
    "allgatherv",
    "allgather_parts",
    "alltoallv",
    "alltoallv_reduce",
    "broadcast",
];

/// Identifiers that mark a condition as rank-local.
pub const RANK_MARKERS: &[&str] = &["rank", "my_rank", "myrank"];

/// Does this token slice mention rank-local state?
pub fn head_is_rank_keyed(toks: &[Tok]) -> bool {
    toks.iter()
        .any(|t| t.kind == TokKind::Ident && RANK_MARKERS.contains(&t.text.as_str()))
}

/// One abstract effect in a function summary.
#[derive(Debug, Clone)]
pub enum Effect {
    /// A direct collective call; `kind` is the `Comm` method name, which
    /// is also the kind the runtime frame stamp records.
    Collective { kind: &'static str, line: u32 },
    /// A call to be resolved through the workspace function table.
    Call {
        name: String,
        /// `Some("Type::name")` when the call site was path-qualified.
        qual: Option<String>,
        line: u32,
    },
    /// `if`/`else if`/`else` chain or `match`; a missing `else` is an
    /// explicit empty arm.
    Branch {
        rank: bool,
        line: u32,
        arms: Vec<Vec<Effect>>,
    },
    /// `for`/`while`/`loop` body.
    Loop {
        rank: bool,
        line: u32,
        body: Vec<Effect>,
        has_continue: bool,
    },
    /// `return` (the expression's effects precede this marker).
    Return { line: u32 },
    /// `?` — maybe-return.
    Try { line: u32 },
    /// `continue` — recorded so the schedule automaton can close the loop
    /// back-edge; dropped from shapes.
    Continue { line: u32 },
}

/// Keywords and binding forms that look like `ident (` but are not calls.
fn is_non_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "else"
            | "let"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "pub"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "use"
            | "where"
            | "crate"
            | "super"
            | "static"
            | "const"
            | "unsafe"
            | "dyn"
            | "type"
            | "extern"
    )
}

struct Extractor<'a> {
    toks: &'a [Tok],
    matches: &'a [usize],
}

impl<'a> Extractor<'a> {
    /// Effects of the statement sequence in `toks[lo..hi]`.
    fn seq(&self, lo: usize, hi: usize) -> Vec<Effect> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    // Nested items: their bodies are separate functions
                    // (or type declarations), not part of this flow.
                    "fn" | "struct" | "enum" | "trait" | "mod" | "impl" => {
                        if let Some(b) = find_body_brace(self.toks, i) {
                            if b < hi && self.matches[b] != usize::MAX {
                                i = self.matches[b] + 1;
                                continue;
                            }
                        }
                        i += 1;
                        continue;
                    }
                    "if" => {
                        let (eff, next) = self.if_chain(i, hi);
                        if let Some(e) = eff {
                            out.push(e);
                        }
                        i = next.max(i + 1);
                        continue;
                    }
                    "match" => {
                        let (eff, next) = self.match_expr(i, hi);
                        if let Some(e) = eff {
                            out.push(e);
                        }
                        i = next.max(i + 1);
                        continue;
                    }
                    "for" | "while" | "loop" => {
                        let (eff, next) = self.loop_expr(i, hi);
                        if let Some(e) = eff {
                            out.push(e);
                        }
                        i = next.max(i + 1);
                        continue;
                    }
                    "return" => {
                        // The return expression's effects happen first.
                        let end = self.stmt_end(i + 1, hi);
                        out.extend(self.seq(i + 1, end));
                        out.push(Effect::Return { line: t.line });
                        i = end;
                        continue;
                    }
                    "continue" => {
                        out.push(Effect::Continue { line: t.line });
                    }
                    _ => {
                        if let Some(eff) = self.call_at(i) {
                            out.push(eff);
                        }
                    }
                }
            } else if t.is("?") {
                out.push(Effect::Try { line: t.line });
            }
            i += 1;
        }
        out
    }

    /// End of the statement starting at `lo`: the next top-level `;` (or
    /// `hi`).
    fn stmt_end(&self, lo: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        for j in lo..hi {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return j,
                _ => {}
            }
        }
        hi
    }

    /// A call effect for the identifier at `i`, when `toks[i+1]` is `(`.
    fn call_at(&self, i: usize) -> Option<Effect> {
        let t = &self.toks[i];
        if !self.toks.get(i + 1).map(|x| x.is("(")).unwrap_or(false) {
            return None;
        }
        if is_non_call_keyword(&t.text) {
            return None;
        }
        let prev = i.checked_sub(1).map(|p| &self.toks[p]);
        let is_method = prev.map(|p| p.is(".")).unwrap_or(false);
        let collective = COLLECTIVES.iter().find(|&&c| c == t.text);
        if let (true, Some(&kind)) = (is_method, collective) {
            return Some(Effect::Collective { kind, line: t.line });
        }
        let qual = if prev.map(|p| p.is("::")).unwrap_or(false) {
            i.checked_sub(2)
                .map(|q| &self.toks[q])
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| format!("{}::{}", q.text, t.text))
        } else {
            None
        };
        Some(Effect::Call {
            name: t.text.clone(),
            qual,
            line: t.line,
        })
    }

    /// Parse an `if`/`else if`/`else` chain starting at the `if` keyword.
    /// Returns the branch effect and the index just past the chain.
    fn if_chain(&self, start: usize, hi: usize) -> (Option<Effect>, usize) {
        let line = self.toks[start].line;
        let mut rank = false;
        let mut arms: Vec<Vec<Effect>> = Vec::new();
        let mut cur = start;
        loop {
            let Some(b) = find_body_brace(self.toks, cur).filter(|&b| b < hi) else {
                return (None, cur + 1);
            };
            let close = self.matches[b];
            if close == usize::MAX || close > hi {
                return (None, cur + 1);
            }
            rank |= head_is_rank_keyed(&self.toks[cur + 1..b]);
            arms.push(self.seq(b + 1, close));
            let next = close + 1;
            if next < hi && self.toks[next].is_ident("else") {
                if next + 1 < hi && self.toks[next + 1].is_ident("if") {
                    cur = next + 1;
                    continue;
                }
                if next + 1 < hi && self.toks[next + 1].is("{") {
                    let ec = self.matches[next + 1];
                    if ec != usize::MAX && ec <= hi {
                        arms.push(self.seq(next + 2, ec));
                        return (Some(Effect::Branch { rank, line, arms }), ec + 1);
                    }
                }
            }
            // No else: the fall-through arm is explicitly empty.
            arms.push(Vec::new());
            return (Some(Effect::Branch { rank, line, arms }), next);
        }
    }

    /// Parse a `match` expression starting at the `match` keyword.
    fn match_expr(&self, start: usize, hi: usize) -> (Option<Effect>, usize) {
        let line = self.toks[start].line;
        let Some(b) = find_body_brace(self.toks, start).filter(|&b| b < hi) else {
            return (None, start + 1);
        };
        let close = self.matches[b];
        if close == usize::MAX || close > hi {
            return (None, start + 1);
        }
        let rank = head_is_rank_keyed(&self.toks[start + 1..b]);
        let mut arms: Vec<Vec<Effect>> = Vec::new();
        let mut j = b + 1;
        while j < close {
            // Pattern (and guard) up to the top-level `=>`.
            let mut depth = 0i32;
            let mut arrow = None;
            let mut k = j;
            while k < close {
                match self.toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => {
                        arrow = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(a) = arrow else { break };
            if a + 1 < close && self.toks[a + 1].is("{") {
                let ac = self.matches[a + 1];
                if ac == usize::MAX || ac > close {
                    break;
                }
                arms.push(self.seq(a + 2, ac));
                j = ac + 1;
                if j < close && self.toks[j].is(",") {
                    j += 1;
                }
            } else {
                // Expression arm: up to the next top-level `,`.
                let mut depth = 0i32;
                let mut k = a + 1;
                while k < close {
                    match self.toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                arms.push(self.seq(a + 1, k));
                j = k + 1;
            }
        }
        if arms.is_empty() {
            return (None, close + 1);
        }
        (Some(Effect::Branch { rank, line, arms }), close + 1)
    }

    /// Parse `for`/`while`/`loop` starting at the keyword.
    fn loop_expr(&self, start: usize, hi: usize) -> (Option<Effect>, usize) {
        let t = &self.toks[start];
        let line = t.line;
        let Some(b) = find_body_brace(self.toks, start).filter(|&b| b < hi) else {
            return (None, start + 1);
        };
        let close = self.matches[b];
        if close == usize::MAX || close > hi {
            return (None, start + 1);
        }
        let head = &self.toks[start + 1..b];
        let rank = match t.text.as_str() {
            "for" => head_is_rank_keyed(for_iterated_expr(head)),
            "while" => head_is_rank_keyed(head),
            _ => false,
        };
        let body = self.seq(b + 1, close);
        let has_continue = contains_continue(&body);
        (
            Some(Effect::Loop {
                rank,
                line,
                body,
                has_continue,
            }),
            close + 1,
        )
    }
}

/// A `continue` that targets *this* loop: descends branches but not
/// nested loops.
fn contains_continue(effects: &[Effect]) -> bool {
    effects.iter().any(|e| match e {
        Effect::Continue { .. } => true,
        Effect::Branch { arms, .. } => arms.iter().any(|a| contains_continue(a)),
        _ => false,
    })
}

/// Normalized collective shape of an effect sequence: what conformance
/// equality is judged on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    Coll(&'static str),
    Seq(Vec<Shape>),
    Alt(Vec<Shape>),
    Loop(Box<Shape>),
}

impl Shape {
    pub fn empty() -> Shape {
        Shape::Seq(Vec::new())
    }

    pub fn is_empty(&self) -> bool {
        matches!(self, Shape::Seq(v) if v.is_empty())
    }
}

/// One source file in the analysis universe.
pub struct FileRec {
    pub crate_name: String,
    pub path: PathBuf,
    pub toks: Vec<Tok>,
    pub parsed: ParsedFile,
    /// Trimmed source lines for diagnostic snippets (allowlist `contains`
    /// entries match against these, so they must be the real text).
    pub lines: Vec<String>,
}

impl FileRec {
    /// The trimmed source text of 1-based `line`.
    pub fn snippet_at(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }
}

/// One analyzed function.
pub struct FnRec {
    /// Index into [`Analysis::files`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub item: usize,
    pub effects: Vec<Effect>,
}

/// The whole-workspace analysis: summaries + call graph + relevance.
pub struct Analysis {
    pub files: Vec<FileRec>,
    pub fns: Vec<FnRec>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<String, Vec<usize>>,
    /// Transitively performs a collective.
    relevant: Vec<bool>,
    shapes: Vec<Option<Shape>>,
}

impl Analysis {
    /// Build the analysis over `(crate name, files)` groups.
    pub fn build<'a, I>(crates: I) -> Analysis
    where
        I: IntoIterator<Item = (&'a str, &'a [(PathBuf, String)])>,
    {
        let mut files = Vec::new();
        for (crate_name, crate_files) in crates {
            for (path, src) in crate_files {
                let toks = lex(src);
                let matches = brace_match(&toks);
                let parsed = parse_file(&toks, &matches);
                let lines: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();
                files.push((
                    crate_name.to_string(),
                    path.clone(),
                    toks,
                    matches,
                    parsed,
                    lines,
                ));
            }
        }

        let mut recs = Vec::new();
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, (crate_name, path, toks, matches, parsed, lines)) in files.into_iter().enumerate()
        {
            for (ii, item) in parsed.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                let ex = Extractor {
                    toks: &toks,
                    matches: &matches,
                };
                let effects = ex.seq(item.body_open + 1, item.body_close);
                let idx = fns.len();
                by_name.entry(item.name.clone()).or_default().push(idx);
                by_qual.entry(item.qual.clone()).or_default().push(idx);
                fns.push(FnRec {
                    file: fi,
                    item: ii,
                    effects,
                });
            }
            recs.push(FileRec {
                crate_name,
                path,
                toks,
                parsed,
                lines,
            });
        }

        let mut a = Analysis {
            files: recs,
            fns,
            by_name,
            by_qual,
            relevant: Vec::new(),
            shapes: Vec::new(),
        };
        a.compute_relevance();
        a.shapes = vec![None; a.fns.len()];
        for i in 0..a.fns.len() {
            let mut stack = Vec::new();
            a.fn_shape(i, &mut stack);
        }
        a
    }

    pub fn fn_qual(&self, idx: usize) -> &str {
        let f = &self.fns[idx];
        &self.files[f.file].parsed.fns[f.item].qual
    }

    pub fn fn_crate(&self, idx: usize) -> &str {
        &self.files[self.fns[idx].file].crate_name
    }

    /// Candidate callee indices for a call effect: impl-qualified name
    /// first (exact), bare name otherwise.
    pub fn resolve(&self, name: &str, qual: Option<&str>) -> &[usize] {
        if let Some(q) = qual {
            if let Some(v) = self.by_qual.get(q) {
                return v;
            }
        }
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Candidates that are collective-relevant.
    fn resolve_relevant(&self, name: &str, qual: Option<&str>) -> Vec<usize> {
        self.resolve(name, qual)
            .iter()
            .copied()
            .filter(|&i| self.relevant[i])
            .collect()
    }

    pub fn is_relevant_call(&self, name: &str, qual: Option<&str>) -> bool {
        !self.resolve_relevant(name, qual).is_empty()
    }

    pub fn is_relevant_idx(&self, idx: usize) -> bool {
        self.relevant[idx]
    }

    /// Resolve a schedule entry point by qualified or bare name, optionally
    /// restricted to one crate. Errors when missing or ambiguous.
    pub fn find_entry(&self, fn_name: &str, crate_name: Option<&str>) -> Result<usize, String> {
        let cands = if fn_name.contains("::") {
            self.by_qual.get(fn_name)
        } else {
            self.by_name.get(fn_name)
        };
        let matches: Vec<usize> = cands
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| crate_name.map(|c| self.fn_crate(i) == c).unwrap_or(true))
                    .collect()
            })
            .unwrap_or_default();
        match matches.len() {
            0 => Err(format!(
                "entry point `{fn_name}` not found in the workspace"
            )),
            1 => Ok(matches[0]),
            _ => Err(format!(
                "entry point `{fn_name}` is ambiguous ({} definitions) — qualify it \
                 (`Type::{fn_name}`) or add `crate = \"...\"`",
                matches.len()
            )),
        }
    }

    fn compute_relevance(&mut self) {
        fn direct(effects: &[Effect]) -> bool {
            effects.iter().any(|e| match e {
                Effect::Collective { .. } => true,
                Effect::Branch { arms, .. } => arms.iter().any(|a| direct(a)),
                Effect::Loop { body, .. } => direct(body),
                _ => false,
            })
        }
        let mut rel: Vec<bool> = self.fns.iter().map(|f| direct(&f.effects)).collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if rel[i] {
                    continue;
                }
                let mut calls = Vec::new();
                collect_calls(&self.fns[i].effects, &mut calls);
                for (name, qual, _) in calls {
                    let hit = {
                        let cands = if let Some(q) = qual.as_deref() {
                            self.by_qual.get(q).or_else(|| self.by_name.get(&name))
                        } else {
                            self.by_name.get(&name)
                        };
                        cands.map(|v| v.iter().any(|&c| rel[c])).unwrap_or(false)
                    };
                    if hit {
                        rel[i] = true;
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.relevant = rel;
    }

    /// Memoized normalized shape of a function (recursion truncates to
    /// the empty shape).
    pub fn fn_shape(&mut self, idx: usize, stack: &mut Vec<usize>) -> Shape {
        if let Some(s) = &self.shapes[idx] {
            return s.clone();
        }
        if stack.contains(&idx) {
            return Shape::empty();
        }
        stack.push(idx);
        let effects = std::mem::take(&mut self.fns[idx].effects);
        let s = self.shape_of(&effects, stack);
        self.fns[idx].effects = effects;
        stack.pop();
        self.shapes[idx] = Some(s.clone());
        s
    }

    /// Normalized shape of an effect sequence. `Return`/`Try`/`Continue`
    /// are ignored (documented approximation; the runtime conformance
    /// checker backstops early exits).
    pub fn shape_of(&mut self, effects: &[Effect], stack: &mut Vec<usize>) -> Shape {
        let mut items: Vec<Shape> = Vec::new();
        let push = |items: &mut Vec<Shape>, s: Shape| match s {
            Shape::Seq(v) => items.extend(v),
            other => items.push(other),
        };
        for e in effects {
            match e {
                Effect::Collective { kind, .. } => items.push(Shape::Coll(kind)),
                Effect::Call { name, qual, .. } => {
                    let cands = self.resolve_relevant(name, qual.as_deref());
                    let mut shapes: Vec<Shape> = cands
                        .iter()
                        .map(|&c| self.fn_shape(c, stack))
                        .filter(|s| !s.is_empty())
                        .collect();
                    shapes.sort();
                    shapes.dedup();
                    match shapes.len() {
                        0 => {}
                        1 => push(&mut items, shapes.pop().unwrap()),
                        _ => items.push(Shape::Alt(shapes)),
                    }
                }
                Effect::Branch { arms, .. } => {
                    let mut arm_shapes: Vec<Shape> =
                        arms.iter().map(|a| self.shape_of(a, stack)).collect();
                    arm_shapes.sort();
                    arm_shapes.dedup();
                    match arm_shapes.len() {
                        0 => {}
                        1 => {
                            let s = arm_shapes.pop().unwrap();
                            if !s.is_empty() {
                                push(&mut items, s);
                            }
                        }
                        _ => items.push(Shape::Alt(arm_shapes)),
                    }
                }
                Effect::Loop { body, .. } => {
                    let b = self.shape_of(body, stack);
                    if !b.is_empty() {
                        items.push(Shape::Loop(Box::new(b)));
                    }
                }
                Effect::Return { .. } | Effect::Try { .. } | Effect::Continue { .. } => {}
            }
        }
        if items.len() == 1 {
            items.pop().unwrap()
        } else {
            Shape::Seq(items)
        }
    }

    /// Path-sensitive divergence check over every analyzed function:
    /// rank-keyed branches whose arms disagree on collective shape (R1 for
    /// direct collectives, R6 for calls that transitively collect), and
    /// rank-keyed loops containing collectives at all (trip counts can
    /// differ per rank).
    pub fn check_divergence(&mut self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut seen: BTreeSet<(Rule, PathBuf, u32)> = BTreeSet::new();
        for idx in 0..self.fns.len() {
            let effects = std::mem::take(&mut self.fns[idx].effects);
            self.walk_divergence(idx, &effects, &mut diags, &mut seen);
            self.fns[idx].effects = effects;
        }
        diags
    }

    fn walk_divergence(
        &mut self,
        fn_idx: usize,
        effects: &[Effect],
        diags: &mut Vec<Diagnostic>,
        seen: &mut BTreeSet<(Rule, PathBuf, u32)>,
    ) {
        for e in effects {
            match e {
                Effect::Branch { rank, arms, .. } => {
                    if *rank {
                        let mut stack = Vec::new();
                        let shapes: Vec<Shape> =
                            arms.iter().map(|a| self.shape_of(a, &mut stack)).collect();
                        let diverges = shapes.windows(2).any(|w| w[0] != w[1]);
                        if diverges {
                            for arm in arms {
                                self.flag_contributors(fn_idx, arm, "branch", diags, seen);
                            }
                        }
                    }
                    for arm in arms {
                        self.walk_divergence(fn_idx, arm, diags, seen);
                    }
                }
                Effect::Loop { rank, body, .. } => {
                    if *rank {
                        self.flag_contributors(fn_idx, body, "loop", diags, seen);
                    }
                    self.walk_divergence(fn_idx, body, diags, seen);
                }
                _ => {}
            }
        }
    }

    /// Emit R1 for direct collectives and R6 for collective-relevant
    /// calls anywhere inside a divergent rank-keyed construct.
    fn flag_contributors(
        &mut self,
        fn_idx: usize,
        effects: &[Effect],
        construct: &str,
        diags: &mut Vec<Diagnostic>,
        seen: &mut BTreeSet<(Rule, PathBuf, u32)>,
    ) {
        for e in effects {
            match e {
                Effect::Collective { kind, line } => {
                    self.emit(
                        fn_idx,
                        Rule::DivergentCollective,
                        *line,
                        format!(
                            "collective `{kind}` is reachable inside a rank-keyed \
                             {construct} whose arms do not agree on the collective \
                             schedule; ranks can disagree on whether this collective \
                             runs — hoist it out of the rank-conditional path"
                        ),
                        diags,
                        seen,
                    );
                }
                Effect::Call { name, qual, line } => {
                    let cands = self.resolve_relevant(name, qual.as_deref());
                    if let Some(&first) = cands.first() {
                        let (chain, kind) = self.witness(first);
                        self.emit(
                            fn_idx,
                            Rule::DivergentCollectiveTransitive,
                            *line,
                            format!(
                                "call to `{name}` transitively performs collective \
                                 `{kind}` (via {chain}) inside a rank-keyed \
                                 {construct} whose arms do not agree on the \
                                 collective schedule — ranks can diverge on the \
                                 schedule through this call chain"
                            ),
                            diags,
                            seen,
                        );
                    }
                }
                Effect::Branch { arms, .. } => {
                    for arm in arms {
                        self.flag_contributors(fn_idx, arm, construct, diags, seen);
                    }
                }
                Effect::Loop { body, .. } => {
                    self.flag_contributors(fn_idx, body, construct, diags, seen);
                }
                _ => {}
            }
        }
    }

    /// A witness call chain from `idx` down to a direct collective:
    /// `"f -> g -> allreduce_u64"`.
    fn witness(&self, idx: usize) -> (String, &'static str) {
        fn first_collective(effects: &[Effect]) -> Option<&'static str> {
            for e in effects {
                match e {
                    Effect::Collective { kind, .. } => return Some(kind),
                    Effect::Branch { arms, .. } => {
                        if let Some(k) = arms.iter().find_map(|a| first_collective(a)) {
                            return Some(k);
                        }
                    }
                    Effect::Loop { body, .. } => {
                        if let Some(k) = first_collective(body) {
                            return Some(k);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        let mut chain: Vec<String> = Vec::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut cur = idx;
        loop {
            chain.push(format!("`{}`", self.fn_qual(cur)));
            visited.insert(cur);
            if let Some(kind) = first_collective(&self.fns[cur].effects) {
                return (chain.join(" -> "), kind);
            }
            let mut calls = Vec::new();
            collect_calls(&self.fns[cur].effects, &mut calls);
            let next = calls.iter().find_map(|(name, qual, _)| {
                self.resolve_relevant(name, qual.as_deref())
                    .into_iter()
                    .find(|c| !visited.contains(c))
            });
            match next {
                Some(n) => cur = n,
                None => return (chain.join(" -> "), "unknown"),
            }
        }
    }

    fn emit(
        &self,
        fn_idx: usize,
        rule: Rule,
        line: u32,
        message: String,
        diags: &mut Vec<Diagnostic>,
        seen: &mut BTreeSet<(Rule, PathBuf, u32)>,
    ) {
        let file = &self.files[self.fns[fn_idx].file];
        if !seen.insert((rule, file.path.clone(), line)) {
            return;
        }
        let snippet = file.snippet_at(line);
        diags.push(Diagnostic {
            rule,
            path: file.path.clone(),
            line,
            fn_name: Some(self.fn_qual(fn_idx).to_string()),
            message,
            snippet,
        });
    }

    /// R7: every field of each `[[checkpoint]]` struct must be mentioned
    /// by its serializer. Errors on config that names unknown items.
    pub fn check_checkpoints(
        &self,
        specs: &[crate::config::CheckpointSpec],
    ) -> Result<Vec<Diagnostic>, String> {
        let mut diags = Vec::new();
        for spec in specs {
            let mut found_struct = None;
            for (fi, f) in self.files.iter().enumerate() {
                if let Some(s) = f.parsed.structs.iter().find(|s| s.name == spec.struct_name) {
                    found_struct = Some((fi, s));
                    break;
                }
            }
            let Some((fi, st)) = found_struct else {
                return Err(format!(
                    "[[checkpoint]] names unknown struct `{}`",
                    spec.struct_name
                ));
            };
            // Union the ident sets of every function matching each listed
            // encoder name (qual-exact first, bare-name fallback): a struct
            // serialized in sections is covered by its section encoders
            // together.
            let mut idents: BTreeSet<&str> = BTreeSet::new();
            for encoder in spec.encoder.split(',').map(str::trim) {
                let cands: &[usize] = if encoder.contains("::") {
                    self.by_qual.get(encoder).map_or(&[], Vec::as_slice)
                } else {
                    self.by_name.get(encoder).map_or(&[], Vec::as_slice)
                };
                if cands.is_empty() {
                    return Err(format!(
                        "[[checkpoint]] names unknown encoder `{encoder}` for struct `{}`",
                        spec.struct_name
                    ));
                }
                for &c in cands {
                    let rec = &self.fns[c];
                    let file = &self.files[rec.file];
                    let item = &file.parsed.fns[rec.item];
                    for t in &file.toks[item.body_open..=item.body_close.min(file.toks.len() - 1)] {
                        if t.kind == TokKind::Ident {
                            idents.insert(&t.text);
                        }
                    }
                }
            }
            let sfile = &self.files[fi];
            for (field, line) in &st.fields {
                if !idents.contains(field.as_str()) {
                    diags.push(Diagnostic {
                        rule: Rule::CheckpointCompleteness,
                        path: sfile.path.clone(),
                        line: *line,
                        fn_name: None,
                        message: format!(
                            "field `{field}` of checkpointed struct `{}` is never \
                             mentioned by serializer `{}` — restored state would \
                             silently lose it; encode the field or allowlist it \
                             with the reconstruction argument",
                            spec.struct_name, spec.encoder
                        ),
                        snippet: sfile.snippet_at(*line),
                    });
                }
            }
        }
        Ok(diags)
    }
}

/// All call effects in a subtree, in textual order.
pub fn collect_calls(effects: &[Effect], out: &mut Vec<(String, Option<String>, u32)>) {
    for e in effects {
        match e {
            Effect::Call { name, qual, line } => out.push((name.clone(), qual.clone(), *line)),
            Effect::Branch { arms, .. } => {
                for a in arms {
                    collect_calls(a, out);
                }
            }
            Effect::Loop { body, .. } => collect_calls(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Analysis {
        let files = vec![(PathBuf::from("src/lib.rs"), src.to_string())];
        Analysis::build([("infomap-distributed", files.as_slice())])
    }

    #[test]
    fn symmetric_rank_branch_is_clean() {
        let src = r#"
fn run(c: &mut Comm, rank: usize) {
    if rank == 0 {
        c.allreduce_u64(1, Op::Min);
    } else {
        c.allreduce_u64(2, Op::Min);
    }
}
"#;
        let mut a = analyze(src);
        assert!(a.check_divergence().is_empty());
    }

    #[test]
    fn transitive_divergence_is_r6() {
        let src = r#"
fn helper(c: &mut Comm) {
    c.allreduce_u64(1, Op::Min);
}
fn run(c: &mut Comm, rank: usize) {
    if rank == 0 {
        helper(c);
    }
}
"#;
        let mut a = analyze(src);
        let d = a.check_divergence();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::DivergentCollectiveTransitive);
        assert!(d[0].message.contains("`helper`"));
        assert_eq!(d[0].fn_name.as_deref(), Some("run"));
    }

    #[test]
    fn direct_divergence_is_r1() {
        let src = r#"
fn run(c: &mut Comm, rank: usize) {
    if rank == 0 {
        c.barrier();
    }
    c.allreduce_u64(1, Op::Min);
}
"#;
        let mut a = analyze(src);
        let d = a.check_divergence();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::DivergentCollective);
    }

    #[test]
    fn symmetric_transitive_branch_is_clean() {
        let src = r#"
fn sync(c: &mut Comm) { c.barrier(); }
fn run(c: &mut Comm, rank: usize) {
    if rank == 0 { sync(c); } else { sync(c); }
}
"#;
        let mut a = analyze(src);
        assert!(a.check_divergence().is_empty());
    }

    #[test]
    fn rank_keyed_loop_flags_collectives() {
        let src = r#"
fn run(c: &mut Comm, rank: usize) {
    for _ in 0..rank {
        c.barrier();
    }
}
"#;
        let mut a = analyze(src);
        let d = a.check_divergence();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::DivergentCollective);
    }

    #[test]
    fn match_arms_compare_shapes() {
        let src = r#"
fn run(c: &mut Comm, rank: usize) {
    match rank {
        0 => {
            c.barrier();
            c.allgatherv(&x)
        }
        _ => {
            c.barrier();
        }
    }
}
"#;
        let mut a = analyze(src);
        let d = a.check_divergence();
        // Both arms' collectives are flagged (the shapes differ).
        assert!(d.iter().any(|x| x.rule == Rule::DivergentCollective));
        assert_eq!(d.len(), 3);
    }
}
