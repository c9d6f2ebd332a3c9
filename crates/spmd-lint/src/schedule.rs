//! The static collective schedule (`spmd-lint -- --emit-schedule`) and
//! the matcher that checks a recorded run against it.
//!
//! The inferred effect summary of each configured SPMD entry point is a
//! node tree. [`Schedule::to_json`] renders it as the golden-compared
//! artifact; [`Schedule::matcher`] compiles the same tree into an NFA over
//! collective kinds and [`Matcher::accepts`] checks that the kinds a rank
//! recorded (`Comm::enable_schedule_trace`) are a word of it. Node kinds:
//!
//! * `{"t":"seq","items":[..]}`   — sequential composition
//! * `{"t":"coll","kind":"..."}`  — one collective (runtime stamp kind)
//! * `{"t":"alt","arms":[..]}`    — branch (match / if-else / overload set)
//! * `{"t":"loop","cont":b,"body":..}` — loop; bodies are prefix-closed at
//!   match time (a `break` anywhere is accepted), `cont` adds the
//!   continue back-edge
//! * `{"t":"fn","name":"...","body":..}` — inlined callee frame; `ret`
//!   targets the innermost enclosing frame's exit
//! * `{"t":"ret"}`                — early return
//!
//! Calls that cannot reach a collective are pruned, and so are `alt` and
//! `loop` nodes with no `coll` and no `ret` beneath them — nothing a trace
//! can observe — so an `if` or `for` that touches no collective does not
//! change the artifact. Recursion among collective-relevant functions
//! truncates to an empty `seq` (none exists in this workspace; the
//! conformance test would catch a miscompile).
//!
//! The static side over-approximates control flow (every branch arm is
//! possible, loops run any number of iterations, `break` may leave a loop
//! after any prefix of its body), so the automaton accepts a superset of
//! the schedules a real run can produce. A trace it *rejects* is therefore
//! always a genuine disagreement: either the analyzer miscompiled the
//! program or a rank issued a collective the static schedule says cannot
//! happen there.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::config::EntrySpec;
use crate::effects::{Analysis, Effect};

/// JSON value with deterministic member order.
pub enum Json {
    Obj(Vec<(&'static str, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(i64),
    Bool(bool),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn render(&self, out: &mut String) {
        match self {
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":");
                    v.render(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

fn seq(items: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("t", Json::Str("seq".into())),
        ("items", Json::Arr(items)),
    ])
}

/// Is there a `coll` or a `ret` in this subtree — anything a runtime trace
/// can tell apart from the empty schedule?
fn observable(node: &Json) -> bool {
    match node {
        Json::Obj(members) => members.iter().any(|(key, v)| match v {
            Json::Str(t) if *key == "t" => t == "coll" || t == "ret",
            _ => observable(v),
        }),
        Json::Arr(items) => items.iter().any(observable),
        _ => false,
    }
}

fn node_of_effects(a: &mut Analysis, effects: &[Effect], stack: &mut Vec<usize>) -> Json {
    let mut items: Vec<Json> = Vec::new();
    for e in effects {
        match e {
            Effect::Collective { kind, .. } => items.push(Json::Obj(vec![
                ("t", Json::Str("coll".into())),
                ("kind", Json::Str((*kind).into())),
            ])),
            Effect::Call { name, qual, .. } => {
                let cands: Vec<usize> = a
                    .resolve(name, qual.as_deref())
                    .iter()
                    .copied()
                    .filter(|&c| a.is_relevant_idx(c))
                    .collect();
                let mut frames: Vec<Json> = Vec::new();
                for c in cands {
                    if stack.contains(&c) {
                        continue;
                    }
                    stack.push(c);
                    let effects = std::mem::take(&mut a.fns[c].effects);
                    let body = node_of_effects(a, &effects, stack);
                    a.fns[c].effects = effects;
                    stack.pop();
                    frames.push(Json::Obj(vec![
                        ("t", Json::Str("fn".into())),
                        ("name", Json::Str(a.fn_qual(c).to_string())),
                        ("body", body),
                    ]));
                }
                match frames.len() {
                    0 => {}
                    1 => items.push(frames.pop().unwrap()),
                    _ => items.push(Json::Obj(vec![
                        ("t", Json::Str("alt".into())),
                        ("arms", Json::Arr(frames)),
                    ])),
                }
            }
            Effect::Branch { arms, .. } => {
                let arm_nodes: Vec<Json> = arms
                    .iter()
                    .map(|arm| node_of_effects(a, arm, stack))
                    .collect();
                if arm_nodes.iter().any(observable) {
                    items.push(Json::Obj(vec![
                        ("t", Json::Str("alt".into())),
                        ("arms", Json::Arr(arm_nodes)),
                    ]));
                }
            }
            Effect::Loop {
                body, has_continue, ..
            } => {
                let body_node = node_of_effects(a, body, stack);
                if observable(&body_node) {
                    items.push(Json::Obj(vec![
                        ("t", Json::Str("loop".into())),
                        ("cont", Json::Bool(*has_continue)),
                        ("body", body_node),
                    ]));
                }
            }
            Effect::Return { .. } => items.push(Json::Obj(vec![("t", Json::Str("ret".into()))])),
            Effect::Try { .. } => items.push(Json::Obj(vec![
                ("t", Json::Str("alt".into())),
                (
                    "arms",
                    Json::Arr(vec![
                        Json::Obj(vec![("t", Json::Str("ret".into()))]),
                        seq(Vec::new()),
                    ]),
                ),
            ])),
            Effect::Continue { .. } => {}
        }
    }
    if items.len() == 1 {
        items.pop().unwrap()
    } else {
        seq(items)
    }
}

/// The inferred schedules of the configured entry points: the root of
/// the artifact, `{"version":1,"entries":[{"fn","crate","schedule"}..]}`.
pub struct Schedule(Json);

impl Schedule {
    /// Infer the schedule node tree of every entry point in `entries`.
    pub fn infer(a: &mut Analysis, entries: &[EntrySpec]) -> Result<Schedule, String> {
        if entries.is_empty() {
            return Err("no [[entry]] points configured (spmd-lint.toml)".into());
        }
        let mut out = Vec::new();
        for spec in entries {
            let idx = a.find_entry(&spec.fn_name, spec.crate_name.as_deref())?;
            let mut stack = vec![idx];
            let effects = std::mem::take(&mut a.fns[idx].effects);
            let node = node_of_effects(a, &effects, &mut stack);
            a.fns[idx].effects = effects;
            out.push(Json::Obj(vec![
                ("fn", Json::Str(a.fn_qual(idx).to_string())),
                ("crate", Json::Str(a.fn_crate(idx).to_string())),
                ("schedule", node),
            ]));
        }
        Ok(Schedule(Json::Obj(vec![
            ("version", Json::Num(1)),
            ("entries", Json::Arr(out)),
        ])))
    }

    /// The schedule artifact: one line of JSON, members in a fixed order.
    pub fn to_json(&self) -> String {
        self.0.to_string()
    }

    /// A matcher for the entry point `fn_name` (its impl-qualified name).
    pub fn matcher(&self, fn_name: &str) -> Result<Matcher, String> {
        let Some(Json::Arr(entries)) = self.0.get("entries") else {
            unreachable!("`infer` builds the root with an `entries` array");
        };
        let node = entries
            .iter()
            .find(|e| matches!(e.get("fn"), Some(Json::Str(name)) if name == fn_name))
            .and_then(|e| e.get("schedule"))
            .ok_or_else(|| format!("no schedule entry for `{fn_name}`"))?;
        Matcher::compile(node)
    }
}

/// Thompson-style NFA over collective kinds.
#[derive(Default)]
struct Nfa {
    /// Per-state epsilon successors.
    eps: Vec<Vec<usize>>,
    /// Per-state labeled transitions `(kind, target)`.
    steps: Vec<Vec<(String, usize)>>,
}

impl Nfa {
    fn state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        self.eps.len() - 1
    }

    /// Compile `node` starting at state `from`; returns the fragment's
    /// exit state. `exits` is the stack of enclosing `fn`-frame exit
    /// states: `ret` jumps to its top, which is how an early return deep
    /// in a callee skips the rest of that callee only.
    fn compile(
        &mut self,
        node: &Json,
        from: usize,
        exits: &mut Vec<usize>,
    ) -> Result<usize, String> {
        let Some(Json::Str(t)) = node.get("t") else {
            return Err("schedule node is missing `t`".into());
        };
        let child = |key: &str| {
            node.get(key)
                .ok_or_else(|| format!("schedule `{t}` node is missing `{key}`"))
        };
        let children = |key: &str| match child(key)? {
            Json::Arr(items) => Ok(items.as_slice()),
            _ => Err(format!("schedule `{t}` node: `{key}` is not an array")),
        };
        match t.as_str() {
            "seq" => {
                let mut cur = from;
                for item in children("items")? {
                    cur = self.compile(item, cur, exits)?;
                }
                Ok(cur)
            }
            "coll" => {
                let Json::Str(kind) = child("kind")? else {
                    return Err("schedule `coll` node has a non-string `kind`".into());
                };
                let to = self.state();
                self.steps[from].push((kind.clone(), to));
                Ok(to)
            }
            "alt" => {
                let arms = children("arms")?;
                let join = self.state();
                for arm in arms {
                    let s = self.state();
                    self.eps[from].push(s);
                    let e = self.compile(arm, s, exits)?;
                    self.eps[e].push(join);
                }
                if arms.is_empty() {
                    self.eps[from].push(join);
                }
                Ok(join)
            }
            "loop" => {
                let cont = matches!(node.get("cont"), Some(Json::Bool(true)));
                let head = self.state();
                let exit = self.state();
                self.eps[from].push(head);
                // Zero iterations.
                self.eps[head].push(exit);
                let body_lo = self.eps.len();
                let body_end = self.compile(child("body")?, head, exits)?;
                let body_hi = self.eps.len();
                // Next iteration.
                self.eps[body_end].push(head);
                // Prefix-close the body: `break` can leave after any prefix,
                // and — when the body contains `continue` — any prefix can
                // also restart at the head. Both edges only ever *add*
                // accepted words, keeping the over-approximation sound.
                for q in body_lo..body_hi {
                    self.eps[q].push(exit);
                    if cont {
                        self.eps[q].push(head);
                    }
                }
                Ok(exit)
            }
            "fn" => {
                let exit = self.state();
                exits.push(exit);
                let end = self.compile(child("body")?, from, exits)?;
                exits.pop();
                self.eps[end].push(exit);
                Ok(exit)
            }
            "ret" => {
                let target = *exits.last().expect("exit stack never empty");
                self.eps[from].push(target);
                // The continuation after an unconditional return is
                // unreachable; give it a fresh dead state.
                Ok(self.state())
            }
            other => Err(format!("unknown schedule node kind `{other}`")),
        }
    }
}

/// One entry point's schedule, compiled: checks recorded collective
/// traces by set-of-states simulation.
pub struct Matcher {
    nfa: Nfa,
    start: usize,
    accept: usize,
}

impl Matcher {
    /// Compile a schedule node tree.
    fn compile(node: &Json) -> Result<Matcher, String> {
        let mut nfa = Nfa::default();
        let start = nfa.state();
        let accept = nfa.state();
        let end = nfa.compile(node, start, &mut vec![accept])?;
        nfa.eps[end].push(accept);
        Ok(Matcher { nfa, start, accept })
    }

    /// Extend `live` by everything reachable over epsilon edges.
    fn close(&self, live: &mut BTreeSet<usize>) {
        let mut work: Vec<usize> = live.iter().copied().collect();
        while let Some(q) = work.pop() {
            for &n in &self.nfa.eps[q] {
                if live.insert(n) {
                    work.push(n);
                }
            }
        }
    }

    /// Check one rank's whole trace: every prefix must stay live and the
    /// full word must end in the accept state. `Err` names the index and
    /// kind of the first collective no schedule path explains, or says
    /// that the trace stopped mid-schedule.
    pub fn accepts(&self, trace: &[&str]) -> Result<(), String> {
        let mut live = BTreeSet::from([self.start]);
        self.close(&mut live);
        for (i, kind) in trace.iter().enumerate() {
            live = live
                .iter()
                .flat_map(|&q| &self.nfa.steps[q])
                .filter(|(label, _)| label == kind)
                .map(|&(_, to)| to)
                .collect();
            if live.is_empty() {
                return Err(format!(
                    "collective #{i} `{kind}` is not explained by the static schedule"
                ));
            }
            self.close(&mut live);
        }
        if live.contains(&self.accept) {
            Ok(())
        } else {
            Err(format!(
                "trace of {} collectives ended mid-schedule (no accept state reachable)",
                trace.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn emit(src: &str, entry: &str) -> Result<String, String> {
        let files = vec![(PathBuf::from("src/lib.rs"), src.to_string())];
        let mut a = Analysis::build([("infomap-distributed", files.as_slice())]);
        let spec = EntrySpec {
            fn_name: entry.into(),
            crate_name: None,
        };
        Schedule::infer(&mut a, &[spec]).map(|s| s.to_json())
    }

    #[test]
    fn schedule_inlines_relevant_calls_and_prunes_irrelevant() {
        let src = r#"
fn log(x: u64) {}
fn sync(c: &mut Comm) { c.barrier(); }
fn run(c: &mut Comm) {
    log(1);
    sync(c);
    c.allreduce_u64(1, Op::Min);
}
"#;
        let json = emit(src, "run").unwrap();
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("\"fn\":\"run\""));
        assert!(json.contains("\"name\":\"sync\""));
        assert!(json.contains("\"kind\":\"barrier\""));
        assert!(json.contains("\"kind\":\"allreduce_u64\""));
        assert!(!json.contains("log"));
    }

    #[test]
    fn loops_and_branches_shape_the_automaton() {
        let src = r#"
fn run(c: &mut Comm, n: usize) {
    for _ in 0..n {
        if c.changed() {
            c.allgatherv(&x);
        } else {
            c.alltoallv(&y);
        }
    }
}
"#;
        let json = emit(src, "run").unwrap();
        assert!(json.contains("\"t\":\"loop\""));
        assert!(json.contains("\"t\":\"alt\""));
        assert!(json.contains("\"kind\":\"alltoallv\""));
    }

    #[test]
    fn unknown_entry_is_an_error() {
        assert!(emit("fn f() {}", "nope").is_err());
    }

    // ---- matcher semantics, over hand-built node trees ----------------

    fn node(t: &str, rest: Vec<(&'static str, Json)>) -> Json {
        let mut members = vec![("t", Json::Str(t.into()))];
        members.extend(rest);
        Json::Obj(members)
    }

    fn coll(kind: &str) -> Json {
        node("coll", vec![("kind", Json::Str(kind.into()))])
    }

    fn alt(arms: Vec<Json>) -> Json {
        node("alt", vec![("arms", Json::Arr(arms))])
    }

    fn looped(cont: bool, body: Json) -> Json {
        node("loop", vec![("cont", Json::Bool(cont)), ("body", body)])
    }

    /// `alt(ret, seq[])`: what the emitter renders a `?` or a guarded
    /// early `return` as.
    fn maybe_ret() -> Json {
        alt(vec![node("ret", vec![]), seq(vec![])])
    }

    fn accepts(schedule: &Json, trace: &[&str]) -> Result<(), String> {
        Matcher::compile(schedule).unwrap().accepts(trace)
    }

    #[test]
    fn seq_matches_exact_word_only() {
        let s = seq(vec![coll("barrier"), coll("allgatherv")]);
        assert!(accepts(&s, &["barrier", "allgatherv"]).is_ok());
        assert!(accepts(&s, &["allgatherv", "barrier"]).is_err());
    }

    #[test]
    fn a_trace_that_stops_mid_schedule_is_rejected() {
        let s = seq(vec![coll("barrier"), coll("allgatherv")]);
        let err = accepts(&s, &["barrier"]).unwrap_err();
        assert!(err.contains("ended mid-schedule"), "{err}");
    }

    #[test]
    fn rejection_names_the_first_unexplained_collective() {
        let s = seq(vec![coll("barrier"), coll("allreduce_u64")]);
        let err = accepts(&s, &["barrier", "barrier"]).unwrap_err();
        assert!(err.contains("#1 `barrier`"), "{err}");
    }

    #[test]
    fn alt_accepts_either_arm() {
        let s = alt(vec![coll("barrier"), coll("broadcast")]);
        assert!(accepts(&s, &["barrier"]).is_ok());
        assert!(accepts(&s, &["broadcast"]).is_ok());
        assert!(accepts(&s, &["allgatherv"]).is_err());
    }

    #[test]
    fn loop_accepts_zero_or_more_and_break_prefixes() {
        let s = looped(false, seq(vec![coll("allgatherv"), coll("alltoallv")]));
        assert!(accepts(&s, &[]).is_ok());
        assert!(accepts(&s, &["allgatherv", "alltoallv", "allgatherv", "alltoallv"]).is_ok());
        // break after the first half of an iteration
        assert!(accepts(&s, &["allgatherv", "alltoallv", "allgatherv"]).is_ok());
        assert!(accepts(&s, &["alltoallv"]).is_err());
        // without `continue` in the body, a prefix cannot restart it
        assert!(accepts(&s, &["allgatherv", "allgatherv", "alltoallv"]).is_err());
    }

    #[test]
    fn continue_restarts_the_body() {
        let s = looped(true, seq(vec![coll("allgatherv"), coll("alltoallv")]));
        // continue after the first collective, then a full iteration
        assert!(accepts(&s, &["allgatherv", "allgatherv", "alltoallv"]).is_ok());
    }

    #[test]
    fn ret_skips_the_rest_of_the_enclosing_fn_only() {
        // run = fn f { alt(ret, seq[]) ; barrier } ; broadcast
        let f = node(
            "fn",
            vec![
                ("name", Json::Str("f".into())),
                ("body", seq(vec![maybe_ret(), coll("barrier")])),
            ],
        );
        let s = seq(vec![f, coll("broadcast")]);
        // early return inside f: skip f's barrier, still do broadcast
        assert!(accepts(&s, &["broadcast"]).is_ok());
        // no early return: barrier then broadcast
        assert!(accepts(&s, &["barrier", "broadcast"]).is_ok());
        // broadcast cannot be skipped by the ret inside f
        assert!(accepts(&s, &["barrier"]).is_err());
    }

    #[test]
    fn top_level_ret_ends_the_schedule() {
        let s = seq(vec![maybe_ret(), coll("barrier")]);
        assert!(accepts(&s, &[]).is_ok());
        assert!(accepts(&s, &["barrier"]).is_ok());
    }

    #[test]
    fn unknown_and_malformed_nodes_error() {
        assert!(Matcher::compile(&node("wat", vec![])).is_err());
        assert!(Matcher::compile(&node("coll", vec![])).is_err());
        assert!(Matcher::compile(&Json::Arr(vec![])).is_err());
    }
}
