//! Static collective-schedule emission (`spmd-lint -- --emit-schedule`).
//!
//! The inferred effect summary of each configured SPMD entry point is
//! serialized as a JSON automaton description that
//! `infomap_mpisim::schedule` compiles into an NFA and checks the runtime
//! `ScheduleStamp` trace against. Node kinds:
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

/// Emit the static schedule JSON for the configured entry points.
pub fn emit_schedule(a: &mut Analysis, entries: &[EntrySpec]) -> Result<String, String> {
    if entries.is_empty() {
        return Err("no [[entry]] points configured (spmd-lint.toml) and no --entry given".into());
    }
    let mut out_entries: Vec<Json> = Vec::new();
    for spec in entries {
        let idx = a.find_entry(&spec.fn_name, spec.crate_name.as_deref())?;
        let mut stack = vec![idx];
        let effects = std::mem::take(&mut a.fns[idx].effects);
        let body = node_of_effects(a, &effects, &mut stack);
        a.fns[idx].effects = effects;
        out_entries.push(Json::Obj(vec![
            ("fn", Json::Str(a.fn_qual(idx).to_string())),
            ("crate", Json::Str(a.fn_crate(idx).to_string())),
            ("schedule", body),
        ]));
    }
    Ok(Json::Obj(vec![
        ("version", Json::Num(1)),
        ("entries", Json::Arr(out_entries)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn analysis(src: &str) -> Analysis {
        let files = vec![(PathBuf::from("src/lib.rs"), src.to_string())];
        Analysis::build([("infomap-distributed", files.as_slice())])
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
        let mut a = analysis(src);
        let json = emit_schedule(
            &mut a,
            &[EntrySpec {
                fn_name: "run".into(),
                crate_name: None,
            }],
        )
        .unwrap();
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
        let mut a = analysis(src);
        let json = emit_schedule(
            &mut a,
            &[EntrySpec {
                fn_name: "run".into(),
                crate_name: None,
            }],
        )
        .unwrap();
        assert!(json.contains("\"t\":\"loop\""));
        assert!(json.contains("\"t\":\"alt\""));
        assert!(json.contains("\"kind\":\"alltoallv\""));
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let mut a = analysis("fn f() {}");
        assert!(emit_schedule(
            &mut a,
            &[EntrySpec {
                fn_name: "nope".into(),
                crate_name: None,
            }]
        )
        .is_err());
    }
}
