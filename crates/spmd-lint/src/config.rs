//! The checked-in config (`spmd-lint.toml`) and its minimal TOML-subset
//! reader.
//!
//! Three table kinds are supported: `[[allow]]` (justified rule
//! suppressions), `[[entry]]` (SPMD entry points the static schedule is
//! emitted for), and `[[checkpoint]]` (struct ↔ serializer pairs checked
//! by R7). Values are `key = "string"`; `#` starts a
//! comment. Every allow entry must carry a non-empty `justification` —
//! an allowlist entry is a reviewed claim that the flagged site provably
//! cannot break determinism, and the claim has to be written down.

use std::cell::Cell;
use std::path::Path;

use crate::diag::{Diagnostic, Rule};

#[derive(Debug)]
pub struct AllowEntry {
    pub rule: Rule,
    /// Matched as a suffix of the diagnostic's (workspace-relative) path.
    pub path: String,
    /// Optional substring the flagged source line must contain. Survives
    /// unrelated edits above the site.
    pub contains: Option<String>,
    /// Optional function-scope anchor (`fn = "run_rank"` or
    /// `fn = "RankProgram::run_rank"`): the diagnostic must sit inside
    /// that function. Survives any edit that does not move the site out
    /// of the function.
    pub fn_name: Option<String>,
    pub justification: String,
    /// Audit trail: set when a diagnostic matched this entry.
    used: Cell<bool>,
}

/// One `[[entry]]`: an SPMD entry point for schedule emission.
#[derive(Debug, Clone)]
pub struct EntrySpec {
    /// Bare or impl-qualified function name.
    pub fn_name: String,
    /// Optional crate restriction (package name, e.g.
    /// `infomap-distributed`).
    pub crate_name: Option<String>,
}

/// One `[[checkpoint]]`: a struct whose fields must all be covered by its
/// serializer (R7).
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    pub struct_name: String,
    /// Bare or impl-qualified serializer function name — or several,
    /// comma-separated, whose bodies cover the struct between them.
    pub encoder: String,
}

/// The parsed `spmd-lint.toml`: allowlist + analysis configuration.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    pub entry_points: Vec<EntrySpec>,
    pub checkpoints: Vec<CheckpointSpec>,
}

/// Which table a `key = value` line belongs to.
enum Table {
    Allow {
        rule: Option<Rule>,
        path: Option<String>,
        contains: Option<String>,
        fn_name: Option<String>,
        justification: Option<String>,
    },
    Entry {
        fn_name: Option<String>,
        crate_name: Option<String>,
    },
    Checkpoint {
        struct_name: Option<String>,
        encoder: Option<String>,
    },
}

impl Allowlist {
    /// Parse `spmd-lint.toml` content. Returns `Err` with a line-numbered
    /// message on malformed input or a missing justification.
    pub fn parse(src: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        let mut cur: Option<Table> = None;

        fn flush(
            cur: &mut Option<Table>,
            out: &mut Allowlist,
            at_line: usize,
        ) -> Result<(), String> {
            match cur.take() {
                None => Ok(()),
                Some(Table::Allow {
                    rule,
                    path,
                    contains,
                    fn_name,
                    justification,
                }) => {
                    let rule = rule.ok_or(format!(
                        "allow entry before line {at_line} is missing `rule`"
                    ))?;
                    let path = path.ok_or(format!(
                        "allow entry before line {at_line} is missing `path`"
                    ))?;
                    let justification =
                        justification
                            .filter(|j| !j.trim().is_empty())
                            .ok_or(format!(
                        "allow entry before line {at_line} is missing a non-empty `justification`"
                    ))?;
                    out.entries.push(AllowEntry {
                        rule,
                        path,
                        contains,
                        fn_name,
                        justification,
                        used: Cell::new(false),
                    });
                    Ok(())
                }
                Some(Table::Entry {
                    fn_name,
                    crate_name,
                }) => {
                    let fn_name = fn_name
                        .ok_or(format!("[[entry]] before line {at_line} is missing `fn`"))?;
                    out.entry_points.push(EntrySpec {
                        fn_name,
                        crate_name,
                    });
                    Ok(())
                }
                Some(Table::Checkpoint {
                    struct_name,
                    encoder,
                }) => {
                    let struct_name = struct_name.ok_or(format!(
                        "[[checkpoint]] before line {at_line} is missing `struct`"
                    ))?;
                    let encoder = encoder.ok_or(format!(
                        "[[checkpoint]] before line {at_line} is missing `encoder`"
                    ))?;
                    out.checkpoints.push(CheckpointSpec {
                        struct_name,
                        encoder,
                    });
                    Ok(())
                }
            }
        }

        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            match line.as_str() {
                "[[allow]]" => {
                    flush(&mut cur, &mut out, lineno)?;
                    cur = Some(Table::Allow {
                        rule: None,
                        path: None,
                        contains: None,
                        fn_name: None,
                        justification: None,
                    });
                    continue;
                }
                "[[entry]]" => {
                    flush(&mut cur, &mut out, lineno)?;
                    cur = Some(Table::Entry {
                        fn_name: None,
                        crate_name: None,
                    });
                    continue;
                }
                "[[checkpoint]]" => {
                    flush(&mut cur, &mut out, lineno)?;
                    cur = Some(Table::Checkpoint {
                        struct_name: None,
                        encoder: None,
                    });
                    continue;
                }
                _ => {}
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unsupported table `{line}`"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            let slot = cur
                .as_mut()
                .ok_or(format!("line {lineno}: `{key}` outside a table entry"))?;
            match slot {
                Table::Allow {
                    rule,
                    path,
                    contains,
                    fn_name,
                    justification,
                } => match key {
                    "rule" => {
                        let s = parse_string(value, lineno)?;
                        *rule = Some(
                            Rule::from_code(&s)
                                .ok_or(format!("line {lineno}: unknown rule `{s}`"))?,
                        );
                    }
                    "path" => *path = Some(parse_string(value, lineno)?),
                    "contains" => *contains = Some(parse_string(value, lineno)?),
                    "fn" => *fn_name = Some(parse_string(value, lineno)?),
                    "justification" => *justification = Some(parse_string(value, lineno)?),
                    other => return Err(format!("line {lineno}: unknown key `{other}`")),
                },
                Table::Entry {
                    fn_name,
                    crate_name,
                } => match key {
                    "fn" => *fn_name = Some(parse_string(value, lineno)?),
                    "crate" => *crate_name = Some(parse_string(value, lineno)?),
                    other => {
                        return Err(format!("line {lineno}: unknown key `{other}` in [[entry]]"))
                    }
                },
                Table::Checkpoint {
                    struct_name,
                    encoder,
                } => match key {
                    "struct" => *struct_name = Some(parse_string(value, lineno)?),
                    "encoder" => *encoder = Some(parse_string(value, lineno)?),
                    other => {
                        return Err(format!(
                            "line {lineno}: unknown key `{other}` in [[checkpoint]]"
                        ))
                    }
                },
            }
        }
        flush(&mut cur, &mut out, src.lines().count() + 1)?;
        Ok(out)
    }

    pub fn load(path: &Path) -> Result<Allowlist, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&src)
    }

    /// Does any entry cover this diagnostic? Marks the matching entry used.
    pub fn covers(&self, d: &Diagnostic) -> bool {
        let dpath = d.path.to_string_lossy().replace('\\', "/");
        for e in &self.entries {
            if e.rule != d.rule || !dpath.ends_with(e.path.as_str()) {
                continue;
            }
            if let Some(c) = &e.contains {
                if !d.snippet.contains(c.as_str()) {
                    continue;
                }
            }
            if let Some(f) = &e.fn_name {
                // `fn = "run_rank"` matches both the bare and the
                // impl-qualified diagnostic attribution.
                let hit = match &d.fn_name {
                    Some(df) => df == f || df.ends_with(&format!("::{f}")),
                    None => false,
                };
                if !hit {
                    continue;
                }
            }
            e.used.set(true);
            return true;
        }
        false
    }

    /// Entries that never matched a diagnostic — stale claims to prune.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used.get()).collect()
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a quoted string must not start a comment.
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
        return Err(format!(
            "line {lineno}: expected a double-quoted string, got `{v}`"
        ));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diag(rule: Rule, path: &str, line: u32, fn_name: Option<&str>, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: PathBuf::from(path),
            line,
            fn_name: fn_name.map(|s| s.to_string()),
            message: String::new(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn parses_entries_and_matches_suffix_and_contains() {
        let toml = r#"
# comment
[[allow]]
rule = "R2"
path = "crates/core/src/directed.rs"
contains = "merged.into_iter()"
justification = "drained into a Vec that is sorted on the next line"
"#;
        let al = Allowlist::parse(toml).unwrap();
        assert_eq!(al.entries.len(), 1);
        let d = diag(
            Rule::UnorderedIteration,
            "crates/core/src/directed.rs",
            82,
            Some("DirectedNetwork::from_edges"),
            "let mut arcs: Vec<_> = merged.into_iter().collect();",
        );
        assert!(al.covers(&d));
        assert!(al.unused().is_empty());
    }

    #[test]
    fn fn_anchor_matches_bare_and_qualified() {
        let toml = r#"
[[allow]]
rule = "R1"
path = "driver.rs"
fn = "run_rank"
justification = "j"
"#;
        let al = Allowlist::parse(toml).unwrap();
        let inside = diag(
            Rule::DivergentCollective,
            "crates/distributed/src/driver.rs",
            470,
            Some("RankProgram::run_rank"),
            "c.allreduce_u64(word, ReduceOp::Min)",
        );
        assert!(al.covers(&inside));
        let elsewhere = diag(
            Rule::DivergentCollective,
            "crates/distributed/src/driver.rs",
            90,
            Some("RankProgram::prepare"),
            "c.allreduce_u64(word, ReduceOp::Min)",
        );
        assert!(!al.covers(&elsewhere));
        let unattributed = diag(
            Rule::DivergentCollective,
            "crates/distributed/src/driver.rs",
            470,
            None,
            "c.allreduce_u64(word, ReduceOp::Min)",
        );
        assert!(!al.covers(&unattributed));
    }

    #[test]
    fn entry_and_checkpoint_tables_parse() {
        let toml = r#"
[[entry]]
fn = "RankProgram::run_rank"
crate = "infomap-distributed"

[[checkpoint]]
struct = "LocalState"
encoder = "encode_state"
"#;
        let al = Allowlist::parse(toml).unwrap();
        assert_eq!(al.entry_points.len(), 1);
        assert_eq!(al.entry_points[0].fn_name, "RankProgram::run_rank");
        assert_eq!(
            al.entry_points[0].crate_name.as_deref(),
            Some("infomap-distributed")
        );
        assert_eq!(al.checkpoints.len(), 1);
        assert_eq!(al.checkpoints[0].struct_name, "LocalState");
        assert_eq!(al.checkpoints[0].encoder, "encode_state");
    }

    #[test]
    fn missing_justification_is_an_error() {
        let toml = "[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\n";
        assert!(Allowlist::parse(toml).is_err());
    }

    #[test]
    fn line_pins_are_rejected_with_the_offending_line() {
        let toml = "[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\nline = 5\njustification = \"j\"\n";
        let err = Allowlist::parse(toml).unwrap_err();
        assert_eq!(err, "line 4: unknown key `line`");
    }

    #[test]
    fn missing_entry_fn_is_an_error() {
        assert!(Allowlist::parse("[[entry]]\ncrate = \"c\"\n").is_err());
    }

    #[test]
    fn wrong_rule_or_snippet_does_not_match() {
        let toml = "[[allow]]\nrule = \"R2\"\npath = \"a.rs\"\ncontains = \"zzz\"\njustification = \"j\"\n";
        let al = Allowlist::parse(toml).unwrap();
        let d = diag(
            Rule::UnorderedIteration,
            "crates/x/src/a.rs",
            1,
            None,
            "for k in map.keys() {",
        );
        assert!(!al.covers(&d));
        assert_eq!(al.unused().len(), 1);
    }
}
