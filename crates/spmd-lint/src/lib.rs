//! spmd-lint: workspace static analysis enforcing the SPMD determinism
//! invariants this reproduction's guarantees rest on (DESIGN.md note 14).
//!
//! Four rule classes, each with a runtime counterpart or test that
//! validates what the static rule claims:
//!
//! * **R1 divergent-collective** / **R6 divergent-collective-transitive**
//!   — every rank must execute the same collective schedule (the paper's
//!   synchronized `Module_Info` exchange only converges under this);
//!   collectives reachable, directly (R1) or through calls (R6), inside
//!   rank-keyed conditionals whose arms disagree are flagged. mpisim's
//!   always-on frame stamp is the dynamic counterpart.
//! * **R2 unordered-iteration** — `HashMap`/`HashSet` iteration order is
//!   nondeterministic across processes; when it reaches wire bytes,
//!   election order, or an f64 fold, bit-identity dies (same MDL summed in
//!   a different order is a different MDL).
//! * **R7 checkpoint-completeness** — a field of a checkpointed struct
//!   its serializer never mentions is silently lost on recovery.
//!
//! One path leads from source text to a diagnostic: `lexer` → `parse` →
//! `effects` (R1/R6/R7) and `rules` (R2). Findings are suppressed only by
//! `spmd-lint.toml` entries carrying a written justification; a finding
//! that survives, or an entry that matches nothing, fails the run.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod effects;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod schedule;

use std::path::{Path, PathBuf};

pub use config::{Allowlist, CheckpointSpec, EntrySpec};
pub use diag::{Diagnostic, Rule};
pub use effects::Analysis;
pub use schedule::{Matcher, Schedule};

/// One crate's worth of sources, as discovered by [`workspace_crates`].
#[derive(Debug)]
pub struct CrateSources {
    pub name: String,
    /// `(workspace-relative path, contents)` pairs, sorted by path.
    pub files: Vec<(PathBuf, String)>,
}

/// The full lint result: diagnostics split by allowlist coverage.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist, sorted by (path, line, rule).
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<Diagnostic>,
}

/// Discover workspace members: every `crates/*` directory with a
/// `Cargo.toml` and a `src/`, plus the umbrella package at the root.
/// Returns crates sorted by name; file lists sorted by path. Test,
/// bench, and example trees are deliberately out of scope — fixtures and
/// tests exercise divergence on purpose.
pub fn workspace_crates(root: &Path) -> Result<Vec<CrateSources>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() && path.join("src").is_dir() {
                dirs.push(path);
            }
        }
    }
    dirs.sort();
    for dir in dirs {
        let name = package_name(&dir.join("Cargo.toml"))?;
        let files = collect_rs_files(root, &dir.join("src"))?;
        out.push(CrateSources { name, files });
    }
    // Umbrella package at the workspace root.
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        let name = package_name(&root.join("Cargo.toml"))?;
        let files = collect_rs_files(root, &root.join("src"))?;
        out.push(CrateSources { name, files });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn package_name(manifest: &Path) -> Result<String, String> {
    let src = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut in_package = false;
    for line in src.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    return Ok(v.to_string());
                }
            }
        }
    }
    Err(format!("{}: no [package] name", manifest.display()))
}

fn collect_rs_files(root: &Path, dir: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?
        {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                files.push((rel, src));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Build the interprocedural analysis over every workspace crate.
pub fn workspace_analysis(crates: &[CrateSources]) -> Analysis {
    Analysis::build(crates.iter().map(|c| (c.name.as_str(), c.files.as_slice())))
}

/// Every rule over one analysis, sorted by (path, line, rule): R2, the
/// R1/R6 divergence check, and R7 for the configured `checkpoints`.
fn run_rules(
    analysis: &mut Analysis,
    checkpoints: &[CheckpointSpec],
) -> Result<Vec<Diagnostic>, String> {
    let mut diags = rules::check_unordered_iteration(&analysis.files);
    diags.extend(analysis.check_divergence());
    diags.extend(analysis.check_checkpoints(checkpoints)?);
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// Lint every workspace crate under `root`, filtering through `allow`.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<LintReport, String> {
    let mut analysis = workspace_analysis(&workspace_crates(root)?);
    let mut report = LintReport::default();
    for d in run_rules(&mut analysis, &allow.checkpoints)? {
        if allow.covers(&d) {
            report.allowed.push(d);
        } else {
            report.findings.push(d);
        }
    }
    Ok(report)
}

/// Infer the static collective schedule of the config's `[[entry]]`
/// points over `root`'s workspace.
pub fn workspace_schedule(root: &Path, allow: &Allowlist) -> Result<Schedule, String> {
    let mut analysis = workspace_analysis(&workspace_crates(root)?);
    Schedule::infer(&mut analysis, &allow.entry_points)
}

/// Lint a single source text as if it belonged to `crate_name` with the
/// full pipeline — the entry point the fixture tests use. Optional
/// `checkpoints` drive R7; naming an item the source lacks is a panic.
pub fn lint_source_with(
    crate_name: &str,
    path: &Path,
    source: &str,
    checkpoints: &[CheckpointSpec],
) -> Vec<Diagnostic> {
    let files = vec![(path.to_path_buf(), source.to_string())];
    let mut analysis = Analysis::build([(crate_name, files.as_slice())]);
    run_rules(&mut analysis, checkpoints).expect("checkpoint specs name items of the source")
}

/// Single-file lint with no R7 config.
pub fn lint_source(crate_name: &str, path: &Path, source: &str) -> Vec<Diagnostic> {
    lint_source_with(crate_name, path, source, &[])
}

/// Walk up from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(src) = std::fs::read_to_string(&manifest) {
                if src.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
