//! spmd-lint: workspace static analysis enforcing the SPMD determinism
//! invariants this reproduction's guarantees rest on (DESIGN.md note 14).
//!
//! Five rule classes, each with a runtime counterpart or test that
//! validates what the static rule claims:
//!
//! * **R1 divergent-collective** — every rank must execute the same
//!   collective schedule (the paper's synchronized `Module_Info` exchange
//!   only converges under this); collectives inside rank-keyed
//!   conditionals are flagged. mpisim's debug-mode schedule checker is the
//!   dynamic counterpart.
//! * **R2 unordered-iteration** — `HashMap`/`HashSet` iteration order is
//!   nondeterministic across processes; when it reaches wire bytes,
//!   election order, or f64 folds, bit-identity dies.
//! * **R3 nondeterministic-source** — wall clocks and ambient RNGs outside
//!   the cost model and benches break seeded replay.
//! * **R4 unmetered-send** — sends that bypass `WIRE_BYTES` metering make
//!   the byte counters (and the modeled makespans built on them) lie.
//! * **R5 float-accumulation** — `+=` f64 folds over unordered containers
//!   reorder rounding; same MDL in a different order is a different MDL.
//!
//! Findings are suppressed only by `spmd-lint.toml` entries carrying a
//! written justification.

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
pub use diag::{Diagnostic, Rule, Severity};
pub use effects::Analysis;

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

impl LintReport {
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.rule.severity() == Severity::Error)
            .count()
    }

    pub fn warning_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.rule.severity() == Severity::Warning)
            .count()
    }
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

/// Lint every workspace crate under `root`, filtering through `allow`:
/// the token-scan rules (R2–R5) plus the interprocedural R1/R6 divergence
/// check and the R7 checkpoint-completeness check.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<LintReport, String> {
    let crates = workspace_crates(root)?;
    let mut diags = Vec::new();
    for c in &crates {
        let files: Vec<(&Path, &str)> = c
            .files
            .iter()
            .map(|(p, s)| (p.as_path(), s.as_str()))
            .collect();
        diags.extend(rules::lint_crate(&c.name, &files));
    }
    let mut analysis = workspace_analysis(&crates);
    diags.extend(analysis.check_divergence());
    diags.extend(analysis.check_checkpoints(&allow.checkpoints)?);
    // Attribute every diagnostic to its enclosing function so fn-anchored
    // allowlist entries can match.
    for d in &mut diags {
        if d.fn_name.is_none() {
            d.fn_name = analysis.fn_name_at(&d.path, d.line);
        }
    }

    let mut report = LintReport::default();
    for d in diags {
        if allow.covers(&d) {
            report.allowed.push(d);
        } else {
            report.findings.push(d);
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
        .allowed
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Emit the static schedule JSON for `root`'s workspace. Entries come
/// from the config's `[[entry]]` tables plus `extra_entries`.
pub fn emit_workspace_schedule(
    root: &Path,
    allow: &Allowlist,
    extra_entries: &[EntrySpec],
) -> Result<String, String> {
    let crates = workspace_crates(root)?;
    let mut analysis = workspace_analysis(&crates);
    let mut entries: Vec<EntrySpec> = allow.entry_points.clone();
    entries.extend(extra_entries.iter().cloned());
    schedule::emit_schedule(&mut analysis, &entries)
}

/// Lint a single source text as if it belonged to `crate_name` with the
/// full pipeline — the entry point the fixture tests use. Optional
/// `checkpoints` drive R7.
pub fn lint_source_with(
    crate_name: &str,
    path: &Path,
    source: &str,
    checkpoints: &[CheckpointSpec],
) -> Vec<Diagnostic> {
    let mut diags = rules::lint_crate(crate_name, &[(path, source)]);
    let files = vec![(path.to_path_buf(), source.to_string())];
    let mut analysis = Analysis::build([(crate_name, files.as_slice())]);
    diags.extend(analysis.check_divergence());
    if let Ok(cp) = analysis.check_checkpoints(checkpoints) {
        diags.extend(cp);
    }
    for d in &mut diags {
        if d.fn_name.is_none() {
            d.fn_name = analysis.fn_name_at(&d.path, d.line);
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
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
