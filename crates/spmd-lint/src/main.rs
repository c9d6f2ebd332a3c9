//! `spmd-lint` CLI: `cargo run -p spmd-lint`.
//!
//! Exit status: 0 when clean (allowlisted findings are clean); 1 when any
//! finding survives the allowlist or any allowlist entry is stale (never
//! matched); 2 on usage/config errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use spmd_lint::{find_workspace_root, lint_workspace, workspace_schedule, Allowlist};

const USAGE: &str =
    "usage: spmd-lint [--root DIR] [--quiet] [--emit-schedule [--schedule-out FILE]]

  --root DIR         workspace root (default: walk up from cwd to [workspace]);
                     the config is DIR/spmd-lint.toml
  --quiet            print only the summary line
  --emit-schedule    print the static collective-schedule JSON and exit
  --schedule-out F   write the schedule JSON to F instead of stdout
";

fn main() -> ExitCode {
    let mut quiet = false;
    let mut emit_schedule = false;
    let mut schedule_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quiet" => quiet = true,
            "--emit-schedule" => emit_schedule = true,
            "--schedule-out" => match args.next() {
                Some(v) => schedule_out = Some(PathBuf::from(v)),
                None => return usage_error("--schedule-out needs a value"),
            },
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage_error("no workspace root found (pass --root)"),
    };

    let config = root.join("spmd-lint.toml");
    let allow = if config.is_file() {
        match Allowlist::load(&config) {
            Ok(a) => a,
            Err(e) => return config_error(&format!("bad config: {e}")),
        }
    } else {
        Allowlist::default()
    };

    if emit_schedule {
        let json = match workspace_schedule(&root, &allow) {
            Ok(schedule) => schedule.to_json(),
            Err(e) => return config_error(&e),
        };
        match schedule_out {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, json + "\n") {
                    return config_error(&format!("cannot write {}: {e}", path.display()));
                }
                if !quiet {
                    eprintln!("spmd-lint: schedule written to {}", path.display());
                }
            }
            None => println!("{json}"),
        }
        return ExitCode::SUCCESS;
    }

    let report = match lint_workspace(&root, &allow) {
        Ok(r) => r,
        Err(e) => return config_error(&e),
    };
    let unused = allow.unused();

    if !quiet {
        for d in &report.findings {
            println!("{d}\n");
        }
        for e in &unused {
            println!(
                "error[allowlist] unused entry: rule {} path `{}`{}{} — prune it or fix the pin",
                e.rule.code(),
                e.path,
                e.contains
                    .as_deref()
                    .map(|c| format!(" contains `{c}`"))
                    .unwrap_or_default(),
                e.fn_name
                    .as_deref()
                    .map(|f| format!(" fn `{f}`"))
                    .unwrap_or_default()
            );
        }
    }
    println!(
        "spmd-lint: {} finding(s), {} allowlisted, {} unused allowlist entr{}",
        report.findings.len(),
        report.allowed.len(),
        unused.len(),
        if unused.len() == 1 { "y" } else { "ies" },
    );

    if report.findings.is_empty() && unused.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("spmd-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn config_error(msg: &str) -> ExitCode {
    eprintln!("spmd-lint: {msg}");
    ExitCode::from(2)
}
