//! `dinfomap` — command-line community detection.
//!
//! ```text
//! dinfomap cluster <edges.txt> [--algorithm seq|dist|gossip]
//!                              [--ranks N] [--threads N] [--seed S]
//!                              [--output communities.txt] [--quiet]
//! dinfomap partition <edges.txt> --ranks N [--strategy 1d|block|delegate]
//! dinfomap generate <dataset|lfr> [--scale F] [--seed S] [--output g.txt]
//! dinfomap snapshot <edges.txt> --out g.snap [--shards N]
//! dinfomap info <edges.txt>
//! ```
//!
//! Input: whitespace edge lists (`u v [w]`, `#`/`%` comments). Output:
//! one `vertex community` pair per line, in original vertex ids.

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod args;
mod commands;
mod launch;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        // Worker processes signal structured transport faults through
        // their exit code; bypass the Result-shaped path.
        Ok(args::Command::RankWorker(rank, o)) => ExitCode::from(launch::run_worker(rank, o) as u8),
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
