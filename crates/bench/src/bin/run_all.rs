//! Run every table/figure harness and the ablations in sequence —
//! the one-command regeneration of EXPERIMENTS.md's raw data.
//!
//! ```text
//! cargo run --release -p infomap-bench --bin run_all [-- <output-dir>]
//! ```

use std::path::Path;
use std::process::Command;

use infomap_bench::HARNESSES;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".to_string());
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .expect("cannot locate the build directory");

    let mut failures = 0usize;
    for name in HARNESSES {
        let bin = exe_dir.join(name);
        print!("{name:<24} ");
        let started = std::time::Instant::now();
        let output = Command::new(&bin).output();
        match output {
            Ok(out) if out.status.success() => {
                let path = format!("{out_dir}/{name}.txt");
                std::fs::write(&path, &out.stdout).expect("cannot write result file");
                println!("ok  ({:.1?}) -> {path}", started.elapsed());
            }
            Ok(out) => {
                failures += 1;
                println!("FAILED (status {})", out.status);
                eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            }
            Err(e) => {
                failures += 1;
                println!("FAILED to launch: {e} (build binaries first: cargo build --release -p infomap-bench --bins)");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} harness(es) failed");
        std::process::exit(1);
    }
    println!("\nall harness outputs written to {out_dir}/");
}
