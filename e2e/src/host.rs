//! Facts about the machine and the build, recorded with every result:
//! a number means little without them.

use rand::{RngCore, SeedableRng};

use crate::json::{obj, Json};
use crate::workload::{RANKS, THREADS};

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The stand-in `rand` under `stubs/` is SplitMix64; the published crate
/// is ChaCha12. Seeded graphs and trajectories differ between the two,
/// so results are comparable only when this flag agrees.
pub fn built_with_stub_rand() -> bool {
    rand::rngs::StdRng::seed_from_u64(0).next_u64() == 0xE220_A839_7B1D_CDAF
}

pub fn facts() -> Json {
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .into(),
        ),
        ("cpu_model", cpu_model().into()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
                .into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("stub_rand", built_with_stub_rand().into()),
        ("ranks", RANKS.into()),
        ("threads_per_rank", THREADS.into()),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn facts_are_filled_in() {
        let f = super::facts();
        assert!(f.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(f.get("stub_rand").unwrap().as_bool().is_some());
        assert!(!f.get("kernel").unwrap().as_str().unwrap().is_empty());
    }
}
