//! One timed `dinfomap` run (a *rep*): spawn, sample memory while it
//! runs, wait, read CPU time, then check what it wrote.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::workload::{dinfomap_args, fnv1a, Inputs, Workload, ASSIGNMENT_FILE, WORLD_DIR};

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux ABI this runs on (the
/// kernel reports process times to user space in USER_HZ).
const CLOCK_TICKS_PER_S: f64 = 100.0;
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// What one rep measured and wrote.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// User + system CPU of the launcher and every descendant it reaped.
    pub cpu_core_s: f64,
    /// Largest `VmHWM` seen over the launcher and its worker processes.
    pub peak_rss_mib: f64,
    pub codelength_bits: f64,
    pub nmi: f64,
    pub assignment_fnv1a: u64,
    /// `result.json` of a launch: wall inside the world, seconds.
    pub world_wall_s: f64,
    pub checkpoints_committed: u64,
    /// Why the rep counts as failed, if it does.
    pub failure: Option<String>,
}

/// CPU seconds of all waited-for descendants of this process so far:
/// `cutime + cstime` of `/proc/self/stat`.
pub fn reaped_children_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| children_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / CLOCK_TICKS_PER_S)
}

/// Fields 16 and 17 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself hold spaces and parentheses, so count from the
/// last `)`.
pub fn children_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// `VmHWM` of a `/proc/<pid>/status` text, KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn sample_peak_kib(root: u32, peak: &mut u64) {
    let children =
        std::fs::read_to_string(format!("/proc/{root}/task/{root}/children")).unwrap_or_default();
    let pids = children
        .split_ascii_whitespace()
        .filter_map(|p| p.parse::<u32>().ok())
        .chain([root]);
    for pid in pids {
        // A process that has just exited has no status to read.
        if let Some(kib) = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| vm_hwm_kib(&s))
        {
            *peak = (*peak).max(kib);
        }
    }
}

/// The `codelength:` line of the run report, bits.
pub fn report_codelength(stdout: &str) -> Option<f64> {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("codelength:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The fields of a launch's `result.json` the checks read.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchResult {
    /// Exact: decoded from the f64 bit pattern the program writes.
    pub codelength: f64,
    pub wall_ms: f64,
    pub checkpoints_committed: u64,
    pub degraded: bool,
    pub restored: bool,
}

pub fn parse_launch_result(text: &str) -> Result<LaunchResult, String> {
    let j = Json::parse(text)?;
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result.json: no number {key:?}"))
    };
    let flag = |key: &str| {
        j.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("result.json: no flag {key:?}"))
    };
    let bits = j
        .get("codelength_bits")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("result.json: no codelength_bits")?;
    Ok(LaunchResult {
        codelength: f64::from_bits(bits),
        wall_ms: num("wall_ms")?,
        checkpoints_committed: num("checkpoints_committed")? as u64,
        degraded: flag("degraded")?,
        restored: flag("restored")?,
    })
}

/// `vertex community` lines of an assignment file: the planted and the
/// detected community of each listed vertex, in file order.
pub fn parse_assignment(text: &str, truth: &[u32]) -> Result<(Vec<u32>, Vec<u32>), String> {
    let mut planted = Vec::new();
    let mut detected = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_ascii_whitespace();
        let pair = (
            parts.next().and_then(|v| v.parse::<usize>().ok()),
            parts.next().and_then(|m| m.parse::<u32>().ok()),
        );
        let (Some(v), Some(m)) = pair else {
            return Err(format!("bad assignment line {line:?}"));
        };
        let Some(&t) = truth.get(v) else {
            return Err(format!("assignment names unknown vertex {v}"));
        };
        planted.push(t);
        detected.push(m);
    }
    Ok((planted, detected))
}

/// Run `dinfomap` once on `inputs` and check its outputs. Never panics
/// on a misbehaving program: whatever goes wrong lands in `failure`.
pub fn run_rep(dinfomap: &Path, inputs: &Inputs) -> Rep {
    let mut rep = Rep::default();
    if let Err(why) = run_and_check(dinfomap, inputs, &mut rep) {
        rep.failure = Some(why);
    }
    rep
}

fn run_and_check(dinfomap: &Path, inputs: &Inputs, rep: &mut Rep) -> Result<(), String> {
    let w = inputs.workload;
    // Checkpoints left in the rendezvous directory would turn the next
    // run into a restore.
    let _ = std::fs::remove_dir_all(inputs.dir.join(WORLD_DIR));
    let _ = std::fs::remove_file(inputs.dir.join(ASSIGNMENT_FILE));

    let cpu_before = reaped_children_cpu_s();
    let started = Instant::now();
    let mut child = Command::new(dinfomap)
        .args(dinfomap_args(inputs))
        .current_dir(&inputs.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", dinfomap.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let mut peak_kib = 0u64;
    // The report is a few hundred bytes, far below a pipe's capacity, so
    // waiting before reading cannot block the child.
    let status = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                sample_peak_kib(pid, &mut peak_kib);
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        status
    });
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.cpu_core_s = reaped_children_cpu_s() - cpu_before;
    rep.peak_rss_mib = peak_kib as f64 / 1024.0;
    let status = status.map_err(|e| format!("wait: {e}"))?;
    let output = child
        .wait_with_output()
        .map_err(|e| format!("read output: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!(
            "dinfomap exited with {status}: {}",
            tail.join(" | ")
        ));
    }

    if w.launches() {
        let path = inputs.dir.join(WORLD_DIR).join("result.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = parse_launch_result(&text)?;
        rep.codelength_bits = result.codelength;
        rep.world_wall_s = result.wall_ms / 1e3;
        rep.checkpoints_committed = result.checkpoints_committed;
        if result.degraded || result.restored {
            return Err("run degraded or restored from a checkpoint".into());
        }
        let reported = report_codelength(&stdout).ok_or("no codelength line in the report")?;
        if (reported - result.codelength).abs() > 1e-6 {
            return Err(format!(
                "report says {reported} bits, result.json {}",
                result.codelength
            ));
        }
        if (w == Workload::HubCkpt) != (result.checkpoints_committed > 0) {
            return Err(format!(
                "{} checkpoints committed",
                result.checkpoints_committed
            ));
        }
    } else {
        rep.codelength_bits =
            report_codelength(&stdout).ok_or("no codelength line in the report")?;
    }
    if !(rep.codelength_bits.is_finite() && rep.codelength_bits > 0.0) {
        return Err(format!("codelength {} bits", rep.codelength_bits));
    }

    let path = inputs.dir.join(ASSIGNMENT_FILE);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    rep.assignment_fnv1a = fnv1a(&bytes);
    let text = std::str::from_utf8(&bytes).map_err(|_| "assignment is not UTF-8")?;
    let (planted, detected) = parse_assignment(text, &inputs.truth)?;
    if detected.len() != inputs.assigned_vertices {
        return Err(format!(
            "assignment has {} lines, graph has {} vertices",
            detected.len(),
            inputs.assigned_vertices
        ));
    }
    rep.nmi = infomap_metrics::nmi(&planted, &detected);
    if rep.nmi < w.nmi_floor() {
        return Err(format!(
            "nmi {:.4} under the floor {}",
            rep.nmi,
            w.nmi_floor()
        ));
    }
    Ok(())
}

/// Same-seed reps must agree bit for bit. Marks every rep that differs
/// from the first successful one as failed.
pub fn check_bit_identity(reps: &mut [Rep]) {
    let Some(first) = reps.iter().find(|r| r.failure.is_none()).cloned() else {
        return;
    };
    for rep in reps.iter_mut().filter(|r| r.failure.is_none()) {
        if rep.codelength_bits.to_bits() != first.codelength_bits.to_bits()
            || rep.assignment_fnv1a != first.assignment_fnv1a
        {
            rep.failure = Some(format!(
                "same seed, different answer: {} bits / {:016x} against {} bits / {:016x}",
                rep.codelength_bits,
                rep.assignment_fnv1a,
                first.codelength_bits,
                first.assignment_fnv1a
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_odd_command_names() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 83 7 0 0 11 12 340 56 20 0 1 0 \
                    129497 2568192 288";
        assert_eq!(children_cpu_ticks(stat), Some(396));
        assert_eq!(children_cpu_ticks("garbage"), None);
        assert!(reaped_children_cpu_s() >= 0.0);
    }

    #[test]
    fn status_parser_reads_the_high_water_mark() {
        let status = "Name:\tdinfomap\nVmPeak:\t  9000 kB\nVmHWM:\t    1696 kB\nVmRSS:\t 1600 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(1696));
        assert_eq!(vm_hwm_kib("Name:\tzombie\n"), None);
    }

    #[test]
    fn report_line_parser() {
        let out = "distributed Infomap: 400 vertices, 2000 edges\n  modules:    12\n  \
                   codelength: 9.916695 bits\n  wall time:  1.2s\n";
        assert_eq!(report_codelength(out), Some(9.916695));
        assert_eq!(report_codelength("  modules: 3\n"), None);
    }

    #[test]
    fn result_json_parser_reads_exact_bits() {
        let text = "{\n  \"schema\": \"dinfomap-launch-result-v1\",\n  \"procs\": 4,\n  \"seed\": 5,\n  \
                    \"codelength\": 3e0,\n  \"codelength_bits\": \"4008000000000000\",\n  \
                    \"num_modules\": 7,\n  \"total_moves\": 10,\n  \"mdl_series_bits\": [\"4008000000000000\"],\n  \
                    \"degraded\": false,\n  \"restored\": false,\n  \"checkpoints_committed\": 3,\n  \
                    \"wall_ms\": 12.500,\n  \"modeled_ms\": 0.250000,\n  \"modules\": [0,1,1]\n}\n";
        let r = parse_launch_result(text).unwrap();
        assert_eq!(r.codelength, 3.0);
        assert_eq!(r.wall_ms, 12.5);
        assert_eq!(r.checkpoints_committed, 3);
        assert!(!r.degraded && !r.restored);
        assert!(parse_launch_result("{\"wall_ms\": 1}").is_err());
    }

    #[test]
    fn assignment_parser_aligns_with_truth() {
        let truth = [5, 6, 7, 8];
        let (planted, detected) =
            parse_assignment("# vertex community\n2 0\n0 1\n3 1\n", &truth).unwrap();
        assert_eq!(planted, vec![7, 5, 8]);
        assert_eq!(detected, vec![0, 1, 1]);
        assert!(parse_assignment("9 0\n", &truth).is_err());
        assert!(parse_assignment("x y\n", &truth).is_err());
    }

    #[test]
    fn bit_identity_flags_the_odd_one_out() {
        let rep = |bits: f64, fnv| Rep {
            codelength_bits: bits,
            assignment_fnv1a: fnv,
            ..Default::default()
        };
        let mut reps = vec![rep(9.5, 1), rep(9.5, 1), rep(9.5, 2), rep(9.6, 1)];
        check_bit_identity(&mut reps);
        let failed: Vec<bool> = reps.iter().map(|r| r.failure.is_some()).collect();
        assert_eq!(failed, vec![false, false, true, true]);
    }
}
