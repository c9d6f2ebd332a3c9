//! Chaos tests against genuine OS failures: a child rank is SIGKILLed
//! mid-round and the launch must either **recover** (relaunch from the
//! agreed checkpoint and finish bit-identically to the fault-free run)
//! or **degrade by name** (exit with a diagnostic identifying the dead
//! peer) — it must never hang. Every invocation runs under a hard
//! watchdog enforced by the test itself.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::generators::{lfr_like, LfrParams};
use infomap_graph::io;
use infomap_graph::snapshot::write_shards;

const BIN: &str = env!("CARGO_BIN_EXE_dinfomap");
const WATCHDOG: Duration = Duration::from_secs(120);

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dinf-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_graph(dir: &std::path::Path) -> (infomap_graph::Graph, String) {
    let (g, _) = lfr_like(LfrParams::with(300, 0.25), 9);
    let path = dir.join("g.txt");
    io::write_edge_list_file(&g, &path).unwrap();
    (g, path.to_string_lossy().into_owned())
}

/// Run the binary under a hard deadline; a hang is a test failure, not a
/// CI timeout.
fn run_guarded(args: &[&str]) -> (bool, String, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dinfomap");
    let started = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let out = child.wait_with_output().expect("output");
                return (
                    status.success(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                    String::from_utf8_lossy(&out.stderr).into_owned(),
                );
            }
            None if started.elapsed() > WATCHDOG => {
                let _ = child.kill();
                panic!("dinfomap {args:?} hung past {WATCHDOG:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn read_assignments(path: &std::path::Path) -> Vec<(u64, u32)> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut pairs: Vec<(u64, u32)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            (
                parts.next().unwrap().parse().unwrap(),
                parts.next().unwrap().parse().unwrap(),
            )
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Calibrate the chaos kill delay against a fault-free launch, so the
/// SIGKILL lands mid-run across build profiles (a debug binary spends
/// far longer in spawn + bootstrap than a release one).
fn calibrated_kill_ms(graph_path: &str, dir: &std::path::Path) -> u64 {
    let rendezvous = dir.join("calib");
    let started = Instant::now();
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        graph_path,
        "--procs",
        "4",
        "--seed",
        "5",
        "--timeout-ms",
        "4000",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(ok, "calibration launch failed:\n{stderr}");
    (started.elapsed().as_millis() as u64 / 2).max(30)
}

#[test]
fn sigkilled_rank_recovers_bit_identically_from_checkpoints() {
    let dir = tmpdir("recover");
    let (g, graph_path) = write_graph(&dir);
    let kill_ms = calibrated_kill_ms(&graph_path, &dir);

    // Fault-free reference from the thread world (same seed) — run on the
    // graph as the workers will see it. The edge-list reader relabels
    // vertices densely by first appearance, and the clustering trajectory
    // (shuffle order, tie-breaks) depends on those labels, so the
    // reference must share the file roundtrip to be comparable
    // bit-for-bit.
    let loaded = io::read_edge_list_file(&graph_path).expect("reread graph");
    let reference = DistributedInfomap::new(DistributedConfig {
        nranks: 4,
        seed: 5,
        ..Default::default()
    })
    .run(&loaded.graph);
    let module_of: std::collections::HashMap<u64, u32> = loaded
        .original_ids
        .iter()
        .enumerate()
        .map(|(dense, &orig)| (orig, reference.modules[dense]))
        .collect();

    let out_path = dir.join("sock.txt");
    let rendezvous = dir.join("world");
    let kill_spec = format!("1@{kill_ms}");
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        &graph_path,
        "--procs",
        "4",
        "--seed",
        "5",
        "--checkpoint-every",
        "2",
        "--max-retries",
        "3",
        "--timeout-ms",
        "2000",
        "--kill-rank",
        &kill_spec,
        "--dir",
        rendezvous.to_str().unwrap(),
        "--output",
        out_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(ok, "launch failed to recover:\n{stderr}");

    let got = read_assignments(&out_path);
    assert_eq!(got.len(), g.num_vertices());
    for (v, m) in &got {
        assert_eq!(
            *m, module_of[v],
            "vertex {v}: socket relaunch diverged from the fault-free run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_without_checkpoints_names_the_dead_peer() {
    let dir = tmpdir("named");
    let (_g, graph_path) = write_graph(&dir);
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        &graph_path,
        "--procs",
        "3",
        "--seed",
        "2",
        "--max-retries",
        "0",
        "--timeout-ms",
        "1500",
        // @0: fire before the first supervision sleep — a positive delay
        // races the end of the run at the launcher's 10ms poll granularity.
        "--kill-rank",
        "2@0",
        "--quiet",
    ]);
    assert!(!ok, "launch must fail when the world cannot be relaunched");
    assert!(
        stderr.contains("rank 2"),
        "diagnostic must name the killed rank:\n{stderr}"
    );
    assert!(
        stderr.contains("killed by signal"),
        "launcher must report the SIGKILL itself:\n{stderr}"
    );
    assert!(
        stderr.contains("dead") || stderr.contains("waiting"),
        "survivors must report the peer as dead or what they were waiting on:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_degrade_to_the_best_checkpoint() {
    let dir = tmpdir("degrade");
    let (_g, graph_path) = write_graph(&dir);
    degrades_to_the_best_checkpoint(&dir, &[&graph_path]);
}

/// The same contract for supplied shards: the launcher folds the
/// one-module codelength from the shards' strength sections, so degraded
/// assembly needs no edge list.
#[test]
fn exhausted_retries_degrade_to_the_best_checkpoint_from_shards() {
    let dir = tmpdir("degrade-shards");
    let (g, _graph_path) = write_graph(&dir);
    let shard_dir = dir.join("shards");
    write_shards(&g, 3, &shard_dir).expect("write shards");
    degrades_to_the_best_checkpoint(&dir, &["--graph-shard-dir", shard_dir.to_str().unwrap()]);
}

fn degrades_to_the_best_checkpoint(dir: &std::path::Path, input: &[&str]) {
    let out_path = dir.join("deg.txt");
    let rendezvous = dir.join("world");
    // Seed the rendezvous directory with durable checkpoints from a
    // fault-free run, so the degradation path is exercised regardless of
    // where in the (build-profile-dependent) timeline the kill lands.
    let seeding = [
        "--procs",
        "3",
        "--seed",
        "4",
        "--checkpoint-every",
        "2",
        "--timeout-ms",
        "4000",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--quiet",
    ];
    let (ok, _stdout, stderr) = run_guarded(&[&["launch"], input, &seeding[..]].concat());
    assert!(ok, "checkpoint-seeding launch failed:\n{stderr}");
    // Zero retries but durable checkpoints: the launcher must fall back
    // to the agreed boundary and still produce a (marked) clustering.
    let killed = [
        "--procs",
        "3",
        "--seed",
        "4",
        "--checkpoint-every",
        "2",
        "--max-retries",
        "0",
        "--timeout-ms",
        "1500",
        // The kill must land before the world finishes, and the log-round
        // transport finishes a 300-vertex p=3 run within the launcher's
        // own 10ms poll granularity — any positive delay races the end.
        // @0 fires on the first supervision iteration, before the ranks
        // can possibly have bootstrapped; the pre-seeded checkpoints are
        // exactly what makes such an early kill exercise the degradation.
        "--kill-rank",
        "1@0",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--output",
        out_path.to_str().unwrap(),
    ];
    let (ok, stdout, stderr) = run_guarded(&[&["launch"], input, &killed[..]].concat());
    assert!(ok, "graceful degradation should exit 0:\n{stderr}");
    assert!(
        stdout.contains("degraded"),
        "degraded output must be clearly marked:\n{stdout}"
    );
    let got = read_assignments(&out_path);
    assert_eq!(
        got.len(),
        300,
        "degraded assignment must cover every vertex"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_relaunch_that_starts_from_scratch_is_not_counted_as_a_restore() {
    let dir = tmpdir("norestore");
    let (_g, graph_path) = write_graph(&dir);
    let rendezvous = dir.join("world");
    // A checkpoint file no level can be agreed from: a torn generation.
    let ckpt = rendezvous.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("rank-0.g0.ckpt"), b"DINFSNAP").unwrap();
    let (ok, stdout, stderr) = run_guarded(&[
        "launch",
        &graph_path,
        "--procs",
        "3",
        "--seed",
        "4",
        "--checkpoint-every",
        "2",
        "--max-retries",
        "2",
        "--timeout-ms",
        "1500",
        // @0: rank 1 dies before any rank can have committed.
        "--kill-rank",
        "1@0",
        "--dir",
        rendezvous.to_str().unwrap(),
    ]);
    assert!(ok, "the relaunch must complete:\n{stderr}");
    assert!(
        stdout.contains("2 attempt(s), 0 restore(s)"),
        "a from-scratch relaunch was reported as a restore:\n{stdout}"
    );
    let result = std::fs::read_to_string(rendezvous.join("result.json")).unwrap();
    assert!(result.contains("\"restored\": false"), "{result}");
    assert!(
        result.contains("\"checkpoint_commit_failures\": 0"),
        "{result}"
    );
    let written = result
        .split_once("\"checkpoint_bytes_written\": ")
        .and_then(|(_, rest)| rest.split_once(','))
        .map(|(count, _)| count.parse::<u64>());
    assert!(matches!(written, Some(Ok(_))), "{result}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `launch --checkpoint-every 1` of `graph` with `seed` into `rendezvous`,
/// writing `--output out`.
fn launch_checkpointed(
    graph: &str,
    seed: &str,
    rendezvous: &std::path::Path,
    out: &std::path::Path,
    extra: &[&str],
) -> (bool, String, String) {
    let args = [
        "launch",
        graph,
        "--procs",
        "3",
        "--seed",
        seed,
        "--checkpoint-every",
        "1",
        "--timeout-ms",
        "4000",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--output",
        out.to_str().unwrap(),
    ];
    run_guarded(&[&args[..], extra].concat())
}

#[test]
fn checkpoints_of_another_seed_are_ignored() {
    let dir = tmpdir("other-seed");
    let (_g, graph_path) = write_graph(&dir);
    let shared = dir.join("shared");
    let (ok, _, stderr) = launch_checkpointed(&graph_path, "4", &shared, &dir.join("a.txt"), &[]);
    assert!(ok, "first launch failed:\n{stderr}");
    // Into the same directory with another seed: the seed-4 records read
    // as absent, and the run is the fresh seed-5 run.
    let (ok, _, stderr) = launch_checkpointed(&graph_path, "5", &shared, &dir.join("b.txt"), &[]);
    assert!(ok, "relaunch with another seed failed:\n{stderr}");
    let result = std::fs::read_to_string(shared.join("result.json")).unwrap();
    assert!(result.contains("\"restored\": false"), "{result}");
    let fresh = dir.join("fresh");
    let (ok, _, stderr) = launch_checkpointed(&graph_path, "5", &fresh, &dir.join("c.txt"), &[]);
    assert!(ok, "fresh launch failed:\n{stderr}");
    assert_eq!(
        read_assignments(&dir.join("b.txt")),
        read_assignments(&dir.join("c.txt"))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_of_another_graph_fail_the_launch_by_name() {
    let dir = tmpdir("other-graph");
    let (_g, graph_path) = write_graph(&dir);
    let (other, _) = lfr_like(
        LfrParams {
            n: 240,
            ..Default::default()
        },
        3,
    );
    let other_path = dir.join("h.txt");
    io::write_edge_list_file(&other, &other_path).unwrap();
    let shared = dir.join("shared");
    let (ok, _, stderr) = launch_checkpointed(&graph_path, "4", &shared, &dir.join("a.txt"), &[]);
    assert!(ok, "first launch failed:\n{stderr}");
    // Same seed and world, another graph: the ranks refuse the agreed
    // records by name, which ends the launch after its first attempt, and
    // the degraded assembly refuses them too.
    let out = dir.join("b.txt");
    let (ok, stdout, stderr) = launch_checkpointed(
        other_path.to_str().unwrap(),
        "4",
        &shared,
        &out,
        &["--max-retries", "1"],
    );
    assert!(!ok, "a launch over another graph's checkpoints succeeded");
    assert!(
        stderr.contains("checkpoint belongs to another run"),
        "the refusal is not named:\n{stderr}"
    );
    assert!(
        stderr.contains("after 1 attempt(s)"),
        "a refusal was relaunched:\n{stderr}"
    );
    assert!(!stdout.contains("degraded"), "{stdout}");
    assert!(!out.exists(), "an assignment was written");
    assert!(!shared.join("result.json").exists(), "a world completed");
    let _ = std::fs::remove_dir_all(&dir);
}
