//! End-to-end launch over shards — the only launch path: real OS worker
//! processes, each reading only its own binary shard (whole or
//! demand-paged), must reproduce the in-process thread world bit-for-bit
//! — codelength, per-round MDL series, and the final assignment —
//! whether the shards were supplied (`--graph-shard-dir`) or cut by the
//! launcher from its one parse of an edge list.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::generators::{lfr_like, LfrParams};
use infomap_graph::io;
use infomap_graph::snapshot::{read_header, shard_path, write_parts, write_shards, ShardSpec};

const BIN: &str = env!("CARGO_BIN_EXE_dinfomap");
const WATCHDOG: Duration = Duration::from_secs(120);

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dinf-shards-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A checkpoint level record of rank `rank` of `nranks`: one edgeless
/// row per owned vertex of a `nranks`-vertex level, and a short carry.
fn level_record(rank: usize, nranks: usize) -> Vec<u8> {
    let spec = ShardSpec {
        rank,
        nranks,
        global_vertices: nranks,
        global_edges: 0,
        global_weight: 1.0,
    };
    let mut out = Vec::new();
    write_parts(&mut out, &spec, &[0, 0], &[], &[], &[0.5], Some(b"carry")).unwrap();
    out
}

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

/// Pull the hex-encoded bit-pattern fields out of a worker-written
/// `result.json` (machine-written by this same binary; a scan is exact).
fn result_bits(dir: &std::path::Path) -> (u64, Vec<u64>) {
    let text = std::fs::read_to_string(dir.join("result.json")).expect("result.json");
    let find = |key: &str| {
        let needle = format!("\"{key}\":");
        let at = text.find(&needle).unwrap() + needle.len();
        let rest = text[at..].trim_start();
        let end = rest.find(['\n', '}']).unwrap();
        rest[..end].trim().trim_end_matches(',').to_string()
    };
    let codelength = u64::from_str_radix(find("codelength_bits").trim_matches('"'), 16).unwrap();
    let series = find("mdl_series_bits");
    let series = series.trim_start_matches('[').trim_end_matches(']');
    let mdl = series
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| u64::from_str_radix(s.trim().trim_matches('"'), 16).unwrap())
        .collect();
    (codelength, mdl)
}

#[test]
fn paged_shard_launch_is_bit_identical_to_thread_world() {
    let dir = tmpdir("paged");
    let (g, _) = lfr_like(LfrParams::with(300, 0.25), 9);
    let procs = 3usize;
    let seed = 5u64;
    let shard_dir = dir.join("shards");
    write_shards(&g, procs, &shard_dir).expect("write shards");

    // In-process reference on the same labels the shards carry (snapshot
    // rows are keyed by global vertex id, so no relabeling happens).
    let reference = DistributedInfomap::new(DistributedConfig {
        nranks: procs,
        seed,
        ..Default::default()
    })
    .run(&g);

    let out_path = dir.join("shard.txt");
    let rendezvous = dir.join("world");
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        shard_dir.to_str().unwrap(),
        "--procs",
        "3",
        "--seed",
        "5",
        "--paged",
        "--block-bytes",
        "256",
        "--cache-blocks",
        "8",
        "--timeout-ms",
        "8000",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--output",
        out_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(ok, "shard-mode launch failed:\n{stderr}");

    let (codelength, mdl) = result_bits(&rendezvous);
    assert_eq!(
        codelength,
        reference.codelength.to_bits(),
        "codelength diverged from the thread world"
    );
    let ref_mdl: Vec<u64> = reference.mdl_series().iter().map(|m| m.to_bits()).collect();
    assert_eq!(mdl, ref_mdl, "MDL series diverged from the thread world");

    // Supplied shards report the ids their rows are keyed by.
    let dense: Vec<(u64, u32)> = (0u64..).zip(reference.modules.iter().copied()).collect();
    assert_eq!(read_assignments(&out_path), dense, "assignment diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_launch_rejects_a_mismatched_world_size() {
    let dir = tmpdir("mismatch");
    let (g, _) = lfr_like(
        LfrParams {
            n: 120,
            ..Default::default()
        },
        3,
    );
    let shard_dir = dir.join("shards");
    write_shards(&g, 2, &shard_dir).expect("write shards");
    // Sharded for 2 ranks, launched with 4: the launcher must refuse
    // before forking anything.
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        shard_dir.to_str().unwrap(),
        "--procs",
        "4",
        "--quiet",
    ]);
    assert!(!ok, "mismatched shard count must fail");
    assert!(
        stderr.contains("sharded for rank") || stderr.contains("cannot read"),
        "error should explain the mismatch:\n{stderr}"
    );
    // A checkpoint in a 1-rank shard directory is shaped like a full
    // snapshot of a 1-rank world: the launcher refuses its kind by name.
    let records = dir.join("records");
    std::fs::create_dir_all(&records).unwrap();
    std::fs::write(shard_path(&records, 0), level_record(0, 1)).unwrap();
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        records.to_str().unwrap(),
        "--procs",
        "1",
        "--quiet",
    ]);
    assert!(!ok, "a level record was launched as a graph");
    assert!(
        stderr.contains("a checkpoint level record, not a graph"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `original_id module` pairs of an assignment file, in file order.
fn read_assignments(path: &std::path::Path) -> Vec<(u64, u32)> {
    let text = std::fs::read_to_string(path).expect("assignment file");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            (
                parts.next().unwrap().parse().unwrap(),
                parts.next().unwrap().parse().unwrap(),
            )
        })
        .collect()
}

/// An edge list as users write them: sparse, non-dense vertex ids in no
/// order, edges shuffled, comment lines in both styles. Returns its path
/// and the graph as the reader relabels it.
fn write_messy_edge_list(dir: &std::path::Path, n: usize, seed: u64) -> (String, io::LoadedGraph) {
    let (g, _) = lfr_like(LfrParams::with(n, 0.25), seed);
    // 100003 is prime, so the affine map is injective on dense ids.
    let id = |v: u32| (v as u64 * 7919 + 13) % 100_003 * 3 + 5;
    let mut edges: Vec<(u64, u64, f64)> = g.edges().map(|(u, v, w)| (id(u), id(v), w)).collect();
    edges.sort_by_key(|&(u, v, _)| (u.wrapping_mul(0x9e37_79b9) ^ v.wrapping_mul(40_503)) % 65_521);
    let mut text = String::from("# a messy edge list\n% with both comment styles\n");
    for (i, (u, v, w)) in edges.iter().enumerate() {
        if i % 97 == 0 {
            text.push_str("# interleaved comment\n\n");
        }
        // Flip every other edge's endpoints: first appearance, not
        // magnitude, decides the dense relabeling.
        let (u, v) = if i % 2 == 0 { (u, v) } else { (v, u) };
        text.push_str(&format!("{u} {v} {w}\n"));
    }
    let path = dir.join("messy.txt");
    std::fs::write(&path, text).unwrap();
    let loaded = io::read_edge_list_file(&path).expect("reread messy edge list");
    assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
    assert_ne!(loaded.original_ids[0], 0, "ids must not be dense");
    (path.to_string_lossy().into_owned(), loaded)
}

/// `launch <input...> --procs p --seed s --dir <dir>/<world> --output
/// <dir>/<world>.txt` plus `extra`; returns the result bits and the
/// assignment file's bytes.
fn launch_ok(
    dir: &std::path::Path,
    world: &str,
    input: &[&str],
    procs: usize,
    seed: u64,
    extra: &[&str],
) -> ((u64, Vec<u64>), Vec<u8>) {
    let rendezvous = dir.join(world);
    let out_path = dir.join(format!("{world}.txt"));
    let (procs, seed) = (procs.to_string(), seed.to_string());
    let mut args = vec!["launch"];
    args.extend_from_slice(input);
    args.extend_from_slice(&["--procs", &procs, "--seed", &seed, "--timeout-ms", "8000"]);
    args.extend_from_slice(&["--dir", rendezvous.to_str().unwrap()]);
    args.extend_from_slice(&["--output", out_path.to_str().unwrap(), "--quiet"]);
    args.extend_from_slice(extra);
    let (ok, _stdout, stderr) = run_guarded(&args);
    assert!(ok, "launch {world} failed:\n{stderr}");
    (
        result_bits(&rendezvous),
        std::fs::read(&out_path).expect("assignment file"),
    )
}

#[test]
fn edge_list_launch_reports_original_ids_and_matches_the_thread_world() {
    let dir = tmpdir("messy");
    let (path, loaded) = write_messy_edge_list(&dir, 300, 9);
    let reference = DistributedInfomap::new(DistributedConfig {
        nranks: 4,
        seed: 5,
        ..Default::default()
    })
    .run(&loaded.graph);

    let ((codelength, mdl), _) = launch_ok(&dir, "edges", &[&path], 4, 5, &[]);
    assert_eq!(codelength, reference.codelength.to_bits());
    let ref_mdl: Vec<u64> = reference.mdl_series().iter().map(|m| m.to_bits()).collect();
    assert_eq!(mdl, ref_mdl, "MDL series diverged from the thread world");

    // Every original id exactly once, in dense order, with the module the
    // reference gives its dense twin.
    let expected: Vec<(u64, u32)> = loaded
        .original_ids
        .iter()
        .copied()
        .zip(reference.modules.iter().copied())
        .collect();
    assert_eq!(read_assignments(&dir.join("edges.txt")), expected);

    // The launcher's shards are what `snapshot --shards` writes, so the
    // two-command launch is the same run, in dense ids.
    let shard_dir = dir.join("cut");
    let (ok, _stdout, stderr) = run_guarded(&[
        "snapshot",
        &path,
        "--out",
        shard_dir.to_str().unwrap(),
        "--shards",
        "4",
    ]);
    assert!(ok, "snapshot failed:\n{stderr}");
    let input = ["--graph-shard-dir", shard_dir.to_str().unwrap()];
    let (bits, _) = launch_ok(&dir, "cut-world", &input, 4, 5, &[]);
    assert_eq!(bits, (codelength, mdl), "supplied shards diverged");
    let dense: Vec<(u64, u32)> = (0u64..).zip(reference.modules.iter().copied()).collect();
    assert_eq!(read_assignments(&dir.join("cut-world.txt")), dense);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paging_flags_reach_the_workers_of_an_edge_list_launch() {
    let dir = tmpdir("paged-edges");
    let (path, _) = write_messy_edge_list(&dir, 300, 4);
    let whole = launch_ok(&dir, "whole", &[&path], 3, 2, &[]);
    let paging = ["--paged", "--block-bytes", "256", "--cache-blocks", "8"];
    let paged = launch_ok(&dir, "paged", &[&path], 3, 2, &paging);
    assert_eq!(paged, whole, "paged edge-list launch diverged from whole");
    // Both runs give the same bits however the workers open their shards,
    // so the forwarding itself is pinned where the worker command is
    // built: `launch::tests::worker_command_forwards_every_worker_flag` parses
    // it back. Here: the launcher does not drop a size the cache cannot
    // use (not a multiple of 8); it refuses the launch.
    let (ok, _stdout, _stderr) = run_guarded(&[
        "launch",
        &path,
        "--procs",
        "3",
        "--paged",
        "--block-bytes",
        "12",
        "--max-retries",
        "0",
        "--dir",
        dir.join("refused").to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!ok, "--block-bytes was ignored with an edge list");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reused_dir_never_trusts_the_shards_it_holds() {
    let dir = tmpdir("reuse");
    let (other, _) = write_messy_edge_list(&dir, 200, 1);
    let world = dir.join("world");
    launch_ok(&dir, "world", &[&other], 4, 3, &[]);
    // Same directory, another graph, another world size.
    let (path, loaded) = write_messy_edge_list(&dir, 300, 9);
    let reused = launch_ok(&dir, "world", &[&path], 2, 3, &[]);
    let fresh = launch_ok(&dir, "fresh", &[&path], 2, 3, &[]);
    assert_eq!(reused, fresh, "stale shards leaked into the run");
    for rank in 0..2 {
        let h = read_header(&shard_path(&world.join("shards"), rank)).expect("shard header");
        assert_eq!((h.rank, h.nranks), (rank, 2));
        assert_eq!(h.global_vertices, loaded.graph.num_vertices());
    }
    let stale: Vec<_> = std::fs::read_dir(world.join("shards"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(stale.is_empty(), "tmp files left behind: {stale:?}");

    // A shard directory that cannot be written is a named error before
    // any worker is forked.
    let blocked = dir.join("blocked");
    std::fs::create_dir_all(&blocked).unwrap();
    std::fs::write(blocked.join("shards"), b"not a directory").unwrap();
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        &path,
        "--procs",
        "2",
        "--dir",
        blocked.to_str().unwrap(),
    ]);
    assert!(!ok, "an unwritable shard directory must fail the launch");
    assert!(stderr.contains("cannot write shards under"), "{stderr}");
    assert!(!stderr.contains("attempt"), "a world was forked:\n{stderr}");
    assert!(!blocked.join("result.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_launcher_written_shard_stops_its_worker_by_name() {
    let dir = tmpdir("damaged");
    let (path, _) = write_messy_edge_list(&dir, 200, 2);
    launch_ok(&dir, "world", &[&path], 3, 1, &[]);
    let world = dir.join("world");
    let shards = world.join("shards");
    let victim = shard_path(&shards, 1);
    let intact = std::fs::read(&victim).unwrap();
    let mut flipped = intact.clone();
    flipped[intact.len() / 2] ^= 0x10;
    let record = level_record(1, 3);
    let cases: [(&str, Option<&[u8]>); 4] = [
        ("checksum mismatch", Some(&flipped)),
        ("truncated", Some(&intact[..intact.len() - 9])),
        ("a checkpoint level record, not a graph", Some(&record)),
        ("io error", None),
    ];
    for (named, bytes) in cases {
        match bytes {
            Some(bytes) => std::fs::write(&victim, bytes).unwrap(),
            None => std::fs::remove_file(&victim).unwrap(),
        }
        // The worker opens its shard before it dials anyone, so it can be
        // run alone: it must exit, not wait for peers.
        let (ok, _stdout, stderr) = run_guarded(&[
            "_rank",
            "--rank",
            "1",
            "--dir",
            world.to_str().unwrap(),
            "--graph-shard-dir",
            shards.to_str().unwrap(),
            "--",
            &path,
            "--procs",
            "3",
        ]);
        assert!(!ok, "worker ran on a damaged shard ({named})");
        assert!(stderr.contains(named), "expected {named:?}:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
