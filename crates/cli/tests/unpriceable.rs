//! Inputs whose weights the map equation cannot price (a merged weight or
//! `W` past the largest float, `W = 0`, or a subnormal `W` whose `1/(2W)`
//! overflows) are refused by name, on every command that reads one: exit
//! 1 and the message, never a codelength of 0 or −inf with exit 0, and
//! never a panic. Edge lists are refused at read time; binary shards by
//! their header's `W`, before the launcher spawns a worker, and by an arc
//! weight or strength that is not finite and >= 0, when the worker opens
//! its shard.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use infomap_graph::snapshot::{shard_path, write_shard_parts, ShardSpec};

const BIN: &str = env!("CARGO_BIN_EXE_dinfomap");

/// A fresh, empty directory for one command's `TMPDIR`.
fn fresh_tmpdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dinf-unpriceable-tmp-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `dinfomap args` under a `TMPDIR` of its own and assert it exits 1
/// with the refusal on its last line, prints no codelength and leaves
/// nothing in that `TMPDIR` (a launch's temporary rendezvous directory
/// included). Returns its stderr.
fn refused(args: &[&str]) -> String {
    let tmp = fresh_tmpdir();
    let out = Command::new(BIN)
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .env("TMPDIR", &tmp)
        .output()
        .expect("run dinfomap");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stdout} {stderr}");
    let last = stderr.lines().last().unwrap_or("");
    assert!(
        last.contains("weights the map equation cannot price"),
        "{args:?}: the last line does not name the refusal: {stderr}"
    );
    assert!(!stdout.contains("codelength"), "{args:?}: {stdout}");
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
    assert!(left.is_empty(), "{args:?} left {left:?} in its TMPDIR");
    std::fs::remove_dir(&tmp).unwrap();
    stderr.into_owned()
}

#[test]
fn unpriceable_weights_exit_1_with_the_message_on_every_command() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/bad_inputs");
    let mut files: Vec<String> = std::fs::read_dir(corpus)
        .expect("tests/bad_inputs")
        .map(|entry| entry.unwrap().path().to_string_lossy().into_owned())
        .filter(|path| path.contains("/unpriceable_"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "{files:?}");
    for file in &files {
        refused(&["cluster", file, "--algorithm", "dist", "--ranks", "2"]);
        refused(&["cluster", file, "--algorithm", "seq"]);
        refused(&["launch", file, "--procs", "2"]);
        refused(&["info", file]);
    }
}

/// Where rank 0's shard of [`write_path_shards`] keeps its header's `W`,
/// its first arc weight and its first strength.
const W_AT: usize = 64;
const WEIGHT_AT: usize = 72 + 3 * 8 + 2 * 4;
const STRENGTH_AT: usize = WEIGHT_AT + 2 * 8;

/// The path 0-1-2 with unit weights as two shards under `dir`: rank 0
/// holds rows 0 and 2, rank 1 row 1, two arcs each.
fn write_path_shards(dir: &Path) {
    let offsets: [&[u64]; 2] = [&[0, 1, 2], &[0, 2]];
    let targets: [&[u32]; 2] = [&[1, 1], &[0, 2]];
    let strengths: [&[f64]; 2] = [&[1.0, 1.0], &[2.0]];
    for rank in 0..2 {
        let spec = ShardSpec {
            rank,
            nranks: 2,
            global_vertices: 3,
            global_edges: 2,
            global_weight: 2.0,
        };
        let path = shard_path(dir, rank);
        let (offsets, targets) = (offsets[rank], targets[rank]);
        write_shard_parts(&path, &spec, offsets, targets, &[1.0; 2], strengths[rank]).unwrap();
    }
}

/// Set the 8 bytes at `at` of the file at `path` to `value`'s bits and
/// reseal its FNV-1a trailer: a file no writer makes any more.
fn patch(path: &Path, at: usize, value: f64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
    let sum_at = bytes.len() - 8;
    let sum = bytes[..sum_at]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn unpriceable_shard_headers_exit_1_with_the_message() {
    let dir = std::env::temp_dir().join(format!("dinf-unpriceable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Only the header's `W` (2 for this graph) is wrong, in both shards.
    for w in [0.0, 1e-320, f64::NAN, f64::INFINITY] {
        write_path_shards(&dir);
        for rank in 0..2 {
            patch(&shard_path(&dir, rank), W_AT, w);
        }
        let shards = dir.to_str().unwrap();
        refused(&["launch", "--graph-shard-dir", shards, "--procs", "2"]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unpriceable_arc_weights_and_strengths_exit_1_with_the_message() {
    let dir = std::env::temp_dir().join(format!("dinf-unpriceable-arcs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Rank 0's first arc weight or first strength is wrong; the header
    // is sound, so the launcher spawns the world and rank 0 refuses its
    // shard on open. A relaunch would meet the same refusal, so the
    // launcher kills rank 1 at once and stops after one attempt at the
    // default `--max-retries`, with rank 0's own message as the cause.
    for at in [WEIGHT_AT, STRENGTH_AT] {
        for value in [f64::NAN, f64::INFINITY, -1.0] {
            write_path_shards(&dir);
            patch(&shard_path(&dir, 0), at, value);
            let shards = dir.to_str().unwrap();
            let stderr = refused(&["launch", "--graph-shard-dir", shards, "--procs", "2"]);
            let last = stderr.lines().last().unwrap_or("");
            assert!(last.contains("after 1 attempt(s)"), "{stderr}");
            assert!(last.contains("rank 0: cannot open"), "{stderr}");
            assert!(
                !last.contains("rank 1"),
                "a killed survivor is a cause: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
