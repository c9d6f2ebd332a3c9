//! Determinism regression for the hot-path kernel (DESIGN.md §6.12) and
//! the slice-parallel sweep (§6 note 16): a seeded 4-rank distributed run
//! must be reproducible to the bit — across invocations, across every
//! intra-rank thread count, and against recorded golden fingerprints. The
//! fingerprint also carries the run's summed traffic counters and the work
//! units metered in every phase, so a wire format, routing or metering
//! change that keeps the trajectory but moves a byte or a unit (and with
//! it a modeled makespan) has to re-record the golden consciously.
//!
//! The golden files (`tests/golden_determinism_p4.txt`,
//! `tests/golden_determinism_threads.txt`) are recorded by the first run
//! in a given environment and compared from then on. They cannot be
//! pre-committed from an arbitrary machine because the fingerprint
//! depends on the `rand` implementation behind `StdRng`; once a run on
//! the canonical toolchain has produced it, committing the file pins the
//! trajectory for everyone (any silent tie-break or accumulation-order
//! change then fails this test).

use std::collections::BTreeMap;

use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::generators::{chung_lu, power_law_degrees};
use infomap_graph::Graph;

const SEED: u64 = 7;
const NRANKS: usize = 4;

fn test_graph() -> Graph {
    // Scale-free with genuine hubs, so delegate copies, ghosts, and the
    // min-label rule are all exercised.
    let degs = power_law_degrees(600, 2.1, 2, 120, 11);
    chung_lu(&degs, 12)
}

/// The full bit-level trajectory of one run: every per-round MDL (as raw
/// bits) of every stage, the per-stage move log, the final codelength
/// bits, the final assignment, and the metered traffic summed over ranks.
#[derive(PartialEq, Eq, Debug)]
struct Fingerprint {
    mdl_bits: Vec<u64>,
    moves_log: Vec<u64>,
    codelength_bits: u64,
    modules: Vec<u32>,
    /// p2p messages, p2p bytes, collective calls, collective bytes
    /// (sent + received), codec bytes.
    traffic: [u64; 5],
    /// Work units per phase and in total, summed over ranks, in name order.
    work_units: BTreeMap<String, u64>,
}

fn run_with(graph: &Graph, seed: u64, threads: usize) -> Fingerprint {
    let cfg = DistributedConfig {
        nranks: NRANKS,
        seed,
        threads,
        ..Default::default()
    };
    let out = DistributedInfomap::new(cfg).run(graph);
    let mut traffic = [0u64; 5];
    let mut work_units: BTreeMap<String, u64> = BTreeMap::new();
    for s in &out.rank_stats {
        // Un-phased work (the assignment refresh) shows only in the total.
        *work_units.entry("total".into()).or_default() += s.total.work_units;
        for (phase, stats) in &s.phases {
            *work_units.entry(phase.clone()).or_default() += stats.work_units;
        }
        let t = &s.total;
        traffic[0] += t.p2p_msgs_sent;
        traffic[1] += t.p2p_bytes_sent;
        traffic[2] += t.collective_calls;
        traffic[3] += t.collective_bytes + t.collective_bytes_recv;
        traffic[4] += t.codec_bytes;
    }
    Fingerprint {
        traffic,
        work_units,
        mdl_bits: out
            .trace
            .iter()
            .flat_map(|t| t.mdl_series.iter().map(|m| m.to_bits()))
            .collect(),
        moves_log: out.trace.iter().map(|t| t.moves).collect(),
        codelength_bits: out.codelength.to_bits(),
        modules: out.modules,
    }
}

fn run() -> Fingerprint {
    run_with(&test_graph(), SEED, 1)
}

impl Fingerprint {
    /// Stable text encoding, one field per line; the assignment is folded
    /// through FNV-1a so the golden file stays small.
    fn encode(&self) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        for &m in &self.modules {
            h = (h ^ m as u64).wrapping_mul(0x100000001b3);
        }
        let mdl_hex: Vec<String> = self.mdl_bits.iter().map(|b| format!("{b:016x}")).collect();
        let moves: Vec<String> = self.moves_log.iter().map(|m| m.to_string()).collect();
        let [p2p_msgs, p2p_bytes, coll_calls, coll_bytes, codec_bytes] = self.traffic;
        let work: Vec<String> = (self.work_units.iter())
            .map(|(phase, units)| format!("{phase}={units}"))
            .collect();
        format!(
            "mdl_series_bits: {}\nmoves_log: {}\ncodelength_bits: {:016x}\nassignment_fnv: {:016x}\n\
             traffic: p2p_msgs={p2p_msgs} p2p_bytes={p2p_bytes} collective_calls={coll_calls} \
             collective_bytes={coll_bytes} codec_bytes={codec_bytes}\nwork_units: {}\n",
            mdl_hex.join(","),
            moves.join(","),
            self.codelength_bits,
            h,
            work.join(" ")
        )
    }
}

#[test]
fn seeded_run_is_bit_identical_across_invocations() {
    let a = run();
    let b = run();
    assert_eq!(a, b, "two invocations of the same seeded run diverged");
    assert!(
        a.traffic.iter().all(|&c| c > 0),
        "a traffic counter went unmetered: {:?}",
        a.traffic
    );
}

/// The two stand-ins of the thread-invariance matrix: a flat-degree
/// "1d"-style graph (degrees far below the delegate threshold, so the
/// sweep is pure owned moves) and the hub-heavy scale-free graph (real
/// delegates, ghosts, and the min-label rule in play).
fn thread_standins() -> Vec<(&'static str, Graph)> {
    let flat = chung_lu(&vec![8usize; 500], 21);
    vec![("1d-flat", flat), ("delegate-hub", test_graph())]
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_SEEDS: [u64; 2] = [3, 11];

#[test]
fn thread_counts_are_bit_identical() {
    // The §6 note 16 contract: t is a wall-clock knob, never a results
    // knob. Every (stand-in, seed) pair must produce byte-identical MDL
    // series, move logs, and final assignments for t ∈ {1, 2, 4, 8}.
    for (name, graph) in &thread_standins() {
        for &seed in &THREAD_SEEDS {
            let base = run_with(graph, seed, 1);
            for &t in &THREAD_COUNTS[1..] {
                let got = run_with(graph, seed, t);
                assert_eq!(
                    base.encode(),
                    got.encode(),
                    "stand-in {name} seed {seed}: threads={t} diverged from threads=1"
                );
            }
        }
    }
}

/// Compare `encoded` against the golden at `tests/<file>`, recording it
/// when the file does not exist yet.
fn check_golden(file: &str, encoded: &str) {
    let path = format!("{}/tests/{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(golden) => assert_eq!(
            golden, encoded,
            "run no longer matches the recorded golden at {path}; if the change in \
             trajectory or traffic is intended and reviewed, delete the file to re-record"
        ),
        Err(_) => {
            std::fs::write(&path, encoded).expect("record golden fingerprint");
            eprintln!("recorded new golden fingerprint at {path}");
        }
    }
}

#[test]
fn threaded_runs_match_recorded_golden() {
    // Record-once golden over the full stand-in × seed matrix (at t = 4;
    // `thread_counts_are_bit_identical` pins the other thread counts to
    // the same bytes).
    let mut encoded = String::new();
    for (name, graph) in &thread_standins() {
        for &seed in &THREAD_SEEDS {
            let fp = run_with(graph, seed, 4);
            encoded.push_str(&format!("[{name} seed={seed}]\n{}", fp.encode()));
        }
    }
    check_golden("golden_determinism_threads.txt", &encoded);
}

#[test]
fn seeded_run_matches_recorded_golden() {
    check_golden("golden_determinism_p4.txt", &run().encode());
}
