//! perf_kernels — wall-clock and modeled-runtime record of the hot-path
//! best-move kernel (DESIGN.md §6.12): the epoch-stamped dense accumulator.
//!
//! Runs the full distributed pipeline on generated scale-free graphs —
//! one hub-heavy instance and one flat instance — across p ∈ {4, 16, 64}.
//!
//! Reported per run:
//!
//! - **kernel sweeps**: the FindBestModule compute — subset gate,
//!   best-move kernel, move application — replayed serially over real
//!   stage-1 rank states for a fixed number of rounds. Serial replay
//!   removes thread-scheduler noise (the simulated ranks oversubscribe
//!   cores), so this is the honest kernel wall-clock. Measured under both
//!   partitionings: 1D (hubs keep their whole adjacency) and delegate
//!   (local degrees capped near d_high).
//! - per-phase wall-clock of the full threaded pipeline (summed over
//!   ranks), and the modeled makespan from the metered counters
//!   (`add_work` meters logical arc relaxations, not kernel instructions).
//!
//! - **thread sweeps** (the `threads` axis, DESIGN.md §6 note 16): the
//!   real `find_best_modules` entry point replayed over the same stage-1
//!   rank states for t ∈ {1, 2, 4, 8} intra-rank slices, asserted
//!   bit-identical across t, with the exact modeled critical-path speedup
//!   (total arcs / max slice arcs, summed per round and rank) recorded
//!   alongside the honest wall numbers. On a single-core host wall time
//!   cannot show the win (the slices time-share one core); the modeled
//!   ratio is exact because the per-slice arc counters are.
//!
//! Writes `BENCH_kernels.json` at the repo root (override with
//! `--out PATH`); `--tiny` shrinks the graphs for CI smoke runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use infomap_bench::{cost_model, env_seed, fmt_secs, Table};
use infomap_distributed::rounds::MOVE_FRACTION_DENOM;
use infomap_distributed::state::build_stage1_states;
use infomap_distributed::{
    apply_local_move, best_local_move, find_best_modules, DistributedConfig, DistributedInfomap,
    DistributedOutput, NeighborhoodScratch, RoundBuffers,
};
use infomap_graph::generators::{chung_lu, power_law_degrees};
use infomap_graph::Graph;
use infomap_partition::{DelegateThreshold, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct GraphSpec {
    name: &'static str,
    graph: Graph,
}

/// Everything recorded about one (graph, p) run.
struct RunMeasure {
    wall_total_s: f64,
    /// Per-phase wall seconds, summed over ranks.
    phase_wall_s: BTreeMap<String, f64>,
    /// Per-phase modeled seconds (makespan decomposition).
    modeled_s: BTreeMap<String, f64>,
    modeled_total_s: f64,
    total_moves: u64,
    mdl_final: f64,
}

fn measure(g: &Graph, p: usize, seed: u64) -> RunMeasure {
    let cfg = DistributedConfig {
        nranks: p,
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let out: DistributedOutput = DistributedInfomap::new(cfg).run(g);
    let wall_total_s = t0.elapsed().as_secs_f64();

    let mut phase_wall_s: BTreeMap<String, f64> = BTreeMap::new();
    for rs in &out.rank_stats {
        for (name, ps) in &rs.phases {
            *phase_wall_s.entry(name.clone()).or_insert(0.0) += ps.wall.as_secs_f64();
        }
    }
    let bd = cost_model().makespan(&out.rank_stats);
    let total_moves: u64 = out.trace.iter().map(|t| t.moves).sum();
    RunMeasure {
        wall_total_s,
        phase_wall_s,
        modeled_s: bd.phases.clone(),
        modeled_total_s: bd.total,
        total_moves,
        mdl_final: out.codelength,
    }
}

/// Wall seconds spent in the stage-1 FindBestModule phase (across ranks).
fn find_best_wall(m: &RunMeasure) -> f64 {
    m.phase_wall_s
        .get("s1/FindBestModule")
        .copied()
        .unwrap_or(0.0)
}

/// Serial replay of the FindBestModule compute.
struct SweepMeasure {
    rounds: usize,
    arcs_relaxed: u64,
    moves: u64,
    wall_s: f64,
}

/// Replay the stage-1 greedy sweep serially over the real rank states of
/// `part`: the same subset gate, min-label schedule, kernel call, and
/// move application as `find_best_modules`, minus communication, thread
/// scheduling, merge-time re-validation and the active-set filter (every
/// eligible vertex is swept: this measures the kernel, not the rounds).
/// Moves are applied so modules coalesce round over round exactly as in
/// the driver's early stage-1 rounds, covering the singleton (k ≈ deg)
/// regime as well as the coarsened one.
///
/// The partition decides which regime the kernel sees. Under 1D
/// partitioning hubs keep their whole adjacency on the owner rank; under
/// delegate partitioning (the default) hub arcs are split across ranks and
/// every local degree is capped near `d_high`.
fn kernel_sweep(g: &Graph, part: &Partition) -> SweepMeasure {
    const ROUNDS: usize = 6;
    // The driver's throttle, and DistributedConfig's default min_gain.
    const SUBSET: u64 = MOVE_FRACTION_DENOM as u64;
    const MIN_GAIN: f64 = 1e-10;
    const REPS: usize = 2; // best-of-N to shed scheduler noise

    let mut pristine = build_stage1_states(g, part);
    for st in &mut pristine {
        st.sum_exit = st.out_flow.iter().sum();
    }

    // The sweep order: `movable` is fixed for the stage, snapshotted here
    // so the replay can mutate the states while iterating it.
    let orders: Vec<Vec<u32>> = pristine.iter().map(|st| st.movable.clone()).collect();

    let replay = || -> (f64, u64, u64) {
        let mut states = pristine.clone();
        let mut neigh = NeighborhoodScratch::new();
        let mut arcs = 0u64;
        let mut moves = 0u64;
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            let restrict_boundary = (round as u64 / SUBSET).is_multiple_of(2);
            for (st, order) in states.iter_mut().zip(&orders) {
                for &li in order {
                    // The driver's hashed 1/k eligibility gate, verbatim.
                    let v = st.verts[li as usize] as u64;
                    if !(v.wrapping_mul(0x9e3779b97f4a7c15) >> 32)
                        .wrapping_add(round as u64)
                        .is_multiple_of(SUBSET)
                    {
                        continue;
                    }
                    arcs += (st.adj_off[li as usize + 1] - st.adj_off[li as usize]) as u64;
                    if let Some(c) =
                        best_local_move(st, li, MIN_GAIN, restrict_boundary, &mut neigh)
                    {
                        apply_local_move(st, li, &c, round as u32 + 1);
                        moves += 1;
                    }
                }
            }
        }
        (t0.elapsed().as_secs_f64(), arcs, moves)
    };

    let mut wall_s = f64::INFINITY;
    let (mut arcs_relaxed, mut moves) = (0, 0);
    for _ in 0..REPS {
        let (w, a, m) = replay();
        wall_s = wall_s.min(w);
        arcs_relaxed = a;
        moves = m;
    }
    SweepMeasure {
        rounds: ROUNDS,
        arcs_relaxed,
        moves,
        wall_s,
    }
}

/// The intra-rank thread counts the sweep measures.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One thread count of the intra-rank sweep.
struct ThreadPoint {
    t: usize,
    wall_s: f64,
    /// Total arcs scanned across all (round, rank) sweeps — the serial
    /// FindBestModule cost in the cost model's arc-relaxation unit.
    serial_arcs: u64,
    /// Sum over (round, rank) of the widest slice's arcs — the modeled
    /// critical path of the slice-parallel sweep.
    critical_arcs: u64,
    moves: u64,
}

impl ThreadPoint {
    /// Exact modeled FindBestModule speedup at this t: serial cost over
    /// critical path. Exact because both numbers come from the per-slice
    /// arc counters of the real sweep, not from a sampling profiler.
    fn modeled_speedup(&self) -> f64 {
        self.serial_arcs as f64 / self.critical_arcs.max(1) as f64
    }
}

/// Replay the real slice-parallel sweep (`find_best_modules`, the driver's
/// phase-1 entry point) over real stage-1 rank states for every thread
/// count, with the driver's own RNG seeding. Under 1D partitioning there
/// are no delegates, so every candidate applies locally and the replay
/// needs no communicator. All thread counts are asserted to produce the
/// identical trajectory — per-round move/arc/proposal counts and final
/// assignments — which is the §6 note 16 bit-identity contract exercised
/// on the perf harness's own inputs.
fn thread_sweep(g: &Graph, part: &Partition, nranks: usize, seed: u64) -> Vec<ThreadPoint> {
    const ROUNDS: usize = 6;
    let mut pristine = build_stage1_states(g, part);
    for st in &mut pristine {
        st.sum_exit = st.out_flow.iter().sum();
    }
    let mut points = Vec::new();
    let mut fingerprint: Option<Vec<u64>> = None;
    for &t in &THREAD_COUNTS {
        let cfg = DistributedConfig {
            nranks,
            seed,
            threads: t,
            ..Default::default()
        };
        let mut states = pristine.clone();
        // The driver's per-rank stage RNG seeding, verbatim.
        let mut rngs: Vec<StdRng> = (0..states.len() as u64)
            .map(|r| StdRng::seed_from_u64(seed ^ r.wrapping_mul(0x9e3779b97f4a7c15)))
            .collect();
        let mut bufs: Vec<RoundBuffers> = (0..states.len())
            .map(|_| RoundBuffers::new(nranks))
            .collect();
        let mut serial_arcs = 0u64;
        let mut critical_arcs = 0u64;
        let mut moves = 0u64;
        let mut fp: Vec<u64> = Vec::new();
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            for (r, st) in states.iter_mut().enumerate() {
                let (owned, arcs, proposals) =
                    find_best_modules(st, &cfg, &mut rngs[r], &mut bufs[r], round);
                moves += owned;
                serial_arcs += arcs;
                critical_arcs += bufs[r].slice_arcs().max().unwrap_or(0);
                fp.extend([owned, arcs, proposals.len() as u64]);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        for st in &states {
            let mut h: u64 = 0xcbf29ce484222325;
            for &m in st.module_of() {
                h = (h ^ m as u64).wrapping_mul(0x100000001b3);
            }
            fp.push(h);
            fp.push(st.sum_exit.to_bits());
        }
        match &fingerprint {
            None => fingerprint = Some(fp),
            Some(base) => assert_eq!(
                base, &fp,
                "thread sweep diverged at t={t}: the slice-parallel sweep must be \
                 bit-identical for every thread count"
            ),
        }
        points.push(ThreadPoint {
            t,
            wall_s,
            serial_arcs,
            critical_arcs,
            moves,
        });
    }
    points
}

fn json_threads(out: &mut String, indent: &str, points: &[ThreadPoint]) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  {{\n{indent}    \"threads\": {},\n{indent}    \"wall_s\": {:e},\n{indent}    \"serial_arcs\": {},\n{indent}    \"critical_arcs\": {},\n{indent}    \"moves\": {},\n{indent}    \"modeled_speedup\": {:.4}\n{indent}  }}",
            p.t, p.wall_s, p.serial_arcs, p.critical_arcs, p.moves, p.modeled_speedup()
        );
    }
    let _ = write!(out, "\n{indent}]");
}

fn json_sweep(out: &mut String, indent: &str, s: &SweepMeasure) {
    let _ = write!(
        out,
        "{{\n{indent}  \"rounds\": {},\n{indent}  \"arcs_relaxed\": {},\n{indent}  \"moves\": {},\n{indent}  \"wall_s\": {:e}\n{indent}}}",
        s.rounds, s.arcs_relaxed, s.moves, s.wall_s
    );
}

fn json_map(out: &mut String, indent: &str, map: &BTreeMap<String, f64>) {
    out.push('{');
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n{indent}  \"{k}\": {v:e}");
    }
    let _ = write!(out, "\n{indent}}}");
}

fn json_run(out: &mut String, indent: &str, m: &RunMeasure) {
    let _ = write!(
        out,
        "{{\n{indent}  \"find_best_module_wall_s\": {:e},",
        find_best_wall(m)
    );
    let _ = write!(out, "\n{indent}  \"wall_total_s\": {:e},", m.wall_total_s);
    let _ = write!(out, "\n{indent}  \"phase_wall_s\": ");
    json_map(out, &format!("{indent}  "), &m.phase_wall_s);
    let _ = write!(out, ",\n{indent}  \"modeled_s\": ");
    json_map(out, &format!("{indent}  "), &m.modeled_s);
    let _ = write!(
        out,
        ",\n{indent}  \"modeled_total_s\": {:e},",
        m.modeled_total_s
    );
    let _ = write!(out, "\n{indent}  \"total_moves\": {},", m.total_moves);
    let _ = write!(
        out,
        "\n{indent}  \"mdl_final\": {:e}\n{indent}}}",
        m.mdl_final
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));
    let seed = env_seed();
    let procs = [4usize, 16, 64];

    // Hub-heavy: a heavy power-law tail, so the delegate hubs carry a
    // large share of all arcs. Flat: a bounded-degree instance.
    let (n_hub, kmax_hub, n_flat, kmax_flat) = if tiny {
        (1_500, 750, 1_500, 16)
    } else {
        (20_000, 10_000, 12_000, 32)
    };
    let graphs = [
        GraphSpec {
            name: "hub_heavy",
            graph: chung_lu(&power_law_degrees(n_hub, 2.0, 2, kmax_hub, seed), seed + 1),
        },
        GraphSpec {
            name: "flat",
            graph: chung_lu(
                &power_law_degrees(n_flat, 2.6, 2, kmax_flat, seed + 2),
                seed + 3,
            ),
        },
    ];

    let mode = if tiny { "tiny" } else { "full" };
    println!("perf_kernels: best-move kernel and thread sweeps ({mode}, seed {seed})\n");

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"dinfomap-perf-kernels-v3\",\n");
    let _ = write!(json, "  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n");
    json.push_str(
        "  \"regenerate\": \"cargo run --release -p infomap-bench --bin perf_kernels\",\n",
    );
    json.push_str("  \"host_note\": \"absolute wall-clock is machine-dependent; the arc counts and the modeled ratios are the comparable quantities\",\n");
    json.push_str("  \"threads_note\": \"thread_sweep_1d replays the real find_best_modules over stage-1 rank states for t in {1,2,4,8} intra-rank slices; all t are asserted bit-identical; modeled_speedup = serial_arcs / critical_arcs is the exact critical-path FindBestModule speedup from the per-slice arc counters (wall_s is honest but meaningless on a single-core host, where slices time-share the core)\",\n");
    json.push_str("  \"wall_clock_note\": \"kernel_sweep_* are serial replays of the FindBestModule compute over real stage-1 rank states (no thread-scheduler noise): _1d keeps hub adjacencies whole, _delegate caps local degrees near d_high; phase_wall_s sums thread wall time over simulated ranks; modeled_s is the cost-model makespan from metered counters; bit_identical = every thread count of thread_sweep_1d replayed the same trajectory\",\n");
    json.push_str("  \"graphs\": [");

    for (gi, spec) in graphs.iter().enumerate() {
        let g = &spec.graph;
        let max_deg = (0..g.num_vertices() as u32)
            .map(|v| g.degree(v))
            .max()
            .unwrap_or(0);
        println!(
            "{} (|V|={}, |E|={}, max deg {}):",
            spec.name,
            g.num_vertices(),
            g.num_edges(),
            max_deg
        );
        let mut table = Table::new(&[
            "p",
            "1d sweep",
            "delegate sweep",
            "t4 modeled",
            "modeled total",
        ]);
        if gi > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\n      \"name\": \"{}\",\n      \"vertices\": {},\n      \"edges\": {},\n      \"max_degree\": {},\n      \"runs\": [",
            spec.name,
            g.num_vertices(),
            g.num_edges(),
            max_deg
        );
        for (pi, &p) in procs.iter().enumerate() {
            let run = measure(g, p, seed);
            // 1D partitioning: hubs keep their whole adjacency.
            let sweep_1d = kernel_sweep(g, &Partition::one_d(g, p));
            // Delegate partitioning (driver default): local degrees are
            // capped near d_high.
            let sweep_del = kernel_sweep(
                g,
                &Partition::delegate(g, p, DelegateThreshold::Auto(4.0), true),
            );
            // The threads axis (§6 note 16): bit-identity across t is
            // asserted inside; the modeled t=4 number is the acceptance
            // headline on hub_heavy.
            let threads_1d = thread_sweep(g, &Partition::one_d(g, p), p, seed);
            let t4 = threads_1d
                .iter()
                .find(|tp| tp.t == 4)
                .expect("t=4 in sweep");
            let t4_modeled = t4.modeled_speedup();
            // Acceptance bar at the headline world size; at large p each
            // rank owns too few vertices for 4 slices to stay arc-balanced
            // (and the win per rank shrinks with the local work anyway).
            if spec.name == "hub_heavy" && p == 4 {
                assert!(
                    t4_modeled >= 2.0,
                    "hub_heavy 1d p={p}: modeled t=4 FindBestModule speedup {t4_modeled:.2}x \
                     below the 2x acceptance bar"
                );
            }
            table.row(vec![
                p.to_string(),
                fmt_secs(sweep_1d.wall_s),
                fmt_secs(sweep_del.wall_s),
                format!("{t4_modeled:.2}x"),
                fmt_secs(run.modeled_total_s),
            ]);
            if pi > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n        {{\n          \"p\": {p},\n          \"run\": "
            );
            json_run(&mut json, "          ", &run);
            json.push_str(",\n          \"kernel_sweep_1d\": ");
            json_sweep(&mut json, "          ", &sweep_1d);
            json.push_str(",\n          \"kernel_sweep_delegate\": ");
            json_sweep(&mut json, "          ", &sweep_del);
            json.push_str(",\n          \"thread_sweep_1d\": ");
            json_threads(&mut json, "          ", &threads_1d);
            let _ = write!(
                json,
                ",\n          \"thread_t4_modeled_speedup\": {t4_modeled:.4},\n          \"bit_identical\": true\n        }}"
            );
        }
        json.push_str("\n      ]\n    }");
        table.print();
        println!();
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
