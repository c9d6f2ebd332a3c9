//! perf_transport — the thread world against the socket transport
//! (DESIGN.md §6.15, §6.18): the same distributed pipeline run over
//! in-memory channels and over a real socket mesh with length-prefixed
//! frames, deadlines and heartbeats, on identical seeds.
//!
//! Ranks are threads either way — what changes is every byte of
//! algorithm traffic crossing genuine kernel socket buffers instead of
//! a `Vec` swap, so the delta is the transport's real cost: syscalls,
//! copies, framing, and the byte-lowering of collectives onto blob
//! exchanges. Both backends are asserted **bit-identical**
//! per run (MDL series, move counts, final assignment) — the harness
//! doubles as the backend-equivalence gate on a hub-heavy stand-in
//! where the collectives carry real volume.
//!
//! The transport meters itself (per-collective-kind frames, wire bytes,
//! wall clock). The harness asserts the frame budget in-line — exactly
//! ⌈log₂ p⌉ frames per exchange — and feeds the measured rounds of the
//! largest run into a least-squares latency/bandwidth fit. The calibrated cost model's
//! makespan is then checked against the measured socket wall clock and
//! both are recorded, with per-kind residuals, in the output.
//!
//! Writes `BENCH_transport.json` at the repo root (override with `--out
//! PATH`); `--tiny` shrinks the graph and drops p=16 for CI smoke runs.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use infomap_bench::{cost_model, env_seed, fmt_secs, Table};
use infomap_distributed::{
    CheckpointStore, DistributedConfig, DistributedInfomap, DistributedOutput, RankProgram,
    RecoveryReport,
};
use infomap_graph::generators::{chung_lu, power_law_degrees};
use infomap_graph::Graph;
use infomap_mpisim::{fit_latency_bandwidth, CalibrationSample, Comm, CostModel, TransportMetrics};
use infomap_transport_socket::collectives::ceil_log2;
use infomap_transport_socket::{SocketConfig, SocketTransport};

/// The calibrated makespan must land within this factor of the measured
/// socket wall clock (either side). The model is bulk-synchronous
/// max-over-ranks with comm terms fitted from the run's own measured
/// rounds; compute terms keep their defaults, so the bound is a sanity
/// envelope, not a precision claim.
const CALIBRATION_TOLERANCE_FACTOR: f64 = 5.0;

struct RunMeasure {
    wall_s: f64,
    modeled_total_s: f64,
    total_bytes: u64,
    total_moves: u64,
    mdl_final: f64,
    mdl_bits: Vec<u64>,
    modules: Vec<u32>,
    out: DistributedOutput,
}

fn summarize(out: DistributedOutput, wall_s: f64) -> RunMeasure {
    let bd = cost_model().makespan(&out.rank_stats);
    RunMeasure {
        wall_s,
        modeled_total_s: bd.total,
        total_bytes: out
            .rank_stats
            .iter()
            .map(|r| {
                r.total.p2p_bytes_sent + r.total.collective_bytes + r.total.collective_bytes_recv
            })
            .sum(),
        total_moves: out.trace.iter().map(|t| t.moves).sum(),
        mdl_final: out.codelength,
        mdl_bits: out
            .trace
            .iter()
            .flat_map(|t| t.mdl_series.iter().map(|m| m.to_bits()))
            .collect(),
        modules: out.modules.clone(),
        out,
    }
}

fn thread_run(g: &Graph, p: usize, seed: u64) -> RunMeasure {
    let started = Instant::now();
    let out = DistributedInfomap::new(DistributedConfig {
        nranks: p,
        seed,
        ..Default::default()
    })
    .run(g);
    summarize(out, started.elapsed().as_secs_f64())
}

/// Every rank on its own [`SocketTransport`] over a private UDS mesh.
/// Returns the run summary, the per-rank transport metrics, and their
/// world-wide aggregate.
fn socket_run(
    g: &Graph,
    p: usize,
    seed: u64,
) -> (RunMeasure, Vec<TransportMetrics>, TransportMetrics) {
    let dir = std::env::temp_dir().join(format!(
        "dinf-perf-transport-{}-p{p}-s{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mesh dir");
    let cfg = DistributedConfig {
        nranks: p,
        seed,
        ..Default::default()
    };
    let program = Arc::new(RankProgram::prepare(cfg, g));
    let store = Arc::new(CheckpointStore::new(p));
    let mut scfg = SocketConfig::uds(&dir);
    scfg.timeout = std::time::Duration::from_secs(60);

    let started = Instant::now();
    let mut handles = Vec::new();
    for rank in 0..p {
        let program = Arc::clone(&program);
        let store = Arc::clone(&store);
        let scfg = scfg.clone();
        handles.push(std::thread::spawn(move || {
            let t = SocketTransport::connect(rank, p, scfg).expect("connect");
            let mut comm = Comm::over_transport(Box::new(t));
            let done = program.run_rank(&mut comm, store.as_ref());
            let metrics = comm
                .transport_metrics()
                .expect("socket transport meters itself");
            (done, metrics, comm.finish())
        }));
    }
    let mut rank0 = None;
    let mut stats = Vec::new();
    let mut per_rank = Vec::new();
    let mut aggregate = TransportMetrics::default();
    for h in handles {
        let (done, metrics, st) = h.join().expect("rank thread");
        stats.push(st);
        aggregate.absorb(&metrics);
        per_rank.push(metrics);
        if let Some(result) = done {
            rank0 = Some(result);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let (modules, trace, codelength) = rank0.expect("rank 0 result");
    let out = program.assemble_output(modules, trace, codelength, stats, RecoveryReport::default());
    (summarize(out, wall_s), per_rank, aggregate)
}

/// In-harness frame-budget gate: every rank's exchange must cost exactly
/// ⌈log₂ p⌉ frames. An inflated count here means the routing regressed
/// even if wall clocks look fine on this machine.
fn assert_frame_budget(p: usize, per_rank: &[TransportMetrics]) -> u64 {
    let key = "exchange_logp";
    let budget = ceil_log2(p) as u64;
    for (rank, m) in per_rank.iter().enumerate() {
        let op = m
            .ops
            .get(key)
            .unwrap_or_else(|| panic!("p={p} rank {rank}: no {key} metrics"));
        assert!(op.calls > 0, "p={p} rank {rank}: no exchanges metered");
        assert_eq!(
            op.frames_sent,
            op.calls * budget,
            "p={p} rank {rank}: {key} sent {} frames over {} calls, budget {budget}/exchange",
            op.frames_sent,
            op.calls
        );
    }
    budget
}

fn assert_bit_identical(label: &str, a: &RunMeasure, b: &RunMeasure) {
    assert_eq!(
        a.mdl_bits, b.mdl_bits,
        "{label}: MDL series diverged between backends"
    );
    assert_eq!(a.total_moves, b.total_moves, "{label}: moves");
    assert_eq!(a.modules, b.modules, "{label}: assignment");
    assert_eq!(
        a.mdl_final.to_bits(),
        b.mdl_final.to_bits(),
        "{label}: final codelength bits"
    );
}

fn json_run(out: &mut String, indent: &str, m: &RunMeasure) {
    let _ = write!(out, "{{\n{indent}  \"wall_s\": {:e},", m.wall_s);
    let _ = write!(
        out,
        "\n{indent}  \"modeled_total_s\": {:e},",
        m.modeled_total_s
    );
    let _ = write!(out, "\n{indent}  \"total_bytes\": {},", m.total_bytes);
    let _ = write!(out, "\n{indent}  \"total_moves\": {},", m.total_moves);
    let _ = write!(
        out,
        "\n{indent}  \"mdl_final\": {:e}\n{indent}}}",
        m.mdl_final
    );
}

fn json_metrics(out: &mut String, indent: &str, m: &TransportMetrics) {
    out.push('{');
    for (i, (key, op)) in m.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  \"{key}\": {{ \"calls\": {}, \"frames_sent\": {}, \"bytes_sent\": {}, \
             \"frames_recv\": {}, \"bytes_recv\": {}, \"wall_s\": {:e} }}",
            op.calls,
            op.frames_sent,
            op.bytes_sent,
            op.frames_recv,
            op.bytes_recv,
            op.wall.as_secs_f64()
        );
    }
    let _ = write!(out, "\n{indent}}}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_transport.json", env!("CARGO_MANIFEST_DIR")));
    let seed = env_seed();
    let procs: &[usize] = if tiny { &[4, 8] } else { &[4, 8, 16] };

    // Hub stand-in: a heavy power-law tail, so delegate elections and
    // module syncs push real volume through the transport.
    let (n, kmax) = if tiny { (1_200, 300) } else { (8_000, 2_000) };
    let g = chung_lu(&power_law_degrees(n, 2.0, 2, kmax, seed), seed + 1);
    let max_deg = (0..g.num_vertices() as u32)
        .map(|v| g.degree(v))
        .max()
        .unwrap_or(0);

    let mode = if tiny { "tiny" } else { "full" };
    println!("perf_transport: thread world vs socket transport ({mode}, seed {seed})");
    println!(
        "hub stand-in: |V|={}, |E|={}, max deg {}\n",
        g.num_vertices(),
        g.num_edges(),
        max_deg
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"dinfomap-perf-transport-v3\",\n");
    let _ = write!(json, "  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n");
    json.push_str(
        "  \"regenerate\": \"cargo run --release -p infomap-bench --bin perf_transport\",\n",
    );
    json.push_str("  \"note\": \"ranks are threads on both backends; the socket backend routes every byte through a UDS mesh with length-prefixed frames, deadlines and heartbeats, its collectives as Bruck log-round exchanges. wall_s is machine-dependent (no acceptance bar); modeled_total_s is the deterministic cost-model makespan from the metered counters\",\n");
    json.push_str("  \"invariants\": \"both backends are bit-identical per (p, seed): asserted on the MDL series, move counts, and final assignment. frame budget asserted per rank: exchange_logp sends exactly ceil(log2 p) frames per exchange\",\n");
    let _ = writeln!(
        json,
        "  \"graph\": {{ \"name\": \"hub_standin\", \"vertices\": {}, \"edges\": {}, \"max_degree\": {} }},",
        g.num_vertices(),
        g.num_edges(),
        max_deg
    );
    json.push_str("  \"runs\": [");

    let mut table = Table::new(&["p", "thread wall", "socket wall", "ratio", "frames/exch"]);
    let mut calib_source: Option<(usize, RunMeasure, TransportMetrics)> = None;
    for (pi, &p) in procs.iter().enumerate() {
        let threaded = thread_run(&g, p, seed);
        let (logp, logp_ranks, logp_agg) = socket_run(&g, p, seed);
        assert_bit_identical(&format!("p={p}"), &threaded, &logp);
        let budget = assert_frame_budget(p, &logp_ranks);
        let ratio = logp.wall_s / threaded.wall_s.max(1e-9);
        table.row(vec![
            p.to_string(),
            fmt_secs(threaded.wall_s),
            fmt_secs(logp.wall_s),
            format!("{ratio:.2}x"),
            budget.to_string(),
        ]);
        if pi > 0 {
            json.push(',');
        }
        let _ = write!(json, "\n    {{\n      \"p\": {p},\n      \"thread\": ");
        json_run(&mut json, "      ", &threaded);
        json.push_str(",\n      \"socket_logp\": ");
        json_run(&mut json, "      ", &logp);
        let _ = write!(
            json,
            ",\n      \"wall_ratio_logp\": {ratio:.4},\n      \"frames_per_exchange\": {budget},"
        );
        json.push_str("\n      \"transport_logp\": ");
        json_metrics(&mut json, "      ", &logp_agg);
        json.push_str(",\n      \"bit_identical\": true\n    }");
        // Calibrate from the largest world — the most rounds, the most
        // signal.
        if pi == procs.len() - 1 {
            calib_source = Some((p, logp, logp_agg));
        }
    }
    json.push_str("\n  ],\n");

    let (calib_p, calib_run, calib_agg) = calib_source.expect("at least one p");
    let samples = CalibrationSample::from_metrics(&calib_agg);
    let fit = fit_latency_bandwidth(&samples).expect("measured rounds carry signal");
    let calibrated = CostModel::calibrated(&fit);
    let calibrated_makespan = calibrated.makespan(&calib_run.out.rank_stats).total;
    let wall = calib_run.wall_s;
    let within = calibrated_makespan <= wall * CALIBRATION_TOLERANCE_FACTOR
        && calibrated_makespan >= wall / CALIBRATION_TOLERANCE_FACTOR;
    assert!(
        within,
        "calibrated makespan {calibrated_makespan:.4}s vs measured wall {wall:.4}s exceeds \
         {CALIBRATION_TOLERANCE_FACTOR}x tolerance (p={calib_p})"
    );
    json.push_str("  \"calibration\": {\n");
    let _ = writeln!(
        json,
        "    \"fitted_from\": \"socket_logp p={calib_p} (aggregated over ranks)\","
    );
    let _ = writeln!(json, "    \"t_frame_s\": {:e},", fit.t_frame);
    let _ = writeln!(json, "    \"t_byte_s\": {:e},", fit.t_byte);
    json.push_str("    \"residuals\": [");
    for (i, r) in fit.residuals.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n      {{ \"op\": \"{}\", \"measured_s\": {:e}, \"modeled_s\": {:e}, \"rel_err\": {:.4} }}",
            r.op, r.measured_secs, r.modeled_secs, r.rel_err
        );
    }
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"calibrated_makespan_s\": {calibrated_makespan:e},"
    );
    let _ = writeln!(json, "    \"measured_wall_s\": {wall:e},");
    let _ = writeln!(
        json,
        "    \"tolerance_factor\": {CALIBRATION_TOLERANCE_FACTOR},"
    );
    let _ = writeln!(json, "    \"within_tolerance\": {within}");
    json.push_str("  }\n}\n");

    table.print();
    println!(
        "\ncalibration (from p={calib_p}): t_frame={:.3}us t_byte={:.3}ns — calibrated \
         makespan {} vs measured wall {}",
        fit.t_frame * 1e6,
        fit.t_byte * 1e9,
        fmt_secs(calibrated_makespan),
        fmt_secs(wall)
    );
    for r in &fit.residuals {
        println!(
            "  residual {:<16} measured {:>10} modeled {:>10} rel_err {:.2}",
            r.op,
            fmt_secs(r.measured_secs),
            fmt_secs(r.modeled_secs),
            r.rel_err
        );
    }
    std::fs::write(&out_path, &json).expect("write BENCH_transport.json");
    println!("\nwrote {out_path}");
}
