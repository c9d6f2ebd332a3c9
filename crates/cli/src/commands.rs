//! Command implementations.

use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

use infomap_baselines::gossip_map;
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap, RecoveryConfig, StageTrace};
use infomap_graph::datasets::DatasetId;
use infomap_graph::generators::{lfr_like, streaming_lfr_edges, LfrParams};
use infomap_graph::snapshot::{read_header, write_shards, write_snapshot, ShardSink};
use infomap_graph::{io, Graph};
use infomap_metrics::{modularity, modularity_from_exit, StrengthProfile};
use infomap_mpisim::{CostModel, FaultPlan};
use infomap_partition::{BalanceStats, DelegateThreshold, Partition};

use crate::args::{Algorithm, ClusterOpts, Command, Strategy};

pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Cluster(o) => cluster(&o).map(|report| print!("{report}")),
        Command::Partition {
            path,
            ranks,
            strategy,
        } => partition(&path, ranks, strategy),
        Command::Generate {
            what,
            n,
            mu,
            scale,
            seed,
            output,
            truth,
            shards,
            out_dir,
        } => {
            if shards > 0 {
                generate_shards(&what, n, mu, scale, seed, shards, &out_dir.unwrap())
            } else {
                generate(
                    &what,
                    n,
                    mu,
                    scale,
                    seed,
                    output.as_deref(),
                    truth.as_deref(),
                )
            }
        }
        Command::Snapshot { path, out, shards } => snapshot(&path, &out, shards),
        Command::Info { path } => info(&path),
        Command::Launch(opts, args) => crate::launch::run_launch(opts, &args),
        Command::RankWorker(..) => unreachable!("handled in main for exit-code control"),
    }
}

fn load(path: &str) -> Result<io::LoadedGraph, String> {
    io::read_edge_list_file(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Run `cluster` and return its report (empty when `quiet`).
fn cluster(o: &ClusterOpts) -> Result<String, String> {
    let (algorithm, fault_plan, seed) = (o.algorithm, o.fault_plan.as_deref(), o.seed);
    if algorithm != Algorithm::Distributed && (fault_plan.is_some() || o.checkpoint_every > 0) {
        return Err(
            "--fault-plan/--checkpoint-every are only supported by --algorithm dist".into(),
        );
    }
    let io::LoadedGraph {
        graph,
        original_ids,
    } = load(&o.path)?;
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let started = std::time::Instant::now();
    let mut recovery_line = None;
    let mut stages = None;
    // The run's wall time; each arm takes it before pricing modularity.
    let (name, modules, codelength, elapsed, newman_q) = match algorithm {
        Algorithm::Sequential => {
            let r = Infomap::new(InfomapConfig { seed }).run(&graph);
            let elapsed = started.elapsed();
            let newman_q = modularity(&graph, &r.modules);
            let name = "sequential Infomap";
            (name, r.modules, r.codelength, elapsed, newman_q)
        }
        Algorithm::Distributed => {
            let plan = fault_plan.map(FaultPlan::parse).transpose()?;
            // The run takes the graph and releases it once the ranks are
            // prepared; the report's modularity needs only this.
            let profile = StrengthProfile::of(&graph);
            let r = DistributedInfomap::new(DistributedConfig {
                nranks: o.ranks,
                seed,
                threads: o.threads.max(1),
                recovery: RecoveryConfig {
                    checkpoint_every: o.checkpoint_every,
                    max_retries: o.max_retries,
                },
                ..Default::default()
            })
            .run_with_plan(graph, plan)?;
            let elapsed = started.elapsed();
            if fault_plan.is_some() {
                let rec = &r.recovery;
                let degraded = if rec.degraded {
                    "; degraded: best checkpoint"
                } else {
                    ""
                };
                recovery_line = Some(format!(
                    "{} attempt(s), {} restore(s), {} checkpoint(s) committed{degraded}",
                    rec.attempts, rec.restores, rec.checkpoints_committed
                ));
            }
            stages = Some(stages_line(trace_stages(&r.trace)));
            let newman_q = modularity_from_exit(&profile, &r.modules, r.exit_flow());
            let name = "distributed Infomap";
            (name, r.modules, r.codelength, elapsed, newman_q)
        }
        Algorithm::Gossip => {
            let r = gossip_map(&graph, o.ranks, seed);
            let elapsed = started.elapsed();
            stages = Some(stages_line(trace_stages(&r.trace)));
            let newman_q = modularity(&graph, &r.modules);
            let name = "GossipMap-like baseline";
            (name, r.modules, r.codelength, elapsed, newman_q)
        }
    };

    let mut report = String::new();
    if !o.quiet {
        let k = modules
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let r = &mut report;
        let _ = writeln!(r, "{name}: {n} vertices, {m} edges");
        let _ = writeln!(r, "  modules:    {k}");
        let _ = writeln!(r, "  codelength: {codelength:.6} bits");
        let _ = writeln!(r, "  modularity: {newman_q:.4}");
        let _ = writeln!(r, "  wall time:  {elapsed:?}");
        if let Some(kib) = peak_rss_kib() {
            let _ = writeln!(r, "  memory:     {:.1} MiB peak", kib as f64 / 1024.0);
        }
        if let Some(line) = &stages {
            let _ = writeln!(r, "  stages:     {line}");
        }
        if let Some(line) = &recovery_line {
            let _ = writeln!(r, "  recovery:   {line}");
        }
    }

    if let Some(out_path) = &o.output {
        write_assignments(out_path, &modules, Some(&original_ids))?;
        if !o.quiet {
            let _ = writeln!(report, "  wrote {out_path}");
        }
    }
    Ok(report)
}

/// This process's peak resident set, KiB: `VmHWM` of `/proc/self/status`,
/// `None` where there is no `/proc`. The kernel updates that high-water
/// mark lazily, not at every page fault, so it can read a few hundred KiB
/// below the highest `VmRSS` the process reached; the `memory:` and `peak
/// memory:` lines print it as it is, and a gate on them keeps ≥ 4 %
/// headroom.
pub(crate) fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `(stage, rounds, stop reason)` of every clustering stage of a run.
pub(crate) fn trace_stages(trace: &[StageTrace]) -> impl Iterator<Item = (u8, usize, &str)> {
    trace
        .iter()
        .map(|t| (t.stage, t.inner_iterations, t.stop.name()))
}

/// The `stages:` report line — how many rounds every clustering stage ran
/// and why it stopped, merge levels of one stage comma-separated:
/// `s1 40 (cap) | s2 14 (stalled), 5 (quiesced)`.
pub(crate) fn stages_line<S: std::fmt::Display>(
    stages: impl Iterator<Item = (u8, usize, S)>,
) -> String {
    let mut line = String::new();
    let mut current = None;
    for (stage, rounds, stop) in stages {
        if current == Some(stage) {
            line.push_str(", ");
        } else {
            if current.is_some() {
                line.push_str(" | ");
            }
            line.push_str(&format!("s{stage} "));
            current = Some(stage);
        }
        line.push_str(&format!("{rounds} ({stop})"));
    }
    line
}

/// `vertex community` lines in dense-id order. `original_ids` maps a
/// dense id back to the edge list's; `None` is the identity (snapshot
/// rows are already keyed by global vertex id).
pub(crate) fn write_assignments(
    path: &str,
    modules: &[u32],
    original_ids: Option<&[u64]>,
) -> Result<(), String> {
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
    );
    writeln!(w, "# vertex community").map_err(|e| e.to_string())?;
    for (dense, &m) in modules.iter().enumerate() {
        let id = original_ids.map_or(dense as u64, |ids| ids[dense]);
        writeln!(w, "{id} {m}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))
}

fn partition(path: &str, ranks: usize, strategy: Strategy) -> Result<(), String> {
    let loaded = load(path)?;
    let g = &loaded.graph;
    let (name, part) = match strategy {
        Strategy::OneD => ("round-robin 1D", Partition::one_d(g, ranks)),
        Strategy::Block => ("block 1D", Partition::one_d_block(g, ranks)),
        Strategy::Delegate => (
            "delegate (auto threshold)",
            Partition::delegate(g, ranks, DelegateThreshold::Auto(4.0), true),
        ),
    };
    let edges = BalanceStats::from_loads(&part.edge_counts());
    let ghosts = BalanceStats::from_loads(&part.ghost_counts());
    println!("{name} over {ranks} ranks:");
    println!(
        "  edges/rank:  min {} median {} max {} (max/mean {:.2})",
        edges.min, edges.median, edges.max, edges.imbalance
    );
    println!(
        "  ghosts/rank: min {} median {} max {} (max/mean {:.2})",
        ghosts.min, ghosts.median, ghosts.max, ghosts.imbalance
    );
    println!("  delegates:   {}", part.delegates.len());
    // What would the workload phase cost under the default model?
    let model = CostModel::default();
    let worst = *part.edge_counts().iter().max().unwrap_or(&0);
    println!(
        "  modeled sweep bound: {:.3} ms/iteration",
        worst as f64 * model.t_work * 1e3
    );
    Ok(())
}

fn generate(
    what: &str,
    n: usize,
    mu: f64,
    scale: f64,
    seed: u64,
    output: Option<&str>,
    truth_path: Option<&str>,
) -> Result<(), String> {
    let (g, truth): (Graph, Vec<u32>) = match what {
        "lfr" => lfr_like(LfrParams::with(n, mu), seed),
        name => dataset_id(name)?.profile().generate_scaled(scale, seed),
    };
    println!(
        "generated {what}: {} vertices, {} edges, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    if let Some(path) = output {
        io::write_edge_list_file(&g, path).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = truth_path {
        let mut w =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
        for (v, c) in truth.iter().enumerate() {
            writeln!(w, "{v} {c}").map_err(|e| e.to_string())?;
        }
        println!("wrote {path}");
    }
    Ok(())
}

pub(crate) fn dataset_id(name: &str) -> Result<DatasetId, String> {
    Ok(match name {
        "amazon" => DatasetId::Amazon,
        "dblp" => DatasetId::Dblp,
        "ndweb" => DatasetId::NdWeb,
        "youtube" => DatasetId::YouTube,
        "livejournal" => DatasetId::LiveJournal,
        "uk2005" => DatasetId::Uk2005,
        "webbase" => DatasetId::WebBase2001,
        "friendster" => DatasetId::Friendster,
        "uk2007" => DatasetId::Uk2007,
        other => return Err(format!("unknown generator {other:?}")),
    })
}

/// `generate ... --shards N --out-dir D`: stream the generator straight
/// into per-rank snapshot shards without ever materializing the graph.
fn generate_shards(
    what: &str,
    n: usize,
    mu: f64,
    scale: f64,
    seed: u64,
    shards: usize,
    out_dir: &str,
) -> Result<(), String> {
    let dir = Path::new(out_dir);
    let paths = match what {
        "lfr" => {
            let params = LfrParams::with(n, mu);
            let mut sink = ShardSink::create(dir, shards, params.n).map_err(|e| e.to_string())?;
            streaming_lfr_edges(params, seed, |u, v, w| sink.edge(u, v, w))
                .map_err(|e| e.to_string())?;
            sink.finalize().map_err(|e| e.to_string())?
        }
        name => dataset_id(name)?
            .profile()
            .generate_sharded(scale, seed, shards, dir)
            .map_err(|e| e.to_string())?,
    };
    let h = read_header(&paths[0]).map_err(|e| e.to_string())?;
    println!(
        "generated {what} into {} shard(s) under {}: {} vertices, {} edges",
        paths.len(),
        dir.display(),
        h.global_vertices,
        h.global_edges
    );
    Ok(())
}

/// `snapshot <edges.txt> --out PATH [--shards N]`: convert an edge list
/// to the binary format `launch --graph-shard-dir` and the paged loader
/// consume.
fn snapshot(path: &str, out: &str, shards: usize) -> Result<(), String> {
    let loaded = load(path)?;
    let g = &loaded.graph;
    if shards == 0 {
        write_snapshot(g, Path::new(out)).map_err(|e| e.to_string())?;
        println!(
            "wrote {out}: {} vertices, {} edges",
            g.num_vertices(),
            g.num_edges()
        );
    } else {
        let paths = write_shards(g, shards, Path::new(out)).map_err(|e| e.to_string())?;
        println!(
            "wrote {} shard(s) under {out}: {} vertices, {} edges",
            paths.len(),
            g.num_vertices(),
            g.num_edges()
        );
    }
    Ok(())
}

fn info(path: &str) -> Result<(), String> {
    let loaded = load(path)?;
    let g = &loaded.graph;
    let (_, components) = g.components();
    let degrees: Vec<usize> = (0..g.num_vertices() as u32).map(|u| g.degree(u)).collect();
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64;
    println!("{path}:");
    println!("  vertices:   {}", g.num_vertices());
    println!("  edges:      {}", g.num_edges());
    println!("  weight:     {}", g.total_weight());
    println!("  components: {components}");
    println!("  degree:     mean {mean:.2}, max {}", g.max_degree());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Algorithm, Command, Strategy};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dinfomap-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_test_graph(dir: &std::path::Path) -> String {
        let (g, _) = lfr_like(LfrParams::with(120, 0.2), 5);
        let path = dir.join("g.txt");
        io::write_edge_list_file(&g, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn peak_memory_is_read_where_proc_exists() {
        let here = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(peak_rss_kib().is_some_and(|kib| kib > 0), here);
    }

    #[test]
    fn info_runs_on_a_generated_graph() {
        let dir = tmpdir("info");
        let path = write_test_graph(&dir);
        run(Command::Info { path }).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cluster_writes_original_vertex_ids() {
        let dir = tmpdir("cluster");
        let path = write_test_graph(&dir);
        let out = dir.join("c.txt").to_string_lossy().into_owned();
        run(Command::Cluster(ClusterOpts {
            algorithm: Algorithm::Sequential,
            ranks: 2,
            seed: 1,
            output: Some(out.clone()),
            quiet: true,
            ..ClusterOpts::new(path)
        }))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(
            lines.len() >= 100,
            "too few assignment lines: {}",
            lines.len()
        );
        for line in &lines {
            let mut parts = line.split_whitespace();
            parts.next().unwrap().parse::<u64>().unwrap();
            parts.next().unwrap().parse::<u32>().unwrap();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn all_algorithms_run_through_the_cli_path() {
        let dir = tmpdir("algos");
        let path = write_test_graph(&dir);
        for algorithm in [
            Algorithm::Sequential,
            Algorithm::Distributed,
            Algorithm::Gossip,
        ] {
            run(Command::Cluster(ClusterOpts {
                algorithm,
                ranks: 2,
                threads: 2,
                quiet: true,
                ..ClusterOpts::new(path.clone())
            }))
            .unwrap();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_plan_is_distributed_only() {
        let err = run(Command::Cluster(ClusterOpts {
            algorithm: Algorithm::Sequential,
            ranks: 2,
            quiet: true,
            fault_plan: Some("seed=1;crash=0@5".into()),
            ..ClusterOpts::new("g.txt".into())
        }));
        assert!(err
            .unwrap_err()
            .contains("only supported by --algorithm dist"));
    }

    #[test]
    fn faults_naming_a_missing_rank_are_refused() {
        let dir = tmpdir("norank");
        let path = write_test_graph(&dir);
        let cluster = |spec: &str| {
            let argv = ["cluster", &path, "--ranks", "4", "--fault-plan", spec];
            run(crate::args::parse(&argv.map(String::from)).unwrap())
        };
        let err = cluster("crash=9@5").unwrap_err();
        assert!(err.contains("names rank 9"), "{err}");
        assert!(cluster("crash=1@0").unwrap_err().contains("1-based"));
        // Refused before the edge list is read.
        let launch = "launch /nonexistent/g.txt --procs 2 --kill-rank 5@10";
        let argv: Vec<String> = launch.split(' ').map(String::from).collect();
        let err = run(crate::args::parse(&argv).unwrap()).unwrap_err();
        assert!(err.contains("--kill-rank 5 names no rank"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cluster_recovers_through_an_injected_crash() {
        let dir = tmpdir("chaos");
        let path = write_test_graph(&dir);
        run(Command::Cluster(ClusterOpts {
            ranks: 2,
            quiet: true,
            fault_plan: Some("seed=3;crash=1@50".into()),
            checkpoint_every: 2,
            ..ClusterOpts::new(path)
        }))
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cluster_marks_a_degraded_result_on_its_recovery_line() {
        let dir = tmpdir("degraded");
        let path = write_test_graph(&dir);
        // Rank 1 crashes at comm event 120 of every attempt, past the
        // level-1 commit, with no retry left: the checkpointed clustering
        // is the result (exit 0), not an error.
        let report = cluster(&ClusterOpts {
            ranks: 2,
            fault_plan: Some("seed=1;crash=1@120!".into()),
            checkpoint_every: 1,
            max_retries: 0,
            ..ClusterOpts::new(path)
        })
        .unwrap();
        let line = report.lines().find(|l| l.contains("recovery:"));
        assert!(line.is_some_and(|l| l.contains("1 attempt(s)")), "{report}");
        assert!(line.is_some_and(|l| l.contains("degraded")), "{report}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn partition_reports_all_strategies() {
        let dir = tmpdir("part");
        let path = write_test_graph(&dir);
        for strategy in [Strategy::OneD, Strategy::Block, Strategy::Delegate] {
            run(Command::Partition {
                path: path.clone(),
                ranks: 4,
                strategy,
            })
            .unwrap();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn generate_writes_graph_and_truth() {
        let dir = tmpdir("gen");
        let g_path = dir.join("g.txt").to_string_lossy().into_owned();
        let t_path = dir.join("t.txt").to_string_lossy().into_owned();
        run(Command::Generate {
            what: "amazon".into(),
            n: 0,
            mu: 0.0,
            scale: 0.05,
            seed: 2,
            output: Some(g_path.clone()),
            truth: Some(t_path.clone()),
            shards: 0,
            out_dir: None,
        })
        .unwrap();
        assert!(std::fs::metadata(&g_path).unwrap().len() > 100);
        assert!(std::fs::metadata(&t_path).unwrap().len() > 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_generator_is_an_error() {
        let err = run(Command::Generate {
            what: "nonsense".into(),
            n: 10,
            mu: 0.1,
            scale: 1.0,
            seed: 0,
            output: None,
            truth: None,
            shards: 0,
            out_dir: None,
        });
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_and_sharded_generate_roundtrip() {
        let dir = tmpdir("snap");
        let path = write_test_graph(&dir);
        let snap = dir.join("g.snap").to_string_lossy().into_owned();
        run(Command::Snapshot {
            path: path.clone(),
            out: snap.clone(),
            shards: 0,
        })
        .unwrap();
        assert!(std::fs::metadata(&snap).unwrap().len() > 72);
        let shard_dir = dir.join("shards").to_string_lossy().into_owned();
        run(Command::Snapshot {
            path,
            out: shard_dir.clone(),
            shards: 3,
        })
        .unwrap();
        for r in 0..3 {
            assert!(dir.join("shards").join(format!("shard-{r}.snap")).exists());
        }
        let gen_dir = dir.join("gen").to_string_lossy().into_owned();
        run(Command::Generate {
            what: "lfr".into(),
            n: 300,
            mu: 0.2,
            scale: 1.0,
            seed: 7,
            output: None,
            truth: None,
            shards: 2,
            out_dir: Some(gen_dir),
        })
        .unwrap();
        let h = read_header(&dir.join("gen").join("shard-0.snap")).unwrap();
        assert_eq!(h.global_vertices, 300);
        assert!(h.global_edges > 300);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bad_inputs_are_readable_errors_on_every_reading_command() {
        // The corpus CI's `bad-input` step feeds the built binary: one good
        // edge, then a line 2 the reader must refuse; or lines whose folded
        // weights the map equation cannot price.
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/bad_inputs");
        let mut seen = 0;
        for entry in std::fs::read_dir(corpus).expect("tests/bad_inputs") {
            let path = entry.unwrap().path().to_string_lossy().into_owned();
            let want = if path.ends_with("invalid_utf8.txt") {
                "io error"
            } else if path.contains("/unpriceable_") {
                "weights the map equation cannot price"
            } else {
                "parse error on line 2"
            };
            for verb in ["info", "cluster", "launch"] {
                let argv = [verb.to_string(), path.clone()];
                let msg = run(crate::args::parse(&argv).unwrap()).unwrap_err();
                assert!(
                    msg.contains("cannot read") && msg.contains(want),
                    "{verb}: {msg}"
                );
            }
            seen += 1;
        }
        assert!(seen >= 11, "{seen} files under {corpus}");
    }

    #[test]
    fn missing_file_is_a_readable_error() {
        let err = run(Command::Info {
            path: "/nonexistent/graph.txt".into(),
        });
        let msg = err.unwrap_err();
        assert!(msg.contains("cannot read"), "message: {msg}");
    }
}
