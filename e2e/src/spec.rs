//! The benchmark's contract in one place: every metric's name, unit and
//! direction, each end-to-end bound, and for each per-layer metric the
//! layer it belongs to and the end-to-end metric and workloads it should
//! move. `BENCHMARK.json` is generated from these tables (`e2e spec`)
//! and a test keeps the committed file equal to them.

use crate::json::{obj, Json};
use crate::workload::Workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// How the bounds were set is in README.md ("Bounds, and the noise they
/// had to absorb"). In short: a run's graphs come from its seed, and the
/// reference host's speed shifts by a fifth between quiet and busy
/// spells, so the three time metrics sit at the contract's cap; the
/// others are three times the widest quartile distance seen over ten
/// run seeds.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "edges_per_s",
        unit: "edges/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_core_s",
        unit: "core-s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "codelength_bits",
        unit: "bits",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "nmi",
        unit: "ratio",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Phases of the distributed driver, the program's names with `/`→`-`,
/// plus `unphased`: rank total minus every named phase.
pub const PHASES: [&str; 15] = [
    "Prepare",
    "s1-Init",
    "s1-FindBestModule",
    "s1-BroadcastDelegates",
    "s1-SwapBoundaryInfo",
    "s1-Other",
    "s1-Checkpoint",
    "Merge",
    "s2-Init",
    "s2-FindBestModule",
    "s2-BroadcastDelegates",
    "s2-SwapBoundaryInfo",
    "s2-Other",
    "s2-Checkpoint",
    "unphased",
];

/// Operation kinds the socket transport meters under default routing.
pub const TRANSPORT_KINDS: [&str; 4] = ["exchange_logp", "alltoallv", "p2p_send", "p2p_recv"];

const SOCKET_WORKLOADS: &str = "hub_launch, hub_shards_paged, hub_ckpt; zero on flat_cluster";

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Module of the repository the number belongs to.
    pub layer: &'static str,
    /// End-to-end metric a change to this number should move.
    pub moves: &'static str,
    /// Workloads on which it should move it.
    pub on: &'static str,
}

fn add(
    all: &mut Vec<LayerMetric>,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
    metrics: &[(&str, &'static str, &'static str)],
) {
    all.extend(metrics.iter().map(|&(name, unit, better)| LayerMetric {
        name: name.to_string(),
        unit,
        better,
        layer,
        moves,
        on,
    }));
}

pub fn per_layer() -> Vec<LayerMetric> {
    let mut all = Vec::new();
    add(
        &mut all,
        "graph",
        "setup_s",
        "all (shard_write_s and gen_stream_edges_per_s: hub_shards_paged only)",
        &[
            ("graph.gen_s", "s", "lower"),
            ("graph.edgelist_write_s", "s", "lower"),
            ("graph.shard_write_s", "s", "lower"),
            ("graph.gen_stream_edges_per_s", "edges/s", "higher"),
        ],
    );
    add(
        &mut all,
        "graph",
        "wall_s, cpu_core_s",
        "hub_launch, hub_ckpt (paid once per worker and once by the launcher), flat_cluster (once); \
         zero on hub_shards_paged",
        &[
            ("graph.edgelist_load_s", "s", "lower"),
            ("graph.edgelist_load_mb_per_s", "MB/s", "higher"),
        ],
    );
    add(
        &mut all,
        "graph",
        "wall_s, peak_rss_mib",
        "hub_shards_paged only; zero elsewhere",
        &[
            ("graph.shard_open_s", "s", "lower"),
            ("graph.page_hits", "count", "higher"),
            ("graph.page_misses", "count", "lower"),
        ],
    );
    add(
        &mut all,
        "partition",
        "wall_s",
        "hub_* (the slowest rank sets the round); delegates = 0 on flat_cluster",
        &[
            ("partition.delegate_s", "s", "lower"),
            ("partition.delegates", "count", "lower"),
            ("partition.edge_imbalance", "ratio", "lower"),
            ("partition.ghosts", "count", "lower"),
        ],
    );
    add(
        &mut all,
        "distributed",
        "wall_s, peak_rss_mib",
        "hub_launch, hub_ckpt (every worker builds all p states), flat_cluster (once); \
         zero on hub_shards_paged",
        &[("distributed.state_build_s", "s", "lower")],
    );
    add(
        &mut all,
        "distributed",
        "wall_s",
        "flat_cluster most, hub_* less",
        &[
            ("distributed.find_best_s", "s", "lower"),
            ("distributed.find_best_arcs", "count", "lower"),
            ("distributed.find_best_arcs_per_s", "arcs/s", "higher"),
            ("distributed.find_best_moves", "count", "higher"),
        ],
    );
    add(
        &mut all,
        "distributed",
        "wall_s",
        "every workload",
        &[
            ("distributed.run_wall_s", "s", "lower"),
            ("distributed.rounds_s1", "count", "lower"),
            ("distributed.levels", "count", "lower"),
            ("distributed.moves_total", "count", "lower"),
        ],
    );
    for phase in PHASES {
        for (suffix, unit) in [
            ("wall_s", "s"),
            ("bytes", "bytes"),
            ("collective_calls", "count"),
        ] {
            all.push(LayerMetric {
                name: format!("phase.{phase}.{suffix}"),
                unit,
                better: "lower",
                layer: "distributed",
                moves: "wall_s",
                on: "every workload; *-BroadcastDelegates carries no bytes on flat_cluster, \
                     Prepare is hub_shards_paged only, *-Checkpoint hub_ckpt only",
            });
        }
    }
    add(
        &mut all,
        "distributed",
        "wall_s",
        "hub_*; small on flat_cluster",
        &[
            ("distributed.codec_encode_s", "s", "lower"),
            ("distributed.codec_decode_s", "s", "lower"),
            ("distributed.codec_encode_mb_per_s", "MB/s", "higher"),
            ("distributed.codec_decode_mb_per_s", "MB/s", "higher"),
            ("distributed.codec_bytes", "bytes", "lower"),
        ],
    );
    add(
        &mut all,
        "distributed",
        "wall_s",
        "hub_ckpt only; zero elsewhere",
        &[
            ("distributed.ckpt_encode_s", "s", "lower"),
            ("distributed.ckpt_decode_s", "s", "lower"),
            ("distributed.ckpt_file_commit_s", "s", "lower"),
            ("distributed.ckpt_bytes", "bytes", "lower"),
            ("distributed.ckpt_commits", "count", "lower"),
        ],
    );
    add(
        &mut all,
        "mpisim",
        "wall_s",
        "all (collective_calls); thread_world_wall_s is flat_cluster only; \
         wall_over_modeled is the model-to-wall gap",
        &[
            ("mpisim.collective_calls", "count", "lower"),
            ("mpisim.collective_bytes", "bytes", "lower"),
            ("mpisim.p2p_msgs", "count", "lower"),
            ("mpisim.p2p_bytes", "bytes", "lower"),
            ("mpisim.modeled_makespan_s", "s", "lower"),
            ("mpisim.wall_over_modeled", "ratio", "lower"),
            ("mpisim.thread_world_wall_s", "s", "lower"),
        ],
    );
    for kind in TRANSPORT_KINDS {
        for (suffix, unit) in [
            ("calls", "count"),
            ("frames", "count"),
            ("bytes", "bytes"),
            ("wall_s", "s"),
        ] {
            all.push(LayerMetric {
                name: format!("transport-socket.{kind}.{suffix}"),
                unit,
                better: "lower",
                layer: "transport-socket",
                moves: "wall_s, cpu_core_s",
                on: SOCKET_WORKLOADS,
            });
        }
    }
    add(
        &mut all,
        "transport-socket",
        "wall_s, cpu_core_s",
        SOCKET_WORKLOADS,
        &[("transport-socket.connect_s", "s", "lower")],
    );
    add(
        &mut all,
        "core",
        "codelength_bits",
        "flat_cluster only (the single-thread baseline its codelength is read against)",
        &[
            ("core.sequential_s", "s", "lower"),
            ("core.sequential_codelength", "bits", "lower"),
        ],
    );
    add(
        &mut all,
        "cli",
        "wall_s",
        "the three launch workloads (launch_overhead_s: spawn, bootstrap, per-worker load and \
         prepare, teardown); on flat_cluster only launch_wall_s is set",
        &[
            ("cli.launch_wall_s", "s", "lower"),
            ("cli.world_wall_s", "s", "lower"),
            ("cli.launch_overhead_s", "s", "lower"),
        ],
    );
    add(
        &mut all,
        "trace",
        "none",
        "sanity on every workload: residual_frac at most 0.10",
        &[
            ("trace.total_s", "s", "lower"),
            ("trace.residual_frac", "ratio", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
        ],
    );
    all
}

/// Seconds one contract run measures for; the graphs of one run take
/// about this long on the reference host.
pub const RUN_SECONDS: u64 = 20;

/// The whole `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "e2e/Cargo.toml",
                "--bin",
                "e2e",
                "--",
            ]),
        ),
        ("paths", strings(&["e2e"])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| obj([("name", w.name().into()), ("why", w.why().into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.as_str().into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `e2e spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_contract_holds() {
        let j = benchmark_json();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        let workloads = j.get("workloads").unwrap().as_arr().unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );

        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(well_formed_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        for m in &END_TO_END {
            assert!(well_formed_unit(m.unit), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_metric_says_what_it_should_move() {
        let layers = [
            "graph",
            "partition",
            "distributed",
            "mpisim",
            "transport-socket",
            "core",
            "cli",
            "trace",
        ];
        for m in per_layer() {
            assert!(well_formed_unit(m.unit), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
            assert!(layers.contains(&m.layer), "{}: layer {}", m.name, m.layer);
            assert!(!m.on.is_empty(), "{}", m.name);
            for moved in m.moves.split(", ") {
                assert!(
                    moved == "none" || END_TO_END.iter().any(|e| e.name == moved),
                    "{} moves unknown metric {moved}",
                    m.name
                );
            }
        }
    }
}
