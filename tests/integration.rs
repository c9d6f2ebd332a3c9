//! Cross-crate integration tests: the full pipeline from generation
//! through partitioning, clustering (all three algorithms), metrics and the
//! cost model.

use distributed_infomap::prelude::*;
use infomap_graph::io;

fn lfr(n: usize, mu: f64, seed: u64) -> (Graph, Vec<u32>) {
    generators::lfr_like(
        generators::LfrParams {
            n,
            mu,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn exact_algorithms_recover_clear_structure_and_gossip_lags() {
    let (g, truth) = generators::ring_of_cliques(6, 6, 0);
    let seq = Infomap::new(InfomapConfig::default()).run(&g);
    let dist = DistributedInfomap::new(DistributedConfig {
        nranks: 4,
        ..Default::default()
    })
    .run(&g);
    for (name, modules) in [("sequential", &seq.modules), ("distributed", &dist.modules)] {
        let q = quality(&truth, modules);
        assert!(q.nmi > 0.999, "{name} failed to recover the cliques: {q:?}");
    }
    // Exact recovery is a property of the algorithm, not of a sweep order.
    for seed in 0..24 {
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            seed,
            ..Default::default()
        })
        .run(&g);
        let q = quality(&truth, &out.modules);
        assert!(q.nmi > 0.999, "seed {seed} missed the cliques: {q:?}");
    }
    // The naive-swap baseline must do measurably worse — that is the
    // paper's §3.4 argument for the full Module_Info exchange.
    let gossip = gossip_map(&g, 4, 0);
    let gq = quality(&truth, &gossip.modules);
    let dq = quality(&truth, &dist.modules);
    assert!(
        gq.nmi < dq.nmi,
        "gossip ({:.2}) unexpectedly matched the full swap ({:.2})",
        gq.nmi,
        dq.nmi
    );
}

#[test]
fn distributed_tracks_sequential_on_realistic_graphs() {
    let (g, _) = lfr(1200, 0.3, 5);
    let seq = Infomap::new(InfomapConfig::default()).run(&g);
    let dist = DistributedInfomap::new(DistributedConfig {
        nranks: 6,
        ..Default::default()
    })
    .run(&g);
    let rel = (dist.codelength - seq.codelength).abs() / seq.codelength;
    assert!(rel < 0.08, "distributed MDL off by {rel:.3}");
    let q = quality(&seq.modules, &dist.modules);
    assert!(q.nmi > 0.75, "NMI {:.3} too low", q.nmi);
}

#[test]
fn full_swap_beats_gossip_and_both_beat_one_level() {
    let (g, _) = lfr(800, 0.35, 9);
    let dist = DistributedInfomap::new(DistributedConfig {
        nranks: 4,
        ..Default::default()
    })
    .run(&g);
    let gossip = gossip_map(&g, 4, 0);
    assert!(dist.codelength <= gossip.codelength + 1e-9);
    assert!(gossip.codelength < gossip.one_level_codelength);
}

#[test]
fn pipeline_from_edge_list_file() {
    // Write a graph, read it back, cluster it — the downstream-user flow.
    let (g, _) = lfr(300, 0.2, 3);
    let dir = std::env::temp_dir().join("dinfomap-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    io::write_edge_list_file(&g, &path).unwrap();
    let loaded = io::read_edge_list_file(&path).unwrap();
    assert_eq!(loaded.graph.num_edges(), g.num_edges());
    let out = DistributedInfomap::new(DistributedConfig {
        nranks: 3,
        ..Default::default()
    })
    .run(&loaded.graph);
    assert!(out.num_modules() > 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn partition_quality_flows_into_modeled_makespan() {
    // On a hubby graph, delegate partitioning must give the clustering
    // phase a smaller and flatter *work* makespan than gossip's 1D layout:
    // the hub's arcs pile onto one rank under 1D and bound every round. A
    // work-only measure isolates that effect from fixed latencies, which at
    // stand-in scale would otherwise dominate (the paper's full-size runs
    // are work-dominated; see the representation-scaled model in
    // infomap-bench). Stage totals, not per-round means: the sweep visits
    // only the active set, so a run's mean round is as heavy as its rounds
    // are few.
    let profile = DatasetId::Uk2007.profile();
    let (g, _) = profile.generate_scaled(0.05, 2);
    let p = 16;
    // (max over ranks, max ÷ mean) of the stage-1 sweep work.
    let stage_work = |stats: &[infomap_mpisim::RankStats]| {
        let work: Vec<f64> = stats
            .iter()
            .map(|s| s.phase("s1/FindBestModule").work_units as f64)
            .collect();
        let max = work.iter().copied().fold(0.0, f64::max);
        (max, max * work.len() as f64 / work.iter().sum::<f64>())
    };
    let ours = DistributedInfomap::new(DistributedConfig {
        nranks: p,
        ..Default::default()
    })
    .run(&g);
    let gossip = gossip_map(&g, p, 0);
    let (w_ours, imbalance_ours) = stage_work(&ours.rank_stats);
    let (w_gossip, imbalance_gossip) = stage_work(&gossip.rank_stats);
    assert!(
        w_ours < w_gossip,
        "delegate max stage work {w_ours} should beat 1D gossip {w_gossip}"
    );
    assert!(
        imbalance_ours < 1.1 && imbalance_ours < imbalance_gossip,
        "delegate work imbalance {imbalance_ours:.2} vs 1D gossip {imbalance_gossip:.2}"
    );
}

#[test]
fn modeled_time_decreases_with_ranks_in_work_dominated_regime() {
    let (g, _) = lfr(2000, 0.25, 11);
    // Work-dominated model: zero out latencies so the balance story is
    // isolated from fixed costs.
    let model = CostModel {
        t_msg: 0.0,
        t_coll: 0.0,
        t_byte: 0.0,
        ..Default::default()
    };
    let mut prev = f64::INFINITY;
    for p in [2usize, 4, 8] {
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: p,
            ..Default::default()
        })
        .run(&g);
        let t = model.makespan(&out.rank_stats).total;
        assert!(
            t < prev * 1.05,
            "modeled work time did not shrink at p={p}: {t} vs {prev}"
        );
        prev = t;
    }
}

#[test]
fn dataset_standins_cluster_end_to_end() {
    for id in [DatasetId::Amazon, DatasetId::Uk2005] {
        let (g, _) = id.profile().generate_scaled(0.05, 7);
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        })
        .run(&g);
        assert!(out.num_modules() > 1, "{:?} collapsed to one module", id);
        assert!(out.codelength < out.one_level_codelength);
        assert!(modularity(&g, &out.modules) > 0.2);
    }
}

#[test]
fn world_report_exposes_communication_totals() {
    let (g, _) = lfr(400, 0.3, 1);
    let out = DistributedInfomap::new(DistributedConfig {
        nranks: 4,
        ..Default::default()
    })
    .run(&g);
    let bytes: u64 = out.rank_stats.iter().map(|s| s.total.p2p_bytes_sent).sum();
    let recv: u64 = out.rank_stats.iter().map(|s| s.total.p2p_bytes_recv).sum();
    assert_eq!(bytes, recv, "every sent byte must be received");
    assert!(bytes > 0);
}
