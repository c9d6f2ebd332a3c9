//! Fast, assertion-backed versions of the paper's headline claims — the
//! experiment suite distilled into CI-sized checks. Each test names the
//! figure/table it guards.

use distributed_infomap::prelude::*;

#[test]
fn figure4_distributed_mdl_converges_close_to_sequential() {
    let (g, _) = DatasetId::Amazon.profile().generate_scaled(0.08, 42);
    let seq = Infomap::new(InfomapConfig::default()).run(&g);
    let dist = DistributedInfomap::new(DistributedConfig {
        nranks: 8,
        ..Default::default()
    })
    .run(&g);
    let gap = (dist.codelength - seq.codelength).abs() / seq.codelength;
    assert!(gap < 0.08, "MDL gap {gap:.3} exceeds 8%");
}

#[test]
fn figure5_first_iteration_merges_most_vertices() {
    let (g, _) = DatasetId::Dblp.profile().generate_scaled(0.08, 42);
    let dist = DistributedInfomap::new(DistributedConfig {
        nranks: 8,
        ..Default::default()
    })
    .run(&g);
    let first = &dist.trace[0];
    let merged = (first.vertices_before - first.vertices_after) as f64 / g.num_vertices() as f64;
    assert!(
        merged > 0.5,
        "first-stage merge rate {merged:.2} below the paper's ~50%+"
    );
}

#[test]
fn table2_quality_measures_land_near_paper_band() {
    let (g, _) = DatasetId::Amazon.profile().generate_scaled(0.15, 42);
    for seed in [0, 1, 7, 42, 99] {
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks: 8,
            seed,
            ..Default::default()
        })
        .run(&g);
        let q = quality(&seq.modules, &dist.modules);
        assert!(q.nmi > 0.7, "seed {seed}: NMI {:.2} below band", q.nmi);
        assert!(
            q.f_measure > 0.6,
            "seed {seed}: F {:.2} below band",
            q.f_measure
        );
        assert!(
            q.jaccard > 0.4,
            "seed {seed}: JI {:.2} below band",
            q.jaccard
        );
    }
}

#[test]
fn figure6_delegate_partitioning_flattens_workload() {
    // Where `fig6_workload_balance` measures: UK-2007 at 6 × the default
    // scale 0.15, over 256 ranks. Over graph seeds {1, 2, 3, 4, 5, 7, 13,
    // 42, 99, 123} the 1D imbalance there is 2.05-3.34 (2.82 at seed 42)
    // and the delegate one 1.00. A smaller stand-in compresses the 1D
    // spread: at scale 0.3 and p = 64 it is 1.29-1.74, which straddles
    // the 1.3x bar (EXPERIMENTS "Figure 6").
    let (g, _) = DatasetId::Uk2007.profile().generate_scaled(0.9, 42);
    let p = 256;
    let one_d = BalanceStats::from_loads(&Partition::one_d_block(&g, p).edge_counts());
    let delegate = BalanceStats::from_loads(
        &Partition::delegate(&g, p, DelegateThreshold::RankCount, true).edge_counts(),
    );
    assert!(
        delegate.imbalance < 1.15,
        "delegate imbalance {:.2}",
        delegate.imbalance
    );
    assert!(
        one_d.imbalance > 1.3 * delegate.imbalance,
        "1D imbalance {:.2} vs delegate {:.2}",
        one_d.imbalance,
        delegate.imbalance
    );
}

#[test]
fn figure7_delegate_partitioning_reduces_worst_case_ghosts() {
    let (g, _) = DatasetId::Uk2005.profile().generate_scaled(0.3, 42);
    let p = 64;
    let one_d = BalanceStats::from_loads(&Partition::one_d_block(&g, p).ghost_counts());
    let delegate = BalanceStats::from_loads(
        &Partition::delegate(&g, p, DelegateThreshold::RankCount, true).ghost_counts(),
    );
    assert!(
        delegate.max < one_d.max,
        "delegate max ghosts {} vs 1D {}",
        delegate.max,
        one_d.max
    );
}

#[test]
fn figure8_find_best_module_shrinks_with_ranks() {
    let (g, _) = DatasetId::Uk2005.profile().generate_scaled(0.08, 42);
    let model = CostModel::default();
    let mut prev = f64::INFINITY;
    for p in [8usize, 32] {
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: p,
            seed: 42,
            ..Default::default()
        })
        .run(&g);
        let bd = model.makespan(&out.rank_stats);
        let iters = out.trace[0].inner_iterations.max(1) as f64;
        let find = bd.phases.get("s1/FindBestModule").copied().unwrap_or(0.0) / iters;
        assert!(find < prev, "FindBestModule did not shrink at p={p}");
        prev = find;
    }
}

#[test]
fn figure9_work_scales_inversely_with_ranks() {
    let (g, _) = DatasetId::Friendster.profile().generate_scaled(0.08, 42);
    // Max per-rank work (edge relaxations) is the paper's workload model;
    // it must drop by ~4x from 4 to 16 ranks (allow generous slack for
    // round-count variation).
    let run = |p: usize| {
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: p,
            seed: 42,
            ..Default::default()
        })
        .run(&g);
        out.rank_stats
            .iter()
            .map(|s| s.phase("s1/FindBestModule").work_units)
            .max()
            .unwrap()
    };
    let w4 = run(4);
    let w16 = run(16);
    assert!(
        (w16 as f64) < 0.6 * w4 as f64,
        "stage-1 max work did not scale: {w4} -> {w16}"
    );
}

#[test]
fn table3_delegate_algorithm_beats_gossip_on_hubby_graphs() {
    let profile = DatasetId::Uk2007.profile();
    let (g, _) = profile.generate_scaled(0.06, 42);
    // The paper runs UK-2007 on 1024-4096 ranks, where the biggest hub
    // exceeds a rank's fair share of edges several times over; the
    // speedup over a 1D-partitioned baseline is a product of exactly that
    // regime, so the test scales p accordingly (hub ~4x fair share).
    let p = 256;
    let ours = DistributedInfomap::new(DistributedConfig {
        nranks: p,
        seed: 42,
        ..Default::default()
    })
    .run(&g);
    let gossip = gossip_map(&g, p, 42);
    // Representation-scaled model (each stand-in edge stands for
    // real/generated edges): the paper's full-size runs are volume-
    // dominated, and that is the regime where 1D's hub imbalance costs
    // the gossip baseline its makespan. Under a purely latency-dominated
    // model the comparison is meaningless — gossip does fewer exchanges
    // of everything.
    let rep = profile.real_edges as f64 / g.num_edges() as f64;
    let base = CostModel::default();
    let model = CostModel {
        t_work: base.t_work * rep,
        t_byte: base.t_byte * rep,
        ..base
    };
    // Iso-quality: our time to first reach the gossip baseline's final
    // MDL (prorated by synchronized rounds) vs the baseline's total time.
    let series = ours.mdl_series();
    let reached = series
        .iter()
        .position(|&l| l <= gossip.codelength)
        .unwrap_or(series.len() - 1);
    let frac = (reached as f64 / (series.len() - 1).max(1) as f64).max(0.05);
    let t_ours = model.makespan(&ours.rank_stats).total * frac;
    let speedup = model.makespan(&gossip.rank_stats).total / t_ours;
    assert!(speedup > 1.0, "no speedup over gossip: {speedup:.2}");
    assert!(
        ours.codelength <= gossip.codelength + 1e-9,
        "quality regressed vs gossip"
    );
}
