//! Ablation: the delegate threshold `d_high`.
//!
//! The paper fixes `d_high = p` (§4). This sweep shows the trade-off that
//! choice sits on: a low threshold replicates too many vertices (delegate
//! election overhead, more approximation in the per-copy δL), a high
//! threshold leaves hubs un-replicated (workload imbalance). The library
//! default `Auto(4.0) = max(p, 4×mean degree)` is the scale-adjusted
//! version of the paper's rule.

use infomap_bench::{env_scale, env_seed, fmt_secs, scaled_model, stage_split, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;
use infomap_metrics::quality;
use infomap_partition::{BalanceStats, DelegateThreshold, Partition};

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let p = 32;
    let profile = DatasetId::Uk2005.profile();
    let (g, _) = profile.generate_scaled(scale, seed);
    let seq = Infomap::new(InfomapConfig { seed }).run(&g);
    println!(
        "Ablation d_high on {} (|V|={}, |E|={}, p={p}):\n",
        profile.name,
        g.num_vertices(),
        g.num_edges()
    );
    let mut t = Table::new(&[
        "d_high",
        "delegates",
        "edge imbalance",
        "modeled time",
        "MDL",
        "NMI vs seq",
    ]);
    let mean_deg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
    let candidates: Vec<(String, DelegateThreshold)> = vec![
        (format!("p = {p} (paper)"), DelegateThreshold::RankCount),
        (
            "auto 4x mean (default)".into(),
            DelegateThreshold::Auto(4.0),
        ),
        (
            format!("{}", (mean_deg as usize).max(1)),
            DelegateThreshold::Fixed(mean_deg as usize),
        ),
        (
            format!("{}", 8 * mean_deg as usize),
            DelegateThreshold::Fixed(8 * mean_deg as usize),
        ),
        ("disabled (1D)".into(), DelegateThreshold::Fixed(usize::MAX)),
    ];
    for (label, threshold) in candidates {
        let part = Partition::delegate(&g, p, threshold, true);
        let imb = BalanceStats::from_loads(&part.edge_counts()).imbalance;
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: p,
            seed,
            threshold,
            ..Default::default()
        })
        .run(&g);
        let model = scaled_model(&profile, &g);
        let (s1, s2, m) = stage_split(&out, &model);
        let q = quality(&seq.modules, &out.modules);
        t.row(vec![
            label,
            part.delegates.len().to_string(),
            format!("{imb:.2}"),
            fmt_secs(s1 + s2 + m),
            format!("{:.4}", out.codelength),
            format!("{:.2}", q.nmi),
        ]);
    }
    t.print();
    println!("\nsequential reference MDL: {:.4}", seq.codelength);
}
