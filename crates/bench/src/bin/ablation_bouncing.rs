//! Ablation: the minimum-label anti-bouncing rule (§3.4).
//!
//! With the rule off, symmetric boundary moves can commit simultaneously
//! (vertex bouncing): more rounds, transient MDL regressions, or
//! non-convergent stages that only the safety valve terminates. With it
//! on, at most one direction of any swap pair is admissible per round.

use infomap_bench::{env_scale, env_seed, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;
use infomap_metrics::quality;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let p = 16;
    println!("Ablation: minimum-label anti-bouncing rule (p={p}, scale {scale})\n");
    let mut t = Table::new(&[
        "Dataset",
        "min-label",
        "rounds",
        "moves",
        "max MDL rise",
        "final MDL",
        "NMI vs seq",
    ]);
    for id in [DatasetId::Dblp, DatasetId::YouTube] {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        for min_label in [true, false] {
            let out = DistributedInfomap::new(DistributedConfig {
                nranks: p,
                seed,
                min_label_tiebreak: min_label,
                ..Default::default()
            })
            .run(&g);
            let series = out.mdl_series();
            let max_rise = series
                .windows(2)
                .map(|w| w[1] - w[0])
                .fold(0.0_f64, f64::max);
            let rounds: usize = out.trace.iter().map(|t| t.inner_iterations).sum();
            let moves: u64 = out.trace.iter().map(|t| t.moves).sum();
            let q = quality(&seq.modules, &out.modules);
            t.row(vec![
                profile.name.to_string(),
                if min_label { "on" } else { "off" }.to_string(),
                rounds.to_string(),
                moves.to_string(),
                format!("{max_rise:.4}"),
                format!("{:.4}", out.codelength),
                format!("{:.2}", q.nmi),
            ]);
        }
    }
    t.print();
}
