//! Table 2 — quality measurements: NMI, F-measure and Jaccard index of
//! the distributed partition against the sequential reference (DBLP and
//! Amazon in the paper; we also print the other two small sets).
//!
//! The claim reproduced: all three measures land around 0.8, i.e. the
//! distributed algorithm finds essentially the communities the sequential
//! algorithm finds.

use infomap_bench::{env_scale, env_seed, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;
use infomap_metrics::quality;
use infomap_partition::DelegateThreshold;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let nranks = 8;
    println!(
        "Table 2: Quality of distributed vs sequential partitions (p={nranks}, scale {scale})\n"
    );
    let mut t = Table::new(&[
        "Dataset",
        "NMI",
        "F-measure",
        "JI",
        "seq modules",
        "dist modules",
        "seq-vs-seq NMI/F/JI",
    ]);
    for id in [
        DatasetId::Dblp,
        DatasetId::Amazon,
        DatasetId::NdWeb,
        DatasetId::YouTube,
    ] {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        let threshold = std::env::var("DINFOMAP_DHIGH")
            .ok()
            .and_then(|s| s.parse().ok())
            .map(DelegateThreshold::Fixed)
            .unwrap_or(DelegateThreshold::Auto(4.0));
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks,
            seed,
            threshold,
            ..Default::default()
        })
        .run(&g);
        let q = quality(&seq.modules, &dist.modules);
        // Agreement ceiling: how much do two sequential runs that differ
        // only in sweep order agree with each other on this graph?
        let seq_b = Infomap::new(InfomapConfig {
            seed: seed ^ 0xabcd,
        })
        .run(&g);
        let ceil = quality(&seq.modules, &seq_b.modules);
        t.row(vec![
            profile.name.to_string(),
            format!("{:.2}", q.nmi),
            format!("{:.2}", q.f_measure),
            format!("{:.2}", q.jaccard),
            seq.num_modules().to_string(),
            dist.num_modules().to_string(),
            format!("{:.2}/{:.2}/{:.2}", ceil.nmi, ceil.f_measure, ceil.jaccard),
        ]);
    }
    t.print();
    println!("\nPaper reports NMI/F/JI ≈ 0.78–0.82 on DBLP and Amazon.");
}
