//! # infomap-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the
//! index), plus the ablation studies. Shared
//! plumbing lives here: the harness index, experiment scaling, the
//! dataset-aware cost model, and plain-text table printing that mirrors
//! the rows/series the paper reports.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p infomap-bench --bin fig9_scalability
//! ```
//!
//! or all of them with `run_all`, which writes `results/<harness>.txt`.
//!
//! Environment knobs (a value that does not parse, or a scale that is not
//! a finite number > 0, panics naming the variable):
//!
//! * `DINFOMAP_SCALE` — multiplies every dataset stand-in's vertex count
//!   (default 0.15; the full-scale stand-ins are ~10× larger);
//! * `DINFOMAP_SEED` — global seed (default 42).

#![forbid(unsafe_code)]

use infomap_distributed::DistributedOutput;
use infomap_graph::datasets::DatasetProfile;
use infomap_graph::Graph;
use infomap_mpisim::CostModel;

/// Every table/figure harness and ablation, in `run_all`'s order. Each
/// one is a bin of this crate and writes `results/<name>.txt`; the
/// `harness_index_*` test keeps the bins, this list and `results/` equal.
pub const HARNESSES: &[&str] = &[
    "table1_datasets",
    "fig4_convergence",
    "fig5_merge_rate",
    "table2_quality",
    "fig6_workload_balance",
    "fig7_comm_balance",
    "fig8_time_breakdown",
    "fig9_scalability",
    "fig10_efficiency",
    "table3_speedup",
    "ablation_dhigh",
    "ablation_bouncing",
    "ablation_swap",
    "ablation_rebalance",
];

/// A `DINFOMAP_SCALE` value: unset is 0.15, anything else must be a
/// finite number > 0 (the CLI's `--scale` rule).
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(0.15) };
    let scale: f64 = raw.parse().map_err(|e| format!("not a number ({e})"))?;
    if !scale.is_finite() {
        return Err("must be finite".into());
    }
    if scale <= 0.0 {
        return Err("must be > 0".into());
    }
    Ok(scale)
}

/// A `DINFOMAP_SEED` value: unset is 42, anything else must be a `u64`.
pub fn parse_seed(raw: Option<&str>) -> Result<u64, String> {
    raw.map_or(Ok(42), |raw| {
        raw.parse()
            .map_err(|e| format!("not an unsigned 64-bit integer ({e})"))
    })
}

/// Parse environment variable `name`, panicking with its name and value
/// if `parse` refuses it.
fn from_env<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref()).unwrap_or_else(|e| panic!("{name}={:?}: {e}", raw.unwrap_or_default()))
}

/// Experiment scale factor from `DINFOMAP_SCALE` (see [`parse_scale`]).
pub fn env_scale() -> f64 {
    from_env("DINFOMAP_SCALE", parse_scale)
}

/// Global seed from `DINFOMAP_SEED` (see [`parse_seed`]).
pub fn env_seed() -> u64 {
    from_env("DINFOMAP_SEED", parse_seed)
}

/// A dataset-aware cost model: each stand-in edge *represents*
/// `real_edges / generated_edges` edges of the real dataset, so the
/// volume-proportional terms (per-edge work, per-byte transfer) scale by
/// that representation factor while per-message and per-collective
/// latencies stay fixed — reproducing the compute/communication ratio the
/// paper's full-size runs have. Without this, a 30k-edge stand-in is pure
/// latency and nothing scales, because the real experiment's 10⁹ edges of
/// work per rank are missing.
pub fn scaled_model(profile: &DatasetProfile, graph: &Graph) -> CostModel {
    let rep = (profile.real_edges as f64 / graph.num_edges().max(1) as f64).max(1.0);
    let base = CostModel::default();
    CostModel {
        t_work: base.t_work * rep,
        t_byte: base.t_byte * rep,
        ..base
    }
}

/// Modeled seconds split into stage 1 (`s1/*`), stage 2 (`s2/*`) and
/// merging — the decomposition Figure 9 plots.
pub fn stage_split(out: &DistributedOutput, model: &CostModel) -> (f64, f64, f64) {
    let bd = model.makespan(&out.rank_stats);
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut merge = 0.0;
    for (name, t) in &bd.phases {
        if name.starts_with("s1/") {
            s1 += t;
        } else if name.starts_with("s2/") {
            s2 += t;
        } else if name == "Merge" {
            merge += t;
        }
    }
    (s1, s2, merge)
}

/// Per-inner-iteration modeled seconds of the four stage-1 phases the
/// paper's Figure 8 breaks down.
pub fn stage1_phase_breakdown(out: &DistributedOutput, model: &CostModel) -> [(String, f64); 4] {
    let bd = model.makespan(&out.rank_stats);
    let iters = out
        .trace
        .iter()
        .find(|t| t.stage == 1)
        .map(|t| t.inner_iterations.max(1))
        .unwrap_or(1) as f64;
    let grab = |name: &str| bd.phases.get(&format!("s1/{name}")).copied().unwrap_or(0.0) / iters;
    [
        ("Find Best Module".to_string(), grab("FindBestModule")),
        (
            "Broadcast Delegates".to_string(),
            grab("BroadcastDelegates"),
        ),
        ("Swap Boundary Info".to_string(), grab("SwapBoundaryInfo")),
        ("Other".to_string(), grab("Other")),
    ]
}

/// Relative parallel efficiency τ = p₁T(p₁) / (p₂T(p₂)) (paper §4.4).
pub fn parallel_efficiency(p1: usize, t1: f64, p2: usize, t2: f64) -> f64 {
    (p1 as f64 * t1) / (p2 as f64 * t2)
}

/// Fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let fields: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", fields.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human-readable seconds.
pub fn fmt_secs(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2}s")
    } else if t >= 1e-3 {
        format!("{:.2}ms", t * 1e3)
    } else {
        format!("{:.1}us", t * 1e6)
    }
}

/// Human-readable count.
pub fn fmt_count(c: usize) -> String {
    if c >= 1_000_000 {
        format!("{:.2}M", c as f64 / 1e6)
    } else if c >= 1_000 {
        format!("{:.1}K", c as f64 / 1e3)
    } else {
        c.to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use super::*;

    #[test]
    fn efficiency_of_perfect_scaling_is_one() {
        assert!((parallel_efficiency(16, 4.0, 64, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_below_one_when_scaling_lags() {
        let e = parallel_efficiency(16, 4.0, 64, 1.5);
        assert!(e < 1.0 && e > 0.5);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_count(1234), "1.2K");
        assert_eq!(fmt_count(12), "12");
    }

    #[test]
    fn scaled_model_amplifies_volume_terms_only() {
        let profile = infomap_graph::datasets::DatasetId::Uk2005.profile();
        let (g, _) = profile.generate_scaled(0.05, 1);
        let base = CostModel::default();
        let scaled = scaled_model(&profile, &g);
        let rep = profile.real_edges as f64 / g.num_edges() as f64;
        assert!((scaled.t_work / base.t_work - rep).abs() / rep < 1e-12);
        assert!((scaled.t_byte / base.t_byte - rep).abs() / rep < 1e-12);
        assert_eq!(scaled.t_msg, base.t_msg);
        assert_eq!(scaled.t_coll, base.t_coll);
    }

    #[test]
    fn stage_split_accounts_all_stage_phases() {
        use infomap_distributed::{DistributedConfig, DistributedInfomap};
        let (g, _) = infomap_graph::generators::ring_of_cliques(4, 5, 0);
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 2,
            ..Default::default()
        })
        .run(&g);
        let model = CostModel::default();
        let (s1, s2, merge) = stage_split(&out, &model);
        assert!(s1 > 0.0 && merge > 0.0);
        let bd = model.makespan(&out.rank_stats);
        // The split plus any unphased residue reconstructs the total.
        assert!(s1 + s2 + merge <= bd.total + 1e-12);
    }

    #[test]
    fn env_values_parse_or_are_refused_by_name() {
        assert_eq!(parse_scale(None), Ok(0.15));
        assert_eq!(parse_scale(Some("0.3")), Ok(0.3));
        assert_eq!(parse_scale(Some("2")), Ok(2.0));
        assert_eq!(parse_seed(None), Ok(42));
        assert_eq!(parse_seed(Some("7")), Ok(7));
        assert_eq!(parse_seed(Some("0")), Ok(0));
        for bad in ["0,3", "", "x"] {
            assert!(parse_scale(Some(bad))
                .unwrap_err()
                .starts_with("not a number"));
        }
        for bad in ["0", "-0", "-1"] {
            assert_eq!(parse_scale(Some(bad)), Err("must be > 0".into()), "{bad}");
        }
        for bad in ["NaN", "inf", "-inf"] {
            assert_eq!(
                parse_scale(Some(bad)),
                Err("must be finite".into()),
                "{bad}"
            );
        }
        for bad in ["4x", "", "-1", "NaN", "inf", "0.5"] {
            assert!(parse_seed(Some(bad)).is_err(), "{bad}");
        }
    }

    /// The stems of the files in `dir` that end in `.ext`.
    fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|x| x == ext))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    /// A harness that `run_all` does not run, or whose output is not in
    /// `results/`, is a bin nobody reads.
    #[test]
    fn harness_index_names_every_bin_and_result_file() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut bins = stems(&crate_dir.join("src/bin"), "rs");
        assert!(bins.remove("run_all"));
        let index: BTreeSet<String> = HARNESSES.iter().map(|h| h.to_string()).collect();
        assert_eq!(index.len(), HARNESSES.len(), "HARNESSES repeats a name");
        let results = stems(&crate_dir.join("../../results"), "txt");
        assert_eq!(bins, index, "src/bin/*.rs against HARNESSES");
        assert_eq!(results, index, "results/*.txt against HARNESSES");
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
