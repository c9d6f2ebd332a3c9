//! The end-to-end measurement: set up each workload's graphs, then run
//! `dinfomap` on them closed-loop — one client, one job at a time, as a
//! caller of a batch solver waits for its answer.

use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Json};
use crate::run::{check_bit_identity, run_rep, Rep};
use crate::spec::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workload::{graph_seed, prepare_inputs, Inputs, Sizes, Workload};

/// Everything measured for one workload in one set of runs.
pub struct Measured {
    pub workload: Workload,
    pub inputs: Vec<Inputs>,
    /// Untimed first run on graph 0: fills the page cache, and is the
    /// same-seed twin the first timed rep must match bit for bit.
    pub warm_up: Rep,
    /// Timed reps, `[graph][pass]`.
    pub reps: Vec<Vec<Rep>>,
}

/// Set up and measure `workloads` for about `seconds` each. Reps are
/// interleaved round-robin across the workloads so that drift of the
/// host hits all of them alike. Every graph is run at least once; while
/// time remains the graphs are run again, and a graph's timing is then
/// the median of its reps.
pub fn measure(
    workloads: &[Workload],
    sizes: &Sizes,
    run_seed: u64,
    seconds: f64,
    dinfomap: &Path,
    work: &Path,
) -> Result<Vec<Measured>, String> {
    let mut all = Vec::new();
    for &w in workloads {
        let inputs = (0..sizes.graphs)
            .map(|g| {
                let dir = work.join(w.name()).join(format!("g{g}"));
                prepare_inputs(w, sizes, graph_seed(run_seed, g), &dir)
            })
            .collect::<Result<Vec<_>, _>>()?;
        all.push(Measured {
            workload: w,
            warm_up: Rep::default(),
            reps: vec![Vec::new(); inputs.len()],
            inputs,
        });
    }
    for m in &mut all {
        m.warm_up = run_rep(dinfomap, &m.inputs[0]);
    }
    let budget = seconds * workloads.len() as f64;
    let started = Instant::now();
    let mut done = 0usize;
    'passes: for pass in 0.. {
        for g in 0..sizes.graphs {
            for m in &mut all {
                let elapsed = started.elapsed().as_secs_f64();
                // After the first pass, start a rep only if an average
                // one still fits.
                if pass > 0 && elapsed + elapsed / done as f64 > budget {
                    break 'passes;
                }
                m.reps[g].push(run_rep(dinfomap, &m.inputs[g]));
                done += 1;
            }
        }
    }
    for m in &mut all {
        for (g, reps) in m.reps.iter_mut().enumerate() {
            if g == 0 {
                let mut twins = vec![m.warm_up.clone()];
                twins.append(reps);
                check_bit_identity(&mut twins);
                m.warm_up = twins.remove(0);
                *reps = twins;
            } else {
                check_bit_identity(reps);
            }
        }
    }
    Ok(all)
}

/// One end-to-end metric of one workload: a value per graph and the
/// run's figure over them.
pub struct MetricSummary {
    pub name: &'static str,
    pub unit: &'static str,
    /// One value per graph (the median of the graph's reps).
    pub samples: Vec<f64>,
}

impl MetricSummary {
    /// The run's figure. Set-up repeats the same kind of work per graph
    /// and takes the median; the others take the mean, because graphs of
    /// one family still differ in how many rounds they need and the mean
    /// over a fixed number of graphs varies least from seed to seed.
    pub fn value(&self) -> f64 {
        if self.name == "setup_s" {
            median(&self.samples)
        } else {
            mean(&self.samples)
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

impl Measured {
    /// Timed reps plus the warm-up.
    pub fn attempted(&self) -> usize {
        1 + self.reps.iter().map(Vec::len).sum::<usize>()
    }

    pub fn failures(&self) -> Vec<String> {
        let timed = self.reps.iter().enumerate().flat_map(|(g, reps)| {
            reps.iter()
                .enumerate()
                .map(move |(pass, rep)| (format!("graph {g} pass {pass}"), rep))
        });
        std::iter::once(("warm-up".to_string(), &self.warm_up))
            .chain(timed)
            .filter_map(|(which, rep)| {
                rep.failure
                    .as_ref()
                    .map(|why| format!("{} {which}: {why}", self.workload.name()))
            })
            .collect()
    }

    /// The seven end-to-end metrics, over the graphs that have at least
    /// one good rep. `None` when no graph has.
    pub fn summaries(&self) -> Option<Vec<MetricSummary>> {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for (inputs, reps) in self.inputs.iter().zip(&self.reps) {
            let good: Vec<&Rep> = reps.iter().filter(|r| r.failure.is_none()).collect();
            if good.is_empty() {
                continue;
            }
            let mid = |f: fn(&Rep) -> f64| median(&good.iter().map(|r| f(r)).collect::<Vec<_>>());
            let wall = mid(|r| r.wall_s);
            for (slot, m) in samples.iter_mut().zip(&END_TO_END) {
                slot.push(match m.name {
                    "wall_s" => wall,
                    "edges_per_s" => inputs.edges as f64 / wall,
                    "cpu_core_s" => mid(|r| r.cpu_core_s),
                    "peak_rss_mib" => mid(|r| r.peak_rss_mib),
                    "codelength_bits" => good[0].codelength_bits,
                    "nmi" => good[0].nmi,
                    "setup_s" => inputs.setup.total(),
                    other => unreachable!("unknown end-to-end metric {other}"),
                });
            }
        }
        if samples[0].is_empty() {
            return None;
        }
        Some(
            END_TO_END
                .iter()
                .zip(samples)
                .map(|(m, samples)| MetricSummary {
                    name: m.name,
                    unit: m.unit,
                    samples,
                })
                .collect(),
        )
    }

    /// What the graphs were, so that two results are only ever compared
    /// on identical inputs.
    pub fn fingerprint(&self) -> Json {
        Json::Arr(
            self.inputs
                .iter()
                .map(|i| {
                    obj([
                        ("seed", i.seed.into()),
                        ("vertices", i.vertices.into()),
                        ("edges", i.edges.into()),
                        ("max_degree", i.max_degree.into()),
                        (
                            "files",
                            Json::Arr(
                                i.files
                                    .iter()
                                    .map(|f| {
                                        obj([
                                            ("name", f.name.as_str().into()),
                                            ("bytes", f.bytes.into()),
                                            ("fnv1a", format!("{:016x}", f.fnv1a).into()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// The workload's record in the result file.
    pub fn to_json(&self) -> Json {
        let metrics = self.summaries().map_or(Json::Null, |all| {
            obj(all.iter().map(|s| {
                let (q1, q3) = quartiles(&s.samples);
                (
                    s.name,
                    obj([
                        ("value", s.value().into()),
                        ("unit", s.unit.into()),
                        ("median", median(&s.samples).into()),
                        ("q1", q1.into()),
                        ("q3", q3.into()),
                        ("n", s.samples.len().into()),
                        ("samples", s.samples.clone().into()),
                    ]),
                )
            }))
        });
        let failures = self.failures();
        obj([
            ("name", self.workload.name().into()),
            ("why", self.workload.why().into()),
            ("graphs", self.fingerprint()),
            ("ops_attempted", self.attempted().into()),
            ("ops_failed", failures.len().into()),
            ("failures", failures.into()),
            ("metrics", metrics),
        ])
    }
}

/// The metrics as a table: value, then median, quartiles and count of
/// the per-graph samples behind it.
pub fn print_table(m: &Measured) {
    println!(
        "{}: {} ops attempted, {} failed",
        m.workload.name(),
        m.attempted(),
        m.failures().len()
    );
    for why in m.failures() {
        println!("  FAILED {why}");
    }
    let Some(all) = m.summaries() else {
        println!("  no graph produced a good rep");
        return;
    };
    println!(
        "  {:<16} {:>14} {:<8} {:>14} {:>14} {:>14} {:>3}",
        "metric", "value", "unit", "median", "q1", "q3", "n"
    );
    for s in &all {
        let (q1, q3) = quartiles(&s.samples);
        println!(
            "  {:<16} {:>14.6} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            s.name,
            s.value(),
            s.unit,
            median(&s.samples),
            q1,
            q3,
            s.samples.len()
        );
    }
}
