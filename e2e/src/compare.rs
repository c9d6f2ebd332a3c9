//! Comparing two result files, metric by metric and workload by
//! workload, against the bounds.

use crate::json::Json;
use crate::spec::END_TO_END;
use crate::stats::quartiles;

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Relative change from A to B, signed so that positive is worse.
    pub delta: f64,
    pub bound: f64,
    /// Quartile distance of the per-graph deltas. Both files ran the
    /// same graphs, so pairing removes what differs between graphs and
    /// leaves run-to-run noise.
    pub spread: f64,
}

impl Row {
    /// Noise as wide as the bound: the pair shows neither a regression
    /// nor its absence.
    pub fn unresolved(&self) -> bool {
        self.spread > self.bound
    }
}

fn samples(workload: &Json, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = workload.get("metrics")?.get(metric)?;
    let samples = m
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<_>>>()?;
    Some((m.get("value")?.as_f64()?, samples))
}

/// Rows for every (workload, end-to-end metric) the two files share.
/// Refuses workloads whose inputs differ: a generator change must never
/// pass as a speed-up.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let stub = |j: &Json| j.get("host").and_then(|h| h.get("stub_rand")).cloned();
    if stub(a) != stub(b) {
        return Err("one build used the stub rand and the other did not".into());
    }
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or("not a result file: no workloads")
    };
    let mut rows = Vec::new();
    let in_b = workloads(b)?;
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or_default();
        let Some(wb) = in_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        if wa.get("graphs") != wb.get("graphs") {
            return Err(format!(
                "{name}: the two files ran different inputs (fingerprints differ); not comparable"
            ));
        }
        for m in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (samples(&wa, m.name), samples(wb, m.name))
            else {
                return Err(format!("{name}: {} missing from one file", m.name));
            };
            let worse = |from: f64, to: f64| {
                let change = (to - from) / from.abs();
                if m.better == "lower" {
                    change
                } else {
                    -change
                }
            };
            let paired: Vec<f64> = sa.iter().zip(&sb).map(|(&x, &y)| worse(x, y)).collect();
            let (q1, q3) = quartiles(&paired);
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                delta: worse(va, vb),
                bound: m.bound,
                spread: q3 - q1,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    for r in rows {
        let verdict = if r.unresolved() {
            "unresolved"
        } else if r.delta > r.bound {
            "REGRESSION"
        } else {
            "within bound"
        };
        println!(
            "{:<18} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>7.2}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.delta * 100.0,
            r.bound * 100.0,
            r.spread * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn file(seed: u64, wall: [f64; 3]) -> Json {
        let metric = |samples: Vec<f64>| {
            obj([
                (
                    "value",
                    (samples.iter().sum::<f64>() / samples.len() as f64).into(),
                ),
                ("samples", samples.into()),
            ])
        };
        obj([
            ("host", obj([("stub_rand", true.into())])),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("name", "hub_launch".into()),
                    ("graphs", Json::Arr(vec![obj([("seed", seed.into())])])),
                    (
                        "metrics",
                        obj(END_TO_END.iter().map(|m| {
                            let s = if m.name == "wall_s" {
                                wall.to_vec()
                            } else {
                                vec![1.0, 1.0, 1.0]
                            };
                            (m.name, metric(s))
                        })),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn a_slower_b_is_a_regression_on_wall_only() {
        let rows = compare(&file(1, [2.0, 3.0, 4.0]), &file(1, [3.0, 4.5, 6.0])).unwrap();
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert!((wall.delta - 0.5).abs() < 1e-12);
        assert!(wall.delta > wall.bound && !wall.unresolved());
        assert!(rows
            .iter()
            .filter(|r| r.metric != "wall_s")
            .all(|r| r.delta == 0.0));
    }

    #[test]
    fn noisy_pairs_are_unresolved() {
        let rows = compare(&file(1, [2.0, 3.0, 4.0]), &file(1, [1.0, 3.0, 8.0])).unwrap();
        assert!(rows
            .iter()
            .find(|r| r.metric == "wall_s")
            .unwrap()
            .unresolved());
    }

    #[test]
    fn different_inputs_are_refused() {
        let err = compare(&file(1, [2.0, 3.0, 4.0]), &file(2, [2.0, 3.0, 4.0])).unwrap_err();
        assert!(err.contains("fingerprints differ"), "{err}");
    }
}
