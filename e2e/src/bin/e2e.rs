//! `e2e` — the benchmark runner. See README.md for what it measures.
//!
//! ```text
//! e2e                          every workload, then the traced pass; writes results.json + trace.json
//! e2e --workload W --seed N --seconds S --trace 0|1
//!                              one workload, one JSON object on the last line
//! e2e --aa                     two complete sets on this build must agree within the bounds
//! e2e --quick                  tiny graphs, same code paths and checks
//! e2e compare A.json B.json    B against A, metric by metric
//! e2e spec                     print BENCHMARK.json from the tables in spec.rs
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use infomap_e2e::compare::{compare, print_rows};
use infomap_e2e::json::{obj, Json};
use infomap_e2e::measure::{measure, print_table, Measured};
use infomap_e2e::spec::{benchmark_json, RUN_SECONDS};
use infomap_e2e::workload::{Sizes, Workload, FULL, QUICK};
use infomap_e2e::{host, spec};

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    /// `None`: one pass over the graphs with `--quick`, else the
    /// contract's run length.
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: bool,
    dinfomap: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        aa: false,
        dinfomap: None,
        out_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--aa" => o.aa = true,
            "--dinfomap" => o.dinfomap = Some(value()?.into()),
            "--out-dir" => o.out_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// The directory this executable was built into: `dinfomap` and
/// `e2e_layers` sit beside it, and scratch files go under it, so a run
/// touches nothing outside the build directory of its checkout.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .expect("an executable has a directory")
        .to_path_buf())
}

/// `cargo run` builds only the binary it runs, so the runner brings the
/// other two up to date itself, into its own target directory: the
/// program it measures is always the one the checkout's sources describe.
fn build_siblings() -> Result<(), String> {
    let release = exe_dir()?;
    let target = release
        .parent()
        .ok_or("the executable is not in a target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "dinfomap", "--bin", "e2e_layers"])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of dinfomap and e2e_layers: {status}"))
    }
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let path = exe_dir()?.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not found after building it", path.display()))
    }
}

/// Where results.json and trace.json go: `--out-dir`, else beside the
/// executable.
fn out_dir(o: &Opts) -> Result<PathBuf, String> {
    match &o.out_dir {
        Some(d) => {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
            Ok(d.clone())
        }
        None => exe_dir(),
    }
}

fn seconds(o: &Opts) -> f64 {
    o.seconds
        .unwrap_or(if o.quick { 0.0 } else { RUN_SECONDS as f64 })
}

fn sizes(o: &Opts) -> &'static Sizes {
    if o.quick {
        &QUICK
    } else {
        &FULL
    }
}

/// Run the traced pass of one workload in `e2e_layers`. Returns its
/// result object and its spans.
fn traced_pass(
    o: &Opts,
    w: Workload,
    dinfomap: &Path,
    work: &Path,
) -> Result<(Json, Vec<Json>), String> {
    let mut cmd = Command::new(sibling("e2e_layers")?);
    cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()])
        .arg("--dinfomap")
        .arg(dinfomap)
        .arg("--work")
        .arg(work);
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("e2e_layers: {e}"))?;
    if !out.status.success() {
        return Err(format!("e2e_layers {}: {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last().unwrap_or_default())?;
    let trace = work.join(format!("trace-{}.json", w.name()));
    let spans = std::fs::read_to_string(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))
        .and_then(|t| Json::parse(&t))?;
    Ok((result, spans.as_arr().unwrap_or_default().to_vec()))
}

fn write_trace(dir: &Path, spans: Vec<Json>) -> Result<(), String> {
    let path = dir.join("trace.json");
    std::fs::write(&path, Json::Arr(spans).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn metrics_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> String {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ])
    .compact()
}

/// `--workload W`: the form the driver calls. The last line of stdout is
/// the result object, which says itself whether the outputs were right;
/// the exit code is 0 once it is printed.
fn run_one(o: &Opts, w: Workload, dinfomap: &Path, work: &Path) -> Result<(), String> {
    if o.trace {
        let (layers, spans) = traced_pass(o, w, dinfomap, work)?;
        write_trace(&out_dir(o)?, spans)?;
        let correct = layers.get("correct").and_then(Json::as_bool) == Some(true);
        let metrics = layers
            .get("metrics")
            .cloned()
            .ok_or("e2e_layers: no metrics")?;
        for (name, m) in metrics.as_obj().unwrap_or_default() {
            println!(
                "{name} = {} {}",
                m.get("value").map_or_else(String::new, Json::compact),
                m.get("unit").and_then(Json::as_str).unwrap_or_default()
            );
        }
        println!(
            "{}",
            metrics_line(correct, 1, usize::from(!correct), metrics)
        );
        return Ok(());
    }
    let all = measure(&[w], sizes(o), o.seed, seconds(o), dinfomap, work)?;
    let m = &all[0];
    print_table(m);
    let failed = m.failures().len();
    let summaries = m.summaries().ok_or("no graph produced a good rep")?;
    let metrics = obj(summaries.iter().map(|s| {
        (
            s.name,
            obj([("value", s.value().into()), ("unit", s.unit.into())]),
        )
    }));
    println!(
        "{}",
        metrics_line(failed == 0, m.attempted(), failed, metrics)
    );
    Ok(())
}

fn result_json(o: &Opts, host: &Json, sets: &[Measured], layers: Json) -> Json {
    let s = sizes(o);
    obj([
        ("schema", "infomap-e2e-result-v1".into()),
        ("host", host.clone()),
        (
            "config",
            obj([
                ("seed", o.seed.into()),
                ("seconds_per_workload", seconds(o).into()),
                ("quick", o.quick.into()),
                ("graphs_per_run", s.graphs.into()),
                ("hub_scale", s.hub_scale.into()),
                ("flat_n", s.flat_n.into()),
            ]),
        ),
        (
            "workloads",
            Json::Arr(sets.iter().map(Measured::to_json).collect()),
        ),
        ("layers", layers),
    ])
}

fn run_set(o: &Opts, dinfomap: &Path, work: &Path) -> Result<Vec<Measured>, String> {
    let set = measure(&Workload::ALL, sizes(o), o.seed, seconds(o), dinfomap, work)?;
    for m in &set {
        print_table(m);
    }
    Ok(set)
}

/// No `--workload`: everything. End-to-end tables for the four
/// workloads, then the per-layer table from the traced pass; with
/// `--aa`, a second set that must agree with the first.
fn run_suite(o: &Opts, dinfomap: &Path, work: &Path) -> Result<bool, String> {
    let out_dir = out_dir(o)?;
    let host = host::facts();
    println!("host: {}", host.compact());
    let first = run_set(o, dinfomap, work)?;
    let mut ok = first.iter().all(|m| m.failures().is_empty());

    let mut layers = Vec::new();
    let mut trace = Vec::new();
    for w in Workload::ALL {
        let (pass, spans) = traced_pass(o, w, dinfomap, work)?;
        trace.extend(spans);
        ok &= pass.get("correct").and_then(Json::as_bool) == Some(true);
        layers.push((w.name(), pass.get("metrics").cloned().unwrap_or(Json::Null)));
    }
    print!("\n{:<44}", "per-layer metric");
    for w in Workload::ALL {
        print!(" {:>16}", w.name());
    }
    println!("  unit");
    for metric in spec::per_layer() {
        print!("{:<44}", metric.name);
        for (_, values) in &layers {
            let cell = values
                .get(&metric.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .map_or_else(
                    || "-".to_string(),
                    |v| match metric.unit {
                        "count" | "bytes" => format!("{v:.0}"),
                        _ => format!("{v:.6}"),
                    },
                );
            print!(" {cell:>16}");
        }
        println!("  {}", metric.unit);
    }

    let first_json = result_json(o, &host, &first, obj(layers));
    let path = out_dir.join("results.json");
    std::fs::write(&path, first_json.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    write_trace(&out_dir, trace)?;

    if o.aa {
        println!("\nA/A: a second set on the same build");
        let second = run_set(o, dinfomap, work)?;
        ok &= second.iter().all(|m| m.failures().is_empty());
        let second_json = result_json(o, &host, &second, Json::Null);
        let rows = compare(&first_json, &second_json)?;
        print_rows(&rows);
        let apart: Vec<_> = rows.iter().filter(|r| r.delta.abs() > r.bound).collect();
        for r in &apart {
            println!(
                "A/A FAILED {} {}: sets differ by {:+.2}%, bound {:.2}%",
                r.workload,
                r.metric,
                r.delta * 100.0,
                r.bound * 100.0
            );
        }
        ok &= apart.is_empty();
    }
    Ok(ok)
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", benchmark_json().pretty());
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = argv else {
                return Err("usage: e2e compare A.json B.json".into());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| Json::parse(&t))
            };
            let rows = compare(&read(a)?, &read(b)?)?;
            print_rows(&rows);
            return Ok(rows.iter().all(|r| r.delta <= r.bound));
        }
        _ => {}
    }
    let o = parse(argv)?;
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark measures release builds only".into());
    }
    build_siblings()?;
    let dinfomap = match &o.dinfomap {
        Some(p) => std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => sibling("dinfomap")?,
    };
    let work = exe_dir()?.join(format!("e2e-work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = match o.workload {
        Some(w) => run_one(&o, w, &dinfomap, &work).map(|()| true),
        None => run_suite(&o, &dinfomap, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}
