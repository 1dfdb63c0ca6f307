//! perfbench — the repository benchmark: host time, heap and allocations
//! of the PIFS-Rec simulator over four workloads, plus a traced run that
//! splits the time across the layers.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <closed_loop|serving_burst|serving_diurnal|cluster> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run first checks correctness in-process (the default-seed
//! digests against `reference.txt`, and for `cluster` the composed path
//! against `SlsCluster::run_open_loop_streamed`), then measures for
//! `--seconds` by starting one fresh child process per iteration: each
//! child sets the workload up from `--seed` (cold process-wide row
//! store), runs every simulated configuration once on its single thread,
//! and reports its timings, heap and allocation counts, and output
//! digests. Metrics are medians over the iterations. With `--trace 1`
//! the children alternate traced and untraced, and the report holds the
//! per-layer metrics plus the tracing overhead. The last stdout line is
//! the JSON result; the human-readable report goes to stderr.

mod check;
mod layers;
mod tracing;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::check::{canonical, check_all, digest, DEFAULT_SEED};
use crate::layers::{MIB, PER_LAYER};
use crate::tracing::Tracer;
use crate::workloads::{run_all, setup, Done, HeapWatch, Outcome, Workload};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

const USAGE: &str =
    "usage: perfbench --workload <closed_loop|serving_burst|serving_diurnal|cluster> \
--seed <n> --seconds <s> --trace <0|1>
       perfbench --record-reference   (rewrite reference.txt at the default seed)";

/// Fewest iterations a run measures, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 4;

/// Where traced iterations write their spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(RunArgs),
    /// One measured iteration in a child process.
    Iteration(RunArgs),
    RecordReference,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut iteration = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--record-reference" => return Ok(Mode::RecordReference),
            "--iteration" => iteration = true,
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let run = RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1),
        trace: trace.unwrap_or(false),
    };
    if iteration {
        Ok(Mode::Iteration(run))
    } else if seconds.is_none() || trace.is_none() {
        Err("--seconds and --trace are required".into())
    } else {
        Ok(Mode::Run(run))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run(a)) => drive(&a),
        Ok(Mode::Iteration(a)) => {
            println!("{}", to_json(&iteration(&a)));
            ExitCode::SUCCESS
        }
        Ok(Mode::RecordReference) => record_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Sets up and runs `workload` once in this process, untraced, with
/// every operation's invariants checked.
fn run_once(workload: Workload, seed: u64) -> Vec<Done> {
    let mut tr = Tracer::new(false);
    let mut ops = setup(workload, seed, &mut tr);
    let mut heap = HeapWatch::start();
    let mut done = run_all(&mut ops, &mut tr, &mut heap);
    check_all(&mut done);
    done
}

/// One measured iteration: set up, run every operation, report.
fn iteration(a: &RunArgs) -> Value {
    let mut tr = Tracer::new(a.trace);
    let t = Instant::now();
    let mut ops = setup(a.workload, a.seed, &mut tr);
    let setup_s = t.elapsed().as_secs_f64();

    let events0 = simkit::stats::events_recorded();
    let allocs0 = simkit::stats::alloc_stats().calls;
    let mut heap = HeapWatch::start();
    let t = Instant::now();
    let mut done = run_all(&mut ops, &mut tr, &mut heap);
    let wall_s = t.elapsed().as_secs_f64();
    let allocs = simkit::stats::alloc_stats().calls - allocs0;
    let peak_heap_bytes = heap.finish();
    let events = simkit::stats::events_recorded() - events0;

    check_all(&mut done);
    let ok = || done.iter().filter_map(|d| d.result.as_ref().ok());
    let lookups: u64 = ok().map(Outcome::lookups).sum();
    let queries: u64 = ok().map(Outcome::queries).sum();
    let ops_json: Vec<Value> = done
        .iter()
        .map(|d| match &d.result {
            Ok(o) => json!({ "name": d.name.clone(), "digest": digest(&canonical(o)), "error": Value::Null }),
            Err(e) => json!({ "name": d.name.clone(), "digest": "", "error": e.clone() }),
        })
        .collect();
    let mut layer_map = Map::new();
    for (k, v) in layers::measure(&done, &tr, events, wall_s) {
        layer_map.insert(k.to_string(), Value::from(v));
    }
    if tr.enabled() {
        let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{}.tsv", a.workload.name()));
        if let Err(e) = tr.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    json!({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "lookups": lookups,
        "queries": queries,
        "allocs": allocs,
        "peak_heap_bytes": peak_heap_bytes,
        "ops": Value::Array(ops_json),
        "layers": Value::Object(layer_map),
        "info": speedups(&done),
    })
}

/// The simulated PIFS-Rec speedups over Pond and BEACON (closed loop
/// only), beside the paper's figures. Information, not a metric.
fn speedups(done: &[Done]) -> String {
    let total = |name: &str| {
        done.iter()
            .find(|d| d.name == name)
            .and_then(|d| match &d.result {
                Ok(Outcome::Closed { run, .. }) => Some(run.total_ns as f64),
                _ => None,
            })
    };
    let mut out = String::new();
    for model in ["rmc1", "rmc4"] {
        let (Some(pond), Some(beacon), Some(pifs)) = (
            total(&format!("{model}/pond")),
            total(&format!("{model}/beacon")),
            total(&format!("{model}/pifs_rec")),
        ) else {
            continue;
        };
        out.push_str(&format!(
            "simulated PIFS-Rec speedup, scaled {}: {:.2}x over Pond (paper 3.89x), {:.2}x over BEACON (paper 2.03x)\n",
            model.to_uppercase(),
            pond / pifs,
            beacon / pifs
        ));
    }
    if !out.is_empty() {
        out.push_str("(the model is unvalidated: the repository holds no hardware reference, so no error is given)\n");
    }
    out
}

/// Operation runs attempted and failed over one benchmark run: the
/// correctness pass plus every iteration's operations.
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }
}

/// The once-per-run correctness pass: the default seed's digests against
/// the recorded reference, and for `cluster` the composed path against
/// `SlsCluster::run_open_loop_streamed`.
fn reference_check(workload: Workload, tally: &mut Tally) {
    let reference = check::reference(workload);
    let done = run_once(workload, DEFAULT_SEED);
    let mut composed = BTreeMap::new();
    for d in &done {
        let text = d.result.as_ref().map(canonical);
        let want = reference.get(&d.name);
        let what = format!("{} (seed {DEFAULT_SEED}) against the reference", d.name);
        match &text {
            Ok(t) => tally.record(want == Some(&digest(t)), &what),
            Err(e) => tally.record(false, &format!("{what}: {e}")),
        }
        if let Ok(t) = text {
            composed.insert(d.name.clone(), t);
        }
    }
    for name in reference.keys() {
        if !done.iter().any(|d| &d.name == name) {
            tally.record(false, &format!("{name}: in the reference but not run"));
        }
    }
    if workload == Workload::Cluster {
        for (name, result) in workloads::cluster_entry_point(DEFAULT_SEED) {
            let ok = matches!(&result, Ok(o) if composed.get(&name) == Some(&canonical(o)));
            tally.record(
                ok,
                &format!("{name}: composed path equals run_open_loop_streamed"),
            );
        }
    }
}

/// One child iteration's parsed report.
struct Iter {
    traced: bool,
    v: Value,
}

impl Iter {
    fn f(&self, key: &str) -> f64 {
        self.v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
    }
}

fn spawn_iteration(a: &RunArgs, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--iteration",
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting an iteration: {e}"))?;
    if !out.status.success() {
        return Err(format!("iteration exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("unreadable iteration report: {e:?}"))
}

fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile spread of `xs` as a share of its median (for the report).
fn spread(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (q(0.75) - q(0.25)) / median(xs)
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn drive(a: &RunArgs) -> ExitCode {
    let wname = a.workload.name();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    if catch_unwind(AssertUnwindSafe(|| reference_check(a.workload, &mut tally))).is_err() {
        tally.record(false, &format!("{wname}: the correctness pass panicked"));
    }

    let start = Instant::now();
    let mut iters: Vec<Iter> = Vec::new();
    let mut k = 0usize;
    while k < MIN_ITERATIONS || start.elapsed().as_secs() < a.seconds {
        let traced = a.trace && k.is_multiple_of(2);
        match spawn_iteration(a, traced) {
            Ok(v) => iters.push(Iter { traced, v }),
            Err(e) => tally.record(false, &format!("{wname} iteration {k}: {e}")),
        }
        k += 1;
    }

    // Every iteration must reproduce the first one's digests exactly
    // (and, at the default seed, the reference).
    let reference = check::reference(a.workload);
    let ops_of = |it: &Iter| -> Vec<(String, String, Option<String>)> {
        it.v.get("ops")
            .and_then(Value::as_array)
            .map(|ops| {
                ops.iter()
                    .map(|o| {
                        let s = |k: &str| o.get(k).and_then(Value::as_str).map(str::to_string);
                        (
                            s("name").unwrap_or_default(),
                            s("digest").unwrap_or_default(),
                            s("error"),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let first = iters.first().map(ops_of).unwrap_or_default();
    for (i, it) in iters.iter().enumerate() {
        let ops = ops_of(it);
        if ops.len() != first.len() {
            tally.record(
                false,
                &format!(
                    "iteration {i}: ran {} operations, not {}",
                    ops.len(),
                    first.len()
                ),
            );
            continue;
        }
        for ((name, dg, err), (_, first_dg, _)) in ops.iter().zip(&first) {
            let what = format!("{name} (seed {}, iteration {i})", a.seed);
            if let Some(e) = err {
                tally.record(false, &format!("{what}: {e}"));
            } else if dg != first_dg {
                tally.record(false, &format!("{what}: outputs differ from iteration 0"));
            } else if a.seed == DEFAULT_SEED && reference.get(name) != Some(dg) {
                tally.record(false, &format!("{what}: outputs differ from the reference"));
            } else {
                tally.record(true, "");
            }
        }
    }

    let untraced: Vec<&Iter> = iters.iter().filter(|i| !i.traced).collect();
    let traced: Vec<&Iter> = iters.iter().filter(|i| i.traced).collect();
    let col = |set: &[&Iter], f: &dyn Fn(&Iter) -> f64| -> Vec<f64> {
        set.iter().map(|i| f(i)).collect()
    };
    let mut metrics = Map::new();
    eprintln!(
        "perfbench: {wname} seed {} — {} iterations ({} traced) in {:.1} s",
        a.seed,
        iters.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    if let Some(info) = iters
        .first()
        .and_then(|i| i.v.get("info"))
        .and_then(Value::as_str)
    {
        eprint!("{info}");
    }
    if !a.trace {
        let rows: [(&str, &str, Vec<f64>); 5] = [
            ("setup_s", "s", col(&untraced, &|i| i.f("setup_s"))),
            ("wall_s", "s", col(&untraced, &|i| i.f("wall_s"))),
            (
                "lookups_per_s",
                "1/s",
                col(&untraced, &|i| i.f("lookups") / i.f("wall_s")),
            ),
            (
                "peak_heap_mib",
                "MiB",
                col(&untraced, &|i| i.f("peak_heap_bytes") / MIB),
            ),
            (
                "allocs_per_query",
                "count",
                col(&untraced, &|i| i.f("allocs") / i.f("queries")),
            ),
        ];
        for (name, unit, xs) in rows {
            let m = median(&xs);
            eprintln!(
                "  {name:<18} {m:>14.6} {unit:<6} (quartile spread {:.2} % of median)",
                100.0 * spread(&xs)
            );
            metrics.insert(name.to_string(), metric(m, unit));
        }
    } else {
        let walls = |set: &[&Iter]| median(&col(set, &|i| i.f("wall_s")));
        let (traced_wall, plain_wall) = (walls(&traced), walls(&untraced));
        for &(name, unit) in PER_LAYER {
            let m = match name {
                "trace.overhead_s" => traced_wall - plain_wall,
                "trace.overhead_frac" => (traced_wall - plain_wall) / plain_wall,
                _ => {
                    let xs = col(&traced, &|i| {
                        let v =
                            i.v.get("layers")
                                .and_then(|l| l.get(name))
                                .and_then(Value::as_f64);
                        v.unwrap_or(f64::NAN)
                    });
                    if xs.iter().any(|x| !x.is_finite()) {
                        tally.record(false, &format!("{name}: missing from a traced iteration"));
                    }
                    median(&xs)
                }
            };
            eprintln!("  {name:<34} {m:>16.6} {unit}");
            metrics.insert(name.to_string(), metric(m, unit));
        }
    }

    let correct = tally.failed == 0 && !iters.is_empty();
    eprintln!(
        "perfbench: correct={correct} attempted={} failed={}",
        tally.attempted, tally.failed
    );
    let result = json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_json(&result));
    ExitCode::SUCCESS
}

/// Rewrites `reference.txt` from this build at the default seed, after
/// checking every operation's invariants and the cluster entry-point
/// equivalence.
fn record_reference() -> ExitCode {
    let mut text = format!(
        "# perfbench reference digests at seed {DEFAULT_SEED}: <workload> <operation> <digest>.\n\
         # Written by `perfbench --record-reference`; every simulator change must leave them unchanged.\n"
    );
    let mut failed = false;
    for w in Workload::ALL {
        let done = run_once(w, DEFAULT_SEED);
        for d in &done {
            match &d.result {
                Ok(o) => text.push_str(&format!(
                    "{} {} {}\n",
                    w.name(),
                    d.name,
                    digest(&canonical(o))
                )),
                Err(e) => {
                    eprintln!("perfbench: {} {}: {e}", w.name(), d.name);
                    failed = true;
                }
            }
        }
        if w == Workload::Cluster {
            for (name, result) in workloads::cluster_entry_point(DEFAULT_SEED) {
                let composed = done
                    .iter()
                    .find(|d| d.name == name)
                    .and_then(|d| d.result.as_ref().ok());
                let same =
                    matches!((&result, composed), (Ok(e), Some(c)) if canonical(e) == canonical(c));
                if !same {
                    eprintln!("perfbench: cluster {name}: composed path differs from run_open_loop_streamed");
                    failed = true;
                }
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("perfbench: wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
