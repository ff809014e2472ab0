//! The repo benchmark's runner. See `README.md` beside this package.
//!
//! ```text
//! hpf-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! hpf-benchmark [--seed N] [--seconds S] [--smoke] [--trace] [--check-repeat]
//! ```
//!
//! The first form measures one workload and ends with one JSON line (the
//! `BENCHMARK.json` contract); the second runs all six with their rounds
//! interleaved. Every round, traced round and probe set runs in a child
//! process of this executable (`--child`), pinned to one CPU.

mod probes;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hpf_analysis::Json;
use hpf_machine::alloc_counter::CountingAllocator;

use report::{end_to_end, from_json, get, to_json, EndToEnd, Metric};
use workloads::Workload;

/// Counts heap allocations per thread, for `machine.pool.allocs_per_op`.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Rounds per workload in a full run; the window of one round is the run's
/// `--seconds` divided by this.
const ROUNDS: usize = 5;
/// Untraced rounds of a `--trace 1` run, beside its one traced round.
const TRACE_UNTRACED_ROUNDS: usize = 2;
/// Spans written to `trace_<workload>.json` at most.
const TRACE_FILE_SPANS: usize = 200_000;

/// One metric of `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    unit: String,
    bound: f64,
}

/// What the runner needs of `BENCHMARK.json`.
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<&[Json], String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{}: no array {key}", path.display()))
        };
        let names = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                    Ok(MetricSpec {
                        name: field("name").ok_or(format!("{key}: a metric has no name"))?,
                        unit: field("unit").ok_or(format!("{key}: a metric has no unit"))?,
                        bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: names("end_to_end")?,
            per_layer: names("per_layer")?,
        })
    }
}

/// The metrics a run printed must be exactly the ones `specs` lists.
fn check_names(what: &str, printed: &[Metric], specs: &[MetricSpec]) -> Result<(), String> {
    let printed: BTreeSet<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let listed: BTreeSet<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    if printed == listed {
        return Ok(());
    }
    Err(format!(
        "{what} metric names differ from BENCHMARK.json: printed but not listed {:?}, \
         listed but not printed {:?}",
        printed.difference(&listed).collect::<Vec<_>>(),
        listed.difference(&printed).collect::<Vec<_>>()
    ))
}

/// Command-line flags, as `--name value` pairs; a flag given last or before
/// another flag has the value "1".
struct Args(Vec<(String, String)>);

impl Args {
    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let name = raw[i]
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {}", raw[i]))?;
            let value = match raw.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    v.clone()
                }
                _ => "1".to_string(),
            };
            out.push((name.to_string(), value));
            i += 1;
        }
        Ok(Args(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != "0")
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v}")),
        }
    }
}

/// Spawns and reads the child processes of one invocation.
struct Runner {
    exe: PathBuf,
    out_dir: PathBuf,
    seed: u64,
}

impl Runner {
    /// Run `hpf-benchmark --child <args>` to its end and parse the flat JSON
    /// object on the last line of its output.
    fn child(&self, args: &[String]) -> Result<Vec<Metric>, String> {
        let out = Command::new(&self.exe)
            .arg("--child")
            .args(args)
            .args(["--seed", &self.seed.to_string()])
            .arg("--out-dir")
            .arg(&self.out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        from_json(text.lines().last().unwrap_or(""))
    }

    fn round(
        &self,
        w: &Workload,
        window: Duration,
        traced: bool,
        default_pool: bool,
    ) -> Result<Vec<Metric>, String> {
        self.child(&[
            "round".into(),
            "--workload".into(),
            w.name.into(),
            "--window-ms".into(),
            window.as_millis().to_string(),
            "--traced".into(),
            u8::from(traced).to_string(),
            "--default-pool".into(),
            u8::from(default_pool).to_string(),
        ])
    }

    /// `rounds` untraced rounds of every workload in `ws`, interleaved
    /// round-robin (A B C A B C ...) so slow drift of the shared host hits
    /// all alike. Indexed `[workload][round]`; a child that died is an
    /// `Err`.
    fn rounds(
        &self,
        ws: &[Workload],
        rounds: usize,
        window: Duration,
    ) -> Vec<Vec<Result<Vec<Metric>, String>>> {
        let mut out: Vec<Vec<_>> = ws.iter().map(|_| Vec::new()).collect();
        for _ in 0..rounds {
            for (i, w) in ws.iter().enumerate() {
                out[i].push(self.round(w, window, false, false));
            }
        }
        out
    }
}

/// One workload's result in one mode.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// The untraced rounds of one workload, reduced.
struct Untraced {
    e: EndToEnd,
    /// Rounds whose child died; each counts as one failed attempt.
    died: u64,
}

impl Untraced {
    fn new(rounds: Vec<Result<Vec<Metric>, String>>) -> Result<Untraced, String> {
        let mut ok = Vec::new();
        let mut died = 0u64;
        for r in rounds {
            match r {
                Ok(fields) => ok.push(fields),
                Err(e) => {
                    eprintln!("round lost: {e}");
                    died += 1;
                }
            }
        }
        if ok.is_empty() {
            return Err("every round's child died".into());
        }
        Ok(Untraced {
            e: end_to_end(&ok),
            died,
        })
    }

    fn sim_us_per_op(&self) -> f64 {
        get(&self.e.best, "sim_us_per_op")
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            metrics: self.e.metrics.clone(),
            attempted: self.e.attempted + self.died,
            failed: self.e.failed + self.died,
        }
    }
}

/// The per-layer numbers that do not depend on the workload: the host-wide
/// probes, and `exec_small` unpinned under the default pool.
fn host_layers(run: &Runner, window: Duration) -> Result<Vec<Metric>, String> {
    let mut out = run.child(&["probes".into()])?;
    let small = workloads::find("exec_small").expect("exec_small exists");
    let unpinned = run.round(&small, window / 4, false, true)?;
    out.push((
        "machine.sched.pool_default_op_us".to_string(),
        get(&unpinned, "round_p50_us"),
    ));
    Ok(out)
}

/// The traced pass of one workload: one traced round and the workload's
/// probes, set beside its untraced rounds `u` and the host-wide numbers.
fn layer_outcome(
    run: &Runner,
    w: &Workload,
    window: Duration,
    spec: &Spec,
    u: &Untraced,
    host: &[Metric],
) -> Result<Outcome, String> {
    let e = &u.e;
    let traced = run.round(w, window, true, false)?;
    let probes = run.child(&["probes".into(), "--workload".into(), w.name.into()])?;

    let listed = |name: &str| spec.per_layer.iter().any(|s| s.name == name);
    let mut metrics: Vec<Metric> = traced
        .iter()
        .chain(&probes)
        .chain(host)
        .filter(|(k, _)| listed(k))
        .cloned()
        .collect();
    let mut set = |name: &str, value: f64| {
        metrics.retain(|(k, _)| k != name);
        metrics.push((name.to_string(), value));
    };
    let p50 = get(&e.metrics, "op_us_p50");
    // Allocation counts only mean anything with every observer off.
    set(
        "machine.pool.allocs_per_op",
        get(&e.best, "machine.pool.allocs_per_op"),
    );
    set("sim.us_per_op", u.sim_us_per_op());
    set("host.pinned", get(&e.best, "pinned"));
    set("e2e.ops", e.attempted as f64);
    set("e2e.op_us_p95", get(&e.best, "op_us_tail"));
    set("e2e.rounds_spread", e.rounds_spread);
    set(
        "trace.overhead_frac",
        get(&traced, "quiet_p50_us") / p50 - 1.0,
    );
    set(
        "core.seq.slowdown",
        p50 / (get(&probes, "core.seq.oracle_us") * w.executes_per_op() as f64),
    );
    // Tracing must not change the simulated time.
    let sim_differs = get(&traced, "sim_us_per_op").to_bits() != u.sim_us_per_op().to_bits();
    let traced_ops = get(&traced, "ops") as u64;
    Ok(Outcome {
        metrics,
        attempted: e.attempted + u.died + traced_ops,
        failed: e.failed
            + u.died
            + if sim_differs {
                traced_ops
            } else {
                get(&traced, "failed") as u64
            },
    })
}

fn unit_of<'a>(specs: &'a [MetricSpec], name: &str) -> &'a str {
    specs
        .iter()
        .find(|s| s.name == name)
        .map_or("", |s| s.unit.as_str())
}

fn print_metrics(workload: &str, o: &Outcome, specs: &[MetricSpec]) {
    for (name, value) in &o.metrics {
        println!(
            "{workload:<14} {name:<40} {value:>16.4} {}",
            unit_of(specs, name)
        );
    }
    println!(
        "{workload:<14} {:<40} {:>16} of {}",
        "failed ops", o.failed, o.attempted
    );
}

/// The contract's result line.
fn result_line(o: &Outcome, specs: &[MetricSpec]) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if value.is_finite() { *value } else { 0.0 },
                unit_of(specs, name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn write_out(dir: &Path, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--child round`: one round of one workload in this process.
fn child_round(args: &Args, t0: Instant) -> Result<(), String> {
    let name = args.get("workload").ok_or("--workload missing")?;
    let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    let seed = args.num("seed", 1u64)?;
    let window = Duration::from_millis(args.num("window-ms", 1000u64)?);
    let traced = args.flag("traced");
    let default_pool = args.flag("default-pool");
    // The default-pool round is the unpinned comparison.
    let pinned = !default_pool && procfs::pin_to_highest_cpu();
    let round = workloads::run_round(&w, seed, window, traced, default_pool, t0);
    let memcpy = if traced {
        probes::memcpy_gbps(w.global_len() * 4)
    } else {
        0.0
    };
    if let Some(t) = &round.traced {
        let dir = PathBuf::from(args.get("out-dir").ok_or("--out-dir missing")?);
        write_out(
            &dir,
            &format!("trace_{name}.json"),
            &t.trace.to_json(name, TRACE_FILE_SPANS),
        )?;
        write_out(&dir, &format!("trace_{name}.folded"), &t.trace.folded())?;
    }
    println!(
        "{}",
        to_json(&report::round_fields(&w, &round, pinned, memcpy))
    );
    Ok(())
}

/// `--child probes`: the probes of one workload, or without `--workload`
/// the host-wide ones; pinned.
fn child_probes(args: &Args) -> Result<(), String> {
    let seed = args.num("seed", 1u64)?;
    procfs::pin_to_highest_cpu();
    let fields = match args.get("workload") {
        Some(name) => {
            let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
            probes::of_workload(&w, seed)
        }
        None => probes::host_wide(seed),
    };
    let fields: Vec<Metric> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    println!("{}", to_json(&fields));
    Ok(())
}

/// The contract mode: one workload, one result line.
fn run_one(args: &Args, run: &Runner, spec: &Spec, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    let seconds: f64 = args.num("seconds", spec.run_seconds)?;
    let window = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let trace = args.flag("trace");
    let rounds = if trace { TRACE_UNTRACED_ROUNDS } else { ROUNDS };
    let untraced = run.rounds(std::slice::from_ref(&w), rounds, window);
    let untraced = Untraced::new(untraced.into_iter().next().expect("one workload"))?;
    let (outcome, specs, file) = if trace {
        let host = host_layers(run, window)?;
        (
            layer_outcome(run, &w, window, spec, &untraced, &host)?,
            &spec.per_layer,
            format!("{name}_per_layer.json"),
        )
    } else {
        (
            untraced.outcome(),
            &spec.end_to_end,
            format!("{name}_end_to_end.json"),
        )
    };
    check_names(name, &outcome.metrics, specs)?;
    print_metrics(name, &outcome, specs);
    let line = result_line(&outcome, specs);
    write_out(&run.out_dir, &file, &format!("{line}\n"))?;
    println!("{line}");
    Ok(true)
}

fn host_line() -> String {
    let cache = |index: &str| {
        std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/{index}/size"))
            .map_or("?".to_string(), |s| s.trim().to_string())
    };
    format!(
        "host: {} CPUs available; L2 {} (this VM's), L3 {} (reported by the VM, shared with \
         the host's other tenants)",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cache("index2"),
        cache("index3"),
    )
}

/// One workload's place in a set: its untraced rounds and, with `--trace`,
/// its per-layer outcome.
type SetEntry = (Untraced, Option<Outcome>);

/// One set of all six workloads, in workload order. Fails on any lost
/// child of the traced pass.
fn run_set(
    run: &Runner,
    spec: &Spec,
    ws: &[Workload],
    rounds: usize,
    window: Duration,
    trace: bool,
) -> Result<Vec<SetEntry>, String> {
    let mut out = Vec::new();
    for (w, rounds) in ws.iter().zip(run.rounds(ws, rounds, window)) {
        let untraced = Untraced::new(rounds)?;
        let e2e = untraced.outcome();
        check_names(w.name, &e2e.metrics, &spec.end_to_end)?;
        print_metrics(w.name, &e2e, &spec.end_to_end);
        println!(
            "{:<14} {:<40} {:>16.4} us (exact)",
            w.name,
            "sim_us_per_op",
            untraced.sim_us_per_op()
        );
        out.push((untraced, None));
    }
    if trace {
        let host = host_layers(run, window)?;
        for (w, (untraced, slot)) in ws.iter().zip(&mut out) {
            let layers = layer_outcome(run, w, window, spec, untraced, &host)?;
            check_names(w.name, &layers.metrics, &spec.per_layer)?;
            print_metrics(w.name, &layers, &spec.per_layer);
            *slot = Some(layers);
        }
    }
    Ok(out)
}

fn results_json(seed: u64, ws: &[Workload], set: &[SetEntry]) -> String {
    let part = |o: &Outcome| {
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            o.attempted,
            o.failed,
            to_json(&o.metrics)
        )
    };
    let body: Vec<String> = ws
        .iter()
        .zip(set)
        .map(|(w, (e2e, layers))| {
            format!(
                "\"{}\":{{\"end_to_end\":{},\"per_layer\":{}}}",
                w.name,
                part(&e2e.outcome()),
                layers.as_ref().map_or("null".to_string(), part)
            )
        })
        .collect();
    format!("{{\"seed\":{seed},\"workloads\":{{{}}}}}\n", body.join(","))
}

/// All six workloads, rounds interleaved; `--smoke`, `--trace` and
/// `--check-repeat` as in the README. Returns whether everything passed.
fn run_all(args: &Args, run: &Runner, spec: &Spec) -> Result<bool, String> {
    let ws = workloads::all();
    let named: Vec<&str> = ws.iter().map(|w| w.name).collect();
    if named != spec.workloads {
        return Err(format!(
            "workloads {named:?} differ from BENCHMARK.json's {:?}",
            spec.workloads
        ));
    }
    let smoke = args.flag("smoke");
    let seconds: f64 = args.num("seconds", spec.run_seconds)?;
    let (rounds, window) = if smoke {
        (1, seconds / ROUNDS as f64 / 10.0)
    } else {
        (ROUNDS, seconds / ROUNDS as f64)
    };
    let window = Duration::from_secs_f64(window);
    println!("{}", host_line());
    println!(
        "seed {}, {rounds} rounds of {:.2} s per workload, pinned-serial",
        run.seed,
        window.as_secs_f64()
    );
    let first = run_set(run, spec, &ws, rounds, window, args.flag("trace"))?;
    write_out(
        &run.out_dir,
        "results.json",
        &results_json(run.seed, &ws, &first),
    )?;
    let mut ok = first
        .iter()
        .all(|(e, l)| e.outcome().failed == 0 && l.as_ref().is_none_or(|l| l.failed == 0));
    if args.flag("check-repeat") {
        println!("second set, same seed");
        let second = run_set(run, spec, &ws, rounds, window, false)?;
        println!(
            "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
        for (w, ((a, _), (b, _))) in ws.iter().zip(first.iter().zip(&second)) {
            let (a_out, b_out) = (a.outcome(), b.outcome());
            ok &= b_out.failed == 0;
            let mut row = |name: &str, x: f64, y: f64, bound: f64| {
                let diff = (y - x).abs() / x;
                let verdict = if diff > bound { "  EXCEEDS" } else { "" };
                println!(
                    "{:<14} {name:<14} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                    w.name,
                    diff * 100.0,
                    bound * 100.0
                );
                ok &= diff <= bound;
            };
            for s in &spec.end_to_end {
                row(
                    &s.name,
                    get(&a_out.metrics, &s.name),
                    get(&b_out.metrics, &s.name),
                    s.bound,
                );
            }
            // Simulated time is exact: the same seed gives the same bits.
            row("sim_us_per_op", a.sim_us_per_op(), b.sim_us_per_op(), 0.0);
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let t0 = Instant::now();
    let args = Args::parse()?;
    match args.get("child") {
        Some("round") => return child_round(&args, t0).map(|()| true),
        Some("probes") => return child_probes(&args).map(|()| true),
        Some(other) => return Err(format!("unknown child mode {other}")),
        None => {}
    }
    let spec = Spec::load(Path::new(args.get("spec").unwrap_or("BENCHMARK.json")))?;
    let run = Runner {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        out_dir: PathBuf::from(args.get("out-dir").unwrap_or("benchmark/out")),
        seed: args.num("seed", 1u64)?,
    };
    match args.get("workload") {
        Some(name) => run_one(&args, &run, &spec, name),
        None => run_all(&args, &run, &spec),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hpf-benchmark: failed ops or a repeat outside its bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("hpf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
