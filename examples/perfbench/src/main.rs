//! `perfbench` — the repo benchmark: five workloads measured on two
//! clocks (virtual time of the modelled fleet, host time of the
//! simulator), end to end and per layer. See `README.md` beside this
//! package and the root `BENCHMARK.json`.
//!
//! ```text
//! perfbench [run] [--seed N] [--workload W] [--reps R] [--smoke] [--out FILE]
//! perfbench --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! perfbench compare A.json B.json
//! perfbench --list | manifest
//! ```
//!
//! Every repetition runs in a child process of this executable (`perfbench
//! rep ...`, see [`spawn_reps`]); the parent waits for each.

mod compare;
mod host;
mod layers;
mod metrics;
mod probes;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER};
use report::{Stat, WorkloadResult};
use trace::Recorder;
use workloads::{Ctx, Rep, Sizes, WORKLOADS};

/// The seed the recorded baseline uses (the paper's conference date).
const DEFAULT_SEED: u64 = 20211114;
/// Upper limit on repetitions of one measurement, whatever the time
/// budget: dropped `Sim`s do not return their memory.
const MAX_REPS: usize = 40;

/// When a measurement loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many undisturbed repetitions (each disturbed one is
    /// re-run once).
    Reps(usize),
    /// Once this much host time has passed and three repetitions are in.
    Seconds(f64),
}

struct Opts {
    seed: u64,
    workload: Option<String>,
    reps: usize,
    smoke: bool,
    seconds: Option<f64>,
    trace: bool,
    list: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: DEFAULT_SEED,
        workload: None,
        reps: 3,
        smoke: false,
        seconds: None,
        trace: false,
        list: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "run" => {}
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => o.workload = Some(value("a workload name")?),
            "--reps" => {
                o.reps = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if o.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--list" => o.list = true,
            "--out" => o.out = Some(value("a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        workload_name(w)?;
    }
    Ok(o)
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .map(|&(n, _)| n)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name} (see --list)"))
}

/// Which op-count preset a repetition uses.
#[derive(Clone, Copy)]
enum Size {
    Full,
    Smoke,
    Traced,
}

impl Size {
    fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
            Size::Traced => "traced",
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        [Size::Full, Size::Smoke, Size::Traced]
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown size {name}"))
    }

    fn sizes(self) -> Sizes {
        match self {
            Size::Full => Sizes::FULL,
            Size::Smoke => Sizes::SMOKE,
            Size::Traced => Sizes::TRACED,
        }
    }
}

/// The bench-side span names whose self times are reported.
const SPAN_PHASES: [&str; 7] = [
    "rep",
    "setup",
    "generate",
    "simulate",
    "collect",
    "audit",
    "span_build",
];

/// The `q`-quantile of `values` (linear interpolation between ranks).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of nothing");
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// How a host-time reading is summarized over repetitions: the lower
/// quartile. A shared sandbox only ever adds time, so the upper half of
/// the repetitions measures the neighbours; over ten 12-second runs of
/// `cached_read95` the lower quartile spread 1.5 % where the median spread
/// 5.4 % and the minimum 4.5 %.
fn typical(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Every exact result of `b` that `a` also has must be bit-identical: the
/// simulation is deterministic, so anything else is a bug worth stopping
/// for.
fn assert_same_exact(what: &str, a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) {
    for (name, va) in a {
        if let Some(vb) = b.get(name) {
            assert!(
                va.to_bits() == vb.to_bits(),
                "{what}: {name} is not deterministic ({va} vs {vb})"
            );
        }
    }
}

fn is_end_to_end(name: &str) -> bool {
    END_TO_END.iter().any(|(d, _)| d.name == name)
}

/// The typical value of each host reading over `reps`.
fn host_typical(reps: &[&Rep]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, v) in &rep.host {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .map(|(name, vs)| (name.to_string(), typical(&vs)))
        .collect()
}

/// Run `times` repetitions in a process of their own and read them back.
///
/// The stack does not return a dropped `Sim`'s memory, and a repetition
/// gets slower with the heap earlier ones left behind (on
/// `openloop_fleet` the third in a process costs 15 % more host time than
/// the first). A fresh process per repetition keeps them independent;
/// `times > 1` is only used to measure that growth.
fn spawn_reps(
    workload: &'static str,
    seed: u64,
    size: Size,
    traced: bool,
    times: usize,
) -> Result<Vec<Rep>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["rep", workload, &seed.to_string(), size.name()])
        .args([if traced { "1" } else { "0" }, &times.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("a {workload} repetition failed ({})", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("repetition output: {e}"))?;
    let reps: Vec<Rep> = text
        .lines()
        .map(report::rep_from_json)
        .collect::<Result<_, _>>()?;
    if reps.len() != times {
        return Err(format!("asked for {times} repetitions, got {}", reps.len()));
    }
    Ok(reps)
}

/// The child side of [`spawn_reps`]: run the repetitions in this process
/// and print one JSON line each. A traced child writes its last
/// repetition's spans to `trace_<workload>.json`.
fn child(args: &[String]) -> Result<(), String> {
    let [workload, seed, size, traced, times] = args else {
        return Err("usage: perfbench rep WORKLOAD SEED SIZE TRACED TIMES".into());
    };
    let workload = workload_name(workload)?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let size = Size::from_name(size)?;
    let traced = traced == "1";
    let times: usize = times.parse().map_err(|e| format!("times: {e}"))?;
    let mut rec = Recorder::new(workload);
    for _ in 0..times {
        rec.clear();
        let mut rep = workloads::run(
            workload,
            &mut Ctx {
                seed,
                sizes: size.sizes(),
                traced,
                rec: &mut rec,
            },
        );
        rep.peak_rss_mb = host::peak_rss_mb();
        rep.rss_mb = host::rss_mb();
        for phase in SPAN_PHASES {
            rep.host
                .insert(format!("bench.span.{phase}_ms"), rec.self_ms(phase));
        }
        println!("{}", report::rep_to_json(&rep));
    }
    if traced {
        let dir = report::out_dir();
        let path = dir.join(format!("trace_{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rec.to_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Isolated repetitions of the untraced workload until `stop`. Exact
/// results must be bit-identical from one process to the next.
fn isolated_reps(
    workload: &'static str,
    seed: u64,
    size: Size,
    stop: Stop,
) -> Result<Vec<Rep>, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let rep = spawn_reps(workload, seed, size, false, 1)?.remove(0);
        if let Some(first) = reps.first() {
            assert_same_exact(workload, &first.exact, &rep.exact);
        }
        eprintln!(
            "# {workload} rep {}: {:.1} host ns/op, set-up {:.6} s{}",
            reps.len() + 1,
            rep.host_ns_per_op(),
            rep.setup_s,
            if rep.disturbed() { " (disturbed)" } else { "" }
        );
        reps.push(rep);
        let clean = reps.iter().filter(|r| !r.disturbed()).count();
        let done = match stop {
            Stop::Reps(n) => clean >= n || reps.len() >= 2 * n,
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s && reps.len() >= 3,
        };
        if done || reps.len() >= MAX_REPS {
            return Ok(reps);
        }
    }
}

/// The untraced measurement: end-to-end metrics plus the layer readings
/// that need no journal.
struct Untraced {
    e2e: BTreeMap<&'static str, Stat>,
    layers: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

fn summarize(workload: &str, reps: &[Rep]) -> Untraced {
    let disturbed = reps.iter().filter(|r| r.disturbed()).count();
    // Undisturbed repetitions carry the host metrics; if the sandbox
    // disturbed every one, all of them do.
    let used: Vec<&Rep> = if disturbed < reps.len() {
        reps.iter().filter(|r| !r.disturbed()).collect()
    } else {
        reps.iter().collect()
    };
    let first = &reps[0];
    let over_used = |f: fn(&Rep) -> f64| used.iter().map(|r| f(r)).collect::<Vec<_>>();
    let ns_per_op = Stat::of(&over_used(Rep::host_ns_per_op), typical);
    let exact = |name: &str| {
        *first
            .exact
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not report {name}"))
    };
    let median_over_all = |f: fn(&Rep) -> f64| {
        Stat::of(&reps.iter().map(f).collect::<Vec<_>>(), |v| {
            quantile(v, 0.5)
        })
    };

    let mut e2e = BTreeMap::new();
    e2e.insert("op_mean_us", Stat::exact(exact("op_mean_us")));
    e2e.insert("virt_kops", Stat::exact(exact("virt_kops")));
    e2e.insert("host_ns_per_op", ns_per_op);
    e2e.insert("peak_rss_mb", median_over_all(|r| r.peak_rss_mb));
    e2e.insert("setup_s", median_over_all(|r| r.setup_s));

    let mut layers = first.exact.clone();
    layers.retain(|name, _| !is_end_to_end(name));
    layers.extend(host_typical(&used));
    let ns_per_event = typical(&over_used(|r| r.sim_ns as f64 / r.events.max(1) as f64));
    let mut set = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    set("simnet.executor.host_ns_per_event", ns_per_event);
    set("simnet.executor.host_events_per_s", 1e9 / ns_per_event);
    set(
        "bench.host_cpu_ns_per_op",
        typical(&over_used(|r| r.sim_cpu_ns as f64 / r.ops.max(1) as f64)),
    );
    set("bench.host_ns_per_op_min", ns_per_op.min);
    set("bench.host_ns_per_op_max", ns_per_op.max);
    set("bench.reps", reps.len() as f64);
    set("bench.disturbed_reps", disturbed as f64);
    Untraced {
        e2e,
        layers,
        attempted: first.attempted,
        failed: first.failed,
    }
}

/// The traced measurement. First three full-size repetitions in *one*
/// process, for the full-size exact results and for what a dropped `Sim`
/// leaves behind (`rss_growth_per_rep_mb`). Then pairs of isolated
/// repetitions at the traced size — journal off, journal on — so the
/// overhead compares runs of equal op count whose virtual results match.
/// Returns every layer reading.
fn measure_layers(
    workload: &'static str,
    seed: u64,
    size: Size,
    stop: Stop,
    probe_iters: u32,
) -> Result<(Untraced, BTreeMap<String, f64>), String> {
    let started = Instant::now();
    let batch = spawn_reps(workload, seed, size, false, 3)?;
    assert_same_exact(workload, &batch[0].exact, &batch[2].exact);
    let untraced = summarize(workload, &batch);
    let rss_growth = (batch[2].rss_mb - batch[0].rss_mb) / 2.0;

    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        for on in [false, true] {
            let rep = spawn_reps(workload, seed, Size::Traced, on, 1)?.remove(0);
            // Journaling must not move a single virtual result.
            assert_same_exact(workload, &rep.exact, &traced.first().unwrap_or(&rep).exact);
            assert_same_exact(workload, &rep.exact, &plain.first().unwrap_or(&rep).exact);
            if on { &mut traced } else { &mut plain }.push(rep);
        }
        let done = match stop {
            Stop::Reps(n) => traced.len() >= n,
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done || traced.len() >= MAX_REPS {
            break;
        }
    }
    let ns_per_op =
        |reps: &[Rep]| typical(&reps.iter().map(Rep::host_ns_per_op).collect::<Vec<_>>());
    let (with, without) = (ns_per_op(&traced), ns_per_op(&plain));
    // What the full-size untraced run measured wins over the same name
    // from the reduced traced run, which adds what only a journal gives.
    let mut layers = traced[0].exact.clone();
    layers.extend(host_typical(&traced.iter().collect::<Vec<_>>()));
    layers.extend(probes::run(probe_iters));
    layers.extend(untraced.layers.iter().map(|(k, v)| (k.clone(), *v)));
    let mut set = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    set(
        "simnet.journal.trace_overhead_pct",
        (with / without - 1.0) * 100.0,
    );
    set("bench.traced_host_ns_per_op", with);
    set("bench.untraced_host_ns_per_op", without);
    set("bench.traced_ops", traced[0].ops as f64);
    set("bench.traced_pairs", traced.len() as f64);
    set("bench.rss_growth_per_rep_mb", rss_growth);
    layers.retain(|name, _| !is_end_to_end(name));
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "layer metric {name} is missing from the metric table"
        );
    }
    Ok((untraced, layers))
}

/// The driver's form: one workload, `--seconds` of measuring, one JSON
/// object as the last line of standard output.
fn contract(o: &Opts, seconds: f64) -> Result<(), String> {
    let workload = workload_name(o.workload.as_deref().ok_or("--seconds needs --workload")?)?;
    let size = if o.smoke { Size::Smoke } else { Size::Full };
    let line = if o.trace {
        let (untraced, layers) = measure_layers(workload, o.seed, size, Stop::Seconds(seconds), 3)?;
        report::contract_line(
            untraced.attempted,
            untraced.failed,
            PER_LAYER
                .iter()
                .map(|d| (*d, layers.get(d.name).copied().unwrap_or(0.0))),
        )
    } else {
        let reps = isolated_reps(workload, o.seed, size, Stop::Seconds(seconds))?;
        let untraced = summarize(workload, &reps);
        report::contract_line(
            untraced.attempted,
            untraced.failed,
            END_TO_END
                .iter()
                .map(|(d, _)| (*d, untraced.e2e[d.name].value)),
        )
    };
    println!("{line}");
    Ok(())
}

/// The full protocol: every workload (or one), untraced then traced,
/// every metric printed as `workload metric value unit` and written to
/// the result file.
fn run_all(o: &Opts) -> Result<(), String> {
    let size = if o.smoke { Size::Smoke } else { Size::Full };
    let probe_iters = if o.smoke { 1 } else { 5 };
    let mut results = Vec::new();
    for (workload, _) in WORKLOADS {
        if o.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let reps = isolated_reps(workload, o.seed, size, Stop::Reps(o.reps))?;
        let untraced = summarize(workload, &reps);
        let (_, mut layers) = measure_layers(workload, o.seed, size, Stop::Reps(1), probe_iters)?;
        // The isolated repetitions are the better host-time sample.
        layers.extend(untraced.layers);
        let result = WorkloadResult {
            name: workload,
            attempted: untraced.attempted,
            failed: untraced.failed,
            layers,
            e2e: untraced.e2e,
        };
        result.print();
        results.push(result);
    }
    let path = o
        .out
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| report::out_dir().join("result.json"));
    report::write_results(&path, o.seed, size.name(), o.reps, &results)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(())
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    println!("end-to-end metrics (every workload):");
    for (d, bound) in END_TO_END {
        println!(
            "  {:<16} {:<5} better {:<6} {:<5} bound {bound}",
            d.name,
            d.unit,
            d.better.name(),
            d.clock.name()
        );
    }
    println!("per-layer metrics:");
    for d in PER_LAYER {
        println!(
            "  {:<52} {:<5} better {:<6} {}",
            d.name,
            d.unit,
            d.better.name(),
            d.clock.name()
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("rep") => child(&args[1..]).map(|()| true),
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => parse(&args).and_then(|o| {
            if o.list {
                list();
                Ok(())
            } else if let Some(seconds) = o.seconds {
                contract(&o, seconds)
            } else {
                run_all(&o)
            }
            .map(|()| true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
