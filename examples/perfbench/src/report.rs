//! Output: the driver's one-line JSON, the `workload metric value unit`
//! listing, the result file `perfbench compare` reads back, and the
//! `BENCHMARK.json` manifest generated from the metric tables.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};

use prdma_simnet::journal::json::{self, Value};

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::workloads::{Rep, WORKLOADS};

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 16;

/// A metric's reported value with the minimum and maximum over the run's
/// repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    /// A value read once (or that repeats exactly).
    pub fn exact(v: f64) -> Self {
        Stat {
            value: v,
            min: v,
            max: v,
        }
    }

    /// `values` (at least one) summarized by `summary`.
    pub fn of(values: &[f64], summary: fn(&[f64]) -> f64) -> Self {
        Stat {
            value: summary(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, Stat>,
    pub layers: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Print every metric as `workload metric value unit`; host-clock
    /// end-to-end metrics also show their min and max over repetitions.
    pub fn print(&self) {
        for (d, _) in END_TO_END {
            let s = self.e2e[d.name];
            println!(
                "{} {} {} {}  # min {} max {}",
                self.name, d.name, s.value, d.unit, s.min, s.max
            );
        }
        for d in PER_LAYER {
            let v = self.layers.get(d.name).copied().unwrap_or(0.0);
            println!("{} {} {} {}", self.name, d.name, v, d.unit);
        }
    }
}

/// A finite number as JSON, with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "refusing to report a non-finite measurement");
    format!("{v}")
}

/// The driver's result object: one line, last on standard output. Every
/// fatal check has already passed if this is reached, so `correct` is
/// true by construction.
pub fn contract_line(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (Def, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn map_to_json(map: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One repetition as one JSON line, from the child process that ran it
/// to the parent. `f64`'s `Display` prints the shortest text that parses
/// back to the same bits, so exact results survive the trip.
pub fn rep_to_json(rep: &Rep) -> String {
    format!(
        "{{\"setup_s\": {}, \"sim_ns\": {}, \"sim_cpu_ns\": {}, \"events\": {}, \"ops\": {}, \
         \"attempted\": {}, \"failed\": {}, \"peak_rss_mb\": {}, \"rss_mb\": {}, \
         \"exact\": {}, \"host\": {}}}",
        num(rep.setup_s),
        rep.sim_ns,
        rep.sim_cpu_ns,
        rep.events,
        rep.ops,
        rep.attempted,
        rep.failed,
        num(rep.peak_rss_mb),
        num(rep.rss_mb),
        map_to_json(&rep.exact),
        map_to_json(&rep.host),
    )
}

/// Parse a line written by [`rep_to_json`].
pub fn rep_from_json(line: &str) -> Result<Rep, String> {
    let doc = json::parse(line).map_err(|e| format!("repetition line: {e}"))?;
    let f = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("repetition line has no numeric {key}"))
    };
    let map = |key: &str| match doc.get(key) {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("repetition line: {key}.{k} is not a number"))
            })
            .collect::<Result<BTreeMap<_, _>, _>>(),
        _ => Err(format!("repetition line has no {key} object")),
    };
    Ok(Rep {
        setup_s: f("setup_s")?,
        sim_ns: f("sim_ns")? as u64,
        sim_cpu_ns: f("sim_cpu_ns")? as u64,
        events: f("events")? as u64,
        ops: f("ops")? as u64,
        attempted: f("attempted")? as u64,
        failed: f("failed")? as u64,
        peak_rss_mb: f("peak_rss_mb")?,
        rss_mb: f("rss_mb")?,
        exact: map("exact")?,
        host: map("host")?,
    })
}

/// Where result and trace files go: `perfbench/` under cargo's target
/// directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

/// Write the result file of a full run.
pub fn write_results(
    path: &Path,
    seed: u64,
    size: &str,
    reps: usize,
    results: &[WorkloadResult],
) -> std::io::Result<()> {
    let mut j = String::new();
    let _ = writeln!(
        j,
        "{{\"schema\": \"perfbench-result-v1\", \"seed\": {seed}, \"size\": \"{size}\", \
         \"reps\": {reps}, \"workloads\": ["
    );
    for (wi, r) in results.iter().enumerate() {
        let _ = writeln!(
            j,
            " {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": [",
            r.name, r.attempted, r.failed
        );
        let mut rows = Vec::new();
        for (d, _) in END_TO_END {
            let s = r.e2e[d.name];
            rows.push(metric_row(&d, "end_to_end", s));
        }
        for d in PER_LAYER {
            let v = r.layers.get(d.name).copied().unwrap_or(0.0);
            rows.push(metric_row(&d, "per_layer", Stat::exact(v)));
        }
        let _ = writeln!(j, "{}", rows.join(",\n"));
        let _ = writeln!(j, " ]}}{}", if wi + 1 < results.len() { "," } else { "" });
    }
    j.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, j)
}

fn metric_row(d: &Def, kind: &str, s: Stat) -> String {
    format!(
        "  {{\"name\": \"{}\", \"kind\": \"{kind}\", \"clock\": \"{}\", \"unit\": \"{}\", \
         \"value\": {}, \"min\": {}, \"max\": {}}}",
        d.name,
        d.clock.name(),
        d.unit,
        num(s.value),
        num(s.min),
        num(s.max)
    )
}

/// The root `BENCHMARK.json`, generated from the tables so that the file
/// and the program cannot drift apart.
pub fn manifest() -> String {
    let mut j = String::from("{\n");
    j.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"examples/perfbench/Cargo.toml\", \"--\"],\n",
    );
    j.push_str("  \"paths\": [\"examples/perfbench\"],\n");
    let _ = writeln!(j, "  \"run_seconds\": {RUN_SECONDS},");
    j.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{}",
            d.name,
            d.unit,
            d.better.name(),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            d.name,
            d.unit,
            d.better.name(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}
