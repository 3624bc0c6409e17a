//! `perfbench compare A.json B.json`: per workload and metric, the change
//! from run A (the parent) to run B against the metric's bound, as `same`,
//! `better`, `worse` or `unresolved`. Exits non-zero when an end-to-end or
//! headline metric is `worse`.
//!
//! Exact-clock metrics (virtual time, counts) repeat bit for bit, so any
//! difference is a real change and their bound is zero. Host-clock metrics
//! are judged against their bound: where the spread between a run's own
//! repetitions is wider than the bound the verdict is `unresolved`, unless
//! every repetition of one run reads better than every repetition of the
//! other.

use std::collections::BTreeMap;

use prdma_simnet::journal::json::{self, Value};

use crate::metrics::{self, Better, Clock, HEADLINE};

/// Bound for host-clock layer metrics, which have none of their own.
const LAYER_BOUND: f64 = 0.10;

#[derive(Debug, Clone, Copy)]
struct Row {
    value: f64,
    min: f64,
    max: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A result file: what it was measured at, and its rows per workload.
struct Run {
    seed: f64,
    size: String,
    workloads: Vec<(String, BTreeMap<String, Row>)>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: metric without a numeric {key}"))
    };
    let seed = doc
        .get("seed")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no seed"))?;
    let size = doc
        .get("size")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: no size"))?
        .to_string();
    let mut workloads = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no workloads array"))?
    {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: workload without a name"))?;
        let mut rows = BTreeMap::new();
        for m in w
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: {name} has no metrics array"))?
        {
            let metric = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: metric without a name"))?;
            rows.insert(
                metric.to_string(),
                Row {
                    value: field(m, "value")?,
                    min: field(m, "min")?,
                    max: field(m, "max")?,
                },
            );
        }
        workloads.push((name.to_string(), rows));
    }
    Ok(Run {
        seed,
        size,
        workloads,
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = (b - a) / a.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

fn judge(better: Better, clock: Clock, bound: f64, a: Row, b: Row) -> Verdict {
    if a.value.to_bits() == b.value.to_bits() {
        return Verdict::Same;
    }
    if clock == Clock::Exact {
        return match (better, b.value < a.value) {
            (Better::Lower, true) | (Better::Higher, false) => Verdict::Better,
            _ => Verdict::Worse,
        };
    }
    if a.value == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(better, a.value, b.value);
    if a.min == a.max && b.min == b.max {
        // One reading a side (layer metrics): a change beyond the bound
        // cannot be told from noise.
        return if worse_by.abs() > bound {
            Verdict::Unresolved
        } else {
            Verdict::Same
        };
    }
    let spread = ((a.max - a.min) / a.value.abs()).max((b.max - b.min) / b.value.abs());
    // Every repetition of one run on one side of every repetition of the
    // other settles the direction whatever the spread.
    let (b_all_worse, b_all_better) = match better {
        Better::Lower => (b.min > a.max, b.max < a.min),
        Better::Higher => (b.max < a.min, b.min > a.max),
    };
    if spread > bound && !(b_all_worse || b_all_better) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Returns `Ok(false)` when a gated metric got worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: perfbench compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.seed != b.seed || a.size != b.size {
        return Err(format!(
            "{a_path} is seed {} size {}, {b_path} is seed {} size {}: exact metrics only \
             compare at the same seed and size",
            a.seed, a.size, b.seed, b.size
        ));
    }
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut gated_worse = 0usize;
    println!("workload metric A B change bound verdict");
    for (workload, a_rows) in &a.workloads {
        let Some((_, b_rows)) = b.workloads.iter().find(|(w, _)| w == workload) else {
            println!("{workload} - - - - - missing-in-B");
            continue;
        };
        for (name, &ra) in a_rows {
            let Some((def, e2e_bound)) = metrics::find(name) else {
                continue;
            };
            let Some(&rb) = b_rows.get(name) else {
                println!("{workload} {name} {} - - - missing-in-B", ra.value);
                continue;
            };
            let bound = match def.clock {
                Clock::Exact => 0.0,
                Clock::Host => e2e_bound.unwrap_or(LAYER_BOUND),
            };
            let verdict = judge(def.better, def.clock, bound, ra, rb);
            *counts.entry(verdict.name()).or_default() += 1;
            let gated = e2e_bound.is_some() || HEADLINE.contains(&name.as_str());
            if verdict == Verdict::Worse && gated {
                gated_worse += 1;
            }
            // Unchanged layer metrics would drown the table.
            if e2e_bound.is_some() || verdict != Verdict::Same {
                let change = if ra.value == 0.0 {
                    "n/a".to_string()
                } else {
                    format!("{:+.2}%", (rb.value - ra.value) / ra.value.abs() * 100.0)
                };
                println!(
                    "{workload} {name} {} {} {change} {bound} {}{}",
                    ra.value,
                    rb.value,
                    verdict.name(),
                    if gated { "" } else { " (not gated)" }
                );
            }
        }
    }
    let total: usize = counts.values().sum();
    println!(
        "# {total} metrics: {} same, {} better, {} worse, {} unresolved; {gated_worse} gated worse",
        counts.get("same").copied().unwrap_or(0),
        counts.get("better").copied().unwrap_or(0),
        counts.get("worse").copied().unwrap_or(0),
        counts.get("unresolved").copied().unwrap_or(0),
    );
    Ok(gated_worse == 0)
}
