//! Result sets and their comparison under the bounds `BENCHMARK.json`
//! fixes.

use crate::stats::{median, spread};
use iolap_server::wire::{parse, JVal};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug)]
pub struct Declaration {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with direction and bound.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

/// Read `BENCHMARK.json`.
pub fn read_declaration(path: &Path) -> Result<Declaration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| match v.get(key) {
        Some(JVal::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("{}: no \"{key}\" array", path.display())),
    };
    let name = |item: &JVal| {
        item.get("name")
            .and_then(JVal::as_str)
            .map(str::to_string)
            .ok_or_else(|| "entry without a name".to_string())
    };
    Ok(Declaration {
        workloads: list("workloads")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: name(m)?,
                    lower_is_better: m.get("better").and_then(JVal::as_str) == Some("lower"),
                    bound: m
                        .get("bound")
                        .and_then(JVal::as_f64)
                        .ok_or("metric without a bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?,
        run_seconds: v.get("run_seconds").and_then(JVal::as_f64).unwrap_or(10.0),
    })
}

/// The untraced runs of one workload in a result set.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRuns {
    /// Operations attempted over all runs.
    pub attempted: u64,
    /// Operations failed over all runs.
    pub failed: u64,
    /// Per metric: one value per run.
    pub values: BTreeMap<String, Vec<f64>>,
}

/// A result set: per workload, the runs recorded for it.
pub type ResultSet = BTreeMap<String, WorkloadRuns>;

/// One line of a result-set file.
pub fn result_line(workload: &str, seed: u64, trace: bool, result: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{result}}}",
        u8::from(trace)
    )
}

/// Read the untraced runs of a result-set file (one JSON object per line).
pub fn read_result_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let v = parse(line).map_err(|e| bad(&e.to_string()))?;
        if v.get("trace").and_then(JVal::as_u64) != Some(0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(JVal::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        let runs = set.entry(workload.to_string()).or_default();
        let count = |k: &str| result.get(k).and_then(JVal::as_u64).ok_or_else(|| bad(k));
        runs.attempted += count("attempted")?;
        runs.failed += count("failed")?;
        let Some(JVal::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JVal::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            runs.values.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// How a metric moved from the base set to the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Not worse beyond the bound, but either set's own spread is wider
    /// than the bound, so "unchanged" cannot be told from a change.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// The verdict.
    pub verdict: Verdict,
    /// Median of the base set.
    pub base: f64,
    /// Median of the other set.
    pub other: f64,
    /// Wider of the two sets' spreads (0 when neither has two runs).
    pub spread: f64,
}

impl Comparison {
    /// `other / base`.
    pub fn ratio(&self) -> f64 {
        self.other / self.base
    }
}

/// Compare one metric's runs under its declared direction and bound.
pub fn compare_metric(
    base: &[f64],
    other: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Comparison {
    let (a, b) = (median(base), median(other));
    let worse_by = if lower_is_better {
        b / a - 1.0
    } else {
        1.0 - b / a
    };
    let spread = spread(base)
        .unwrap_or(0.0)
        .max(spread(other).unwrap_or(0.0));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        verdict,
        base: a,
        other: b,
        spread,
    }
}

/// Print one row per workload × end-to-end metric plus a `fail_share`
/// row per workload; returns whether anything regressed.
pub fn compare_sets(
    decl: &Declaration,
    base: &ResultSet,
    other: &ResultSet,
) -> Result<bool, String> {
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:<11} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "verdict", "base(A)", "other(B)", "B/A", "spread", "bound"
    );
    for w in &decl.workloads {
        let (a, b) = match (base.get(w), other.get(w)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(format!("workload {w} is missing from a result set")),
        };
        for m in &decl.end_to_end {
            let (va, vb) = match (a.values.get(&m.name), b.values.get(&m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    return Err(format!(
                        "{w}: metric {} is missing from a result set",
                        m.name
                    ))
                }
            };
            let c = compare_metric(va, vb, m.lower_is_better, m.bound);
            regressed |= c.verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<18} {:<11} {:>14.4} {:>14.4} {:>8.3} {:>7.1}% {:>5.0}%",
                w,
                m.name,
                c.verdict.label(),
                c.base,
                c.other,
                c.ratio(),
                100.0 * c.spread,
                100.0 * m.bound
            );
        }
        let share = |r: &WorkloadRuns| r.failed as f64 / r.attempted.max(1) as f64;
        let higher = share(b) > share(a);
        regressed |= higher;
        println!(
            "{:<16} {:<18} {:<11} {:>14.6} {:>14.6}   (failed/attempted: {}/{} vs {}/{})",
            w,
            "fail_share",
            if higher { "regressed" } else { "unchanged" },
            share(a),
            share(b),
            a.failed,
            a.attempted,
            b.failed,
            b.attempted
        );
    }
    Ok(regressed)
}
