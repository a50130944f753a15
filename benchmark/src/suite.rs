//! Runs that span workloads: the full record, the smoke check and
//! calibration. Each workload runs in a child process of its own, so one
//! workload's heap, threads and peak RSS never reach the next.

use crate::compare::{read_declaration, result_line, Declaration};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use iolap_server::wire::{parse, JVal};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Run one workload in a child process; its standard output is passed
/// through and its last line (the result) returned.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if smoke {
        cmd.args(["--scale", "smoke"]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{workload}: child printed nothing"))
}

/// Check one result line: it parses, is correct, and names exactly the
/// declared metrics. Returns what is wrong. At pinned scale no end-to-end
/// metric may read 0; at smoke scale a served session can end inside one
/// poll and leave no gap to measure.
pub fn check_result(line: &str, trace: bool, smoke: bool) -> Result<(), String> {
    let v = parse(line).map_err(|e| format!("result does not parse: {e}"))?;
    if v.get("correct").and_then(JVal::as_bool) != Some(true) {
        return Err(format!("result is not correct: {line}"));
    }
    let Some(JVal::Obj(metrics)) = v.get("metrics") else {
        return Err("result has no metrics".to_string());
    };
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for (name, unit) in &declared {
        let m = metrics
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("metric {name} was not printed"))?;
        if m.1.get("unit").and_then(JVal::as_str) != Some(unit) {
            return Err(format!("metric {name} does not carry unit {unit}"));
        }
        let value = m.1.get("value").and_then(JVal::as_f64);
        if value.is_none() || (!trace && !smoke && value == Some(0.0)) {
            return Err(format!("metric {name} has no usable value"));
        }
    }
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics printed, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    Ok(())
}

/// One workload untraced then traced; its two result-set lines.
fn run_both(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<String, String> {
    let mut lines = String::new();
    for trace in [false, true] {
        let result = run_child(workload, seed, seconds, trace, smoke)?;
        check_result(&result, trace, smoke)
            .map_err(|e| format!("{workload} (trace {}): {e}", u8::from(trace)))?;
        let _ = writeln!(lines, "{}", result_line(workload, seed, trace, &result));
    }
    Ok(lines)
}

/// Every workload untraced then traced, results written to `out`. The
/// smoke check times nothing, so it runs its six children side by side.
pub fn run_all(seed: u64, seconds: f64, smoke: bool, out: &Path) -> Result<(), String> {
    let lines: Vec<String> = if smoke {
        std::thread::scope(|scope| {
            let children: Vec<_> = WORKLOADS
                .iter()
                .map(|w| scope.spawn(move || run_both(w.name, seed, seconds, true)))
                .collect();
            children
                .into_iter()
                .map(|c| {
                    c.join()
                        .unwrap_or_else(|_| Err("smoke thread panicked".to_string()))
                })
                .collect::<Result<_, _>>()
        })?
    } else {
        WORKLOADS
            .iter()
            .map(|w| run_both(w.name, seed, seconds, false))
            .collect::<Result<_, _>>()?
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, lines.concat()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result set written to {}", out.display());
    Ok(())
}

fn machine() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

/// `sets` result sets of the same build (one run per workload each, a new
/// seed per set), the spread of every end-to-end metric across them, and
/// the machine they were taken on. Sets land in `out_dir` as
/// `calibrate-set<k>.jsonl` (ready for `compare`), the summary as
/// `calibration.json`. Returns whether every spread stayed within a third
/// of its bound.
pub fn calibrate(
    decl: &Declaration,
    sets: usize,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for k in 0..sets {
        let mut lines = String::new();
        for w in &WORKLOADS {
            let set_seed = seed + k as u64;
            let result = run_child(w.name, set_seed, seconds, false, false)?;
            check_result(&result, false, false).map_err(|e| format!("{}: {e}", w.name))?;
            let v = parse(&result).map_err(|e| e.to_string())?;
            for (name, _) in END_TO_END {
                let value = v
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                values
                    .entry((w.name.to_string(), name.to_string()))
                    .or_default()
                    .push(value.and_then(JVal::as_f64).unwrap_or(0.0));
            }
            let _ = writeln!(lines, "{}", result_line(w.name, set_seed, false, &result));
        }
        let path = out_dir.join(format!("calibrate-set{k}.jsonl"));
        std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (nproc, model) = machine();
    let mut json = format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"sets\": {sets}, \"run_seconds\": {seconds}, \"spread\": {{",
        iolap_server::wire::escape(&model)
    );
    let mut steady = true;
    println!(
        "{:<16} {:<18} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "spread", "bound"
    );
    for (i, ((w, name), vs)) in values.iter().enumerate() {
        let bound = decl
            .end_to_end
            .iter()
            .find(|m| m.name == *name)
            .map_or(0.0, |m| m.bound);
        let s = spread(vs).unwrap_or(0.0);
        // setup_s is reported but not held to a spread.
        let wide = name != "setup_s" && s > bound / 3.0;
        steady &= !wide;
        println!(
            "{w:<16} {name:<18} {:>12.4} {:>7.1}% {:>5.0}%{}",
            median(vs),
            100.0 * s,
            100.0 * bound,
            if wide {
                "  <- wider than a third of its bound"
            } else {
                ""
            }
        );
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(json, "{sep}\"{w}/{name}\": {s}");
    }
    json.push_str("}}\n");
    let path = out_dir.join("calibration.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "calibration written to {} ({nproc} cpus, {model})",
        path.display()
    );
    Ok(steady)
}

/// The declaration at `BENCHMARK.json` in the working directory.
pub fn declaration() -> Result<Declaration, String> {
    read_declaration(Path::new("BENCHMARK.json"))
}

/// Whether every query of every workload, at the scale a run of it uses,
/// ends on the batch oracle's answer when tables and driver are seeded
/// with `seed`.
pub fn seed_answers_exactly(seed: u64, smoke: bool) -> bool {
    use crate::inputs::{config, queries, wire_seed, Env};
    use crate::local::{final_matches, run_baseline, run_query};
    let spans = crate::spans::Spans::new(false);
    WORKLOADS.iter().all(|w| {
        let scale = w.scale(smoke);
        let env = Env::generate(&scale, seed);
        queries(w).iter().all(|q| {
            let (oracle, _) = run_baseline(&env, q, &spans, 0);
            run_query(&env, q, config(&scale, wire_seed(seed, 0)), None, &spans, 0)
                .is_ok_and(|(_, reports)| final_matches(&reports, &oracle))
        })
    })
}

/// Check the whole pool of [`crate::spec::vetted_seeds`]; returns whether
/// every seed in it still answers exactly.
pub fn vet(smoke: bool) -> bool {
    let bad: Vec<u64> = (1..=crate::spec::vetted_seeds(smoke))
        .filter(|&seed| !seed_answers_exactly(seed, smoke))
        .collect();
    for seed in &bad {
        println!("seed {seed}: a final answer differs from the batch oracle");
    }
    println!(
        "{} of {} seeds answer exactly",
        crate::spec::vetted_seeds(smoke) - bad.len() as u64,
        crate::spec::vetted_seeds(smoke)
    );
    bad.is_empty()
}
