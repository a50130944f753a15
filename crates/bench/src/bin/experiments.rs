//! Regenerates every table and figure of the iOLAP paper's evaluation (§8).
//!
//! ```text
//! cargo run --release -p iolap-bench --bin experiments -- all
//! cargo run --release -p iolap-bench --bin experiments -- fig7a fig8ab fig9a
//! IOLAP_SCALE=0.5 cargo run --release -p iolap-bench --bin experiments -- fig10ab
//! IOLAP_SCALE=bench cargo run --release -p iolap-bench --bin experiments -- trace C8
//! cargo run --release -p iolap-bench --bin experiments -- serve --listen 127.0.0.1:7878
//! ```
//!
//! `IOLAP_SCALE` is `full` (the default), `bench` (a quick pass), or a
//! positive multiplier on the full data sizes; any other value exits 2.
//!
//! `trace <query>` (not part of `all`) runs one query (default `C2`) with
//! the causal event journal armed and renders a per-batch timeline, a
//! top-k exclusive self-time table, and per-operator latency quantiles,
//! then writes JSONL and Chrome `trace_event` exports.
//!
//! `serve --listen ADDR` (not part of `all`) serves the newline-delimited
//! JSON protocol over the Conviva workload on a TCP socket until killed.
//!
//! Correctness is not checked here: `cargo test` carries every check.
//! Absolute numbers differ from the paper (its substrate was a 20-node
//! Spark/EC2 cluster over 1–2 TB; ours is a single-process engine over
//! synthetic data) — the *shapes* are what reproduce: who wins, growth
//! trends, crossovers. See `EXPERIMENTS.md` for the side-by-side record.

#![forbid(unsafe_code)]

use iolap_bench::*;
use iolap_core::IolapConfig;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut listen: Option<String> = None;
    let mut trace_query: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let a = raw[i].as_str();
        if a == "--listen" {
            i += 1;
            match raw.get(i) {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("--listen requires an ADDR:PORT argument");
                    std::process::exit(2);
                }
            }
        } else if a == "trace" {
            args.push(a.to_string());
            // Optional query id operand: `trace C8` (default C2).
            if let Some(q) = raw.get(i + 1) {
                if !q.starts_with('-') {
                    trace_query = Some(q.clone());
                    i += 1;
                }
            }
        } else {
            args.push(a.to_string());
        }
        i += 1;
    }
    let scale = ExpScale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let which: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "fig7a", "fig7b", "fig7c", "fig8ab", "fig8cd", "fig8ef", "fig9a", "fig9bc",
            "fig9de", "fig9fg", "fig10ab", "fig10cd", "fig10ef", "trials", "metrics",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!("iOLAP experiment harness (scale: {scale:?})");
    let mut unknown = false;
    for exp in which {
        match exp {
            "serve" => {
                let Some(addr) = listen.as_deref() else {
                    eprintln!("serve requires --listen ADDR:PORT");
                    std::process::exit(2);
                };
                if let Err(e) = serve::serve_listen(addr, &scale) {
                    eprintln!("serve --listen {addr}: {e}");
                    std::process::exit(1);
                }
            }
            "trace" => trace_cmd(&scale, trace_query.as_deref().unwrap_or("C2")),
            "table1" => table1(&scale),
            "fig7a" => fig7a(&scale),
            "fig7b" => fig7bc(&scale, true),
            "fig7c" => fig7bc(&scale, false),
            "fig8ab" => fig8_ratio(&scale, true),
            "fig8cd" => fig8_ratio(&scale, false),
            "fig8ef" => fig8_recomputed(&scale),
            "fig9a" => fig9a(&scale),
            "fig9bc" => fig9bc(&scale, true),
            "fig9de" => fig9de(&scale, false),
            "fig9fg" => fig9fg(&scale),
            "fig10ab" => fig10ab(&scale),
            "fig10cd" => fig9bc(&scale, false),
            "fig10ef" => fig9de(&scale, true),
            "trials" => trials_sweep(&scale),
            "metrics" => metrics_breakdown(&scale),
            other => {
                eprintln!("unknown experiment `{other}`");
                unknown = true;
            }
        }
    }
    if unknown {
        std::process::exit(2);
    }
}

/// `trace <query>`: run one query with the full event journal armed and
/// render its causal trace — a per-batch timeline, a top-k exclusive
/// self-time table, and per-operator latency quantiles — then write both
/// exporters' output (`TRACE_<id>.jsonl`, `TRACE_<id>.trace.json`; the
/// latter loads in `chrome://tracing` / Perfetto). An unknown query id
/// exits 2.
fn trace_cmd(scale: &ExpScale, id: &str) {
    use iolap_core::{export_chrome, export_jsonl, EventKind};
    section(&format!("trace: causal event journal, {id}"));
    let w = if id.starts_with('Q') {
        tpch_workload(scale)
    } else {
        conviva_workload(scale)
    };
    let Some(q) = w.queries.iter().find(|q| q.id == id).cloned() else {
        eprintln!("unknown query `{id}`");
        std::process::exit(2);
    };
    let (reports, events, cumulative) = w.run_iolap_traced(&q, scale.config());

    println!(
        "{:>6} {:>10} {:>6}  top self-time (ms)",
        "batch", "ms", "marks"
    );
    for r in &reports {
        let mut st = r.self_time_ns.clone();
        st.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let marks = events
            .iter()
            .filter(|e| e.batch == r.batch && e.kind == EventKind::Mark)
            .count();
        let top: Vec<String> = st
            .iter()
            .take(4)
            .map(|(n, ns)| format!("{n} {:.2}", *ns as f64 / 1e6))
            .collect();
        println!(
            "{:>6} {:>10} {:>6}  {}",
            r.batch,
            ms(r.elapsed),
            marks,
            top.join(" | ")
        );
    }
    let mut totals: std::collections::BTreeMap<&str, u64> = Default::default();
    for r in &reports {
        for (n, ns) in &r.self_time_ns {
            *totals.entry(n).or_default() += ns;
        }
    }
    let mut totals: Vec<_> = totals.into_iter().collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let grand: u64 = totals.iter().map(|x| x.1).sum();
    println!("\n{:<24} {:>12} {:>7}", "span", "self(ms)", "share");
    for (n, ns) in totals.iter().take(10) {
        println!(
            "{:<24} {:>12.2} {:>6.1}%",
            n,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / grand.max(1) as f64
        );
    }
    println!(
        "\n{:<24} {:>8} {:>10} {:>10} {:>10}",
        "metric", "samples", "p50(ms)", "p95(ms)", "p99(ms)"
    );
    for (name, h) in cumulative.histograms() {
        let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
        println!(
            "{:<24} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            name,
            h.count(),
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }
    for (path, body) in [
        (format!("TRACE_{id}.jsonl"), export_jsonl(&events, false)),
        (
            format!("TRACE_{id}.trace.json"),
            export_chrome(&events, false),
        ),
    ] {
        match iolap_store::write_artifact(std::path::Path::new(&path), body.as_bytes()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Table 1: batch sizes for the streamed relations.
fn table1(scale: &ExpScale) {
    section("Table 1: mini-batch sizes for streamed relations");
    println!(
        "{:<22} {:>14} {:>18}",
        "workload (relation)", "total rows", "rows per batch"
    );
    let t = tpch_workload(scale);
    for rel in ["lineorder", "partsupp", "customer"] {
        let n = t.catalog.get(rel).unwrap().len();
        println!(
            "{:<22} {:>14} {:>18}",
            format!("TPC-H ({rel})"),
            n,
            n.div_ceil(scale.batches)
        );
    }
    let c = conviva_workload(scale);
    let n = c.catalog.get("sessions").unwrap().len();
    println!(
        "{:<22} {:>14} {:>18}",
        "Conviva (sessions)",
        n,
        n.div_ceil(scale.batches)
    );
}

/// Fig 7(a): relative standard deviation vs cumulative time for Conviva C8,
/// with the batch baseline latency as the reference bar.
fn fig7a(scale: &ExpScale) {
    section("Fig 7(a): relative stddev vs time, Conviva C8");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "C8").unwrap().clone();
    let baseline = w.run_baseline(&q);
    let reports = w.run_iolap(&q, scale.config());
    println!("baseline latency: {} ms", ms(baseline.elapsed));
    println!(
        "{:>6} {:>12} {:>12} {:>22}",
        "batch", "time(ms)", "frac(%)", "relative stddev (%)"
    );
    let mut acc = std::time::Duration::ZERO;
    for r in &reports {
        acc += r.elapsed;
        let rsd = r.result.max_relative_std().unwrap_or(f64::NAN);
        println!(
            "{:>6} {:>12} {:>12.1} {:>22.3}",
            r.batch,
            ms(acc),
            r.fraction * 100.0,
            rsd * 100.0
        );
    }
    let first_answer = reports[0].elapsed;
    println!(
        "first approximate answer after {} ms = {:.1}% of baseline latency",
        ms(first_answer),
        100.0 * ratio(first_answer, baseline.elapsed)
    );
}

/// Fig 7(b)/(c): per-query latency — baseline vs iOLAP full / @5% / @10%.
fn fig7bc(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 7(b): query latencies, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 7(c): query latencies, Conviva");
        conviva_workload(scale)
    };
    println!(
        "{:<6} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "query", "baseline", "iOLAP", "ratio", "iOLAP@5%", "iOLAP@10%"
    );
    for q in &w.queries {
        let baseline = w.run_baseline(q);
        let reports = w.run_iolap(q, scale.config());
        let total = total_latency(&reports);
        println!(
            "{:<6} {:>10}ms {:>10}ms {:>7.1}x {:>10}ms {:>10}ms",
            q.id,
            ms(baseline.elapsed),
            ms(total),
            ratio(total, baseline.elapsed),
            ms(latency_at_fraction(&reports, 0.05)),
            ms(latency_at_fraction(&reports, 0.10)),
        );
    }
}

/// Fig 8(a–d): per-batch latency ratio HDA / iOLAP.
fn fig8_ratio(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 8(a,b): HDA/iOLAP per-batch latency ratio, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 8(c,d): HDA/iOLAP per-batch latency ratio, Conviva");
        conviva_workload(scale)
    };
    for q in &w.queries {
        let iolap = w.run_iolap(q, scale.config());
        let hda = w.run_hda(q, scale.config());
        let ratios: Vec<String> = iolap
            .iter()
            .zip(hda.iter())
            .map(|(a, b)| format!("{:.2}", ratio(b.elapsed, a.elapsed)))
            .collect();
        println!(
            "{:<5} {:<6} batches 1..{}: [{}]",
            q.id,
            if q.nested { "nested" } else { "flat" },
            ratios.len(),
            ratios.join(", ")
        );
    }
}

/// Fig 8(e)/(f): tuples recomputed per batch by iOLAP, nested queries.
fn fig8_recomputed(scale: &ExpScale) {
    section("Fig 8(e): iOLAP tuples recomputed per batch, TPC-H nested");
    let t = tpch_workload(scale);
    for q in t.queries.iter().filter(|q| q.nested) {
        let reports = t.run_iolap(q, scale.config());
        let counts: Vec<String> = reports
            .iter()
            .map(|r| r.stats.recomputed_tuples.to_string())
            .collect();
        println!("{:<5} [{}]", q.id, counts.join(", "));
    }
    section("Fig 8(f): iOLAP tuples recomputed per batch, Conviva nested");
    let c = conviva_workload(scale);
    for q in c.queries.iter().filter(|q| q.nested) {
        let reports = c.run_iolap(q, scale.config());
        let counts: Vec<String> = reports
            .iter()
            .map(|r| r.stats.recomputed_tuples.to_string())
            .collect();
        println!("{:<5} [{}]", q.id, counts.join(", "));
    }
}

/// Fig 9(a): optimization breakdown on Conviva C2 — per-batch latency for
/// HDA vs OPT1-only vs OPT1+OPT2 (= iOLAP).
fn fig9a(scale: &ExpScale) {
    section("Fig 9(a): optimization breakdown, Conviva C2 (per-batch ms)");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "C2").unwrap().clone();
    let full = w.run_iolap(&q, scale.config());
    let opt1_only = w.run_iolap(&q, scale.config().optimizations(true, false));
    let hda = w.run_hda(&q, scale.config());
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "batch", "HDA", "OPT1", "OPT1+OPT2"
    );
    for i in 0..full.len() {
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            i,
            ms(hda[i].elapsed),
            ms(opt1_only[i].elapsed),
            ms(full[i].elapsed)
        );
    }
    let t = |r: &[iolap_core::BatchReport]| total_latency(r);
    println!(
        "totals: HDA {} ms | OPT1 {} ms ({:.0}% of HDA) | OPT1+OPT2 {} ms ({:.0}% of HDA)",
        ms(t(&hda)),
        ms(t(&opt1_only)),
        100.0 * ratio(t(&opt1_only), t(&hda)),
        ms(t(&full)),
        100.0 * ratio(t(&full), t(&hda)),
    );
}

/// Fig 9(b)/(c) and 10(c)/(d): state sizes and data shipped.
fn fig9bc(scale: &ExpScale, tpch: bool) {
    let w = if tpch {
        section("Fig 9(b): operator state sizes, TPC-H");
        tpch_workload(scale)
    } else {
        section("Fig 10(c): operator state sizes, Conviva");
        conviva_workload(scale)
    };
    println!(
        "{:<6} {:>16} {:>18} {:>18}",
        "query", "join state(KB)", "other state(KB)", "baseline data(KB)"
    );
    let mut shipped_rows = Vec::new();
    for q in &w.queries {
        let reports = w.run_iolap(q, scale.config());
        let max_join = reports
            .iter()
            .map(|r| r.state_bytes_join)
            .max()
            .unwrap_or(0);
        let max_other = reports
            .iter()
            .map(|r| r.state_bytes_other)
            .max()
            .unwrap_or(0);
        let baseline_bytes = w.catalog.get(q.stream_table).unwrap().approx_bytes();
        println!(
            "{:<6} {:>16.1} {:>18.1} {:>18.1}",
            q.id,
            max_join as f64 / 1024.0,
            max_other as f64 / 1024.0,
            baseline_bytes as f64 / 1024.0
        );
        let total_shipped: usize = reports.iter().map(|r| r.stats.shipped_bytes).sum();
        let per_batch = total_shipped / reports.len().max(1);
        shipped_rows.push((q.id, total_shipped, per_batch, baseline_bytes));
    }
    if tpch {
        section("Fig 9(c): data shipped at query time, TPC-H");
    } else {
        section("Fig 10(d): data shipped at query time, Conviva");
    }
    println!(
        "{:<6} {:>18} {:>20} {:>18}",
        "query", "iOLAP total(KB)", "iOLAP per-batch(KB)", "baseline(KB)"
    );
    for (id, total, per_batch, base) in shipped_rows {
        println!(
            "{:<6} {:>18.1} {:>20.1} {:>18.1}",
            id,
            total as f64 / 1024.0,
            per_batch as f64 / 1024.0,
            base as f64 / 1024.0
        );
    }
}

/// Fig 9(d)/(e) and 10(e)/(f): slack parameter vs failure-recovery
/// probability and vs non-deterministic-set size.
fn fig9de(scale: &ExpScale, tpch: bool) {
    let (w, ids): (Workload, Vec<&str>) = if tpch {
        section("Fig 10(e,f): slack sweeps, TPC-H nested queries");
        (
            tpch_workload(scale),
            vec!["Q11", "Q17", "Q18", "Q20", "Q22"],
        )
    } else {
        section("Fig 9(d,e): slack sweeps, Conviva nested queries");
        (
            conviva_workload(scale),
            vec!["C1", "C2", "C4", "C6", "C7", "C8", "C9", "C10"],
        )
    };
    let slacks = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];
    println!(
        "{:<6} {}",
        "query",
        slacks
            .iter()
            .map(|s| format!("{:>24}", format!("slack={s}")))
            .collect::<String>()
    );
    println!("{:<6}    (P(failure) % | avg recomputed/batch)", "");
    for id in ids {
        let q = w.queries.iter().find(|q| q.id == id).unwrap().clone();
        let mut cells = Vec::new();
        for s in slacks {
            let cfg = IolapConfig {
                slack: s,
                ..scale.config()
            };
            let reports = w.run_iolap(&q, cfg);
            let failures = reports.iter().filter(|r| r.recovered).count();
            let p_fail = failures as f64 / reports.len() as f64 * 100.0;
            let avg_recomputed: f64 = reports
                .iter()
                .map(|r| r.stats.recomputed_tuples as f64)
                .sum::<f64>()
                / reports.len() as f64;
            cells.push(format!("{:>11.0}% | {:>8.0}", p_fail, avg_recomputed));
        }
        println!("{:<6} {}", q.id, cells.join(" "));
    }
}

/// Fig 9(f)/(g): batch size vs per-batch latency and vs total latency.
fn fig9fg(scale: &ExpScale) {
    section("Fig 9(f,g): batch size sweeps, Conviva");
    let w = conviva_workload(scale);
    let batch_counts = [30, 24, 20, 16, 12]; // increasing batch *size*
    let total_rows = w.catalog.get("sessions").unwrap().len();
    println!(
        "{:<6} {}",
        "query",
        batch_counts
            .iter()
            .map(|b| format!("{:>26}", format!("~{} rows/batch", total_rows / b)))
            .collect::<String>()
    );
    println!("{:<6}    (avg batch ms | total ms)", "");
    for q in &w.queries {
        let mut cells = Vec::new();
        for b in batch_counts {
            let cfg = IolapConfig {
                num_batches: b,
                ..scale.config()
            };
            let reports = w.run_iolap(q, cfg);
            let total = total_latency(&reports);
            let avg = total / reports.len() as u32;
            cells.push(format!("{:>11} | {:>10}", ms(avg), ms(total)));
        }
        println!("{:<6} {}", q.id, cells.join(" "));
    }
}

/// Fig 10(a)/(b): iOLAP vs HDA latencies at full / 5% / 10% data.
fn fig10ab(scale: &ExpScale) {
    for (tpch, label) in [(true, "Fig 10(a): TPC-H"), (false, "Fig 10(b): Conviva")] {
        section(&format!("{label}: iOLAP vs HDA latencies"));
        let w = if tpch {
            tpch_workload(scale)
        } else {
            conviva_workload(scale)
        };
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "query", "iOLAP", "iOLAP@5%", "iOLAP@10%", "HDA", "HDA@5%", "HDA@10%"
        );
        for q in &w.queries {
            let iolap = w.run_iolap(q, scale.config());
            let hda = w.run_hda(q, scale.config());
            println!(
                "{:<6} {:>10}ms {:>10}ms {:>10}ms {:>10}ms {:>10}ms {:>10}ms",
                q.id,
                ms(total_latency(&iolap)),
                ms(latency_at_fraction(&iolap, 0.05)),
                ms(latency_at_fraction(&iolap, 0.10)),
                ms(total_latency(&hda)),
                ms(latency_at_fraction(&hda, 0.05)),
                ms(latency_at_fraction(&hda, 0.10)),
            );
        }
    }
}

/// Extension (not in the paper): bootstrap trial-count sweep. More trials
/// buy smoother error estimates and tighter variation ranges at a
/// CPU-proportional cost — the knob behind the "known deviations" note in
/// EXPERIMENTS.md.
fn trials_sweep(scale: &ExpScale) {
    section("Extension: bootstrap trial-count sweep, Conviva SBI");
    let w = conviva_workload(scale);
    let q = w.queries.iter().find(|q| q.id == "SBI").unwrap().clone();
    println!(
        "{:>8} {:>14} {:>22} {:>18}",
        "trials", "total (ms)", "first-batch rsd (%)", "final recomputed"
    );
    for trials in [10usize, 25, 50, 100, 200] {
        let cfg = IolapConfig {
            trials,
            ..scale.config()
        };
        let reports = w.run_iolap(&q, cfg);
        let rsd = reports[0]
            .result
            .max_relative_std()
            .map(|x| x * 100.0)
            .unwrap_or(f64::NAN);
        println!(
            "{:>8} {:>14} {:>22.3} {:>18}",
            trials,
            ms(total_latency(&reports)),
            rsd,
            reports.last().unwrap().stats.recomputed_tuples
        );
    }
}

/// Extension (not in the paper): per-operator metrics breakdown for one
/// representative nested query per workload, summed over all batches —
/// where each query's time and traffic actually go. Runs with the journal
/// armed so the rollup line reports *exclusive* span self-time from the
/// trace tree (a plain sum of the `*_ns` metrics double-counts nested spans).
fn metrics_breakdown(scale: &ExpScale) {
    for (w, id) in [
        (tpch_workload(scale), "Q11"),
        (conviva_workload(scale), "SBI"),
    ] {
        section(&format!(
            "Per-operator metrics, {} {id} (all batches)",
            w.name
        ));
        let q = w.queries.iter().find(|q| q.id == id).unwrap().clone();
        let (reports, _events, cumulative) = w.run_iolap_traced(&q, scale.config());
        print!("{cumulative}");
        let recovered = reports.iter().filter(|r| r.recovered).count();
        let self_time_ns: u64 = reports
            .iter()
            .flat_map(|r| r.self_time_ns.iter())
            .map(|(_, ns)| ns)
            .sum();
        println!(
            "batches: {} | recoveries: {} | traced self-time total: {:.2} ms",
            reports.len(),
            recovered,
            self_time_ns as f64 / 1e6
        );
    }
}
