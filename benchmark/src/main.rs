//! `benchmark`: run one workload (the benchmark contract), all of them,
//! the smoke check, `compare` or `calibrate`. See `README.md`.

use iolap_benchmark::compare::{compare_sets, read_result_set};
use iolap_benchmark::record::result_json;
use iolap_benchmark::run::{run, Args};
use iolap_benchmark::suite;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--scale smoke]
  benchmark --seed <u64> [--seconds <s>] [--out <file>]     all six workloads, untraced then traced
  benchmark --smoke                                         all six at tiny scale
  benchmark compare <A.jsonl> <B.jsonl>
  benchmark calibrate [--sets <k>] [--seed <u64>] [--seconds <s>]
  benchmark vet [--scale smoke]                             does the seed pool still answer exactly?";

/// Where span files, result sets and scratch data go.
const OUT_DIR: &str = "benchmark/out";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn main_inner(args: &[String]) -> Result<ExitCode, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.to_string());
            };
            let decl = suite::declaration()?;
            let regressed = compare_sets(
                &decl,
                &read_result_set(Path::new(a))?,
                &read_result_set(Path::new(b))?,
            )?;
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("calibrate") => {
            let decl = suite::declaration()?;
            let sets: usize = parsed(args, "--sets", 3)?;
            if sets < 3 {
                return Err("calibrate needs at least 3 sets".to_string());
            }
            let seconds = parsed(args, "--seconds", decl.run_seconds)?;
            let steady =
                suite::calibrate(&decl, sets, parsed(args, "--seed", 1)?, seconds, &out_dir)?;
            Ok(if steady {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("vet") => {
            let exact = suite::vet(flag(args, "--scale") == Some("smoke"));
            Ok(if exact {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("--smoke") => {
            suite::run_all(
                parsed(args, "--seed", 1)?,
                0.5,
                true,
                &out_dir.join("smoke.jsonl"),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some(_) if flag(args, "--workload").is_some() => {
            let run_args = Args {
                workload: flag(args, "--workload").unwrap_or_default().to_string(),
                seed: parsed(args, "--seed", 1)?,
                seconds: parsed(args, "--seconds", 10.0)?,
                trace: parsed::<u8>(args, "--trace", 0)? != 0,
                smoke: flag(args, "--scale") == Some("smoke"),
                out_dir,
            };
            let outcome = run(&run_args)?;
            for m in &outcome.metrics {
                println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
            }
            println!(
                "{}",
                result_json(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(_) if flag(args, "--seed").is_some() => {
            let seed: u64 = parsed(args, "--seed", 1)?;
            let seconds = parsed(args, "--seconds", suite::declaration()?.run_seconds)?;
            let default_out = out_dir.join(format!("result-{seed}.jsonl"));
            let out = flag(args, "--out").map_or(default_out, PathBuf::from);
            suite::run_all(seed, seconds, false, &out)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
