//! The repository benchmark: the conformance campaigns and the incremental
//! design-space exploration, measured end to end and split by layer.  See
//! `README.md` for the workloads, the metrics and how to compare two results
//! files.

mod campaign;
mod compare;
mod dse;
mod json;
mod run;
mod stats;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use wnoc_conformance::CampaignDimension;

use crate::campaign::CampaignBench;
use crate::dse::DseBench;
use crate::json::quote;
use crate::run::{measure, Measurement, Workload};
use crate::stats::{samples_beyond, tail_percentile};

const USAGE: &str = "usage: wnoc-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]\n       wnoc-benchmark --compare BEFORE.json AFTER.json";

/// Every workload, in the order a full run measures them.
const WORKLOADS: [&str; 4] = [
    "campaign-core",
    "campaign-vc",
    "campaign-bursty",
    "dse-banked",
];

/// The workload `name` at its benchmark size.
fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "campaign-core" => Box::new(CampaignBench::new(CampaignDimension::Core, seed, 1000, 4)),
        "campaign-vc" => Box::new(CampaignBench::new(
            CampaignDimension::VcSweep,
            seed,
            1000,
            4,
        )),
        "campaign-bursty" => Box::new(CampaignBench::new(
            CampaignDimension::BurstySweep,
            seed,
            4000,
            1,
        )),
        "dse-banked" => Box::new(DseBench::new(seed, 4, 25_000)),
        _ => return None,
    })
}

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 7,
        // `run_seconds` of BENCHMARK.json.
        seconds: 25.0,
        trace: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--compare" => options.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match (&options.compare, &options.workload) {
        (Some((before, after)), _) => compare_files(before, after),
        (None, Some(name)) => run_one(name, &options),
        (None, None) => run_all(&options),
    };
    std::process::exit(code);
}

fn metrics_json(m: &Measurement) -> String {
    m.metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn record_path(dir: &Path, name: &str, trace: bool) -> PathBuf {
    dir.join(format!("{name}-trace{}.json", u8::from(trace)))
}

/// Measures one workload, prints `workload metric value unit` lines and, as
/// the last line, the JSON summary.  Exits non-zero when an output check
/// failed.
fn run_one(name: &str, options: &Options) -> i32 {
    let Some(mut bench) = workload(name, options.seed) else {
        eprintln!("unknown workload {name}; one of {}", WORKLOADS.join(", "));
        return 2;
    };
    let m = match measure(bench.as_mut(), options.seconds, options.trace) {
        Ok(m) => m,
        Err(error) => {
            eprintln!("{name}: {error}");
            return 1;
        }
    };
    println!(
        "{name}: seed {}, {} units per rep, {} timed and {} traced reps, fastest timed rep {} s",
        options.seed, m.units, m.reps, m.traced_reps, m.fastest_rep_s
    );
    if !options.trace {
        println!(
            "{name}: unit latency is each unit's fastest timed rep; over {} units, \
             p99 {} us with {} units beyond it (unbounded; the highest percentile with \
             ten beyond is p{})",
            m.units,
            m.unit_p99_us,
            samples_beyond(m.units, 99.0),
            tail_percentile(m.units).map_or("-".to_string(), |p| p.to_string())
        );
    }
    if let Some(digest) = m.digest {
        println!("{name}: output digest {digest:016x}, identical in every rep");
    }
    for (metric, value, unit) in &m.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    for problem in &m.problems {
        eprintln!("{name}: output check failed: {problem}");
    }
    let mut code = i32::from(!m.correct());
    if let Some(dir) = &options.out {
        let digest = m
            .digest
            .map_or("null".to_string(), |d| quote(&format!("{d:016x}")));
        let record = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"units\":{},\"reps\":{},\
             \"traced_reps\":{},\"digest\":{digest},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"metrics\":{{{}}}}}\n",
            quote(name),
            options.seed,
            u8::from(options.trace),
            m.units,
            m.reps,
            m.traced_reps,
            m.correct(),
            m.attempted,
            m.failed,
            metrics_json(&m)
        );
        let mut written = fs::create_dir_all(dir)
            .and_then(|()| fs::write(record_path(dir, name, options.trace), record));
        if let Some(spans) = &m.trace_jsonl {
            written =
                written.and_then(|()| fs::write(dir.join(format!("trace-{name}.jsonl")), spans));
        }
        if let Err(error) = written {
            eprintln!("{name}: cannot write results to {}: {error}", dir.display());
            code = 1;
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.correct(),
        m.attempted,
        m.failed,
        metrics_json(&m)
    );
    code
}

/// Measures every workload, untraced and then traced, each in a fresh
/// process so its peak RSS is its own, and collects the runs into
/// `results.json`.
fn run_all(options: &Options) -> i32 {
    let dir = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/benchmark"));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot locate this executable: {error}");
            return 1;
        }
    };
    let mut code = 0;
    let mut runs = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let path = record_path(&dir, name, trace);
            let _ = fs::remove_file(&path);
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .arg("--out")
                .arg(&dir)
                .status();
            match status {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{name}: run exited with {status}");
                    code = 1;
                }
                Err(error) => {
                    eprintln!("{name}: cannot start a run: {error}");
                    return 1;
                }
            }
            match fs::read_to_string(&path) {
                Ok(record) => runs.push(record.trim().to_string()),
                Err(error) => {
                    eprintln!("{name}: no results at {}: {error}", path.display());
                    code = 1;
                }
            }
        }
    }
    let results = dir.join("results.json");
    let text = format!(
        "{{\"seed\":{},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
        options.seed,
        options.seconds,
        runs.join(",\n")
    );
    match fs::write(&results, text) {
        Ok(()) => println!("results: {}", results.display()),
        Err(error) => {
            eprintln!("cannot write {}: {error}", results.display());
            code = 1;
        }
    }
    code
}

/// Compares two `results.json` files under the bounds of the
/// `BENCHMARK.json` in the working directory.
fn compare_files(before: &str, after: &str) -> i32 {
    let load = |path: &str| {
        fs::read_to_string(path)
            .map_err(|error| format!("cannot read {path}: {error}"))
            .and_then(|text| json::parse(&text).map_err(|error| format!("{path}: {error}")))
    };
    let loaded = load("BENCHMARK.json").and_then(|spec| {
        let bounds = compare::bounds(&spec)?;
        Ok((bounds, load(before)?, load(after)?))
    });
    let (bounds, before, after) = match loaded {
        Ok(loaded) => loaded,
        Err(error) => {
            eprintln!("{error}");
            return 2;
        }
    };
    let (lines, ok) = compare::compare(&bounds, &before, &after);
    for line in lines {
        println!("{line}");
    }
    println!(
        "{}",
        if ok {
            "compare: every metric within its bound"
        } else {
            "compare: FAILED"
        }
    );
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|metric| {
                let field = |k| {
                    metric
                        .get(k)
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let names: Vec<String> = spec()
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert!(WORKLOADS.iter().all(|name| workload(name, 7).is_some()));
    }

    #[test]
    fn tiny_runs_emit_every_listed_metric() {
        let spec = spec();
        let tiny: Vec<Box<dyn Workload>> = vec![
            Box::new(CampaignBench::new(CampaignDimension::Core, 7, 5, 4)),
            Box::new(CampaignBench::new(CampaignDimension::VcSweep, 7, 5, 4)),
            Box::new(CampaignBench::new(CampaignDimension::BurstySweep, 7, 5, 1)),
            Box::new(DseBench::new(7, 2, 100)),
        ];
        for mut bench in tiny {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let m = measure(bench.as_mut(), 0.0, trace).expect("tiny run");
                assert!(m.correct(), "{:?}", m.problems);
                assert_eq!(m.failed, 0);
                assert!(m.metrics.iter().all(|(_, value, _)| value.is_finite()));
                let emitted: Vec<(String, String)> = m
                    .metrics
                    .iter()
                    .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                    .collect();
                assert_eq!(emitted, listed(&spec, key));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_junk() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let options = parse("--workload dse-banked --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(options.workload.as_deref(), Some("dse-banked"));
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (3, 10.0, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }
}
