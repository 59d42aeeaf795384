//! The nested-words suite benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates its inputs from the seed, measures the workload for the given
//! time, checks every verdict against a reference evaluator, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`). The
//! line before it holds the run's metadata. A traced run also writes its
//! spans to `.bench_traces/<workload>-seed<n>.tsv`. See `README.md` for the
//! workloads and metric definitions.

mod corpus;
mod report;
mod service;
mod stats;
mod stream;
mod trace;

use report::Report;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: &[&str] = &[
    "stream_single",
    "stream_multi16",
    "stream_nondet",
    "service_mix",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The process's resident high-water mark in MiB, from `VmHWM`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Writes a traced run's spans under `.bench_traces/` in the working
/// directory.
pub fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let dir = std::path::Path::new(".bench_traces");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    };
    write().unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.meta_str("workload", &args.workload);
    report.meta_num("seed", args.seed as f64);
    report.meta_num("seconds", args.seconds);
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.meta_num("available_parallelism", parallelism as f64);
    match args.workload.as_str() {
        "stream_single" => stream::run(stream::Kind::Single, &args, &mut report),
        "stream_multi16" => stream::run(stream::Kind::Multi16, &args, &mut report),
        "stream_nondet" => stream::run(stream::Kind::Nondet, &args, &mut report),
        "service_mix" => service::run(&args, &mut report),
        _ => unreachable!("workload validated by parse"),
    }
    let rss = peak_rss_mib();
    report.meta_num("peak_rss_mib", rss);
    if !args.trace {
        report.metric("peak_rss_mib", rss);
    }
    println!("{}", report.meta_line());
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload service_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service_mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload service_mix --seed x").is_err());
        assert!(args("--workload service_mix --seed 1 --trace 2").is_err());
        assert!(args("--workload service_mix").is_err());
    }
}
