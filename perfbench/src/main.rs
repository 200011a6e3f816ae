//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <lab_full|swarm_monitored|swarm_large> --seed N --seconds S --trace <0|1>
//! perfbench --pins    # print freshly computed output hashes for src/pins.rs
//! ```
//!
//! The last stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`. Untraced (`--trace 0`) it carries the end-to-end metrics of
//! the chosen workload, measured with no instrumentation beyond timers
//! around slices of work (a lab cell, a run of swarm events). Traced (`--trace 1`) it carries every
//! per-layer metric; each is measured on the workload the layer map in
//! `perfbench/README.md` assigns it to, so the traced run is the same for
//! every `--workload`. All layers are measured from outside, through public
//! APIs: timing wrappers handed in through `SimulationBuilder`, bare-engine
//! replicas, and monitor ablations with the builder's own knobs.

mod lab;
mod metrics;
mod pins;
mod swarm;
mod wrap;

use metrics::{median, Deadline, RunResult};
use std::process::ExitCode;

/// Per-layer samples of one traced repetition, in print order. Exact
/// entries are work counts that must repeat bit for bit between
/// repetitions; the others are timings, reported as medians.
#[derive(Debug, Default)]
pub struct Layers {
    entries: Vec<(String, f64, &'static str, bool)>,
}

impl Layers {
    pub fn time(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit, false));
    }

    pub fn exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit, true));
    }
}

/// Traced repetitions per run, at least: two, so the work counts can be
/// checked to repeat exactly.
const MIN_TRACED_REPS: usize = 2;

fn traced(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let grids = lab::grids();
    let mut reps: Vec<Layers> = Vec::new();
    let mut deadline = Deadline::new(seconds, MIN_TRACED_REPS);
    while deadline.next() {
        let mut layers = Layers::default();
        lab::layers(&grids, &mut result, &mut layers);
        swarm::monitored_layers(seed, &mut result, &mut layers);
        swarm::large_layers(seed, &mut result, &mut layers);
        reps.push(layers);
    }
    let first = &reps[0].entries;
    let mut repeated = Ok(());
    for (i, (name, value, unit, exact)) in first.iter().enumerate() {
        let samples: Vec<f64> = reps.iter().map(|r| r.entries[i].1).collect();
        if *exact {
            if samples.iter().any(|s| s.to_bits() != value.to_bits()) {
                repeated = Err(format!("{name} differs between repetitions: {samples:?}"));
            }
            result.push(name.clone(), *value, unit);
        } else {
            result.push(name.clone(), median(&samples), unit);
        }
    }
    result.check("work counts repeat exactly", repeated);
    result
}

/// This process's resident-set high-water mark (`VmHWM`). One process runs
/// one workload, so the mark is that workload's own; the parent's rusage
/// would not do, since Linux carries the pre-`exec` image's peak into it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (swarm::DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["lab_full", "swarm_monitored", "swarm_large"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pins") {
        println!("LAB_ROWS:");
        lab::pin_lines().iter().for_each(|l| println!("{l}"));
        println!("SWARM_REPORTS:");
        swarm::pin_lines().iter().for_each(|l| println!("{l}"));
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(args.seed, args.seconds)
    } else {
        let mut result = match args.workload.as_str() {
            "lab_full" => lab::run(args.seconds),
            "swarm_monitored" => swarm::run(&swarm::MONITORED, args.seed, args.seconds),
            _ => swarm::run(&swarm::LARGE, args.seed, args.seconds),
        };
        result.push("peak_rss_mb", peak_rss_mb(), "MB");
        result
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
