//! End-to-end benchmark of the EasyBO workspace: two paper cells on the
//! in-process virtual executor and a session fleet behind the TCP
//! service, each timed as a whole and, in a separate traced run, layer
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload opamp_b15 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give every metric with its unit and sample count. See README.md for
//! the metric definitions.

mod calib;
mod cell;
mod clock;
mod layers;
mod probe;
mod report;
mod service;
mod stats;

use std::process::{Command, ExitCode};

use easybo_bench::{class_e_blackbox, opamp_blackbox};
use easybo_exec::BlackBox;

use crate::cell::Cell;

/// Set-ups per cell run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 25;

/// Set on the child process that runs the fleet pinned to one CPU.
const PINNED_ENV: &str = "E2EBENCH_PINNED_CPU";

/// The seed of the `i`-th run derived from the benchmark seed.
pub fn pass_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// How many repetitions of about `per_rep_s` each a run of `seconds`
/// holds, at least one. The count depends only on `--seconds`, so both
/// sides of a comparison time the same seeds.
pub fn repetitions(seconds: f64, per_rep_s: f64) -> u64 {
    ((seconds / per_rep_s).round() as u64).max(1)
}

/// First CPU this process may run on (`Cpus_allowed_list`).
fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Re-runs this benchmark under `taskset`, pinned to one CPU, and
/// returns its exit code; `None` when pinning is unavailable.
///
/// The fleet generator and the server's connection threads hand every
/// request back and forth in lockstep. Left to the scheduler, they land
/// on the same CPU in some runs and on different CPUs in others, and a
/// cross-CPU wake-up (a hypervisor round trip on a VM) makes a whole run
/// about 1.6x slower; pinning measures the service's own path.
fn run_pinned() -> Option<ExitCode> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = first_allowed_cpu()?.to_string();
    let pinnable = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .status()
        .is_ok_and(|s| s.success());
    if !pinnable {
        return None;
    }
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, &cpu)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn opamp() -> Box<dyn BlackBox> {
    Box::new(opamp_blackbox())
}

fn class_e() -> Box<dyn BlackBox> {
    Box::new(class_e_blackbox())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
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
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <opamp_b15|class_e_b15|service_doe> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cell = match args.workload.as_str() {
        "opamp_b15" => Some(Cell {
            make_bb: opamp,
            max_evals: 150,
            nominal_s: 2.7,
        }),
        "class_e_b15" => Some(Cell {
            make_bb: class_e,
            max_evals: 450,
            nominal_s: 33.0,
        }),
        "service_doe" => {
            if let Some(code) = run_pinned() {
                return code;
            }
            None
        }
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let report = match (cell, args.trace) {
        (Some(cell), false) => cell::run_untraced(&cell, args.seed, args.seconds),
        (Some(cell), true) => cell::run_traced(&cell, args.seed, args.seconds),
        (None, false) => service::run_untraced(args.seed, args.seconds),
        (None, true) => service::run_traced(args.seed, args.seconds),
    };
    if let Some(cpu) = std::env::var_os(PINNED_ENV) {
        println!("# pinned to CPU {}", cpu.to_string_lossy());
    }
    report.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
