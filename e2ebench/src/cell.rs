//! Paper-cell workloads: one EasyBO B=15 optimization on the in-process
//! virtual executor, driven through the public executor and policy API.

use std::time::{Duration, Instant};

use easybo::policies::{AcqOptConfig, EasyBoAsyncPolicy};
use easybo::{Algorithm, RunSetup, SurrogateConfig, Telemetry, DEFAULT_LAMBDA};
use easybo_exec::{BlackBox, RetryPolicy, RunResult, VirtualExecutor};
use easybo_opt::{sampling, Bounds, Parallelism};
use rand::{rngs::StdRng, SeedableRng};

use crate::layers::{LayerSums, PER_LAYER};
use crate::calib::{program_cpu, slowdown, COMPUTE_NOMINAL_MS};
use crate::probe::{EvalStamp, SpanClock, SpanProfile, TimedBox, TimedPolicy};
use crate::report::Report;
use crate::stats::{mean, median, ms, percentile, range, ratio, us};
use crate::{pass_seed, peak_rss_mb, repetitions, SETUP_REPS};

/// Virtual simulator workers (the paper's batch size B).
const BATCH: usize = 15;
/// Latin-hypercube initial design size.
const N_INIT: usize = 20;
/// Worker threads for GP training and acquisition. Results are
/// bit-identical at any setting, timings are not: with more than one,
/// every parallel section spawns threads and waits on the slowest, and
/// on a small shared host that measures the scheduler. One thread keeps
/// the whole optimization on the calling thread.
const THREADS: usize = 1;
/// Policy proposals in the warm-up run that set-up ends with.
const WARMUP_PROPOSALS: usize = 10;

pub struct Cell {
    pub make_bb: fn() -> Box<dyn BlackBox>,
    /// Evaluation budget, including the initial design.
    pub max_evals: usize,
    /// Typical time of one optimization (one thread, x86-64 VM); sets
    /// how many optimizations a run of `--seconds` holds.
    pub nominal_s: f64,
}

/// The initial design `Algorithm::run_with` draws for `seed`.
fn initial_design(bounds: &Bounds, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    sampling::latin_hypercube(bounds, N_INIT, &mut rng)
}

/// The EasyBO policy exactly as `Algorithm::EasyBo.async_policy` builds
/// it, with telemetry attached (the registry does not attach any).
fn easybo_policy(bounds: &Bounds, seed: u64, telemetry: &Telemetry) -> EasyBoAsyncPolicy {
    let parallelism = Parallelism::new(THREADS);
    let mut policy = EasyBoAsyncPolicy::with_configs(
        bounds.clone(),
        true,
        DEFAULT_LAMBDA,
        seed,
        SurrogateConfig {
            parallelism,
            ..SurrogateConfig::default()
        },
        AcqOptConfig {
            parallelism,
            ..AcqOptConfig::for_dim(bounds.dim())
        },
    );
    policy.set_telemetry(telemetry.clone());
    policy
}

/// One optimization run with per-proposal and per-evaluation timings.
struct Pass {
    result: RunResult,
    init: Vec<Vec<f64>>,
    wall: Duration,
    /// Program CPU time of the whole optimization.
    cpu: Duration,
    /// Wall time of each `select_next`.
    proposals: Vec<Duration>,
    /// Program CPU time of each `select_next`.
    proposals_cpu: Vec<Duration>,
    /// Host-speed reference samples, one per proposal when calibrating.
    refs: Vec<Duration>,
    /// Each evaluation's stamp, in dispatch order.
    evals: Vec<EvalStamp>,
}

impl Pass {
    /// CPU time from one evaluation's end to the next one's end, for
    /// every dispatch after the initial worker fill: fold the finished
    /// result, propose, evaluate.
    fn cycles_cpu(&self) -> impl Iterator<Item = Duration> + '_ {
        self.evals
            .windows(2)
            .skip(BATCH - 1)
            .map(|w| w[1].cpu_end - w[0].cpu_end)
    }
}

fn run_pass(
    bb: &dyn BlackBox,
    max_evals: usize,
    seed: u64,
    telemetry: &Telemetry,
    calibrate: bool,
) -> Pass {
    let init = initial_design(bb.bounds(), seed);
    let mut policy = easybo_policy(bb.bounds(), seed, telemetry);
    let mut timed = TimedPolicy::new(&mut policy, calibrate);
    let timed_bb = TimedBox::new(bb);
    let exec = VirtualExecutor::new(BATCH);
    let (t0, c0) = (Instant::now(), program_cpu());
    let result = exec.run_async_resilient(
        &timed_bb,
        &init,
        max_evals,
        &mut timed,
        &RetryPolicy::none(),
        telemetry,
    );
    let cpu = program_cpu() - c0;
    let wall = t0.elapsed();
    Pass {
        result,
        init,
        wall,
        cpu,
        proposals: timed.samples,
        proposals_cpu: timed.cpu,
        refs: timed.refs,
        evals: timed_bb.calls(),
    }
}

/// The untraced registry run the traced pass must reproduce byte for byte.
fn registry_run(bb: &dyn BlackBox, max_evals: usize, seed: u64) -> (RunResult, Duration) {
    let mut setup = RunSetup::new(BATCH, max_evals, N_INIT, 0, seed);
    setup.parallelism = Parallelism::new(THREADS);
    let t0 = Instant::now();
    let result = Algorithm::EasyBo.run_with(bb, &setup);
    (result, t0.elapsed())
}

/// Builds the black box and runs a short warm-up optimization, so that
/// first-run costs land in set-up rather than in the timed passes.
/// Returns the black box and the set-up's program CPU time.
fn set_up(cell: &Cell, seed: u64) -> (Box<dyn BlackBox>, Duration) {
    let c0 = program_cpu();
    let bb = (cell.make_bb)();
    run_pass(
        bb.as_ref(),
        N_INIT + WARMUP_PROPOSALS,
        seed,
        &Telemetry::disabled(),
        false,
    );
    (bb, program_cpu() - c0)
}

/// Checks a run's outputs against the black box it optimized: the
/// budget was spent, every point is in bounds and carries the value the
/// black box gives for it, the initial design was evaluated, the trace
/// is the running best of the data, and no worker ran two jobs at once.
fn check_outputs(report: &mut Report, bb: &dyn BlackBox, pass: &Pass, max_evals: usize) {
    let r = &pass.result;
    let failed_spans = r.schedule.spans().iter().filter(|s| s.failed).count() as u64;
    report.count(max_evals as u64, failed_spans, || {
        format!("{failed_spans} evaluations failed")
    });
    report.check(
        r.data.len() == max_evals && r.trace.len() == max_evals,
        || format!("{} observations for a budget of {max_evals}", r.data.len()),
    );
    let values_ok =
        r.data.xs().iter().zip(r.data.ys()).all(|(x, &y)| {
            bb.bounds().contains(x) && bb.evaluate(x).value.to_bits() == y.to_bits()
        });
    report.check(values_ok, || {
        "an observation is out of bounds or differs from the black box".into()
    });
    let init_ok = pass.init.iter().all(|p| r.data.xs().contains(p));
    report.check(init_ok, || {
        "an initial-design point was never evaluated".into()
    });
    let mut best = f64::NEG_INFINITY;
    let trace_ok = r.trace.points().iter().zip(r.data.ys()).all(|(p, &y)| {
        best = best.max(y);
        p.value.to_bits() == y.to_bits() && p.best_so_far.to_bits() == best.to_bits()
    });
    report.check(trace_ok, || {
        "trace is not the running best of the data".into()
    });
    let overlap = (0..r.schedule.workers()).any(|w| {
        let mut spans = r.schedule.worker_spans(w);
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        spans.windows(2).any(|p| p[1].start < p[0].end)
    });
    report.check(!overlap, || "a worker ran two evaluations at once".into());
}

/// Untraced end-to-end run (`--trace 0`).
pub fn run_untraced(cell: &Cell, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let set_ups: Vec<_> = (0..SETUP_REPS)
        .map(|rep| set_up(cell, pass_seed(seed, 900 + rep)))
        .collect();
    let setups: Vec<f64> = set_ups.iter().map(|(_, t)| t.as_secs_f64()).collect();
    let bb = set_ups[0].0.as_ref();

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut proposals_wall = Vec::new();
    let mut proposals = Vec::new();
    let mut cycles = Vec::new();
    let mut best = Vec::new();
    let mut sim_time = Vec::new();
    let mut refs = Vec::new();
    for i in 0..repetitions(seconds, cell.nominal_s) {
        let pass = run_pass(
            bb,
            cell.max_evals,
            pass_seed(seed, i),
            &Telemetry::disabled(),
            true,
        );
        check_outputs(&mut report, bb, &pass, cell.max_evals);
        walls.push(pass.wall.as_secs_f64());
        cpus.push(pass.cpu.as_secs_f64());
        proposals_wall.extend(pass.proposals.iter().map(|&d| ms(d)));
        proposals.extend(pass.proposals_cpu.iter().map(|&d| ms(d)));
        cycles.extend(pass.cycles_cpu().map(us));
        best.push(pass.result.best_value());
        sim_time.push(pass.result.total_time());
        refs.extend(pass.refs.iter().map(|&d| ms(d)));
    }

    // Timings at the reference speed (see `calib`).
    let slow = slowdown(&refs, COMPUTE_NOMINAL_MS);
    let passes = walls.len();
    report.add(
        "setup_s",
        median(&setups) / slow,
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    report.add(
        "cpu_s",
        median(&cpus) / slow,
        "s",
        format!("median of {passes} runs"),
    );
    let n = proposals.len();
    report.add(
        "propose_cpu_ms_p50",
        percentile(&proposals, 50.0) / slow,
        "ms",
        format!("{n} proposals"),
    );
    let n = cycles.len();
    report.add(
        "cycle_cpu_us_p50",
        percentile(&cycles, 50.0) / slow,
        "us",
        format!("{n} cycles"),
    );
    report.add(
        "cycle_cpu_us_p99",
        percentile(&cycles, 99.0) / slow,
        "us",
        format!("{n} cycles"),
    );
    report.add(
        "best_fom",
        mean(&best),
        "fom",
        format!("mean of {passes} runs"),
    );
    report.add(
        "sim_time_s",
        mean(&sim_time),
        "s",
        format!("mean of {passes} runs"),
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process".into());
    report.notes.push(format!(
        "host slowdown {slow:.4}: reference sample median {:.4} ms over {} samples, \
         nominal {COMPUTE_NOMINAL_MS} ms",
        median(&refs),
        refs.len(),
    ));
    report.notes.push(format!(
        "raw CPU clock: setup_s {:.5}, cpu_s {:.4} ({}), propose_cpu_ms_p50 {:.4}, \
         propose_cpu_ms_p90 {:.4}",
        median(&setups),
        median(&cpus),
        range(&cpus),
        percentile(&proposals, 50.0),
        percentile(&proposals, 90.0),
    ));
    report.notes.push(format!(
        "wall clock (reference samples included): wall_s {:.4} ({}), propose_ms_p50 {:.4}, \
         propose_ms_p90 {:.4}",
        median(&walls),
        range(&walls),
        percentile(&proposals_wall, 50.0),
        percentile(&proposals_wall, 90.0),
    ));
    report
}

/// Traced run (`--trace 1`): layer timings from the span events, with
/// each traced pass compared to the untraced registry run of its seed.
pub fn run_traced(cell: &Cell, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (bb, _) = set_up(cell, pass_seed(seed, 900));
    let bb = bb.as_ref();

    let mut sums = LayerSums::default();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    // Each step runs the optimization twice: traced, then untraced.
    for i in 0..repetitions(seconds, 2.0 * cell.nominal_s) {
        let seed = pass_seed(seed, i);
        let telemetry = Telemetry::new();
        let clock = SpanClock::default();
        telemetry.add_sink(clock.clone());
        let pass = run_pass(bb, cell.max_evals, seed, &telemetry, false);
        let (baseline, untraced_wall) = registry_run(bb, cell.max_evals, seed);
        check_outputs(&mut report, bb, &pass, cell.max_evals);
        report.check(
            pass.result.trace.to_csv() == baseline.trace.to_csv()
                && pass.result.data == baseline.data,
            || format!("traced run of seed {seed} differs from the registry run"),
        );
        traced_walls.push(pass.wall.as_secs_f64());
        untraced_walls.push(untraced_wall.as_secs_f64());

        let profile = SpanProfile::from_spans(&clock.take());
        let counters = telemetry
            .metrics_snapshot()
            .expect("enabled telemetry has metrics");
        let counter = |name: &str| counters.counter(name) as f64;
        let eval_time: Duration = pass.evals.iter().map(|e| e.end - e.start).sum();
        let propose_count = pass.proposals.len() as f64;
        let refits = profile.get("gp_refit").count as f64;
        let dispatch = profile.get("dispatch");

        sums.add("core.propose_count", propose_count);
        sums.add("core.propose_ms", ms(pass.proposals.iter().sum()));
        sums.add(
            "core.policy_self_ms",
            ms(profile.get("session_step").self_time),
        );
        sums.add("opt.acquisition_ms", ms(profile.get("acquisition").total));
        sums.add("opt.nm_refine_ms", ms(profile.get("nm_refine").total));
        sums.add("opt.acq_evals", counter("acq_evals"));
        sums.add(
            "opt.acq_evals_per_proposal",
            ratio(counter("acq_evals"), propose_count),
        );
        sums.add("opt.acq_restarts", counter("acq_restarts"));
        sums.add("gp.refit_count", refits);
        sums.add("gp.refit_ms", ms(profile.get("gp_refit").total));
        sums.add("gp.lbfgs_ms", ms(profile.get("lbfgs_restarts").total));
        sums.add("gp.nll_evals", counter("gp_nll_evals"));
        sums.add(
            "gp.nll_evals_per_refit",
            ratio(counter("gp_nll_evals"), refits),
        );
        sums.add("gp.kernel_evals", counter("gp_kernel_evals"));
        sums.add("gp.kernel_build_ms", ms(profile.get("kernel_build").total));
        sums.add(
            "gp.batch_predict_ms",
            ms(profile.get("batch_predict").total),
        );
        sums.add("linalg.cholesky_full_count", counter("cholesky_full"));
        sums.add("linalg.cholesky_ms", ms(profile.get("cholesky").total));
        sums.add("linalg.cholesky_update_count", counter("cholesky_update"));
        sums.add(
            "linalg.cholesky_update_ms",
            ms(profile.get("cholesky_update").total),
        );
        sums.add(
            "linalg.cholesky_downdate_count",
            counter("cholesky_downdate"),
        );
        sums.add(
            "linalg.cholesky_downdate_ms",
            ms(profile.get("cholesky_downdate").total),
        );
        sums.add("linalg.jitter_bumps", counter("cholesky_jitter_bumps"));
        sums.add(
            "exec.session_steps",
            profile.get("session_step").count as f64,
        );
        // The evaluation runs inside the dispatch span; its time belongs
        // to the circuits layer.
        sums.add(
            "exec.dispatch_ms",
            ms(dispatch.self_time.saturating_sub(eval_time)),
        );
        sums.add("exec.utilization", pass.result.schedule.utilization());
        sums.add("circuits.eval_count", pass.evals.len() as f64);
        sums.add("circuits.eval_ms", ms(eval_time));
        sums.add(
            "telemetry.attributed_frac",
            profile.roots.as_secs_f64() / pass.wall.as_secs_f64(),
        );
        sums.passes += 1;
    }

    let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
    sums.set("telemetry.tracing_overhead_frac", overhead);
    let attributed = sums.mean("telemetry.attributed_frac");
    report.check(attributed >= 0.95, || {
        format!("trace attributes only {attributed:.3} of wall time (< 0.95)")
    });
    sums.report_into(&mut report, PER_LAYER);
    report
}
