//! Service workload: a fleet of op-amp sessions behind a loopback
//! `ServiceServer`, driven by one generator thread over a worker
//! connection (ask → evaluate → tell) and an admin connection that
//! checkpoints a session on a fixed cadence.

use std::time::{Duration, Instant};

use easybo::{Algorithm, Telemetry};
use easybo_bench::opamp_blackbox;
use easybo_exec::{BlackBox, RetryPolicy, RunResult, TaskSpan, VirtualExecutor};
use easybo_opt::{sampling, Bounds, Parallelism};
use easybo_service::{
    encode_frame, encode_message, Message, Role, ServiceClient, ServiceServer, SessionManager,
    SessionSpec, Work,
};
use rand::{rngs::StdRng, SeedableRng};

use crate::calib::{
    compute_sample, program_cpu, slowdown, WireRef, COMPUTE_NOMINAL_MS, WIRE_NOMINAL_US,
};
use crate::layers::{LayerSums, PER_LAYER};
use crate::probe::{SpanClock, SpanProfile};
use crate::report::Report;
use crate::stats::{mean, median, ms, percentile, range, ratio, us};
use crate::{pass_seed, peak_rss_mb, repetitions};

/// Sessions opened per pass.
const SESSIONS: usize = 64;
/// Sessions the manager keeps in memory; the rest live as snapshots.
const RESIDENT_BUDGET: usize = 8;
/// Virtual simulator workers per session.
const SESSION_WORKERS: usize = 15;
/// Initial design per session, which is also its whole budget.
const N_INIT: usize = 20;
/// The admin connection checkpoints a session every this many cycles.
const CHECKPOINT_EVERY: usize = 16;
/// Consecutive `NoWork` replies after which the pass counts as stuck
/// (the lockstep worker holds no lease, so a live fleet always has work).
const MAX_IDLE_ASKS: u64 = 1000;
const BENCH: &str = "opamp";
/// Typical time of one fleet run including set-up and checks (one CPU
/// of a 2-vCPU x86-64 VM); sets how many fleets a run holds.
const FLEET_NOMINAL_S: f64 = 0.08;
/// Round trips per wire reference sample; one wire and one compute
/// reference sample are taken before every fleet.
const WIRE_TRIPS: u32 = 100;

/// One session's seed-derived inputs.
struct SessionInput {
    seed: u64,
    init: Vec<Vec<f64>>,
}

fn session_inputs(bounds: &Bounds, seed: u64) -> Vec<SessionInput> {
    (0..SESSIONS as u64)
        .map(|i| {
            let seed = pass_seed(seed, i);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
            let init = sampling::latin_hypercube(bounds, N_INIT, &mut rng);
            SessionInput { seed, init }
        })
        .collect()
}

fn policy_factory(
    bounds: &Bounds,
    seed: u64,
) -> Box<dyn Fn() -> Box<dyn easybo_exec::AsyncPolicy + Send> + Send> {
    let bounds = bounds.clone();
    Box::new(move || {
        Algorithm::EasyBo
            .async_policy(bounds.clone(), seed, Parallelism::sequential())
            .expect("EasyBO is an async policy")
    })
}

/// The in-process run each service session must reproduce.
fn baseline(bb: &dyn BlackBox, input: &SessionInput) -> RunResult {
    let mut policy = policy_factory(bb.bounds(), input.seed)();
    VirtualExecutor::new(SESSION_WORKERS).run_async_resilient(
        bb,
        &input.init,
        N_INIT,
        policy.as_mut(),
        &RetryPolicy::none(),
        &Telemetry::disabled(),
    )
}

/// A bound server with its sessions opened and both connections
/// handshaken.
struct Fleet {
    server: ServiceServer,
    worker: ServiceClient,
    admin: ServiceClient,
    ids: Vec<u64>,
    next_req: u64,
}

impl Fleet {
    fn start(bb: &dyn BlackBox, inputs: &[SessionInput], telemetry: &Telemetry) -> Self {
        let manager = SessionManager::new(RESIDENT_BUDGET).with_telemetry(telemetry.clone());
        let server =
            ServiceServer::start(manager, "127.0.0.1:0", None).expect("bind a loopback port");
        let ids = {
            let handle = server.manager();
            let mut m = handle.lock().expect("manager lock");
            inputs
                .iter()
                .map(|input| {
                    m.open_session(SessionSpec {
                        bench: BENCH.to_string(),
                        workers: SESSION_WORKERS,
                        max_evals: N_INIT,
                        init: input.init.clone(),
                        retry: RetryPolicy::none(),
                        fingerprint: input.seed,
                        policy: policy_factory(bb.bounds(), input.seed),
                    })
                })
                .collect()
        };
        let addr = server.local_addr();
        let mut fleet = Fleet {
            server,
            worker: ServiceClient::connect(addr, Role::Worker),
            admin: ServiceClient::connect(addr, Role::Admin),
            ids,
            next_req: 1,
        };
        // The first request on each connection performs the handshake.
        let req = fleet.req();
        fleet
            .worker
            .rpc(req, &Message::Stats { req })
            .expect("worker handshake");
        fleet.admin.stats().expect("admin handshake");
        fleet
    }

    fn req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Stops the server and collects every session's result.
    fn finish(self) -> Vec<Option<RunResult>> {
        let Fleet {
            mut server,
            worker,
            admin,
            ids,
            ..
        } = self;
        drop(worker);
        drop(admin);
        server.stop();
        let handle = server.manager();
        let mut m = handle.lock().expect("manager lock");
        ids.iter().map(|&id| m.take_result(id)).collect()
    }
}

fn frame_len(msg: &Message) -> u64 {
    encode_frame(&encode_message(msg)).len() as u64
}

#[derive(Default)]
struct Pass {
    /// Program CPU time of binding the server, opening the sessions and
    /// both handshakes.
    setup: Duration,
    wall: Duration,
    /// Program CPU time from the first ask to `Bye`.
    cpu: Duration,
    cycles: Vec<Duration>,
    /// Program CPU time of each cycle (generator and server threads).
    cycles_cpu: Vec<Duration>,
    /// Ask round trips that returned work.
    work_asks: Vec<Duration>,
    /// Program CPU time of each ask round trip that returned work.
    work_asks_cpu: Vec<Duration>,
    /// Every ask round trip, including the final `Bye`.
    asks: Vec<Duration>,
    tells: Vec<Duration>,
    checkpoints: Vec<Duration>,
    snapshot_bytes: u64,
    evals: Vec<Duration>,
    nowork: u64,
    /// Frame bytes of ask and tell requests and replies (traced runs only).
    wire_bytes: u64,
    errors: Vec<String>,
    results: Vec<Option<RunResult>>,
}

fn run_pass(bb: &dyn BlackBox, inputs: &[SessionInput], telemetry: &Telemetry) -> Pass {
    let traced = telemetry.enabled();
    let c0 = program_cpu();
    let mut fleet = Fleet::start(bb, inputs, telemetry);
    let mut pass = Pass {
        setup: program_cpu() - c0,
        ..Pass::default()
    };
    let (start, start_cpu) = (Instant::now(), program_cpu());
    let mut idle = 0u64;
    loop {
        let (c0, cpu0) = (Instant::now(), program_cpu());
        let req = fleet.req();
        let ask = Message::AskWork { req };
        let reply = fleet.worker.rpc(req, &ask);
        let ask_cpu = program_cpu() - cpu0;
        let ask_time = c0.elapsed();
        pass.asks.push(ask_time);
        if traced {
            pass.wire_bytes += frame_len(&ask) + reply.as_ref().map_or(0, frame_len);
        }
        let work = match reply {
            Ok(Message::Work {
                session,
                task,
                attempt,
                worker,
                x,
                bench,
                ..
            }) => Work {
                session,
                task,
                attempt,
                worker,
                x,
                bench,
            },
            Ok(Message::NoWork { .. }) => {
                pass.nowork += 1;
                idle += 1;
                if idle >= MAX_IDLE_ASKS {
                    pass.errors.push("fleet stopped handing out work".into());
                    break;
                }
                continue;
            }
            Ok(Message::Bye { .. }) => break,
            Ok(other) => {
                pass.errors.push(format!("ask got {other:?}"));
                break;
            }
            Err(e) => {
                pass.errors.push(format!("ask failed: {e}"));
                break;
            }
        };
        idle = 0;
        pass.work_asks.push(ask_time);
        pass.work_asks_cpu.push(ask_cpu);
        if pass.cycles.len().is_multiple_of(CHECKPOINT_EVERY) {
            let k0 = Instant::now();
            match fleet.admin.checkpoint(work.session) {
                Ok(bytes) => pass.snapshot_bytes += bytes,
                Err(e) => pass.errors.push(format!("checkpoint failed: {e}")),
            }
            pass.checkpoints.push(k0.elapsed());
        }
        let e0 = Instant::now();
        let e = work.evaluate(bb);
        pass.evals.push(e0.elapsed());
        if !e.resolved_outcome().is_ok() {
            pass.errors
                .push(format!("evaluation of task {} failed", work.task));
        }
        let t0 = Instant::now();
        let req = fleet.req();
        let tell = Message::TellResult {
            req,
            session: work.session,
            task: work.task,
            attempt: work.attempt,
            value: e.value,
            cost: e.cost,
            outcome: e.resolved_outcome(),
        };
        let reply = fleet.worker.rpc(req, &tell);
        pass.tells.push(t0.elapsed());
        if traced {
            pass.wire_bytes += frame_len(&tell) + reply.as_ref().map_or(0, frame_len);
        }
        match reply {
            Ok(Message::TellAck { accepted: true, .. }) => {}
            Ok(other) => pass.errors.push(format!("tell got {other:?}")),
            Err(e) => pass.errors.push(format!("tell failed: {e}")),
        }
        pass.cycles_cpu.push(program_cpu() - cpu0);
        pass.cycles.push(c0.elapsed());
    }
    pass.cpu = program_cpu() - start_cpu;
    pass.wall = start.elapsed();
    pass.results = fleet.finish();
    pass
}

/// Sorted spans: eviction re-dispatches in-flight work after the
/// committed jobs, so only the order of insertion may differ from the
/// uninterrupted run.
fn sorted_spans(r: &RunResult) -> Vec<TaskSpan> {
    let mut spans = r.schedule.spans().to_vec();
    spans.sort_by(|a, b| {
        (a.task, a.worker)
            .cmp(&(b.task, b.worker))
            .then(a.start.total_cmp(&b.start))
    });
    spans
}

/// Counts the pass's RPCs and evaluations and compares every session with its
/// in-process baseline.
fn check_pass(report: &mut Report, pass: &Pass, baselines: &[RunResult]) {
    let ops =
        (pass.asks.len() + pass.evals.len() + pass.tells.len() + pass.checkpoints.len()) as u64;
    let errors = pass.errors.len() as u64;
    report.count(ops, errors, || pass.errors.join("; "));
    for (i, (got, want)) in pass.results.iter().zip(baselines).enumerate() {
        let same = got.as_ref().is_some_and(|got| {
            got.trace.to_csv() == want.trace.to_csv()
                && got.data == want.data
                && got.schedule.workers() == want.schedule.workers()
                && sorted_spans(got) == sorted_spans(want)
        });
        report.check(same, || {
            format!("session {i} differs from its in-process run")
        });
    }
}

/// Untraced end-to-end run (`--trace 0`).
pub fn run_untraced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let bb = opamp_blackbox();
    let inputs = session_inputs(bb.bounds(), seed);
    let baselines: Vec<RunResult> = inputs.iter().map(|s| baseline(&bb, s)).collect();
    let warm_up = run_pass(&bb, &inputs, &Telemetry::disabled());
    check_pass(&mut report, &warm_up, &baselines);

    // Percentiles are taken per fleet and reported as their median over
    // fleets, so that memory holds one fleet's samples, not the run's.
    let mut setups = vec![warm_up.setup.as_secs_f64()];
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let (mut propose_p50, mut propose_p90) = (Vec::new(), Vec::new());
    let (mut cycle_p50, mut cycle_p99) = (Vec::new(), Vec::new());
    let (mut wall_cycle_p50, mut wall_cycle_p99) = (Vec::new(), Vec::new());
    let (mut wire_refs, mut compute_refs) = (Vec::new(), Vec::new());
    let mut wire = WireRef::start().expect("open a loopback reference connection");
    for _ in 0..repetitions(seconds, FLEET_NOMINAL_S) {
        match wire.sample(WIRE_TRIPS) {
            Ok(d) => wire_refs.push(us(d)),
            Err(e) => report.check(false, || format!("reference round trip failed: {e}")),
        }
        compute_refs.push(ms(compute_sample()));
        let pass = run_pass(&bb, &inputs, &Telemetry::disabled());
        check_pass(&mut report, &pass, &baselines);
        setups.push(pass.setup.as_secs_f64());
        walls.push(pass.wall.as_secs_f64());
        cpus.push(pass.cpu.as_secs_f64());
        let asks: Vec<f64> = pass.work_asks_cpu.iter().map(|&d| ms(d)).collect();
        propose_p50.push(percentile(&asks, 50.0));
        propose_p90.push(percentile(&asks, 90.0));
        let cycles: Vec<f64> = pass.cycles_cpu.iter().map(|&d| us(d)).collect();
        cycle_p50.push(percentile(&cycles, 50.0));
        cycle_p99.push(percentile(&cycles, 99.0));
        let cycles: Vec<f64> = pass.cycles.iter().map(|&d| us(d)).collect();
        wall_cycle_p50.push(percentile(&cycles, 50.0));
        wall_cycle_p99.push(percentile(&cycles, 99.0));
    }

    // Every fleet's sessions were checked equal to these runs.
    let best: Vec<f64> = baselines.iter().map(RunResult::best_value).collect();
    let sim_time: Vec<f64> = baselines.iter().map(RunResult::total_time).collect();
    // Timings at the reference speed (see `calib`).
    let wire_slow = slowdown(&wire_refs, WIRE_NOMINAL_US);
    let compute_slow = slowdown(&compute_refs, COMPUTE_NOMINAL_MS);
    let slow = (wire_slow * compute_slow).sqrt();
    let passes = walls.len();
    let cycles = SESSIONS * N_INIT;
    report.add(
        "setup_s",
        median(&setups) / slow,
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    report.add(
        "cpu_s",
        median(&cpus) / slow,
        "s",
        format!("median of {passes} fleet runs"),
    );
    let per_fleet = |what: &str| format!("median of {passes} fleets, {cycles} {what} each");
    report.add(
        "propose_cpu_ms_p50",
        median(&propose_p50) / slow,
        "ms",
        per_fleet("asks"),
    );
    report.add(
        "cycle_cpu_us_p50",
        median(&cycle_p50) / slow,
        "us",
        per_fleet("cycles"),
    );
    report.add(
        "cycle_cpu_us_p99",
        median(&cycle_p99) / slow,
        "us",
        per_fleet("cycles"),
    );
    report.add(
        "best_fom",
        mean(&best),
        "fom",
        format!("mean of {SESSIONS} sessions"),
    );
    report.add(
        "sim_time_s",
        mean(&sim_time),
        "s",
        format!("mean of {SESSIONS} sessions"),
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process".into());
    report.notes.push(format!(
        "host slowdown {slow:.4}: geometric mean of wire {wire_slow:.4} (round trip median \
         {:.4} us over {} samples of {WIRE_TRIPS}, nominal {WIRE_NOMINAL_US} us) and \
         compute {compute_slow:.4} (median {:.4} ms over {} samples, nominal \
         {COMPUTE_NOMINAL_MS} ms)",
        median(&wire_refs),
        wire_refs.len(),
        median(&compute_refs),
        compute_refs.len(),
    ));
    report.notes.push(format!(
        "raw CPU clock: setup_s {:.6}, cpu_s {:.5} ({}), propose_cpu_ms_p90 {:.6}, \
         cycle_cpu_us_p50 {:.3}, cycle_cpu_us_p99 {:.3}",
        median(&setups),
        median(&cpus),
        range(&cpus),
        median(&propose_p90),
        median(&cycle_p50),
        median(&cycle_p99),
    ));
    report.notes.push(format!(
        "wall clock: wall_s {:.5} ({}), cycle_us_p50 {:.2}, cycle_us_p99 {:.2}",
        median(&walls),
        range(&walls),
        median(&wall_cycle_p50),
        median(&wall_cycle_p99),
    ));
    report
}

/// Traced run (`--trace 1`): traced and untraced fleet runs alternate.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let bb = opamp_blackbox();
    let inputs = session_inputs(bb.bounds(), seed);
    let baselines: Vec<RunResult> = inputs.iter().map(|s| baseline(&bb, s)).collect();
    run_pass(&bb, &inputs, &Telemetry::disabled());

    let mut sums = LayerSums::default();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let (mut asks, mut tells, mut checkpoints) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repetitions(seconds, 2.0 * FLEET_NOMINAL_S) {
        let untraced = run_pass(&bb, &inputs, &Telemetry::disabled());
        check_pass(&mut report, &untraced, &baselines);
        untraced_walls.push(untraced.wall.as_secs_f64());

        let telemetry = Telemetry::new();
        let clock = SpanClock::default();
        telemetry.add_sink(clock.clone());
        let pass = run_pass(&bb, &inputs, &telemetry);
        check_pass(&mut report, &pass, &baselines);
        traced_walls.push(pass.wall.as_secs_f64());
        asks.extend(pass.asks.iter().map(|&d| us(d)));
        tells.extend(pass.tells.iter().map(|&d| us(d)));
        checkpoints.extend(pass.checkpoints.iter().map(|&d| us(d)));

        let profile = SpanProfile::from_spans(&clock.take());
        let counters = telemetry
            .metrics_snapshot()
            .expect("enabled telemetry has metrics");
        let counter = |name: &str| counters.counter(name) as f64;
        let sum = |ds: &[Duration]| ds.iter().sum::<Duration>();
        let cycles = pass.cycles.len() as f64;
        let utilization: Vec<f64> = pass
            .results
            .iter()
            .flatten()
            .map(|r| r.schedule.utilization())
            .collect();

        sums.add(
            "core.policy_self_ms",
            ms(profile.get("session_step").self_time),
        );
        sums.add(
            "exec.session_steps",
            profile.get("session_step").count as f64,
        );
        sums.add("exec.dispatch_ms", ms(profile.get("dispatch").self_time));
        sums.add("exec.utilization", median(&utilization));
        sums.add("circuits.eval_count", pass.evals.len() as f64);
        sums.add("circuits.eval_ms", ms(sum(&pass.evals)));
        sums.add("service.asks", pass.asks.len() as f64);
        sums.add("service.tells", counter("service_tells"));
        sums.add("service.stale_tells", counter("service_stale_tells"));
        sums.add("service.nowork_replies", pass.nowork as f64);
        sums.add(
            "service.useful_ask_ratio",
            ratio(pass.work_asks.len() as f64, pass.asks.len() as f64),
        );
        sums.add(
            "service.bytes_per_cycle",
            ratio(pass.wire_bytes as f64, cycles),
        );
        sums.add("service.evictions", counter("service_evictions"));
        sums.add("service.rehydrations", counter("service_rehydrations"));
        sums.add("persist.checkpoints", pass.checkpoints.len() as f64);
        sums.add(
            "persist.snapshot_bytes",
            ratio(pass.snapshot_bytes as f64, pass.checkpoints.len() as f64),
        );
        let attributed =
            sum(&pass.asks) + sum(&pass.tells) + sum(&pass.checkpoints) + sum(&pass.evals);
        sums.add(
            "telemetry.attributed_frac",
            attributed.as_secs_f64() / pass.wall.as_secs_f64(),
        );
        sums.passes += 1;
    }

    sums.set("service.ask_rpc_us_p50", percentile(&asks, 50.0));
    sums.set("service.tell_rpc_us_p50", percentile(&tells, 50.0));
    sums.set(
        "persist.checkpoint_rpc_us_p50",
        percentile(&checkpoints, 50.0),
    );
    sums.set(
        "telemetry.tracing_overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    sums.report_into(&mut report, PER_LAYER);
    report
}
