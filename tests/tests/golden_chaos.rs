//! Cross-build pin of the fault-tolerant event loop.
//!
//! `golden_trace.rs` pins fault-free runs only, and the service suite
//! compares the session manager with the in-process executor of the
//! same build. Neither catches a change to the fold order or the
//! retry path that both share. These tests run the op-amp under a
//! seeded fault plan (crashes, non-finite results, hangs cut by the
//! timeout, stragglers, a penalty commit) in three ways and compare
//! everything they leave behind — the trace CSV, the dataset, the
//! schedule spans in insertion order and the JSONL event stream — with
//! committed fixtures:
//!
//! 1. `run_async_resilient` straight through;
//! 2. the same run killed by a session hook at 17 completions, then
//!    resumed from the captured session parts and policy blob;
//! 3. a `SessionManager` with a residency budget of 1 running two such
//!    sessions, rehydrating the evicted one on every 7th tell.
//!
//! `GpRefit` and `AcqOptimized` carry wall-clock durations; they are
//! zeroed before rendering so the stream is deterministic.
//!
//! Regenerate (only after an *intentional* trajectory change) with:
//! `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test golden_chaos`.

use easybo::policies::EasyBoAsyncPolicy;
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{
    AsyncPolicy, BlackBox, CostedFunction, FailureAction, FaultPlan, FaultyBlackBox, HookAction,
    RetryPolicy, RunResult, SessionParts, SessionState, SimTimeModel, VirtualExecutor,
};
use easybo_opt::sampling;
use easybo_service::{SessionManager, SessionSpec};
use easybo_telemetry::{to_json_line, Event, Recorder, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batch size, budget, initial design and seed of every pinned run
/// (the same cell as `golden_trace.rs`).
const SETUP: (usize, usize, usize, u64) = (5, 40, 10, 7);

/// Completions after which the kill hook of run 2 aborts.
const KILL_AT: usize = 17;

/// Tell cadence at which run 3 rehydrates its evicted session.
const REHYDRATE_EVERY: usize = 7;

/// The op-amp with the calibrated time model behind a seeded fault
/// plan.
fn faulty_opamp() -> FaultyBlackBox<CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync>> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    let inner = CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x));
    FaultyBlackBox::new(
        inner,
        FaultPlan {
            seed: 11,
            fail_rate: 0.1,
            nonfinite_rate: 0.05,
            hang_rate: 0.05,
            hang_cost: 1e4,
            straggler_rate: 0.1,
            straggler_factor: 3.0,
            ..FaultPlan::default()
        },
    )
}

fn retry() -> RetryPolicy {
    RetryPolicy::default()
        .max_attempts(3)
        .backoff(5.0, 2.0)
        .timeout(200.0)
        .on_exhausted(FailureAction::Penalty(-1.0))
}

/// The 10-point LHS `Algorithm::run_with` draws at [`SETUP`].
fn initial_design(bb: &dyn BlackBox) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(SETUP.3.wrapping_mul(0x9e37_79b9));
    sampling::latin_hypercube(bb.bounds(), SETUP.2, &mut rng)
}

fn policy(bb: &dyn BlackBox, telemetry: &Telemetry) -> EasyBoAsyncPolicy {
    let mut p = EasyBoAsyncPolicy::new(bb.bounds().clone(), true, SETUP.3);
    p.set_telemetry(telemetry.clone());
    p
}

/// Trace CSV, dataset, and schedule spans in insertion order. Floats
/// print in Rust's shortest round-trip form, so equal text means equal
/// bits.
fn render_run(out: &mut String, tag: &str, run: &RunResult) {
    out.push_str(&format!("# {tag} trace\n"));
    out.push_str(&run.trace.to_csv());
    out.push_str(&format!("# {tag} dataset\n"));
    for (x, y) in run.data.xs().iter().zip(run.data.ys()) {
        let row: Vec<String> = x.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("{},{y}\n", row.join(",")));
    }
    out.push_str(&format!("# {tag} spans (worker,task,start,end,failed)\n"));
    for s in run.schedule.spans() {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            s.worker, s.task, s.start, s.end, s.failed
        ));
    }
}

/// The recorded event stream as JSONL, wall-clock durations zeroed.
fn render_events(out: &mut String, recorder: &Recorder) {
    out.push_str("# events\n");
    for mut ev in recorder.events() {
        if let Event::GpRefit { duration, .. } | Event::AcqOptimized { duration, .. } =
            &mut ev.event
        {
            *duration = 0.0;
        }
        out.push_str(&to_json_line(&ev));
        out.push('\n');
    }
}

/// Compares `got` with `tests/data/<fixture>` (or rewrites it under
/// `EASYBO_REGEN_GOLDEN`).
fn assert_matches_fixture(fixture: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(fixture);
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, got).expect("write golden chaos fixture");
    }
    let want = std::fs::read_to_string(&path).expect("read golden chaos fixture");
    assert!(
        got == want,
        "the seeded chaos run drifted from tests/data/{fixture}; a refactor of \
         the event loop must not move a single bit or reorder a single event. \
         If the change is intentional, regenerate with EASYBO_REGEN_GOLDEN=1 \
         cargo test -p easybo-integration --test golden_chaos"
    );
}

#[test]
fn resilient_run_matches_committed_golden() {
    let bb = faulty_opamp();
    let (tel, recorder) = Telemetry::recording();
    let run = VirtualExecutor::new(SETUP.0).run_async_resilient(
        &bb,
        &initial_design(&bb),
        SETUP.1,
        &mut policy(&bb, &tel),
        &retry(),
        &tel,
    );
    assert_eq!(run.data.len(), SETUP.1);
    assert!(run.schedule.spans().iter().any(|s| s.failed));
    let mut got = String::new();
    render_run(&mut got, "run", &run);
    render_events(&mut got, &recorder);
    assert_matches_fixture("golden_chaos_resilient.txt", &got);
}

#[test]
fn killed_and_resumed_run_matches_committed_golden() {
    let bb = faulty_opamp();
    let exec = VirtualExecutor::new(SETUP.0);
    let (tel, recorder) = Telemetry::recording();
    let mut captured: Option<(SessionParts, Vec<u8>)> = None;
    {
        let mut hook = |session: &SessionState, policy: &dyn AsyncPolicy, _now: f64| {
            if session.completed() >= KILL_AT {
                captured = Some((
                    session.to_parts(),
                    policy.snapshot_state().expect("EasyBO snapshots its state"),
                ));
                return HookAction::Stop {
                    reason: "injected kill".to_string(),
                };
            }
            HookAction::Continue
        };
        exec.run_session_resilient(
            &bb,
            &initial_design(&bb),
            SETUP.1,
            &mut policy(&bb, &tel),
            &retry(),
            &tel,
            Some(&mut hook),
        )
        .expect_err("the kill hook aborts the run");
    }
    let (parts, blob) = captured.expect("the run reached the kill point");
    let mut resumed_policy = policy(&bb, &tel);
    resumed_policy
        .restore_state(&blob)
        .expect("policy blob restores");
    let run = exec
        .resume_session_resilient(
            &bb,
            SessionState::from_parts(parts),
            &mut resumed_policy,
            &retry(),
            &tel,
            None,
        )
        .expect("resumed run completes");
    assert_eq!(run.data.len(), SETUP.1);
    let mut got = String::new();
    render_run(&mut got, "resumed", &run);
    render_events(&mut got, &recorder);
    assert_matches_fixture("golden_chaos_resumed.txt", &got);
}

#[test]
fn manager_run_with_rehydration_matches_committed_golden() {
    let bb = faulty_opamp();
    let (tel, recorder) = Telemetry::recording();
    let mut m = SessionManager::new(1).with_telemetry(tel.clone());
    let ids: Vec<u64> = (0..2)
        .map(|_| {
            let bounds = bb.bounds().clone();
            let tel = tel.clone();
            m.open_session(SessionSpec {
                bench: "faulty-opamp".to_string(),
                workers: SETUP.0,
                max_evals: SETUP.1,
                init: initial_design(&bb),
                retry: retry(),
                fingerprint: 42,
                policy: Box::new(move || {
                    let mut p = EasyBoAsyncPolicy::new(bounds.clone(), true, SETUP.3);
                    p.set_telemetry(tel.clone());
                    Box::new(p)
                }),
            })
        })
        .collect();
    let mut tells = 0usize;
    let mut guard = 0usize;
    while !m.all_done() {
        guard += 1;
        assert!(guard < 10_000, "manager drain did not converge");
        if let Some(w) = m.ask(1) {
            let e = w.evaluate(&bb);
            let outcome = e.resolved_outcome();
            assert!(m.tell(1, w.session, w.task, w.attempt, e.value, e.cost, outcome));
            tells += 1;
            if tells.is_multiple_of(REHYDRATE_EVERY) {
                if let Some(&id) = m.evicted_ids().first() {
                    m.rehydrate(id).expect("rehydrate evicted session");
                }
            }
        } else if let Some(&id) = m.evicted_ids().first() {
            m.rehydrate(id).expect("rehydrate evicted session");
        }
    }
    assert!(m.stats().rehydrations >= 2);
    let mut got = String::new();
    for id in ids {
        let run = m.take_result(id).expect("session finished");
        assert_eq!(run.data.len(), SETUP.1);
        render_run(&mut got, &format!("session {id}"), &run);
    }
    render_events(&mut got, &recorder);
    assert_matches_fixture("golden_chaos_manager.txt", &got);
}
