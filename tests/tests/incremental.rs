//! Incremental-factorization acceptance suite.
//!
//! The headline contract of the cached-covariance hot path: on a seeded
//! op-amp run the penalization inner loop never triggers a full
//! refactorization — `cholesky` spans appear only on hyperparameter
//! retrains, while per-tell appends and pseudo-point pushes/pops show up
//! as `cholesky_update` / `cholesky_downdate` work.
//!
//! The factor stack's bit-identity with the clone-and-refactorize
//! reference is checked at the unit level (`IncrementalGp` against
//! `Gp::augment` / `Gp::extend_observed`, `PenalizedAcqInc` against
//! `weighted_penalized`); the seeded trajectories themselves are pinned
//! across builds by `golden_trace.rs`.

use std::collections::BTreeMap;

use easybo::{EasyBo, Telemetry};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{BlackBox, CostedFunction, SimTimeModel};
use easybo_telemetry::Event;

/// The paper's 10-d two-stage op-amp with a seeded simulation-time model.
fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

/// Seeded op-amp run; returns `(result, span-name counts, counters)`.
fn instrumented_opamp_run() -> (
    easybo::OptimizationResult,
    BTreeMap<String, usize>,
    BTreeMap<String, u64>,
) {
    let bb = opamp_blackbox();
    let (telemetry, recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(bb.bounds().clone());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(18)
        .seed(11)
        .telemetry(telemetry.clone());
    let result = opt.run_blackbox(&bb).expect("op-amp run completes");
    telemetry.flush();
    let mut spans: BTreeMap<String, usize> = BTreeMap::new();
    for ev in recorder.events() {
        if let Event::SpanStart { name, .. } = &ev.event {
            *spans.entry(name.to_string()).or_default() += 1;
        }
    }
    let metrics = telemetry.metrics_snapshot().expect("metrics enabled");
    let counters: BTreeMap<String, u64> = ["cholesky_update", "cholesky_downdate"]
        .iter()
        .map(|&k| (k.to_string(), metrics.counter(k)))
        .collect();
    (result, spans, counters)
}

/// Acceptance: the pseudo-point inner loop never calls the full
/// factorization — `cholesky` spans fire exactly once per hyperparameter
/// retrain, and all other factor work is rank-1 updates/downdates.
#[test]
fn opamp_run_factorizes_only_on_retrains() {
    let (result, spans, counters) = instrumented_opamp_run();
    let summary = result.report.summary.as_ref().expect("telemetry summary");

    let full = spans.get("cholesky").copied().unwrap_or(0);
    assert_eq!(
        full, summary.gp_refits,
        "full factorizations must be exactly one per retrain \
         (got {full} cholesky spans for {} refits)",
        summary.gp_refits
    );

    // Pseudo-point pushes and pops ran on the factor stack.
    let updates = counters["cholesky_update"];
    let downdates = counters["cholesky_downdate"];
    assert!(updates > 0, "expected rank-1 updates, got none");
    assert!(downdates > 0, "expected rank-1 downdates, got none");
    // Every pseudo-point push is popped again; appends are never popped.
    assert_eq!(
        downdates as usize, summary.pseudo_points,
        "each hallucinated pseudo-point is one downdate"
    );
    assert!(
        updates > downdates,
        "appends mean more updates ({updates}) than downdates ({downdates})"
    );
    // The rank-1 spans surface alongside the counters.
    assert_eq!(spans.get("cholesky_update").copied().unwrap_or(0), {
        updates as usize
    });
    assert_eq!(
        spans.get("cholesky_downdate").copied().unwrap_or(0),
        downdates as usize
    );

    // The run report mines the same numbers for the regression gate.
    assert_eq!(result.report.cholesky_updates, Some(updates));
    assert_eq!(result.report.cholesky_downdates, Some(downdates));
    assert_eq!(result.report.gp_factorizations, Some(full as u64));
    let share = result
        .report
        .incremental_update_share
        .expect("share populated");
    assert!(
        share > 0.5,
        "most factor work should be rank-1 updates, share = {share}"
    );
}
