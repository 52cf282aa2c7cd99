//! Cross-build trajectory pin.
//!
//! Every other byte-identity suite compares one build with itself
//! (parallelism 1 vs 8, resumed vs uninterrupted, service vs in-process),
//! so a hot-path change that moves a single ulp passes them all. This
//! test pins a seeded EasyBO op-amp run against a committed fixture
//! instead: the trace CSV and the full dataset must stay byte-equal to
//! what the reference build produced.
//!
//! Regenerate (only after an *intentional* trajectory change) with:
//! `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test golden_trace`.

use easybo::{Algorithm, RunSetup};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{BlackBox, CostedFunction, RunResult, SimTimeModel};

/// The paper's 10-d two-stage op-amp with the calibrated time model.
fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

/// Trace CSV followed by every observation in completion order. Floats
/// print in Rust's shortest round-trip form, so equal text means equal
/// bits.
fn render(run: &RunResult, dim: usize) -> String {
    let mut out = String::from("# trace\n");
    out.push_str(&run.trace.to_csv());
    out.push_str("# dataset\n");
    let header: Vec<String> = (0..dim).map(|i| format!("x{i}")).collect();
    out.push_str(&format!("{},y\n", header.join(",")));
    for (x, y) in run.data.xs().iter().zip(run.data.ys()) {
        let row: Vec<String> = x.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("{},{y}\n", row.join(",")));
    }
    out
}

#[test]
fn easybo_opamp_trajectory_matches_committed_golden() {
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/golden_opamp_trace.csv"
    ));
    let bb = opamp_blackbox();
    let run = Algorithm::EasyBo.run_with(&bb, &RunSetup::new(5, 40, 10, 0, 7));
    assert_eq!(run.data.len(), 40);
    let got = render(&run, bb.bounds().dim());
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden trace");
    }
    let want = std::fs::read_to_string(path).expect("read golden trace");
    assert!(
        got == want,
        "the seeded EasyBO op-amp trajectory drifted from \
         tests/data/golden_opamp_trace.csv; a hot-path change that claims \
         bit-identity must not move a single bit. If the trajectory change \
         is intentional, regenerate with EASYBO_REGEN_GOLDEN=1 cargo test \
         -p easybo-integration --test golden_trace"
    );
}
