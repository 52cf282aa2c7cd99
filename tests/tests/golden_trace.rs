//! Cross-build trajectory pin.
//!
//! Every other byte-identity suite compares one build with itself
//! (parallelism 1 vs 8, resumed vs uninterrupted, service vs in-process),
//! so a hot-path change that moves a single ulp passes them all. These
//! tests pin seeded op-amp runs against committed fixtures instead: the
//! trace CSV and the full dataset must stay byte-equal to what the
//! reference build produced. One fixture per policy lives under
//! `tests/data/`, so a refactor of any async, sync, pessimistic,
//! ε-greedy, standard or constant-liar branch shows up here.
//!
//! Regenerate (only after an *intentional* trajectory change) with:
//! `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test golden_trace`.

use easybo::policies::{EasyBoAsyncPolicy, PenalizationMode};
use easybo::{Algorithm, RunSetup};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{BlackBox, CostedFunction, RunResult, SimTimeModel, VirtualExecutor};
use easybo_opt::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batch size, budget, initial design and seed of every pinned run.
const SETUP: (usize, usize, usize, u64) = (5, 40, 10, 7);

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
    let run = registry_run(Algorithm::EasyBo, &bb);
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

/// `algo` on the op-amp through the registry at [`SETUP`].
fn registry_run(algo: Algorithm, bb: &dyn BlackBox) -> RunResult {
    let (batch, evals, init, seed) = SETUP;
    algo.run_with(bb, &RunSetup::new(batch, evals, init, 0, seed))
}

/// Compares `run` with `tests/data/<fixture>` (or rewrites it under
/// `EASYBO_REGEN_GOLDEN`).
fn assert_matches_fixture(name: &str, fixture: &str, run: &RunResult, dim: usize) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(fixture);
    let got = render(run, dim);
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden trace");
    }
    let want = std::fs::read_to_string(&path).expect("read golden trace");
    assert!(
        got == want,
        "the seeded {name} op-amp trajectory drifted from tests/data/{fixture}; \
         a refactor that claims bit-identity must not move a single bit. If the \
         trajectory change is intentional, regenerate with EASYBO_REGEN_GOLDEN=1 \
         cargo test -p easybo-integration --test golden_trace"
    );
}

/// Registry policies pinned across builds, with their fixture names.
const REGISTRY_GOLDENS: [(Algorithm, &str); 6] = [
    (Algorithm::EasyBoA, "golden_opamp_easybo_a.csv"),
    (Algorithm::EasyBoS, "golden_opamp_easybo_s.csv"),
    (Algorithm::EasyBoSp, "golden_opamp_easybo_sp.csv"),
    (Algorithm::PessimisticBo, "golden_opamp_pessimistic.csv"),
    (Algorithm::EpsGreedy, "golden_opamp_eps_greedy.csv"),
    (Algorithm::StandardBo, "golden_opamp_standard.csv"),
];

#[test]
fn registry_policy_trajectories_match_committed_goldens() {
    let bb = opamp_blackbox();
    for (algo, fixture) in REGISTRY_GOLDENS {
        let run = registry_run(algo, &bb);
        assert_eq!(run.data.len(), SETUP.1, "{}", algo.key());
        assert_matches_fixture(algo.key(), fixture, &run, bb.bounds().dim());
    }
}

#[test]
fn constant_liar_trajectories_match_committed_goldens() {
    let bb = opamp_blackbox();
    let (batch, evals, n_init, seed) = SETUP;
    // The same initial design `Algorithm::run_with` draws.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let init = sampling::latin_hypercube(bb.bounds(), n_init, &mut rng);
    for (name, mode, fixture) in [
        (
            "liar-min",
            PenalizationMode::ConstantLiarMin,
            "golden_opamp_liar_min.csv",
        ),
        (
            "liar-max",
            PenalizationMode::ConstantLiarMax,
            "golden_opamp_liar_max.csv",
        ),
    ] {
        let mut policy = EasyBoAsyncPolicy::new(bb.bounds().clone(), true, seed);
        policy.penalization_mode(mode);
        let run = VirtualExecutor::new(batch).run_async(&bb, &init, evals, &mut policy);
        assert_eq!(run.data.len(), evals, "{name}");
        assert_matches_fixture(name, fixture, &run, bb.bounds().dim());
    }
}
