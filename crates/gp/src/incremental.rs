//! Incremental GP surrogate: cached covariance factor across ask/tell
//! steps plus a pseudo-point factor *stack* for the penalization inner
//! loop.
//!
//! The asynchronous EasyBO loop touches the GP in two very different
//! rhythms:
//!
//! * **per tell** — one new real observation arrives; the kernel and
//!   hyperparameters are unchanged, so the cached Cholesky factor can be
//!   extended in O(n²) instead of rebuilt in O(n³);
//! * **per selection** — the local-penalization scheme hallucinates one
//!   pseudo-point per busy worker, maximizes the acquisition, and then
//!   throws the pseudo-points away again.
//!
//! [`IncrementalGp`] serves both: [`IncrementalGp::append_observation`]
//! reuses the cached factor, and [`IncrementalGp::push_pseudo_mean`] /
//! [`IncrementalGp::pop_pseudo`] maintain an augmented factor stack so
//! the inner loop never refactorizes. Every push records the pre-push
//! weight vector `α`, and the factor extension never touches the existing
//! block, so a pop restores the previous model **bit for bit** — the
//! property that keeps checkpoint/resume byte-identical. A
//! hyperparameter retrain simply replaces the wrapped [`Gp`] (see
//! `SurrogateManager` upstream), which is the cache-invalidation path back
//! to the blocked full factorization.

use easybo_linalg::Vector;
use easybo_telemetry::Telemetry;

use crate::model::{weighted_row_sums, Gp};
use crate::GpError;

/// A [`Gp`] wrapped with an incremental-update API and a pseudo-point
/// factor stack. See the module docs for the design.
///
/// # Example
///
/// ```
/// use easybo_gp::{Gp, GpConfig, IncrementalGp};
///
/// # fn main() -> Result<(), easybo_gp::GpError> {
/// let x = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let y = vec![0.0, 1.0, 0.0];
/// let mut inc = IncrementalGp::new(Gp::fit(x, y, GpConfig::default())?);
/// let before = inc.gp().predict(&[0.25]);
/// inc.push_pseudo_mean(vec![0.25])?;
/// assert!(inc.gp().predict(&[0.25]).variance < before.variance);
/// inc.pop_pseudo();
/// // The pop restored the exact pre-push model.
/// assert_eq!(inc.gp().predict(&[0.25]), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGp {
    gp: Gp,
    /// Pre-push `α` snapshots, one per live pseudo-point (stack order).
    saved_alpha: Vec<Vector>,
    telemetry: Telemetry,
}

impl IncrementalGp {
    /// Wraps a fitted model with telemetry disabled.
    pub fn new(gp: Gp) -> Self {
        Self::with_telemetry(gp, Telemetry::disabled())
    }

    /// Wraps a fitted model; incremental updates emit `cholesky_update` /
    /// `cholesky_downdate` spans and counters on `telemetry`.
    pub fn with_telemetry(gp: Gp, telemetry: Telemetry) -> Self {
        IncrementalGp {
            gp,
            saved_alpha: Vec::new(),
            telemetry,
        }
    }

    /// Replaces the telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The wrapped model, including any live pseudo-points.
    pub fn gp(&self) -> &Gp {
        &self.gp
    }

    /// Number of live pseudo-points on the stack.
    pub fn n_pseudo(&self) -> usize {
        self.saved_alpha.len()
    }

    /// Number of training points *below* the pseudo-point stack.
    pub fn n_base(&self) -> usize {
        self.gp.n_train() - self.saved_alpha.len()
    }

    /// Appends one *real* observation in place, extending the cached
    /// factor in O(n²) — the per-tell hot path that replaces a full
    /// O(n³) refactorization between scheduled hyperparameter retrains.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::extend_observed`].
    ///
    /// # Panics
    ///
    /// Panics if pseudo-points are live: real data must never be
    /// interleaved into the hallucinated tail.
    pub fn append_observation(&mut self, x: Vec<f64>, y: f64) -> crate::Result<()> {
        assert!(
            self.saved_alpha.is_empty(),
            "append_observation with {} pseudo-points live",
            self.saved_alpha.len()
        );
        validate_point(&x, self.gp.dim())?;
        if !y.is_finite() {
            return Err(GpError::NonFiniteData {
                context: "append_observation target".into(),
            });
        }
        let _span = self.telemetry.span("cholesky_update");
        let z = self.gp.scaler().transform(y);
        let floored = self.gp.push_point_standardized(x, z)?;
        self.gp.mark_all_real();
        self.telemetry.incr("cholesky_update", 1);
        if floored {
            self.telemetry.incr("cholesky_jitter_bumps", 1);
        }
        Ok(())
    }

    /// Pushes a hallucinated pseudo-point whose target is the *current
    /// predictive mean* (the paper's BUCB-style busy-point penalization):
    /// the posterior mean is unchanged while σ̂ collapses around the busy
    /// point. Exactly the per-point operation sequence of [`Gp::augment`],
    /// but on a factor stack instead of a throwaway clone.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::augment`]; on error the model is unchanged.
    pub fn push_pseudo_mean(&mut self, x: Vec<f64>) -> crate::Result<()> {
        validate_point(&x, self.gp.dim())?;
        // The mean half of `Gp::predict_standardized` (bitwise), without
        // its variance solve.
        let gp = &self.gp;
        let mean_z = gp
            .kernel()
            .column(gp.theta(), gp.x_rows(), &x)
            .dot(gp.alpha_vec());
        self.push_standardized(x, mean_z)
    }

    /// Pushes a hallucinated pseudo-point with a fixed raw-space "lie"
    /// target (the constant-liar ablations): `y` is standardized with the
    /// model's scaler, matching [`Gp::extend_observed`]'s transform —
    /// but, unlike a point appended by `extend_observed`, it stays
    /// hallucinated and poppable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::augment`]; on error the model is unchanged.
    pub fn push_pseudo_lie(&mut self, x: Vec<f64>, y: f64) -> crate::Result<()> {
        validate_point(&x, self.gp.dim())?;
        if !y.is_finite() {
            return Err(GpError::NonFiniteData {
                context: "pseudo-point lie target".into(),
            });
        }
        let z = self.gp.scaler().transform(y);
        self.push_standardized(x, z)
    }

    fn push_standardized(&mut self, x: Vec<f64>, z: f64) -> crate::Result<()> {
        let _span = self.telemetry.span("cholesky_update");
        let alpha_before = self.gp.alpha_vec().clone();
        let floored = self.gp.push_point_standardized(x, z)?;
        self.saved_alpha.push(alpha_before);
        self.telemetry.incr("cholesky_update", 1);
        if floored {
            self.telemetry.incr("cholesky_jitter_bumps", 1);
        }
        Ok(())
    }

    /// Pops the most recent pseudo-point, restoring the pre-push model
    /// bit for bit (factor truncation + saved `α`), in O(n²).
    ///
    /// # Panics
    ///
    /// Panics if no pseudo-point is live.
    pub fn pop_pseudo(&mut self) {
        let alpha = self
            .saved_alpha
            .pop()
            .expect("pop_pseudo: no pseudo-points live");
        let _span = self.telemetry.span("cholesky_downdate");
        self.gp.truncate_to(self.gp.n_train() - 1, alpha);
        self.telemetry.incr("cholesky_downdate", 1);
    }

    /// Pops every live pseudo-point (no-op when none are live).
    pub fn pop_all_pseudo(&mut self) {
        while !self.saved_alpha.is_empty() {
            self.pop_pseudo();
        }
    }

    /// The penalized posterior of Eq. 9 from one kernel column: the
    /// **base** model's mean (ignoring live pseudo-points, raw units) and
    /// the augmented model's standardized variance `σ̂²`. The base rows are
    /// a prefix of the augmented rows, so `k*` is built once and the base
    /// mean reads its `[..n_base]` prefix against the saved base `α`.
    ///
    /// Bit-identical to `(base.predict_mean(x),
    /// augmented.predict_standardized(x).1)` on the model as it stood
    /// before the pushes and the model after them.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict_penalized(&self, x: &[f64]) -> (f64, f64) {
        let kstar = self
            .gp
            .kernel()
            .column(self.gp.theta(), self.gp.x_rows(), x);
        let mean_z: f64 = kstar.as_slice()[..self.n_base()]
            .iter()
            .zip(self.base_alpha().iter())
            .map(|(k, &a)| k * a)
            .sum();
        (
            self.gp.scaler().inverse(mean_z),
            self.gp.variance_from_column(&kstar),
        )
    }

    /// Batched [`IncrementalGp::predict_penalized`]: one `K*` over every
    /// row and one multi-RHS solve for the whole batch, bit-identical per
    /// point to the scalar call.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimension.
    pub fn predict_penalized_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if xs.is_empty() {
            return Vec::new();
        }
        let kstar = self
            .gp
            .kernel()
            .cross_covariance(self.gp.theta(), self.gp.x_rows(), xs);
        weighted_row_sums(&kstar, self.base_alpha().as_slice())
            .into_iter()
            .map(|mu| self.gp.scaler().inverse(mu))
            .zip(self.gp.variances_from_cross(&kstar))
            .collect()
    }

    /// The weight vector of the base model: the bottom of the saved-α
    /// stack, or the live α when no pseudo-points are pushed.
    fn base_alpha(&self) -> &Vector {
        self.saved_alpha
            .first()
            .unwrap_or_else(|| self.gp.alpha_vec())
    }
}

fn validate_point(x: &[f64], dim: usize) -> crate::Result<()> {
    if x.len() != dim {
        return Err(GpError::InconsistentData {
            detail: format!("point has {} dims, expected {dim}", x.len()),
        });
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteData {
            context: "incremental point".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelFamily;

    fn fitted() -> Gp {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            (1e-6f64).ln(),
        )
        .unwrap()
    }

    #[test]
    fn push_pop_restores_state_bitwise() {
        let gp = fitted();
        let before = gp.state();
        let mut inc = IncrementalGp::new(gp);
        inc.push_pseudo_mean(vec![0.25]).unwrap();
        inc.push_pseudo_mean(vec![0.85]).unwrap();
        inc.push_pseudo_lie(vec![0.5], 1.5).unwrap();
        assert_eq!(inc.n_pseudo(), 3);
        assert_eq!(inc.gp().n_train(), 13);
        inc.pop_all_pseudo();
        assert_eq!(inc.n_pseudo(), 0);
        assert_eq!(inc.gp().state(), before);
    }

    #[test]
    fn push_pseudo_mean_matches_augment_bitwise() {
        let gp = fitted();
        let busy = vec![vec![0.22], vec![0.71], vec![0.48]];
        let aug = gp.augment(&busy).unwrap();
        let mut inc = IncrementalGp::new(gp);
        for b in &busy {
            inc.push_pseudo_mean(b.clone()).unwrap();
        }
        assert_eq!(inc.gp().state(), aug.state());
        for q in [0.1, 0.48, 0.9] {
            let a = aug.predict_standardized(&[q]);
            let b = inc.gp().predict_standardized(&[q]);
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn append_observation_matches_extend_observed_bitwise() {
        let gp = fitted();
        let legacy = gp
            .extend_observed(vec![0.77], 2.3)
            .unwrap()
            .extend_observed(vec![0.13], 1.8)
            .unwrap();
        let mut inc = IncrementalGp::new(gp);
        inc.append_observation(vec![0.77], 2.3).unwrap();
        inc.append_observation(vec![0.13], 1.8).unwrap();
        assert_eq!(inc.gp().state(), legacy.state());
        assert_eq!(inc.gp().n_real(), 12);
    }

    #[test]
    fn base_mean_ignores_pseudo_points() {
        let gp = fitted();
        let base = gp.clone();
        let mut inc = IncrementalGp::new(gp);
        inc.push_pseudo_mean(vec![0.33]).unwrap();
        inc.push_pseudo_lie(vec![0.66], 9.0).unwrap(); // a lie that WOULD move the mean
        let probes: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let batch = inc.predict_penalized_batch(&probes);
        let legacy_means = base.predict_mean_batch(&probes);
        for (i, p) in probes.iter().enumerate() {
            let (mean, var_hat) = inc.predict_penalized(p);
            let var_aug = inc.gp().predict_standardized(p).1;
            assert_eq!(
                mean.to_bits(),
                base.predict_mean(p).to_bits(),
                "mean at {i}"
            );
            assert_eq!(var_hat.to_bits(), var_aug.to_bits(), "σ̂² at {i}");
            assert_eq!(
                batch[i].0.to_bits(),
                legacy_means[i].to_bits(),
                "batch mean at {i}"
            );
            assert_eq!(batch[i].1.to_bits(), var_aug.to_bits(), "batch σ̂² at {i}");
        }
        // With no pseudo-points both halves come from the live model.
        inc.pop_all_pseudo();
        let (mean, var) = inc.predict_penalized(&probes[3]);
        assert_eq!(mean.to_bits(), base.predict_mean(&probes[3]).to_bits());
        assert_eq!(
            var.to_bits(),
            base.predict_standardized(&probes[3]).1.to_bits()
        );
        assert!(inc.predict_penalized_batch(&[]).is_empty());
    }

    #[test]
    fn failed_push_leaves_model_unchanged() {
        let gp = fitted();
        let before = gp.state();
        let mut inc = IncrementalGp::new(gp);
        assert!(inc.push_pseudo_mean(vec![0.1, 0.2]).is_err()); // wrong dims
        assert!(inc.push_pseudo_mean(vec![f64::NAN]).is_err());
        assert!(inc.push_pseudo_lie(vec![0.5], f64::INFINITY).is_err());
        assert_eq!(inc.n_pseudo(), 0);
        assert_eq!(inc.gp().state(), before);
    }

    #[test]
    #[should_panic(expected = "append_observation")]
    fn append_with_live_pseudo_points_panics() {
        let mut inc = IncrementalGp::new(fitted());
        inc.push_pseudo_mean(vec![0.5]).unwrap();
        let _ = inc.append_observation(vec![0.6], 1.0);
    }

    #[test]
    fn telemetry_counts_updates_and_downdates() {
        let (telemetry, _recorder) = Telemetry::recording();
        let mut inc = IncrementalGp::with_telemetry(fitted(), telemetry.clone());
        inc.append_observation(vec![0.42], 2.0).unwrap();
        inc.push_pseudo_mean(vec![0.2]).unwrap();
        inc.push_pseudo_mean(vec![0.8]).unwrap();
        inc.pop_all_pseudo();
        let snap = telemetry.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("cholesky_update"), 3);
        assert_eq!(snap.counter("cholesky_downdate"), 2);
    }

    #[test]
    fn duplicate_pseudo_point_bumps_jitter_counter() {
        // Near-zero noise: appending an exact duplicate of a training
        // point drives the new pivot to (numerical) zero, so the
        // duplicate-point floor must fire — and be counted, not silent.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        let gp = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            -45.0,
        )
        .unwrap();
        let (telemetry, _recorder) = Telemetry::recording();
        let mut inc = IncrementalGp::with_telemetry(gp, telemetry.clone());
        inc.push_pseudo_lie(vec![3.0 / 9.0], 2.5).unwrap();
        let snap = telemetry.metrics_snapshot().unwrap();
        assert!(snap.counter("cholesky_jitter_bumps") >= 1);
    }
}
