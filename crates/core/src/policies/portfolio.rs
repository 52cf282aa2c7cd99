//! Thompson-sampling and portfolio (GP-Hedge) sequential policies — the
//! remaining acquisition families the paper's §II-B surveys (Thompson
//! sampling \[30\] and the acquisition portfolio of Hoffman et al. \[31\]).

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_gp::Gp;
use easybo_linalg::{Cholesky, Matrix, Vector};
use easybo_opt::{sampling, Bounds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::acquisition;
use crate::policies::{AcqMaximizer, AcqOptConfig};
use crate::surrogate::{SurrogateConfig, SurrogateManager};

/// Thompson sampling: draw one function from the GP posterior over a
/// random candidate set and query its argmax.
///
/// The joint posterior over `m` candidates is `N(μ, Σ)` with
/// `Σ = K** − K*ᵀ K⁻¹ K*`; we factor `Σ = L Lᵀ` and return
/// `argmax(μ + L·z)`, `z ~ N(0, I)` — an exact finite-dimensional
/// Thompson draw.
///
/// # Example
///
/// ```
/// use easybo::policies::ThompsonSamplingPolicy;
/// use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
/// use easybo_opt::{sampling, Bounds};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(0.0, 1.0)])?;
/// let time = SimTimeModel::new(&bounds, 5.0, 0.1, 0);
/// let bb = CostedFunction::new("bump", bounds.clone(), time, |x: &[f64]| {
///     -(x[0] - 0.7) * (x[0] - 0.7)
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let init = sampling::latin_hypercube(&bounds, 6, &mut rng);
/// let mut policy = ThompsonSamplingPolicy::new(bounds, 128, 3);
/// let r = VirtualExecutor::run_sequential(&bb, &init, 30, &mut policy);
/// assert!(r.best_value() > -0.02);
/// # Ok(())
/// # }
/// ```
pub struct ThompsonSamplingPolicy {
    surrogate: SurrogateManager,
    rng: StdRng,
    candidates: usize,
    fallbacks: usize,
}

impl ThompsonSamplingPolicy {
    /// Creates a TS policy drawing over `candidates` random points per
    /// selection (clamped to at least 8).
    pub fn new(bounds: Bounds, candidates: usize, seed: u64) -> Self {
        Self::with_configs(bounds, candidates, seed, SurrogateConfig::default())
    }

    /// Full-configuration constructor (TS has no acquisition maximizer, so
    /// only the surrogate settings apply).
    pub fn with_configs(
        bounds: Bounds,
        candidates: usize,
        seed: u64,
        surrogate: SurrogateConfig,
    ) -> Self {
        ThompsonSamplingPolicy {
            surrogate: SurrogateManager::new(bounds, SurrogateConfig { seed, ..surrogate }),
            rng: StdRng::seed_from_u64(seed ^ 0x7503_0001),
            candidates: candidates.max(8),
            fallbacks: 0,
        }
    }

    /// Surrogate-fit fallback count (should stay 0).
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// One exact Thompson draw over a fresh candidate set; returns the
    /// winning point in unit coordinates.
    fn thompson_argmax(&mut self, gp: &Gp) -> Vec<f64> {
        let unit = Bounds::unit_cube(gp.dim()).expect("dim > 0");
        let cands = sampling::latin_hypercube(&unit, self.candidates, &mut self.rng);
        let m = cands.len();
        // Joint posterior over the candidate set.
        let mut mu = Vector::zeros(m);
        let mut cov = Matrix::zeros(m, m);
        for i in 0..m {
            let (mean_i, _) = gp.predict_standardized(&cands[i]);
            mu[i] = mean_i;
        }
        // Posterior covariance via the joint formula; O(m²·n + m³) — kept
        // affordable by the candidate budget.
        let cross: Vec<Vector> = cands
            .iter()
            .map(|c| gp.posterior_cross_weights(c))
            .collect();
        let prior = gp.kernel().covariance(gp.theta(), &cands);
        for i in 0..m {
            for j in 0..=i {
                let v = prior[(i, j)] - cross[i].dot(&cross[j]);
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        // Regularize and factor.
        cov.add_diagonal(1e-9);
        let sample = match Cholesky::new(&cov) {
            Ok(chol) => {
                let z = Vector::from_iter((0..m).map(|_| standard_normal(&mut self.rng)));
                let mut draw = mu.clone();
                // draw = mu + L z
                let l = chol.factor();
                for i in 0..m {
                    let mut acc = 0.0;
                    for k in 0..=i {
                        acc += l[(i, k)] * z[k];
                    }
                    draw[i] += acc;
                }
                draw
            }
            Err(_) => mu, // fall back to the mean if Σ is degenerate
        };
        let best = sample.argmax().unwrap_or(0);
        cands[best].clone()
    }
}

/// Box–Muller standard normal draw.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl AsyncPolicy for ThompsonSamplingPolicy {
    fn select_next(&mut self, data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        if data.is_empty() {
            return self.surrogate.bounds().sample_uniform(&mut self.rng);
        }
        let gp = match self.surrogate.surrogate(data) {
            Ok(gp) => gp.clone(),
            Err(_) => {
                self.fallbacks += 1;
                return self.surrogate.bounds().sample_uniform(&mut self.rng);
            }
        };
        let u = self.thompson_argmax(&gp);
        self.surrogate.from_unit(&u)
    }
}

/// GP-Hedge portfolio (Hoffman et al., UAI 2011): maintains multiplicative
/// weights over {EI, PI, UCB}; each round every expert nominates a point,
/// one is sampled by weight, and every expert is rewarded by the posterior
/// mean at *its own* nominee.
pub struct PortfolioPolicy {
    surrogate: SurrogateManager,
    maximizer: AcqMaximizer,
    rng: StdRng,
    /// Log-weights of the experts (EI, PI, UCB).
    log_weights: [f64; 3],
    /// Hedge learning rate.
    eta: f64,
    fallbacks: usize,
}

impl PortfolioPolicy {
    /// Creates a portfolio policy with Hedge learning rate `eta`
    /// (1.0 is a reasonable default for standardized rewards).
    pub fn new(bounds: Bounds, eta: f64, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            eta,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor.
    pub fn with_configs(
        bounds: Bounds,
        eta: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let dim = bounds.dim();
        PortfolioPolicy {
            surrogate: SurrogateManager::new(bounds, SurrogateConfig { seed, ..surrogate }),
            maximizer: AcqMaximizer::new(dim, acq_opt),
            rng: StdRng::seed_from_u64(seed ^ 0x90f7_0002),
            log_weights: [0.0; 3],
            eta,
            fallbacks: 0,
        }
    }

    /// Current normalized expert weights (EI, PI, UCB).
    pub fn weights(&self) -> [f64; 3] {
        let max = self
            .log_weights
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = self.log_weights.iter().map(|w| (w - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        [exps[0] / sum, exps[1] / sum, exps[2] / sum]
    }

    /// Surrogate-fit fallback count (should stay 0).
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }
}

impl AsyncPolicy for PortfolioPolicy {
    fn select_next(&mut self, data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        if data.is_empty() {
            return self.surrogate.bounds().sample_uniform(&mut self.rng);
        }
        let gp = match self.surrogate.surrogate(data) {
            Ok(gp) => gp.clone(),
            Err(_) => {
                self.fallbacks += 1;
                return self.surrogate.bounds().sample_uniform(&mut self.rng);
            }
        };
        let best = data.best_value();
        // Every expert nominates.
        let nominees: Vec<Vec<f64>> = (0..3)
            .map(|e| {
                let gp_ref = &gp;
                self.maximizer.maximize(&mut self.rng, move |p| match e {
                    0 => acquisition::expected_improvement(gp_ref, p, best),
                    1 => acquisition::probability_of_improvement(gp_ref, p, best),
                    _ => acquisition::ucb(gp_ref, p, 2.0),
                })
            })
            .collect();
        // Hedge update: reward = posterior mean at the nominee.
        for (e, nominee) in nominees.iter().enumerate() {
            let (mu, _) = gp.predict_standardized(nominee);
            self.log_weights[e] += self.eta * mu;
        }
        // Sample the expert to follow.
        let w = self.weights();
        let r: f64 = self.rng.gen();
        let chosen = if r < w[0] {
            0
        } else if r < w[0] + w[1] {
            1
        } else {
            2
        };
        self.surrogate.from_unit(&nominees[chosen])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::BlackBox as _;
    use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};

    fn bb_1d() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let time = SimTimeModel::new(&bounds, 5.0, 0.1, 0);
        CostedFunction::new("bump", bounds, time, |x: &[f64]| {
            -(x[0] - 0.63) * (x[0] - 0.63)
        })
    }

    fn init_points(bounds: &Bounds, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        sampling::latin_hypercube(bounds, n, &mut rng)
    }

    #[test]
    fn thompson_sampling_converges() {
        let bb = bb_1d();
        let bounds = bb.bounds().clone();
        let mut policy = ThompsonSamplingPolicy::new(bounds.clone(), 128, 1);
        let r = VirtualExecutor::run_sequential(&bb, &init_points(&bounds, 6, 1), 35, &mut policy);
        assert!(r.best_value() > -0.005, "TS best {}", r.best_value());
        assert_eq!(policy.fallbacks(), 0);
    }

    #[test]
    fn thompson_draws_are_diverse_early() {
        // With little data, consecutive TS selections should differ (each
        // draw is a different posterior sample).
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        data.push(vec![0.2], 0.1);
        data.push(vec![0.8], 0.2);
        let mut policy = ThompsonSamplingPolicy::new(bounds, 64, 2);
        let picks: Vec<f64> = (0..6).map(|_| policy.select_next(&data, &[])[0]).collect();
        let spread = picks.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - picks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.05, "TS collapsed: {picks:?}");
    }

    #[test]
    fn portfolio_converges_and_adapts_weights() {
        let bb = bb_1d();
        let bounds = bb.bounds().clone();
        let mut policy = PortfolioPolicy::new(bounds.clone(), 1.0, 3);
        let r = VirtualExecutor::run_sequential(&bb, &init_points(&bounds, 6, 3), 35, &mut policy);
        assert!(r.best_value() > -0.005, "portfolio best {}", r.best_value());
        let w = policy.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x > 0.0));
        assert_eq!(policy.fallbacks(), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
