//! The per-layer metrics of a traced run, and their accumulation over
//! passes.

use std::collections::HashMap;

use crate::report::Report;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.propose_count", "count"),
    ("core.propose_ms", "ms"),
    ("core.policy_self_ms", "ms"),
    ("opt.acquisition_ms", "ms"),
    ("opt.nm_refine_ms", "ms"),
    ("opt.acq_evals", "count"),
    ("opt.acq_evals_per_proposal", "count"),
    ("opt.acq_restarts", "count"),
    ("gp.refit_count", "count"),
    ("gp.refit_ms", "ms"),
    ("gp.lbfgs_ms", "ms"),
    ("gp.nll_evals", "count"),
    ("gp.nll_evals_per_refit", "count"),
    ("gp.kernel_evals", "count"),
    ("gp.kernel_build_ms", "ms"),
    ("gp.batch_predict_ms", "ms"),
    ("linalg.cholesky_full_count", "count"),
    ("linalg.cholesky_ms", "ms"),
    ("linalg.cholesky_update_count", "count"),
    ("linalg.cholesky_update_ms", "ms"),
    ("linalg.cholesky_downdate_count", "count"),
    ("linalg.cholesky_downdate_ms", "ms"),
    ("linalg.jitter_bumps", "count"),
    ("exec.session_steps", "count"),
    ("exec.dispatch_ms", "ms"),
    ("exec.utilization", "frac"),
    ("circuits.eval_count", "count"),
    ("circuits.eval_ms", "ms"),
    ("service.asks", "count"),
    ("service.tells", "count"),
    ("service.stale_tells", "count"),
    ("service.nowork_replies", "count"),
    ("service.useful_ask_ratio", "frac"),
    ("service.ask_rpc_us_p50", "us"),
    ("service.tell_rpc_us_p50", "us"),
    ("service.bytes_per_cycle", "bytes"),
    ("service.evictions", "count"),
    ("service.rehydrations", "count"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_rpc_us_p50", "us"),
    ("persist.snapshot_bytes", "bytes"),
    ("telemetry.tracing_overhead_frac", "frac"),
    ("telemetry.attributed_frac", "frac"),
];

/// Per-pass values summed over traced passes (reported as the mean per
/// pass), plus values computed once over the whole run.
#[derive(Default)]
pub struct LayerSums {
    pub passes: usize,
    sums: HashMap<&'static str, f64>,
    whole_run: HashMap<&'static str, f64>,
}

impl LayerSums {
    /// Adds one pass's value of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Sets a value computed over the whole run (a pooled percentile, a
    /// ratio of medians).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.whole_run.insert(name, value);
    }

    /// Mean per pass of `name`.
    pub fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.passes.max(1) as f64
    }

    /// Adds every metric of `layers` to `report`; a layer the workload
    /// does not exercise reads 0.
    pub fn report_into(&self, report: &mut Report, layers: &[(&'static str, &'static str)]) {
        for &(name, unit) in layers {
            let (value, basis) = if let Some(&v) = self.whole_run.get(name) {
                (v, format!("over {} traced runs", self.passes))
            } else if self.sums.contains_key(name) {
                (
                    self.mean(name),
                    format!("mean of {} traced runs", self.passes),
                )
            } else {
                (0.0, "not exercised by this workload".to_string())
            };
            report.add(name, value, unit, basis);
        }
    }
}
