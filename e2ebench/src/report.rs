//! What one benchmark run reports: named metrics plus the tally of
//! attempted and failed operations.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed (sample count, base of a ratio).
    pub basis: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check, for the human-readable log.
    pub problems: Vec<String>,
    /// Figures printed for reference only, not part of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric; a non-finite value is a failed check and reads 0.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.check(value.is_finite(), || format!("{name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(what());
        }
    }

    /// The human-readable table followed by the one-line JSON result.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "# {workload} seed={seed} trace={} attempted={} failed={}",
            u8::from(trace),
            self.attempted,
            self.failed
        );
        for p in &self.problems {
            println!("# FAILED: {p}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.basis);
        }
        for n in &self.notes {
            println!("# {n}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting gives (`add` keeps values finite).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
