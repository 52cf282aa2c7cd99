//! Layer timing from outside the program, through its public trait
//! boundaries: a wrapper policy, a wrapper black box, and an event sink
//! that stamps wall-clock instants on the span events the program emits.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use easybo_exec::{AsyncPolicy, AttemptContext, BlackBox, BusyPoint, Dataset, Evaluation};
use easybo_opt::Bounds;
use easybo_telemetry::{Event, EventSink, TimedEvent};

use crate::calib::{compute_sample, program_cpu};

/// Times every `select_next` of the wrapped policy, on the wall clock
/// and on the program CPU clock; when calibrating, takes a host-speed
/// reference sample before each.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn AsyncPolicy,
    calibrate: bool,
    pub samples: Vec<Duration>,
    pub cpu: Vec<Duration>,
    /// Reference samples ([`compute_sample`]), one per proposal.
    pub refs: Vec<Duration>,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a mut dyn AsyncPolicy, calibrate: bool) -> Self {
        TimedPolicy {
            inner,
            calibrate,
            samples: Vec::new(),
            cpu: Vec::new(),
            refs: Vec::new(),
        }
    }
}

impl AsyncPolicy for TimedPolicy<'_> {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        if self.calibrate {
            self.refs.push(compute_sample());
        }
        let (t0, c0) = (Instant::now(), program_cpu());
        let x = self.inner.select_next(data, busy);
        self.cpu.push(program_cpu() - c0);
        self.samples.push(t0.elapsed());
        x
    }
}

/// One evaluation: its wall-clock start and end, and the program CPU
/// clock at its end.
#[derive(Debug, Clone, Copy)]
pub struct EvalStamp {
    pub start: Instant,
    pub end: Instant,
    pub cpu_end: Duration,
}

/// Records an [`EvalStamp`] for every evaluation of the wrapped black box.
pub struct TimedBox<'a> {
    inner: &'a dyn BlackBox,
    calls: Mutex<Vec<EvalStamp>>,
}

impl<'a> TimedBox<'a> {
    pub fn new(inner: &'a dyn BlackBox) -> Self {
        TimedBox {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Each evaluation's stamp, in call order.
    pub fn calls(&self) -> Vec<EvalStamp> {
        self.calls.lock().expect("timing log poisoned").clone()
    }

    fn timed(&self, f: impl FnOnce() -> Evaluation) -> Evaluation {
        let start = Instant::now();
        let e = f();
        let end = Instant::now();
        let cpu_end = program_cpu();
        self.calls
            .lock()
            .expect("timing log poisoned")
            .push(EvalStamp {
                start,
                end,
                cpu_end,
            });
        e
    }
}

impl BlackBox for TimedBox<'_> {
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.timed(|| self.inner.evaluate(x))
    }

    fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> Evaluation {
        self.timed(|| self.inner.evaluate_attempt(x, ctx))
    }
}

/// One closed span with wall-clock stamps.
#[derive(Debug, Clone)]
pub struct WallSpan {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

impl WallSpan {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Default)]
struct SpanLog {
    open: HashMap<u64, (u64, String, Instant)>,
    closed: Vec<WallSpan>,
}

/// Event sink that stamps `Instant::now()` on `SpanStart`/`SpanEnd`
/// and keeps the closed spans in memory.
#[derive(Clone, Default)]
pub struct SpanClock {
    log: Arc<Mutex<SpanLog>>,
}

impl SpanClock {
    /// Takes the spans closed so far and clears the log.
    pub fn take(&self) -> Vec<WallSpan> {
        let mut log = self.log.lock().expect("span log poisoned");
        log.open.clear();
        std::mem::take(&mut log.closed)
    }
}

impl EventSink for SpanClock {
    fn record(&self, ev: &TimedEvent) {
        let now = Instant::now();
        match &ev.event {
            Event::SpanStart { id, parent, name } => {
                let mut log = self.log.lock().expect("span log poisoned");
                log.open.insert(*id, (*parent, name.to_string(), now));
            }
            Event::SpanEnd { id } => {
                let mut log = self.log.lock().expect("span log poisoned");
                if let Some((parent, name, start)) = log.open.remove(id) {
                    log.closed.push(WallSpan {
                        id: *id,
                        parent,
                        name,
                        start,
                        end: now,
                    });
                }
            }
            _ => {}
        }
    }
}

/// Per-span-name totals over one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total: Duration,
    /// Sum of span durations minus the time their direct child spans cover.
    pub self_time: Duration,
}

/// Totals per span name, plus the summed duration of root spans.
pub struct SpanProfile {
    by_name: HashMap<String, SpanTotals>,
    pub roots: Duration,
}

impl SpanProfile {
    pub fn from_spans(spans: &[WallSpan]) -> Self {
        let mut child_time: HashMap<u64, Duration> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_time.entry(s.parent).or_default() += s.duration();
        }
        let mut by_name: HashMap<String, SpanTotals> = HashMap::new();
        let mut roots = Duration::ZERO;
        for s in spans {
            let d = s.duration();
            let children = child_time.get(&s.id).copied().unwrap_or_default();
            let t = by_name.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total += d;
            t.self_time += d.saturating_sub(children);
            if s.parent == 0 {
                roots += d;
            }
        }
        SpanProfile { by_name, roots }
    }

    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}
