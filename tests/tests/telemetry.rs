//! Cross-crate telemetry integration tests: the event stream emitted by
//! a run must be a faithful, replayable record of that run.
//!
//! The headline acceptance check is exact reconstruction: a JSONL sink
//! attached to an optimizer run yields events from which
//! `replay::best_so_far_csv` regenerates `RunTrace::to_csv()`
//! byte-for-byte (the paper's Fig. 4/6 trace format).

use std::io::Write;
use std::sync::{Arc, Mutex};

use easybo::{Algorithm, EasyBo, RunSetup};
use easybo_exec::{
    AsyncPolicy, BlackBox, BusyPoint, CostedFunction, Dataset, SimTimeModel, SyncBatchPolicy,
    ThreadedExecutor, VirtualExecutor,
};
use easybo_opt::Bounds;
use easybo_telemetry::replay::{best_so_far_csv, parse_jsonl};
use easybo_telemetry::{Event, JsonlSink, Telemetry, TimedEvent};

/// `Write` target shareable between a `JsonlSink` (owned by the
/// telemetry handle) and the test that wants to read it back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 jsonl")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn toy_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 50.0, 0.4, 11);
    CostedFunction::new("toy", bounds, time, |x: &[f64]| {
        -(x[0] - 0.3).powi(2) - (x[1] - 0.6).powi(2)
    })
}

struct Walker(f64);
impl AsyncPolicy for Walker {
    fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
        self.0 = (self.0 + 0.17) % 1.0;
        vec![self.0, 1.0 - self.0]
    }
}
impl SyncBatchPolicy for Walker {
    fn select_batch(&mut self, d: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        (0..batch_size)
            .map(|_| AsyncPolicy::select_next(self, d, &[]))
            .collect()
    }
}

fn init_points() -> Vec<Vec<f64>> {
    vec![
        vec![0.1, 0.9],
        vec![0.5, 0.5],
        vec![0.9, 0.1],
        vec![0.3, 0.2],
    ]
}

/// The tentpole acceptance criterion: a full optimizer run (GP refits,
/// acquisition events and all) through the virtual executor, recorded to
/// JSONL, reconstructs the run trace CSV *exactly*.
#[test]
fn jsonl_reconstruction_equals_trace_csv_for_full_optimizer_run() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(3)
        .max_evals(14)
        .initial_points(6)
        .seed(5)
        .telemetry(telemetry);
    let result = opt
        .run(|x| -(x[0].powi(2) + x[1].powi(2)))
        .expect("run succeeds");

    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    // The stream carries more than evaluations: refits and acquisition
    // optimizations from inside the policy must be interleaved.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::GpRefit { .. })),
        "expected GpRefit events in the stream"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::AcqOptimized { .. })),
        "expected AcqOptimized events in the stream"
    );
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());

    // The end-of-run report mirrors the schedule.
    assert_eq!(result.report.completed, 14);
    assert!(result.report.workers >= 1);
    assert!((result.report.utilization - result.schedule.utilization()).abs() < 1e-12);
}

#[test]
fn jsonl_reconstruction_equals_trace_csv_for_sync_executor() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bb = toy_blackbox();
    let result = VirtualExecutor::new(3).run_sync_with(
        &bb,
        &init_points(),
        13,
        &mut Walker(0.0),
        &telemetry,
    );
    telemetry.flush();

    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());
}

#[test]
fn jsonl_reconstruction_equals_trace_csv_for_threaded_executor() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bb = toy_blackbox();
    let result = ThreadedExecutor::new(3, 1e-5)
        .run_async_with(&bb, &init_points(), 11, &mut Walker(0.0), &telemetry)
        .expect("threaded run succeeds");
    telemetry.flush();

    // `EvalFinished` is stamped with the same (monotone-clamped) time
    // `trace.record` uses, so reconstruction is exact even with real
    // threads finishing out of order.
    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());
}

fn spans_by_task(
    schedule: &easybo_exec::Schedule,
) -> std::collections::HashMap<usize, (usize, f64, f64)> {
    schedule
        .spans()
        .iter()
        .map(|s| (s.task, (s.worker, s.start, s.end)))
        .collect()
}

/// `(worker, event time)` for the start and finish of one task.
type TaskTimes = (Option<(usize, f64)>, Option<(usize, f64)>);

fn events_by_task(events: &[TimedEvent]) -> std::collections::HashMap<usize, TaskTimes> {
    let mut map: std::collections::HashMap<usize, TaskTimes> = std::collections::HashMap::new();
    for ev in events {
        match ev.event {
            Event::EvalStarted { task, worker } => {
                map.entry(task).or_default().0 = Some((worker, ev.time));
            }
            Event::EvalFinished { task, worker, .. } => {
                map.entry(task).or_default().1 = Some((worker, ev.time));
            }
            _ => {}
        }
    }
    map
}

/// Under the virtual executor the event stream must agree with the
/// schedule span-for-span: same worker, start and end times.
#[test]
fn virtual_event_ordering_matches_schedule_spans() {
    let (telemetry, recorder) = Telemetry::recording();
    let bb = toy_blackbox();
    let result = VirtualExecutor::new(3).run_async_with(
        &bb,
        &init_points(),
        12,
        &mut Walker(0.0),
        &telemetry,
    );

    let spans = spans_by_task(&result.schedule);
    let observed = events_by_task(&recorder.events());
    assert_eq!(spans.len(), 12);
    assert_eq!(observed.len(), 12);
    for (task, &(worker, start, end)) in &spans {
        let (started, finished) = observed[task];
        let (sw, st) = started.expect("EvalStarted for every span");
        let (fw, ft) = finished.expect("EvalFinished for every span");
        assert_eq!(sw, worker, "task {task} started on wrong worker");
        assert_eq!(fw, worker, "task {task} finished on wrong worker");
        assert_eq!(st, start, "task {task} start time mismatch");
        assert_eq!(ft, end, "task {task} finish time mismatch");
    }
}

/// Under the threaded executor `EvalStarted` must carry the exact span
/// start (the worker stamps both), and `EvalFinished` may only be
/// clamped *forward* relative to the span end.
#[test]
fn threaded_event_ordering_matches_schedule_spans() {
    let (telemetry, recorder) = Telemetry::recording();
    let bb = toy_blackbox();
    let result = ThreadedExecutor::new(3, 1e-5)
        .run_async_with(&bb, &init_points(), 10, &mut Walker(0.0), &telemetry)
        .expect("threaded run succeeds");

    let spans = spans_by_task(&result.schedule);
    let observed = events_by_task(&recorder.events());
    assert_eq!(spans.len(), 10);
    assert_eq!(observed.len(), 10);
    for (task, &(worker, start, end)) in &spans {
        let (started, finished) = observed[task];
        let (sw, st) = started.expect("EvalStarted for every span");
        let (fw, ft) = finished.expect("EvalFinished for every span");
        assert_eq!(sw, worker, "task {task} started on wrong worker");
        assert_eq!(fw, worker, "task {task} finished on wrong worker");
        assert_eq!(st, start, "task {task} start time mismatch");
        assert!(
            ft >= end && ft >= st,
            "task {task}: finish event at {ft} vs span [{start}, {end}]"
        );
    }
}

/// Regression for the busy-set fix: in-flight points are keyed by task
/// id, so several workers evaluating the *same* `x` stay individually
/// tracked. With the old `x`-keyed removal, one completion wiped every
/// duplicate and the policy saw an empty busy set.
#[test]
fn duplicate_x_busy_points_are_removed_one_at_a_time() {
    struct SamePoint {
        busy_seen: Vec<usize>,
    }
    impl AsyncPolicy for SamePoint {
        fn select_next(&mut self, _d: &Dataset, b: &[BusyPoint]) -> Vec<f64> {
            self.busy_seen.push(b.len());
            vec![0.42, 0.42]
        }
    }

    let bb = toy_blackbox();
    let mut policy = SamePoint {
        busy_seen: Vec::new(),
    };
    // Distinct initial points desynchronize the three workers; every
    // proposal afterwards is the identical duplicate point.
    let result = VirtualExecutor::new(3).run_async(
        &bb,
        &[vec![0.1, 0.9], vec![0.5, 0.5], vec![0.9, 0.1]],
        12,
        &mut policy,
    );
    assert_eq!(result.data.len(), 12);
    assert_eq!(policy.busy_seen.len(), 9);
    // At every selection exactly the other two workers are in flight —
    // even once all in-flight points share the same coordinates.
    assert!(
        policy.busy_seen.iter().all(|&n| n == 2),
        "busy counts seen by the policy: {:?}",
        policy.busy_seen
    );
}

/// The run report attached to `OptimizationResult` aggregates the
/// summary sensibly: shares within [0, 1], idle fraction consistent
/// with utilization.
#[test]
fn run_report_shares_are_consistent() {
    let telemetry = Telemetry::new();
    let bounds = Bounds::unit_cube(2).unwrap();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(2)
        .max_evals(12)
        .initial_points(5)
        .seed(3)
        .telemetry(telemetry);
    let result = opt
        .run(|x| -(x[0] - 0.4).powi(2) - (x[1] - 0.5).powi(2))
        .expect("run succeeds");

    let r = &result.report;
    assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-12);
    assert!((r.idle_fraction - (1.0 - r.utilization)).abs() < 1e-9);
    assert!(r.gp_fit_share.expect("telemetry was enabled") >= 0.0);
    assert!(r.acq_share.expect("telemetry was enabled") >= 0.0);
    assert!(r.makespan > 0.0);
    let s = r.summary.as_ref().expect("telemetry was enabled");
    assert_eq!(s.evals_finished, 12);
    assert!(s.gp_refits > 0);
    assert!(s.acq_optimizations > 0);
    // The Display form is the human entry point; it should mention the
    // headline numbers.
    let text = format!("{r}");
    assert!(text.contains("utilization"), "report text: {text}");
}

/// Every way of running EasyBO emits the same model-layer telemetry: a
/// registry run (`Algorithm::run_with`, the path behind the Table
/// benches) attaches `RunSetup::telemetry` to the policy, so it reports
/// exactly the refits and acquisition optimizations of the equivalent
/// `EasyBo` builder run.
#[test]
fn registry_and_builder_runs_emit_the_same_model_events() {
    let count = |events: &[TimedEvent]| {
        let refits = events
            .iter()
            .filter(|e| matches!(e.event, Event::GpRefit { .. }))
            .count();
        let acqs = events
            .iter()
            .filter(|e| matches!(e.event, Event::AcqOptimized { .. }))
            .count();
        (refits, acqs)
    };
    let bb = toy_blackbox();

    let (telemetry, recorder) = Telemetry::recording();
    let mut setup = RunSetup::new(3, 12, 4, 0, 9);
    setup.telemetry = telemetry.clone();
    let registry = Algorithm::EasyBo.run_with(&bb, &setup);
    telemetry.flush();
    let registry_counts = count(&recorder.events());

    let (telemetry, recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(bb.bounds().clone());
    opt.batch_size(3)
        .initial_points(4)
        .max_evals(12)
        .seed(9)
        .telemetry(telemetry.clone());
    let builder = opt.run_blackbox(&bb).expect("builder run completes");
    telemetry.flush();
    let builder_counts = count(&recorder.events());

    assert_eq!(registry.trace.to_csv(), builder.trace.to_csv());
    assert!(registry_counts.0 > 0, "registry run emitted no GpRefit");
    assert!(
        registry_counts.1 > 0,
        "registry run emitted no AcqOptimized"
    );
    assert_eq!(registry_counts, builder_counts);
}
