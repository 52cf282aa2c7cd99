//! The deterministic discrete-event loop behind the virtual executor
//! and the session manager.
//!
//! [`EventLoop`] owns a [`SessionState`], its event heap, the event
//! sequence counter, and the queue of outstanding dispatches. A
//! dispatch registers an attempt (busy point, in-flight record,
//! `QueryIssued`/`EvalStarted`) and reserves its sequence number; its
//! result — `(value, cost, outcome)` — is either available at once (an
//! *eager* evaluation against a local black box, as in
//! [`crate::VirtualExecutor`]) or arrives later through
//! [`EventLoop::resolve`] (a remote worker reporting back to a session
//! service). Three rules make both cases produce the same trajectory:
//!
//! - **Reserve at dispatch.** The finish event's sequence number is
//!   taken when the attempt is dispatched, not when its cost is known.
//! - **Fold in dispatch order.** Results are folded strictly from the
//!   front of the outstanding queue; each fold applies the timeout
//!   clamp, records the worker span, and pushes the finish event. Span
//!   insertion order therefore never depends on when results arrive.
//! - **Stall on a missing result.** No event is popped while any
//!   dispatch lacks its result: the missing finish time could precede
//!   (or tie with) the heap top.
//!
//! Evaluation is pure — value, cost, and outcome are functions of the
//! query point and attempt — so when, or over which connection, a
//! result arrives cannot change it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use easybo_opt::OptError;
use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::{AttemptContext, EvalOutcome};
use crate::retry::RetryPolicy;
use crate::session::{HookAction, SessionHook, SessionState, Told};
use crate::virtual_exec::AsyncPolicy;
use crate::BlackBox;

/// Heap entry, ordered earliest-first with worker/task/sequence
/// tie-breaking for determinism. Under a no-retry policy the sequence
/// number never decides (each `(time, worker, task)` triple is
/// unique).
#[derive(Debug)]
struct Scheduled {
    time: f64,
    worker: usize,
    task: usize,
    seq: usize,
    kind: Due,
}

#[derive(Debug)]
enum Due {
    /// An attempt's completion (successful or not). The query point
    /// lives in the session's in-flight table, keyed by task — which is
    /// what makes the heap reconstructible from a snapshot on resume.
    Finish {
        value: f64,
        attempt: usize,
        outcome: EvalOutcome,
    },
    /// A backoff expiry: begin the next attempt of a failed task (the
    /// point and attempt number live in the session's backoff table).
    Retry,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.worker.cmp(&self.worker))
            .then(other.task.cmp(&self.task))
            .then(other.seq.cmp(&self.seq))
    }
}

/// One dispatched attempt that has not been folded yet.
#[derive(Debug)]
pub struct Dispatch {
    /// Task id.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    /// Virtual worker slot.
    pub worker: usize,
    /// Query point.
    pub x: Vec<f64>,
    /// Virtual start time (the event time of the pop that issued it).
    start: f64,
    /// Sequence number reserved for the finish event.
    seq: usize,
    /// `(value, cost, outcome)` once known.
    result: Option<(f64, f64, EvalOutcome)>,
}

/// The discrete-event loop over one [`SessionState`]. See the module
/// docs for the ordering rules.
#[derive(Debug)]
pub struct EventLoop {
    session: SessionState,
    heap: BinaryHeap<Scheduled>,
    seq: usize,
    outstanding: VecDeque<Dispatch>,
}

impl EventLoop {
    /// A loop over `session` with nothing dispatched yet; follow with
    /// [`EventLoop::start`] (fresh session) or [`EventLoop::resume`]
    /// (captured session).
    pub fn new(session: SessionState) -> Self {
        EventLoop {
            session,
            heap: BinaryHeap::new(),
            seq: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// Fills every worker at `t = 0` while the budget allows. With
    /// `eval`, each attempt is evaluated at dispatch; without it, the
    /// results are left for [`EventLoop::resolve`].
    pub fn start(
        &mut self,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        eval: Option<&dyn BlackBox>,
    ) {
        for w in 0..self.session.workers() {
            if self.session.issued() >= self.session.max_evals() {
                break;
            }
            self.issue(w, 0.0, policy, telemetry, eval);
        }
    }

    /// Continues a captured session: every in-flight attempt is
    /// re-dispatched at its recorded worker/start (evaluation is pure,
    /// so its span, busy point, and finish event come back
    /// bit-identical; attempts never started restart at the capture
    /// clock on a deterministic worker), then every pending backoff is
    /// re-armed as a retry event.
    pub fn resume(&mut self, telemetry: &Telemetry, eval: Option<&dyn BlackBox>) {
        let workers = self.session.workers();
        let clock = self.session.clock();
        for inf in self.session.drain_inflight() {
            let (worker, start) = inf.started.unwrap_or((inf.task % workers, clock));
            self.dispatch(worker, start, inf.task, inf.x, inf.attempt, telemetry, eval);
        }
        // The backoff records stay in the session; the retry event
        // consumes them.
        for i in 0..self.session.backoffs().len() {
            let b = &self.session.backoffs()[i];
            let (due, worker, task) = (b.due, b.worker, b.task);
            self.schedule_retry(due, worker, task);
        }
    }

    /// Records the result of the outstanding attempt `(task, attempt)`.
    /// Returns `false` — and changes nothing — when no unresolved
    /// dispatch matches (unknown, already resolved, or duplicate).
    pub fn resolve(
        &mut self,
        task: usize,
        attempt: usize,
        result: (f64, f64, EvalOutcome),
    ) -> bool {
        let Some(d) = self
            .outstanding
            .iter_mut()
            .find(|d| d.task == task && d.attempt == attempt && d.result.is_none())
        else {
            return false;
        };
        d.result = Some(result);
        true
    }

    /// Outstanding dispatches still waiting for their result, in
    /// dispatch order.
    pub fn unresolved(&self) -> impl Iterator<Item = &Dispatch> {
        self.outstanding.iter().filter(|d| d.result.is_none())
    }

    /// Runs the loop until it drains or stalls on a dispatch without a
    /// result. `hook` is invoked after every completed observation,
    /// once that event's follow-up dispatch is folded and before the
    /// next event is popped.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the hook aborts the
    /// run via [`HookAction::Stop`].
    pub fn run(
        &mut self,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        eval: Option<&dyn BlackBox>,
        mut hook: Option<&mut SessionHook<'_>>,
    ) -> Result<(), OptError> {
        let mut last_completed = self.session.completed();
        loop {
            self.fold(retry);
            if self.session.completed() > last_completed {
                last_completed = self.session.completed();
                if let Some(h) = hook.as_mut() {
                    let now = self.session.clock();
                    if let HookAction::Stop { reason } = (**h)(&self.session, &*policy, now) {
                        return Err(OptError::ExecutorFailure { reason });
                    }
                }
            }
            if !self.outstanding.is_empty() {
                return Ok(());
            }
            let Some(ev) = self.heap.pop() else {
                return Ok(());
            };
            self.session.clock = ev.time;
            match ev.kind {
                Due::Finish {
                    value,
                    attempt,
                    outcome,
                } => {
                    let Some(inf) = self.session.take_inflight(ev.task) else {
                        continue;
                    };
                    telemetry.set_now(ev.time);
                    let told = self.session.tell(
                        retry, telemetry, ev.time, ev.worker, ev.task, inf.x, value, attempt,
                        outcome,
                    );
                    match told {
                        Told::Committed | Told::Dropped => {
                            self.issue(ev.worker, ev.time, policy, telemetry, eval);
                        }
                        // The worker backs off with its task: the retry
                        // runs on the same worker once the delay elapses.
                        Told::Backoff { due } => self.schedule_retry(due, ev.worker, ev.task),
                    }
                }
                Due::Retry => {
                    if let Some(b) = self.session.take_backoff(ev.task) {
                        telemetry.set_now(ev.time);
                        let _span = telemetry.span("retry_backoff");
                        self.dispatch(ev.worker, ev.time, ev.task, b.x, b.attempt, telemetry, eval);
                    }
                }
            }
        }
    }

    /// Whether nothing is outstanding and no event is pending.
    pub fn is_done(&self) -> bool {
        self.heap.is_empty() && self.outstanding.is_empty()
    }

    /// The session the loop drives.
    pub fn session(&self) -> &SessionState {
        &self.session
    }

    /// Consumes the loop into its session.
    pub fn into_session(self) -> SessionState {
        self.session
    }

    /// Hands `worker` a new task — the next pending initial point or a
    /// fresh policy proposal — if the budget allows.
    fn issue(
        &mut self,
        worker: usize,
        now: f64,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        eval: Option<&dyn BlackBox>,
    ) {
        telemetry.set_now(now);
        if let Some(s) = self.session.ask_traced(policy, telemetry) {
            self.dispatch(worker, now, s.task, s.x, s.attempt, telemetry, eval);
        }
    }

    /// Registers one attempt and reserves its sequence number; with
    /// `eval`, the attempt is evaluated here, inside the `dispatch`
    /// span.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        worker: usize,
        start: f64,
        task: usize,
        x: Vec<f64>,
        attempt: usize,
        telemetry: &Telemetry,
        eval: Option<&dyn BlackBox>,
    ) {
        telemetry.set_now(start);
        let _span = telemetry.span("dispatch");
        telemetry.emit_at_with(start, || Event::QueryIssued { task, worker });
        telemetry.emit_at_with(start, || Event::EvalStarted { task, worker });
        let result = eval.map(|bb| {
            let ctx = AttemptContext {
                task,
                attempt,
                worker,
                panics_caught: false,
            };
            let e = bb.evaluate_attempt(&x, ctx);
            (e.value, e.cost, e.resolved_outcome())
        });
        self.session
            .begin(task, attempt, x.clone(), worker, Some(start));
        let seq = self.next_seq();
        self.outstanding.push_back(Dispatch {
            task,
            attempt,
            worker,
            x,
            start,
            seq,
            result,
        });
    }

    /// Folds resolved dispatches from the front of the queue: timeout
    /// clamp, worker span, finish event.
    fn fold(&mut self, retry: &RetryPolicy) {
        while self.outstanding.front().is_some_and(|d| d.result.is_some()) {
            let d = self.outstanding.pop_front().expect("front exists");
            let (value, mut cost, mut outcome) = d.result.expect("checked above");
            if let Some(deadline) = retry.timeout {
                if cost > deadline {
                    // The job system abandons the attempt at the
                    // deadline; the worker is occupied only until then.
                    cost = deadline;
                    outcome = EvalOutcome::TimedOut;
                }
            }
            let finish = d.start + cost;
            self.session
                .schedule
                .add_with(d.worker, d.task, d.start, finish, !outcome.is_ok());
            self.heap.push(Scheduled {
                time: finish,
                worker: d.worker,
                task: d.task,
                seq: d.seq,
                kind: Due::Finish {
                    value,
                    attempt: d.attempt,
                    outcome,
                },
            });
        }
    }

    fn schedule_retry(&mut self, due: f64, worker: usize, task: usize) {
        let seq = self.next_seq();
        self.heap.push(Scheduled {
            time: due,
            worker,
            task,
            seq,
            kind: Due::Retry,
        });
    }

    fn next_seq(&mut self) -> usize {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusyPoint, CostedFunction, Dataset, SimTimeModel, VirtualExecutor};
    use easybo_opt::Bounds;

    struct Sweep;
    impl AsyncPolicy for Sweep {
        fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
            let n = (data.len() + busy.len()) as f64;
            vec![(0.13 + 0.07 * n).fract()]
        }
    }

    /// Results fed back last-dispatched first, one `run` per result:
    /// the loop folds nothing until the front dispatch resolves, and
    /// the finished session equals the eager run, retries and timeouts
    /// included.
    #[test]
    fn deferred_results_in_reverse_order_reproduce_the_eager_run() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.4, 5);
        let bb = CostedFunction::new("toy", bounds, time, |x: &[f64]| x[0]);
        let retry = RetryPolicy::default()
            .max_attempts(2)
            .backoff(3.0, 2.0)
            .timeout(11.0);
        let init = vec![vec![0.1], vec![0.9]];
        let t = Telemetry::disabled();
        let eager =
            VirtualExecutor::new(3).run_async_resilient(&bb, &init, 14, &mut Sweep, &retry, &t);
        assert!(eager.schedule.spans().iter().any(|s| s.failed));

        let mut core = EventLoop::new(SessionState::new(3, 14, &init));
        core.start(&mut Sweep, &t, None);
        while !core.is_done() {
            let pending: Vec<(usize, usize, usize, Vec<f64>)> = core
                .unresolved()
                .map(|d| (d.task, d.attempt, d.worker, d.x.clone()))
                .collect();
            assert!(!pending.is_empty(), "a live loop stalls only on a dispatch");
            for (i, (task, attempt, worker, x)) in pending.into_iter().enumerate().rev() {
                let ctx = AttemptContext {
                    task,
                    attempt,
                    worker,
                    panics_caught: false,
                };
                let e = bb.evaluate_attempt(&x, ctx);
                let spans = core.session().schedule().spans().len();
                let result = (e.value, e.cost, e.resolved_outcome());
                assert!(core.resolve(task, attempt, result.clone()));
                assert!(!core.resolve(task, attempt, result), "duplicate accepted");
                core.run(&mut Sweep, &retry, &t, None, None).unwrap();
                if i > 0 {
                    assert_eq!(core.session().schedule().spans().len(), spans);
                }
            }
        }
        let deferred = core.into_session().into_result();
        assert_eq!(deferred.trace, eager.trace);
        assert_eq!(deferred.data, eager.data);
        assert_eq!(deferred.schedule, eager.schedule);
    }
}
