//! The discrete-event engine.
//!
//! [`Engine`] is a cheaply-clonable handle (an `Rc` internally) to a shared
//! event queue. Components capture a clone and schedule boxed closures at
//! future virtual instants. Ties are broken by submission order, so a run is
//! fully deterministic given the same inputs.
//!
//! The queue itself is a slab heap (see [`crate::sched`]): a binary heap of
//! compact `(time, seq, node)` entries over a recycling slab of event
//! nodes. The seed `BinaryHeap` implementation is retained as a
//! differential oracle — build with the `reference-sched` feature (or call
//! [`set_default_scheduler`] / [`Engine::with_scheduler`]) to run on it and
//! compare traces event for event.
//!
//! Two driving styles are supported, matching how the paging workloads use
//! the simulator:
//!
//! * **run-to-condition** ([`Engine::run_until_signal`]): a page fault posts
//!   the I/O chain and then runs the engine until the completion [`Signal`]
//!   fires — virtual time jumps to the completion instant. Deadlocks (queue
//!   drained, signal never set) panic with a diagnostic rather than hanging.
//! * **advance** ([`Engine::advance`]): application compute moves the clock
//!   forward by a span, draining any events that fall inside it — this is
//!   what lets background page-out traffic overlap application compute, the
//!   paper's "asynchrony of page prefetching and flushing".

use crate::sched::{EventQueue, ReferenceHeap, SlabHeap};
use crate::signal::Signal;
use crate::time::{SimDuration, SimTime};
use simtrace::{LifecycleHub, MetricsRegistry, Tracer};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

pub use crate::sched::EventId;

/// Which event-queue implementation an [`Engine`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The production scheduler: a heap of `(time, seq, node)` entries
    /// over a slab of recycled event nodes.
    SlabHeap,
    /// The seed `BinaryHeap` scheduler, kept as a differential oracle.
    ReferenceHeap,
}

#[cfg(feature = "reference-sched")]
const BUILT_IN_DEFAULT: SchedulerKind = SchedulerKind::ReferenceHeap;
#[cfg(not(feature = "reference-sched"))]
const BUILT_IN_DEFAULT: SchedulerKind = SchedulerKind::SlabHeap;

thread_local! {
    static DEFAULT_SCHED: Cell<SchedulerKind> = const { Cell::new(BUILT_IN_DEFAULT) };
}

/// The scheduler new engines on this thread will use.
pub fn default_scheduler() -> SchedulerKind {
    DEFAULT_SCHED.with(|c| c.get())
}

/// Override the scheduler for engines subsequently created on this thread
/// (including those built deep inside scenario constructors). Returns the
/// previous default so tests can restore it. The process-wide default is the
/// slab heap, or the reference heap when the `reference-sched` feature is
/// enabled.
pub fn set_default_scheduler(kind: SchedulerKind) -> SchedulerKind {
    DEFAULT_SCHED.with(|c| c.replace(kind))
}

struct Inner {
    now: SimTime,
    seq: u64,
    queue: EventQueue,
    kind: SchedulerKind,
    executed: u64,
    /// Peak queue length observed (diagnostics / metrics).
    max_pending: usize,
    tracer: Tracer,
    metrics: MetricsRegistry,
    lifecycle: LifecycleHub,
}

/// Handle to the shared discrete-event queue. Clone freely; all clones refer
/// to the same virtual clock.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create a fresh engine with the clock at [`SimTime::ZERO`], on the
    /// thread's default scheduler (see [`set_default_scheduler`]).
    pub fn new() -> Engine {
        Engine::with_scheduler(default_scheduler())
    }

    /// Create a fresh engine on a specific scheduler implementation.
    pub fn with_scheduler(kind: SchedulerKind) -> Engine {
        let queue = match kind {
            SchedulerKind::SlabHeap => EventQueue::Slab(SlabHeap::new()),
            SchedulerKind::ReferenceHeap => EventQueue::Heap(ReferenceHeap::new()),
        };
        Engine {
            inner: Rc::new(RefCell::new(Inner {
                now: SimTime::ZERO,
                seq: 0,
                queue,
                kind,
                executed: 0,
                max_pending: 0,
                tracer: Tracer::disabled(),
                metrics: MetricsRegistry::new(),
                lifecycle: LifecycleHub::disabled(),
            })),
        }
    }

    /// Which scheduler this engine runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.inner.borrow().kind
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Total number of events executed so far (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.inner.borrow().executed
    }

    /// Number of events still pending (cancelled events excluded).
    pub fn pending_events(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.inner.borrow_mut().queue.peek_time()
    }

    /// Peak event-queue depth observed over the run (diagnostics).
    pub fn max_pending_events(&self) -> usize {
        self.inner.borrow().max_pending
    }

    /// The tracing handle shared by every component on this engine.
    /// Disabled (no-op) by default; cheap to clone.
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }

    /// Whether the installed tracer records anything. Hot emit sites guard
    /// on this before building span arguments, so an untraced run pays one
    /// borrow + flag test per would-be event instead of a `Tracer` clone.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.borrow().tracer.is_enabled()
    }

    /// Install a tracer: components constructed afterwards (and those
    /// that re-read [`Engine::tracer`]) record through it. Install before
    /// building the stack so all layers share one buffer.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// The request-lifecycle hub shared by every component on this engine.
    /// Disabled (no-op) by default; cheap to clone (an `Option<Rc>`).
    pub fn lifecycle(&self) -> LifecycleHub {
        self.inner.borrow().lifecycle.clone()
    }

    /// Whether the installed lifecycle hub records anything. Hot
    /// attribution sites guard on this before marshalling mark arguments,
    /// mirroring [`Engine::trace_enabled`].
    #[inline]
    pub fn lifecycle_enabled(&self) -> bool {
        self.inner.borrow().lifecycle.is_enabled()
    }

    /// Install a lifecycle hub: requests dispatched afterwards get span
    /// contexts and land in the hub's flight recorders. Install before
    /// building the stack, alongside [`Engine::set_tracer`].
    pub fn set_lifecycle(&self, hub: LifecycleHub) {
        self.inner.borrow_mut().lifecycle = hub;
    }

    /// The metrics registry shared by every component on this engine.
    /// Always present; recording is deterministic and does not perturb
    /// the simulation.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.borrow().metrics.clone()
    }

    /// Schedule `action` to run at absolute instant `at`. Scheduling in the
    /// past panics — it would silently corrupt causality.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + 'static) {
        self.schedule_cancellable_at(at, action);
    }

    /// Schedule `action` to run `delay` after the current instant.
    pub fn schedule_in(&self, delay: SimDuration, action: impl FnOnce() + 'static) {
        let at = self.now() + delay;
        self.schedule_at(at, action);
    }

    /// Like [`Engine::schedule_at`], returning a handle that can cancel the
    /// event before it runs (e.g. a request timeout disarmed on completion).
    pub fn schedule_cancellable_at(&self, at: SimTime, action: impl FnOnce() + 'static) -> EventId {
        let mut inner = self.inner.borrow_mut();
        assert!(
            at >= inner.now,
            "scheduled event at {at} before now ({})",
            inner.now
        );
        let seq = inner.seq;
        inner.seq += 1;
        let id = inner.queue.push(at, seq, Box::new(action));
        inner.max_pending = inner.max_pending.max(inner.queue.len());
        id
    }

    /// Like [`Engine::schedule_in`], returning a cancellation handle.
    pub fn schedule_cancellable_in(
        &self,
        delay: SimDuration,
        action: impl FnOnce() + 'static,
    ) -> EventId {
        let at = self.now() + delay;
        self.schedule_cancellable_at(at, action)
    }

    /// Cancel a pending event. Returns whether it was still pending; stale
    /// ids (already ran, already cancelled) are a no-op. The closure is
    /// dropped immediately so captured resources release deterministically.
    pub fn cancel(&self, id: EventId) -> bool {
        self.inner.borrow_mut().queue.cancel(id)
    }

    /// Pop and execute the next event, if any. Returns whether one ran.
    /// Public so schedulers can interleave event processing with task
    /// scheduling decisions.
    pub fn step_one(&self) -> bool {
        self.step()
    }

    /// Run events until ANY of `signals` fires. Panics on deadlock like
    /// [`Engine::run_until_signal`]. Useful when several tasks block on
    /// different I/O completions.
    pub fn run_until_any(&self, signals: &[Signal]) {
        assert!(!signals.is_empty(), "waiting on no signals");
        while !signals.iter().any(Signal::is_set) {
            if !self.step() {
                panic!(
                    "simulation deadlock: waiting on {} signals with no pending events at {}",
                    signals.len(),
                    self.now()
                );
            }
        }
    }

    /// Pop and execute the next event whose time is `<= deadline`.
    /// Returns whether one ran. Holds the borrow only while popping, so the
    /// action is free to schedule follow-up events.
    #[inline]
    fn step_due(&self, deadline: SimTime) -> bool {
        let action = {
            let mut inner = self.inner.borrow_mut();
            match inner.queue.pop_due(deadline) {
                Some((at, action)) => {
                    debug_assert!(at >= inner.now, "event queue went backwards");
                    inner.now = at;
                    inner.executed += 1;
                    action
                }
                None => return false,
            }
        };
        action();
        true
    }

    /// Pop and execute the next event, if any. Returns whether one ran.
    fn step(&self) -> bool {
        self.step_due(SimTime(u64::MAX))
    }

    /// Run until the event queue is empty. The clock rests on the timestamp
    /// of the last executed event.
    pub fn run_until_idle(&self) {
        while self.step() {}
    }

    /// Run events until `signal` fires. Panics if the queue drains first —
    /// that is a simulation deadlock (e.g. flow-control credits never
    /// returned), and hanging silently would hide the bug.
    pub fn run_until_signal(&self, signal: &Signal) {
        while !signal.is_set() {
            if !self.step() {
                panic!(
                    "simulation deadlock: waiting on signal `{}` with no pending events at {}",
                    signal.name(),
                    self.now()
                );
            }
        }
    }

    /// Advance the clock by `span`, executing every event that falls within
    /// it. Afterwards `now == old_now + span`, even if the queue still holds
    /// later events.
    pub fn advance(&self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Run events up to and including instant `deadline`, then set the clock
    /// to `deadline`.
    pub fn run_until(&self, deadline: SimTime) {
        while self.step_due(deadline) {}
        let mut inner = self.inner.borrow_mut();
        if inner.now < deadline {
            inner.now = deadline;
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Engine")
            .field("now", &inner.now)
            .field("pending", &inner.queue.len())
            .field("executed", &inner.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Run the test body on both schedulers so every engine-level invariant
    /// is checked against the oracle too.
    fn on_both(body: impl Fn(Engine)) {
        body(Engine::with_scheduler(SchedulerKind::SlabHeap));
        body(Engine::with_scheduler(SchedulerKind::ReferenceHeap));
    }

    #[test]
    fn events_run_in_time_order() {
        on_both(|eng| {
            let log: Rc<RefCell<Vec<u64>>> = Rc::default();
            for &t in &[30u64, 10, 20] {
                let log = log.clone();
                eng.schedule_at(SimTime(t), move || log.borrow_mut().push(t));
            }
            eng.run_until_idle();
            assert_eq!(*log.borrow(), vec![10, 20, 30]);
            assert_eq!(eng.now(), SimTime(30));
        });
    }

    #[test]
    fn ties_break_by_submission_order() {
        on_both(|eng| {
            let log: Rc<RefCell<Vec<u32>>> = Rc::default();
            for i in 0..5u32 {
                let log = log.clone();
                eng.schedule_at(SimTime(42), move || log.borrow_mut().push(i));
            }
            eng.run_until_idle();
            assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn events_can_schedule_events() {
        on_both(|eng| {
            let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
            {
                let eng2 = eng.clone();
                let log = log.clone();
                eng.schedule_at(SimTime(10), move || {
                    log.borrow_mut().push("first");
                    let log2 = log.clone();
                    eng2.schedule_in(SimDuration(5), move || log2.borrow_mut().push("second"));
                });
            }
            eng.run_until_idle();
            assert_eq!(*log.borrow(), vec!["first", "second"]);
            assert_eq!(eng.now(), SimTime(15));
        });
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let eng = Engine::new();
        eng.schedule_at(SimTime(100), || {});
        eng.run_until_idle();
        eng.schedule_at(SimTime(50), || {});
    }

    #[test]
    fn advance_moves_clock_past_empty_queue() {
        on_both(|eng| {
            eng.advance(SimDuration::from_micros(7));
            assert_eq!(eng.now(), SimTime(7_000));
        });
    }

    #[test]
    fn advance_executes_only_events_within_span() {
        on_both(|eng| {
            let log: Rc<RefCell<Vec<u64>>> = Rc::default();
            for &t in &[5u64, 15] {
                let log = log.clone();
                eng.schedule_at(SimTime(t), move || log.borrow_mut().push(t));
            }
            eng.advance(SimDuration(10));
            assert_eq!(*log.borrow(), vec![5]);
            assert_eq!(eng.now(), SimTime(10));
            eng.run_until_idle();
            assert_eq!(*log.borrow(), vec![5, 15]);
        });
    }

    #[test]
    fn run_until_signal_jumps_to_completion() {
        on_both(|eng| {
            let sig = Signal::new("io-done");
            {
                let sig = sig.clone();
                eng.schedule_at(SimTime(1_000), move || sig.set());
            }
            // A later unrelated event must not run.
            let ran_late: Rc<RefCell<bool>> = Rc::default();
            {
                let ran_late = ran_late.clone();
                eng.schedule_at(SimTime(2_000), move || *ran_late.borrow_mut() = true);
            }
            eng.run_until_signal(&sig);
            assert_eq!(eng.now(), SimTime(1_000));
            assert!(!*ran_late.borrow());
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_until_signal_detects_deadlock() {
        let eng = Engine::new();
        let sig = Signal::new("never");
        eng.run_until_signal(&sig);
    }

    #[test]
    fn executed_counter_counts() {
        on_both(|eng| {
            for i in 0..10u64 {
                eng.schedule_at(SimTime(i), || {});
            }
            eng.run_until_idle();
            assert_eq!(eng.events_executed(), 10);
            assert_eq!(eng.pending_events(), 0);
        });
    }

    #[test]
    fn cancelled_event_never_runs() {
        on_both(|eng| {
            let log: Rc<RefCell<Vec<u32>>> = Rc::default();
            let id = {
                let log = log.clone();
                eng.schedule_cancellable_at(SimTime(10), move || log.borrow_mut().push(1))
            };
            {
                let log = log.clone();
                eng.schedule_at(SimTime(20), move || log.borrow_mut().push(2));
            }
            assert_eq!(eng.pending_events(), 2);
            assert!(eng.cancel(id));
            assert!(!eng.cancel(id), "cancel must be idempotent-false");
            assert_eq!(eng.pending_events(), 1);
            eng.run_until_idle();
            assert_eq!(*log.borrow(), vec![2]);
            assert_eq!(eng.events_executed(), 1);
        });
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        on_both(|eng| {
            let id = eng.schedule_cancellable_at(SimTime(5), || {});
            eng.run_until_idle();
            assert!(!eng.cancel(id));
        });
    }

    #[test]
    fn cancel_drops_closure_immediately() {
        on_both(|eng| {
            struct DropFlag(Rc<RefCell<bool>>);
            impl Drop for DropFlag {
                fn drop(&mut self) {
                    *self.0.borrow_mut() = true;
                }
            }
            let dropped: Rc<RefCell<bool>> = Rc::default();
            let flag = DropFlag(dropped.clone());
            let id = eng.schedule_cancellable_at(SimTime(1_000), move || {
                let _keep = &flag;
            });
            assert!(!*dropped.borrow());
            eng.cancel(id);
            assert!(*dropped.borrow(), "cancel must release captured state");
        });
    }

    #[test]
    fn thread_default_override_applies_to_new_engines() {
        let prev = set_default_scheduler(SchedulerKind::ReferenceHeap);
        let eng = Engine::new();
        assert_eq!(eng.scheduler_kind(), SchedulerKind::ReferenceHeap);
        set_default_scheduler(prev);
        let eng = Engine::new();
        assert_eq!(eng.scheduler_kind(), prev);
    }
}
