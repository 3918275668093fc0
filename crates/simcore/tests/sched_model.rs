//! Model-based property test for the event schedulers.
//!
//! Drives an [`Engine`] through a long random mix of schedule / cancel /
//! advance operations and mirrors every operation in a trivially-correct
//! sorted-vec model. The observable execution log (which event ran, in
//! what order, at what clock reading) must match the model exactly —
//! including FIFO order among events scheduled for the same tick, and
//! children spawned *during* execution at the parent's own timestamp.
//!
//! Both scheduler implementations are checked, so the test is
//! simultaneously a slab-heap-vs-model and reference-heap-vs-model oracle.

use simcore::{Engine, EventId, SchedulerKind, SimDuration, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A pending event in the model: fires at `time`, tie-broken by the
/// global schedule sequence number `seq`.
#[derive(Clone, Copy)]
struct ModelEvent {
    time: u64,
    seq: u64,
    id: u64,
}

/// The sorted-vec model: linear scan for the minimum `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<ModelEvent>,
    next_seq: u64,
    now: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, id: u64) {
        assert!(time >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(ModelEvent { time, seq, id });
    }

    /// Remove the pending event with logical id `id`; true if it was
    /// still pending (mirrors [`Engine::cancel`]).
    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|e| e.id == id) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }

    /// Execute everything due by `deadline` in `(time, seq)` order,
    /// appending `(id, clock)` to `log`. Events whose id is divisible by
    /// [`SPAWN_DIVISOR`] spawn one child at their own timestamp — the
    /// same rule the engine-side closures implement.
    fn advance(&mut self, span: u64, log: &mut Vec<(u64, u64)>) {
        let deadline = self.now + span;
        loop {
            let due = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, e)| e.time <= deadline)
                .min_by_key(|(_, e)| (e.time, e.seq))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let ev = self.pending.remove(i);
            self.now = ev.time;
            log.push((ev.id, self.now));
            if ev.id.is_multiple_of(SPAWN_DIVISOR) {
                self.schedule(ev.time, ev.id + CHILD_OFFSET);
            }
        }
        self.now = deadline;
    }
}

/// Events with `id % SPAWN_DIVISOR == 0` spawn a same-tick child.
const SPAWN_DIVISOR: u64 = 7;
/// Child ids are offset far above parent ids so they never collide.
const CHILD_OFFSET: u64 = 1 << 32;

/// One operation of the random script, pre-generated so both the engine
/// and the model see the identical sequence.
enum Op {
    /// Schedule event `id` at `delay` ns from the current clock.
    Schedule { id: u64, delay: u64 },
    /// Cancel the `nth` tracked cancellable event (if any remain).
    Cancel { nth: usize },
    /// Cancel event `id` if it is still tracked (a disarmed timer).
    CancelId { id: u64 },
    /// Advance the clock by `span` ns, running everything due.
    Advance { span: u64 },
}

fn random_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let mut next_id = 1u64;
    (0..len)
        .map(|_| match rng.below(10) {
            0..=5 => {
                let id = next_id;
                next_id += 1;
                Op::Schedule {
                    id,
                    // Skewed toward small delays (and often zero) so many
                    // events collide on the same tick.
                    delay: match rng.below(4) {
                        0 => 0,
                        1 => rng.below(8),
                        2 => rng.below(300),
                        _ => rng.below(200_000),
                    },
                }
            }
            6..=7 => Op::Cancel {
                nth: rng.below(64) as usize,
            },
            _ => Op::Advance {
                span: rng.below(5_000),
            },
        })
        .collect()
}

/// A timer-shaped script: short-delay message traffic interleaved with
/// far-future timers (0.1–1 s, like request timeouts), most of which are
/// disarmed a few operations after they are armed. Occasional clock jumps
/// of up to 2 s let the surviving timers fire and the disarmed ones
/// surface as tombstones long after they were cancelled.
fn timer_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let mut next_id = 1u64;
    // (script index at which to disarm, timer id)
    let mut disarm: Vec<(usize, u64)> = Vec::new();
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        if let Some(pos) = disarm.iter().position(|&(at, _)| at <= script.len()) {
            let (_, id) = disarm.remove(pos);
            script.push(Op::CancelId { id });
            continue;
        }
        let id = next_id;
        script.push(match rng.below(20) {
            0..=8 => {
                next_id += 1;
                Op::Schedule {
                    id,
                    delay: rng.below(5_000),
                }
            }
            9..=13 => {
                next_id += 1;
                if rng.below(10) < 8 {
                    disarm.push((script.len() + 1 + rng.below(16) as usize, id));
                }
                Op::Schedule {
                    id,
                    delay: 100_000_000 + rng.below(900_000_000),
                }
            }
            14..=18 => Op::Advance {
                span: rng.below(10_000),
            },
            _ => Op::Advance {
                span: rng.below(2_000_000_000),
            },
        });
    }
    script
}

/// Run the script against a real engine; returns the `(id, clock)` log.
fn run_engine(kind: SchedulerKind, script: &[Op]) -> Vec<(u64, u64)> {
    let engine = Engine::with_scheduler(kind);
    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));

    fn fire(engine: &Engine, log: &Rc<RefCell<Vec<(u64, u64)>>>, id: u64) {
        log.borrow_mut().push((id, engine.now().as_nanos()));
        if id.is_multiple_of(SPAWN_DIVISOR) {
            let child = id + CHILD_OFFSET;
            let engine2 = engine.clone();
            let log2 = log.clone();
            engine.schedule_at(engine.now(), move || fire(&engine2, &log2, child));
        }
    }

    let mut cancellable: Vec<(u64, EventId)> = Vec::new();
    for op in script {
        match op {
            Op::Schedule { id, delay } => {
                let engine2 = engine.clone();
                let log2 = log.clone();
                let id = *id;
                let handle = engine
                    .schedule_cancellable_in(SimDuration::from_nanos(*delay), move || {
                        fire(&engine2, &log2, id)
                    });
                cancellable.push((id, handle));
            }
            Op::Cancel { nth } => {
                if !cancellable.is_empty() {
                    let (_, handle) = cancellable.remove(nth % cancellable.len());
                    engine.cancel(handle);
                }
            }
            Op::CancelId { id } => {
                if let Some(i) = cancellable.iter().position(|(c, _)| c == id) {
                    engine.cancel(cancellable.remove(i).1);
                }
            }
            Op::Advance { span } => engine.advance(SimDuration::from_nanos(*span)),
        }
    }
    engine.run_until_idle();
    Rc::try_unwrap(log).unwrap().into_inner()
}

/// Run the script against the sorted-vec model; returns the same log.
fn run_model(script: &[Op]) -> Vec<(u64, u64)> {
    let mut model = Model::default();
    let mut log = Vec::new();
    let mut cancellable: Vec<u64> = Vec::new();
    for op in script {
        match op {
            Op::Schedule { id, delay } => {
                model.schedule(model.now + delay, *id);
                cancellable.push(*id);
            }
            Op::Cancel { nth } => {
                if !cancellable.is_empty() {
                    let id = cancellable.remove(nth % cancellable.len());
                    model.cancel(id);
                }
            }
            Op::CancelId { id } => {
                if let Some(i) = cancellable.iter().position(|c| c == id) {
                    model.cancel(cancellable.remove(i));
                }
            }
            Op::Advance { span } => model.advance(*span, &mut log),
        }
    }
    // run_until_idle: everything left, regardless of time.
    model.advance(u64::MAX - model.now, &mut log);
    log
}

/// Note the cancel bookkeeping difference: the engine removes handles from
/// its tracking list on cancel but `Engine::cancel` of an already-fired
/// event is a no-op, while the model drops fired events from `pending`
/// naturally. Both sides pick "the nth tracked entry", and entries are
/// pushed in identical order, so the choices line up.
fn check(kind: SchedulerKind, seed: u64, script: &[Op]) {
    let expect = run_model(script);
    let got = run_engine(kind, script);
    assert_eq!(
        got.len(),
        expect.len(),
        "{kind:?} seed {seed}: executed-event count diverged"
    );
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(
            g, e,
            "{kind:?} seed {seed}: divergence at event #{i}: engine fired {g:?}, model {e:?}"
        );
    }
}

#[test]
fn slab_heap_matches_sorted_vec_model() {
    for seed in [1, 2, 3, 0xDEAD_BEEF] {
        check(SchedulerKind::SlabHeap, seed, &random_script(seed, 4_000));
    }
}

#[test]
fn reference_heap_matches_sorted_vec_model() {
    for seed in [1, 2, 3, 0xDEAD_BEEF] {
        check(
            SchedulerKind::ReferenceHeap,
            seed,
            &random_script(seed, 4_000),
        );
    }
}

#[test]
fn slab_and_reference_heap_agree_on_long_mixed_scripts() {
    for seed in [11, 12] {
        let script = random_script(seed, 8_000);
        let slab = run_engine(SchedulerKind::SlabHeap, &script);
        let heap = run_engine(SchedulerKind::ReferenceHeap, &script);
        assert_eq!(slab, heap, "seed {seed}");
    }
}

#[test]
fn far_timers_with_deep_tombstones_match_sorted_vec_model() {
    for seed in [21, 22, 23] {
        let script = timer_script(seed, 4_000);
        let armed = script
            .iter()
            .filter(|op| matches!(op, Op::Schedule { delay, .. } if *delay >= 100_000_000))
            .count();
        let disarmed = script
            .iter()
            .filter(|op| matches!(op, Op::CancelId { .. }))
            .count();
        assert!(
            armed > 500 && disarmed * 2 > armed,
            "{armed} timers, {disarmed} disarms"
        );
        check(SchedulerKind::SlabHeap, seed, &script);
        check(SchedulerKind::ReferenceHeap, seed, &script);
    }
}
