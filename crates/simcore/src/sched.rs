//! Event-queue implementations behind [`Engine`](crate::Engine).
//!
//! Two interchangeable schedulers live here, both maintaining the same
//! contract — events pop in strict `(time, seq)` order, where `seq` is the
//! submission counter, so ties break by submission order:
//!
//! * [`SlabHeap`] — the production scheduler. Event closures live in a
//!   slab of reusable nodes (no per-event heap allocation beyond the boxed
//!   closure itself), ordered by a binary heap of compact
//!   `(time, seq, node)` entries. The engine's pending depth is small
//!   (73 events at peak on the zipf direct-path benchmark, 2,049 on the
//!   deepest figure), so the heap and the slab stay cache-resident while
//!   event bodies stream page data through the cache.
//! * [`ReferenceHeap`] — the seed implementation (a plain
//!   `BinaryHeap<Scheduled>`), kept as a differential oracle. The
//!   `reference-sched` cargo feature flips the engine default to this
//!   scheduler so any run can be replayed against it.
//!
//! ## Determinism argument
//!
//! Every heap entry carries its event's `(time, seq)` and the heap orders by
//! that pair alone; the slab index never takes part, so node reuse cannot
//! reorder events. `seq` is unique per engine, so no two entries compare
//! equal and the pop sequence is the one total order `(time, seq)` —
//! independent of the heap's internal layout and identical, event for
//! event, to the reference heap.
//!
//! Cancellation is lazy: cancelling drops the closure immediately (so
//! captured resources release deterministically) and leaves a tombstone
//! node that is skipped and recycled when its entry reaches the heap top.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A boxed event closure.
pub(crate) type Action = Box<dyn FnOnce()>;

const NIL: u32 = u32::MAX;

/// Handle to a cancellable scheduled event.
///
/// Returned by [`Engine::schedule_cancellable_at`] and friends; pass it to
/// [`Engine::cancel`]. Stale ids (event already ran, already cancelled, or
/// the node was recycled) are detected via a generation counter and the
/// cancel becomes a no-op.
///
/// [`Engine::schedule_cancellable_at`]: crate::Engine::schedule_cancellable_at
/// [`Engine::cancel`]: crate::Engine::cancel
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

impl EventId {
    fn from_seq(seq: u64) -> EventId {
        EventId {
            idx: seq as u32,
            gen: (seq >> 32) as u32,
        }
    }

    fn to_seq(self) -> u64 {
        (self.gen as u64) << 32 | self.idx as u64
    }
}

/// Slab node: one scheduled event's closure. `next` links the free list.
struct Node {
    gen: u32,
    next: u32,
    action: Option<Action>,
}

/// Heap entry ordered so the *earliest* `(at, seq)` pops first.
struct Entry {
    at: u64,
    seq: u64,
    node: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Binary heap of `(time, seq, node)` entries over a slab of event nodes.
pub(crate) struct SlabHeap {
    heap: BinaryHeap<Entry>,
    nodes: Vec<Node>,
    free_head: u32,
    /// Live (non-cancelled) pending events.
    live: usize,
}

impl SlabHeap {
    pub(crate) fn new() -> SlabHeap {
        SlabHeap {
            heap: BinaryHeap::new(),
            nodes: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    fn alloc_node(&mut self, action: Action) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.action = Some(action);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                gen: 0,
                next: NIL,
                action: Some(action),
            });
            idx
        }
    }

    /// Recycle a node: bump its generation (invalidating outstanding
    /// [`EventId`]s) and push it onto the free list.
    fn free_node(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        debug_assert!(node.action.is_none(), "freeing a live node");
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, action: Action) -> EventId {
        let idx = self.alloc_node(action);
        self.heap.push(Entry {
            at: at.0,
            seq,
            node: idx,
        });
        self.live += 1;
        EventId {
            idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        match self.nodes.get_mut(id.idx as usize) {
            Some(node) if node.gen == id.gen && node.action.is_some() => {
                // Drop the closure now so captured resources release
                // deterministically; the node is recycled lazily.
                node.action = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pop the earliest event if its time is `<= deadline`, recycling any
    /// tombstones that surface on the way. A tombstone past the deadline
    /// stays put: every live event behind it is later still.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Action)> {
        while self.heap.peek()?.at <= deadline.0 {
            let entry = self.heap.pop().expect("peeked entry");
            let action = self.nodes[entry.node as usize].action.take();
            self.free_node(entry.node);
            if let Some(action) = action {
                self.live -= 1;
                return Some((SimTime(entry.at), action));
            }
        }
        None
    }

    /// Timestamp of the earliest live event, pruning tombstones on the way.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            if self.nodes[top.node as usize].action.is_some() {
                return Some(SimTime(top.at));
            }
            let node = self.heap.pop().expect("peeked entry").node;
            self.free_node(node);
        }
        None
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }
}

/// The seed scheduler: a plain binary heap of boxed events, kept as the
/// differential oracle behind the `reference-sched` feature.
pub(crate) struct ReferenceHeap {
    heap: BinaryHeap<Scheduled>,
    /// Actions of still-pending events, keyed by seq. Cancel removes the
    /// entry (dropping the closure immediately, matching the slab heap); the
    /// heap entry becomes a tombstone skimmed off lazily.
    actions: std::collections::BTreeMap<u64, Action>,
}

struct Scheduled {
    at: SimTime,
    seq: u64,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl ReferenceHeap {
    pub(crate) fn new() -> ReferenceHeap {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            actions: std::collections::BTreeMap::new(),
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, action: Action) -> EventId {
        self.heap.push(Scheduled { at, seq });
        self.actions.insert(seq, action);
        EventId::from_seq(seq)
    }

    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        self.actions.remove(&id.to_seq()).is_some()
    }

    fn prune(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.actions.contains_key(&top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Action)> {
        self.prune();
        match self.heap.peek() {
            Some(top) if top.at <= deadline => {
                let ev = self.heap.pop().expect("peeked event");
                let action = self.actions.remove(&ev.seq).expect("pruned tombstone");
                Some((ev.at, action))
            }
            _ => None,
        }
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.prune();
        self.heap.peek().map(|s| s.at)
    }

    pub(crate) fn len(&self) -> usize {
        self.actions.len()
    }
}

/// Runtime dispatch between the two schedulers. An enum (not a trait
/// object) so the hot pop path stays monomorphic and branch-predictable.
pub(crate) enum EventQueue {
    Slab(SlabHeap),
    Heap(ReferenceHeap),
}

impl EventQueue {
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, action: Action) -> EventId {
        match self {
            EventQueue::Slab(s) => s.push(at, seq, action),
            EventQueue::Heap(h) => h.push(at, seq, action),
        }
    }

    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        match self {
            EventQueue::Slab(s) => s.cancel(id),
            EventQueue::Heap(h) => h.cancel(id),
        }
    }

    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Action)> {
        match self {
            EventQueue::Slab(s) => s.pop_due(deadline),
            EventQueue::Heap(h) => h.pop_due(deadline),
        }
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Slab(s) => s.peek_time(),
            EventQueue::Heap(h) => h.peek_time(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Slab(s) => s.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const MAX: SimTime = SimTime(u64::MAX);

    fn tagged(q: &mut SlabHeap, at: u64, seq: u64, log: &Rc<RefCell<Vec<u64>>>) -> EventId {
        let log = log.clone();
        q.push(
            SimTime(at),
            seq,
            Box::new(move || log.borrow_mut().push(seq)),
        )
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        tagged(&mut q, 50, 0, &log);
        tagged(&mut q, 10, 1, &log);
        tagged(&mut q, 10, 2, &log);
        tagged(&mut q, 5, 3, &log);
        while let Some((_, a)) = q.pop_due(MAX) {
            a();
        }
        assert_eq!(*log.borrow(), vec![3, 1, 2, 0]);
    }

    #[test]
    fn far_events_pop_in_time_order() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        // Milliseconds apart, pushed latest first.
        tagged(&mut q, 10_000_000, 0, &log);
        tagged(&mut q, 9_000_000, 1, &log);
        tagged(&mut q, 100, 2, &log);
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(100));
        a();
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(9_000_000));
        a();
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(10_000_000));
        a();
        assert_eq!(*log.borrow(), vec![2, 1, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn deadline_is_inclusive() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        tagged(&mut q, 10, 0, &log);
        tagged(&mut q, 11, 1, &log);
        assert!(q.pop_due(SimTime(9)).is_none());
        let (at, a) = q.pop_due(SimTime(10)).unwrap();
        assert_eq!(at, SimTime(10));
        a();
        assert!(q.pop_due(SimTime(10)).is_none());
        assert_eq!(q.peek_time(), Some(SimTime(11)));
    }

    #[test]
    fn cancel_skips_event_and_invalidates_id() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let a = tagged(&mut q, 10, 0, &log);
        tagged(&mut q, 20, 1, &log);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel must fail");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        let (at, act) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(20));
        act();
        assert_eq!(*log.borrow(), vec![1]);
    }

    #[test]
    fn cancelled_far_event_is_skipped() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let far = tagged(&mut q, 1_000_000, 0, &log);
        tagged(&mut q, 2_000_000, 1, &log);
        assert!(q.cancel(far));
        let (at, a) = q.pop_due(MAX).unwrap();
        assert_eq!(at, SimTime(2_000_000));
        a();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slab_nodes_are_recycled() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for round in 0..10u64 {
            for i in 0..100u64 {
                tagged(&mut q, round * 1000 + i, round * 100 + i, &log);
            }
            while let Some((_, a)) = q.pop_due(MAX) {
                a();
            }
        }
        // 1000 events total, but the slab never needed more than one round's
        // worth of nodes.
        assert!(q.nodes.len() <= 100, "slab grew to {}", q.nodes.len());
        assert_eq!(log.borrow().len(), 1000);
    }

    #[test]
    fn stale_id_after_recycle_does_not_cancel() {
        let mut q = SlabHeap::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let id = tagged(&mut q, 5, 0, &log);
        let (_, a) = q.pop_due(MAX).unwrap();
        a();
        // The node is recycled for a new event; the stale id must not hit it.
        tagged(&mut q, 10, 1, &log);
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reference_heap_matches_on_interleaved_ops() {
        let mut q = SlabHeap::new();
        let mut h = ReferenceHeap::new();
        let qlog: Rc<RefCell<Vec<u64>>> = Rc::default();
        let hlog: Rc<RefCell<Vec<u64>>> = Rc::default();
        let times = [70_000u64, 3, 70_000, 500, 3, 1_000_000, 0, 65_535, 65_536];
        let mut qids = Vec::new();
        let mut hids = Vec::new();
        for (seq, &t) in times.iter().enumerate() {
            qids.push(tagged(&mut q, t, seq as u64, &qlog));
            let hlog2 = hlog.clone();
            let s = seq as u64;
            hids.push(h.push(SimTime(t), s, Box::new(move || hlog2.borrow_mut().push(s))));
        }
        assert!(q.cancel(qids[2]));
        assert!(h.cancel(hids[2]));
        loop {
            let qt = q.peek_time();
            let ht = h.peek_time();
            assert_eq!(qt, ht);
            match (q.pop_due(MAX), h.pop_due(MAX)) {
                (Some((qa, qf)), Some((ha, hf))) => {
                    assert_eq!(qa, ha);
                    qf();
                    hf();
                }
                (None, None) => break,
                other => panic!("divergence: {:?}", other.0.is_some()),
            }
        }
        assert_eq!(*qlog.borrow(), *hlog.borrow());
    }
}
