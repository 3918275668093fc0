//! Quicksort over paged memory (paper §6.1: "an implementation of a
//! quick-sort algorithm \[CLRS\], which sorts 256M randomly generated
//! integers, whose data set is around 1 GB on our IA-32 platform").
//!
//! The task is a fully resumable state machine: every element access can
//! report "would block" (a page fault in flight), and re-entry retries the
//! same access — the micro-state carried in `Phase` caches already-read
//! values so re-execution is idempotent. This is what lets two quicksort
//! instances interleave over one VM for Figure 9.
//!
//! The partition scan and the insertion sort, where nearly all accesses
//! happen, serve them from page runs ([`PagedVec::page_run`]): the pages
//! the lookaside already maps, borrowed once per run of accesses instead
//! of once per element. An access a run cannot serve stops the transition
//! the same way a fault does, and that transition runs again through
//! `try_get`/`try_set`.
//!
//! Algorithm: iterative Lomuto-partition quicksort with an insertion-sort
//! cutoff, the textbook CLRS structure the paper cites.

use crate::task::{Step, Task};
use simcore::{Signal, SimRng};
use std::cell::RefMut;
use vmsim::{AddressSpace, Element, PageRun, PagedVec};

/// Ranges at or below this length use insertion sort.
const INSERTION_CUTOFF: u64 = 16;

/// Micro-state of the quicksort state machine. Indices are element
/// positions; `Option` fields cache values across a blocking retry.
enum Phase {
    /// Writing random input data.
    Fill,
    /// Pop the next range off the stack.
    Next,
    /// Load the pivot `a[hi]`.
    PivotLoad { lo: u64, hi: u64 },
    /// Lomuto partition scan.
    Scan(Scan),
    /// Swap the pivot into place at `i`, then push subranges.
    FinalSwap {
        lo: u64,
        hi: u64,
        i: u64,
        vi: Option<i32>,
        vhi: Option<i32>,
        wrote_i: bool,
    },
    /// Insertion sort of a short range.
    Insertion(Insertion),
    /// Sorting complete.
    Finished,
}

/// Element access for the scan and insertion-sort transitions. An access
/// either happens or stops the transition before the transition records
/// it; what the transition cached before that (`vj`, `vi`, `wrote_i`,
/// `sift`) lets it run again from the top through another accessor.
trait Access {
    /// Why an access did not happen.
    type Stop;
    fn get(&mut self, index: u64) -> Result<i32, Self::Stop>;
    fn set(&mut self, index: u64, value: i32) -> Result<(), Self::Stop>;
}

/// The full path: [`PagedVec::try_get`]/[`PagedVec::try_set`], which fill
/// the lookaside and stop only at a fault.
struct FullPath<'a>(&'a PagedVec<i32>);

impl Access for FullPath<'_> {
    type Stop = Signal;

    #[inline(always)]
    fn get(&mut self, index: u64) -> Result<i32, Signal> {
        self.0.try_get(index as usize)
    }

    #[inline(always)]
    fn set(&mut self, index: u64, value: i32) -> Result<(), Signal> {
        self.0.try_set(index as usize, value)
    }
}

/// A page-run access reached a page the lookaside does not map, or a store
/// reached a page it maps read-only.
struct Miss;

/// One element's bytes.
type Elem = [u8; <i32 as Element>::SIZE];

/// A page a [`Pages`] accessor holds borrowed.
struct Held<'r> {
    elems: RefMut<'r, [Elem]>,
    first: u64,
    write: bool,
}

impl Held<'_> {
    /// Run `f` on element `index` if this page holds it, `None` if not;
    /// a store also needs the page's write permission.
    #[inline(always)]
    fn access<R>(
        &mut self,
        index: u64,
        write: bool,
        f: impl FnOnce(&mut Elem) -> R + Copy,
    ) -> Option<Result<R, Miss>> {
        let elem = self
            .elems
            .get_mut(index.wrapping_sub(self.first) as usize)?;
        Some(if write && !self.write {
            Err(Miss)
        } else {
            Ok(f(elem))
        })
    }
}

/// The page-run path: serves accesses from pages of a [`PageRun`], each
/// borrowed once for as long as a cursor stays on it. Two pages cover both
/// loops: the scan's `j` page plus the `i` page when `i` trails on an
/// earlier one, and an insertion range straddling a page boundary.
struct Pages<'r, 'a> {
    run: &'r PageRun<'a, i32>,
    /// The higher page held: the scan's `j` page, or the page of an
    /// insertion range's top.
    hi: Option<Held<'r>>,
    /// A page below `hi`: the scan's `i` page, or the lower side of a
    /// straddled page boundary.
    lo: Option<Held<'r>>,
    /// Accesses served, for [`PageRun::count`].
    served: u64,
}

impl<'r, 'a> Pages<'r, 'a> {
    fn new(run: &'r PageRun<'a, i32>) -> Self {
        Pages {
            run,
            hi: None,
            lo: None,
            served: 0,
        }
    }

    /// Run `f` on element `index`, borrowing its page if neither held
    /// page holds it.
    #[inline(always)]
    fn access<R>(
        &mut self,
        index: u64,
        write: bool,
        f: impl FnOnce(&mut Elem) -> R + Copy,
    ) -> Result<R, Miss> {
        let hit = match (&mut self.hi, &mut self.lo) {
            (Some(hi), _) if hi.first <= index => hi.access(index, write, f),
            (_, Some(lo)) => lo.access(index, write, f),
            _ => None,
        };
        let r = match hit {
            Some(r) => r?,
            None => self
                .borrow(index)?
                .access(index, write, f)
                .expect("a page holds its own elements")?,
        };
        self.served += 1;
        Ok(r)
    }

    /// Borrow the page of `index`. A cursor that moved past the higher page
    /// takes its place and leaves it to a trailing cursor if the lower slot
    /// is free; any other cursor replaces the lower page.
    #[inline(always)]
    fn borrow(&mut self, index: u64) -> Result<&mut Held<'r>, Miss> {
        let page = Self::open(self.run, index)?;
        if self.hi.as_ref().is_none_or(|hi| index > hi.first) {
            if self.lo.is_none() {
                self.lo = self.hi.take();
            }
            Ok(self.hi.insert(page))
        } else {
            Ok(self.lo.insert(page))
        }
    }

    /// Borrow the page of `index`, if the run maps it.
    #[inline(never)]
    fn open(run: &'r PageRun<'a, i32>, index: u64) -> Result<Held<'r>, Miss> {
        let page = run.page(index as usize).ok_or(Miss)?;
        let len = page.end - page.first;
        Ok(Held {
            elems: RefMut::map(page.buf.borrow_mut(), |b| &mut b.as_chunks_mut().0[..len]),
            first: page.first as u64,
            write: page.write,
        })
    }
}

impl Access for Pages<'_, '_> {
    type Stop = Miss;

    #[inline(always)]
    fn get(&mut self, index: u64) -> Result<i32, Miss> {
        self.access(index, false, |e| i32::from_le_bytes(*e))
    }

    #[inline(always)]
    fn set(&mut self, index: u64, value: i32) -> Result<(), Miss> {
        self.access(index, true, |e| *e = value.to_le_bytes())
    }
}

/// A quicksort loop that runs one transition at a time.
trait Transition {
    /// Run one transition through `data`: `Ok(None)` to go on,
    /// `Ok(Some(false))` when the budget is spent and `Ok(Some(true))`
    /// when the loop is done. The budget is checked before the transition
    /// and again, in place, after each of its accesses.
    fn transition<A: Access>(
        &mut self,
        data: &mut A,
        budget: &mut i64,
    ) -> Result<Option<bool>, A::Stop>;
}

/// Run `state`'s transitions until the budget is spent (`Ok(false)`), the
/// loop is done (`Ok(true)`) or an access blocks. They run from page runs;
/// a transition whose access misses runs again on the full path, and the
/// next one goes back to a page run. A miss is always followed by a
/// full-path transition, never by another page run, because resolving a
/// page again cannot map it.
#[inline(always)]
fn run_transitions<L: Transition>(
    state: &mut L,
    data: &PagedVec<i32>,
    budget: &mut i64,
) -> Result<bool, Signal> {
    loop {
        {
            let run = data.page_run();
            let mut pages = Pages::new(&run);
            let done = loop {
                match state.transition(&mut pages, budget) {
                    Ok(Some(done)) => break Some(done),
                    Ok(None) => {}
                    Err(Miss) => break None,
                }
            };
            run.count(pages.served);
            if let Some(done) = done {
                return Ok(done);
            }
        }
        if let Some(done) = state.transition(&mut FullPath(data), budget)? {
            return Ok(done);
        }
    }
}

/// Lomuto scan over `lo..hi`: `i` is the store index, `j` the scan index.
#[derive(Clone, Copy)]
struct Scan {
    lo: u64,
    hi: u64,
    pivot: i32,
    i: u64,
    j: u64,
    vj: Option<i32>,
    vi: Option<i32>,
    wrote_i: bool,
}

impl Transition for Scan {
    /// Each access is followed by the budget check [`QsortTask::step`]
    /// makes between accesses, run in place; the transition then goes on
    /// without re-testing what the access cannot have changed.
    #[inline(always)]
    fn transition<A: Access>(
        &mut self,
        data: &mut A,
        budget: &mut i64,
    ) -> Result<Option<bool>, A::Stop> {
        if *budget <= 0 {
            return Ok(Some(false));
        }
        if self.j == self.hi {
            return Ok(Some(true));
        }
        // Read a[j].
        let vj = match self.vj {
            Some(v) => v,
            None => {
                let v = data.get(self.j)?;
                self.vj = Some(v);
                *budget -= 1;
                if *budget <= 0 {
                    return Ok(Some(false));
                }
                v
            }
        };
        if vj > self.pivot {
            self.j += 1;
            self.vj = None;
            return Ok(None);
        }
        if self.i == self.j {
            self.i += 1;
            self.j += 1;
            self.vj = None;
            return Ok(None);
        }
        // Swap a[i] <-> a[j], one access at a time.
        let vi = match self.vi {
            Some(v) => v,
            None => {
                let v = data.get(self.i)?;
                self.vi = Some(v);
                *budget -= 1;
                if *budget <= 0 {
                    return Ok(Some(false));
                }
                v
            }
        };
        if !self.wrote_i {
            data.set(self.i, vj)?;
            self.wrote_i = true;
            *budget -= 1;
            if *budget <= 0 {
                return Ok(Some(false));
            }
        }
        data.set(self.j, vi)?;
        self.i += 1;
        self.j += 1;
        self.vj = None;
        self.vi = None;
        self.wrote_i = false;
        *budget -= 1;
        Ok(None)
    }
}

/// Insertion sort of `lo..=hi` at outer position `i`; `sift` is `(j, key)`
/// while the inner loop sifts `key` down to position `j`.
#[derive(Clone, Copy)]
struct Insertion {
    lo: u64,
    hi: u64,
    i: u64,
    sift: Option<(u64, i32)>,
}

impl Transition for Insertion {
    /// Reading the key costs one op; each sift step (read `a[j-1]`, write
    /// `a[j]`) and the final store cost two.
    #[inline(always)]
    fn transition<A: Access>(
        &mut self,
        data: &mut A,
        budget: &mut i64,
    ) -> Result<Option<bool>, A::Stop> {
        if *budget <= 0 {
            return Ok(Some(false));
        }
        let (j, key) = match self.sift {
            Some(sift) => sift,
            None => {
                if self.i > self.hi {
                    return Ok(Some(true));
                }
                let key = data.get(self.i)?;
                self.sift = Some((self.i, key));
                *budget -= 1;
                if *budget <= 0 {
                    return Ok(Some(false));
                }
                (self.i, key)
            }
        };
        // Sift `key` down one position, or store it.
        if j > self.lo {
            let prev = data.get(j - 1)?;
            if prev > key {
                data.set(j, prev)?;
                self.sift = Some((j - 1, key));
                *budget -= 2;
                return Ok(None);
            }
        }
        data.set(j, key)?;
        self.sift = None;
        self.i += 1;
        *budget -= 2;
        Ok(None)
    }
}

/// A resumable quicksort instance.
pub struct QsortTask {
    data: PagedVec<i32>,
    stack: Vec<(u64, u64)>,
    phase: Phase,
    fill_next: usize,
    fill_val: Option<i32>,
    rng: SimRng,
    ns_per_op: u64,
    name: String,
}

impl QsortTask {
    /// Allocate and later sort `elements` random i32s.
    pub fn new(
        space: &AddressSpace,
        elements: usize,
        seed: u64,
        ns_per_op: u64,
        name: impl Into<String>,
    ) -> QsortTask {
        QsortTask {
            data: PagedVec::new(space, elements),
            stack: Vec::new(),
            phase: Phase::Fill,
            fill_next: 0,
            fill_val: None,
            rng: SimRng::new(seed),
            ns_per_op,
            name: name.into(),
        }
    }

    /// The array (for verification).
    pub fn data(&self) -> &PagedVec<i32> {
        &self.data
    }

    /// Blocking full-array sortedness check (verification outside the
    /// measured run).
    pub fn is_sorted(&self) -> bool {
        let n = self.data.len();
        if n < 2 {
            return true;
        }
        let mut prev = self.data.get(0);
        for i in 1..n {
            let v = self.data.get(i);
            if v < prev {
                return false;
            }
            prev = v;
        }
        true
    }

    /// Advance by one micro-transition, or — in the scan and insertion
    /// phases — by as many as the budget allows, charging their ops to
    /// `budget`. Looping inside a phase keeps its state in locals, written
    /// back on every exit; the transitions, their op counts and the
    /// budget checks between them are the same as one per call, so the
    /// points where [`Task::step`] returns or blocks do not move.
    fn advance(&mut self, budget: &mut i64) -> Result<(), Signal> {
        let n = self.data.len() as u64;
        match &mut self.phase {
            Phase::Fill => {
                if self.fill_next as u64 == n {
                    self.phase = if n >= 2 {
                        self.stack.push((0, n - 1));
                        Phase::Next
                    } else {
                        Phase::Finished
                    };
                    return Ok(());
                }
                let val = *self
                    .fill_val
                    .get_or_insert_with(|| self.rng.next_u32() as i32);
                self.data.try_set(self.fill_next, val)?;
                self.fill_next += 1;
                self.fill_val = None;
                *budget -= 1;
            }
            Phase::Next => {
                self.phase = match self.stack.pop() {
                    None => Phase::Finished,
                    Some((lo, hi)) if hi - lo < INSERTION_CUTOFF => Phase::Insertion(Insertion {
                        lo,
                        hi,
                        i: lo + 1,
                        sift: None,
                    }),
                    Some((lo, hi)) => Phase::PivotLoad { lo, hi },
                };
            }
            Phase::PivotLoad { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                let pivot = self.data.try_get(hi as usize)?;
                self.phase = Phase::Scan(Scan {
                    lo,
                    hi,
                    pivot,
                    i: lo,
                    j: lo,
                    vj: None,
                    vi: None,
                    wrote_i: false,
                });
                *budget -= 1;
            }
            Phase::Scan(state) => {
                let mut scan = *state;
                let mut left = *budget;
                let done = run_transitions(&mut scan, &self.data, &mut left);
                *state = scan;
                *budget = left;
                if done? {
                    self.phase = Phase::FinalSwap {
                        lo: scan.lo,
                        hi: scan.hi,
                        i: scan.i,
                        vi: None,
                        vhi: None,
                        wrote_i: false,
                    };
                }
            }
            Phase::FinalSwap {
                lo,
                hi,
                i,
                vi,
                vhi,
                wrote_i,
            } => {
                let (lo, hi, i) = (*lo, *hi, *i);
                if i != hi {
                    let cur_vhi = match *vhi {
                        Some(v) => v,
                        None => {
                            let v = self.data.try_get(hi as usize)?;
                            *vhi = Some(v);
                            *budget -= 1;
                            return Ok(());
                        }
                    };
                    let cur_vi = match *vi {
                        Some(v) => v,
                        None => {
                            let v = self.data.try_get(i as usize)?;
                            *vi = Some(v);
                            *budget -= 1;
                            return Ok(());
                        }
                    };
                    if !*wrote_i {
                        self.data.try_set(i as usize, cur_vhi)?;
                        *wrote_i = true;
                        *budget -= 1;
                        return Ok(());
                    }
                    self.data.try_set(hi as usize, cur_vi)?;
                }
                // Pivot in place at i. Push larger side first so the
                // smaller is processed next (bounded stack depth).
                let left = (i > lo).then(|| (lo, i - 1));
                let right = (i < hi).then(|| (i + 1, hi));
                match (left, right) {
                    (Some(l), Some(r)) => {
                        if l.1 - l.0 > r.1 - r.0 {
                            self.stack.push(l);
                            self.stack.push(r);
                        } else {
                            self.stack.push(r);
                            self.stack.push(l);
                        }
                    }
                    (Some(l), None) => self.stack.push(l),
                    (None, Some(r)) => self.stack.push(r),
                    (None, None) => {}
                }
                self.phase = Phase::Next;
                *budget -= 1;
            }
            Phase::Insertion(state) => {
                let mut ins = *state;
                let mut left = *budget;
                let done = run_transitions(&mut ins, &self.data, &mut left);
                *state = ins;
                *budget = left;
                if done? {
                    self.phase = Phase::Next;
                }
            }
            Phase::Finished => {}
        }
        Ok(())
    }
}

impl Task for QsortTask {
    fn step(&mut self, max_ops: u64) -> Step {
        let mut budget = max_ops as i64;
        while budget > 0 {
            if matches!(self.phase, Phase::Finished) {
                return Step::Done;
            }
            if let Err(sig) = self.advance(&mut budget) {
                return Step::Blocked(sig);
            }
            // Zero-op transitions (stack pops) still make progress; the
            // budget only counts memory operations, matching the paper's
            // compute model.
        }
        if matches!(self.phase, Phase::Finished) {
            Step::Done
        } else {
            Step::Ran
        }
    }

    fn ns_per_op(&self) -> u64 {
        self.ns_per_op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Scheduler;
    use netmodel::{Calibration, Node};
    use simcore::Engine;
    use std::rc::Rc;
    use vmsim::{LookasideStats, Vm, VmConfig};

    fn vm_with_ram_swap(frames: usize, swap_pages: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend =
            vmsim::BlockBackend::over_ramdisk(&engine, &cal, &node, swap_pages * 4096, "swap");
        vm.add_swap_backend(backend, 0);
        (engine, vm)
    }

    #[test]
    fn sorts_in_memory() {
        let (engine, vm) = vm_with_ram_swap(256, 64);
        let space = AddressSpace::new(&vm);
        let mut t = QsortTask::new(&space, 50_000, 42, 11, "qsort");
        Scheduler::new(engine.clone(), 2).run_one(&mut t);
        assert!(t.is_sorted(), "output must be sorted");
        assert_eq!(vm.stats().major_faults, 0, "fits in memory");
    }

    #[test]
    fn sorts_tiny_and_degenerate_inputs() {
        let (engine, vm) = vm_with_ram_swap(64, 16);
        let space = AddressSpace::new(&vm);
        for n in [0usize, 1, 2, 3, 15, 16, 17, 100] {
            let mut t = QsortTask::new(&space, n, n as u64, 11, "tiny");
            Scheduler::new(engine.clone(), 2).run_one(&mut t);
            assert!(t.is_sorted(), "n={n}");
        }
    }

    #[test]
    fn sorts_under_memory_pressure() {
        // Array is 4x local memory: the sort has to page constantly and
        // must still be correct.
        let (engine, vm) = vm_with_ram_swap(32, 512);
        let space = AddressSpace::new(&vm);
        let mut t = QsortTask::new(&space, 128 * 1024, 7, 11, "qsort");
        Scheduler::new(engine.clone(), 2).run_one(&mut t);
        assert!(vm.stats().swap_outs > 0, "must have paged");
        assert!(t.is_sorted(), "paging must not corrupt the sort");
    }

    #[test]
    fn paging_run_is_slower() {
        let run = |frames| {
            let (engine, vm) = vm_with_ram_swap(frames, 512);
            let space = AddressSpace::new(&vm);
            let mut t = QsortTask::new(&space, 64 * 1024, 3, 11, "qsort");
            Scheduler::new(engine.clone(), 2).run_one(&mut t)
        };
        let fast = run(256);
        let slow = run(16);
        assert!(slow > fast, "pressure {slow} vs in-memory {fast}");
    }

    #[test]
    fn two_instances_interleave_and_both_sort() {
        let (engine, vm) = vm_with_ram_swap(48, 1024);
        let s1 = AddressSpace::new(&vm);
        let s2 = AddressSpace::new(&vm);
        let mut a = QsortTask::new(&s1, 64 * 1024, 1, 11, "qsort-a");
        let mut b = QsortTask::new(&s2, 64 * 1024, 2, 11, "qsort-b");
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        Scheduler::new(engine.clone(), 2).run(&mut tasks);
        assert!(a.is_sorted(), "instance A sorted");
        assert!(b.is_sorted(), "instance B sorted");
    }

    /// Host-cost gate as a count: a cache regression shows up here, not
    /// just as wall-clock noise. The pair pages constantly, so every fault
    /// and reclaim pass empties both lookasides; what misses beyond that
    /// are read→write upgrades and cursor ping-pong the ways must absorb.
    #[test]
    fn lookaside_absorbs_a_paging_pair() {
        let (engine, vm) = vm_with_ram_swap(48, 1024);
        let s1 = AddressSpace::new(&vm);
        let s2 = AddressSpace::new(&vm);
        let mut a = QsortTask::new(&s1, 64 * 1024, 1, 11, "qsort-a");
        let mut b = QsortTask::new(&s2, 64 * 1024, 2, 11, "qsort-b");
        let mut tasks: [&mut dyn Task; 2] = [&mut a, &mut b];
        Scheduler::new(engine.clone(), 2).run(&mut tasks);
        assert!(vm.stats().swap_outs > 500, "the pair must page");
        for t in [&a, &b] {
            let st = t.data().lookaside_stats();
            assert!(
                st.fills * 100 <= st.accesses,
                "{}: {} fills over {} accesses",
                t.name(),
                st.fills,
                st.accesses
            );
        }
    }

    /// Drive `task` to completion `budget(step)` ops at a time, running the
    /// engine only through faults.
    fn drive(engine: &Engine, task: &mut QsortTask, budget: impl Fn(u64) -> u64) {
        for step in 0.. {
            match task.step(budget(step)) {
                Step::Ran => {}
                Step::Blocked(sig) => engine.run_until_signal(&sig),
                Step::Done => return,
            }
        }
    }

    /// What the simulated machine saw of a run: VM counters, virtual
    /// time and engine events; plus the lookaside counters (each fill is
    /// one `Vm::try_page` call).
    fn fingerprint(engine: &Engine, vm: &Vm, t: &QsortTask) -> (String, u64, u64, LookasideStats) {
        (
            format!("{:?}", vm.stats()),
            engine.now().0,
            engine.events_executed(),
            t.data().lookaside_stats(),
        )
    }

    /// [`fingerprint`] of each budget-`b` run below, at index `b - 1`.
    /// Captured from the element-at-a-time access path, where every access
    /// went through `try_get`/`try_set`, before the scan and insertion
    /// loops served accesses from page runs. 64 pages over 16 frames:
    /// partitions span many pages, so `j` crosses page boundaries mid-run
    /// and `i` trails on an earlier page (budgets from 3 up let one run
    /// hold both); after every epoch bump the scan's read of `a[j]` maps
    /// its page read-only, so the swap's first write there falls back and
    /// upgrades; and ~50 of each run's insertion ranges straddle a page
    /// boundary.
    const PINNED: [(&str, u64, u64, u64, u64); 8] = [
        ("VmStats { major_faults: 85, swap_ins: 510, readaheads: 425, swap_outs: 460, clean_evictions: 100, zero_fills: 64, frame_waits: 0, throttles: 40 }", 3778040, 291, 3228438, 1412),
        ("VmStats { major_faults: 81, swap_ins: 473, readaheads: 392, swap_outs: 462, clean_evictions: 65, zero_fills: 64, frame_waits: 0, throttles: 38 }", 3560100, 283, 3345698, 1546),
        ("VmStats { major_faults: 74, swap_ins: 430, readaheads: 356, swap_outs: 417, clean_evictions: 63, zero_fills: 64, frame_waits: 0, throttles: 34 }", 3291500, 255, 3220175, 1392),
        ("VmStats { major_faults: 90, swap_ins: 483, readaheads: 393, swap_outs: 478, clean_evictions: 55, zero_fills: 64, frame_waits: 0, throttles: 38 }", 3758340, 291, 3467932, 1599),
        ("VmStats { major_faults: 101, swap_ins: 557, readaheads: 456, swap_outs: 527, clean_evictions: 84, zero_fills: 64, frame_waits: 0, throttles: 44 }", 4180660, 341, 3378484, 1660),
        ("VmStats { major_faults: 93, swap_ins: 519, readaheads: 426, swap_outs: 456, clean_evictions: 113, zero_fills: 64, frame_waits: 0, throttles: 40 }", 3784900, 326, 3117079, 1496),
        ("VmStats { major_faults: 82, swap_ins: 483, readaheads: 401, swap_outs: 469, clean_evictions: 64, zero_fills: 64, frame_waits: 0, throttles: 38 }", 3683660, 277, 3271856, 1432),
        ("VmStats { major_faults: 110, swap_ins: 617, readaheads: 507, swap_outs: 547, clean_evictions: 126, zero_fills: 64, frame_waits: 0, throttles: 48 }", 4516180, 373, 3435410, 1634),
    ];

    /// Budgets of 1–8 ops make `step` return mid-swap and mid-shift, and
    /// faults block there too: every resume point of the scan and
    /// insertion loops must carry its state across, and the run must be
    /// the one [`PINNED`] records.
    #[test]
    fn tiny_budgets_resume_mid_transition() {
        for budget in 1..=8u64 {
            let (engine, vm) = vm_with_ram_swap(16, 256);
            let space = AddressSpace::new(&vm);
            let n = 64 * 1024;
            let seed = 100 + budget;
            let mut t = QsortTask::new(&space, n, seed, 11, "qsort");
            drive(&engine, &mut t, |_| budget);
            let (stats, now, events, accesses, fills) = PINNED[budget as usize - 1];
            assert_eq!(
                fingerprint(&engine, &vm, &t),
                (
                    stats.to_string(),
                    now,
                    events,
                    LookasideStats { accesses, fills }
                ),
                "budget {budget}: the run moved"
            );
            assert!(vm.stats().major_faults > 0, "budget {budget}: must page");
            let mut rng = SimRng::new(seed);
            let mut input: Vec<i32> = (0..n).map(|_| rng.next_u32() as i32).collect();
            input.sort_unstable();
            let output: Vec<i32> = (0..n).map(|i| t.data().get(i)).collect();
            assert_eq!(output, input, "budget {budget}: not a sorted permutation");
            vm.check_invariants();
        }
        // Budgets that change every step.
        let (engine, vm) = vm_with_ram_swap(16, 256);
        let space = AddressSpace::new(&vm);
        let mut t = QsortTask::new(&space, 8 * 1024, 99, 11, "qsort");
        drive(&engine, &mut t, |step| 1 + step % 8);
        assert!(t.is_sorted());
        vm.check_invariants();
    }
}
