//! Application memory over the simulated VM.
//!
//! A [`PagedVec`] is a typed array whose storage is paged through [`Vm`]:
//! every element access may fault, swap in, trigger reclaim — the full
//! paging path, with real bytes surviving the round trips. This is how the
//! workloads (testswap, quicksort, Barnes-Hut) "run on" the simulated
//! machine while remaining ordinary Rust code.
//!
//! Accesses come in two flavours:
//! * `try_get`/`try_set` return `Err(Signal)` instead of blocking, which
//!   lets a scheduler interleave multiple application instances (Figure 9).
//! * `get`/`set` run the engine until the fault resolves (single-instance
//!   figures).
//!
//! A small lookaside of the last few pages touched keeps the fast path to a
//! few nanoseconds of real time, so paper-scale datasets are affordable.
//! It holds four page mappings (`LOOKASIDE_WAYS`), all tagged with the VM
//! epoch they were filled under, and fills round-robin. Any epoch bump — a
//! residency change, or reclaim clearing an accessed bit or starting
//! writeback (the simulated TLB shootdown, see [`Vm::epoch`]) — empties
//! it. So a valid read mapping implies the page's accessed bit is set, a
//! valid write mapping implies its dirty bit is set too, and a hit changes
//! nothing the simulated machine can observe: outputs do not depend on
//! the lookaside's size or fill policy. Its misses come from read→write
//! upgrades, from access patterns that cycle through more pages than it
//! has ways, and from epoch bumps; [`PagedVec::lookaside_stats`] counts
//! them.
//!
//! A page run ([`PagedVec::page_run`]) lends the pages the lookaside maps,
//! so a caller can serve a run of accesses from one borrowed page instead
//! of resolving every element. A page run is a sequence of lookaside hits
//! with no VM call in between, so the epoch cannot move inside one: each
//! access it serves is one `try_get`/`try_set` would have served as a hit,
//! and hits are invisible to the simulated machine. It never fills a way
//! or upgrades a read tag; a page it does not map, or a store to a page it
//! maps read-only, goes through the full path.

use crate::vm::Vm;
use blockdev::IoBuffer;
use simcore::Signal;
use std::cell::{Cell, Ref, RefCell};

/// Fixed-size plain-data element storable in paged memory.
pub trait Element: Copy {
    /// Encoded size in bytes; must divide the page size.
    const SIZE: usize;
    /// Serialise into `out` (little-endian).
    fn store(&self, out: &mut [u8]);
    /// Deserialise from `inp`.
    fn load(inp: &[u8]) -> Self;
}

macro_rules! impl_element {
    ($($t:ty),*) => {$(
        impl Element for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn store(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn load(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("element size"))
            }
        }
    )*};
}

impl_element!(i32, u32, i64, u64, f32, f64);

/// A virtual address space: an asid plus a bump allocator for page ranges.
pub struct AddressSpace {
    vm: Vm,
    asid: u32,
    next_vpn: Cell<u64>,
}

impl AddressSpace {
    /// Create a fresh address space on `vm`.
    pub fn new(vm: &Vm) -> AddressSpace {
        AddressSpace {
            vm: vm.clone(),
            asid: vm.new_asid(),
            next_vpn: Cell::new(0),
        }
    }

    /// The VM backing this space.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Address-space id.
    pub fn asid(&self) -> u32 {
        self.asid
    }

    /// Reserve `pages` virtual pages; returns the base vpn.
    pub fn alloc_pages(&self, pages: u64) -> u64 {
        let base = self.next_vpn.get();
        self.next_vpn.set(base + pages);
        base
    }

    /// Pages reserved so far.
    pub fn reserved_pages(&self) -> u64 {
        self.next_vpn.get()
    }
}

/// Page mappings the [`PagedVec`] lookaside holds. Four covers the
/// workloads' working sets between epoch bumps: the Lomuto partition's two
/// cursors plus the pivot and a neighbour page.
const LOOKASIDE_WAYS: usize = 4;

/// An empty lookaside way: no vpn shifts to this tag.
const NO_PAGE: u64 = u64::MAX;

/// Host-side cost counters of one [`PagedVec`]'s lookaside. Deterministic
/// for a given run, and kept out of the metrics registry so they do not
/// change any figure output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookasideStats {
    /// Element accesses (`try_get`/`try_set`; blocked retries count again).
    pub accesses: u64,
    /// Accesses that missed the lookaside and went through
    /// [`Vm::try_page`].
    pub fills: u64,
}

/// A typed array living in paged virtual memory.
pub struct PagedVec<T: Element> {
    vm: Vm,
    /// Shared epoch counter, read without borrowing the VM (hot path).
    epoch: std::rc::Rc<Cell<u64>>,
    asid: u32,
    base_vpn: u64,
    len: usize,
    per_page: usize,
    /// `log2(per_page)` when `per_page` is a power of two (always, for the
    /// built-in element types): index math becomes shift/mask instead of
    /// an integer divide on every access.
    per_page_shift: Option<u32>,
    page_size: usize,
    /// Lookaside tags, one per way: `vpn << 1 | write`, or [`NO_PAGE`].
    tags: [Cell<u64>; LOOKASIDE_WAYS],
    /// The epoch every way was filled under.
    tags_epoch: Cell<u64>,
    /// Next way a fill of a new page replaces.
    next_way: Cell<usize>,
    /// Frame buffer per way; borrowed only on a hit and written on a fill.
    bufs: RefCell<[Option<IoBuffer>; LOOKASIDE_WAYS]>,
    accesses: Cell<u64>,
    fills: Cell<u64>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> PagedVec<T> {
    /// Allocate a paged array of `len` elements in `space`. Pages are
    /// faulted lazily on first touch (zero-filled), like anonymous memory.
    pub fn new(space: &AddressSpace, len: usize) -> PagedVec<T> {
        let page_size = space.vm().page_size() as usize;
        assert!(
            T::SIZE > 0 && page_size.is_multiple_of(T::SIZE),
            "element size must divide the page size"
        );
        let per_page = page_size / T::SIZE;
        let pages = len.div_ceil(per_page).max(1) as u64;
        let base_vpn = space.alloc_pages(pages);
        PagedVec {
            vm: space.vm().clone(),
            epoch: space.vm().epoch_handle(),
            asid: space.asid(),
            base_vpn,
            len,
            per_page,
            per_page_shift: per_page
                .is_power_of_two()
                .then(|| per_page.trailing_zeros()),
            page_size,
            tags: std::array::from_fn(|_| Cell::new(NO_PAGE)),
            tags_epoch: Cell::new(u64::MAX),
            next_way: Cell::new(0),
            bufs: RefCell::new(Default::default()),
            accesses: Cell::new(0),
            fills: Cell::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages backing the array.
    pub fn pages(&self) -> u64 {
        (self.len.div_ceil(self.per_page).max(1)) as u64
    }

    /// Total footprint in bytes (page-granular).
    pub fn footprint_bytes(&self) -> u64 {
        self.pages() * self.page_size as u64
    }

    /// Lookaside counters so far.
    pub fn lookaside_stats(&self) -> LookasideStats {
        LookasideStats {
            accesses: self.accesses.get(),
            fills: self.fills.get(),
        }
    }

    #[inline]
    fn locate(&self, index: usize) -> (u64, usize) {
        assert!(index < self.len, "index {index} out of {}", self.len);
        match self.per_page_shift {
            Some(shift) => (
                self.base_vpn + (index >> shift) as u64,
                (index & (self.per_page - 1)) * T::SIZE,
            ),
            None => (
                self.base_vpn + (index / self.per_page) as u64,
                (index % self.per_page) * T::SIZE,
            ),
        }
    }

    /// Run `f` against the page's buffer, resolving through the lookaside.
    /// A hit touches only `Cell`s and the cached buffer — no VM borrow, no
    /// `Rc` clone — which is what makes element-at-a-time workloads over
    /// multi-GiB arrays affordable.
    #[inline(always)]
    fn with_page<R>(
        &self,
        vpn: u64,
        write: bool,
        f: impl FnOnce(&IoBuffer) -> R,
    ) -> Result<R, Signal> {
        self.accesses.set(self.accesses.get() + 1);
        // A write needs a write tag; a read takes either (`| 1` folds the
        // read tag onto the write tag).
        let key = vpn << 1 | 1;
        let fold = !write as u64;
        let hit = if self.tags_epoch.get() == self.epoch.get() {
            self.tags.iter().position(|t| t.get() | fold == key)
        } else {
            None
        };
        let way = match hit {
            Some(way) => way,
            None => self.fill(vpn, write)?,
        };
        // One call site for `f`, so it inlines into the hit path.
        let bufs = self.bufs.borrow();
        let buf = bufs[way].as_ref().expect("a tagged way holds its buffer");
        Ok(f(buf))
    }

    /// Lookaside miss: map the page through the VM, cache the mapping and
    /// return its way. A read→write upgrade reuses its page's way; a new
    /// page takes the next way round-robin.
    #[inline(never)]
    fn fill(&self, vpn: u64, write: bool) -> Result<usize, Signal> {
        self.fills.set(self.fills.get() + 1);
        let buf = self.vm.try_page(self.asid, vpn, write)?;
        // Read after `try_page`: the mapping is valid as of the epoch the
        // fault path left behind.
        let epoch = self.epoch.get();
        if self.tags_epoch.get() != epoch {
            for tag in &self.tags {
                tag.set(NO_PAGE);
            }
            self.tags_epoch.set(epoch);
        }
        let way = match self.tags.iter().position(|t| t.get() >> 1 == vpn) {
            Some(way) => way,
            None => {
                let way = self.next_way.get();
                self.next_way.set((way + 1) % LOOKASIDE_WAYS);
                way
            }
        };
        self.tags[way].set(vpn << 1 | write as u64);
        self.bufs.borrow_mut()[way] = Some(buf);
        Ok(way)
    }

    /// Open a page run: a window on the pages the lookaside maps under the
    /// current epoch, for a caller that serves a sequence of accesses from
    /// them without going through [`PagedVec::try_get`]/[`PagedVec::try_set`]
    /// per element. Such a sequence is a run of lookaside hits with no VM
    /// call in between, so the epoch cannot move inside it and the simulated
    /// machine cannot tell it from element-at-a-time access. Drop the run
    /// before the next VM call: a lookaside fill while a run is open panics.
    pub fn page_run(&self) -> PageRun<'_, T> {
        PageRun {
            vec: self,
            bufs: self.bufs.borrow(),
        }
    }

    /// Read element `index`, or the signal to wait on.
    #[inline]
    pub fn try_get(&self, index: usize) -> Result<T, Signal> {
        let (vpn, off) = self.locate(index);
        self.with_page(vpn, false, |buf| {
            let b = buf.borrow();
            T::load(&b[off..off + T::SIZE])
        })
    }

    /// Write element `index`, or the signal to wait on.
    #[inline]
    pub fn try_set(&self, index: usize, value: T) -> Result<(), Signal> {
        let (vpn, off) = self.locate(index);
        self.with_page(vpn, true, |buf| {
            let mut b = buf.borrow_mut();
            value.store(&mut b[off..off + T::SIZE]);
        })
    }

    /// Blocking read (runs the engine through any fault).
    pub fn get(&self, index: usize) -> T {
        loop {
            match self.try_get(index) {
                Ok(v) => return v,
                Err(sig) => self.vm.engine().run_until_signal(&sig),
            }
        }
    }

    /// Blocking write.
    pub fn set(&self, index: usize, value: T) {
        loop {
            match self.try_set(index, value) {
                Ok(()) => return,
                Err(sig) => self.vm.engine().run_until_signal(&sig),
            }
        }
    }

    /// Blocking swap of two elements.
    pub fn swap(&self, i: usize, j: usize) {
        let a = self.get(i);
        let b = self.get(j);
        self.set(i, b);
        self.set(j, a);
    }

    /// Release the backing pages and swap slots. Call with the engine
    /// quiesced (no in-flight I/O on these pages).
    pub fn release(self) {
        self.vm
            .release_range(self.asid, self.base_vpn, self.pages());
    }
}

/// An open page run of a [`PagedVec`] (see [`PagedVec::page_run`]). It
/// holds the lookaside's ways, so no fill can replace a buffer it lent out.
pub struct PageRun<'a, T: Element> {
    vec: &'a PagedVec<T>,
    bufs: Ref<'a, [Option<IoBuffer>; LOOKASIDE_WAYS]>,
}

/// A page a lookaside way maps, as a [`PageRun`] lends it.
pub struct RunPage<'r> {
    /// The frame's buffer.
    pub buf: &'r IoBuffer,
    /// First element index the page holds.
    pub first: usize,
    /// One past the last element index the page holds.
    pub end: usize,
    /// The way holds a write tag: the page's dirty bit is set, so stores
    /// through `buf` are allowed. Without it the page may only be read.
    pub write: bool,
}

impl<T: Element> PageRun<'_, T> {
    /// The page holding element `index`, if a lookaside way maps it under
    /// the current epoch; `None` otherwise. Never calls the VM, never fills
    /// a way and never upgrades a read tag: a missing page or a missing
    /// write permission is the caller's cue to take the full path.
    #[inline]
    pub fn page(&self, index: usize) -> Option<RunPage<'_>> {
        let vec = self.vec;
        let (vpn, _) = vec.locate(index);
        if vec.tags_epoch.get() != vec.epoch.get() {
            return None;
        }
        let way = vec.tags.iter().position(|t| t.get() >> 1 == vpn)?;
        let first = (vpn - vec.base_vpn) as usize * vec.per_page;
        Some(RunPage {
            buf: self.bufs[way]
                .as_ref()
                .expect("a tagged way holds its buffer"),
            first,
            end: (first + vec.per_page).min(vec.len),
            write: vec.tags[way].get() & 1 == 1,
        })
    }

    /// Count `accesses` element accesses served from this run's pages in
    /// [`LookasideStats::accesses`], as the hits they stand for.
    pub fn count(&self, accesses: u64) {
        let vec = self.vec;
        vec.accesses.set(vec.accesses.get() + accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmConfig;
    use netmodel::{Calibration, Node};
    use simcore::Engine;
    use std::rc::Rc;

    /// A VM with `frames` frames of local memory and a RamDisk swap device
    /// of `swap_pages` pages (remote-memory-like but trivially local).
    fn vm_fixture(frames: usize, swap_pages: u64) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let node = Node::new("client", 0, 2);
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), config);
        let backend =
            crate::BlockBackend::over_ramdisk(&engine, &cal, &node, swap_pages * 4096, "swap");
        vm.add_swap_backend(backend, 0);
        (engine, vm)
    }

    #[test]
    fn fits_in_memory_no_swap() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 1000);
        for i in 0..1000 {
            v.set(i, i as i32 * 3);
        }
        for i in 0..1000 {
            assert_eq!(v.get(i), i as i32 * 3);
        }
        assert_eq!(vm.stats().major_faults, 0);
        assert_eq!(vm.stats().swap_outs, 0);
    }

    #[test]
    fn working_set_larger_than_memory_swaps_and_survives() {
        // 32 frames of memory, array needs 128 pages.
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 128 * 1024; // i32 elements over 128 pages
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, i as i32 ^ 0x5A5A);
        }
        // Read everything back — pages must round-trip through swap intact.
        for i in 0..n {
            assert_eq!(v.get(i), i as i32 ^ 0x5A5A, "element {i}");
        }
        let stats = vm.stats();
        assert!(stats.swap_outs > 0, "must have paged out");
        assert!(stats.major_faults > 0, "must have faulted back in");
        engine.run_until_idle();
    }

    #[test]
    fn readahead_reduces_major_faults_for_sequential_access() {
        let (_engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 128 * 1024;
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, 1);
        }
        for i in 0..n {
            let _ = v.get(i);
        }
        let stats = vm.stats();
        // 128 pages re-read; readahead in clusters of 8 should make major
        // faults far fewer than pages read.
        assert!(
            stats.readaheads > stats.major_faults,
            "readahead {} vs major {}",
            stats.readaheads,
            stats.major_faults
        );
    }

    #[test]
    fn clean_pages_evict_without_io() {
        let (_engine, vm) = vm_fixture(32, 512);
        let space = AddressSpace::new(&vm);
        let n = 200 * 1024; // 200 pages
        let v: PagedVec<i32> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, 7);
        }
        let outs_after_fill = vm.stats().swap_outs;
        // Two read-only sweeps: pages come in clean and should mostly leave
        // clean (no additional write-out).
        for _ in 0..2 {
            for i in 0..n {
                let _ = v.get(i);
            }
        }
        let stats = vm.stats();
        assert!(stats.clean_evictions > 0, "clean evictions expected");
        let extra_outs = stats.swap_outs - outs_after_fill;
        assert!(
            extra_outs < stats.clean_evictions / 4,
            "read-only sweeps should not rewrite pages: {extra_outs} extra writes vs {} clean",
            stats.clean_evictions
        );
    }

    #[test]
    fn time_advances_under_paging() {
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let n = 64 * 1024;
        let v: PagedVec<i64> = PagedVec::new(&space, n);
        for i in 0..n {
            v.set(i, i as i64);
        }
        assert!(engine.now().as_nanos() > 0, "paging must cost virtual time");
    }

    #[test]
    fn release_frees_frames_and_slots() {
        let (engine, vm) = vm_fixture(32, 256);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 64 * 1024);
        for i in 0..v.len() {
            v.set(i, 1);
        }
        engine.run_until_idle();
        let slots_before = vm.free_swap_slots();
        assert!(slots_before < 256, "the array must be holding swap slots");
        v.release();
        // All frames and every slot back.
        assert_eq!(vm.free_frames(), 32);
        assert_eq!(vm.free_swap_slots(), 256);
        assert!(vm.free_swap_slots() > slots_before);
    }

    #[test]
    fn element_roundtrip_all_types() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let vf: PagedVec<f64> = PagedVec::new(&space, 100);
        vf.set(42, -1.5e300);
        assert_eq!(vf.get(42), -1.5e300);
        let vu: PagedVec<u64> = PagedVec::new(&space, 100);
        vu.set(0, u64::MAX);
        assert_eq!(vu.get(0), u64::MAX);
        let vi: PagedVec<i64> = PagedVec::new(&space, 100);
        vi.set(99, i64::MIN);
        assert_eq!(vi.get(99), i64::MIN);
    }

    #[test]
    fn distinct_spaces_do_not_alias() {
        let (_engine, vm) = vm_fixture(64, 128);
        let s1 = AddressSpace::new(&vm);
        let s2 = AddressSpace::new(&vm);
        let a: PagedVec<i32> = PagedVec::new(&s1, 1024);
        let b: PagedVec<i32> = PagedVec::new(&s2, 1024);
        for i in 0..1024 {
            a.set(i, 1);
            b.set(i, 2);
        }
        for i in 0..1024 {
            assert_eq!(a.get(i), 1);
            assert_eq!(b.get(i), 2);
        }
    }

    #[test]
    fn swap_exhaustion_keeps_pages_resident() {
        // Swap much smaller than the working set: the VM cannot evict
        // everything, but data must stay correct for what fits.
        let (_engine, vm) = vm_fixture(64, 16);
        let space = AddressSpace::new(&vm);
        // 40 pages working set, 64 frames: fits in memory, no pressure.
        let v: PagedVec<i32> = PagedVec::new(&space, 40 * 1024);
        for i in 0..v.len() {
            v.set(i, 3);
        }
        for i in 0..v.len() {
            assert_eq!(v.get(i), 3);
        }
    }

    /// A swap device that snapshots a page when the write is submitted
    /// (DMA at submission, like a real controller or an RDMA pull) and
    /// completes `delay` later — so a store that lands between submission
    /// and completion is *not* in the swap copy, and a lost write shows up
    /// as stale data on read-back.
    struct SnapshotDisk {
        engine: Engine,
        delay: simcore::SimDuration,
        pages: Rc<std::cell::RefCell<std::collections::BTreeMap<u64, Vec<u8>>>>,
    }

    impl crate::SwapBackend for SnapshotDisk {
        fn capacity(&self) -> u64 {
            1 << 30
        }
        fn device_name(&self) -> &str {
            "snapshot"
        }
        fn store(&self, offset: u64, buf: IoBuffer, done: crate::PageDone) {
            self.pages.borrow_mut().insert(offset, buf.borrow().clone());
            self.engine.schedule_in(self.delay, move || done(Ok(())));
        }
        fn load(&self, offset: u64, _kind: crate::LoadKind, buf: IoBuffer, done: crate::PageDone) {
            let pages = self.pages.clone();
            self.engine.schedule_in(self.delay, move || {
                buf.borrow_mut().copy_from_slice(&pages.borrow()[&offset]);
                done(Ok(()))
            });
        }
        fn reap(&self) {}
        fn requests(&self) -> u64 {
            0
        }
        fn mean_request_bytes(&self) -> f64 {
            0.0
        }
        fn read_latency(&self) -> simcore::OnlineStats {
            simcore::OnlineStats::new()
        }
        fn write_latency(&self) -> simcore::OnlineStats {
            simcore::OnlineStats::new()
        }
    }

    fn snapshot_fixture(frames: usize) -> (Engine, Vm) {
        let engine = Engine::new();
        let cal = Rc::new(Calibration::cluster_2005());
        let mut config = VmConfig::for_memory(frames as u64 * 4096);
        config.total_frames = frames;
        let vm = Vm::new(engine.clone(), cal, Node::new("client", 0, 2), config);
        vm.add_swap_backend(
            Rc::new(SnapshotDisk {
                engine: engine.clone(),
                delay: simcore::SimDuration::from_micros(20),
                pages: Rc::default(),
            }),
            0,
        );
        (engine, vm)
    }

    /// Regression: CLOCK clearing the accessed bit used to leave the
    /// lookaside valid, so a page hammered through it looked unreferenced
    /// at the next CLOCK visit and was evicted as the hottest page in the
    /// system.
    #[test]
    fn hot_page_survives_its_second_chance() {
        let (engine, vm) = snapshot_fixture(128);
        let space = AddressSpace::new(&vm);
        let stream: PagedVec<u64> = PagedVec::new(&space, 512 * 512);
        let hot: PagedVec<u64> = PagedVec::new(&space, 512);
        let p = hot.base_vpn;
        let mut next = 0;
        // Enough pages ahead of P on the clock that the first reclaim pass
        // clears P's accessed bit without wrapping round to it again, and
        // enough behind it that the second pass stops before a wrap too:
        // each visit is a separate pass.
        while next < 48 {
            stream.set(next * 512, next as u64);
            next += 1;
        }
        hot.set(0, 0);
        // Phase 1: hit P right before every stream write, and again while
        // the stream waits on the reclaim pass that cleared P's bit.
        loop {
            hot.try_set(0, next as u64).expect("hot page stays mapped");
            match stream.try_set(next * 512, next as u64) {
                Ok(()) => next += 1,
                Err(sig) => {
                    let cleared = matches!(vm.page_bits(space.asid(), p), (true, false, _));
                    if cleared {
                        hot.try_set(0, 1).expect("hot page stays mapped");
                    }
                    engine.run_until_signal(&sig);
                    if cleared {
                        break;
                    }
                }
            }
        }
        // Phase 2: stream without touching P until CLOCK comes round to it
        // again — it either clears the bit the touch set, or (if the touch
        // went unseen) evicts P.
        let faults = vm.stats().major_faults;
        let mut was_referenced = false;
        loop {
            let (resident, referenced, _) = vm.page_bits(space.asid(), p);
            if !resident || (was_referenced && !referenced) {
                break;
            }
            was_referenced |= referenced;
            assert!(next < stream.len() / 512, "CLOCK never came back to P");
            stream.set(next * 512, next as u64);
            next += 1;
        }
        assert!(
            vm.page_bits(space.asid(), p).0,
            "P was evicted at its second CLOCK visit"
        );
        assert_eq!(hot.try_get(0).ok(), Some(1));
        assert_eq!(vm.stats().major_faults, faults, "P must not fault");
        vm.check_invariants();
    }

    /// Regression: a write mapping cached before its page went under
    /// writeback let stores bypass `dirty_again`, and `finish_write` then
    /// freed the frame as clean — the store was lost.
    #[test]
    fn no_lost_write_under_writeback() {
        let (engine, vm) = snapshot_fixture(64);
        let space = AddressSpace::new(&vm);
        let hot: PagedVec<u64> = PagedVec::new(&space, 512);
        let stream: PagedVec<u64> = PagedVec::new(&space, 512 * 512);
        let p = hot.base_vpn;
        hot.set(0, 0);
        let mut next = 0;
        // P sits at the front of the clock; write through the lookaside
        // before each stream write until a reclaim pass puts P under
        // writeback.
        let sig = loop {
            hot.try_set(0, 1).expect("hot page stays mapped");
            match stream.try_set(next * 512, next as u64) {
                Ok(()) => next += 1,
                Err(sig) if !vm.page_bits(space.asid(), p).0 => break sig,
                Err(sig) => engine.run_until_signal(&sig),
            }
        };
        hot.try_set(0, 2)
            .expect("a page under writeback stays mapped");
        engine.run_until_signal(&sig);
        engine.run_until_idle();
        // Evict P again, then fault it back in.
        while vm.page_bits(space.asid(), p).0 {
            assert!(next < stream.len() / 512, "P never left memory");
            stream.set(next * 512, next as u64);
            next += 1;
        }
        engine.run_until_idle();
        let faults = vm.stats().major_faults;
        assert_eq!(hot.get(0), 2, "the store under writeback was lost");
        assert!(vm.stats().major_faults > faults, "P must fault back in");
        vm.check_invariants();
    }

    /// `(first, end, write)` of the page a run lends for `index`.
    fn run_page(v: &PagedVec<u64>, index: usize) -> Option<(usize, usize, bool)> {
        v.page_run().page(index).map(|p| (p.first, p.end, p.write))
    }

    #[test]
    fn page_run_lends_only_current_mappings() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<u64> = PagedVec::new(&space, 1200);
        v.set(3, 7);
        // Page 1's zero fill bumps the epoch and empties the lookaside.
        v.set(512, 8);
        assert_eq!(run_page(&v, 3), None, "page 0 went with the epoch");
        assert_eq!(run_page(&v, 600), Some((512, 1024, true)));
        // A read maps page 0 again, read-only; page 1 keeps its write tag.
        assert_eq!(v.get(3), 7);
        assert_eq!(run_page(&v, 3), Some((0, 512, false)));
        assert_eq!(run_page(&v, 1023), Some((512, 1024, true)));
        {
            let run = v.page_run();
            let page = run.page(3).expect("page 0 is mapped");
            assert_eq!(page.buf.borrow()[3 * 8..4 * 8], 7u64.to_le_bytes());
        }
        // The last page holds only the array's tail.
        v.set(1100, 9);
        assert_eq!(run_page(&v, 1199), Some((1024, 1200, true)));
        assert_eq!(run_page(&v, 3), None, "page 2's zero fill bumped the epoch");
        // An epoch bump elsewhere leaves `v`'s tags in place, stale.
        let w: PagedVec<u64> = PagedVec::new(&space, 1);
        w.set(0, 1);
        assert_eq!(
            run_page(&v, 1199),
            None,
            "another array's fault bumped the epoch"
        );
    }

    #[test]
    fn page_run_never_fills_upgrades_or_touches_page_bits() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<u64> = PagedVec::new(&space, 2 * 512);
        let asid = space.asid();
        let vpn = v.base_vpn;
        v.set(0, 1);
        v.set(512, 2);
        assert_eq!(v.get(0), 1);
        let before = (v.lookaside_stats(), vm.page_bits(asid, vpn), vm.epoch());
        for _ in 0..3 {
            assert_eq!(run_page(&v, 0), Some((0, 512, false)), "never upgraded");
        }
        assert_eq!(run_page(&v, 512), Some((512, 1024, true)));
        assert_eq!(
            (v.lookaside_stats(), vm.page_bits(asid, vpn), vm.epoch()),
            before,
            "a page run is invisible to the lookaside counters and the VM"
        );
        // The store takes the full path, which upgrades the read tag.
        v.set(0, 3);
        assert_eq!(v.lookaside_stats().fills, before.0.fills + 1);
        assert_eq!(run_page(&v, 0), Some((0, 512, true)));
    }

    #[test]
    fn page_run_counts_the_accesses_it_serves() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<u64> = PagedVec::new(&space, 512);
        v.set(0, 1);
        let before = v.lookaside_stats();
        v.page_run().count(5);
        assert_eq!(
            v.lookaside_stats(),
            LookasideStats {
                accesses: before.accesses + 5,
                fills: before.fills,
            }
        );
    }

    /// Reclaim clearing a page's accessed bit shoots down its mapping; the
    /// run must not lend the page, which would hide the next access from
    /// CLOCK, and asking must leave the bit cleared. Same setup as
    /// `hot_page_survives_its_second_chance`.
    #[test]
    fn page_run_does_not_lend_a_page_clock_cleared() {
        let (engine, vm) = snapshot_fixture(128);
        let space = AddressSpace::new(&vm);
        let stream: PagedVec<u64> = PagedVec::new(&space, 512 * 512);
        let hot: PagedVec<u64> = PagedVec::new(&space, 512);
        let (asid, p) = (space.asid(), hot.base_vpn);
        for next in 0..48 {
            stream.set(next * 512, next as u64);
        }
        hot.set(0, 0);
        for next in 48..stream.len() / 512 {
            hot.try_set(0, 1).expect("hot page stays mapped");
            while let Err(sig) = stream.try_set(next * 512, next as u64) {
                let bits = vm.page_bits(asid, p);
                if matches!(bits, (true, false, _)) {
                    let fills = hot.lookaside_stats().fills;
                    assert_eq!(run_page(&hot, 0), None);
                    assert_eq!(vm.page_bits(asid, p), bits);
                    assert_eq!(hot.lookaside_stats().fills, fills);
                    return;
                }
                engine.run_until_signal(&sig);
            }
        }
        panic!("CLOCK never cleared the hot page's accessed bit");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_access_panics() {
        let (_engine, vm) = vm_fixture(64, 64);
        let space = AddressSpace::new(&vm);
        let v: PagedVec<i32> = PagedVec::new(&space, 10);
        v.get(10);
    }
}
