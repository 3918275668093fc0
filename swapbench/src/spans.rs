//! Host-time spans recorded from outside the simulator.
//!
//! The traced run wraps three trait objects the simulator is assembled
//! from: every [`Task`] the scheduler steps, the [`SwapBackend`] the VM
//! swaps through and the [`BlockDevice`] under it (the HPBD client). Each
//! wrapped call opens a span with its start, end and parent — the span
//! that was open when the call began — and forwards the call unchanged.
//! Spans stay in memory while the run executes; [`write_csv`] saves them
//! when the benchmark ends. A layer's self time is its spans' duration
//! minus the part covered by their child spans ([`Totals::from_spans`]).

use blockdev::{BlockDevice, DeviceHealth, IoBuffer, IoRequest};
use simcore::OnlineStats;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;
use vmsim::{LoadKind, PageDone, SwapBackend};
use workloads::{Step, Task};

/// The call boundary a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Task::step`: the workload and the VM page emulation under it.
    Step,
    /// `SwapBackend::store`.
    Store,
    /// `SwapBackend::load`.
    Load,
    /// `SwapBackend::reap`.
    Reap,
    /// `BlockDevice::submit` on the HPBD client.
    Submit,
}

impl Kind {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::Store => "store",
            Kind::Load => "load",
            Kind::Reap => "reap",
            Kind::Submit => "submit",
        }
    }
}

/// Parent of a span opened while no other span was open.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which boundary.
    pub kind: Kind,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since recording began.
    pub start_ns: u64,
    /// End, ns since recording began.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Drop any earlier spans and start recording.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans.clear();
        r.open.clear();
        r.origin = Instant::now();
        r.on = true;
    });
}

/// Stop recording and hand back the spans recorded since [`start`].
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        assert!(r.open.is_empty(), "recording stopped inside a span");
        std::mem::take(&mut r.spans)
    })
}

/// Run `f` inside a span of `kind` (a plain call while not recording).
/// The recorder is not borrowed while `f` runs, so spans nest.
fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            r.spans[id as usize].end_ns = end_ns;
            let closed = r.open.pop();
            debug_assert_eq!(closed, Some(id));
        });
    }
    out
}

/// Per-layer host time and call counts folded from one run's spans.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// `Task::step` calls.
    pub steps: u64,
    /// `SwapBackend` calls (store + load + reap).
    pub backend_calls: u64,
    /// `BlockDevice::submit` calls.
    pub submits: u64,
    /// Inclusive time in `Task::step`, seconds.
    pub step_incl_s: f64,
    /// `Task::step` minus the backend and device calls nested in it.
    pub step_self_s: f64,
    /// `SwapBackend` calls minus the device calls nested in them.
    pub backend_self_s: f64,
    /// Time in `BlockDevice::submit`.
    pub submit_self_s: f64,
}

impl Totals {
    /// Fold spans into per-kind self times.
    pub fn from_spans(spans: &[Span]) -> Totals {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut t = Totals::default();
        for (s, child) in spans.iter().zip(&child_ns) {
            let dur = s.duration_ns() as f64 * 1e-9;
            let own = (s.duration_ns() - child) as f64 * 1e-9;
            match s.kind {
                Kind::Step => {
                    t.steps += 1;
                    t.step_incl_s += dur;
                    t.step_self_s += own;
                }
                Kind::Submit => {
                    t.submits += 1;
                    t.submit_self_s += own;
                }
                Kind::Store | Kind::Load | Kind::Reap => {
                    t.backend_calls += 1;
                    t.backend_self_s += own;
                }
            }
        }
        t
    }
}

/// Write `spans` as CSV (`id,parent,kind,start_ns,end_ns`; parent -1 for
/// top-level spans) after a `#`-prefixed header line.
pub fn write_csv(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "id,parent,kind,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{i},{parent},{},{},{}",
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// A [`Task`] whose every `step` is a span; counts steps that blocked.
pub struct TracedTask<'a> {
    inner: &'a mut dyn Task,
    blocked: Rc<Cell<u64>>,
}

impl<'a> TracedTask<'a> {
    /// Wrap `inner`, adding its blocked steps to `blocked`.
    pub fn new(inner: &'a mut dyn Task, blocked: Rc<Cell<u64>>) -> TracedTask<'a> {
        TracedTask { inner, blocked }
    }
}

impl Task for TracedTask<'_> {
    fn step(&mut self, max_ops: u64) -> Step {
        let step = timed(Kind::Step, || self.inner.step(max_ops));
        if matches!(step, Step::Blocked(_)) {
            self.blocked.set(self.blocked.get() + 1);
        }
        step
    }

    fn ns_per_op(&self) -> u64 {
        self.inner.ns_per_op()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`SwapBackend`] whose store/load/reap calls are spans.
pub struct TracedBackend(pub Rc<dyn SwapBackend>);

impl SwapBackend for TracedBackend {
    fn capacity(&self) -> u64 {
        self.0.capacity()
    }

    fn device_name(&self) -> &str {
        self.0.device_name()
    }

    fn store(&self, offset: u64, buf: IoBuffer, done: PageDone) {
        timed(Kind::Store, || self.0.store(offset, buf, done));
    }

    fn load(&self, offset: u64, kind: LoadKind, buf: IoBuffer, done: PageDone) {
        timed(Kind::Load, || self.0.load(offset, kind, buf, done));
    }

    fn reap(&self) {
        timed(Kind::Reap, || self.0.reap());
    }

    fn requests(&self) -> u64 {
        self.0.requests()
    }

    fn mean_request_bytes(&self) -> f64 {
        self.0.mean_request_bytes()
    }

    fn read_latency(&self) -> OnlineStats {
        self.0.read_latency()
    }

    fn write_latency(&self) -> OnlineStats {
        self.0.write_latency()
    }
}

/// A [`BlockDevice`] whose `submit` calls are spans.
pub struct TracedDevice(pub Rc<dyn BlockDevice>);

impl BlockDevice for TracedDevice {
    fn capacity(&self) -> u64 {
        self.0.capacity()
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn submit(&self, req: IoRequest) {
        timed(Kind::Submit, || self.0.submit(req));
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }

    fn health(&self) -> DeviceHealth {
        self.0.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) > store [10,60) > submit [20,50); reap [200,230).
        let spans = [
            span(Kind::Step, ROOT, 0, 100),
            span(Kind::Store, 0, 10, 60),
            span(Kind::Submit, 1, 20, 50),
            span(Kind::Reap, ROOT, 200, 230),
        ];
        let t = Totals::from_spans(&spans);
        assert_eq!((t.steps, t.backend_calls, t.submits), (1, 2, 1));
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(t.step_incl_s), 100);
        assert_eq!(ns(t.step_self_s), 50);
        assert_eq!(ns(t.backend_self_s), 20 + 30);
        assert_eq!(ns(t.submit_self_s), 30);
    }

    #[test]
    fn spans_nest_and_stop_when_recording_ends() {
        start();
        timed(Kind::Step, || {
            timed(Kind::Load, || timed(Kind::Submit, || ()))
        });
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        timed(Kind::Step, || ());
        assert!(stop().is_empty(), "nothing is recorded while off");
    }
}
