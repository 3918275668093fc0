//! The benchmark workloads: machine assembly, the timed run, and the
//! output checks.
//!
//! Each workload is one simulated client with four HPBD memory servers,
//! configured as the figure it comes from ships it. Sizes are the paper's
//! divided by a scale. Every input — the quicksort data and the Zipf
//! access stream — is derived from the benchmark seed alone.

use crate::spans::{TracedBackend, TracedDevice, TracedTask};
use blockdev::{BlockDevice, RequestQueue};
use hpbd::{ClientStats, ClusterBuilder, HpbdCluster};
use ibsim::Fabric;
use netmodel::{Calibration, Node};
use simcore::{Engine, FlightSummary, LifecycleHub, MetricsSnapshot, SimDuration, SimRng};
use simtrace::HistogramSummary;
use std::cell::Cell;
use std::rc::Rc;
use vmsim::{
    AddressSpace, BlockBackend, DirectBackend, DirectStats, SwapBackend, Vm, VmConfig, VmStats,
};
use workloads::qsort::QsortTask;
use workloads::zipf::{ZipfParams, ZipfTask};
use workloads::{Scenario, ScenarioConfig, Scheduler, SwapKind, SwapPath, Task};

// Paper sizes are given at scale 1 (§6.1).
const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;
/// Elements of the paper's 1 GiB i32 dataset.
const DATASET_ELEMS: u64 = 256 << 20;
/// HPBD memory servers in every workload.
const SERVERS: usize = 4;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9, HPBD-50 %: two concurrent quicksorts on the block path.
    Qsort2Block,
    /// figU zipf cell: Zipf(s=1) page accesses on the direct path.
    ZipfDirect,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Qsort2Block, Workload::ZipfDirect];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Qsort2Block => "qsort2-block",
            Workload::ZipfDirect => "zipf-direct",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Default scale: one iteration takes about 5 host seconds on
    /// qsort2-block and 1.3 on zipf-direct (2-core Xeon host).
    pub fn default_scale(self) -> u64 {
        match self {
            Workload::Qsort2Block => 128,
            Workload::ZipfDirect => 32,
        }
    }

    /// Inputs a run cycles through. The virtual metrics are medians over
    /// them, so one unlucky input does not set a run's tail latency.
    pub fn inputs(self) -> u64 {
        match self {
            Workload::Qsort2Block => 6,
            Workload::ZipfDirect => 4,
        }
    }

    /// True when the workload swaps through the kernel block layer.
    pub fn block_path(self) -> bool {
        self == Workload::Qsort2Block
    }
}

/// A workload at a scale, with its seed and which of the run's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Paper sizes are divided by this.
    pub scale: u64,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// Index of the input, below [`Workload::inputs`].
    pub input: u64,
}

/// What one input of a seed is.
#[derive(Debug)]
enum Derived {
    Qsort { elements: usize, seeds: [u64; 2] },
    Zipf(ZipfInput),
}

#[derive(Debug)]
struct ZipfInput {
    pages: usize,
    seed: u64,
}

impl Spec {
    /// `workload` at its default scale, first input.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            scale: workload.default_scale(),
            seed,
            input: 0,
        }
    }

    /// The same run's input `input`.
    pub fn with_input(self, input: u64) -> Spec {
        Spec { input, ..self }
    }

    fn bytes(&self, paper: u64) -> u64 {
        ((paper / self.scale) / 4096).max(4) * 4096
    }

    fn elems(&self, paper: u64) -> usize {
        (paper / self.scale).max(1024) as usize
    }

    /// Input `i` takes the `i`-th pair of draws from `SimRng(seed)`.
    fn derived(&self) -> Derived {
        let mut rng = SimRng::new(self.seed);
        for _ in 0..self.input {
            rng.next_u64();
            rng.next_u64();
        }
        match self.workload {
            Workload::Qsort2Block => Derived::Qsort {
                elements: self.elems(DATASET_ELEMS),
                seeds: [rng.next_u64(), rng.next_u64()],
            },
            Workload::ZipfDirect => Derived::Zipf(ZipfInput {
                pages: (2 * self.bytes(512 * MIB) / 4096) as usize,
                seed: rng.next_u64(),
            }),
        }
    }

    /// A printable summary of the seeded inputs.
    pub fn describe_inputs(&self) -> String {
        format!("{:?}", self.derived())
    }

    fn zipf_params(input: &ZipfInput) -> ZipfParams {
        ZipfParams {
            pages: input.pages,
            operations: input.pages * 24,
            seed: input.seed,
            ..ZipfParams::default()
        }
    }

    /// The machine, as the source figure configures it.
    pub fn config(&self) -> ScenarioConfig {
        let kind = SwapKind::Hpbd { servers: SERVERS };
        match self.workload {
            Workload::Qsort2Block => {
                let mut c = ScenarioConfig::new(self.bytes(GIB), self.bytes(512 * MIB) * 4, kind);
                c.hpbd.batching = true;
                c.hpbd.merge_window_ns = 0;
                c
            }
            Workload::ZipfDirect => {
                let mut c = ScenarioConfig::new(self.bytes(512 * MIB), self.bytes(GIB), kind);
                c.swap_path = SwapPath::Direct;
                c
            }
        }
    }

    /// Allocate the workload's tasks on `vm`.
    pub fn inputs(&self, vm: &Vm, cal: &Calibration) -> Inputs {
        let mut spaces = Vec::new();
        let tasks = match self.derived() {
            Derived::Qsort { elements, seeds } => {
                let ns = cal.compute.qsort_ns_per_op;
                let mut task = |seed, name| {
                    spaces.push(AddressSpace::new(vm));
                    QsortTask::new(spaces.last().unwrap(), elements, seed, ns, name)
                };
                let pair = [task(seeds[0], "qsort-a"), task(seeds[1], "qsort-b")];
                Tasks::Qsort(Box::new(pair), seeds)
            }
            Derived::Zipf(input) => {
                spaces.push(AddressSpace::new(vm));
                Tasks::Zipf(Box::new(ZipfTask::new(
                    &spaces[0],
                    Spec::zipf_params(&input),
                )))
            }
        };
        Inputs {
            _spaces: spaces,
            tasks,
        }
    }

    /// The zipf checksum of a LocalOnly machine on the same seed (None for
    /// the other workloads). The checks compare against it.
    pub fn reference_checksum(&self) -> Option<u64> {
        let Derived::Zipf(input) = self.derived() else {
            return None;
        };
        let params = Spec::zipf_params(&input);
        let footprint = params.pages.next_power_of_two() as u64 * 4096;
        let config = ScenarioConfig::new(2 * footprint, footprint, SwapKind::LocalOnly);
        let scenario = Scenario::build(&config);
        let space = AddressSpace::new(&scenario.vm);
        let mut task = ZipfTask::new(&space, params);
        Scheduler::new(scenario.engine.clone(), 2)
            .with_node_cpu(scenario.node.cpu().clone())
            .run_one(&mut task);
        assert_eq!(
            scenario.vm.stats().swap_outs,
            0,
            "the LocalOnly reference must not swap"
        );
        Some(task.checksum())
    }
}

enum Tasks {
    /// The two sorts and the seeds their inputs came from.
    Qsort(Box<[QsortTask; 2]>, [u64; 2]),
    Zipf(Box<ZipfTask>),
}

/// A workload's tasks, allocated on one machine.
pub struct Inputs {
    _spaces: Vec<AddressSpace>,
    tasks: Tasks,
}

impl Inputs {
    fn tasks_mut(&mut self) -> Vec<&mut dyn Task> {
        match &mut self.tasks {
            Tasks::Qsort(pair, _) => {
                let [a, b] = &mut **pair;
                vec![a as &mut dyn Task, b as &mut dyn Task]
            }
            Tasks::Zipf(t) => vec![&mut **t as &mut dyn Task],
        }
    }
}

/// A built client machine with its HPBD cluster.
pub struct Machine {
    /// The event engine.
    pub engine: Engine,
    /// Calibration in effect.
    pub cal: Rc<Calibration>,
    /// The client node.
    pub node: Node,
    /// The client VM.
    pub vm: Vm,
    /// The four servers and the client.
    pub cluster: HpbdCluster,
    /// What the VM swaps through.
    pub backend: Rc<dyn SwapBackend>,
    /// The direct backend (direct path only).
    pub direct: Option<Rc<DirectBackend>>,
}

impl Machine {
    /// The timed run's machine: `Scenario::build`, nothing wrapped.
    pub fn build(config: &ScenarioConfig) -> Machine {
        let s = Scenario::build(config);
        Machine {
            engine: s.engine,
            cal: s.cal,
            node: s.node,
            vm: s.vm,
            cluster: s.hpbd.expect("every workload runs on HPBD"),
            backend: s.backend.expect("every workload swaps"),
            direct: s.direct,
        }
    }

    /// The traced run's machine: the same wiring as `Scenario::build`
    /// assembled from the layers' public constructors, with the swap
    /// backend and the HPBD client behind span-recording wrappers.
    pub fn assemble_traced(config: &ScenarioConfig) -> Machine {
        let SwapKind::Hpbd { servers } = config.kind else {
            panic!("every workload runs on HPBD");
        };
        let cal = Rc::new(Calibration::cluster_2005());
        let engine = Engine::new();
        if config.record_lifecycle {
            engine.set_lifecycle(LifecycleHub::enabled());
        }
        let fabric = Fabric::new(engine.clone(), cal.clone());
        let client = fabric.add_node("hpbd-client");
        let node = client.node().clone();
        let per_server = (config.swap_capacity / servers as u64 / 4096).max(1) * 4096;
        let cluster = ClusterBuilder::new()
            .config(config.hpbd.clone())
            .servers(servers)
            .per_server_capacity(per_server)
            .fault_plan(config.fault_plan.clone())
            .build_on(&fabric, client);
        let device: Rc<dyn BlockDevice> = Rc::new(TracedDevice(Rc::new(cluster.client.clone())));
        let (inner, direct): (Rc<dyn SwapBackend>, _) = match config.swap_path {
            SwapPath::Block => {
                let queue = Rc::new(RequestQueue::with_limits(
                    engine.clone(),
                    cal.clone(),
                    node.clone(),
                    device,
                    config.queue_max_request_bytes,
                    config.queue_flush_backstop,
                ));
                (BlockBackend::new(queue), None)
            }
            SwapPath::Direct => {
                let direct =
                    DirectBackend::new(engine.clone(), node.clone(), device, config.direct.clone());
                (direct.clone(), Some(direct))
            }
        };
        let backend: Rc<dyn SwapBackend> = Rc::new(TracedBackend(inner));
        let mut vm_config = VmConfig::for_memory(config.local_mem);
        if let Some(pages) = config.readahead_pages {
            vm_config.readahead_pages = pages;
        }
        let vm = Vm::new(engine.clone(), cal.clone(), node.clone(), vm_config);
        vm.add_swap_backend(backend.clone(), 0);
        Machine {
            engine,
            cal,
            node,
            vm,
            cluster,
            backend,
            direct,
        }
    }

    /// Run every task to completion; returns the makespan. With `blocked`
    /// set, each task runs behind a span-recording wrapper that counts its
    /// blocked steps there.
    pub fn run(&self, inputs: &mut Inputs, blocked: Option<&Rc<Cell<u64>>>) -> SimDuration {
        let sched = Scheduler::new(self.engine.clone(), 2).with_node_cpu(self.node.cpu().clone());
        let t0 = self.engine.now();
        let mut tasks = inputs.tasks_mut();
        let done = match blocked {
            None => sched.run(&mut tasks),
            Some(blocked) => {
                let mut wrapped: Vec<TracedTask> = tasks
                    .into_iter()
                    .map(|t| TracedTask::new(t, blocked.clone()))
                    .collect();
                let mut refs: Vec<&mut dyn Task> =
                    wrapped.iter_mut().map(|t| t as &mut dyn Task).collect();
                sched.run(&mut refs)
            }
        };
        let end = done.into_iter().max().expect("at least one task");
        end - t0
    }

    /// The virtual outputs of a finished run.
    pub fn outcome(&self, makespan: SimDuration) -> Outcome {
        Outcome {
            makespan,
            events: self.engine.events_executed(),
            max_pending_events: self.engine.max_pending_events() as u64,
            vm: self.vm.stats(),
            metrics: self.engine.metrics().snapshot(),
            client: self.cluster.client.stats(),
            direct: self.direct.as_ref().map(|d| d.stats()),
            requests: self.backend.requests(),
            mean_request_bytes: self.backend.mean_request_bytes(),
            checksum: None,
        }
    }

    /// Free a finished machine. Its layers hold reference cycles — pending
    /// events capture the engine, and each completion queue's event
    /// handler captures the client or server that owns the queue — so
    /// dropping it would leak its memory: drain the events, then replace
    /// every handler.
    pub fn dismantle(self) {
        self.engine.run_until_idle();
        let (recv, send) = self.cluster.client.cqs();
        let servers = self.cluster.servers.iter();
        for cq in [recv, send]
            .into_iter()
            .chain(servers.flat_map(|s| [s.recv_cq(), s.send_cq()]))
        {
            cq.set_event_handler(|| {});
        }
    }

    /// The flight recorder's summary, when lifecycle recording is on.
    pub fn lifecycle(&self) -> Option<FlightSummary> {
        self.engine
            .lifecycle_enabled()
            .then(|| self.engine.lifecycle().summary())
    }
}

/// Everything virtual a run produced. Two runs of one seed must agree on
/// every field, whether traced or not.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Completion of the last task.
    pub makespan: SimDuration,
    /// Engine events executed.
    pub events: u64,
    /// Deepest the event queue got.
    pub max_pending_events: u64,
    /// VM paging counters.
    pub vm: VmStats,
    /// Every counter, gauge and histogram of the engine's registry.
    pub metrics: MetricsSnapshot,
    /// HPBD client counters.
    pub client: ClientStats,
    /// Poll counters (direct path only).
    pub direct: Option<DirectStats>,
    /// Requests the swap backend dispatched.
    pub requests: u64,
    /// Their mean size, bytes.
    pub mean_request_bytes: f64,
    /// zipf: XOR-fold of every value read.
    pub checksum: Option<u64>,
}

impl Outcome {
    /// A histogram of the registry, if it has samples.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.metrics.histograms.get(name).filter(|h| h.count > 0)
    }

    /// A counter of the registry (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// One `name=value` line per virtual output, for exact comparison.
    pub fn fingerprint(&self) -> Vec<String> {
        let mut lines = vec![
            format!("makespan_ns={}", self.makespan.as_nanos()),
            format!("events={}", self.events),
            format!("max_pending_events={}", self.max_pending_events),
            format!("vm={:?}", self.vm),
            format!("client={:?}", self.client),
            format!("direct={:?}", self.direct),
            format!("requests={}", self.requests),
            format!("mean_request_bytes={:?}", self.mean_request_bytes),
            format!("checksum={:?}", self.checksum),
        ];
        let m = &self.metrics;
        lines.extend(m.counters.iter().map(|(k, v)| format!("counter.{k}={v}")));
        lines.extend(m.gauges.iter().map(|(k, v)| format!("gauge.{k}={v:?}")));
        lines.extend(m.histograms.iter().map(|(k, v)| format!("hist.{k}={v:?}")));
        lines
    }

    /// The fingerprint lines on which `self` and `other` differ.
    pub fn diff(&self, other: &Outcome) -> Vec<String> {
        let (a, b) = (self.fingerprint(), other.fingerprint());
        let mut out: Vec<String> = a
            .iter()
            .filter(|l| !b.contains(l))
            .map(|l| format!("- {l}"))
            .collect();
        out.extend(
            b.iter()
                .filter(|l| !a.contains(l))
                .map(|l| format!("+ {l}")),
        );
        out
    }
}

/// Output checks of one run: how many ran and which failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// A line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Check a finished run's outputs (untimed; may fault pages back in), and
/// fill the outcome fields the checks produce.
pub fn check_outputs(
    machine: &Machine,
    inputs: &Inputs,
    outcome: &mut Outcome,
    reference_checksum: Option<u64>,
) -> Checks {
    let mut c = Checks::default();
    match &inputs.tasks {
        Tasks::Qsort(tasks, seeds) => {
            for (task, &seed) in tasks.iter().zip(seeds) {
                let data = task.data();
                let out: Vec<i32> = (0..data.len()).map(|i| data.get(i)).collect();
                c.check(out.windows(2).all(|w| w[0] <= w[1]), || {
                    format!("{}: output is not sorted", task.name())
                });
                let mut rng = SimRng::new(seed);
                let mut input: Vec<i32> = (0..data.len()).map(|_| rng.next_u32() as i32).collect();
                input.sort_unstable();
                c.check(input == out, || {
                    format!("{}: output is not a permutation of its input", task.name())
                });
            }
        }
        Tasks::Zipf(task) => {
            outcome.checksum = Some(task.checksum());
            c.check(Some(task.checksum()) == reference_checksum, || {
                format!(
                    "zipf checksum {:#x} differs from the LocalOnly run's {:?}",
                    task.checksum(),
                    reference_checksum
                )
            });
        }
    }
    if let Some(summary) = machine.lifecycle() {
        let mismatches: u64 = summary.devices.iter().map(|d| d.sum_mismatches).sum();
        c.check(mismatches == 0, || {
            format!("hpbd.phase_sum_mismatches = {mismatches}")
        });
        let failed: u64 = summary.devices.iter().map(|d| d.failed).sum();
        c.check(failed == 0, || format!("{failed} swap requests failed"));
    }
    c
}
