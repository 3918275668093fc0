#![forbid(unsafe_code)]

//! swapbench — the repository benchmark.
//!
//! One process runs one workload for a time budget. The seed expands to a
//! few inputs; the run starts with an untimed warm-up iteration (flight
//! recorder on, so the phase-sum oracle runs), then cycles through the
//! inputs. With tracing off each timed iteration builds the machine
//! through `Scenario::build` and is timed from outside; with tracing on,
//! every untraced iteration is followed by a traced one of the same
//! input, whose machine is assembled from the layers' public
//! constructors with span-recording wrappers ([`spans`]). Every
//! iteration's outputs are checked, and its virtual outputs must equal
//! those of the input's first iteration exactly. See `README.md`.

pub mod host;
pub mod report;
pub mod spans;
pub mod workload;

use simtrace::Phase;
use spans::{Span, Totals};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use workload::{check_outputs, Checks, Machine, Outcome, Spec};

/// How an iteration builds and runs its machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Scenario::build` with the flight recorder on; not timed.
    Warmup,
    /// `Scenario::build`, recorder off: the end-to-end measurement.
    Timed,
    /// Assembled from constructors, wrapped, recorder on.
    Traced,
}

/// One iteration's results.
pub struct Iteration {
    /// Host seconds to build the machine and allocate the tasks.
    pub setup_s: f64,
    /// Host seconds of the run itself.
    pub wall_s: f64,
    /// Its virtual outputs.
    pub outcome: Outcome,
    /// Its output checks.
    pub checks: Checks,
    /// Traced iterations only: what the spans and the flight recorder
    /// add.
    pub trace: Option<TraceData>,
}

/// What a traced iteration adds.
pub struct TraceData {
    /// Every span of the timed span (emptied once a later traced
    /// iteration has run, so that only the last one's stay in memory).
    pub spans: Vec<Span>,
    /// Per-layer totals folded from them.
    pub totals: Totals,
    /// `Task::step` calls that returned `Blocked`.
    pub blocked_steps: u64,
    /// Flight recorder: total ns per request phase, in `Phase::ALL`
    /// order, summed over devices.
    pub phase_ns: Vec<u64>,
    /// Flight recorder: requests whose phases did not tile their latency.
    pub phase_sum_mismatches: u64,
}

/// Build, run and check one iteration of `spec`.
pub fn iterate(spec: &Spec, mode: Mode, reference_checksum: Option<u64>) -> Iteration {
    let mut config = spec.config();
    config.record_lifecycle = mode != Mode::Timed;
    let t0 = Instant::now();
    let machine = match mode {
        Mode::Traced => Machine::assemble_traced(&config),
        Mode::Warmup | Mode::Timed => Machine::build(&config),
    };
    let mut inputs = spec.inputs(&machine.vm, &machine.cal);
    let setup_s = t0.elapsed().as_secs_f64();

    let blocked = Rc::new(Cell::new(0));
    let traced = mode == Mode::Traced;
    if traced {
        spans::start();
    }
    let t1 = Instant::now();
    let makespan = machine.run(&mut inputs, traced.then_some(&blocked));
    let wall_s = t1.elapsed().as_secs_f64();
    let trace = traced.then(|| {
        let spans = spans::stop();
        let flights = machine.lifecycle().expect("traced runs record lifecycles");
        let devices = &flights.devices;
        TraceData {
            totals: Totals::from_spans(&spans),
            spans,
            blocked_steps: blocked.get(),
            phase_ns: Phase::ALL
                .iter()
                .map(|&ph| devices.iter().map(|d| d.phase_total_ns(ph)).sum())
                .collect(),
            phase_sum_mismatches: devices.iter().map(|d| d.sum_mismatches).sum(),
        }
    });

    let mut outcome = machine.outcome(makespan);
    let checks = check_outputs(&machine, &inputs, &mut outcome, reference_checksum);
    drop(inputs);
    machine.dismantle();
    Iteration {
        setup_s,
        wall_s,
        outcome,
        checks,
        trace,
    }
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A benchmark session: the warm-up plus every iteration run since.
pub struct Session {
    /// The run: workload, scale and seed (input 0).
    pub spec: Spec,
    /// Per input: the zipf LocalOnly checksum, once computed.
    references: Vec<Option<Option<u64>>>,
    /// Per input: the virtual outputs of its first iteration, which every
    /// later iteration of that input must reproduce exactly.
    pub first: Vec<Option<Outcome>>,
    /// Timed (untraced) iterations.
    pub timed: Vec<Iteration>,
    /// Traced iterations (trace mode only), each paired with the timed
    /// iteration of the same index.
    pub traced: Vec<Iteration>,
    /// All checks so far, the oracle's included.
    pub checks: Checks,
}

impl Session {
    /// Run the warm-up: input 0 with the flight recorder on, untimed. Its
    /// outputs are checked and become input 0's reference outcome.
    pub fn start(spec: Spec) -> Session {
        let inputs = spec.workload.inputs() as usize;
        let mut session = Session {
            spec,
            references: vec![None; inputs],
            first: vec![None; inputs],
            timed: Vec::new(),
            traced: Vec::new(),
            checks: Checks::default(),
        };
        session.run(0, Mode::Warmup);
        session
    }

    /// Run input `input` once in `mode`, check its outputs, and check its
    /// virtual outputs against the input's first iteration.
    fn run(&mut self, input: u64, mode: Mode) -> Iteration {
        let spec = self.spec.with_input(input);
        let i = input as usize;
        let reference = *self.references[i].get_or_insert_with(|| spec.reference_checksum());
        let mut it = iterate(&spec, mode, reference);
        self.checks.merge(std::mem::take(&mut it.checks));
        match &self.first[i] {
            None => self.first[i] = Some(it.outcome.clone()),
            Some(first) => {
                let diff = first.diff(&it.outcome);
                self.checks.check(diff.is_empty(), || {
                    format!(
                        "input {input}: {mode:?} iteration's virtual outputs differ from its first:\n  {}",
                        diff.join("\n  ")
                    )
                });
            }
        }
        it
    }

    /// Cycle through the inputs until `seconds` have passed: timed
    /// iterations, each followed by a traced one of the same input when
    /// `trace` is on. Untraced, every input runs at least once; traced, at
    /// least two pairs run.
    pub fn run_for(&mut self, seconds: f64, trace: bool) {
        let t0 = Instant::now();
        let inputs = self.spec.workload.inputs();
        let min_rounds = if trace { 2 } else { inputs };
        let mut round = 0;
        while round < min_rounds || t0.elapsed().as_secs_f64() < seconds {
            let input = round % inputs;
            let timed = self.run(input, Mode::Timed);
            self.timed.push(timed);
            if trace {
                if let Some(t) = self.traced.last_mut().and_then(|i| i.trace.as_mut()) {
                    t.spans = Vec::new();
                }
                let traced = self.run(input, Mode::Traced);
                self.traced.push(traced);
            }
            round += 1;
        }
    }

    /// The first outcome of every input that has run.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.first.iter().flatten()
    }
}
