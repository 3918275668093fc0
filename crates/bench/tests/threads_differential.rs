//! Threads-differential oracle: fanning a figure's cells across the sweep
//! runner's worker threads must be *observationally invisible*. For fig5,
//! fig9, and figR (fault plans included) every observable — the full
//! debug-formatted reports (metrics snapshots, event counts, flight-recorder
//! dumps) and the byte-exact Chrome trace export with its FNV fingerprint —
//! must be identical between the sequential reference runner and
//! `--threads` at 1, 2, 4, and 8.

use bench::figures::{fig5, fig9, figr};
use bench::{CommonArgs, Runner};
use simcore::TraceSession;

/// FNV-1a over a rendered export: a compact fingerprint that pins every
/// byte (the kind CI uploads next to the figure artifacts).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Small-scale figure args with the flight recorder on, so the differential
/// also covers the lifecycle dumps embedded in each report.
fn args(scale: u64, seed: u64) -> CommonArgs {
    CommonArgs {
        scale,
        seed,
        lifecycle: true,
        ..CommonArgs::default()
    }
}

fn fig5_under(runner: &Runner) -> (String, String) {
    let args = args(256, 7);
    let mut session = TraceSession::new(true);
    let reports = fig5::run_parallel(&args, &mut session, runner);
    (format!("{reports:#?}"), session.to_chrome_json())
}

fn fig9_under(runner: &Runner) -> (String, String) {
    // Scale 1024 keeps the five-way sweep fast; byte-identity is the
    // oracle here, and it is scale-invariant.
    let args = args(1024, 3);
    let mut session = TraceSession::new(true);
    let reports = fig9::run_parallel(&args, &mut session, runner);
    (format!("{reports:#?}"), session.to_chrome_json())
}

fn figr_under(runner: &Runner) -> String {
    format!("{:#?}", figr::run_parallel(&args(1024, 3), runner))
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn fig5_is_byte_identical_at_any_thread_count() {
    let (want_reports, want_trace) = fig5_under(&Runner::sequential());
    assert!(
        want_trace.len() > 10_000,
        "trace must be non-trivial for the comparison to mean anything"
    );
    assert!(
        want_reports.contains("FlightSummary"),
        "reports must embed the flight-recorder dumps"
    );
    let want_fnv = fnv(want_trace.as_bytes());
    for t in THREADS {
        let (reports, trace) = fig5_under(&Runner::with_threads(t));
        assert_eq!(
            reports, want_reports,
            "fig5 reports diverged at {t} threads"
        );
        assert_eq!(
            fnv(trace.as_bytes()),
            want_fnv,
            "fig5 trace fingerprint diverged at {t} threads"
        );
        assert_eq!(
            trace, want_trace,
            "fig5 trace bytes diverged at {t} threads"
        );
    }
}

#[test]
fn fig9_is_byte_identical_at_any_thread_count() {
    let (want_reports, want_trace) = fig9_under(&Runner::sequential());
    assert!(want_trace.len() > 10_000);
    let want_fnv = fnv(want_trace.as_bytes());
    for t in THREADS {
        let (reports, trace) = fig9_under(&Runner::with_threads(t));
        assert_eq!(
            reports, want_reports,
            "fig9 reports diverged at {t} threads"
        );
        assert_eq!(
            fnv(trace.as_bytes()),
            want_fnv,
            "fig9 trace fingerprint diverged at {t} threads"
        );
        assert_eq!(
            trace, want_trace,
            "fig9 trace bytes diverged at {t} threads"
        );
    }
}

#[test]
fn figr_with_fault_plans_is_byte_identical_at_any_thread_count() {
    let want = figr_under(&Runner::sequential());
    assert!(
        want.contains("fault_ms: Some"),
        "the crash cell must actually have faulted"
    );
    for t in THREADS {
        let got = figr_under(&Runner::with_threads(t));
        assert_eq!(got, want, "figR diverged at {t} threads");
    }
}
