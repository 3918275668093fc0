//! Differential oracle: the slab-heap scheduler must be observationally
//! identical to the reference binary heap on a real figure workload — same
//! reports, same event counts, and byte-identical trace exports (which pin
//! the complete event execution order, since trace events are appended in
//! execution order).

use bench::figures::fig5;
use bench::CommonArgs;
use simcore::{set_default_scheduler, SchedulerKind, TraceSession};

/// Run Figure 5 at its smallest test scale under the given scheduler,
/// returning the full debug-formatted reports and the exported trace.
fn fig5_under(kind: SchedulerKind) -> (String, String) {
    let prev = set_default_scheduler(kind);
    let args = CommonArgs {
        scale: 256,
        seed: 7,
        ..CommonArgs::default()
    };
    let mut session = TraceSession::new(true);
    let reports = fig5::run_traced(&args, &mut session);
    set_default_scheduler(prev);
    // `{reports:#?}` covers every field, including the metrics snapshot
    // and the engine event count, so any behavioural divergence shows up.
    (format!("{reports:#?}"), session.to_chrome_json())
}

#[test]
fn slab_heap_matches_reference_heap_on_figure5() {
    let (slab_reports, slab_trace) = fig5_under(SchedulerKind::SlabHeap);
    let (heap_reports, heap_trace) = fig5_under(SchedulerKind::ReferenceHeap);
    assert_eq!(
        slab_reports, heap_reports,
        "figure tables must not depend on the scheduler implementation"
    );
    assert_eq!(
        slab_trace, heap_trace,
        "event execution order (pinned by the trace export) must match"
    );
    assert!(
        slab_trace.len() > 10_000,
        "trace must be non-trivial for the comparison to mean anything"
    );
}
