//! The benchmark's own contract, at small scales: one seed repeats every
//! virtual output exactly, another seed changes the inputs and still
//! passes every check, the traced machine is transparent, and every
//! metric printed is declared in `BENCHMARK.json` with its unit.

use swapbench::report::{end_to_end, per_layer};
use swapbench::workload::{Spec, Workload};
use swapbench::{iterate, Mode, Session};

/// Scales small enough that one iteration takes a few milliseconds.
fn small(workload: Workload, seed: u64) -> Spec {
    let scale = match workload {
        Workload::Qsort2Block => 4096,
        Workload::ZipfDirect => 1024,
    };
    Spec {
        workload,
        scale,
        seed,
        input: 0,
    }
}

fn assert_clean(session: &Session) {
    assert!(
        session.checks.failures.is_empty(),
        "{:?}",
        session.checks.failures
    );
    assert!(session.checks.attempted > 0);
}

#[test]
fn one_seed_repeats_every_virtual_output() {
    for w in Workload::ALL {
        let spec = small(w, 11);
        let reference = spec.reference_checksum();
        let a = iterate(&spec, Mode::Timed, reference);
        let b = iterate(&spec, Mode::Timed, reference);
        assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
        assert_eq!(a.outcome.fingerprint(), b.outcome.fingerprint(), "{w:?}");
        assert!(a.outcome.vm.major_faults > 0, "{w:?} must swap");
    }
}

#[test]
fn another_seed_changes_the_inputs_and_passes_every_check() {
    for w in Workload::ALL {
        let (one, two) = (small(w, 11), small(w, 12));
        assert_ne!(one.describe_inputs(), two.describe_inputs(), "{w:?}");
        let a = iterate(&one, Mode::Timed, one.reference_checksum());
        let b = iterate(&two, Mode::Timed, two.reference_checksum());
        assert!(b.checks.failures.is_empty(), "{:?}", b.checks.failures);
        assert!(!a.outcome.diff(&b.outcome).is_empty(), "{w:?}");
    }
}

#[test]
fn traced_machine_matches_scenario_build_and_metrics_are_declared() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        let mut session = Session::start(small(w, 5));
        session.run_for(0.0, true);
        assert_clean(&session);
        let traced = session.traced[0].trace.as_ref().unwrap();
        assert!(traced.totals.steps > 0 && traced.totals.backend_calls > 0);
        assert!(
            traced.totals.submits > 0,
            "{w:?}: the HPBD client is wrapped"
        );
        let metrics = per_layer(&session).into_iter().chain(end_to_end(&session));
        for m in metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(declared.contains(&entry), "{w:?}: {entry} is not declared");
        }
    }
}

#[test]
fn a_perturbed_outcome_fails_the_oracle() {
    let spec = small(Workload::ZipfDirect, 3);
    let a = iterate(&spec, Mode::Timed, spec.reference_checksum());
    let mut b = a.outcome.clone();
    b.events += 1;
    assert_eq!(a.outcome.diff(&b).len(), 2, "one line each way");
}
