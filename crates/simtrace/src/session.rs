//! Multi-run trace collection for the bench binaries.
//!
//! A figure regenerates several scenarios (local, HPBD, NBD-IPoIB, …);
//! each gets its own [`Tracer`] and appears as a separate *process* in
//! the exported Chrome trace, labelled with the configuration name.

use crate::chrome::to_chrome_json;
use crate::Tracer;
use std::io;
use std::path::Path;

/// Collects per-run tracers and writes one combined trace file.
#[derive(Debug, Default)]
pub struct TraceSession {
    enabled: bool,
    runs: Vec<(String, Tracer)>,
}

impl TraceSession {
    /// A session that hands out enabled or disabled tracers.
    pub fn new(enabled: bool) -> TraceSession {
        TraceSession {
            enabled,
            runs: Vec::new(),
        }
    }

    /// A session whose tracers are all no-ops.
    pub fn disabled() -> TraceSession {
        TraceSession::new(false)
    }

    /// Is tracing on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Create (and remember) the tracer for one labelled run.
    pub fn tracer_for(&mut self, label: &str) -> Tracer {
        let tracer = if self.enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        self.runs.push((label.to_string(), tracer.clone()));
        tracer
    }

    /// Install a labelled run from pre-collected events. The parallel sweep
    /// runner snapshots each worker's event buffer ([`Tracer::snapshot`] is
    /// `Send`-safe data) and reassembles the session in deterministic cell
    /// order, so the exported file is byte-identical to a sequential run.
    pub fn push_run(&mut self, label: &str, events: Vec<crate::TraceEvent>) {
        let tracer = if self.enabled {
            Tracer::from_events(events)
        } else {
            Tracer::disabled()
        };
        self.runs.push((label.to_string(), tracer));
    }

    /// Serialise all runs into one Chrome trace JSON document.
    pub fn to_chrome_json(&self) -> String {
        let runs: Vec<(String, Vec<crate::TraceEvent>)> = self
            .runs
            .iter()
            .map(|(label, tracer)| (label.clone(), tracer.snapshot()))
            .collect();
        to_chrome_json(&runs)
    }

    /// Write the combined trace to `path`.
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Total events recorded across all runs.
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|(_, t)| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn disabled_session_hands_out_noop_tracers() {
        let mut s = TraceSession::disabled();
        let t = s.tracer_for("run");
        t.span("a", "b", 0, 1, &[]);
        assert_eq!(s.total_events(), 0);
        assert!(parse(&s.to_chrome_json()).is_ok());
    }

    #[test]
    fn enabled_session_collects_runs_in_order() {
        let mut s = TraceSession::new(true);
        let t1 = s.tracer_for("first");
        let t2 = s.tracer_for("second");
        t1.instant("x", "e1", 5, &[]);
        t2.instant("y", "e2", 6, &[]);
        assert_eq!(s.total_events(), 2);
        let doc = s.to_chrome_json();
        let v = parse(&doc).unwrap();
        let events = v.as_object().unwrap()["traceEvents"].as_array().unwrap();
        // 2 process_name + 2 thread_name + 2 events.
        assert_eq!(events.len(), 6);
        assert!(doc.find("first").unwrap() < doc.find("second").unwrap());
    }
}
