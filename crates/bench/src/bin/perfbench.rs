//! perfbench — simulator throughput benchmark with a tracked baseline.
//!
//! Runs the three sweep figures (5, 9, 10) through the parallel runner and
//! reports, per figure and in total: wall-clock seconds, simulation events
//! executed, and events per second — the simulator's core throughput
//! metric, largely independent of the `--scale` divisor. Peak RSS comes
//! from `/proc/self/status` (`VmHWM`) where available.
//!
//! ```text
//! perfbench [--smoke] [--scale N] [--seed N] [--threads N] [--out PATH]
//!           [--baseline PATH]
//! ```
//!
//! `--smoke` shrinks the workloads (scale 256) for CI; `--out` writes a
//! JSON report (`BENCH_core.json` at the repo root is the tracked
//! baseline); `--baseline` compares per-figure events/sec against a prior
//! report and **exits 1 on a >20 % regression**.
//!
//! The v2 report also carries, per figure, the p99 swap-in latency of its
//! primary HPBD cell (virtual-clock µs, from the always-on metrics
//! histograms — the timed runs themselves never enable lifecycle
//! tracing), and a phase-attribution summary from one separate small
//! lifecycle-enabled fig9 pass.
//!
//! The v3 report adds, per figure, the primary HPBD cell's
//! `messages_per_page` (request messages sent per 4 KiB page moved — the
//! wire-efficiency metric the hot-path batching layer optimises). The
//! baseline gate also fails when that ratio grows more than 20 % over a
//! baseline that carries the field; v1/v2 baselines (no such field) gate
//! on events/sec only, so they keep working.
//!
//! Two per-swap-path rows (`figU-block`, `figU-direct`) run the figU
//! fig9-style pair cell through each [`workloads::SwapPath`]. Their
//! `swap_in_p99_us` — deterministic on the virtual clock — is gated like
//! `messages_per_page`: growing more than 20 % over a baseline that
//! carries the field fails the run, covering both swap paths.
//!
//! The baseline check is **strict**: a baseline whose schema version is
//! not v3/v4/v5 or whose figure set doesn't exactly match the current run
//! fails loudly instead of silently comparing the rows that happen to line
//! up — silently-skipped rows are how a stale baseline once hid a
//! regression. The v5 report drops v4's engine-worker-count field; the
//! figure rows are unchanged.

use bench::figures::{fig10, fig5, fig9, figu};
use bench::{CommonArgs, Runner};
use simcore::TraceSession;
use std::path::PathBuf;
use std::time::Instant;
use workloads::SwapPath;

/// Allowed events/sec drop vs the baseline before the run fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Figures whose wall time is below this are reported but not gated —
/// sub-second cells are dominated by setup cost and process noise, which
/// dwarfs the tolerance. The total is always gated.
const MIN_GATED_WALL_S: f64 = 1.0;

struct FigureResult {
    name: &'static str,
    wall_s: f64,
    events: u64,
    /// p99 swap-in latency (virtual µs) of the figure's primary HPBD
    /// cell; 0 when the figure has no swap histogram.
    swap_p99_us: f64,
    /// Request messages per 4 KiB page moved by the figure's primary HPBD
    /// cell; 0 when the figure has no HPBD cell. Deterministic (virtual
    /// clock), so the baseline gate holds it to the same 20 % tolerance.
    msgs_per_page: f64,
}

impl FigureResult {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut common = CommonArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--scale" => common.scale = take("--scale").parse().unwrap_or(16).max(1),
            "--seed" => common.seed = take("--seed").parse().unwrap_or(42),
            "--threads" => common.threads = take("--threads").parse().unwrap_or(1),
            "--out" => out = Some(PathBuf::from(take("--out"))),
            "--baseline" => baseline = Some(PathBuf::from(take("--baseline"))),
            "--help" | "-h" => {
                eprintln!(
                    "usage: perfbench [--smoke] [--scale N] [--seed N] [--threads N] \
                     [--out PATH] [--baseline PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        common.scale = common.scale.max(256);
    }
    let runner = common.runner();

    let mut results: Vec<FigureResult> = Vec::new();
    let mut measure = |name: &'static str, f: &dyn Fn() -> (u64, f64, f64)| {
        let start = Instant::now();
        let (events, swap_p99_us, msgs_per_page) = f();
        let wall_s = start.elapsed().as_secs_f64();
        let r = FigureResult {
            name,
            wall_s,
            events,
            swap_p99_us,
            msgs_per_page,
        };
        println!(
            "{:>6}  wall {:8.3} s  events {:>12}  {:>12.0} events/s  swap p99 {:>8.1} us  msgs/page {:>6.3}",
            r.name,
            r.wall_s,
            r.events,
            r.events_per_sec(),
            r.swap_p99_us,
            r.msgs_per_page
        );
        results.push(r);
    };

    // Swap-in latency where the workload faults pages back in; fig5's
    // testswap streams writes and never swaps in, so fall back to the
    // swap-out histogram rather than reporting an empty 0.
    let swap_p99 = |report: &workloads::RunReport| -> f64 {
        ["hpbd.swap_in_latency_us", "hpbd.swap_out_latency_us"]
            .iter()
            .filter_map(|name| report.metrics.histograms.get(*name))
            .find(|h| h.count > 0)
            .map_or(0.0, |h| h.p99)
    };
    let msgs_page = |report: &workloads::RunReport| -> f64 {
        report
            .metrics
            .gauges
            .get("hpbd.messages_per_page")
            .copied()
            .unwrap_or(0.0)
    };
    measure("fig5", &|| {
        let runs = fig5::run_parallel(&common, &mut TraceSession::disabled(), &runner);
        let hpbd = runs.iter().find(|r| r.label == "HPBD");
        let p99 = hpbd.map_or(0.0, &swap_p99);
        let mpp = hpbd.map_or(0.0, &msgs_page);
        (runs.iter().map(|r| r.events).sum(), p99, mpp)
    });
    measure("fig9", &|| {
        let runs = fig9::run_parallel(&common, &mut TraceSession::disabled(), &runner);
        let hpbd = runs.iter().find(|p| p.label == "HPBD-50%");
        let p99 = hpbd.map_or(0.0, |p| swap_p99(&p.report));
        let mpp = hpbd.map_or(0.0, |p| msgs_page(&p.report));
        (runs.iter().map(|p| p.report.events).sum(), p99, mpp)
    });
    measure("fig10", &|| {
        let runs = fig10::run_parallel(&common, &mut TraceSession::disabled(), &runner);
        let hpbd = runs.iter().find(|p| p.servers == 1);
        let p99 = hpbd.map_or(0.0, |p| swap_p99(&p.report));
        let mpp = hpbd.map_or(0.0, |p| msgs_page(&p.report));
        (runs.iter().map(|p| p.report.events).sum(), p99, mpp)
    });
    // Per-swap-path probes: the same fig9-style pair cell through the
    // kernel block path and the user-space direct path. The p99 rows let
    // the baseline gate catch a latency regression on either path.
    measure("figU-block", &|| {
        let row = figu::run_fig9_cell(&common, SwapPath::Block);
        let p99 = row.device_swap_in_us.as_ref().map_or(0.0, |h| h.p99);
        (row.events, p99, row.messages_per_page)
    });
    measure("figU-direct", &|| {
        let row = figu::run_fig9_cell(&common, SwapPath::Direct);
        let p99 = row.device_swap_in_us.as_ref().map_or(0.0, |h| h.p99);
        (row.events, p99, row.messages_per_page)
    });

    // Phase attribution comes from one separate, small, lifecycle-enabled
    // fig9 pass so the timed runs above stay untouched by tracing cost.
    let attribution = attribution_pass(&common, &runner);

    let total_wall: f64 = results.iter().map(|r| r.wall_s).sum();
    let total_events: u64 = results.iter().map(|r| r.events).sum();
    let total_eps = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    let rss = peak_rss_kb();
    println!(
        " total  wall {total_wall:8.3} s  events {total_events:>12}  {total_eps:>12.0} events/s  peak RSS {rss} kB"
    );

    let report = render_json(
        &common,
        smoke,
        &runner,
        &results,
        total_wall,
        total_events,
        rss,
        &attribution,
    );
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }

    if let Some(path) = &baseline {
        match check_baseline(path, &results) {
            Ok(lines) => {
                for l in &lines {
                    println!("{l}");
                }
            }
            Err(msgs) => {
                for m in &msgs {
                    eprintln!("REGRESSION: {m}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// One small lifecycle-enabled fig9 pass (scale >= 256 so it costs well
/// under a second), rendered as the report's `attribution` JSON object:
/// the HPBD-50% cell's per-phase p50/p99 and time share, its e2e p99,
/// and the phase-sum oracle counts.
fn attribution_pass(common: &CommonArgs, runner: &Runner) -> String {
    let mut small = common.clone();
    small.scale = small.scale.max(256);
    small.lifecycle = true;
    let runs = fig9::run_parallel(&small, &mut TraceSession::disabled(), runner);
    let dev = runs
        .iter()
        .find(|p| p.label == "HPBD-50%")
        .and_then(|p| p.report.lifecycle.as_ref())
        .and_then(|s| s.devices.first());
    let Some(dev) = dev else {
        return "null".to_string();
    };
    let e2e_total: u64 = dev.e2e_samples.iter().sum();
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"figure\": \"fig9\", \"cell\": \"HPBD-50%\", \"scale\": {}, \"requests\": {}, \"sum_mismatches\": {}, ",
        small.scale, dev.total, dev.sum_mismatches
    ));
    s.push_str(&format!(
        "\"e2e_p99_ns\": {}, \"phases\": [",
        dev.e2e_percentile(99.0)
    ));
    for (i, phase) in simtrace::Phase::ALL.iter().enumerate() {
        let share = if e2e_total > 0 {
            dev.phase_total_ns(*phase) as f64 * 100.0 / e2e_total as f64
        } else {
            0.0
        };
        s.push_str(&format!(
            "{}{{\"name\": \"{}\", \"p50_ns\": {}, \"p99_ns\": {}, \"share_pct\": {:.2}}}",
            if i > 0 { ", " } else { "" },
            simtrace::Phase::NAMES[i],
            dev.phase_percentile(*phase, 50.0),
            dev.phase_percentile(*phase, 99.0),
            share
        ));
    }
    s.push_str("]}");
    s
}

/// Peak resident set size in kB from `/proc/self/status`, or 0 when the
/// platform does not expose it.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    common: &CommonArgs,
    smoke: bool,
    runner: &Runner,
    results: &[FigureResult],
    total_wall: f64,
    total_events: u64,
    rss_kb: u64,
    attribution: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"hpbd-perfbench-v5\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"scale\": {},\n", common.scale));
    s.push_str(&format!("  \"seed\": {},\n", common.seed));
    s.push_str(&format!("  \"threads\": {},\n", runner.threads()));
    s.push_str("  \"figures\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \"swap_in_p99_us\": {:.1}, \"messages_per_page\": {:.4}}}{}\n",
            r.name,
            r.wall_s,
            r.events,
            r.events_per_sec(),
            r.swap_p99_us,
            r.msgs_per_page,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let total_eps = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    s.push_str(&format!(
        "  \"total\": {{\"wall_s\": {total_wall:.3}, \"events\": {total_events}, \"events_per_sec\": {total_eps:.0}}},\n"
    ));
    s.push_str(&format!("  \"attribution\": {attribution},\n"));
    s.push_str(&format!("  \"peak_rss_kb\": {rss_kb}\n"));
    s.push_str("}\n");
    s
}

/// Baseline schema versions this binary knows how to compare against. The
/// gate reads only `schema` and `figures`, whose rows v3, v4 and v5 share,
/// so all three are accepted; anything else — older reports, hand-edited
/// files — must be regenerated, not silently half-compared.
const ACCEPTED_SCHEMAS: [&str; 3] = [
    "hpbd-perfbench-v3",
    "hpbd-perfbench-v4",
    "hpbd-perfbench-v5",
];

/// Compare per-figure events/sec against a prior report. `Ok` carries the
/// per-figure comparison lines; `Err` the regression messages.
fn check_baseline(path: &PathBuf, results: &[FigureResult]) -> Result<Vec<String>, Vec<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return Err(vec![format!(
                "cannot read baseline {}: {e}",
                path.display()
            )])
        }
    };
    let doc = match simtrace::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            return Err(vec![format!(
                "baseline {} is not valid JSON: {e:?}",
                path.display()
            )])
        }
    };
    compare_to_baseline(&doc, results)
}

/// The pure comparison half of [`check_baseline`], split out so the
/// mismatch paths are unit-testable. Fails loudly — before comparing any
/// row — when the baseline's schema version is unknown or its figure set
/// differs from the current run's in either direction.
fn compare_to_baseline(
    doc: &simtrace::json::Value,
    results: &[FigureResult],
) -> Result<Vec<String>, Vec<String>> {
    let schema = doc
        .as_object()
        .and_then(|o| o.get("schema"))
        .and_then(|s| s.as_string());
    match schema {
        Some(s) if ACCEPTED_SCHEMAS.contains(&s) => {}
        Some(s) => {
            return Err(vec![format!(
                "baseline schema \"{s}\" is not comparable to this binary (accepted: {}); \
                 regenerate the baseline with --out",
                ACCEPTED_SCHEMAS.join(", ")
            )])
        }
        None => {
            return Err(vec![format!(
                "baseline has no \"schema\" field (accepted: {}); regenerate it with --out",
                ACCEPTED_SCHEMAS.join(", ")
            )])
        }
    }
    let figures = doc
        .as_object()
        .and_then(|o| o.get("figures"))
        .and_then(|f| f.as_array());
    let Some(figures) = figures else {
        return Err(vec!["baseline has no \"figures\" array".to_string()]);
    };
    // The figure sets must match exactly. A baseline row the run no longer
    // produces, or a run row the baseline never measured, means the
    // baseline belongs to a different perfbench — comparing the overlap
    // would quietly un-gate the rest (the PR 6 stale-baseline trap).
    let base_names: Vec<&str> = figures
        .iter()
        .filter_map(|f| f.as_object()?.get("name")?.as_string())
        .collect();
    let missing: Vec<&str> = results
        .iter()
        .map(|r| r.name)
        .filter(|n| !base_names.contains(n))
        .collect();
    let extra: Vec<&str> = base_names
        .iter()
        .copied()
        .filter(|n| !results.iter().any(|r| r.name == *n))
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(vec![format!(
            "baseline figure set does not match this run (missing from baseline: [{}]; \
             not produced by this run: [{}]); regenerate the baseline with --out",
            missing.join(", "),
            extra.join(", ")
        )]);
    }
    let base_field = |name: &str, field: &str| -> Option<f64> {
        figures.iter().find_map(|f| {
            let o = f.as_object()?;
            if o.get("name")?.as_string()? == name {
                o.get(field)?.as_f64()
            } else {
                None
            }
        })
    };
    let base_eps = |name: &str| base_field(name, "events_per_sec");

    let base_total_eps = doc
        .as_object()
        .and_then(|o| o.get("total"))
        .and_then(|t| t.as_object())
        .and_then(|t| t.get("events_per_sec"))
        .and_then(|v| v.as_f64());

    fn gate(
        lines: &mut Vec<String>,
        regressions: &mut Vec<String>,
        name: &str,
        wall_s: f64,
        now: f64,
        base: f64,
    ) {
        let ratio = if base > 0.0 { now / base } else { 1.0 };
        let gated = wall_s >= MIN_GATED_WALL_S;
        lines.push(format!(
            "{}: {:.0} events/s vs baseline {:.0} ({:+.1}%){}",
            name,
            now,
            base,
            (ratio - 1.0) * 100.0,
            if gated { "" } else { " [too short, not gated]" }
        ));
        if gated && ratio < 1.0 - REGRESSION_TOLERANCE {
            regressions.push(format!(
                "{}: events/sec fell {:.1}% below baseline ({:.0} vs {:.0}, tolerance {:.0}%)",
                name,
                (1.0 - ratio) * 100.0,
                now,
                base,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }

    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for r in results {
        let Some(base) = base_eps(r.name) else {
            // The name matched above, so the row exists but is malformed.
            regressions.push(format!(
                "{}: baseline row has no events_per_sec; regenerate the baseline with --out",
                r.name
            ));
            continue;
        };
        gate(
            &mut lines,
            &mut regressions,
            r.name,
            r.wall_s,
            r.events_per_sec(),
            base,
        );
        // Wire efficiency: messages per page moved must not grow. The
        // metric is virtual-clock deterministic, so it gates regardless of
        // wall time; v1/v2 baselines have no field and skip the check.
        if let Some(base_mpp) = base_field(r.name, "messages_per_page") {
            if base_mpp > 0.0 && r.msgs_per_page > 0.0 {
                let ratio = r.msgs_per_page / base_mpp;
                lines.push(format!(
                    "{}: {:.4} msgs/page vs baseline {:.4} ({:+.1}%)",
                    r.name,
                    r.msgs_per_page,
                    base_mpp,
                    (ratio - 1.0) * 100.0
                ));
                if ratio > 1.0 + REGRESSION_TOLERANCE {
                    regressions.push(format!(
                        "{}: messages per page grew {:.1}% over baseline ({:.4} vs {:.4}, tolerance {:.0}%)",
                        r.name,
                        (ratio - 1.0) * 100.0,
                        r.msgs_per_page,
                        base_mpp,
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
            }
        }
        // Swap-in latency: virtual-clock deterministic like msgs/page, so
        // it gates regardless of wall time — this is what holds BOTH swap
        // paths (figU-block / figU-direct rows) to their baselines.
        if let Some(base_p99) = base_field(r.name, "swap_in_p99_us") {
            if base_p99 > 0.0 && r.swap_p99_us > 0.0 {
                let ratio = r.swap_p99_us / base_p99;
                lines.push(format!(
                    "{}: {:.1} us swap-in p99 vs baseline {:.1} ({:+.1}%)",
                    r.name,
                    r.swap_p99_us,
                    base_p99,
                    (ratio - 1.0) * 100.0
                ));
                if ratio > 1.0 + REGRESSION_TOLERANCE {
                    regressions.push(format!(
                        "{}: swap-in p99 grew {:.1}% over baseline ({:.1} vs {:.1} us, tolerance {:.0}%)",
                        r.name,
                        (ratio - 1.0) * 100.0,
                        r.swap_p99_us,
                        base_p99,
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    let total_wall: f64 = results.iter().map(|r| r.wall_s).sum();
    let total_events: u64 = results.iter().map(|r| r.events).sum();
    if let Some(base) = base_total_eps {
        let now = if total_wall > 0.0 {
            total_events as f64 / total_wall
        } else {
            0.0
        };
        gate(&mut lines, &mut regressions, "total", total_wall, now, base);
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, wall_s: f64, events: u64) -> FigureResult {
        FigureResult {
            name,
            wall_s,
            events,
            swap_p99_us: 100.0,
            msgs_per_page: 0.25,
        }
    }

    fn baseline_json(schema: &str, figures: &[(&str, f64)]) -> simtrace::json::Value {
        let rows: Vec<String> = figures
            .iter()
            .map(|(name, eps)| {
                format!(
                    "{{\"name\": \"{name}\", \"wall_s\": 10.0, \"events\": 1000, \
                     \"events_per_sec\": {eps:.0}, \"swap_in_p99_us\": 100.0, \
                     \"messages_per_page\": 0.25}}"
                )
            })
            .collect();
        let doc = format!(
            "{{\"schema\": \"{schema}\", \"figures\": [{}], \
             \"total\": {{\"wall_s\": 10.0, \"events\": 1000, \"events_per_sec\": 100}}}}",
            rows.join(", ")
        );
        simtrace::json::parse(&doc).unwrap()
    }

    #[test]
    fn matching_v4_baseline_passes() {
        let results = [row("fig5", 10.0, 1000), row("fig9", 10.0, 1000)];
        let doc = baseline_json("hpbd-perfbench-v4", &[("fig5", 100.0), ("fig9", 100.0)]);
        assert!(compare_to_baseline(&doc, &results).is_ok());
    }

    #[test]
    fn v3_baseline_is_still_accepted() {
        let results = [row("fig5", 10.0, 1000)];
        let doc = baseline_json("hpbd-perfbench-v3", &[("fig5", 100.0)]);
        assert!(compare_to_baseline(&doc, &results).is_ok());
    }

    #[test]
    fn a_fresh_v5_report_is_an_accepted_baseline() {
        let results = [row("fig5", 10.0, 1000)];
        let json = render_json(
            &CommonArgs::default(),
            false,
            &Runner::sequential(),
            &results,
            10.0,
            1000,
            0,
            "{}",
        );
        assert!(json.contains("\"hpbd-perfbench-v5\""), "{json}");
        let doc = simtrace::json::parse(&json).unwrap();
        assert!(compare_to_baseline(&doc, &results).is_ok());
    }

    #[test]
    fn unknown_schema_fails_loudly() {
        let results = [row("fig5", 10.0, 1000)];
        let doc = baseline_json("hpbd-perfbench-v2", &[("fig5", 100.0)]);
        let err = compare_to_baseline(&doc, &results).unwrap_err();
        assert!(err[0].contains("schema"), "{err:?}");
        assert!(err[0].contains("hpbd-perfbench-v2"), "{err:?}");
    }

    #[test]
    fn missing_schema_fails_loudly() {
        let doc = simtrace::json::parse("{\"figures\": []}").unwrap();
        let err = compare_to_baseline(&doc, &[row("fig5", 10.0, 1000)]).unwrap_err();
        assert!(err[0].contains("no \"schema\""), "{err:?}");
    }

    #[test]
    fn baseline_missing_a_run_figure_fails_instead_of_skipping() {
        // The PR 6 trap: the run produces figU rows the stale baseline
        // predates. That must be a hard failure, not a silent skip.
        let results = [row("fig5", 10.0, 1000), row("figU-direct", 10.0, 1000)];
        let doc = baseline_json("hpbd-perfbench-v4", &[("fig5", 100.0)]);
        let err = compare_to_baseline(&doc, &results).unwrap_err();
        assert!(
            err[0].contains("missing from baseline: [figU-direct]"),
            "{err:?}"
        );
    }

    #[test]
    fn baseline_with_extra_figures_fails() {
        let results = [row("fig5", 10.0, 1000)];
        let doc = baseline_json("hpbd-perfbench-v4", &[("fig5", 100.0), ("fig77", 100.0)]);
        let err = compare_to_baseline(&doc, &results).unwrap_err();
        assert!(
            err[0].contains("not produced by this run: [fig77]"),
            "{err:?}"
        );
    }

    #[test]
    fn regression_gate_still_fires_on_matching_sets() {
        // 50 events/s against a 100 events/s baseline on a gated (>=1 s)
        // figure: well past the 20% tolerance.
        let results = [row("fig5", 10.0, 500)];
        let doc = baseline_json("hpbd-perfbench-v4", &[("fig5", 100.0)]);
        let err = compare_to_baseline(&doc, &results).unwrap_err();
        assert!(err.iter().any(|m| m.contains("events/sec fell")), "{err:?}");
    }

    #[test]
    fn malformed_row_is_an_error_not_a_skip() {
        let doc = simtrace::json::parse(
            "{\"schema\": \"hpbd-perfbench-v4\", \
             \"figures\": [{\"name\": \"fig5\"}]}",
        )
        .unwrap();
        let err = compare_to_baseline(&doc, &[row("fig5", 10.0, 1000)]).unwrap_err();
        assert!(err[0].contains("no events_per_sec"), "{err:?}");
    }
}
