//! The metrics a session reports, and the result line.

use crate::workload::Outcome;
use crate::{median, Iteration, Session};
use simtrace::Phase;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `f` of a histogram of `outcome`, 0 when it has no samples.
fn hist(outcome: &Outcome, name: &str, f: impl Fn(&simtrace::HistogramSummary) -> f64) -> f64 {
    outcome.histogram(name).map_or(0.0, f)
}

/// The end-to-end metrics of an untraced session: host figures are
/// medians over the timed iterations, virtual ones medians over the
/// inputs.
pub fn end_to_end(s: &Session) -> Vec<Metric> {
    let host = |f: fn(&Iteration) -> f64| median(&s.timed.iter().map(f).collect::<Vec<_>>());
    let virt = |f: &dyn Fn(&Outcome) -> f64| median(&s.outcomes().map(f).collect::<Vec<_>>());
    let fault =
        |f: fn(&simtrace::HistogramSummary) -> f64| virt(&|o| hist(o, "vmsim.fault_latency_us", f));
    vec![
        metric("wall_s", host(|i| i.wall_s), "s"),
        metric("setup_s", host(|i| i.setup_s), "s"),
        metric("peak_rss_mb", crate::host::peak_rss_mb(), "MiB"),
        metric("makespan_s", virt(&|o| o.makespan.as_secs_f64()), "s"),
        metric("fault_mean_us", fault(|h| h.mean), "us"),
        metric("fault_p99_us", fault(|h| h.p99), "us"),
        metric(
            "swapout_p99_us",
            virt(&|o| hist(o, "hpbd.swap_out_latency_us", |h| h.p99)),
            "us",
        ),
    ]
}

/// The per-layer metrics of a traced session: each the median over the
/// traced iterations.
pub fn per_layer(s: &Session) -> Vec<Metric> {
    let block = s.spec.workload.block_path();
    let runs: Vec<Vec<Metric>> = s
        .timed
        .iter()
        .zip(&s.traced)
        .map(|(untraced, traced)| layers(traced, untraced.wall_s, block))
        .collect();
    let first = runs.first().expect("at least one traced iteration");
    (0..first.len())
        .map(|k| {
            let values: Vec<f64> = runs.iter().map(|r| r[k].value).collect();
            metric(first[k].name.clone(), median(&values), first[k].unit)
        })
        .collect()
}

/// The per-layer metrics of one traced iteration; `untraced_wall` is the
/// wall time of the untraced iteration of the same input.
fn layers(it: &Iteration, untraced_wall: f64, block: bool) -> Vec<Metric> {
    let t = it.trace.as_ref().expect("traced iteration");
    let totals = &t.totals;
    let o = &it.outcome;
    let vm = &o.vm;
    let c = &o.client;
    let ctr = |name: &str| o.counter(name) as f64;
    let mut m = vec![
        metric("workloads.step_s", totals.step_self_s, "s"),
        metric("workloads.steps", totals.steps as f64, "count"),
        metric("workloads.blocked_steps", t.blocked_steps as f64, "count"),
        metric("vmsim.backend_s", totals.backend_self_s, "s"),
        metric("vmsim.backend_calls", totals.backend_calls as f64, "count"),
        metric("vmsim.major_faults", vm.major_faults as f64, "count"),
        metric("vmsim.swap_ins", vm.swap_ins as f64, "count"),
        metric("vmsim.swap_outs", vm.swap_outs as f64, "count"),
        metric("vmsim.throttles", vm.throttles as f64, "count"),
        metric("vmsim.frame_waits", vm.frame_waits as f64, "count"),
        metric("vmsim.kswapd_batches", ctr("vmsim.kswapd_batches"), "count"),
        metric(
            "vmsim.readahead_hit_ratio",
            ratio(ctr("vmsim.readahead_hits"), vm.readaheads as f64),
            "ratio",
        ),
        metric(
            "vmsim.direct_poll_ratio",
            o.direct
                .as_ref()
                .map_or(0.0, |d| ratio(d.polled as f64, d.page_loads as f64)),
            "ratio",
        ),
        // On the block path the backend is a thin adapter over the request
        // queue, so its self time is the queue's; the direct path has none.
        metric(
            "blockdev.queue_s",
            if block { totals.backend_self_s } else { 0.0 },
            "s",
        ),
        metric("blockdev.requests", o.requests as f64, "count"),
        metric(
            "blockdev.bios_per_request",
            if block {
                ratio(ctr("blockdev.bios"), ctr("blockdev.requests"))
            } else {
                1.0
            },
            "bio/request",
        ),
        metric(
            "blockdev.mean_request_kib",
            o.mean_request_bytes / 1024.0,
            "KiB",
        ),
        metric("hpbd.submit_s", totals.submit_self_s, "s"),
        metric("hpbd.submits", totals.submits as f64, "count"),
        metric("hpbd.msgs_per_page", c.messages_per_page(), "msg/page"),
        metric(
            "hpbd.phys_per_request",
            ratio(c.phys_requests as f64, c.requests as f64),
            "phys/request",
        ),
        metric("hpbd.credit_stalls", c.flow_stalls as f64, "count"),
        metric("hpbd.pool_waits", c.pool_waits as f64, "count"),
        metric("hpbd.retries", c.retries as f64, "count"),
        metric(
            "hpbd.swap_in_p99_us",
            hist(o, "hpbd.swap_in_latency_us", |h| h.p99),
            "us",
        ),
    ];

    let all_ns: u64 = t.phase_ns.iter().sum();
    for (name, &ns) in Phase::NAMES.iter().zip(&t.phase_ns) {
        m.push(metric(
            format!("hpbd.phase.{name}.share_pct"),
            100.0 * ratio(ns as f64, all_ns as f64),
            "%",
        ));
    }
    m.push(metric(
        "hpbd.phase_sum_mismatches",
        t.phase_sum_mismatches as f64,
        "count",
    ));

    let ctx_hits = ctr("ibsim.qp_ctx_hits");
    m.extend([
        metric("ibsim.sends", ctr("ibsim.sends"), "count"),
        metric("ibsim.rdma_reads", ctr("ibsim.rdma_reads"), "count"),
        metric("ibsim.rdma_writes", ctr("ibsim.rdma_writes"), "count"),
        metric("ibsim.cq_events", ctr("ibsim.cq_events"), "count"),
        metric(
            "ibsim.qp_ctx_hit_ratio",
            ratio(ctx_hits, ctx_hits + ctr("ibsim.qp_ctx_reloads")),
            "ratio",
        ),
        metric("simcore.events", o.events as f64, "count"),
        metric("simcore.loop_s", it.wall_s - totals.step_incl_s, "s"),
        metric(
            "simcore.ns_per_event",
            untraced_wall * 1e9 / o.events as f64,
            "ns",
        ),
        metric(
            "simcore.max_pending_events",
            o.max_pending_events as f64,
            "count",
        ),
        metric("trace_overhead_ratio", it.wall_s / untraced_wall, "ratio"),
    ]);
    m
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
