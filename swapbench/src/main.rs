//! `swapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the time budget and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when an output check or the traced-vs-untraced oracle fails,
//! 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;
use swapbench::report::{end_to_end, per_layer, result_json};
use swapbench::workload::{Spec, Workload};
use swapbench::{host, spans, Session};

const USAGE: &str = "usage: swapbench --workload <qsort2-block|zipf-direct> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the traced run's spans go: under the build directory.
fn spans_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("swapbench/target"));
    target
        .join("swapbench-spans")
        .join(format!("{}.csv", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swapbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    let inputs: Vec<String> = (0..spec.workload.inputs())
        .map(|i| spec.with_input(i).describe_inputs())
        .collect();
    let run_line = format!(
        "workload={} seed={} scale={} inputs={inputs:?}",
        spec.workload.name(),
        spec.seed,
        spec.scale,
    );
    println!("run {run_line}");
    println!("host {}", host::describe());

    let mut session = Session::start(spec);
    session.run_for(args.seconds, args.trace);

    let metrics = if args.trace {
        per_layer(&session)
    } else {
        end_to_end(&session)
    };
    let fault_samples: Vec<u64> = session
        .outcomes()
        .map(|o| o.histogram("vmsim.fault_latency_us").map_or(0, |h| h.count))
        .collect();
    let walls = |its: &[swapbench::Iteration]| -> Vec<String> {
        its.iter().map(|i| format!("{:.3}", i.wall_s)).collect()
    };
    println!(
        "iterations timed={:?} traced={:?} fault_samples={:?} host_after {}",
        walls(&session.timed),
        walls(&session.traced),
        fault_samples,
        host::describe()
    );
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(last) = session.traced.last() {
        let path = spans_path(spec.workload);
        let spans = &last.trace.as_ref().expect("traced iteration").spans;
        let header = format!("{run_line} host {}", host::describe());
        match spans::write_csv(&path, &header, spans) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("swapbench: cannot write {}: {e}", path.display()),
        }
    }

    let checks = &session.checks;
    let failed = checks.failures.len() as u64;
    println!(
        "checks attempted={} failed={} failed_ratio={}",
        checks.attempted,
        failed,
        failed as f64 / checks.attempted as f64
    );
    for f in &checks.failures {
        eprintln!("swapbench: check failed: {f}");
    }
    let correct = failed == 0;
    println!(
        "{}",
        result_json(correct, checks.attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
