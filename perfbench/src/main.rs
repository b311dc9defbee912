//! One measurement of the trading-network simulator, printed as a JSON
//! line. `run.py` next to this package drives it, aggregates repeated
//! measurements and checks them against the pinned values.
//!
//! ```sh
//! tn-perfbench run   --workload d1-leafspine --seed 1
//! tn-perfbench setup --workload d1-leafspine --seed 1
//! tn-perfbench trace --workload d1-leafspine --seed 1 --seconds 10 --spans spans.jsonl
//! tn-perfbench calibrate
//! ```
//!
//! `run` times one full workload run with all observation off and
//! reports the process's peak resident set; `setup` times building and
//! reporting the same topology over a near-zero simulated window;
//! `trace` is the traced run of `layers`; `calibrate` times the fixed
//! kernel of `calibrate`.

mod calibrate;
mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{Outcome, Workload};

fn outcome_json(o: &Outcome) -> String {
    format!(
        "{{\"digest\":\"{:#018x}\",\"events\":{},\"frames_dropped\":{},\"orders_sent\":{},\"acks\":{},\"feed_messages\":{},\"records_lost\":{}}}",
        o.digest, o.events, o.frames_dropped, o.orders_sent, o.acks, o.feed_messages, o.records_lost
    )
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .ok_or("missing command (run, setup, trace or calibrate)")?;
    let (mut workload, mut seed, mut seconds, mut spans) = (None, None, 10.0, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        spans: spans.unwrap_or_else(|| "spans.jsonl".into()),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("calibrate") {
        println!("{{\"calibration_s\":{}}}", calibrate::calibrate());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (args.workload, args.seed);
    match args.command.as_str() {
        "run" => {
            let t0 = Instant::now();
            let outcome = workloads::run(w, seed);
            let wall_s = t0.elapsed().as_secs_f64();
            let rss = match peak_rss_kib() {
                Ok(kib) => kib,
                Err(e) => {
                    eprintln!("tn-perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{{\"wall_s\":{wall_s},\"peak_rss_kib\":{rss},\"outcome\":{}}}",
                outcome_json(&outcome)
            );
        }
        "setup" => {
            let t0 = Instant::now();
            let digest = workloads::setup(w, seed);
            let setup_s = t0.elapsed().as_secs_f64();
            println!("{{\"setup_s\":{setup_s},\"digest\":\"{digest:#018x}\"}}");
        }
        "trace" => {
            let t = layers::trace(w, seed, args.seconds, &args.spans);
            let metrics: Vec<String> = t
                .metrics
                .iter()
                .map(|(name, v)| format!("\"{name}\":{v}"))
                .collect();
            let traced: Vec<String> = t.traced.iter().map(outcome_json).collect();
            let failed: Vec<String> = t.checks.failed.iter().map(|e| format!("{e:?}")).collect();
            println!(
                "{{\"untraced\":{},\"traced\":[{}],\"checks\":{},\"failed\":[{}],\"metrics\":{{{}}}}}",
                outcome_json(&t.untraced),
                traced.join(","),
                t.checks.attempted,
                failed.join(","),
                metrics.join(",")
            );
        }
        other => {
            eprintln!("tn-perfbench: unknown command {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
