//! BENCH — lab batch-runner wall-clock: serial vs parallel on the smoke
//! grid.
//!
//! Runs the `tn-lab` smoke sweep (3×3×2 cells of the trimmed quickstart
//! scenario) with 1 worker and with 4 workers, asserts the rendered
//! `tn-lab/v1` documents are byte-identical (the determinism contract the
//! divergence registry also pins), and records the wall-clock speedup in
//! `BENCH_lab.json` (schema `tn-bench/v1`) at the repo root.
//!
//! Wall-clock numbers live *here*, in the bench harness — never in the
//! lab report itself, which must stay a pure function of the spec.
//!
//! ```sh
//! cargo run --release -p tn-bench --bin bench_lab [-- --smoke]
//! ```
//!
//! `--smoke` runs one rep instead of three, for CI, and writes no file.

use std::time::Instant;
use tn_bench::row;
use tn_lab::{run_batch, LabReport, ScenarioExecutor, SweepSpec};
use tn_sim::{fnv1a_fold, EMPTY_DIGEST};

/// One (threads) measurement over the smoke grid.
struct Measurement {
    threads: usize,
    wall_ns: u128,
    json: String,
    events: u64,
}

fn run_grid(threads: usize) -> (String, u64) {
    let spec = SweepSpec::smoke();
    let manifest = spec.expand().expect("smoke spec expands");
    let outcomes = run_batch(&manifest, threads, &ScenarioExecutor::new()).expect("grid runs");
    let events = outcomes.iter().map(|o| o.events).sum();
    let report = LabReport::build(&spec.name, &spec.base, &manifest, &outcomes);
    (report.to_json(), events)
}

fn measure(threads: usize, reps: u32) -> Measurement {
    let mut best = u128::MAX;
    let mut out: Option<(String, u64)> = None;
    for _ in 0..reps {
        // audit:allow(det-wallclock): measuring the harness itself; timings are reported, never fed back into the schedule
        let t0 = Instant::now();
        let result = run_grid(threads);
        let dt = t0.elapsed().as_nanos();
        best = best.min(dt);
        if let Some(prev) = &out {
            assert_eq!(prev.0, result.0, "grid run must be deterministic");
        }
        out = Some(result);
    }
    let (json, events) = out.expect("at least one rep");
    Measurement {
        threads,
        wall_ns: best,
        json,
        events,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps: u32 = if smoke { 1 } else { 3 };

    let serial = measure(1, reps);
    let parallel = measure(4, reps);
    assert_eq!(
        serial.json, parallel.json,
        "1-thread and 4-thread tn-lab/v1 output must be byte-identical"
    );
    let doc_digest = fnv1a_fold(EMPTY_DIGEST, serial.json.as_bytes());
    let speedup = serial.wall_ns as f64 / parallel.wall_ns.max(1) as f64;

    println!(
        "{}",
        row(
            "grid",
            &["events".into(), "wall ms".into(), "speedup".into()],
        )
    );
    for m in [&serial, &parallel] {
        println!(
            "{}",
            row(
                &format!("smoke/{}thread", m.threads),
                &[
                    m.events.to_string(),
                    format!("{:.2}", m.wall_ns as f64 / 1e6),
                    format!("{:.2}x", serial.wall_ns as f64 / m.wall_ns.max(1) as f64),
                ],
            )
        );
    }
    println!("\noutput byte-identical across thread counts (doc digest {doc_digest:016x})");

    let json = format!(
        "{{\"schema\":\"tn-bench/v1\",\"harness\":\"bench_lab\",\"smoke\":{smoke},\"reps\":{reps},\
         \"runs\":[{{\"scenario\":\"lab-smoke-grid\",\"scale\":\"18run\",\"events\":{events},\
         \"digest\":\"0x{doc_digest:016x}\",\"serial_ns\":{serial_ns},\"parallel_ns\":{parallel_ns},\
         \"parallel_threads\":4,\"speedup\":{speedup:.4}}}],\
         \"summary\":{{\"max_speedup\":{speedup:.4},\"geomean_speedup\":{speedup:.4}}}}}\n",
        events = serial.events,
        serial_ns = serial.wall_ns,
        parallel_ns = parallel.wall_ns,
    );
    if smoke {
        println!("smoke mode: skipping BENCH_lab.json (numbers not representative)");
        return;
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lab.json");
    std::fs::write(out, &json).expect("write BENCH_lab.json");
    println!("wrote {out}");
}
