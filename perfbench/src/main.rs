//! Runs one workload of the end-to-end benchmark and prints its
//! metrics; the last line of standard output is the JSON result.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus_campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `campus_campaign`, `fleet_campaign`, `corridor_serving`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer split. A failed correctness gate exits non-zero without
//! printing a result.

use crowdwifi_perfbench::campaign::{self, Kind};
use crowdwifi_perfbench::{corridor, Outcome};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn machine() -> String {
    format!(
        "machine: nproc {}, transport workers {} ({} traced), estimator threads {}, kernel dispatch {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        crowdwifi_middleware::transport::FleetTransport::new()
            .with_workers(campaign::WORKERS)
            .worker_budget(),
        1,
        campaign::ESTIMATOR_THREADS,
        if crowdwifi_linalg::kernels::vectorized() {
            "vectorized"
        } else {
            "scalar"
        }
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "campus_campaign" => campaign::run(Kind::Campus, args.seed, args.seconds, args.trace),
        "fleet_campaign" => campaign::run(Kind::Fleet, args.seed, args.seconds, args.trace),
        "corridor_serving" => corridor::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|o| o.result_json().map(|json| (o, json)));
    match outcome {
        Ok((o, json)) => {
            println!(
                "{} seed {} trace {}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            println!("{}", machine());
            for note in &o.notes {
                println!("{note}");
            }
            for m in &o.metrics {
                println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
