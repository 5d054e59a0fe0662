//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet48|t4_offload|chat_prefix|cpu_decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation; `--trace 1`
//! makes an untraced and a traced run of the same inputs, checks that their
//! simulated (or decoded) outputs are identical, and reports the per-layer metrics.
//! Readable `#` lines come first; the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1 when a
//! correctness check fails and 2 on bad arguments. See `perfbench/README.md`.

mod decode;
mod host;
mod report;
mod sim;
mod tracer;

use report::Outcome;
use sim::Sim;

/// Width of the rayon pool every run executes in: one thread, so the load comes from
/// this process alone and the decode kernel's partitioning (and so its bits) is fixed.
const RAYON_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
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
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, cores: usize) -> Result<Outcome, String> {
    let sim = Sim::ALL.into_iter().find(|s| s.name() == args.workload);
    let mut outcome = match sim {
        Some(sim) => sim::run(sim, args.seed, args.seconds, args.trace),
        None if args.workload == "cpu_decode" => decode::run(args.seed, args.seconds, args.trace),
        None => return Err(format!("unknown workload {:?}", args.workload)),
    };
    outcome.detail.insert(0, ("workload".into(), args.workload.clone()));
    outcome.detail.insert(1, ("seed".into(), args.seed.to_string()));
    outcome.detail.insert(2, ("rayon_threads".into(), rayon::current_num_threads().to_string()));
    outcome.detail.insert(3, ("available_parallelism".into(), cores.to_string()));
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
        }
    }
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = host::pin_to_last_cpu();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(RAYON_THREADS)
        .build()
        .expect("the rayon shim's pool build cannot fail");
    let mut outcome = match pool.install(|| run(&args, cores)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpu = pinned.map_or_else(|| "not pinned".to_string(), |c| c.to_string());
    outcome.detail.insert(4, ("pinned_cpu".into(), cpu));
    outcome.print();
    if !outcome.correct() {
        std::process::exit(1);
    }
}
