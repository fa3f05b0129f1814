//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Each run measures four phases on one workload's seeded inputs:
//! `queue_pairs` (the `funnelpq` library alone, two worker threads),
//! `server_saturated` and `server_trickle` (`funnelpq-server`, one client
//! thread and one dispatcher) and `sim_fig7` (the single-threaded
//! simulator). No phase keeps more than two threads busy. With `--trace 0`
//! the run reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics from traced runs set beside untraced ones. The last
//! line of standard output is the JSON result; the exit code is 1 when a
//! correctness check failed and 2 on bad arguments. `perfbench/README.md`
//! maps every per-layer metric to the end-to-end metric it should move.

mod host;
mod inputs;
mod pairs;
mod report;
mod serve;
mod sim;
mod trace;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use funnelpq_util::mono_ns;

use inputs::{Mix, MIXES};
use report::{median, Report};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Target length of one round of the end-to-end run.
const ROUND_SECONDS: f64 = 1.0;

/// Share of the run each phase measures for.
const PAIRS_SHARE: f64 = 0.45;
const SATURATED_SHARE: f64 = 0.30;
const TRICKLE_SHARE: f64 = 0.15;
const SIM_SHARE: f64 = 0.10;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut mix = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                mix = Some(Mix::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Nanoseconds per call of `f`, over a million calls.
fn per_call(mut f: impl FnMut()) -> f64 {
    const N: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..N {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        args.mix.name, args.seed, args.seconds, args.trace as u8
    );
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut rep = Report::default();

    println!("setup:");
    let pair_inputs = pairs::Inputs::new(&args.mix, args.seed);
    let server_inputs = serve::Inputs::new(&args.mix, args.seed);
    let wl = sim::workload(&args.mix, args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut benches = Vec::new();
    for _ in 0..SETUPS {
        // Free the previous set-up first, so each one allocates alike.
        drop(std::mem::take(&mut benches));
        let t = Instant::now();
        benches = pairs::setup(&pair_inputs);
        serve::setup(&mut rep);
        setups.push(t.elapsed().as_secs_f64());
    }
    if !args.trace {
        rep.metric("setup_s", median(&setups), "s");
    }

    if args.trace {
        println!("queue_pairs:");
        pairs::traced(&mut rep, &mut benches, &pair_inputs, budget(PAIRS_SHARE));
        println!("server_saturated and server_trickle:");
        serve::traced(
            &mut rep,
            &server_inputs,
            budget(SATURATED_SHARE),
            budget(TRICKLE_SHARE),
        );
        rep.metric(
            "util.mono_ns_read_ns",
            per_call(|| {
                black_box(mono_ns());
            }),
            "ns",
        );
        rep.metric(
            "util.instant_now_ns",
            per_call(|| {
                black_box(Instant::now());
            }),
            "ns",
        );
        println!("sim_fig7:");
        sim::traced(&mut rep, &wl, budget(SIM_SHARE));
    } else {
        // Rounds interleave the phases, so a slow stretch of the host
        // lands in a few rounds of every metric, not in all of one.
        let rounds = (args.seconds / ROUND_SECONDS).round().clamp(3.0, 60.0) as u32;
        let per_round = |share: f64| budget(share) / rounds;
        let mut timed = pairs::Timed::new(benches, &pair_inputs);
        let mut saturated = serve::Saturated::default();
        let mut trickle = serve::Trickle::default();
        let mut sims = sim::Repeats::new(&wl);
        println!("{rounds} rounds:");
        for _ in 0..rounds {
            timed.round(per_round(PAIRS_SHARE));
            saturated.round(&mut rep, &server_inputs, per_round(SATURATED_SHARE));
            trickle.round(&mut rep, &server_inputs, per_round(TRICKLE_SHARE));
            sims.round(per_round(SIM_SHARE));
        }
        println!("queue_pairs:");
        timed.finish(&mut rep);
        pairs::quality(&mut rep, &pair_inputs);
        println!("server_saturated:");
        saturated.finish(&mut rep);
        println!("server_trickle:");
        trickle.finish(&mut rep);
        println!("sim_fig7:");
        sims.finish(&mut rep);
    }

    println!("failures:");
    rep.print_tallies();
    println!(
        "checks: {} (seed {}, {} failed of {} attempted)",
        if rep.correct() {
            "all passed"
        } else {
            "FAILED"
        },
        args.seed,
        rep.failed,
        rep.attempted
    );
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
