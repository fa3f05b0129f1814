//! `sim_fig7`: the single-threaded simulator run of the paper's standard
//! workload (256 processors) on FunnelTree, seeded from the benchmark's
//! seed. The schedule is deterministic, so every repeat must give the
//! identical cycle count and transaction total.

use std::time::{Duration, Instant};

use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{
    run_queue_workload, run_queue_workload_traced, RunResult, Workload,
};

use crate::inputs::Mix;
use crate::report::{median, ratio, Report};

/// Simulated processors (the paper's Figure 7 scale).
const PROCS: usize = 256;

/// The workload for `mix` and `seed`.
pub fn workload(mix: &Mix, seed: u64) -> Workload {
    Workload {
        seed: mix.sim_seed(seed),
        ..Workload::standard(PROCS, mix.sim_priorities)
    }
}

/// The figures a repeat must reproduce exactly.
fn fingerprint(r: &RunResult) -> (u64, u64, u64) {
    (r.total_cycles, r.stats.mem_accesses, r.all.mean().to_bits())
}

/// Repeated runs of one workload; every repeat must reproduce the first.
pub struct Repeats<'a> {
    wl: &'a Workload,
    first: Option<RunResult>,
    /// Simulated transactions per wall second, per run.
    rates: Vec<f64>,
    walls: Vec<f64>,
    differing: u64,
    /// Measuring time granted but not yet spent, in seconds.
    owed: f64,
}

impl<'a> Repeats<'a> {
    /// No runs yet.
    pub fn new(wl: &'a Workload) -> Self {
        Repeats {
            wl,
            first: None,
            rates: Vec::new(),
            walls: Vec::new(),
            differing: 0,
            owed: 0.0,
        }
    }

    /// Adds `budget` to the time owed to the simulator and runs while any
    /// is owed, so runs longer than one round's share spread over rounds.
    pub fn round(&mut self, budget: Duration) {
        self.owed += budget.as_secs_f64();
        while self.owed > 0.0 {
            let t = Instant::now();
            let r = run_queue_workload(Algorithm::FunnelTree, self.wl);
            let wall = t.elapsed().as_secs_f64();
            self.owed -= wall;
            self.walls.push(wall);
            self.rates.push(r.stats.mem_accesses as f64 / wall);
            match &self.first {
                None => self.first = Some(r),
                Some(f) => self.differing += u64::from(fingerprint(f) != fingerprint(&r)),
            }
        }
    }

    /// Checks the repeats and returns the first result and the walls.
    fn checked(self, rep: &mut Report) -> (RunResult, Vec<f64>, Vec<f64>) {
        let runs = self.walls.len() as u64;
        let differing = self.differing;
        rep.check(differing == 0, || {
            format!("sim_fig7: {differing} of {runs} repeats differ from the first")
        });
        rep.tally("sim_fig7", runs, differing);
        let first = self.first.expect("a round ran the simulator");
        (first, self.rates, self.walls)
    }

    /// The end-to-end report: the mean access latency in cycles. The
    /// simulator's speed is printed but not reported: run to run on a
    /// shared host it follows the neighbours' memory traffic (it spread by
    /// 10–30% of its median over ten runs), so the traced run reports it
    /// as the per-layer `sim.tx_per_s` instead.
    pub fn finish(self, rep: &mut Report) {
        let (first, rates, _) = self.checked(rep);
        println!(
            "  sim_fig7: {} runs, {} cycles, {} transactions each, median {:.0} transactions/s",
            rates.len(),
            first.total_cycles,
            first.stats.mem_accesses,
            median(&rates)
        );
        rep.metric("sim_latency_cycles.FunnelTree", first.all.mean(), "cycles");
    }
}

/// The traced run: untraced repeats beside one run with the simulator's
/// tracer attached, which must reproduce the untraced schedule.
pub fn traced(rep: &mut Report, wl: &Workload, budget: Duration) {
    let mut plain = Repeats::new(wl);
    plain.round(budget / 2);
    let (first, rates, walls) = plain.checked(rep);
    rep.median_of("sim.tx_per_s", &rates, "1/s");
    let t = Instant::now();
    let tr = run_queue_workload_traced(Algorithm::FunnelTree, wl);
    let traced_wall = t.elapsed().as_secs_f64();
    rep.check(fingerprint(&tr.result) == fingerprint(&first), || {
        "sim_fig7: the traced run's schedule differs from the untraced one".to_string()
    });
    let s = &first.stats;
    let tx = s.mem_accesses as f64;
    rep.metric(
        "sim.transactions_per_op",
        ratio(tx, first.all.count() as f64),
        "count",
    );
    rep.metric(
        "sim.queue_delay_cycles_per_tx",
        ratio(s.queue_delay_cycles as f64, tx),
        "cycles",
    );
    let hottest = first.hotspots.first().map_or(0, |h| h.queue_delay_cycles);
    rep.metric(
        "sim.hotspot_share",
        ratio(hottest as f64, s.queue_delay_cycles as f64),
        "share",
    );
    rep.metric(
        "sim.trace_events_per_tx",
        ratio(tr.events.len() as f64, tx),
        "count",
    );
    rep.metric(
        "trace.overhead_share.sim_fig7",
        traced_wall / median(&walls) - 1.0,
        "share",
    );
}
