//! Workload mixes and the seeded input generators.
//!
//! Every input the program under test receives — queue priorities and
//! payloads, job tenants, deadlines and periods, the simulator's seed — is
//! drawn here from the `--seed` argument, so the same seed gives the same
//! inputs. The library sees only the generated values.

use funnelpq_server::{Deadline, JobSpec, TenantId};
use funnelpq_util::XorShift64Star;

/// Priority bands of every queue and of the server (its deadline bands).
pub const BANDS: usize = 256;

/// Tenants the server workloads spread their jobs over.
pub const TENANTS: usize = 16;

/// Width of one server deadline band: the horizon is `BANDS` bands of
/// 2³⁰ ns (about 1.07 s), so deadlines seconds ahead never miss and a run
/// of a minute drifts the current band by at most ~60.
pub const BAND_NS: u64 = 1 << 30;

/// Deadline offsets span this many bands ahead of the current one, which
/// leaves room for a minute of drift before deadlines clamp to the last
/// band.
const DEADLINE_BANDS: u64 = 180;

/// Floor of every deadline offset: 10⁶ dispatch slots at `service_ns = 1`.
/// A deadline only a few hundred slots ahead can be shorter than the wait
/// behind the 256 jobs in flight, whatever the backend, and such misses
/// come at random; the floor leaves every deadline reachable.
const MIN_SLACK_NS: u64 = 1_000_000;

/// Every 16th saturated-loop job is periodic, so `replace_min` re-arms run.
const PERIODIC_EVERY: usize = 16;

/// Firings after the first for a periodic job.
const PERIODIC_REPEATS: u32 = 3;

/// Length of each pre-generated input ring (a power of two).
pub const RING: usize = 1 << 16;

/// One workload: the input properties every phase draws from.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Queue priorities and deadline band offsets are drawn uniformly
    /// from this many bands (deadline offsets at most `DEADLINE_BANDS`).
    priorities: u64,
    /// Priority count of the simulated run (the paper's Figure 7 uses 16).
    pub sim_priorities: usize,
}

/// The workloads, in `BENCHMARK.json` order: the paper's standard mix,
/// and the point N = 4 of its Figure 9 priority sweep at 256 processors,
/// with every phase drawing from 4 priorities.
pub const MIXES: [Mix; 2] = [
    Mix {
        name: "uniform",
        priorities: BANDS as u64,
        sim_priorities: 16,
    },
    Mix {
        name: "narrow",
        priorities: 4,
        sim_priorities: 4,
    },
];

impl Mix {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Mix> {
        MIXES.iter().copied().find(|m| m.name == name)
    }

    /// `RING` queue priorities, uniform in `0..self.priorities`, for input
    /// stream `stream`.
    pub fn priorities(&self, seed: u64, stream: u64) -> Vec<u8> {
        let mut rng = XorShift64Star::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..RING)
            .map(|_| rng.below(self.priorities) as u8)
            .collect()
    }

    /// `RING` job specs for the server workloads. When `periodic` is set,
    /// every 16th job re-arms `PERIODIC_REPEATS` times; payloads are the
    /// ring index, so a completed job names its own input.
    pub fn jobs(&self, seed: u64, stream: u64, periodic: bool) -> Vec<JobSpec> {
        let mut rng = XorShift64Star::new(seed ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        (0..RING)
            .map(|i| {
                let tenant = TenantId(rng.below(TENANTS as u64) as u32);
                let band = rng.below(self.priorities.min(DEADLINE_BANDS));
                let offset = (band * BAND_NS + rng.below(BAND_NS)).max(MIN_SLACK_NS);
                let deadline = Deadline::In(offset);
                if periodic && i % PERIODIC_EVERY == PERIODIC_EVERY - 1 {
                    let period = BAND_NS / 2 + rng.below(4 * BAND_NS);
                    JobSpec::periodic(tenant, deadline, i as u64, period, PERIODIC_REPEATS)
                } else {
                    JobSpec::once(tenant, deadline, i as u64)
                }
            })
            .collect()
    }

    /// The simulator's experiment seed.
    pub fn sim_seed(&self, seed: u64) -> u64 {
        let mut s = seed ^ 0x51_u64;
        funnelpq_util::splitmix64(&mut s)
    }
}
