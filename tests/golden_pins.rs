//! Golden pins for the two relaxed queues, native and simulated.
//!
//! Every value is an exact figure of a deterministic run: simulated cycles,
//! transactions and completed operations for the simulator, and a hash of
//! the whole output sequence of a seeded single-OS-thread script for the
//! native queues (the shape of the repository benchmark's quality phase,
//! which scores `rank_error_mean.*`). A refactor of the MultiQueue or
//! NumaPq code that keeps behaviour identical keeps every pin; moving one
//! RNG draw, instruction or transaction breaks them. Never edit a pinned
//! value to make a change pass: an intended behaviour change re-pins on its
//! own and says why.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use funnelpq::obs::NoopRecorder;
use funnelpq::{
    BoundedPq, MultiQueuePq, NumaConfig, NumaMode, NumaPolicy, NumaPq, DEFAULT_MQ_FACTOR,
    DEFAULT_MQ_SEED,
};
use funnelpq_sim::{Machine, MachineConfig, RunOutcome};
use funnelpq_simqueues::queues::{Algorithm, BuildParams, SimPq};
use funnelpq_simqueues::workload::{
    run_batched_churn, run_queue_workload, run_queue_workload_with, RunResult, Workload,
};
use funnelpq_util::XorShift64Star;

/// `[total_cycles, mem_accesses, remote_accesses, completed ops, summed op
/// latency, drain hash]` of one simulated run; the hash of a sequential
/// drain's output order is 0 for runs without one.
type Pin = [u64; 6];

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a 64-bit word.
fn fnv(h: u64, w: u64) -> u64 {
    w.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn pin(r: &RunResult) -> Pin {
    let (all, stats) = (&r.all, &r.stats);
    let (mem, remote) = (stats.mem_accesses, stats.remote_accesses);
    [r.total_cycles, mem, remote, all.count(), all.sum(), 0]
}

fn workload(machine: MachineConfig) -> Workload {
    Workload {
        ops_per_proc: 48,
        machine,
        ..Workload::standard(16, 16)
    }
}

/// Build parameters as `run_queue_workload` sizes them, adjusted by `tune`.
fn params(wl: &Workload, tune: impl FnOnce(&mut BuildParams)) -> BuildParams {
    let mut p = BuildParams::new(wl.procs, wl.num_priorities);
    p.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    tune(&mut p);
    p
}

/// A mixed script over every simulated entry point (`insert`,
/// `insert_batch`, `delete_min`, `delete_min_batch`), run concurrently by
/// `wl.procs` processors and then drained sequentially by one more.
fn mixed_script(algo: Algorithm, wl: &Workload, tune: impl FnOnce(&mut BuildParams)) -> Pin {
    let mut p = BuildParams::new(wl.procs + 1, wl.num_priorities);
    p.capacity = wl.procs * wl.ops_per_proc * 8;
    tune(&mut p);
    let mut m = Machine::new(wl.machine, wl.seed);
    let q = Rc::new(SimPq::build(&mut m, algo, &p));
    for _ in 0..wl.procs {
        let (ctx, q) = (m.ctx(), Rc::clone(&q));
        let (ops, local, pris) = (wl.ops_per_proc, wl.local_work, wl.num_priorities as u64);
        m.spawn(async move {
            let mut next = (ctx.pid() * ops * 8) as u64;
            let mut out = Vec::new();
            for _ in 0..ops {
                ctx.work(local).await;
                let t0 = ctx.now();
                match ctx.random_below(5) {
                    0 | 1 => {
                        q.insert(&ctx, ctx.random_below(pris), next).await;
                        next += 1;
                    }
                    2 => {
                        let n = 1 + ctx.random_below(6);
                        let batch: Vec<(u64, u64)> =
                            (0..n).map(|i| (ctx.random_below(pris), next + i)).collect();
                        next += n;
                        q.insert_batch(&ctx, &batch).await.expect("capacity fits");
                    }
                    3 => drop(q.delete_min(&ctx).await),
                    _ => {
                        out.clear();
                        let k = 1 + ctx.random_below(4) as usize;
                        q.delete_min_batch(&ctx, k, &mut out).await;
                    }
                }
                ctx.record("all", ctx.now() - t0);
            }
        });
    }
    assert!(matches!(m.run_for(2_000_000_000), RunOutcome::Quiescent));
    let hash = Rc::new(Cell::new(FNV_BASIS));
    let (ctx, q2, h) = (m.ctx(), Rc::clone(&q), Rc::clone(&hash));
    m.spawn(async move {
        while let Some((pri, item)) = q2.delete_min(&ctx).await {
            h.set(fnv(fnv(h.get(), pri), item));
        }
    });
    assert!(matches!(m.run_for(2_000_000_000), RunOutcome::Quiescent));
    q.validate(&m).expect("structure intact at quiescence");
    let stats = m.stats();
    let all = stats.get("all").cloned().unwrap_or_default();
    let (mem, remote) = (stats.mem_accesses, stats.remote_accesses);
    [m.now(), mem, remote, all.count(), all.sum(), hash.get()]
}

#[test]
fn sim_multiqueue_schedules_are_pinned() {
    let (wl, mq) = (
        workload(MachineConfig::alewife_like()),
        Algorithm::MultiQueue,
    );
    let sticky1 = |p: &mut BuildParams| p.mq_stickiness = 1;
    let runs = [
        ("workload stickiness 8", pin(&run_queue_workload(mq, &wl))),
        (
            "workload stickiness 1",
            pin(&run_queue_workload_with(mq, &wl, &params(&wl, sticky1))),
        ),
        ("batched churn k=8", pin(&run_batched_churn(mq, &wl, 8))),
        ("mixed stickiness 8", mixed_script(mq, &wl, |_| {})),
        ("mixed stickiness 1", mixed_script(mq, &wl, sticky1)),
    ];
    let pinned: [Pin; 5] = [
        [26053, 13366, 0, 768, 339851, 0],
        [21974, 10830, 0, 768, 277424, 0],
        [52392, 28170, 0, 96, 514343, 0],
        [235867, 30199, 0, 768, 558169, 986717365515528630],
        [275079, 31570, 0, 768, 565575, 5416778734226138714],
    ];
    for ((name, got), want) in runs.into_iter().zip(pinned) {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn sim_numapq_schedules_are_pinned() {
    let wl = workload(MachineConfig::alewife_like().with_topology(2, 4));
    let numa = Algorithm::NumaPq;
    let pinned: [(NumaPolicy, Pin, Pin); 3] = [
        (
            NumaPolicy::Pinned(NumaMode::Oblivious),
            [38465, 10988, 3807, 768, 515457, 0],
            [329320, 30183, 14706, 768, 1428239, 1240584823390456900],
        ),
        (
            NumaPolicy::Pinned(NumaMode::Delegation),
            [33045, 11847, 1496, 768, 398427, 0],
            [564947, 37208, 4948, 768, 728332, 11058659155530628275],
        ),
        (
            NumaPolicy::Adaptive,
            [38465, 10988, 3807, 768, 515457, 0],
            [302342, 30465, 3838, 768, 754948, 11015701426828755521],
        ),
    ];
    for (policy, want, want_mixed) in pinned {
        let tune = |p: &mut BuildParams| p.numa_policy = policy;
        let run = run_queue_workload_with(numa, &wl, &params(&wl, tune));
        assert_eq!(pin(&run), want, "workload {policy:?}");
        assert_eq!(
            mixed_script(numa, &wl, tune),
            want_mixed,
            "mixed {policy:?}"
        );
    }
    let churn = pin(&run_batched_churn(numa, &wl, 8));
    assert_eq!(
        churn,
        [119834, 39881, 12832, 96, 841829, 0],
        "batched churn"
    );
}

#[test]
fn sim_single_lock_schedules_are_pinned() {
    // SingleLock's heap shares its simulated sift code with the relaxed
    // queues' heap array.
    let (wl, sl) = (
        workload(MachineConfig::alewife_like()),
        Algorithm::SingleLock,
    );
    let runs = [
        ("workload", pin(&run_queue_workload(sl, &wl))),
        ("batched churn k=8", pin(&run_batched_churn(sl, &wl, 8))),
        ("mixed", mixed_script(sl, &wl, |_| {})),
    ];
    let pinned: [Pin; 3] = [
        [343206, 17932, 0, 768, 5402367, 0],
        [1013937, 42008, 0, 96, 12750303, 0],
        [1511703, 65674, 0, 768, 17676498, 17034228907213010448],
    ];
    for ((name, got), want) in runs.into_iter().zip(pinned) {
        assert_eq!(got, want, "{name}");
    }
}

/// Drives a seeded script of every native entry point on two thread ids
/// from one OS thread, then drains the rest; returns `(outputs, hash of
/// every output in order)`.
fn native_script(q: &impl BoundedPq<u64>) -> (u64, u64) {
    const PRIS: u64 = 64;
    let mut rng = XorShift64Star::new(0x9E37_79B9);
    let (mut h, mut outputs, mut next) = (FNV_BASIS, 0u64, 0u64);
    let mut emit = |h: &mut u64, e: Option<(usize, u64)>| match e {
        Some((pri, item)) => {
            *h = fnv(fnv(*h, pri as u64), item);
            outputs += 1;
        }
        None => *h = fnv(*h, u64::MAX),
    };
    let mut out = Vec::new();
    for step in 0..4_000usize {
        let tid = step % 2;
        match rng.below(6) {
            0 | 1 => {
                q.insert(tid, rng.below(PRIS) as usize, next);
                next += 1;
            }
            2 => {
                let n = 1 + rng.below(6);
                let batch = (0..n).map(|i| (rng.below(PRIS) as usize, next + i));
                q.insert_batch(tid, batch.collect()).expect("in range");
                next += n;
            }
            3 => emit(&mut h, q.delete_min(tid)),
            4 => {
                out.clear();
                h = fnv(h, q.delete_min_batch(tid, 8, &mut out) as u64);
                for &e in &out {
                    emit(&mut h, Some(e));
                }
            }
            _ => {
                let pri = rng.below(PRIS) as usize;
                emit(&mut h, q.replace_min(tid, pri, next));
                next += 1;
            }
        }
    }
    while let Some(e) = q.delete_min(0) {
        emit(&mut h, Some(e));
    }
    assert!(q.is_empty());
    (outputs, h)
}

#[test]
fn native_relaxed_queue_outputs_are_pinned() {
    let rec = Arc::new(NoopRecorder);
    let mq1 = MultiQueuePq::with_config(64, 2, DEFAULT_MQ_FACTOR, 1, DEFAULT_MQ_SEED, rec);
    let delegation = NumaConfig {
        nodes: 2,
        policy: NumaPolicy::Pinned(NumaMode::Delegation),
        ..NumaConfig::default()
    };
    let runs = [
        (
            "MultiQueuePq stickiness 8",
            native_script(&MultiQueuePq::new(64, 2)),
        ),
        ("MultiQueuePq stickiness 1", native_script(&mq1)),
        (
            "NumaPq default",
            native_script(&NumaPq::new(64, 2, NumaConfig::default())),
        ),
        (
            "NumaPq pinned delegation",
            native_script(&NumaPq::new(64, 2, delegation)),
        ),
    ];
    let pinned = [
        (4276, 6535316915341098357),
        (4276, 6065803653192390225),
        (4276, 1544102412818599837),
        (4276, 16395259747987739009),
    ];
    for ((name, got), want) in runs.into_iter().zip(pinned) {
        assert_eq!(got, want, "{name}");
    }
}
