//! `online`: an open loop of single-key `begin_lookup`s arriving
//! Poisson at 50 000/s with Zipf keys (256 buckets, s = 1.1) over 1 M
//! keys (each slave's 2 MB partition fits a per-core L2). Search is
//! cheap here; the time goes to the coalescing delay, queue hand-offs
//! and reply wake-ups, so batching and wake-up changes show and search
//! changes should not.

use crate::common::{
    count_wrong, set_caller_tails, set_replays, set_serve_counters, LocalCycles, StageSplits,
    SETUP_CYCLES,
};
use crate::open_loop::{self, poisson_schedule, Timed};
use crate::stats::Sorted;
use crate::{Args, Outcome};
use dini_obs::StageRecord;
use dini_serve::{Clock, IndexServer, KeyDistribution, ServeConfig, TraceConfig};
use dini_workload::{gen_sorted_unique_keys, KeyGen};
use std::collections::HashMap;

const INDEX_KEYS: usize = 1 << 20;
const RATE_PER_S: f64 = 25_000.0;
const KEYS: KeyDistribution = KeyDistribution::Zipf { n_buckets: 256, s: 1.1 };
/// Reaps between drains of the traced server's stage ring (capacity
/// 1024), so no record is overwritten before it is read.
const DRAIN_EVERY: usize = 256;
const ARRIVAL_SALT: u64 = 0x00A2_2177;
const QUERY_SALT: u64 = 0x0000_471E;

/// Due times and keys of `seconds` of traffic.
fn traffic(seed: u64, seconds: f64) -> (Vec<u64>, Vec<u32>) {
    let offsets = poisson_schedule(seed ^ ARRIVAL_SALT, RATE_PER_S, seconds);
    let keys = KeyGen::new(seed ^ QUERY_SALT, KEYS).take(offsets.len());
    (offsets, keys)
}

/// Seconds from a phase's start (its schedule origin) to its last answer.
fn phase_s(timed: &[Timed<u32>], offsets: &[u64]) -> f64 {
    let (Some(first), Some(end)) = (timed.first(), timed.iter().map(|t| t.done).max()) else {
        return 0.0;
    };
    (end - (first.due - offsets[0])) as f64 / 1e9
}

/// Tally attempts, failures and wrong ranks; return the answered keys.
fn tally(out: &mut Outcome, keys: &[u32], queries: &[u32], timed: &[Timed<u32>]) -> Vec<u32> {
    out.attempted += timed.len() as u64;
    let (mut asked, mut ranks) = (Vec::with_capacity(timed.len()), Vec::with_capacity(timed.len()));
    for (q, t) in queries.iter().zip(timed) {
        match t.outcome {
            Ok(r) => {
                asked.push(*q);
                ranks.push(r);
            }
            Err(_) => out.failed += 1,
        }
    }
    out.wrong += count_wrong(keys, &asked, &ranks);
    asked
}

fn latency_us(timed: &[Timed<u32>]) -> Sorted {
    Sorted::new(
        timed.iter().filter(|t| t.outcome.is_ok()).map(|t| t.latency_ns() as f64 / 1e3).collect(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let clock = Clock::system();
    let keys = gen_sorted_unique_keys(INDEX_KEYS, args.seed);
    let mut out = Outcome::default();

    let server = IndexServer::build(&keys, ServeConfig::new(1));
    let handle = server.handle();
    let lookup = |_: usize, &k: &u32| handle.begin_lookup(k);
    let (warm_at, warm_keys) = traffic(args.seed.wrapping_add(1), args.warmup_s());
    open_loop::run(&clock, &warm_at, &warm_keys, lookup, |p| p.wait(), &mut |_| {});
    let mut cycles = LocalCycles::default();
    let (mut timed, mut queries, mut busy_s) = (Vec::new(), Vec::new(), 0.0);
    for segment in 0..SETUP_CYCLES as u64 {
        cycles.run_one(&mut out, &keys, args.seed);
        let (at, qs) = traffic(args.seed ^ (segment << 40), args.seconds / SETUP_CYCLES as f64);
        let part = open_loop::run(&clock, &at, &qs, lookup, |p| p.wait(), &mut |_| {});
        busy_s += phase_s(&part, &at);
        timed.extend(part);
        queries.extend(qs);
    }
    let stats = server.stats();
    let answered = tally(&mut out, &keys, &queries, &timed);
    let lookup_us = latency_us(&timed);

    let m = &mut out.metrics;
    m.set("setup_s", cycles.setup_s());
    m.set("keys_per_s", answered.len() as f64 / busy_s);
    m.set("lookup_p50_us", lookup_us.pct(0.5));
    m.set("update_p50_us", cycles.update_p50_us());
    if !args.trace {
        return out;
    }

    set_serve_counters(m, &stats);
    let late_us = Sorted::new(timed.iter().map(|t| t.late_ns() as f64 / 1e3).collect());
    set_caller_tails(m, &lookup_us, &cycles.update_us(), &late_us);
    drop(server);

    // Traced phase: every request carries trace id `i + 1`, so its stage
    // record joins its caller span; the ring is drained while it still
    // holds the request.
    let mut cfg = ServeConfig::new(1);
    cfg.trace = TraceConfig::dense();
    let traced = IndexServer::build(&keys, cfg);
    let th = traced.handle();
    open_loop::run(
        &clock,
        &warm_at,
        &warm_keys,
        |_, &k| th.begin_lookup(k),
        |p| p.wait(),
        &mut |_| {},
    );
    let (tat, tqueries) = traffic(args.seed.wrapping_add(2), args.traced_s());
    let mut stages: HashMap<u64, StageRecord> = HashMap::new();
    let drain = |stages: &mut HashMap<u64, StageRecord>| {
        stages.extend(
            traced.stage_traces().into_iter().filter(|r| r.trace != 0).map(|r| (r.trace, r)),
        )
    };
    let start = clock.now();
    let ttimed = open_loop::run(
        &clock,
        &tat,
        &tqueries,
        |i, &k| th.begin_lookup_traced(k, i as u64 + 1),
        |p| p.wait(),
        &mut |i| {
            if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                drain(&mut stages)
            }
        },
    );
    drain(&mut stages);
    let end = clock.now();
    tally(&mut out, &keys, &tqueries, &ttimed);
    drop(traced);

    let spans = &mut out.spans;
    let root = spans.reserve();
    for (i, t) in ttimed.iter().enumerate() {
        let trace = i as u64 + 1;
        let req = spans.reserve();
        spans.record(req, trace, "caller", "caller.late", t.due, t.submit_start, 0);
        spans.record(req, trace, "serve", "serve.submit", t.submit_start, t.submit_end, 0);
        if let Some(r) = stages.get(&trace) {
            spans.record(req, trace, "serve", "serve.queue", r.admitted_ns, r.collected_ns, 0);
            spans.record(req, trace, "serve", "serve.adopt", r.collected_ns, r.dispatched_ns, 0);
            spans.record(req, trace, "core", "core.batch", r.dispatched_ns, r.answered_ns, 0);
            spans.record(req, trace, "serve", "serve.fill", r.answered_ns, r.filled_ns, 0);
            spans.record(req, trace, "serve", "serve.reply", r.filled_ns, t.done, 0);
        }
        spans.push(req, root, trace, "caller", "caller.request", t.due, t.done, 1);
    }
    spans.push(root, 0, 0, "bench", "phase.lookups", start, end, 0);
    out.traced_keys = ttimed.len() as u64;
    eprintln!(
        "online traced phase: {} of {} requests stitched to a stage record",
        stages.len(),
        ttimed.len()
    );

    let mut splits = StageSplits::default();
    stages.values().for_each(|r| splits.add(r));
    let caller_ns = Sorted::new(
        timed
            .iter()
            .filter(|t| t.outcome.is_ok())
            .map(|t| (t.done - t.submit_start) as f64)
            .collect(),
    )
    .mean();
    let m = &mut out.metrics;
    splits.set(m);
    m.set("obs.trace_overhead_frac", latency_us(&ttimed).pct(0.5) / lookup_us.pct(0.5) - 1.0);
    set_replays(&mut out, &keys, &answered, caller_ns);
    out
}
