//! `batch`: one closed-loop caller issuing `lookup_many(1024)` of
//! uniform keys back to back over 4 M keys (16 MB; each slave's 8 MB
//! partition exceeds a 4 MiB per-core L2). Batches fill to `max_batch`
//! from backlog, so no coalescing delay is paid and the time goes to the
//! per-key serve envelope, then the core and the index.

use crate::common::{
    closed_loop, count_wrong, set_caller_tails, set_replays, set_serve_counters, Closed,
    LocalCycles, StageSplits, SETUP_CYCLES,
};
use crate::replay::MAX_REPLAY_KEYS;
use crate::stats::Sorted;
use crate::{Args, Outcome};
use dini_obs::StageRecord;
use dini_serve::{Clock, IndexServer, ServeConfig, TraceConfig};
use dini_workload::{gen_sorted_unique_keys, KeyGen};

const INDEX_KEYS: usize = 4 << 20;
const PER_CALL: usize = 1024;
const QUERY_SALT: u64 = 0x00B0_A7C4;

pub fn run(args: &Args) -> Outcome {
    let clock = Clock::system();
    let keys = gen_sorted_unique_keys(INDEX_KEYS, args.seed);
    let mut out = Outcome::default();

    let server = IndexServer::build(&keys, ServeConfig::new(1));
    let handle = server.handle();
    let mut gen = KeyGen::uniform(args.seed ^ QUERY_SALT);
    closed_loop(
        &clock,
        &mut gen,
        PER_CALL,
        args.warmup_s(),
        |k| handle.lookup_many(k),
        |_, _, _| {},
    );
    // Each segment's ranks are checked as it ends (untimed), and only
    // the keys the replays need are kept.
    let mut cycles = LocalCycles::default();
    let mut measured = Closed::default();
    let mut replay_keys = Vec::new();
    for _ in 0..SETUP_CYCLES {
        cycles.run_one(&mut out, &keys, args.seed);
        let segment = args.seconds / SETUP_CYCLES as f64;
        let part = closed_loop(
            &clock,
            &mut gen,
            PER_CALL,
            segment,
            |k| handle.lookup_many(k),
            |_, _, _| {},
        );
        out.wrong += count_wrong(&keys, &part.stream, &part.ranks);
        let room = MAX_REPLAY_KEYS.saturating_sub(replay_keys.len());
        replay_keys.extend_from_slice(&part.stream[..room.min(part.stream.len())]);
        measured.absorb_timings(&part);
    }
    let stats = server.stats();
    out.attempted += measured.attempted;
    out.failed += measured.failed;

    let call_us = measured.call_us();
    let m = &mut out.metrics;
    m.set("setup_s", cycles.setup_s());
    m.set("keys_per_s", measured.keys_per_s());
    m.set("lookup_p50_us", call_us.pct(0.5));
    m.set("update_p50_us", cycles.update_p50_us());
    if !args.trace {
        return out;
    }

    set_serve_counters(m, &stats);
    set_caller_tails(m, &call_us, &cycles.update_us(), &Sorted::default());
    drop(server);

    // Traced phase: dense stage tracing, one `serve.lookup_many` span per
    // call and one `core.batch` span per departed batch under it.
    let mut cfg = ServeConfig::new(1);
    cfg.trace = TraceConfig::dense();
    let traced = IndexServer::build(&keys, cfg);
    let th = traced.handle();
    closed_loop(&clock, &mut gen, PER_CALL, args.warmup_s(), |k| th.lookup_many(k), |_, _, _| {});
    let mut splits = StageSplits::default();
    let spans = &mut out.spans;
    let root = spans.reserve();
    let start = clock.now();
    let tm = closed_loop(
        &clock,
        &mut gen,
        PER_CALL,
        args.traced_s(),
        |k| th.lookup_many(k),
        |t0, t1, k| {
            let call = spans.record(root, 0, "serve", "serve.lookup_many", t0, t1, k.len() as u32);
            let recs: Vec<StageRecord> = traced
                .stage_traces()
                .into_iter()
                .filter(|r| (t0..=t1).contains(&r.admitted_ns))
                .collect();
            let mut batches: Vec<(u64, u64)> =
                recs.iter().map(|r| (r.dispatched_ns, r.answered_ns)).collect();
            batches.sort_unstable();
            for run in batches.chunk_by(|a, b| a == b) {
                spans.record(call, 0, "core", "core.batch", run[0].0, run[0].1, run.len() as u32);
            }
            recs.iter().for_each(|r| splits.add(r));
        },
    );
    spans.push(root, 0, 0, "bench", "phase.lookups", start, clock.now(), 0);
    out.attempted += tm.attempted;
    out.failed += tm.failed;
    out.wrong += count_wrong(&keys, &tm.stream, &tm.ranks);
    out.traced_keys = tm.stream.len() as u64;
    drop(traced);

    let m = &mut out.metrics;
    splits.set(m);
    m.set("obs.trace_overhead_frac", 1.0 - tm.keys_per_s() / measured.keys_per_s());
    set_replays(&mut out, &keys, &replay_keys, measured.ns_per_key());
    out
}
