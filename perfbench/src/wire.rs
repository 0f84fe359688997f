//! `wire`: a `NetServer` (one span, one endpoint) on TCP loopback with a
//! `RemoteClient` in the same process, over 1 M keys. One thread runs a
//! closed loop of `lookup_many(256)` with uniform keys; beside it,
//! quorum-acked updates arrive Poisson at 250/s, alternating
//! insert-absent and delete-present so the live count stays flat. The
//! only workload that crosses the codec, transport, client coalescing,
//! churn-log appender and serve writer, and the only one with writes
//! beside reads.

use crate::common::{
    churn_ops, closed_loop, set_caller_tails, set_replays, set_serve_counters, Closed, Mirror,
    StageSplits, SETUP_CYCLES,
};
use crate::open_loop::{self, poisson_schedule, Timed};
use crate::stats::Sorted;
use crate::{Args, Outcome};
use dini_net::transport::{TcpAcceptorT, TcpDialer};
use dini_net::{
    Acceptor, ClientConfig, NetHandle, NetServer, NetServerConfig, RemoteClient, Topology,
};
use dini_obs::{stitch, StageRecord};
use dini_serve::{Clock, Op, ServeConfig, TraceConfig};
use dini_workload::{gen_sorted_unique_keys, KeyGen};
use std::time::Instant;

const INDEX_KEYS: usize = 1 << 20;
const PER_CALL: usize = 256;
const UPDATE_RATE_PER_S: f64 = 250.0;
const QUERY_SALT: u64 = 0x0003_1BE0;
const ARRIVAL_SALT: u64 = 0x00A2_2177;
use crate::common::CHURN_SALT;

/// A served span and a client connected to it over TCP loopback, both
/// with `trace` sampling.
fn start(keys: &[u32], trace: &TraceConfig) -> (NetServer, RemoteClient) {
    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = acceptor.addr();
    let mut serve = ServeConfig::new(1);
    serve.trace = trace.clone();
    let server = NetServer::start(
        Box::new(acceptor),
        keys,
        NetServerConfig::new(serve, Topology::single(vec![addr.clone()]), 0),
    );
    let cfg = ClientConfig { trace: trace.clone(), ..ClientConfig::default() };
    let client =
        RemoteClient::connect(Box::new(TcpDialer), &addr, cfg).expect("connect over loopback");
    (server, client)
}

fn stop(server: NetServer, client: RemoteClient) {
    drop(client);
    server.shutdown();
}

/// Lookups in a closed loop beside open-loop updates, both for
/// `seconds`; `after` sees each lookup call as in [`closed_loop`].
fn mixed(
    clock: &Clock,
    handle: &NetHandle,
    gen: &mut KeyGen,
    seconds: f64,
    offsets: &[u64],
    ops: &[Op],
    after: impl FnMut(u64, u64, &[u32]),
) -> (Closed, Vec<Timed<()>>) {
    let updater = handle.clone();
    std::thread::scope(|s| {
        let updates = s.spawn(move || {
            open_loop::run(
                clock,
                offsets,
                ops,
                |_, &op| updater.begin_update(op),
                |p| p.wait(),
                &mut |_| {},
            )
        });
        let lookups = closed_loop(clock, gen, PER_CALL, seconds, |k| handle.lookup_many(k), after);
        (lookups, updates.join().expect("update generator panicked"))
    })
}

/// Check a mixed phase: lookups taken during churn must fall between the
/// rank with every issued delete and the rank with every issued insert;
/// after `quiesce`, a probe sweep must match the mirror of acked updates
/// exactly.
fn check(
    out: &mut Outcome,
    keys: &[u32],
    handle: &NetHandle,
    seed: u64,
    lookups: &Closed,
    ops: &[Op],
    updates: &[Timed<()>],
) {
    let sorted = |want_insert: bool| {
        let mut v: Vec<u32> = ops
            .iter()
            .filter(|op| matches!(op, Op::Insert(_)) == want_insert)
            .map(|op| op.key())
            .collect();
        v.sort_unstable();
        v
    };
    let (inserted, deleted) = (sorted(true), sorted(false));
    out.attempted += lookups.attempted;
    out.failed += lookups.failed;
    out.wrong += lookups
        .stream
        .iter()
        .zip(&lookups.ranks)
        .filter(|&(&q, &r)| {
            let base = keys.partition_point(|&s| s <= q);
            let lo = base - deleted.partition_point(|&s| s <= q);
            let hi = base + inserted.partition_point(|&s| s <= q);
            !(lo..=hi).contains(&(r as usize))
        })
        .count() as u64;

    let mut mirror = Mirror::new(keys);
    out.attempted += updates.len() as u64;
    for (op, t) in ops.iter().zip(updates) {
        match t.outcome {
            Ok(()) => mirror.apply(*op),
            Err(_) => out.failed += 1,
        }
    }
    let probes = mirror.probes(seed);
    out.attempted += probes.len() as u64;
    match handle.quiesce().and_then(|()| handle.lookup_many(&probes)) {
        Ok(ranks) => {
            out.wrong +=
                probes.iter().zip(&ranks).filter(|&(&q, &r)| mirror.rank(q) != r).count() as u64
        }
        Err(_) => out.failed += probes.len() as u64,
    }
}

fn update_us(updates: &[Timed<()>]) -> Sorted {
    Sorted::new(
        updates.iter().filter(|t| t.outcome.is_ok()).map(|t| t.latency_ns() as f64 / 1e3).collect(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let clock = Clock::system();
    let keys = gen_sorted_unique_keys(INDEX_KEYS, args.seed);
    let mut out = Outcome::default();

    // Set-up: start plus connect → first answered lookup, torn down
    // untimed; `setup_s` is the median over the cycles.
    let probe = keys[keys.len() / 2];
    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    for _ in 0..SETUP_CYCLES {
        let t0 = Instant::now();
        let (server, client) = start(&keys, &TraceConfig::default());
        let answer = client.lookup(probe);
        setups.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match answer {
            Ok(r) if r as usize == keys.len() / 2 + 1 => {}
            Ok(_) => out.wrong += 1,
            Err(_) => out.failed += 1,
        }
        stop(server, client);
    }
    let setup_s = Sorted::new(setups).pct(0.5);

    let (server, client) = start(&keys, &TraceConfig::default());
    let handle = client.handle();
    let mut gen = KeyGen::uniform(args.seed ^ QUERY_SALT);
    closed_loop(
        &clock,
        &mut gen,
        PER_CALL,
        args.warmup_s(),
        |k| handle.lookup_many(k),
        |_, _, _| {},
    );
    let at = poisson_schedule(args.seed ^ ARRIVAL_SALT, UPDATE_RATE_PER_S, args.seconds);
    let ops = churn_ops(&keys, args.seed ^ CHURN_SALT, at.len());
    let (lookups, updates) =
        mixed(&clock, &handle, &mut gen, args.seconds, &at, &ops, |_, _, _| {});
    let serve_stats = server.server().stats();
    let net_stats = client.stats();
    check(&mut out, &keys, &handle, args.seed, &lookups, &ops, &updates);
    stop(server, client);
    let call_us = lookups.call_us();
    let upd_us = update_us(&updates);

    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("keys_per_s", lookups.keys_per_s());
    m.set("lookup_p50_us", call_us.pct(0.5));
    m.set("update_p50_us", upd_us.pct(0.5));
    if !args.trace {
        return out;
    }

    set_serve_counters(m, &serve_stats);
    m.set("net.retries", net_stats.retries as f64);
    m.set("net.update_resends", net_stats.update_resends as f64);
    m.set("net.elections", net_stats.elections as f64);
    m.set("net.client_shed", net_stats.client_shed as f64);
    let late_us = Sorted::new(updates.iter().map(|t| t.late_ns() as f64 / 1e3).collect());
    set_caller_tails(m, &call_us, &upd_us, &late_us);

    // Traced phase: dense tracing on both sides. After each lookup call
    // its client wire records and server stage records are stitched on
    // their shared trace ids into `net.frame` → `serve.frame` →
    // `core.batch` spans under the call's `net.lookup_many` span.
    let dense = TraceConfig::dense();
    let (server, client) = start(&keys, &dense);
    let handle = client.handle();
    closed_loop(
        &clock,
        &mut gen,
        PER_CALL,
        args.warmup_s(),
        |k| handle.lookup_many(k),
        |_, _, _| {},
    );
    let tat = poisson_schedule(
        args.seed.wrapping_add(2) ^ ARRIVAL_SALT,
        UPDATE_RATE_PER_S,
        args.traced_s(),
    );
    let tops = churn_ops(&keys, args.seed.wrapping_add(2) ^ CHURN_SALT, tat.len());
    let (mut frame_keys, mut wire_us, mut wire_only_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut splits = StageSplits::default();
    let spans = &mut out.spans;
    let root = spans.reserve();
    let start_ns = clock.now();
    let (tlookups, tupdates) =
        mixed(&clock, &handle, &mut gen, args.traced_s(), &tat, &tops, |t0, t1, k| {
            let call = spans.record(root, 0, "net", "net.lookup_many", t0, t1, k.len() as u32);
            let wire: Vec<StageRecord> = handle
                .wire_traces()
                .into_iter()
                .filter(|r| (t0..=t1).contains(&r.encoded_ns))
                .collect();
            let served: Vec<StageRecord> = server
                .server()
                .stage_traces()
                .into_iter()
                .filter(|r| r.trace != 0 && (t0..=t1).contains(&r.admitted_ns))
                .collect();
            let timelines = stitch(&wire, &served);
            for c in &wire {
                frame_keys.push(f64::from(c.batch_len));
                wire_us.push(c.wire_ns() as f64 / 1e3);
                let frame = spans.record(
                    call,
                    c.trace,
                    "net",
                    "net.frame",
                    c.encoded_ns,
                    c.acked_ns,
                    c.batch_len,
                );
                let mine: Vec<_> = timelines.iter().filter(|t| t.trace == c.trace).collect();
                let (Some(first), Some(last)) = (
                    mine.iter().map(|t| t.server.admitted_ns).min(),
                    mine.iter().map(|t| t.server.filled_ns).max(),
                ) else {
                    continue;
                };
                let sf = spans.record(
                    frame,
                    c.trace,
                    "serve",
                    "serve.frame",
                    first,
                    last,
                    mine.len() as u32,
                );
                // One span per server batch the frame's keys rode in,
                // carrying only this frame's share of the batch.
                let mut batches: Vec<(u64, u64)> =
                    mine.iter().map(|t| (t.server.dispatched_ns, t.server.answered_ns)).collect();
                batches.sort_unstable();
                for run in batches.chunk_by(|a, b| a == b) {
                    spans.record(
                        sf,
                        c.trace,
                        "core",
                        "core.batch",
                        run[0].0,
                        run[0].1,
                        run.len() as u32,
                    );
                }
            }
            wire_only_us.extend(
                timelines.iter().map(|t| (t.wire_out_ns() + t.wire_back_ns()) as f64 / 1e3),
            );
            served.iter().for_each(|r| splits.add(r));
        });
    let end_ns = clock.now();
    spans.push(root, 0, 0, "bench", "phase.lookups", start_ns, end_ns, 0);
    let uroot = spans.reserve();
    for t in &tupdates {
        let upd = spans.reserve();
        spans.record(upd, 0, "caller", "caller.late", t.due, t.submit_start, 0);
        spans.push(upd, uroot, 0, "net", "net.update", t.due, t.done, 0);
    }
    spans.push(uroot, 0, 0, "bench", "phase.updates", start_ns, end_ns, 0);
    out.traced_keys = tlookups.stream.len() as u64;
    check(&mut out, &keys, &handle, args.seed, &tlookups, &tops, &tupdates);
    stop(server, client);

    let m = &mut out.metrics;
    splits.set(m);
    m.set("net.frame_keys_p50", Sorted::new(frame_keys).pct(0.5));
    m.set("net.wire_us_p50", Sorted::new(wire_us).pct(0.5));
    m.set("net.wire_only_us_p50", Sorted::new(wire_only_us).pct(0.5));
    m.set("obs.trace_overhead_frac", 1.0 - tlookups.keys_per_s() / lookups.keys_per_s());
    set_replays(&mut out, &keys, &lookups.stream, lookups.ns_per_key());
    out
}
