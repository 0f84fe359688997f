//! Pieces the workloads share: the rank oracle and update mirror, churn
//! generation, the closed lookup loop, the set-up and update cycles of
//! an in-process server, and the metric setters.

use crate::report::Metrics;
use crate::stats::{median_window_rate, Sorted};
use crate::{replay, Outcome};
use dini_obs::StageRecord;
use dini_serve::{Clock, IndexServer, Op, ServeConfig, ServeError, ServeStats};
use dini_workload::KeyGen;
use std::collections::BTreeSet;
use std::time::Instant;

/// Set-up cycles per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 15;
/// Local updates timed in each set-up cycle of an in-process server.
pub const UPDATES_PER_CYCLE: usize = 200;
/// Probes of the post-update rank sweep.
pub const SWEEP_PROBES: usize = 128;
/// Salt of the churn-op seed.
pub const CHURN_SALT: u64 = 0x000C_40A7;
/// Calls per throughput window of a closed loop.
pub const WINDOW_CALLS: usize = 32;

/// Ranks in `ranks` that disagree with `partition_point` over the
/// sorted `keys` for the matching query in `queries`.
pub fn count_wrong(keys: &[u32], queries: &[u32], ranks: &[u32]) -> u64 {
    assert_eq!(queries.len(), ranks.len(), "one rank per query");
    queries
        .iter()
        .zip(ranks)
        .filter(|&(&q, &r)| keys.partition_point(|&s| s <= q) as u32 != r)
        .count() as u64
}

/// The live key set after a run of updates: the initial sorted keys
/// plus the updates applied on top, kept as the sets of inserted and
/// deleted keys.
#[derive(Debug, Clone)]
pub struct Mirror<'a> {
    base: &'a [u32],
    inserted: BTreeSet<u32>,
    deleted: BTreeSet<u32>,
}

impl<'a> Mirror<'a> {
    /// The initial key set.
    pub fn new(base: &'a [u32]) -> Self {
        Self { base, inserted: BTreeSet::new(), deleted: BTreeSet::new() }
    }

    /// Fold one acknowledged update in.
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(k) => {
                if !self.deleted.remove(&k) && self.base.binary_search(&k).is_err() {
                    self.inserted.insert(k);
                }
            }
            Op::Delete(k) => {
                if !self.inserted.remove(&k) && self.base.binary_search(&k).is_ok() {
                    self.deleted.insert(k);
                }
            }
            Op::Query(_) => {}
        }
    }

    /// Live keys ≤ `q`.
    pub fn rank(&self, q: u32) -> u32 {
        let base = self.base.partition_point(|&s| s <= q);
        (base + self.inserted.range(..=q).count() - self.deleted.range(..=q).count()) as u32
    }

    /// Probe keys for a sweep: half uniform, half the updated keys
    /// themselves (where a wrong overlay would show first).
    pub fn probes(&self, seed: u64) -> Vec<u32> {
        let touched: Vec<u32> = self.inserted.iter().chain(&self.deleted).copied().collect();
        let mut gen = KeyGen::uniform(seed);
        (0..SWEEP_PROBES)
            .map(|i| {
                let k = gen.next_key();
                if i % 2 == 1 && !touched.is_empty() {
                    touched[k as usize % touched.len()]
                } else {
                    k
                }
            })
            .collect()
    }
}

/// `n` churn ops alternating insert-of-an-absent-key and
/// delete-of-a-present-key, never touching a key twice, so the live
/// count stays flat and every op changes the index.
pub fn churn_ops(keys: &[u32], seed: u64, n: usize) -> Vec<Op> {
    let mut gen = KeyGen::uniform(seed);
    let mut used = BTreeSet::new();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let k = gen.next_key();
        let present = keys.binary_search(&k);
        let op = match (ops.len() % 2, present) {
            (0, Err(_)) => Op::Insert(k),
            (1, _) => Op::Delete(keys[(k as usize) % keys.len()]),
            _ => continue,
        };
        if used.insert(op.key()) {
            ops.push(op);
        }
    }
    ops
}

/// What a closed lookup loop measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// Every key of every answered call, in order.
    pub stream: Vec<u32>,
    /// The rank answered for each key of `stream`.
    pub ranks: Vec<u32>,
    /// Busy seconds of each call.
    pub call_s: Vec<f64>,
    /// Keys of each call.
    pub call_keys: Vec<f64>,
    /// Keys issued.
    pub attempted: u64,
    /// Keys whose call failed.
    pub failed: u64,
}

impl Closed {
    /// Append another segment's call timings and counts (its keys and
    /// ranks stay with it).
    pub fn absorb_timings(&mut self, other: &Closed) {
        self.call_s.extend_from_slice(&other.call_s);
        self.call_keys.extend_from_slice(&other.call_keys);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Busy seconds per call, as µs samples.
    pub fn call_us(&self) -> Sorted {
        Sorted::new(self.call_s.iter().map(|s| s * 1e6).collect())
    }

    /// Median per-window throughput (keys/s).
    pub fn keys_per_s(&self) -> f64 {
        median_window_rate(&self.call_keys, &self.call_s, WINDOW_CALLS)
    }

    /// Mean busy time per key (ns).
    pub fn ns_per_key(&self) -> f64 {
        self.call_s.iter().sum::<f64>() * 1e9 / self.call_keys.iter().sum::<f64>().max(1.0)
    }
}

/// One caller issuing `per_call` uniform keys per call, back to back, for
/// `seconds`. Only the call is timed; key generation is not. `after`
/// sees each call's `(start, end, keys)` on the serving clock.
pub fn closed_loop(
    clock: &Clock,
    gen: &mut KeyGen,
    per_call: usize,
    seconds: f64,
    mut call: impl FnMut(&[u32]) -> Result<Vec<u32>, ServeError>,
    mut after: impl FnMut(u64, u64, &[u32]),
) -> Closed {
    let mut out = Closed::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut keys = Vec::with_capacity(per_call);
    while Instant::now() < deadline {
        keys.clear();
        keys.extend((0..per_call).map(|_| gen.next_key()));
        let t0 = clock.now();
        let answer = call(&keys);
        let t1 = clock.now();
        out.call_s.push((t1 - t0) as f64 / 1e9);
        out.call_keys.push(per_call as f64);
        out.attempted += per_call as u64;
        match answer {
            Ok(ranks) => {
                out.stream.extend_from_slice(&keys);
                out.ranks.extend_from_slice(&ranks);
            }
            Err(_) => out.failed += per_call as u64,
        }
        after(t0, t1, &keys);
    }
    out
}

/// What the local update phase measured.
#[derive(Debug, Default)]
pub struct LocalUpdates {
    /// Update-to-visible latency of each acknowledged op (µs).
    pub latency_us: Vec<f64>,
    /// Ops attempted (updates plus sweep probes).
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Sweep probes whose rank disagreed with the mirror.
    pub wrong: u64,
}

/// Apply `ops` to a local server one at a time, each followed by
/// `quiesce` (the barrier after which lookups see it), timing the pair;
/// then check a rank sweep against the mirror.
pub fn local_updates(server: &IndexServer, keys: &[u32], ops: &[Op], seed: u64) -> LocalUpdates {
    let mut mirror = Mirror::new(keys);
    let mut out = LocalUpdates::default();
    for &op in ops {
        out.attempted += 1;
        let t0 = Instant::now();
        let res = server.update(op);
        server.quiesce();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok(()) => {
                mirror.apply(op);
                out.latency_us.push(us);
            }
            Err(_) => out.failed += 1,
        }
    }
    let probes = mirror.probes(seed);
    out.attempted += probes.len() as u64;
    match server.handle().lookup_many(&probes) {
        Ok(ranks) => {
            out.wrong +=
                probes.iter().zip(&ranks).filter(|&(&q, &r)| mirror.rank(q) != r).count() as u64
        }
        Err(_) => out.failed += probes.len() as u64,
    }
    out
}

/// Set-up cycles of an in-process server, run one at a time between
/// segments of the measured phase so they sample the host across the
/// whole run rather than at its start.
#[derive(Debug, Default)]
pub struct LocalCycles {
    setups: Vec<f64>,
    update_p50s: Vec<f64>,
    update_us: Vec<f64>,
}

impl LocalCycles {
    /// One cycle: build a server over `keys` with default knobs → first
    /// answered lookup (the set-up time) → [`UPDATES_PER_CYCLE`] timed
    /// update + `quiesce` round trips and a rank sweep → drop.
    pub fn run_one(&mut self, out: &mut Outcome, keys: &[u32], seed: u64) {
        let cycle = self.setups.len() as u64;
        let probe = keys[keys.len() / 2];
        let t0 = Instant::now();
        let server = IndexServer::build(keys, ServeConfig::new(1));
        let answer = server.handle().lookup(probe);
        self.setups.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match answer {
            Ok(r) if r as usize == keys.len() / 2 + 1 => {}
            Ok(_) => out.wrong += 1,
            Err(_) => out.failed += 1,
        }
        let ops = churn_ops(keys, seed ^ (cycle << 32) ^ CHURN_SALT, UPDATES_PER_CYCLE);
        let updates = local_updates(&server, keys, &ops, seed ^ cycle);
        out.attempted += updates.attempted;
        out.failed += updates.failed;
        out.wrong += updates.wrong;
        self.update_p50s.push(Sorted::new(updates.latency_us.clone()).pct(0.5));
        self.update_us.extend(updates.latency_us);
    }

    /// Median set-up time (s).
    pub fn setup_s(&self) -> f64 {
        Sorted::new(self.setups.clone()).pct(0.5)
    }

    /// Median over cycles of each cycle's median update latency (µs).
    pub fn update_p50_us(&self) -> f64 {
        Sorted::new(self.update_p50s.clone()).pct(0.5)
    }

    /// Every cycle's update latencies pooled (µs).
    pub fn update_us(&self) -> Sorted {
        Sorted::new(self.update_us.clone())
    }
}

/// The writer and batcher counters of one server.
pub fn set_serve_counters(m: &mut Metrics, s: &ServeStats) {
    m.set("serve.mean_batch", if s.batches > 0 { s.served as f64 / s.batches as f64 } else { 0.0 });
    m.set("serve.batches", s.batches as f64);
    m.set("serve.shed", s.shed as f64);
    m.set("serve.merges", s.merges as f64);
    m.set("serve.snapshots", s.snapshots_published as f64);
    m.set("serve.update_batches", s.update_batches as f64);
}

/// Wait / service / fill samples from dense stage records (µs), kept
/// as numbers rather than whole records.
#[derive(Debug, Default)]
pub struct StageSplits {
    wait: Vec<f64>,
    service: Vec<f64>,
    fill: Vec<f64>,
}

impl StageSplits {
    /// Add one record's splits.
    pub fn add(&mut self, r: &StageRecord) {
        self.wait.push(r.wait_ns() as f64 / 1e3);
        self.service.push(r.service_ns() as f64 / 1e3);
        self.fill.push(r.fill_ns() as f64 / 1e3);
    }

    /// Set the medians.
    pub fn set(self, m: &mut Metrics) {
        m.set("serve.wait_us_p50", Sorted::new(self.wait).pct(0.5));
        m.set("serve.service_us_p50", Sorted::new(self.service).pct(0.5));
        m.set("serve.fill_us_p50", Sorted::new(self.fill).pct(0.5));
    }
}

/// Caller-side tails with their sample counts.
pub fn set_caller_tails(m: &mut Metrics, lookup_us: &Sorted, update_us: &Sorted, late_us: &Sorted) {
    m.set("caller.lookup_p90_us", lookup_us.pct(0.90));
    m.set("caller.lookup_p99_us", lookup_us.pct(0.99));
    m.set("caller.lookup_p999_us", lookup_us.pct(0.999));
    m.set("caller.lookup_samples", lookup_us.len() as f64);
    m.set("caller.update_p99_us", update_us.pct(0.99));
    m.set("caller.update_samples", update_us.len() as f64);
    m.set("caller.gen_late_us_p50", late_us.pct(0.5));
    m.set("caller.gen_late_us_p99", late_us.pct(0.99));
}

/// Replay `stream` through L0 and L1 over the server's 2-slave split at
/// the observed mean batch, and set the envelope the caller paid above
/// the core (`caller_ns_per_key` − `core.ns_per_key`).
pub fn set_replays(out: &mut Outcome, keys: &[u32], stream: &[u32], caller_ns_per_key: f64) {
    let clock = Clock::system();
    let slaves = ServeConfig::new(1).slaves_per_shard;
    let stream = &stream[..stream.len().min(replay::MAX_REPLAY_KEYS)];
    let batch = out.metrics.get("serve.mean_batch").round().max(1.0) as usize;
    let index_ns = replay::index_ns_per_key(&clock, keys, slaves, stream, &mut out.spans);
    let core = replay::core(&clock, keys, slaves, stream, batch, &mut out.spans);
    out.attempted += stream.len() as u64;
    out.wrong += core.wrong;
    out.metrics.set("index.ns_per_key", index_ns);
    out.metrics.set("core.ns_per_key", core.ns_per_key);
    out.metrics.set("core.batch_us_p50", core.batch_us_p50);
    out.metrics.set("serve.envelope_ns_per_key", caller_ns_per_key - core.ns_per_key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_alternates_and_never_repeats_a_key() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 1000).collect();
        let ops = churn_ops(&keys, 3, 200);
        assert_eq!(ops, churn_ops(&keys, 3, 200));
        let mut seen = BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            match (i % 2, op) {
                (0, Op::Insert(k)) => assert!(keys.binary_search(k).is_err()),
                (1, Op::Delete(k)) => assert!(keys.binary_search(k).is_ok()),
                _ => panic!("op {i} out of pattern: {op:?}"),
            }
            assert!(seen.insert(op.key()), "key reused");
        }
    }

    #[test]
    fn mirror_ranks_follow_updates() {
        let keys = [10, 20, 30];
        let mut m = Mirror::new(&keys);
        assert_eq!(m.rank(25), 2);
        m.apply(Op::Insert(15));
        m.apply(Op::Delete(20));
        m.apply(Op::Insert(20)); // re-insert cancels the delete
        m.apply(Op::Delete(15)); // delete cancels the insert
        m.apply(Op::Delete(99)); // absent: no effect
        assert_eq!(m.rank(25), 2);
        m.apply(Op::Delete(10));
        m.apply(Op::Insert(5));
        assert_eq!((m.rank(4), m.rank(5), m.rank(10), m.rank(30)), (0, 1, 1, 3));
        let probes = m.probes(1);
        assert_eq!(probes.len(), SWEEP_PROBES);
        assert!(probes.contains(&5) && probes.contains(&10));
    }

    #[test]
    fn wrong_ranks_are_counted() {
        let keys = [10, 20, 30];
        assert_eq!(count_wrong(&keys, &[5, 10, 25, 99], &[0, 1, 2, 3]), 0);
        assert_eq!(count_wrong(&keys, &[5, 10, 25, 99], &[0, 1, 3, 2]), 2);
    }

    #[test]
    fn local_updates_are_visible_and_checked() {
        let keys: Vec<u32> = (0..20_000).map(|i| i * 64).collect();
        let mut cfg = dini_serve::ServeConfig::new(1);
        cfg.trace = dini_serve::TraceConfig::disabled();
        let server = IndexServer::build(&keys, cfg);
        let ops = churn_ops(&keys, 5, 40);
        let out = local_updates(&server, &keys, &ops, 9);
        assert_eq!(out.attempted, 40 + SWEEP_PROBES as u64);
        assert_eq!((out.failed, out.wrong), (0, 0));
        assert_eq!(out.latency_us.len(), 40);
    }
}
