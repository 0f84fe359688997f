//! Direct replays of a workload's key stream through the lower layers,
//! and the host reference probe.
//!
//! * **index** (L0): the in-partition `partition_point` search each
//!   slave runs, over the same balanced partition split the core builds.
//! * **core** (L1): `DistributedIndex::lookup_batch_into` scatter/gather
//!   at the batch size the server was observed to form.
//!
//! The serve envelope is then the caller's time per key minus the core's.

use crate::spans::SpanLog;
use crate::stats::Sorted;
use dini_core::{DistributedIndex, NativeConfig};
use dini_serve::Clock;
use std::hint::black_box;

/// Keys replayed at most; enough for a steady per-key figure.
pub const MAX_REPLAY_KEYS: usize = 1 << 20;

/// The partition slices a `DistributedIndex` of `n_slaves` builds over
/// `keys`: balanced, the first `len % n` one key larger.
pub fn partitions(keys: &[u32], n_slaves: usize) -> Vec<&[u32]> {
    let base = keys.len() / n_slaves;
    let extra = keys.len() % n_slaves;
    let mut start = 0;
    (0..n_slaves)
        .map(|j| {
            let end = start + base + usize::from(j < extra);
            let part = &keys[start..end];
            start = end;
            part
        })
        .collect()
}

/// L0 replay: route `stream` to its partitions (untimed), then time each
/// partition's in-order `partition_point` searches. Returns ns per key.
pub fn index_ns_per_key(
    clock: &Clock,
    keys: &[u32],
    n_slaves: usize,
    stream: &[u32],
    spans: &mut SpanLog,
) -> f64 {
    let parts = partitions(keys, n_slaves);
    let delims: Vec<u32> = parts[1..].iter().map(|p| p[0]).collect();
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); n_slaves];
    for &k in stream {
        routed[delims.partition_point(|&d| d <= k)].push(k);
    }
    let root = spans.reserve();
    let (start, mut busy) = (clock.now(), 0u64);
    for (part, ks) in parts.iter().zip(&routed) {
        // Warm the partition's cache lines the way a resident slave has.
        let warm = ks.len().min(1 << 14);
        for &k in &ks[..warm] {
            black_box(part.partition_point(|&s| s <= k));
        }
        let t0 = clock.now();
        let mut acc = 0u64;
        for &k in ks {
            acc = acc.wrapping_add(part.partition_point(|&s| s <= black_box(k)) as u64);
        }
        black_box(acc);
        let t1 = clock.now();
        busy += t1 - t0;
        spans.record(root, 0, "index", "index.partition_point", t0, t1, ks.len() as u32);
    }
    spans.push(root, 0, 0, "bench", "replay.index", start, clock.now(), 0);
    busy as f64 / stream.len().max(1) as f64
}

/// What the core replay measured.
#[derive(Debug, Clone, Copy)]
pub struct CoreReplay {
    /// Busy time per key (ns).
    pub ns_per_key: f64,
    /// Median `lookup_batch_into` call (µs).
    pub batch_us_p50: f64,
    /// Ranks that disagreed with `partition_point` on the sorted keys.
    pub wrong: u64,
}

/// L1 replay: `stream` through a fresh `DistributedIndex` of `n_slaves`
/// (unpinned, as the server builds it) in calls of `batch` keys.
pub fn core(
    clock: &Clock,
    keys: &[u32],
    n_slaves: usize,
    stream: &[u32],
    batch: usize,
    spans: &mut SpanLog,
) -> CoreReplay {
    let mut cfg = NativeConfig::new(n_slaves);
    cfg.pin_cores = false;
    let mut index = DistributedIndex::build(keys, cfg);
    let batch = batch.max(1);
    let mut out = Vec::with_capacity(batch);
    for chunk in stream.chunks(batch).take((1 << 14) / batch + 1) {
        index.lookup_batch_into(chunk, &mut out);
    }
    let root = spans.reserve();
    let start = clock.now();
    let mut busy = 0u64;
    let mut calls = Vec::with_capacity(stream.len() / batch + 1);
    let mut ranks = Vec::with_capacity(stream.len());
    for chunk in stream.chunks(batch) {
        let t0 = clock.now();
        index.lookup_batch_into(black_box(chunk), &mut out);
        let t1 = clock.now();
        busy += t1 - t0;
        calls.push((t1 - t0) as f64 / 1e3);
        spans.record(root, 0, "core", "core.lookup_batch_into", t0, t1, chunk.len() as u32);
        ranks.extend_from_slice(&out);
    }
    spans.push(root, 0, 0, "bench", "replay.core", start, clock.now(), 0);
    let wrong = crate::common::count_wrong(keys, stream, &ranks);
    CoreReplay {
        ns_per_key: busy as f64 / stream.len().max(1) as f64,
        batch_us_p50: Sorted::new(calls).pct(0.5),
        wrong,
    }
}

/// Single-thread `partition_point` rate on a fixed array and fixed
/// probes (independent of the workload seed): a host-speed reference
/// taken at run start and end, so host drift between two runs shows
/// apart from program changes.
pub fn host_ref_keys_per_s() -> f64 {
    const SEED: u64 = 0x0DD_BA11;
    let keys = dini_workload::gen_sorted_unique_keys(1 << 20, SEED);
    let probes = dini_workload::KeyGen::uniform(SEED + 1).take(1 << 20);
    let t0 = std::time::Instant::now();
    let mut acc = 0usize;
    for &k in &probes {
        acc = acc.wrapping_add(keys.partition_point(|&s| s <= black_box(k)));
    }
    black_box(acc);
    probes.len() as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_match_the_core_split() {
        let keys: Vec<u32> = (0..11).map(|i| i * 10).collect();
        let parts = partitions(&keys, 3);
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), vec![4, 4, 3]);
        assert_eq!(parts.concat(), keys);

        // Local rank + partition base = global rank, as the slaves compose it.
        let mut cfg = NativeConfig::new(3);
        cfg.pin_cores = false;
        let mut index = DistributedIndex::build(&keys, cfg);
        for j in 0..3 {
            assert_eq!(
                index.partition_ranks(j).start as usize,
                parts[..j].iter().map(|p| p.len()).sum::<usize>()
            );
        }
        assert_eq!(index.lookup_batch(&[0, 35, 40, 1000]), vec![1, 4, 5, 11]);
    }

    #[test]
    fn replays_answer_and_record_spans() {
        let clock = Clock::system();
        let keys: Vec<u32> = (0..4096).map(|i| i * 3).collect();
        let stream: Vec<u32> = (0..1000).map(|i| (i * 7919) % 13_000).collect();
        let mut spans = SpanLog::default();
        assert!(index_ns_per_key(&clock, &keys, 2, &stream, &mut spans) > 0.0);
        let core = core(&clock, &keys, 2, &stream, 8, &mut spans);
        assert_eq!(core.wrong, 0);
        assert!(core.ns_per_key > 0.0 && core.batch_us_p50 > 0.0);
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"replay.index") && names.contains(&"replay.core"));
        assert_eq!(names.iter().filter(|n| **n == "core.lookup_batch_into").count(), 125);
    }
}
