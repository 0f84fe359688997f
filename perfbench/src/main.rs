//! `dini-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|online|wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, measures one workload for
//! `--seconds` against the public APIs of the serving stack, checks every
//! answer, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. A wrong rank
//! makes the run exit non-zero. Provenance, the spans of a traced run and
//! its self-time table go to `.bench_out/` (see `perfbench/README.md`).

mod batch;
mod common;
mod online;
mod open_loop;
mod replay;
mod report;
mod spans;
mod stats;
mod wire;

use report::{metrics_json, result_line, Metrics, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Where runs leave provenance, spans and ledgers.
const OUT_DIR: &str = ".bench_out";

/// The three workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller, `lookup_many(1024)` over 4 M keys.
    Batch,
    /// Open loop, Poisson single-key lookups at 50 000/s over 1 M keys.
    Online,
    /// TCP `NetServer` + `RemoteClient`: closed `lookup_many(256)` beside
    /// Poisson quorum-acked updates.
    Wire,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Online => "online",
            Workload::Wire => "wire",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Warm-up before a measured phase: caches fill, lazy set-up ends.
    pub fn warmup_s(&self) -> f64 {
        (self.seconds / 5.0).clamp(0.2, 1.0)
    }

    /// Length of the traced phase of a traced run.
    pub fn traced_s(&self) -> f64 {
        (self.seconds / 10.0).clamp(0.5, 2.0)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "batch" => Workload::Batch,
                    "online" => Workload::Online,
                    "wire" => Workload::Wire,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (lookup keys, updates, probes, set-up lookups).
    pub attempted: u64,
    /// Operations that returned an error or were shed.
    pub failed: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Spans of a traced run.
    pub spans: SpanLog,
    /// Lookup keys carried by the traced phase (`phase.lookups`).
    pub traced_keys: u64,
}

/// The commit the checkout was made from, read from `.git` when there
/// is one.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unavailable".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, n)| *n == name).map(|(rev, _)| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Set the `self.*` rows: self time per lookup key of each layer in the
/// traced lookup phase.
fn set_self_times(out: &mut Outcome, rows: &[spans::Row]) {
    let keys = out.traced_keys.max(1) as f64;
    for (metric, layer) in [
        ("self.caller_ns_per_key", "caller"),
        ("self.net_ns_per_key", "net"),
        ("self.serve_ns_per_key", "serve"),
        ("self.core_ns_per_key", "core"),
    ] {
        out.metrics.set(metric, spans::layer_self_ns(rows, "phase.lookups", layer) as f64 / keys);
    }
}

/// The human-readable ledger: per-layer metrics, then self time per
/// span name.
fn ledger_text(args: &Args, out: &Outcome, rows: &[spans::Row]) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "ledger: workload {} seed {}", args.workload.name(), args.seed);
    let m = &out.metrics;
    let _ = writeln!(
        t,
        "L0/L1/L2 per key: index {:.1} ns | core {:.1} ns | serve envelope {:.1} ns",
        m.get("index.ns_per_key"),
        m.get("core.ns_per_key"),
        m.get("serve.envelope_ns_per_key"),
    );
    for (name, unit) in PER_LAYER {
        let _ = writeln!(t, "  {name:<28} {:>16.3} {unit}", m.get(name));
    }
    let _ = writeln!(
        t,
        "\n{:<14} {:<7} {:<24} {:>9} {:>10} {:>11} {:>11} {:>12}",
        "root", "layer", "span", "count", "keys", "total_ms", "self_ms", "self_ns/key"
    );
    for r in rows {
        let _ = writeln!(
            t,
            "{:<14} {:<7} {:<24} {:>9} {:>10} {:>11.3} {:>11.3} {:>12.1}",
            r.root,
            r.layer,
            r.name,
            r.count,
            r.keys,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            if r.keys > 0 { r.self_ns as f64 / r.keys as f64 } else { 0.0 },
        );
    }
    t
}

fn write_out(file: &str, body: &str) {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(Path::new(OUT_DIR).join(file), body))
    {
        eprintln!("perfbench: could not write {OUT_DIR}/{file}: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload batch|online|wire --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let host = dini_obs::host_context();
    let ref_start = replay::host_ref_keys_per_s();
    let mut out = match args.workload {
        Workload::Batch => batch::run(&args),
        Workload::Online => online::run(&args),
        Workload::Wire => wire::run(&args),
    };
    let ref_end = replay::host_ref_keys_per_s();
    out.metrics.set("host.ref_keys_per_s", (ref_start + ref_end) / 2.0);

    let name = args.workload.name();
    let declared = if args.trace {
        let rows = spans::self_times(out.spans.spans());
        set_self_times(&mut out, &rows);
        let ledger = ledger_text(&args, &out, &rows);
        eprint!("{ledger}");
        write_out(&format!("{name}.ledger.txt"), &ledger);
        write_out(&format!("{name}.spans.csv"), &spans::to_csv(out.spans.spans()));
        PER_LAYER
    } else {
        END_TO_END
    };
    let correct = out.wrong == 0;
    let metrics = metrics_json(&out.metrics, declared);
    let provenance = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"host\": {}, \"host_ref_keys_per_s\": {{\"start\": {ref_start}, \"end\": {ref_end}}}, \
         \"wrong\": {}, \"result\": {}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::json_str(&git_rev()),
        host.to_json(),
        out.wrong,
        result_line(correct, out.attempted, out.failed, &metrics),
        metrics_json(&out.metrics, END_TO_END),
        metrics_json(&out.metrics, PER_LAYER),
    );
    write_out(&format!("{name}-seed{}-trace{}.json", args.seed, u8::from(args.trace)), &provenance);
    eprintln!(
        "perfbench {name}: seed {} on {} cores ({}); host ref {:.3e} -> {:.3e} keys/s; \
         {} attempted, {} failed, {} wrong",
        args.seed,
        host.cores,
        host.cpu_model,
        ref_start,
        ref_end,
        out.attempted,
        out.failed,
        out.wrong
    );
    println!("{}", result_line(correct, out.attempted, out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench {name}: {} wrong answers", out.wrong);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a =
            parse_args(&argv("--workload wire --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.workload, Workload::Wire);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload batch --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload batch --seed")).is_err());
    }
}
