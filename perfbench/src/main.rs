//! The repository benchmark: one run of one workload.
//!
//! ```text
//! ipa-perfbench --workload <analyze|tournament|kv-write|partition-heal>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `{"report": ...}` line with the run's parameters and every
//! named figure, then, as the last line, the result object: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Exits
//! with 1 when a correctness check fails. See `README.md` beside this
//! package for what each metric means and which layer moves which.

mod analyze;
mod load;
mod ops;
mod plan;
mod replay;
mod stats;

use stats::{Metrics, Obj};

/// End-to-end metrics, the same set on every workload. The unit op is
/// one client operation on the store workloads and one analysis pass
/// over the four apps on `analyze`.
#[derive(Default)]
pub struct E2e {
    pub setup_s: f64,
    /// Store workloads: median from scheduled arrival to visible at every
    /// replica, over the ops that replicate. `analyze`: the fastest pass
    /// of the run, as an analysis has nothing to replicate.
    pub done_ms: f64,
}

/// Per-layer metrics of a traced run; a layer the workload does not use
/// reads 0.
#[derive(Default)]
pub struct Layers {
    pub core_universe_ms: f64,
    pub core_check_pair_ms: f64,
    pub core_check_pair_calls: f64,
    pub core_check_pair_repeat_calls: f64,
    pub core_repair_ms: f64,
    pub core_repair_calls: f64,
    pub core_repair_candidates: f64,
    pub core_repair_solutions: f64,
    pub core_repair_useful_ratio: f64,
    pub core_fixpoint_iterations: f64,
    pub core_closure_gap_pct: f64,
    pub bench_trace_overhead_pct: f64,
    pub store_txn_p50_us: f64,
    pub store_txn_p99_us: f64,
    pub store_txn_growth_x: f64,
    pub store_commit_at_p50_us: f64,
    pub store_commit_at_p99_us: f64,
    pub store_commit_at_residual_us: f64,
    pub store_apply_p50_us: f64,
    pub store_apply_p99_us: f64,
    pub store_apply_pool_batches: f64,
    pub store_apply_pool_dispatches: f64,
    pub store_ae_serve_us: f64,
    pub store_ae_scanned_per_sent: f64,
    pub store_pending_max: f64,
    pub bench_issuer_lag_p99_ms: f64,
    pub bench_issuer_lag_max_ms: f64,
    pub store_log_len: f64,
    pub store_object_count: f64,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    pub e2e: E2e,
    pub layers: Layers,
    /// Parameters and named figures of the run.
    pub report: Obj,
}

impl E2e {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("done_ms", self.done_ms, "ms");
        m
    }
}

impl Layers {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("core.universe.ms", self.core_universe_ms, "ms");
        m.put("core.check_pair.ms", self.core_check_pair_ms, "ms");
        m.put("core.check_pair.calls", self.core_check_pair_calls, "count");
        m.put(
            "core.check_pair.repeat_calls",
            self.core_check_pair_repeat_calls,
            "count",
        );
        m.put("core.repair.ms", self.core_repair_ms, "ms");
        m.put("core.repair.calls", self.core_repair_calls, "count");
        m.put(
            "core.repair.candidates",
            self.core_repair_candidates,
            "count",
        );
        m.put("core.repair.solutions", self.core_repair_solutions, "count");
        m.put(
            "core.repair.useful_ratio",
            self.core_repair_useful_ratio,
            "ratio",
        );
        m.put(
            "core.fixpoint.iterations",
            self.core_fixpoint_iterations,
            "count",
        );
        m.put("core.closure.gap_pct", self.core_closure_gap_pct, "%");
        m.put(
            "bench.trace.overhead_pct",
            self.bench_trace_overhead_pct,
            "%",
        );
        m.put("store.txn.p50_us", self.store_txn_p50_us, "us");
        m.put("store.txn.p99_us", self.store_txn_p99_us, "us");
        m.put("store.txn.growth_x", self.store_txn_growth_x, "x");
        m.put("store.commit_at.p50_us", self.store_commit_at_p50_us, "us");
        m.put("store.commit_at.p99_us", self.store_commit_at_p99_us, "us");
        m.put(
            "store.commit_at.residual_us",
            self.store_commit_at_residual_us,
            "us",
        );
        m.put("store.apply.p50_us", self.store_apply_p50_us, "us");
        m.put("store.apply.p99_us", self.store_apply_p99_us, "us");
        m.put(
            "store.apply.pool_batches",
            self.store_apply_pool_batches,
            "count",
        );
        m.put(
            "store.apply.pool_dispatches",
            self.store_apply_pool_dispatches,
            "count",
        );
        m.put("store.ae.serve_us", self.store_ae_serve_us, "us");
        m.put(
            "store.ae.scanned_per_sent",
            self.store_ae_scanned_per_sent,
            "ratio",
        );
        m.put("store.pending.max", self.store_pending_max, "count");
        m.put(
            "bench.issuer.lag_p99_ms",
            self.bench_issuer_lag_p99_ms,
            "ms",
        );
        m.put(
            "bench.issuer.lag_max_ms",
            self.bench_issuer_lag_max_ms,
            "ms",
        );
        m.put("store.log_len", self.store_log_len, "count");
        m.put("store.object_count", self.store_object_count, "count");
        m
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "analyze" => analyze::run(args.seed, args.seconds, args.trace),
        "tournament" | "kv-write" | "partition-heal" => {
            load::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        w => {
            eprintln!("unknown workload {w}");
            std::process::exit(2);
        }
    };
    if out.attempted == 0 {
        out.errors.push("no operation attempted".into());
    }
    out.errors.sort();
    out.errors.dedup();
    let correct = out.errors.is_empty();
    let metrics = if args.trace {
        out.layers.metrics()
    } else {
        out.e2e.metrics()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut head = Obj::default();
    head.str("workload", &args.workload)
        .int("seed", args.seed)
        .int("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", nproc as u64)
        .raw("end_to_end", out.e2e.metrics().to_json())
        .raw(
            "errors",
            format!(
                "[{}]",
                out.errors
                    .iter()
                    .map(|e| stats::string(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    let report = out.report.encode();
    println!("{{\"report\": {}, \"detail\": {report}}}", head.encode());
    for e in &out.errors {
        eprintln!("correctness check failed: {e}");
    }
    let mut result = Obj::default();
    result
        .bool("correct", correct)
        .int("attempted", out.attempted)
        .int("failed", out.failed)
        .raw("metrics", metrics.to_json());
    println!("{}", result.encode());
    if !correct {
        std::process::exit(1);
    }
}
