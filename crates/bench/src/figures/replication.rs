//! **Replication microbenchmark** (beyond the paper): the cost of the
//! replication fast path itself — anti-entropy pulls and batch
//! application.
//!
//! IPA's evaluation rests on the claim that invariant preservation adds
//! little over plain causal replication; that claim is only meaningful
//! if the causal replication underneath is not dominated by accidental
//! overheads. This figure tracks the hot-path costs of the current data
//! path, each as a deterministic store counter (what CI guards) plus a
//! wall-clock figure (recorded, never gated tightly):
//!
//! * **anti-entropy** — batches examined per pull as the log grows. The
//!   per-origin indexed log seeks straight to the requester's gap, so
//!   the cost tracks the gap, not the log (`full_scan` is the log
//!   length: what a filter over the whole log would examine).
//! * **batch apply** — end-to-end `receive` throughput and the
//!   object-table lookups it performs (one per same-key run plus one
//!   kind touch per created object).
//! * **parallel apply** — wide batches on the persistent shard-worker
//!   pool vs. single-shard inline apply, with the pool's deterministic
//!   dispatch and critical-path counters.
//!
//! Results are emitted both as a table and as machine-readable
//! `BENCH_replication.json` at the repo root, so the perf trajectory is
//! tracked commit over commit. CI regenerates the JSON with `--quick`
//! and fails when the anti-entropy pull cost grows super-linearly again.

use ipa_crdt::{ObjectKind, ReplicaId};
use ipa_store::Replica;
use std::time::Instant;

/// Anti-entropy pull cost at one log length.
#[derive(Clone, Debug)]
pub struct AePoint {
    pub log_len: usize,
    /// Batches the requester is actually missing.
    pub gap: usize,
    /// Log entries examined by the indexed pull (segment probes +
    /// returned batches) — deterministic, counted by the store.
    pub indexed_scanned: u64,
    /// Log entries a full-log filter scan would examine: the whole log.
    pub full_scan: u64,
    /// Wall time of the indexed pull (ns).
    pub indexed_ns: u64,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub quick: bool,
    pub anti_entropy: Vec<AePoint>,
    /// End-to-end `receive` throughput (batches/s).
    pub batch_apply_per_s: f64,
    pub batch_apply_updates_per_batch: usize,
    /// Distinct keys each staged batch touches — the workload shape, not
    /// a store counter, so it bounds `batch_apply_table_lookups`
    /// independently of the run splitter it guards.
    pub batch_apply_keys_per_batch: usize,
    pub batch_apply_batches: usize,
    /// Object/kind-table hash lookups the apply path performed for the
    /// whole delivery run (deterministic, counted by the store): one per
    /// same-key run of each batch plus one kind touch per creation.
    pub batch_apply_table_lookups: u64,
    /// Sharded parallel apply vs. the single-shard sequential oracle.
    pub parallel_apply: ParallelApply,
}

impl Report {
    /// Upper bound on `batch_apply_table_lookups`: one lookup per
    /// same-key run (`keys_per_batch` runs per batch) plus one kind touch
    /// per created object (each key is created once).
    pub fn table_lookup_bound(&self) -> u64 {
        let keys = self.batch_apply_keys_per_batch as u64;
        self.batch_apply_batches as u64 * keys + keys
    }
}

/// Sharded apply on wide batches: single-shard inline oracle vs. the
/// persistent shard-worker pool, measured in the same run on the same
/// staged batches.
#[derive(Clone, Debug)]
pub struct ParallelApply {
    pub batches: usize,
    pub updates_per_batch: usize,
    pub shards: usize,
    /// Wall throughput of the single-shard inline apply (batches/s).
    pub single_shard_per_s: f64,
    /// Wall throughput of the persistent pool dispatch (batches/s):
    /// long-lived workers, bounded-channel handoff, park/unpark
    /// completion — no per-batch spawn.
    pub pool_per_s: f64,
    /// Updates applied across all shards (deterministic, from
    /// [`ipa_store::ShardStats`]).
    pub total_updates: u64,
    /// Updates applied by the busiest shard — the critical path of the
    /// parallel apply.
    pub max_shard_updates: u64,
    /// Per-shard update counts, in shard order (deterministic).
    pub shard_updates: Vec<u64>,
    /// Batches the pool run dispatched to workers (deterministic: every
    /// staged batch is wide).
    pub pool_batches: u64,
    /// Per-shard jobs those dispatches fanned out (deterministic: one
    /// per non-empty shard per batch).
    pub pool_dispatches: u64,
    /// Per-shard worker-queue depth high-water marks, in shard order
    /// (deterministic — runs queued per batch, a key-hash property).
    pub pool_queued_hwm: Vec<u64>,
    /// Worker threads the pool run started (deterministic: `shards`, once
    /// — a dispatch that started threads per batch would read
    /// `shards × batches`).
    pub pool_workers_started: u64,
}

impl ParallelApply {
    /// Pool dispatch vs. the single-shard inline oracle, wall clock.
    /// Machine-dependent: ≈1x or below on a single-core runner (workers
    /// cannot overlap, the handoff is pure overhead), approaching the
    /// span speedup with ≥`shards` cores. Reported, not gated: on a
    /// 2-vCPU host it overlaps the range a per-batch thread spawn reads,
    /// so CI guards the dispatch with `pool_workers_started` instead.
    pub fn vs_single_shard(&self) -> f64 {
        if self.single_shard_per_s > 0.0 {
            self.pool_per_s / self.single_shard_per_s
        } else {
            0.0
        }
    }

    /// Critical-path (span) speedup of the sharded apply: total update
    /// work over the busiest shard's share. Deterministic — a function
    /// of the key hash and the workload, not of the runner — and the
    /// throughput bound the threaded path reaches with ≥`shards` cores.
    pub fn span_speedup(&self) -> f64 {
        self.total_updates as f64 / self.max_shard_updates.max(1) as f64
    }
}

/// Batches per second for `batches` deliveries taking `ns`.
fn per_s(batches: usize, ns: u64) -> f64 {
    if ns == 0 {
        f64::INFINITY
    } else {
        batches as f64 * 1e9 / ns as f64
    }
}

/// Commit `n` single-update batches at the replica (one hot key).
fn fill_log(replica: &mut Replica, n: usize) {
    for _ in 0..n {
        let mut tx = replica.begin();
        tx.ensure("bench:counter", ObjectKind::PNCounter).unwrap();
        tx.counter_add("bench:counter", 1).unwrap();
        tx.commit();
    }
    replica.take_outbox();
}

fn measure_anti_entropy(log_lens: &[usize], gap: usize) -> Vec<AePoint> {
    let mut out = Vec::new();
    for &log_len in log_lens {
        let mut src = Replica::new(ReplicaId(0));
        fill_log(&mut src, log_len);
        // A peer missing the last `gap` batches.
        let mut since = src.clock().clone();
        since.set(ReplicaId(0), (log_len - gap) as u64);

        let scanned_before = src.stats.anti_entropy_scanned;
        let t = Instant::now();
        let missing = src.batches_since(&since);
        let indexed_ns = t.elapsed().as_nanos() as u64;
        assert_eq!(missing.len(), gap);
        let indexed_scanned = src.stats.anti_entropy_scanned - scanned_before;

        out.push(AePoint {
            log_len,
            gap,
            indexed_scanned,
            full_scan: log_len as u64,
            indexed_ns,
        });
    }
    out
}

/// End-to-end delivery throughput: replica 0 commits, replica 1
/// receives every batch (in order — the pure apply path, no buffering).
/// Returns `(batches/s, updates per batch, table lookups)`; the
/// update/lookup counts come from the store's own deterministic stats.
fn measure_batch_apply(batches: usize, objects_per_batch: usize) -> (f64, usize, u64) {
    // Counters keep the copy-on-write overlay clone O(replicas) per
    // transaction, so the measurement isolates the delivery path instead
    // of object growth. Two adds per object give every batch same-key
    // *runs* — the shape application transactions produce (multi-element
    // set ops, touch-then-update pairs) and the case the per-batch
    // object-handle cache coalesces.
    let keys = ["t:players", "t:enrolled", "t:matches", "t:budget"];
    let mut src = Replica::new(ReplicaId(0));
    for i in 0..batches {
        let mut tx = src.begin();
        for (j, key) in keys.iter().take(objects_per_batch).enumerate() {
            tx.ensure(*key, ObjectKind::PNCounter).unwrap();
            tx.counter_add(*key, (i * objects_per_batch + j) as i64)
                .unwrap();
            tx.counter_add(*key, 1).unwrap();
        }
        tx.commit();
    }
    let staged = src.take_outbox();

    let deliver = || {
        let mut dst = Replica::new(ReplicaId(1));
        let t = Instant::now();
        for b in &staged {
            dst.receive(std::sync::Arc::clone(b));
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(dst.stats.batches_applied as usize, batches);
        (ns, dst)
    };

    // Warm-up pass (allocator and cache state), then keep the best of
    // three measured runs.
    deliver();
    let mut best_ns = u64::MAX;
    for _ in 0..3 {
        best_ns = best_ns.min(deliver().0);
    }

    // Deterministic apply-path cost from one more delivery pass: the
    // object-table lookups the per-batch handle cache performed (one per
    // same-key run + one kind touch per creation). These counts cannot
    // flake with runner speed; CI bounds them by the workload shape.
    let (_, dst) = deliver();
    (
        per_s(batches, best_ns),
        (dst.stats.updates_applied / batches as u64) as usize,
        dst.stats.apply_table_lookups,
    )
}

/// Sharded apply on wide batches: single-shard inline oracle vs. the
/// persistent pool, both on the same staged batches. Each batch touches
/// `keys` distinct keys (one counter add per key), so the shard splitter
/// gets `keys` independent runs well above the
/// `PARALLEL_APPLY_MIN_UPDATES` threshold, spread by the key hash.
fn measure_parallel_apply(batches: usize, keys: usize, shards: usize) -> ParallelApply {
    let key_names: Vec<String> = (0..keys).map(|i| format!("p:k{i}")).collect();
    let stage = |origin: u16, batches: usize| -> Vec<std::sync::Arc<ipa_store::UpdateBatch>> {
        let mut src = Replica::with_shards(ReplicaId(origin), 1);
        for i in 0..batches {
            let mut tx = src.begin();
            for (j, key) in key_names.iter().enumerate() {
                tx.ensure(key.as_str(), ObjectKind::PNCounter).unwrap();
                tx.counter_add(key.as_str(), (i + j) as i64).unwrap();
            }
            tx.commit();
        }
        src.take_outbox()
    };
    let staged = stage(0, batches);
    // One wide batch from a second origin, delivered before the timer
    // starts: it spawns the pool's workers (lazy), grows the object
    // tables, and warms the allocator, so both modes time the same
    // steady-state batch stream.
    let warm = stage(2, 1);

    let deliver = |nshards: usize, parallel: bool| -> u64 {
        let mut dst = Replica::with_shards(ReplicaId(1), nshards);
        dst.set_parallel_apply(parallel);
        for b in &warm {
            dst.receive(std::sync::Arc::clone(b));
        }
        let t = Instant::now();
        for b in &staged {
            dst.receive(std::sync::Arc::clone(b));
        }
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(dst.stats.batches_applied as usize, batches + warm.len());
        ns
    };

    // Warm-up pass each, then best-of-three per mode.
    deliver(1, false);
    deliver(shards, true);
    let mut single_ns = u64::MAX;
    let mut pool_ns = u64::MAX;
    for _ in 0..3 {
        single_ns = single_ns.min(deliver(1, false));
        pool_ns = pool_ns.min(deliver(shards, true));
    }

    // Deterministic structure counters from one untimed pool delivery of
    // the staged stream alone (no warm batch, so the totals are exact
    // functions of the workload): per-shard update spread, dispatch
    // counts, and worker-queue high-water marks. CI guards these, never
    // the wall-clock figures.
    let mut counted = Replica::with_shards(ReplicaId(1), shards);
    counted.set_parallel_apply(true);
    for b in &staged {
        counted.receive(std::sync::Arc::clone(b));
    }
    let shard_stats = counted.shard_stats();
    let shard_updates: Vec<u64> = shard_stats.iter().map(|s| s.updates_applied).collect();
    let pool_queued_hwm: Vec<u64> = shard_stats.iter().map(|s| s.pool_queued_hwm).collect();
    let total_updates: u64 = shard_updates.iter().sum();
    let max_shard_updates = shard_updates.iter().copied().max().unwrap_or(0);
    assert_eq!(total_updates as usize, batches * keys);
    assert_eq!(counted.stats.pool_batches as usize, batches);
    assert_eq!(counted.stats.pool_workers_started as usize, shards);

    ParallelApply {
        batches,
        updates_per_batch: keys,
        shards,
        single_shard_per_s: per_s(batches, single_ns),
        pool_per_s: per_s(batches, pool_ns),
        total_updates,
        max_shard_updates,
        shard_updates,
        pool_batches: counted.stats.pool_batches,
        pool_dispatches: counted.stats.pool_dispatches,
        pool_queued_hwm,
        pool_workers_started: counted.stats.pool_workers_started,
    }
}

pub fn run(quick: bool) -> Report {
    let log_lens: &[usize] = if quick {
        &[250, 1000, 4000]
    } else {
        &[250, 500, 1000, 2000, 4000, 8000]
    };
    let gap = 16;
    let apply_batches = if quick { 5_000 } else { 40_000 };
    let objects_per_batch = 4;

    let anti_entropy = measure_anti_entropy(log_lens, gap);
    let (batch_apply_per_s, updates_per_batch, lookups) =
        measure_batch_apply(apply_batches, objects_per_batch);
    let parallel_apply = measure_parallel_apply(
        if quick { 16 } else { 128 },
        1024,
        ipa_store::DEFAULT_SHARDS,
    );

    Report {
        quick,
        anti_entropy,
        batch_apply_per_s,
        batch_apply_updates_per_batch: updates_per_batch,
        batch_apply_keys_per_batch: objects_per_batch,
        batch_apply_batches: apply_batches,
        batch_apply_table_lookups: lookups,
        parallel_apply,
    }
}

pub fn print(report: &Report) {
    println!("Replication microbenchmark: hot-path cost of the current data path.");
    println!(
        "\nAnti-entropy pull cost (peer missing {} batches):",
        report
            .anti_entropy
            .first()
            .map(|p| p.gap)
            .unwrap_or_default()
    );
    println!(
        "{:>9} {:>16} {:>16} {:>12} {:>13}",
        "log len", "scanned (idx)", "scanned (full)", "reduction", "idx [µs]"
    );
    for p in &report.anti_entropy {
        println!(
            "{:>9} {:>16} {:>16} {:>11.1}x {:>13.1}",
            p.log_len,
            p.indexed_scanned,
            p.full_scan,
            p.full_scan as f64 / p.indexed_scanned.max(1) as f64,
            p.indexed_ns as f64 / 1e3,
        );
    }
    println!(
        "\nBatch apply ({} batches × {} updates over {} keys): {:.0}/s",
        report.batch_apply_batches,
        report.batch_apply_updates_per_batch,
        report.batch_apply_keys_per_batch,
        report.batch_apply_per_s,
    );
    println!(
        "  apply-path table lookups (deterministic): {} (bound: one per same-key \
         run + one per created object = {})",
        report.batch_apply_table_lookups,
        report.table_lookup_bound(),
    );
    let p = &report.parallel_apply;
    println!(
        "\nSharded apply dispatch ({} batches × {} updates, {} shards): \
         {:.0}/s single-shard inline, {:.0}/s persistent pool ({:.2}x wall, \
         core-count-dependent)",
        p.batches,
        p.updates_per_batch,
        p.shards,
        p.single_shard_per_s,
        p.pool_per_s,
        p.vs_single_shard(),
    );
    println!(
        "  pool structure (deterministic): {} batches dispatched as {} shard jobs \
         to {} workers, worker-queue HWMs {:?}",
        p.pool_batches, p.pool_dispatches, p.pool_workers_started, p.pool_queued_hwm,
    );
    println!(
        "  critical path (deterministic): busiest shard applied {} of {} updates \
         → {:.2}x span speedup with ≥{} cores (per-shard: {:?})",
        p.max_shard_updates,
        p.total_updates,
        p.span_speedup(),
        p.shards,
        p.shard_updates,
    );
}

/// Render the report as the machine-readable `BENCH_replication.json`
/// payload (tracked at the repo root).
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"figure\": \"replication\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str("  \"anti_entropy\": {\n");
    s.push_str("    \"unit\": \"batches scanned per pull\",\n");
    s.push_str(&format!(
        "    \"gap\": {},\n    \"points\": [\n",
        report
            .anti_entropy
            .first()
            .map(|p| p.gap)
            .unwrap_or_default()
    ));
    for (i, p) in report.anti_entropy.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"log_len\": {}, \"indexed_scanned\": {}, \"full_scan\": {}, \
             \"reduction_x\": {:.2}, \"indexed_ns\": {}}}{}\n",
            p.log_len,
            p.indexed_scanned,
            p.full_scan,
            p.full_scan as f64 / p.indexed_scanned.max(1) as f64,
            p.indexed_ns,
            if i + 1 < report.anti_entropy.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("    ]\n  },\n");
    s.push_str(&format!(
        "  \"batch_apply\": {{\"batches\": {}, \"updates_per_batch\": {}, \
         \"keys_per_batch\": {}, \"batches_per_s\": {:.0}, \"table_lookups\": {}, \
         \"table_lookup_bound\": {}}},\n",
        report.batch_apply_batches,
        report.batch_apply_updates_per_batch,
        report.batch_apply_keys_per_batch,
        report.batch_apply_per_s,
        report.batch_apply_table_lookups,
        report.table_lookup_bound(),
    ));
    let p = &report.parallel_apply;
    let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    s.push_str(&format!(
        "  \"parallel_apply\": {{\"batches\": {}, \"updates_per_batch\": {}, \
         \"shards\": {}, \"single_shard_batches_per_s\": {:.0}, \
         \"pool_batches_per_s\": {:.0}, \"vs_single_shard_x\": {:.2}, \
         \"pool_batches\": {}, \"pool_dispatches\": {}, \
         \"pool_workers_started\": {}, \"pool_queued_hwm\": [{}], \
         \"total_updates\": {}, \"max_shard_updates\": {}, \
         \"shard_updates\": [{}], \"speedup_x\": {:.2}}}\n",
        p.batches,
        p.updates_per_batch,
        p.shards,
        p.single_shard_per_s,
        p.pool_per_s,
        p.vs_single_shard(),
        p.pool_batches,
        p.pool_dispatches,
        p.pool_workers_started,
        join(&p.pool_queued_hwm),
        p.total_updates,
        p.max_shard_updates,
        join(&p.shard_updates),
        p.span_speedup(),
    ));
    s.push_str("}\n");
    s
}

/// Canonical location of the tracked JSON: the repo root.
pub fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_replication.json")
}

/// Run the figure, print the table, and (re)write the tracked JSON —
/// the shared recipe of the `replication` and `all` binaries.
pub fn regenerate(quick: bool) {
    let report = run(quick);
    print(&report);
    let path = json_path();
    std::fs::write(&path, to_json(&report)).expect("write BENCH_replication.json");
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_shows_sublinear_pull_cost() {
        let report = run(true);
        // Indexed pull cost tracks the (fixed) gap, not the log length.
        let small = &report.anti_entropy[0];
        let large = report.anti_entropy.last().unwrap();
        assert!(large.log_len >= 4 * small.log_len);
        assert!(
            large.indexed_scanned <= small.indexed_scanned + 4,
            "pull cost must not grow with the log: {} -> {}",
            small.indexed_scanned,
            large.indexed_scanned
        );
        for p in &report.anti_entropy {
            if p.log_len >= 1000 {
                assert!(
                    p.full_scan as f64 / p.indexed_scanned.max(1) as f64 >= 5.0,
                    "≥5x reduction at log len {}: {} vs {}",
                    p.log_len,
                    p.indexed_scanned,
                    p.full_scan
                );
            }
        }
        assert!(report.batch_apply_per_s > 0.0);
        // The per-batch handle cache resolves each same-key run once.
        // The bench batches issue two counter adds per key, so a cache
        // that stopped coalescing runs would pay one lookup per update
        // (twice the bound) and fail here.
        assert!(
            report.batch_apply_table_lookups <= report.table_lookup_bound(),
            "handle cache must coalesce same-key runs: {} lookups > bound {}",
            report.batch_apply_table_lookups,
            report.table_lookup_bound()
        );
        assert!(
            report.batch_apply_updates_per_batch >= 8,
            "two adds per object: {} updates/batch",
            report.batch_apply_updates_per_batch
        );
        // The sharded apply's critical path must be at least 1.5x
        // shorter than the sequential one — deterministic (a property of
        // the key hash spread, not the runner), so CI can hold the line.
        let p = &report.parallel_apply;
        assert_eq!(p.shard_updates.len(), p.shards);
        assert_eq!(p.shard_updates.iter().sum::<u64>(), p.total_updates);
        assert!(
            p.span_speedup() >= 1.5,
            "sharded critical path too long: {:.2}x ({:?})",
            p.span_speedup(),
            p.shard_updates
        );
        assert!(p.single_shard_per_s > 0.0 && p.pool_per_s > 0.0);
        // Pool structure is deterministic: every staged batch is wide, so
        // every batch dispatched, fanning out one job per shard (1024
        // keys populate all four shards) to workers started once, and the
        // worker queues saw a balanced spread of runs.
        assert_eq!(p.pool_batches as usize, p.batches);
        assert_eq!(p.pool_dispatches, p.pool_batches * p.shards as u64);
        assert_eq!(p.pool_workers_started, p.shards as u64);
        assert_eq!(p.pool_queued_hwm.len(), p.shards);
        let hwm_total: u64 = p.pool_queued_hwm.iter().sum();
        let hwm_max = p.pool_queued_hwm.iter().copied().max().unwrap_or(0);
        assert!(
            hwm_max * p.shards as u64 <= 2 * hwm_total,
            "pool worker queues unbalanced: {:?}",
            p.pool_queued_hwm
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        // A hand-built report exercises the serializer without paying
        // for a full benchmark run.
        let report = Report {
            quick: true,
            anti_entropy: vec![
                AePoint {
                    log_len: 250,
                    gap: 16,
                    indexed_scanned: 17,
                    full_scan: 250,
                    indexed_ns: 1_000,
                },
                AePoint {
                    log_len: 1000,
                    gap: 16,
                    indexed_scanned: 17,
                    full_scan: 1000,
                    indexed_ns: 1_000,
                },
            ],
            batch_apply_per_s: 2_000_000.0,
            batch_apply_updates_per_batch: 8,
            batch_apply_keys_per_batch: 4,
            batch_apply_batches: 5_000,
            batch_apply_table_lookups: 20_004,
            parallel_apply: ParallelApply {
                batches: 16,
                updates_per_batch: 1024,
                shards: 4,
                single_shard_per_s: 1_000.0,
                pool_per_s: 950.0,
                total_updates: 16_384,
                max_shard_updates: 4_200,
                shard_updates: vec![4_200, 4_100, 4_044, 4_040],
                pool_batches: 16,
                pool_dispatches: 64,
                pool_queued_hwm: vec![263, 257, 253, 251],
                pool_workers_started: 4,
            },
        };
        assert_eq!(report.table_lookup_bound(), 20_004);
        let json = to_json(&report);
        assert!(json.contains("\"anti_entropy\""));
        assert!(json.contains("\"reduction_x\": 58.82"));
        assert!(json.contains("\"batch_apply\""));
        assert!(json.contains("\"keys_per_batch\": 4"));
        assert!(json.contains("\"table_lookups\": 20004"));
        assert!(json.contains("\"table_lookup_bound\": 20004"));
        assert!(json.contains("\"parallel_apply\""));
        assert!(json.contains("\"shard_updates\": [4200, 4100, 4044, 4040]"));
        assert!(json.contains("\"speedup_x\": 3.90"));
        // pool/single = 950/1000
        assert!(json.contains("\"vs_single_shard_x\": 0.95"));
        assert!(json.contains("\"pool_dispatches\": 64"));
        assert!(json.contains("\"pool_workers_started\": 4"));
        assert!(json.contains("\"pool_queued_hwm\": [263, 257, 253, 251]"));
        for gone in ["legacy", "spawn", "wall_speedup", "full_scan_ns"] {
            assert!(!json.contains(gone), "deleted field {gone} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
