//! The traced replay of a store workload: the same seeded schedule run
//! on standalone replicas, timing each layer's public entry point.
//!
//! * `Replica::begin` + the app op + `Transaction::commit` → `store.txn`
//! * `Replica::receive` at each peer (pool dispatch on) → `store.apply`
//! * `Replica::batches_since` for the peer's gap at the heal (or for an
//!   up-to-date peer when nothing was cut) → `store.ae.serve`

use crate::ops::Names;
use crate::plan::{Plan, SeedData, Step, What, REGIONS};
use crate::stats::{mean, median, quantile, us};
use crate::Outcome;
use ipa_crdt::ReplicaId;
use ipa_store::{Replica, StoreError, Transaction};
use std::time::Instant;

fn commit(
    rep: &mut Replica,
    f: impl FnOnce(&mut Transaction<'_>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut tx = rep.begin();
    f(&mut tx)?;
    tx.commit();
    Ok(())
}

/// Move every batch `from` has and `to` lacks, through an
/// anti-entropy pull; returns the pull's duration in microseconds and
/// the entries it scanned and sent.
fn pull(reps: &mut [Replica], from: usize, to: usize) -> (f64, u64, u64) {
    let since = reps[to].clock().clone();
    let before = reps[from].stats;
    let t = Instant::now();
    let batches = reps[from].batches_since(&since);
    let dt = us(t.elapsed());
    let after = reps[from].stats;
    for b in batches {
        reps[to].receive(b);
    }
    (
        dt,
        after.anti_entropy_scanned - before.anti_entropy_scanned,
        after.anti_entropy_sent - before.anti_entropy_sent,
    )
}

/// Per-segment replay results.
#[derive(Default)]
struct Segment {
    txn_us: Vec<f64>,
    apply_us: Vec<f64>,
    serve_us: f64,
    scanned: u64,
    sent: u64,
}

fn segment(plan: &Plan, names: &Names, steps: &[Step]) -> Result<Segment, String> {
    let n = REGIONS as usize;
    let mut reps: Vec<Replica> = (0..REGIONS).map(|i| Replica::new(ReplicaId(i))).collect();
    for r in &mut reps {
        r.set_parallel_apply(true);
    }

    // Seed data at replica 0, delivered everywhere (untimed).
    match plan.seed_data {
        SeedData::Tournament => commit(&mut reps[0], |tx| names.seed_tournament(tx)),
        SeedData::Kv => Names::kv_seed_ops()
            .iter()
            .try_for_each(|op| commit(&mut reps[0], |tx| names.run(op, 0, tx))),
    }
    .map_err(|e| format!("replay seed: {e}"))?;
    for b in reps[0].take_outbox() {
        for r in &mut reps[1..] {
            r.receive(b.clone());
        }
    }

    let mut seg = Segment::default();
    let mut cut: Option<usize> = None;
    let mut serve = None;
    for step in steps {
        let origin = step.region as usize;
        let op = match &step.what {
            What::Op(op) => op,
            What::Cut(node) => {
                cut = Some(*node as usize);
                continue;
            }
            What::Heal(node) => {
                let c = *node as usize;
                cut = None;
                // The partition-sized gap: a connected peer serves the cut
                // node everything it missed, and the reverse.
                serve = Some(pull(&mut reps, (c + 1) % n, c));
                for p in (0..n).filter(|&p| p != c) {
                    pull(&mut reps, c, p);
                }
                continue;
            }
        };
        for part in 0..op.parts() {
            let t = Instant::now();
            let res = commit(&mut reps[origin], |tx| names.run(op, part, tx));
            seg.txn_us.push(us(t.elapsed()));
            res.map_err(|e| format!("replay op {op:?}: {e}"))?;
            let batches = reps[origin].take_outbox();
            for p in (0..n).filter(|&p| p != origin) {
                if cut.is_some_and(|c| c == p || c == origin) {
                    continue;
                }
                for b in &batches {
                    let t = Instant::now();
                    reps[p].receive(b.clone());
                    seg.apply_us.push(us(t.elapsed()));
                }
            }
        }
    }
    // Without a partition the serve is an idle pull between two
    // up-to-date replicas.
    (seg.serve_us, seg.scanned, seg.sent) = serve.unwrap_or_else(|| pull(&mut reps, 0, 1));
    if (1..n).any(|r| reps[r].clock() != reps[0].clock()) {
        return Err("replay replicas diverged".into());
    }
    Ok(seg)
}

pub fn run(plan: &Plan, names: &Names, out: &mut Outcome) {
    let mut txn_us = Vec::new();
    let mut apply_us = Vec::new();
    let mut growth = Vec::new();
    let mut serve_us = Vec::new();
    let (mut scanned, mut sent) = (0, 0);
    for steps in &plan.segments {
        let seg = match segment(plan, names, steps) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return;
            }
        };
        let decile = (seg.txn_us.len() / 10).max(1);
        growth.push(mean(&seg.txn_us[seg.txn_us.len() - decile..]) / mean(&seg.txn_us[..decile]));
        txn_us.extend(seg.txn_us);
        apply_us.extend(seg.apply_us);
        serve_us.push(seg.serve_us);
        scanned += seg.scanned;
        sent += seg.sent;
    }
    let l = &mut out.layers;
    l.store_txn_p50_us = median(&txn_us);
    l.store_txn_p99_us = quantile(&txn_us, 0.99);
    l.store_txn_growth_x = median(&growth);
    l.store_commit_at_residual_us = l.store_commit_at_p50_us - l.store_txn_p50_us;
    l.store_apply_p50_us = median(&apply_us);
    l.store_apply_p99_us = quantile(&apply_us, 0.99);
    l.store_ae_serve_us = median(&serve_us);
    l.store_ae_scanned_per_sent = if sent == 0 {
        0.0
    } else {
        scanned as f64 / sent as f64
    };
    out.report
        .int("replay_txns", txn_us.len() as u64)
        .int("replay_applies", apply_us.len() as u64)
        .int("replay_ae_sent", sent)
        .int("replay_ae_scanned", scanned);
}
