//! The store workloads: a 3-replica `ThreadedCluster` driven open-loop
//! by one issuer thread, with one poller thread that samples every
//! replica's clock to see when each commit became visible everywhere.

use crate::ops::{Names, KV_KEYS};
use crate::plan::{self, SeedData, Step, What, REGIONS};
use crate::stats::{max, median, ms, quantile, us, Obj};
use crate::{replay, Outcome};
use ipa_apps::{Oracle, Phase};
use ipa_crdt::{ReplicaId, VClock};
use ipa_store::{ReplicaStats, ThreadedCluster, ThreadedConfig};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Target interval between the poller's clock samples. It bounds the
/// resolution of the visibility latencies.
const POLL_PERIOD: Duration = Duration::from_micros(250);
/// The issuer sleeps until this close to an op's due time, then yields
/// in a loop, so sleep overshoot does not count as queueing.
const SPIN: Duration = Duration::from_micros(150);
/// How long after the last op every commit must have become visible.
const VISIBILITY_DEADLINE: Duration = Duration::from_secs(30);
/// Pause between set-up and the window, so no set-up work overlaps it.
const START_DELAY: Duration = Duration::from_millis(20);

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

/// Start a cluster, load the seed data and quiesce it.
fn setup(names: &Names, data: SeedData) -> ThreadedCluster {
    let cluster = ThreadedCluster::start(ThreadedConfig::default());
    match data {
        SeedData::Tournament => {
            cluster
                .commit_at(0, |tx| names.seed_tournament(tx))
                .expect("tournament seed data");
        }
        SeedData::Kv => {
            for op in Names::kv_seed_ops() {
                cluster
                    .commit_at(0, |tx| names.run(&op, 0, tx))
                    .expect("key-value seed data");
            }
        }
    }
    cluster.quiesce();
    cluster
}

enum PollMsg {
    Commit(u16, Pending),
    /// Links healed at `at`; `frontier[o]` is the last seq origin `o`
    /// committed before.
    Heal {
        at: Instant,
        frontier: Vec<u64>,
    },
    Done,
}

/// A commit not yet seen at every replica: its origin's seq, the op's
/// reply latency, when `commit_at` returned, and whether a link was cut.
struct Pending {
    seq: u64,
    reply_us: f64,
    at: Instant,
    in_cut: bool,
}

#[derive(Default)]
struct Polled {
    visible_us: Vec<f64>,
    done_us: Vec<f64>,
    catchup_ms: Option<f64>,
    polls: u64,
    poll_span: Duration,
    pending_max: usize,
    unresolved: usize,
}

/// Sample every replica's clock each `POLL_PERIOD`; a commit
/// `(origin, seq)` is visible once every other replica's clock covers it.
/// Visibility of a commit made while its link was cut counts from the
/// heal, when it first could travel.
fn poller(cluster: &ThreadedCluster, rx: mpsc::Receiver<PollMsg>) -> Polled {
    let n = REGIONS as usize;
    let mut out = Polled::default();
    let mut pending: Vec<VecDeque<Pending>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut heal: Option<(Instant, Vec<u64>)> = None;
    let mut done_at: Option<Instant> = None;
    let first = Instant::now();
    loop {
        while let Ok(msg) = rx.try_recv() {
            match msg {
                PollMsg::Commit(origin, p) => pending[origin as usize].push_back(p),
                PollMsg::Heal { at, frontier } => heal = Some((at, frontier)),
                PollMsg::Done => done_at = Some(Instant::now()),
            }
        }
        let clocks: Vec<VClock> = (0..n as u16)
            .map(|r| {
                cluster.with_replica(r, |rep| {
                    out.pending_max = out.pending_max.max(rep.pending_count());
                    rep.clock().clone()
                })
            })
            .collect();
        let now = Instant::now();
        out.polls += 1;
        for (o, queue) in pending.iter_mut().enumerate() {
            let covered = (0..n)
                .filter(|&r| r != o)
                .map(|r| clocks[r].get(ReplicaId(o as u16)))
                .min()
                .unwrap_or(0);
            while let Some(p) = queue.front() {
                if p.seq > covered {
                    break;
                }
                let ready = match (&heal, p.in_cut) {
                    (_, false) => p.at,
                    (Some((h, _)), true) => p.at.max(*h),
                    (None, true) => break,
                };
                let visible = us(now.saturating_duration_since(ready));
                out.visible_us.push(visible);
                out.done_us.push(p.reply_us + visible);
                queue.pop_front();
            }
        }
        if let (Some((h, frontier)), None) = (&heal, out.catchup_ms) {
            let caught_up = frontier
                .iter()
                .enumerate()
                .all(|(o, &seq)| clocks.iter().all(|c| c.get(ReplicaId(o as u16)) >= seq));
            if caught_up {
                out.catchup_ms = Some(ms(now - *h));
            }
        }
        if let Some(d) = done_at {
            let left: usize = pending.iter().map(VecDeque::len).sum();
            if left == 0 || d.elapsed() > VISIBILITY_DEADLINE {
                out.unresolved = left;
                break;
            }
        }
        thread::sleep(POLL_PERIOD);
    }
    out.poll_span = first.elapsed();
    out
}

#[derive(Default)]
struct Issued {
    reply_us: Vec<f64>,
    lag_ms: Vec<f64>,
    call_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    increments: u64,
    last_seq: Vec<u64>,
    window_s: f64,
}

/// Run `steps` open-loop: each op starts at its due time (or as soon as
/// the previous one returns, if that is later) and its latency counts
/// from the due time.
fn issue(
    cluster: &ThreadedCluster,
    names: &Names,
    steps: &[Step],
    poll: Option<&mpsc::Sender<PollMsg>>,
) -> Issued {
    let mut out = Issued {
        last_seq: vec![0; REGIONS as usize],
        ..Default::default()
    };
    let mut cut: Option<u16> = None;
    let start = Instant::now() + START_DELAY;
    for step in steps {
        let due = start + Duration::from_micros(step.at_us);
        wait_until(due);
        let begin = Instant::now();
        out.lag_ms.push(ms(begin - due));
        let op = match &step.what {
            What::Cut(node) | What::Heal(node) => {
                let up = matches!(step.what, What::Heal(_));
                for peer in (0..REGIONS).filter(|p| p != node) {
                    cluster.set_link_up(*node, peer, up);
                }
                cut = if up { None } else { Some(*node) };
                if let (true, Some(tx)) = (up, poll) {
                    let _ = tx.send(PollMsg::Heal {
                        at: Instant::now(),
                        frontier: out.last_seq.clone(),
                    });
                }
                continue;
            }
            What::Op(op) => op,
        };
        out.attempted += 1;
        let mut last: Option<(u64, Instant)> = None;
        let mut ok = true;
        for part in 0..op.parts() {
            let call = Instant::now();
            match cluster.commit_at(step.region, |tx| names.run(op, part, tx)) {
                Ok(((), info)) => {
                    let ret = Instant::now();
                    out.call_us.push(us(ret - call));
                    if info.updates > 0 {
                        let seq = info.clock.get(ReplicaId(step.region));
                        out.last_seq[step.region as usize] = seq;
                        last = Some((seq, ret));
                    }
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let reply_us = us(Instant::now() - due);
        if !ok {
            out.failed += 1;
            continue;
        }
        out.increments += op.increments();
        out.reply_us.push(reply_us);
        if let (Some((seq, at)), Some(tx)) = (last, poll) {
            let _ = tx.send(PollMsg::Commit(
                step.region,
                Pending {
                    seq,
                    reply_us,
                    at,
                    in_cut: cut.is_some(),
                },
            ));
        }
    }
    out.window_s = (Instant::now() - start).as_secs_f64();
    if let Some(tx) = poll {
        let _ = tx.send(PollMsg::Done);
    }
    out
}

fn stats_sum(cluster: &ThreadedCluster) -> ReplicaStats {
    let mut sum = ReplicaStats::default();
    for r in 0..REGIONS {
        let s = cluster.with_replica(r, |rep| rep.stats);
        sum.pool_batches += s.pool_batches;
        sum.pool_dispatches += s.pool_dispatches;
        sum.anti_entropy_sent += s.anti_entropy_sent;
        sum.anti_entropy_scanned += s.anti_entropy_scanned;
    }
    sum
}

/// The end-of-run audit: quiesce, run Tournament's read-side
/// compensations to a fixpoint, then require convergence, no
/// double-apply, every commit at every replica and the app's invariants
/// (Tournament) or exact counter totals (key-value).
fn audit(
    cluster: &ThreadedCluster,
    names: &Names,
    data: SeedData,
    last_seq: &[u64],
    increments: u64,
    errors: &mut Vec<String>,
) {
    cluster.quiesce();
    if data == SeedData::Tournament {
        let sweep = Names::status_sweep();
        for _ in 0..2 {
            for r in 0..REGIONS {
                let swept =
                    cluster.commit_at(r, |tx| sweep.iter().try_for_each(|op| names.run(op, 0, tx)));
                if let Err(e) = swept {
                    errors.push(format!("status sweep at {r}: {e}"));
                }
            }
            cluster.quiesce();
        }
    }
    if !cluster.is_converged() {
        errors.push("cluster did not converge".into());
    }
    let oracle = Oracle::tournament();
    for r in 0..REGIONS {
        cluster.with_replica(r, |rep| {
            if !rep.applied_consistent() {
                errors.push(format!("replica {r}: double apply"));
            }
            for (o, &seq) in last_seq.iter().enumerate() {
                if rep.clock().get(ReplicaId(o as u16)) < seq {
                    errors.push(format!("replica {r} misses commit ({o}, {seq})"));
                }
            }
            match data {
                SeedData::Tournament => {
                    let report = oracle.audit(rep, Phase::Final);
                    if report.total() > 0 {
                        errors.push(format!(
                            "replica {r}: {} invariant violations ({:?})",
                            report.total(),
                            report.violated()
                        ));
                    }
                }
                SeedData::Kv => {
                    let mut tx = rep.begin();
                    let total: i64 = names
                        .keys
                        .iter()
                        .map(|k| tx.counter_value(k.clone()).unwrap_or(i64::MIN / 2))
                        .sum();
                    let want = (KV_KEYS as u64 + increments) as i64;
                    if total != want {
                        errors.push(format!("replica {r}: counters sum to {total}, want {want}"));
                    }
                }
            }
        });
    }
}

/// Highest ladder rate whose commit p99 and issuer lag stay within the
/// limits, trying rates upward until one fails.
fn ladder(cluster: &ThreadedCluster, names: &Names, seed: u64) -> (f64, u64, String) {
    let mut best = 0.0;
    let mut increments = 0;
    let mut steps_json = Vec::new();
    for (rate, steps) in plan::ladder(seed) {
        let issued = issue(cluster, names, &steps, None);
        increments += issued.increments;
        let p99_ms = quantile(&issued.reply_us, 0.99) / 1e3;
        let lag_ms = max(&issued.lag_ms);
        let pass = issued.failed == 0
            && p99_ms <= plan::LADDER_P99_LIMIT_MS
            && lag_ms <= plan::LADDER_LAG_LIMIT_MS;
        let mut o = Obj::default();
        o.num("rate_ops_s", rate)
            .num("commit_p99_ms", p99_ms)
            .num("lag_max_ms", lag_ms)
            .bool("pass", pass);
        steps_json.push(o.encode());
        cluster.barrier();
        if !pass {
            break;
        }
        best = rate;
    }
    (best, increments, format!("[{}]", steps_json.join(", ")))
}

/// Samples and counters of all segments of a run.
#[derive(Default)]
struct Pooled {
    reply_us: Vec<f64>,
    done_us: Vec<f64>,
    visible_us: Vec<f64>,
    lag_ms: Vec<f64>,
    call_us: Vec<f64>,
    catchup_ms: Vec<f64>,
    window_s: f64,
    polls: u64,
    poll_span: Duration,
    pending_max: usize,
    pool_batches: u64,
    pool_dispatches: u64,
    ae_sent: u64,
    ae_scanned: u64,
    log_len: usize,
    object_count: usize,
}

pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let Some(plan) = plan::plan(workload, seed, seconds as f64) else {
        out.errors.push(format!("unknown workload {workload}"));
        return out;
    };
    let names = Names::new();
    let mut setups = Vec::new();
    let mut all = Pooled::default();
    let mut cluster: Option<ThreadedCluster> = None;
    let mut last_increments = 0;
    for steps in &plan.segments {
        drop(cluster.take());
        let mut fresh = None;
        for _ in 0..plan.setups / plan.segments.len() {
            drop(fresh.take());
            let t = Instant::now();
            fresh = Some(setup(&names, plan.seed_data));
            setups.push(t.elapsed().as_secs_f64());
        }
        let c = fresh.expect("at least one set-up per segment");

        let before = stats_sum(&c);
        let (tx, rx) = mpsc::channel();
        let (issued, polled) = thread::scope(|s| {
            let poll = s.spawn(|| poller(&c, rx));
            let issued = issue(&c, &names, steps, Some(&tx));
            (issued, poll.join().expect("poller thread"))
        });
        let after = stats_sum(&c);
        for r in 0..REGIONS {
            let (l, o) = c.with_replica(r, |rep| (rep.log_len(), rep.object_count()));
            all.log_len = all.log_len.max(l);
            all.object_count = all.object_count.max(o);
        }
        if polled.unresolved > 0 {
            out.errors.push(format!(
                "{} commits never became visible at every replica",
                polled.unresolved
            ));
        }
        if steps.iter().any(|s| matches!(s.what, What::Heal(_))) {
            match polled.catchup_ms {
                Some(c) => all.catchup_ms.push(c),
                None => out.errors.push("no catch-up after the heal".into()),
            }
        }
        audit(
            &c,
            &names,
            plan.seed_data,
            &issued.last_seq,
            issued.increments,
            &mut out.errors,
        );

        last_increments = issued.increments;
        out.attempted += issued.attempted;
        out.failed += issued.failed;
        all.reply_us.extend(issued.reply_us);
        all.lag_ms.extend(issued.lag_ms);
        all.call_us.extend(issued.call_us);
        all.window_s += issued.window_s;
        all.done_us.extend(polled.done_us);
        all.visible_us.extend(polled.visible_us);
        all.polls += polled.polls;
        all.poll_span += polled.poll_span;
        all.pending_max = all.pending_max.max(polled.pending_max);
        all.pool_batches += after.pool_batches - before.pool_batches;
        all.pool_dispatches += after.pool_dispatches - before.pool_dispatches;
        all.ae_sent += after.anti_entropy_sent - before.anti_entropy_sent;
        all.ae_scanned += after.anti_entropy_scanned - before.anti_entropy_scanned;
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one segment");

    let lag_p99 = quantile(&all.lag_ms, 0.99);
    let valid = lag_p99 <= plan::LAG_BOUND_MS;
    if !valid {
        out.errors.push(format!(
            "invalid run: issuer lag p99 {lag_p99:.2} ms exceeds its bound {} ms",
            plan::LAG_BOUND_MS
        ));
    }

    let e = &mut out.e2e;
    e.setup_s = median(&setups);
    e.done_ms = median(&all.done_us) / 1e3;

    let r = &mut out.report;
    r.str("unit_op", "one client operation")
        .num("offered_rate_ops_s", plan.rate)
        .int("segments", plan.segments.len() as u64)
        .num("segment_s", plan.segment_s)
        .int("setups", setups.len() as u64)
        .int("scheduled_ops", out.attempted)
        .num("window_s", all.window_s)
        .num("goodput_ops_s", all.reply_us.len() as f64 / all.window_s)
        .num(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        )
        .num("commit_p50_ms", median(&all.reply_us) / 1e3)
        .num("commit_p90_ms", quantile(&all.reply_us, 0.9) / 1e3)
        .num("commit_p99_ms", quantile(&all.reply_us, 0.99) / 1e3)
        .num("visible_p50_ms", median(&all.visible_us) / 1e3)
        .num("visible_p90_ms", quantile(&all.visible_us, 0.9) / 1e3)
        .num("visible_p99_ms", quantile(&all.visible_us, 0.99) / 1e3)
        .num("done_p90_ms", quantile(&all.done_us, 0.9) / 1e3)
        .num("done_p99_ms", quantile(&all.done_us, 0.99) / 1e3)
        .int("visibility_samples", all.visible_us.len() as u64)
        .num(
            "poll_period_ms",
            ms(all.poll_span) / all.polls.max(1) as f64,
        )
        .num("poll_target_ms", ms(POLL_PERIOD))
        .num("issuer_lag_p99_ms", lag_p99)
        .num("issuer_lag_max_ms", max(&all.lag_ms))
        .num("issuer_lag_bound_ms", plan::LAG_BOUND_MS)
        .bool("valid", valid);
    for (k, v) in &plan.params {
        r.num(k, *v);
    }
    if !all.catchup_ms.is_empty() {
        r.num("catchup_ms", median(&all.catchup_ms))
            .raw("catchup_each_ms", format!("{:?}", all.catchup_ms));
    }

    if workload == "kv-write" && !trace {
        let (best, increments, steps) = ladder(&cluster, &names, seed);
        r.num("max_rate_ops_s", best)
            .num("ladder_p99_limit_ms", plan::LADDER_P99_LIMIT_MS)
            .num("ladder_lag_limit_ms", plan::LADDER_LAG_LIMIT_MS)
            .num("ladder_step_s", plan::LADDER_STEP_S)
            .raw("ladder", steps);
        let last_seq: Vec<u64> = (0..REGIONS)
            .map(|o| cluster.with_replica(o, |rep| rep.clock().get(ReplicaId(o))))
            .collect();
        let total = last_increments + increments;
        audit(
            &cluster,
            &names,
            plan.seed_data,
            &last_seq,
            total,
            &mut out.errors,
        );
    }

    if trace {
        let l = &mut out.layers;
        l.store_commit_at_p50_us = median(&all.call_us);
        l.store_commit_at_p99_us = quantile(&all.call_us, 0.99);
        l.store_apply_pool_batches = all.pool_batches as f64;
        l.store_apply_pool_dispatches = all.pool_dispatches as f64;
        l.store_pending_max = all.pending_max as f64;
        l.bench_issuer_lag_p99_ms = lag_p99;
        l.bench_issuer_lag_max_ms = max(&all.lag_ms);
        l.store_log_len = all.log_len as f64;
        l.store_object_count = all.object_count as f64;
        let mut live = Obj::default();
        live.int("ae_sent", all.ae_sent)
            .int("ae_scanned", all.ae_scanned);
        r.raw("live_counters", live.encode());
        replay::run(&plan, &names, &mut out);
    }
    out
}
