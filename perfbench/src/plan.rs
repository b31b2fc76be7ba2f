//! Open-loop schedules for the store workloads, generated from the seed
//! before any clock starts.

use crate::ops::{Op, KV_KEYS, PLAYERS, TOURNAMENTS};
use ipa_apps::common::pick_local;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Replicas of every store workload's cluster.
pub const REGIONS: u16 = 3;

/// Segments a run's window is split into. Each starts from a fresh
/// cluster, so Tournament's history (which per-op cost grows with) is the
/// same size in every segment and a run sets up several times.
const SEGMENTS: usize = 4;
/// Partition-heal uses more, shorter segments: six catch-ups of about
/// 2.3k batches each at 2000 txn/s. At 4000 txn/s, with fewer and larger
/// backlogs, the issuer fell behind during catch-up.
const PARTITION_SEGMENTS: usize = 6;

/// What happens at one scheduled instant.
#[derive(Clone, Debug)]
pub enum What {
    Op(Op),
    /// Cut every link of the node.
    Cut(u16),
    /// Heal every link of the node.
    Heal(u16),
}

#[derive(Clone, Debug)]
pub struct Step {
    /// Due time, microseconds after the window opens.
    pub at_us: u64,
    pub region: u16,
    pub what: What,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedData {
    Tournament,
    Kv,
}

pub struct Plan {
    pub seed_data: SeedData,
    /// Offered rate, ops per second.
    pub rate: f64,
    pub segment_s: f64,
    /// Cluster set-ups timed per run, spread evenly over the segments;
    /// each segment runs on its last one. `setup_s` is their median.
    pub setups: usize,
    /// Schedules of the segments; due times count from the segment start.
    pub segments: Vec<Vec<Step>>,
    pub params: Vec<(&'static str, f64)>,
}

/// Set-ups per run. Tournament's set-up takes about 1.5 ms and varies
/// by a quarter between set-ups, so it needs many for a steady median;
/// the key-value set-up (20k keys, about 50 ms) varies less.
const TOURNAMENT_SETUPS: usize = 120;
const KV_SETUPS: usize = 48;

/// A run whose issuer lag p99 exceeds this many milliseconds is invalid.
pub const LAG_BOUND_MS: f64 = 50.0;

/// Tournament: the paper's mix (65 % `status` reads, 35 % writes), at a
/// rate below the knee where per-op cost still grows with history.
pub const TOURNAMENT_RATE: f64 = 150.0;
const TOURNAMENT_WRITE_FRACTION: f64 = 0.35;
const TOURNAMENT_LOCALITY: f64 = 0.9;

/// Key-value writes: Zipf keys, a few wide transactions.
pub const KV_RATE: f64 = 1000.0;
const ZIPF_S: f64 = 0.99;
const WIDE_FRACTION: f64 = 0.05;
const NARROW_KEYS: usize = 2;
/// At least `PARALLEL_APPLY_MIN_UPDATES`, so wide batches go to the
/// shard-worker pool.
pub const WIDE_KEYS: usize = 128;

/// Partition-heal: narrow writes while node 2 is cut off, so every heal
/// leaves anti-entropy a backlog to catch up.
pub const PARTITION_RATE: f64 = 2000.0;
pub const CUT_NODE: u16 = 2;
/// Cut and heal instants as shares of a segment. Fewer than half of the
/// ops fall inside the cut, so the median op is not one waiting for the
/// heal: catch-up times vary by about 30 % from heal to heal and the
/// 5 ms anti-entropy tick quantizes them, so they are reported as
/// `catchup_ms` and kept out of the medians.
const CUT_AT: f64 = 0.1;
const HEAL_AT: f64 = 0.45;

/// Rates of the `max_rate_ops_s` ladder (kv-write), each held for
/// `LADDER_STEP_S`.
pub const LADDER: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
pub const LADDER_STEP_S: f64 = 1.0;
/// A ladder rate passes when its commit p99 stays under this limit...
pub const LADDER_P99_LIMIT_MS: f64 = 10.0;
/// ...and the issuer never ran later than this.
pub const LADDER_LAG_LIMIT_MS: f64 = 10.0;

/// Draws from a Zipf distribution over `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u = rng.gen::<f64>() * self.cdf[self.cdf.len() - 1];
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// Poisson arrivals at `rate` over `seconds`, each with a uniformly
/// chosen region and an op from `next`.
fn poisson(
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    next: &mut dyn FnMut(&mut StdRng, u16) -> Op,
) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return steps;
        }
        let region = rng.gen_range(0..REGIONS);
        let op = next(rng, region);
        steps.push(Step {
            at_us: (t * 1e6) as u64,
            region,
            what: What::Op(op),
        });
    }
}

fn tournament_op(rng: &mut StdRng, region: u16) -> Op {
    let is_write = rng.gen::<f64>() < TOURNAMENT_WRITE_FRACTION;
    let t = pick_local(
        rng,
        TOURNAMENTS,
        REGIONS as usize,
        region,
        TOURNAMENT_LOCALITY,
    );
    let p = rng.gen_range(0..PLAYERS);
    if !is_write {
        return Op::Status(t);
    }
    match rng.gen::<f64>() {
        x if x < 0.28 => Op::Enroll(p, t),
        x if x < 0.46 => Op::Disenroll(p, t),
        x if x < 0.70 => Op::Match(p, (p + 1) % PLAYERS, t),
        x if x < 0.82 => Op::Begin(t),
        x if x < 0.94 => Op::Finish(t),
        _ => Op::Remove(t),
    }
}

/// A key-value write: `NARROW_KEYS` Zipf keys, or (with probability
/// `wide`) `WIDE_KEYS` distinct uniform keys, which span every shard.
pub fn kv_op(rng: &mut StdRng, zipf: &Zipf, wide: f64) -> Op {
    if rng.gen::<f64>() < wide {
        let mut keys = HashSet::new();
        while keys.len() < WIDE_KEYS {
            keys.insert(rng.gen_range(0..KV_KEYS as u32));
        }
        let mut keys: Vec<u32> = keys.into_iter().collect();
        keys.sort_unstable();
        Op::Add(keys)
    } else {
        Op::Add((0..NARROW_KEYS).map(|_| zipf.sample(rng)).collect())
    }
}

/// The seeded schedule of one store workload, `None` for an unknown
/// name: the window split into equal segments, each run on a freshly
/// set-up cluster.
pub fn plan(workload: &str, seed: u64, seconds: f64) -> Option<Plan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = if workload == "partition-heal" {
        PARTITION_SEGMENTS
    } else {
        SEGMENTS
    };
    let len = seconds / count as f64;
    let zipf = Zipf::new(KV_KEYS, ZIPF_S);
    let mut segments = |rate: f64, next: &mut dyn FnMut(&mut StdRng, u16) -> Op| {
        (0..count)
            .map(|_| poisson(&mut rng, rate, len, &mut *next))
            .collect::<Vec<_>>()
    };
    let plan = match workload {
        "tournament" => Plan {
            seed_data: SeedData::Tournament,
            rate: TOURNAMENT_RATE,
            segment_s: len,
            setups: TOURNAMENT_SETUPS,
            segments: segments(TOURNAMENT_RATE, &mut tournament_op),
            params: vec![
                ("players", PLAYERS as f64),
                ("tournaments", TOURNAMENTS as f64),
                ("write_fraction", TOURNAMENT_WRITE_FRACTION),
                ("locality", TOURNAMENT_LOCALITY),
            ],
        },
        "kv-write" => Plan {
            seed_data: SeedData::Kv,
            rate: KV_RATE,
            segment_s: len,
            setups: KV_SETUPS,
            segments: segments(KV_RATE, &mut |r, _| kv_op(r, &zipf, WIDE_FRACTION)),
            params: vec![
                ("keys", KV_KEYS as f64),
                ("zipf_s", ZIPF_S),
                ("wide_fraction", WIDE_FRACTION),
                ("narrow_keys", NARROW_KEYS as f64),
                ("wide_keys", WIDE_KEYS as f64),
            ],
        },
        "partition-heal" => {
            let mut segs = segments(PARTITION_RATE, &mut |r, _| kv_op(r, &zipf, 0.0));
            let cut_us = (CUT_AT * len * 1e6) as u64;
            let heal_us = (HEAL_AT * len * 1e6) as u64;
            for steps in &mut segs {
                for (at_us, what) in [
                    (cut_us, What::Cut(CUT_NODE)),
                    (heal_us, What::Heal(CUT_NODE)),
                ] {
                    let i = steps.partition_point(|s| s.at_us <= at_us);
                    steps.insert(
                        i,
                        Step {
                            at_us,
                            region: CUT_NODE,
                            what,
                        },
                    );
                }
            }
            Plan {
                seed_data: SeedData::Kv,
                rate: PARTITION_RATE,
                segment_s: len,
                setups: KV_SETUPS,
                segments: segs,
                params: vec![
                    ("keys", KV_KEYS as f64),
                    ("zipf_s", ZIPF_S),
                    ("narrow_keys", NARROW_KEYS as f64),
                    ("cut_node", CUT_NODE as f64),
                    ("cut_at_s", cut_us as f64 / 1e6),
                    ("heal_at_s", heal_us as f64 / 1e6),
                ],
            }
        }
        _ => return None,
    };
    Some(plan)
}

/// The ladder's schedules: one Poisson kv-write segment per rate.
pub fn ladder(seed: u64) -> Vec<(f64, Vec<Step>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61_6464_6572);
    let zipf = Zipf::new(KV_KEYS, ZIPF_S);
    LADDER
        .iter()
        .map(|&rate| {
            let steps = poisson(&mut rng, rate, LADDER_STEP_S, &mut |r, _| {
                kv_op(r, &zipf, WIDE_FRACTION)
            });
            (rate, steps)
        })
        .collect()
}
