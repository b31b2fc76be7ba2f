//! Client operations of the store workloads and the seed data they run
//! on. The same code runs inside `ThreadedCluster::commit_at` (the
//! measured run) and on standalone replicas (the traced replay).

use ipa_apps::tournament::runtime::ENROLLED;
use ipa_apps::tournament::Tournament;
use ipa_apps::Mode;
use ipa_crdt::{ObjectKind, Val};
use ipa_store::{Key, StoreError, Transaction};

/// The paper's Tournament population (Fig. 4/5 workload).
pub const PLAYERS: usize = 60;
pub const TOURNAMENTS: usize = 12;

/// Keys of the key-value workloads, each a PN-counter.
pub const KV_KEYS: usize = 20_000;
/// Keys per seed transaction.
const KV_SEED_CHUNK: usize = 500;

#[derive(Clone, Debug)]
pub enum Op {
    Status(usize),
    Enroll(usize, usize),
    Disenroll(usize, usize),
    /// Players `p`, `q` play in tournament `t`.
    Match(usize, usize, usize),
    Begin(usize),
    Finish(usize),
    /// Remove a tournament, then re-add it in a second transaction so
    /// the population stays constant.
    Remove(usize),
    /// Increment each listed counter key by one.
    Add(Vec<u32>),
}

impl Op {
    /// Transactions the op commits.
    pub fn parts(&self) -> usize {
        match self {
            Op::Remove(_) => 2,
            _ => 1,
        }
    }

    /// Counter increments the op commits.
    pub fn increments(&self) -> u64 {
        match self {
            Op::Add(keys) => keys.len() as u64,
            _ => 0,
        }
    }
}

/// Entity names and keys, built once before any clock starts.
pub struct Names {
    app: Tournament,
    players: Vec<String>,
    tourns: Vec<String>,
    pub keys: Vec<Key>,
}

impl Names {
    pub fn new() -> Names {
        Names {
            app: Tournament::new(Mode::Ipa),
            players: (0..PLAYERS).map(|i| format!("p{i}")).collect(),
            tourns: (0..TOURNAMENTS).map(|i| format!("t{i}")).collect(),
            keys: (0..KV_KEYS).map(|i| Key::from(format!("kv/{i}"))).collect(),
        }
    }

    /// Run transaction `part` of `op`.
    pub fn run(&self, op: &Op, part: usize, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        let app = self.app;
        let (p, t) = (&self.players, &self.tourns);
        match op {
            Op::Status(ti) => app.status(tx, &t[*ti]).map(drop),
            Op::Enroll(pi, ti) => app.enroll(tx, &p[*pi], &t[*ti]).map(drop),
            Op::Disenroll(pi, ti) => app.disenroll(tx, &p[*pi], &t[*ti]).map(drop),
            Op::Match(pi, qi, ti) => {
                // The transaction establishes the match's preconditions
                // locally (§2.2): tournament running, both players in it.
                let t = &t[*ti];
                if !app.is_active(tx, t)? {
                    app.begin_tourn(tx, t)?;
                }
                for player in [&p[*pi], &p[*qi]] {
                    if !tx.contains(ENROLLED, &Val::pair(player.as_str(), t.as_str()))? {
                        app.enroll(tx, player, t)?;
                    }
                }
                app.do_match(tx, &p[*pi], &p[*qi], t).map(drop)
            }
            Op::Begin(ti) => app.begin_tourn(tx, &t[*ti]).map(drop),
            Op::Finish(ti) => app.finish_tourn(tx, &t[*ti]).map(drop),
            Op::Remove(ti) if part == 0 => app.rem_tourn(tx, &t[*ti]).map(drop),
            Op::Remove(ti) => app.add_tourn(tx, &t[*ti]).map(drop),
            Op::Add(keys) => {
                for &k in keys {
                    let key = &self.keys[k as usize];
                    tx.ensure(key.clone(), ObjectKind::PNCounter)?;
                    tx.counter_add(key.clone(), 1)?;
                }
                Ok(())
            }
        }
    }

    /// The Tournament seed: every player and tournament, all running.
    pub fn seed_tournament(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        let app = self.app;
        app.ensure_schema(tx)?;
        for p in &self.players {
            app.add_player(tx, p)?;
        }
        for t in &self.tourns {
            app.add_tourn(tx, t)?;
            app.begin_tourn(tx, t)?;
        }
        Ok(())
    }

    /// The key-value seed: every counter created with value 1, in
    /// transactions of `KV_SEED_CHUNK` keys.
    pub fn kv_seed_ops() -> Vec<Op> {
        (0..KV_KEYS as u32)
            .collect::<Vec<_>>()
            .chunks(KV_SEED_CHUNK)
            .map(|c| Op::Add(c.to_vec()))
            .collect()
    }

    /// One `status` read per tournament: the end-of-run sweep that runs
    /// the read-side compensations.
    pub fn status_sweep() -> Vec<Op> {
        (0..TOURNAMENTS).map(Op::Status).collect()
    }
}
