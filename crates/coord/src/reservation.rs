//! Indigo-style reservations (§5.2.1, §5.2.5 and reference \[10\]).
//!
//! "In Indigo, a conflicting operation needs to possess or acquire the
//! reservations needed for safe execution under concurrency. Reservations
//! can be exchanged and shared between replicas asynchronously in a
//! pairwise fashion, which is usually cheaper than full coordination
//! among all replicas."
//!
//! The model: each reservation is held by a set of replicas in either
//! shared or exclusive mode. An operation executing at replica `r`:
//!
//! * already holds the reservation in a compatible mode → **zero** extra
//!   latency (the common case the paper observes: "reservations are
//!   exchanged among replicas very infrequently");
//! * must fetch or upgrade → pays a **round trip to the current holder**
//!   (pairwise exchange);
//! * cannot reach any holder (partition) → the operation is
//!   **unavailable** (§5.2.5: "if a server that holds the necessary
//!   reservation ... becomes unavailable, the operation cannot be
//!   executed").

use ipa_sim::{OpCtx, Region};
use std::collections::{BTreeSet, HashMap};

pub use crate::policy::LockMode;

#[derive(Clone, Debug)]
struct ResState {
    mode: LockMode,
    holders: BTreeSet<Region>,
}

/// The reservation registry. In real Indigo this state is itself
/// replicated; here it is a coordinator-level oracle whose *transfer
/// latencies* are charged to operations, which is what the paper's
/// figures measure.
#[derive(Clone, Debug, Default)]
pub struct ReservationTable {
    reservations: HashMap<String, ResState>,
    /// Count of acquisitions that required a WAN exchange.
    pub exchanges: u64,
    /// Count of acquisitions served locally.
    pub local_hits: u64,
}

impl ReservationTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grant a reservation to a replica (initial placement).
    pub fn grant(&mut self, res: impl Into<String>, region: Region, mode: LockMode) {
        self.reservations.insert(
            res.into(),
            ResState {
                mode,
                holders: [region].into_iter().collect(),
            },
        );
    }

    /// Acquire `res` at `region` in `mode`; returns the extra WAN delay in
    /// ms, or `None` when every holder is unreachable. Generic over
    /// [`OpCtx`]: the same logic runs under the deterministic sim and
    /// the threaded transport.
    pub fn acquire<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        mode: LockMode,
    ) -> Option<f64> {
        let state = self
            .reservations
            .entry(res.to_owned())
            .or_insert_with(|| ResState {
                mode,
                holders: [region].into_iter().collect(),
            });
        let compatible = state.mode == mode || state.holders.is_empty();
        if compatible
            && state.holders.contains(&region)
            && (mode == LockMode::Shared || state.holders.len() == 1)
        {
            self.local_hits += 1;
            return Some(0.0);
        }
        // Need an exchange with the current holder(s).
        let others: Vec<Region> = state
            .holders
            .iter()
            .copied()
            .filter(|&h| h != region)
            .collect();
        if others.is_empty() {
            // We are the sole holder but in the wrong mode: flip locally.
            state.mode = mode;
            self.local_hits += 1;
            return Some(0.0);
        }
        // Reachability: every holder we must revoke (exclusive) or any
        // holder we can copy from (shared) must be reachable.
        let cost = match mode {
            LockMode::Shared => {
                let reachable: Vec<Region> = others
                    .iter()
                    .copied()
                    .filter(|&h| ctx.link_up(region, h))
                    .collect();
                let &src = reachable.first()?;
                let c = ctx.rtt(region, src);
                if state.mode == LockMode::Exclusive {
                    // Downgrade: the exclusive holder shares with us.
                    state.mode = LockMode::Shared;
                }
                state.holders.insert(region);
                c
            }
            LockMode::Exclusive => {
                if others.iter().any(|&h| !ctx.link_up(region, h)) {
                    return None; // cannot revoke an unreachable holder
                }
                // Pairwise revocations overlap; the slowest bounds the
                // delay.
                let mut worst: f64 = 0.0;
                for &h in &others {
                    worst = worst.max(ctx.rtt(region, h));
                }
                state.mode = LockMode::Exclusive;
                state.holders.clear();
                state.holders.insert(region);
                worst
            }
        };
        self.exchanges += 1;
        Some(cost)
    }

    /// Current holders (for tests / introspection).
    pub fn holders(&self, res: &str) -> Vec<Region> {
        self.reservations
            .get(res)
            .map(|s| s.holders.iter().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{
        two_region_topology, ClientInfo, OpOutcome, SimConfig, SimCtx, Simulation, Workload,
    };

    /// Drives acquire() from inside a simulation so RTTs are sampled.
    struct Driver<F: FnMut(&mut SimCtx<'_>, Region)> {
        f: F,
        ran: bool,
    }

    impl<F: FnMut(&mut SimCtx<'_>, Region)> Workload for Driver<F> {
        fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
            if !self.ran {
                (self.f)(ctx, client.region);
                self.ran = true;
            }
            OpOutcome::ok("drive", 1, 1)
        }
    }

    fn drive(f: impl FnMut(&mut SimCtx<'_>, Region)) {
        let cfg = SimConfig {
            warmup_s: 0.0,
            duration_s: 0.2,
            ..Default::default()
        };
        let mut sim = Simulation::new(two_region_topology(), cfg);
        let mut d = Driver { f, ran: false };
        sim.run(&mut d);
        assert!(d.ran);
    }

    #[test]
    fn resident_reservation_is_free() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            t.grant("enroll:t1", 0, LockMode::Shared);
            assert_eq!(t.acquire(ctx, "enroll:t1", 0, LockMode::Shared), Some(0.0));
            assert_eq!(t.local_hits, 1);
            assert_eq!(t.exchanges, 0);
        });
    }

    #[test]
    fn fetching_a_remote_reservation_costs_an_rtt() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            t.grant("rem:t1", 0, LockMode::Exclusive);
            let cost = t.acquire(ctx, "rem:t1", 1, LockMode::Exclusive).unwrap();
            assert!((72.0..=88.0).contains(&cost), "{cost}");
            assert_eq!(t.holders("rem:t1"), vec![1]);
            // Now resident: free.
            assert_eq!(t.acquire(ctx, "rem:t1", 1, LockMode::Exclusive), Some(0.0));
        });
    }

    #[test]
    fn shared_mode_spreads_to_both_regions() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            t.grant("enroll:t1", 0, LockMode::Shared);
            let cost = t.acquire(ctx, "enroll:t1", 1, LockMode::Shared).unwrap();
            assert!(cost > 0.0);
            // Both hold it now: both acquire for free.
            assert_eq!(t.acquire(ctx, "enroll:t1", 0, LockMode::Shared), Some(0.0));
            assert_eq!(t.acquire(ctx, "enroll:t1", 1, LockMode::Shared), Some(0.0));
            assert_eq!(t.holders("enroll:t1"), vec![0, 1]);
        });
    }

    #[test]
    fn exclusive_revokes_shared_holders() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            t.grant("x", 0, LockMode::Shared);
            t.acquire(ctx, "x", 1, LockMode::Shared).unwrap();
            let cost = t.acquire(ctx, "x", 0, LockMode::Exclusive).unwrap();
            assert!(cost > 0.0, "must revoke region 1's copy");
            assert_eq!(t.holders("x"), vec![0]);
        });
    }

    #[test]
    fn partition_makes_exclusive_unavailable() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            t.grant("x", 0, LockMode::Exclusive);
            ctx.set_link(0, 1, false);
            assert_eq!(t.acquire(ctx, "x", 1, LockMode::Exclusive), None);
            ctx.set_link(0, 1, true);
            assert!(t.acquire(ctx, "x", 1, LockMode::Exclusive).is_some());
        });
    }

    #[test]
    fn unknown_reservation_auto_grants_locally() {
        drive(|ctx, _| {
            let mut t = ReservationTable::new();
            assert_eq!(t.acquire(ctx, "fresh", 1, LockMode::Exclusive), Some(0.0));
            assert_eq!(t.holders("fresh"), vec![1]);
        });
    }
}
