//! Output-port arbitration policies: plain round robin and the WCTT-aware
//! Weighted round robin (WaW).
//!
//! Each router output port has its own arbiter that, every cycle, picks one of
//! the input ports currently requesting it.  The paper's baseline uses plain
//! round robin (time-analyzable but distance-unfair); WaW replaces it with a
//! weighted round robin whose per-input flit quotas are derived from the
//! statically known flow counts (see [`crate::weights::WeightTable`]).
//!
//! The WaW arbiter follows the hardware scheme described in Section III of the
//! paper:
//!
//! * every input port has a flit counter initialised to its weight (quota);
//! * when several input ports contend, the one with the **largest counter**
//!   wins and its counter is decremented by one;
//! * ties are broken by conventional round robin;
//! * when **no** input port requests the output, every counter is incremented
//!   (saturating at its quota);
//! * when a **single** input port requests the output, it is granted and its
//!   counter is left unaltered.
//!
//! Under sustained congestion the idle-replenishment rule never fires, so — as
//! in any deficit/weighted round-robin scheme — the counters are reloaded to
//! their quotas whenever every contending input has exhausted its counter
//! (start of a new arbitration round).  This keeps the long-run grant ratios
//! equal to the quota ratios, which is the property the WCTT analysis relies
//! on.

use crate::port::Port;

/// Which arbitration policy the routers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Plain round robin among requesting input ports (the baseline wNoC).
    #[default]
    RoundRobin,
    /// WCTT-aware weighted round robin (WaW) with statically computed quotas.
    Waw,
}

/// Per-output-port arbiter of either policy: picks one requesting input port
/// per cycle.  A router stores one per `(output, VC)`.
#[derive(Debug, Clone)]
pub enum Arbiter {
    /// The baseline round-robin arbiter.
    RoundRobin(RoundRobinArbiter),
    /// The WCTT-aware weighted round-robin arbiter.
    Waw(WawArbiter),
}

impl Arbiter {
    /// Creates an arbiter for one output port.
    ///
    /// `quotas` lists, for every input port that can send traffic to this
    /// output port, its flit quota (the WaW weight).  Round-robin arbiters
    /// ignore it.
    pub fn new(policy: ArbitrationPolicy, quotas: &[(Port, u32)]) -> Self {
        match policy {
            ArbitrationPolicy::RoundRobin => Arbiter::RoundRobin(RoundRobinArbiter::new()),
            ArbitrationPolicy::Waw => Arbiter::Waw(WawArbiter::new(quotas)),
        }
    }

    /// Arbitrates among the input ports in `requests` (duplicates are
    /// ignored).
    ///
    /// Returns the granted input port, or `None` when `requests` is empty.  An
    /// empty request set may update internal credit state (idle
    /// replenishment).
    #[inline]
    pub fn grant(&mut self, requests: &[Port]) -> Option<Port> {
        match self {
            Arbiter::RoundRobin(arbiter) => arbiter.grant(requests),
            Arbiter::Waw(arbiter) => arbiter.grant(requests),
        }
    }

    /// Applies `cycles` consecutive idle cycles at once: the state after
    /// `idle_for(k)` equals the state after `k` calls of `grant(&[])`.
    ///
    /// The active-set simulator kernel skips routers that hold no flits, so
    /// when such a router wakes up its arbiters catch up on the skipped idle
    /// replenishment in O(1) through this closed form instead of replaying
    /// every cycle.
    #[inline]
    pub fn idle_for(&mut self, cycles: u64) {
        match self {
            Arbiter::RoundRobin(arbiter) => arbiter.idle_for(cycles),
            Arbiter::Waw(arbiter) => arbiter.idle_for(cycles),
        }
    }
}

/// Conventional round-robin arbiter: grants the first requesting port found in
/// cyclic order after the previously granted one.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinArbiter {
    last: usize,
}

impl RoundRobinArbiter {
    /// Creates a round-robin arbiter with the rotation pointer at port 0.
    pub fn new() -> Self {
        Self { last: 0 }
    }

    /// Grants the first port of `requests` in cyclic order after the
    /// previously granted one (`None` when `requests` is empty).
    pub fn grant(&mut self, requests: &[Port]) -> Option<Port> {
        if requests.is_empty() {
            return None;
        }
        // Scan ports in cyclic order starting after the last granted port.
        for offset in 1..=Port::COUNT {
            let idx = (self.last + offset) % Port::COUNT;
            let port = Port::from_index(idx);
            if requests.contains(&port) {
                self.last = idx;
                return Some(port);
            }
        }
        None
    }

    /// `cycles` idle cycles: a no-op, since an idle grant leaves the rotation
    /// pointer untouched.
    pub fn idle_for(&mut self, _cycles: u64) {}
}

/// WCTT-aware weighted round-robin arbiter for a single output port.
#[derive(Debug, Clone)]
pub struct WawArbiter {
    /// Quota (weight) per input port index; zero for ports with no flows toward
    /// this output.
    quotas: [u32; Port::COUNT],
    /// Current flit counters.
    credits: [u32; Port::COUNT],
    /// Round-robin tie breaker.
    tie_breaker: RoundRobinArbiter,
}

impl WawArbiter {
    /// Creates a WaW arbiter with the given `(input port, quota)` pairs.
    /// Unlisted ports get a quota of zero (they should never request this
    /// output; if they do they only win when no weighted port competes).
    pub fn new(quotas: &[(Port, u32)]) -> Self {
        let mut q = [0u32; Port::COUNT];
        for (port, quota) in quotas {
            q[port.index()] = *quota;
        }
        Self {
            quotas: q,
            credits: q,
            tie_breaker: RoundRobinArbiter::new(),
        }
    }

    /// The quota configured for `port`.
    pub fn quota(&self, port: Port) -> u32 {
        self.quotas[port.index()]
    }

    /// The current credit counter of `port`.
    pub fn credits(&self, port: Port) -> u32 {
        self.credits[port.index()]
    }

    fn replenish_all(&mut self) {
        self.credits = self.quotas;
    }

    /// Arbitrates among `requests` under the Section III counter rules (see
    /// the module docs); an empty request set is an idle cycle.
    pub fn grant(&mut self, requests: &[Port]) -> Option<Port> {
        if requests.is_empty() {
            // Idle: every counter creeps back up towards its quota.
            for i in 0..Port::COUNT {
                if self.credits[i] < self.quotas[i] {
                    self.credits[i] += 1;
                }
            }
            return None;
        }
        if requests.len() == 1 {
            // Unique candidate: granted, counter unaltered.
            return Some(requests[0]);
        }
        // All contenders exhausted: start a new arbitration round.
        if requests.iter().all(|p| self.credits[p.index()] == 0) {
            self.replenish_all();
        }
        let max_credit = requests
            .iter()
            .map(|p| self.credits[p.index()])
            .max()
            .unwrap_or(0);
        // Fixed-size tie set: `grant` sits on the simulator's per-cycle hot
        // path and must not allocate.
        let mut tied = [Port::Local; Port::COUNT];
        let mut tied_len = 0;
        for &port in requests {
            if self.credits[port.index()] == max_credit {
                tied[tied_len] = port;
                tied_len += 1;
            }
        }
        let winner = if tied_len == 1 {
            tied[0]
        } else {
            self.tie_breaker
                .grant(&tied[..tied_len])
                .expect("tie set is non-empty")
        };
        let idx = winner.index();
        self.credits[idx] = self.credits[idx].saturating_sub(1);
        Some(winner)
    }

    /// `cycles` idle cycles at once: `k` idle cycles add `k` to every
    /// counter, saturating at its quota — the closed form of `k` calls of
    /// `grant(&[])`.
    pub fn idle_for(&mut self, cycles: u64) {
        let bump = u32::try_from(cycles).unwrap_or(u32::MAX);
        for i in 0..Port::COUNT {
            self.credits[i] = self.quotas[i].min(self.credits[i].saturating_add(bump));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Direction;
    use std::collections::HashMap;

    const WEST: Port = Port::Mesh(Direction::West);
    const NORTH: Port = Port::Mesh(Direction::North);
    const EAST: Port = Port::Mesh(Direction::East);

    fn grant_ratios(
        arbiter: &mut Arbiter,
        requests: &[Port],
        rounds: usize,
    ) -> HashMap<Port, usize> {
        let mut counts = HashMap::new();
        for _ in 0..rounds {
            let winner = arbiter.grant(requests).expect("non-empty requests");
            *counts.entry(winner).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn round_robin_alternates_fairly() {
        let mut arb = Arbiter::new(ArbitrationPolicy::RoundRobin, &[]);
        let counts = grant_ratios(&mut arb, &[WEST, NORTH], 1000);
        assert_eq!(counts[&WEST], 500);
        assert_eq!(counts[&NORTH], 500);
    }

    #[test]
    fn round_robin_three_way() {
        let mut arb = Arbiter::new(ArbitrationPolicy::RoundRobin, &[]);
        let counts = grant_ratios(&mut arb, &[WEST, NORTH, EAST], 900);
        assert_eq!(counts[&WEST], 300);
        assert_eq!(counts[&NORTH], 300);
        assert_eq!(counts[&EAST], 300);
    }

    #[test]
    fn round_robin_empty_requests() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.grant(&[]), None);
    }

    #[test]
    fn round_robin_single_requester() {
        let mut arb = RoundRobinArbiter::new();
        for _ in 0..10 {
            assert_eq!(arb.grant(&[NORTH]), Some(NORTH));
        }
    }

    #[test]
    fn round_robin_does_not_starve_late_joiner() {
        let mut arb = RoundRobinArbiter::new();
        for _ in 0..5 {
            arb.grant(&[WEST]);
        }
        // NORTH joins: it must be granted within two cycles.
        let first = arb.grant(&[WEST, NORTH]);
        let second = arb.grant(&[WEST, NORTH]);
        assert!(first == Some(NORTH) || second == Some(NORTH));
    }

    #[test]
    fn waw_respects_quota_ratios_under_saturation() {
        // Table I scenario: west input has 1/3 of the local port, north 2/3.
        let mut arb = Arbiter::new(ArbitrationPolicy::Waw, &[(WEST, 1), (NORTH, 2)]);
        let counts = grant_ratios(&mut arb, &[WEST, NORTH], 3000);
        assert_eq!(counts[&WEST], 1000);
        assert_eq!(counts[&NORTH], 2000);
    }

    #[test]
    fn waw_large_quota_ratio() {
        let mut arb = Arbiter::new(ArbitrationPolicy::Waw, &[(WEST, 7), (NORTH, 56), (EAST, 1)]);
        let total = 6400;
        let counts = grant_ratios(&mut arb, &[WEST, NORTH, EAST], total);
        let share = |p: Port| counts.get(&p).copied().unwrap_or(0) as f64 / total as f64;
        assert!((share(WEST) - 7.0 / 64.0).abs() < 0.01);
        assert!((share(NORTH) - 56.0 / 64.0).abs() < 0.01);
        assert!((share(EAST) - 1.0 / 64.0).abs() < 0.01);
    }

    #[test]
    fn waw_single_requester_does_not_consume_credits() {
        let mut arb = WawArbiter::new(&[(WEST, 1), (NORTH, 2)]);
        let before = arb.credits(WEST);
        for _ in 0..10 {
            assert_eq!(arb.grant(&[WEST]), Some(WEST));
        }
        assert_eq!(arb.credits(WEST), before);
    }

    #[test]
    fn waw_idle_replenishes_credits() {
        let mut arb = WawArbiter::new(&[(WEST, 2), (NORTH, 2)]);
        // Drain WEST by two contended wins.
        for _ in 0..2 {
            // Force WEST to win by making it the max: drain NORTH first instead.
            arb.grant(&[WEST, NORTH]);
        }
        let drained_west = arb.credits(WEST);
        let drained_north = arb.credits(NORTH);
        assert!(drained_west < 2 || drained_north < 2);
        // Two idle cycles restore both counters to their quotas.
        arb.grant(&[]);
        arb.grant(&[]);
        assert_eq!(arb.credits(WEST), 2);
        assert_eq!(arb.credits(NORTH), 2);
    }

    #[test]
    fn waw_ties_broken_round_robin() {
        let mut arb = Arbiter::new(ArbitrationPolicy::Waw, &[(WEST, 1), (NORTH, 1)]);
        let counts = grant_ratios(&mut arb, &[WEST, NORTH], 1000);
        assert_eq!(counts[&WEST], 500);
        assert_eq!(counts[&NORTH], 500);
    }

    #[test]
    fn waw_never_starves_low_weight_port() {
        let mut arb = WawArbiter::new(&[(WEST, 1), (NORTH, 63)]);
        // Within any window of 2 * (1 + 63) grants, WEST must win at least once.
        let mut last_west = 0usize;
        let mut max_gap = 0usize;
        for i in 0..10_000usize {
            let winner = arb.grant(&[WEST, NORTH]).unwrap();
            if winner == WEST {
                max_gap = max_gap.max(i - last_west);
                last_west = i;
            }
        }
        assert!(max_gap <= 2 * 64, "WEST starved for {max_gap} cycles");
    }

    #[test]
    fn waw_unlisted_port_can_still_win_alone() {
        let mut arb = WawArbiter::new(&[(WEST, 4)]);
        assert_eq!(arb.grant(&[EAST]), Some(EAST));
    }

    #[test]
    fn idle_for_matches_repeated_idle_grants() {
        // The O(1) catch-up must be indistinguishable from replaying the
        // skipped cycles one by one, from any reachable credit state.
        for drained_rounds in 0..6 {
            for idle in [0u64, 1, 2, 3, 7, 1_000] {
                let mut fast = WawArbiter::new(&[(WEST, 2), (NORTH, 5), (EAST, 1)]);
                let mut slow = WawArbiter::new(&[(WEST, 2), (NORTH, 5), (EAST, 1)]);
                for _ in 0..drained_rounds {
                    fast.grant(&[WEST, NORTH, EAST]);
                    slow.grant(&[WEST, NORTH, EAST]);
                }
                fast.idle_for(idle);
                for _ in 0..idle {
                    slow.grant(&[]);
                }
                for port in [WEST, NORTH, EAST] {
                    assert_eq!(
                        fast.credits(port),
                        slow.credits(port),
                        "{port:?} after {drained_rounds} rounds + {idle} idle"
                    );
                }
                // Subsequent contended grants agree too (tie breaker state).
                assert_eq!(
                    fast.grant(&[WEST, NORTH]),
                    slow.grant(&[WEST, NORTH]),
                    "{drained_rounds} rounds + {idle} idle"
                );
            }
        }
    }

    #[test]
    fn round_robin_idle_for_is_a_no_op() {
        let mut arb = RoundRobinArbiter::new();
        arb.grant(&[NORTH]);
        let mut replay = arb.clone();
        arb.idle_for(1_000);
        for _ in 0..1_000 {
            replay.grant(&[]);
        }
        assert_eq!(arb.grant(&[WEST, NORTH]), replay.grant(&[WEST, NORTH]));
    }

    #[test]
    fn arbiter_new_picks_the_policy_variant() {
        let rr = Arbiter::new(ArbitrationPolicy::RoundRobin, &[]);
        assert!(matches!(rr, Arbiter::RoundRobin(_)));
        let waw = Arbiter::new(ArbitrationPolicy::Waw, &[(WEST, 1)]);
        assert!(matches!(&waw, Arbiter::Waw(arbiter) if arbiter.quota(WEST) == 1));
    }
}
