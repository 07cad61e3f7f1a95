//! Arrival curves: the `(b, r)` traffic contract of bursty scenarios.
//!
//! An [`ArrivalCurve`] describes the message arrivals of one flow as a
//! leaky-bucket contract: at most `burst` messages arrive back to back, and
//! the sustained rate is one message every `gap` cycles (`r = 1 / gap`).
//! Over a horizon of `T` cycles a conforming flow therefore offers at most
//! `burst + ⌊T / gap⌋` messages — the classic `b + r·T` envelope, kept in
//! integer arithmetic so fleet codecs and config hashes stay exact.
//!
//! The curve is deliberately *pure data*: it lives in `wnoc-core` so the
//! graph-based buffer-aware analysis
//! ([`crate::analysis::graph_buffer_aware`]), the incremental engine's
//! arrival-curve mutation and the conformance fleet codec can all share one
//! type without depending on the simulator.  The simulator side
//! (`wnoc_sim::arrival`) turns a curve into concrete, seeded arrival cycles,
//! including the coefficient-of-variation jitter sampling.

/// A per-flow `(burst, rate)` arrival contract with optional jitter.
///
/// All parameters are integers so the curve can be hashed, compared and
/// round-tripped through the fleet codec bit-exactly:
///
/// * `burst` — messages released back to back at the start of the run
///   (`b` of the `b + r·t` envelope; `0` and `1` both mean "no burst");
/// * `gap` — sustained inter-arrival time in cycles (`r = 1 / gap`);
/// * `cv` — jitter knob in percent of `gap`: each sustained arrival is
///   *delayed* by up to `gap · cv / 100` cycles (delay-only jitter keeps the
///   cumulative envelope intact, see [`ArrivalCurve::jitter_allowance`]);
/// * `phase` — cycles before the first arrival (offsets the whole schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrivalCurve {
    /// Messages released back to back at the start (`b`).
    pub burst: u32,
    /// Sustained inter-arrival gap in cycles (`1 / r`); treated as ≥ 1.
    pub gap: u32,
    /// Inter-arrival jitter in percent of `gap` (delay-only).
    pub cv: u32,
    /// Offset of the first arrival in cycles.
    pub phase: u32,
}

impl ArrivalCurve {
    /// A burst-free periodic curve: one message every `gap` cycles.
    pub fn periodic(gap: u32) -> Self {
        Self {
            burst: 1,
            gap,
            cv: 0,
            phase: 0,
        }
    }

    /// A bursty curve: `burst` messages at once, then one every `gap` cycles.
    pub fn bursty(burst: u32, gap: u32) -> Self {
        Self {
            burst,
            gap,
            cv: 0,
            phase: 0,
        }
    }

    /// Sets the jitter knob (percent of `gap`, see the struct docs).
    #[must_use]
    pub fn with_jitter(mut self, cv: u32) -> Self {
        self.cv = cv;
        self
    }

    /// Sets the phase offset of the first arrival.
    #[must_use]
    pub fn with_phase(mut self, phase: u32) -> Self {
        self.phase = phase;
        self
    }

    /// The burst treated as a queue length: `0` and `1` both mean a single
    /// outstanding message (no self-queueing).
    pub fn effective_burst(&self) -> u32 {
        self.burst.max(1)
    }

    /// The sustained gap, clamped to ≥ 1 cycle.
    pub fn effective_gap(&self) -> u64 {
        u64::from(self.gap.max(1))
    }

    /// Worst-case delay the jitter knob can add to one arrival:
    /// `gap · cv / 100` cycles.  Delay-only jitter shifts every departure by
    /// at most this much, so analyses add it as a constant allowance instead
    /// of re-deriving the whole bound.
    pub fn jitter_allowance(&self) -> u64 {
        self.effective_gap() * u64::from(self.cv) / 100
    }

    /// Nominal (jitter-free) arrival cycle of message `j` (0-based): the
    /// first `burst` messages arrive at `phase`, every later message `gap`
    /// cycles after its predecessor.
    pub fn nominal_arrival(&self, j: u64) -> u64 {
        let burst = u64::from(self.effective_burst());
        let base = u64::from(self.phase);
        if j < burst {
            base
        } else {
            base + (j + 1 - burst) * self.effective_gap()
        }
    }

    /// Number of messages a conforming flow offers in `[0, horizon]`:
    /// `burst + ⌊(horizon − phase) / gap⌋`, or 0 when the horizon ends
    /// before the phase offset.  With `phase = 0` this is exactly the
    /// `⌊b + r·T⌋` budget the conservation proptests pin.
    pub fn message_count(&self, horizon: u64) -> u64 {
        let phase = u64::from(self.phase);
        if horizon < phase {
            return 0;
        }
        u64::from(self.effective_burst()) + (horizon - phase) / self.effective_gap()
    }

    /// The analytic envelope: an upper bound on arrivals in `[0, t]` for any
    /// jitter sampling (delay-only jitter can only move arrivals later).
    pub fn envelope(&self, t: u64) -> u64 {
        self.message_count(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_curve_counts_one_message_per_gap() {
        let curve = ArrivalCurve::periodic(10);
        assert_eq!(curve.message_count(0), 1);
        assert_eq!(curve.message_count(9), 1);
        assert_eq!(curve.message_count(10), 2);
        assert_eq!(curve.message_count(95), 10);
    }

    #[test]
    fn burst_front_loads_the_envelope() {
        let curve = ArrivalCurve::bursty(4, 100);
        assert_eq!(curve.message_count(0), 4);
        assert_eq!(curve.message_count(99), 4);
        assert_eq!(curve.message_count(100), 5);
        assert_eq!(curve.nominal_arrival(0), 0);
        assert_eq!(curve.nominal_arrival(3), 0);
        assert_eq!(curve.nominal_arrival(4), 100);
        assert_eq!(curve.nominal_arrival(6), 300);
    }

    #[test]
    fn phase_shifts_the_schedule_and_the_count() {
        let curve = ArrivalCurve::bursty(2, 50).with_phase(30);
        assert_eq!(curve.message_count(29), 0);
        assert_eq!(curve.message_count(30), 2);
        assert_eq!(curve.message_count(80), 3);
        assert_eq!(curve.nominal_arrival(0), 30);
        assert_eq!(curve.nominal_arrival(2), 80);
    }

    #[test]
    fn zero_burst_and_zero_gap_are_clamped() {
        let curve = ArrivalCurve::bursty(0, 0);
        assert_eq!(curve.effective_burst(), 1);
        assert_eq!(curve.effective_gap(), 1);
        assert_eq!(curve.message_count(10), 11);
    }

    #[test]
    fn jitter_allowance_is_a_fraction_of_the_gap() {
        assert_eq!(
            ArrivalCurve::periodic(200)
                .with_jitter(25)
                .jitter_allowance(),
            50
        );
        assert_eq!(ArrivalCurve::periodic(200).jitter_allowance(), 0);
        assert_eq!(
            ArrivalCurve::periodic(3).with_jitter(10).jitter_allowance(),
            0
        );
    }
}
