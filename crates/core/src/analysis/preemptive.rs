//! Priority-preemptive WCTT analysis over virtual channels, after Nikolić &
//! Indrusiak (arXiv:1605.07888), repairing the two bounds that conformance
//! campaigns proved unsound:
//!
//! * the **multi-packet composition** of the chained-blocking bound (observed
//!   up to 15% above the `Σ` per-packet sum on ≥ 9×9 meshes at `L = 8`):
//!   cross-traffic slips into deep FIFOs *between* the packets of a train, so
//!   each inter-packet gap re-opens a full blocking round.  The repaired
//!   composition charges that round explicitly —
//!   `Σ per-packet + (packets − 1) · packet(L)` — instead of silently
//!   assuming packets ride back to back;
//! * the **buffer-depth regime** of the same bound (observed up to 3.2× the
//!   bound at depth 64): input rings deeper than the validation depth
//!   accumulate multi-packet cross-traffic trains the recursion does not
//!   count, and rings shallower than it serialise on credit round-trips.
//!   Both directions are covered by a depth envelope factor
//!   (`⌈calibration/min⌉ · ⌈max/calibration⌉`), replacing the old approach of
//!   demoting every analysis away from the validation depth.
//!
//! On top of the repaired round-robin base, the model adds the
//! priority-preemptive machinery of Nikolić & Indrusiak for multi-VC routers:
//!
//! * **direct interference** `S_D(i)` — flows sharing at least one link
//!   (`(router, output)` pair, ejection included) with flow `i`;
//! * **indirect interference** `S_I(i)` — flows sharing a link with a member
//!   of `S_D(i)` but none with `i` itself;
//! * flows on a strictly **higher-priority VC** (lower VC index) in
//!   `S_D(i) ∪ S_I(i)` preempt `i`, accounted by the classic response-time
//!   iteration `R = C + Σ_j ⌈R/T_j⌉ · C_j`.
//!
//! Under the conformance harness's *closed-loop* probing every source
//! re-offers as soon as its message completes, so a higher-priority
//! interferer's inter-arrival is only bounded below by its own no-load
//! completion time — the iteration usually finds utilisation ≥ 1 and
//! **diverges**.  That is the honest answer: a flow sharing a link with a
//! saturated strictly-higher-priority flow has no finite worst case under
//! strict VC priority.  Divergence saturates the bound to
//! [`SATURATION_SENTINEL`], which dominates every observation by
//! construction while remaining far from `u64::MAX` so downstream arithmetic
//! cannot overflow.

use crate::analysis::regular::RegularWcttModel;
use crate::buffers::BufferConfig;
use crate::config::{lone_message_latency, NocConfig, ROUTER_CHARGE};
use crate::flow::{FlowId, FlowSet};
use crate::packetization::Split;
use crate::port::Port;
use crate::routing::Hop;
use crate::vc::VcConfig;

/// The saturated "no finite bound" value: any response-time iteration that
/// diverges (higher-priority utilisation ≥ 1 under closed-loop re-offers)
/// pins the bound here.  Large enough to dominate any observation, small
/// enough (`2⁶²`) that sums of a few sentinels cannot overflow `u64`.
pub const SATURATION_SENTINEL: u64 = 1 << 62;

/// Rounds of the response-time iteration before declaring divergence.
const MAX_RESPONSE_ROUNDS: usize = 64;

/// The priority-preemptive WCTT model: depth-enveloped chained blocking
/// within a VC plus Nikolić & Indrusiak preemption across VCs.
///
/// At the paper's design point (single VC, calibration-depth buffers) every
/// per-packet bound coincides with [`RegularWcttModel::route_wctt`] exactly;
/// only the multi-packet composition is strengthened.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::preemptive::PreemptiveOracle;
/// use wnoc_core::analysis::oracle::WcttBoundModel;
/// use wnoc_core::flow::FlowSet;
/// use wnoc_core::geometry::Coord;
/// use wnoc_core::{BufferConfig, FlowId, Mesh, NocConfig, VcConfig};
///
/// let mesh = Mesh::square(4)?;
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// let config = NocConfig::regular(4);
/// let mut oracle = PreemptiveOracle::new(
///     &flows,
///     &config,
///     &BufferConfig::uniform(config.input_buffer_flits),
///     VcConfig::single(),
/// );
/// // Single-packet messages keep a finite, depth-1-factor bound.
/// assert!(oracle.message_bound(FlowId(0), 4).unwrap() > 0);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PreemptiveOracle {
    /// The chained-blocking model at the contender size `L`, which is also
    /// the largest packet a message is cut into.
    base: RegularWcttModel,
    flows: FlowSet,
    depth_factor: u64,
    /// Per-flow VC (= priority class, 0 highest).
    priority: Vec<u8>,
    /// Per-flow strictly-higher-priority members of `S_D ∪ S_I`, as flow
    /// indices.  Empty everywhere under a single VC.
    hp_interferers: Vec<Vec<usize>>,
    /// Per-flow closed-loop re-offer floor `T_j` as a preemptor: the
    /// simulator's latency of one lone maximum-size packet
    /// ([`lone_message_latency`]), since a closed-loop source re-offers only
    /// once its message is delivered.  Empty under a single VC, where no
    /// flow preempts another.
    re_offer_period: Vec<u64>,
    /// Memoised preemption delays, per flow.
    preemption_memo: Vec<Option<u64>>,
}

impl PreemptiveOracle {
    /// Builds the model for `flows` under the round-robin configuration
    /// `config`, with the platform's buffer plan (`buffers`, for the depth
    /// envelope) and VC configuration (`vcs`, for the priority classes).
    pub fn new(flows: &FlowSet, config: &NocConfig, buffers: &BufferConfig, vcs: VcConfig) -> Self {
        let max_packet_flits = config.packetization.worst_case_contender_flits().max(1);
        let n = flows.len();
        let mesh = flows.mesh();

        let mut priority = vec![0u8; n];
        if !vcs.is_single() {
            for (id, flow) in flows.iter() {
                if let (Ok(src), Ok(dst)) = (mesh.coord_of(flow.src), mesh.coord_of(flow.dst)) {
                    priority[id.0] = vcs.vc_of(id, src, dst) as u8;
                }
            }
        }

        // Interference sets only matter across priority classes; under a
        // single VC (every campaign outside the vc dimension) skip building
        // them, and the re-offer periods only preemptors need, entirely.
        let (hp_interferers, re_offer_period) = if vcs.is_single() {
            (vec![Vec::new(); n], Vec::new())
        } else {
            let periods = (0..n)
                .map(|index| {
                    let hops = flows
                        .route(FlowId(index))
                        .map_or(0, |route| route.hop_count());
                    lone_message_latency(hops, max_packet_flits)
                })
                .collect();
            (Self::higher_priority_interferers(flows, &priority), periods)
        };

        Self {
            base: RegularWcttModel::new(flows, max_packet_flits),
            flows: flows.clone(),
            depth_factor: Self::depth_envelope_factor(config, buffers),
            priority,
            hp_interferers,
            re_offer_period,
            preemption_memo: vec![None; n],
        }
    }

    /// The depth envelope: `⌈calibration/min_depth⌉ · ⌈max_depth/calibration⌉`
    /// where the calibration depth is the design default
    /// ([`NocConfig::input_buffer_flits`]).  1 at the calibration depth;
    /// covers credit round-trip serialisation below it (4× at depth 1) and
    /// deep-FIFO cross-traffic trains above it (16× at depth 64 — campaigns
    /// observed up to 3.2×).
    pub fn depth_envelope_factor(config: &NocConfig, buffers: &BufferConfig) -> u64 {
        Self::depth_envelope_factor_between(config, buffers.min_depth(), buffers.max_depth())
    }

    /// [`PreemptiveOracle::depth_envelope_factor`] of any buffer plan whose
    /// smallest depth is `min_depth` and largest `max_depth`: the factor
    /// reads nothing else of the plan.
    pub fn depth_envelope_factor_between(
        config: &NocConfig,
        min_depth: u32,
        max_depth: u32,
    ) -> u64 {
        let calibration = u64::from(config.input_buffer_flits.max(1));
        let min = u64::from(min_depth.max(1));
        let max = u64::from(max_depth.max(1));
        let shallow = if min < calibration {
            calibration.div_ceil(min)
        } else {
            1
        };
        let deep = if max > calibration {
            max.div_ceil(calibration)
        } else {
            1
        };
        shallow * deep
    }

    /// The VC (priority class, 0 highest) of `flow`, or `None` for flows
    /// outside the set.
    pub fn priority_of(&self, flow: FlowId) -> Option<u8> {
        self.priority.get(flow.0).copied()
    }

    /// Strictly-higher-priority direct + indirect interferers of `flow`
    /// (Nikolić & Indrusiak's `hp(S_D ∪ S_I)`), or `None` for unknown flows.
    pub fn interferers_of(&self, flow: FlowId) -> Option<&[usize]> {
        self.hp_interferers.get(flow.0).map(Vec::as_slice)
    }

    /// `hp(S_D ∪ S_I)` for every flow, over dense flow bitsets of
    /// `⌈n/64⌉` words.  Each link — `(router, output)` column, indexed by
    /// [`Mesh::port_index`](crate::topology::Mesh::port_index) like
    /// [`RegularWcttModel`]'s drain terms — gets the bitset of flows crossing
    /// it; a flow's `S_D` is the OR of its columns' bitsets without its own
    /// bit, and `S_D ∪ S_I` the two-hop reach (its `S_D` OR'd with the `S_D`
    /// of each member).  One AND with the "priority above `p`" mask keeps
    /// the higher-priority members, enumerated in ascending index order;
    /// top-class flows skip it all.  Cost `O(n · |S_D| · n/64)` word
    /// operations, against the `O(n · |S_D|²)` hashed inserts of building
    /// the sets member by member.
    fn higher_priority_interferers(flows: &FlowSet, priority: &[u8]) -> Vec<Vec<usize>> {
        let n = flows.len();
        let words = n.div_ceil(64);
        let mesh = flows.mesh();
        let columns = mesh.router_count() * Port::COUNT;
        let column = |hop: &Hop| mesh.port_index(hop.router, hop.output);
        let routes = || (0..n).filter_map(|i| Some((i, flows.route(FlowId(i))?)));
        let row = |index: usize| index * words..(index + 1) * words;
        let or_into =
            |dst: &mut [u64], src: &[u64]| dst.iter_mut().zip(src).for_each(|(d, s)| *d |= s);

        let mut column_flows = vec![0u64; columns * words];
        for (index, route) in routes() {
            for hop in route.hops() {
                column_flows[row(column(hop))][index / 64] |= 1 << (index % 64);
            }
        }
        let mut direct = vec![0u64; n * words];
        for (index, route) in routes() {
            let own = &mut direct[row(index)];
            for hop in route.hops() {
                or_into(own, &column_flows[row(column(hop))]);
            }
            own[index / 64] &= !(1 << (index % 64));
        }
        // `higher[p]`: the flows of strictly higher priority than class `p`
        // (a lower VC index).
        let levels = usize::from(priority.iter().copied().max().unwrap_or(0)) + 1;
        let mut higher = vec![0u64; levels * words];
        for (index, &p) in priority.iter().enumerate() {
            for level in usize::from(p) + 1..levels {
                higher[row(level)][index / 64] |= 1 << (index % 64);
            }
        }

        let mut reach = vec![0u64; words];
        (0..n)
            .map(|i| {
                let p = usize::from(priority[i]);
                if p == 0 {
                    return Vec::new();
                }
                // The mask never holds `i` itself (its class is `p`), so the
                // AND also drops the own bit every `S_D(j)` carries; and once
                // the reach covers the mask, further ORs cannot change it.
                let mask = &higher[row(p)];
                let covers_mask = |reach: &[u64]| reach.iter().zip(mask).all(|(r, m)| r & m == *m);
                let own = &direct[row(i)];
                reach.copy_from_slice(own);
                for j in members(own) {
                    if covers_mask(&reach) {
                        break;
                    }
                    or_into(&mut reach, &direct[row(j)]);
                }
                reach.iter_mut().zip(mask).for_each(|(r, m)| *r &= m);
                members(&reach).collect()
            })
            .collect()
    }

    /// The depth-enveloped chained-blocking service time of one maximum-size
    /// packet of flow `index` — the `C` of the response-time iteration.
    fn packet_service(&mut self, index: usize) -> Option<u64> {
        let own = self.base.contender_flits();
        let factor = self.depth_factor;
        let Self { base, flows, .. } = self;
        let route = flows.route(FlowId(index))?;
        Some(factor.saturating_mul(base.route_wctt(route, own)))
    }

    /// Total preemption delay from strictly-higher-priority interferers:
    /// `R − C` after the response-time iteration `R = C + Σ_j ⌈R/T_j⌉ · C_j`
    /// converges, or [`SATURATION_SENTINEL`] if it diverges.  `C_j` is the
    /// interferer's per-packet occupation of the contended port
    /// (`router + L`), `T_j` its closed-loop re-offer floor (the lone
    /// latency of one maximum-size packet).
    fn preemption_delay(&mut self, index: usize) -> Option<u64> {
        if let Some(delay) = *self.preemption_memo.get(index)? {
            return Some(delay);
        }
        let delay = if self.hp_interferers[index].is_empty() {
            0
        } else {
            let service = self.packet_service(index)?;
            let cost = ROUTER_CHARGE.saturating_add(u64::from(self.base.contender_flits()));
            let hp = &self.hp_interferers[index];
            let mut response = service;
            let mut converged = None;
            for _ in 0..MAX_RESPONSE_ROUNDS {
                let mut next = service;
                for &j in hp {
                    let period = self.re_offer_period[j];
                    next = next.saturating_add(response.div_ceil(period).saturating_mul(cost));
                }
                if next == response {
                    converged = Some(response - service);
                    break;
                }
                if next >= SATURATION_SENTINEL {
                    break;
                }
                response = next;
            }
            converged.unwrap_or(SATURATION_SENTINEL)
        };
        self.preemption_memo[index] = Some(delay);
        Some(delay)
    }

    /// The terms every bound of flow `id` composes from: its route's
    /// chained-blocking prefix ([`RegularWcttModel::route_prefix`]) and its
    /// preemption delay.
    fn terms(&mut self, id: FlowId) -> Option<(u64, u64)> {
        let preemption = self.preemption_delay(id.0)?;
        if preemption >= SATURATION_SENTINEL {
            // Every bound of the flow saturates whatever its route, so the
            // prefix (and the drains behind it) is never computed.
            return Some((0, preemption));
        }
        let Self { base, flows, .. } = self;
        Some((base.route_prefix(flows.route(id)?), preemption))
    }

    /// The bound of one `own_flits`-flit packet on a route whose
    /// chained-blocking prefix is `prefix`, under the depth envelope `factor`
    /// and a preemption delay of `preemption`, saturating at
    /// [`SATURATION_SENTINEL`].
    pub(crate) fn packet_from_prefix(
        factor: u64,
        prefix: u64,
        own_flits: u32,
        preemption: u64,
    ) -> u64 {
        factor
            .saturating_mul(RegularWcttModel::packet_from_prefix(prefix, own_flits))
            .saturating_add(preemption)
            .min(SATURATION_SENTINEL)
    }

    /// The bound of a message cut into the packets of `split`, none longer
    /// than `max_packet_flits`: the per-packet bounds
    /// ([`PreemptiveOracle::packet_from_prefix`]) summed, plus one full
    /// maximum-size round per inter-packet gap.
    ///
    /// Every gap re-opens a full blocking round for cross-traffic that
    /// queued up in downstream FIFOs between the packets of the train — the
    /// repair of the composition campaigns proved unsound (observed ≤ 1.15 ·
    /// Σ; this charges ≈ 2 · Σ).
    pub(crate) fn message_from_prefix(
        factor: u64,
        prefix: u64,
        split: Split,
        max_packet_flits: u32,
        preemption: u64,
    ) -> u64 {
        let packet = |flits| Self::packet_from_prefix(factor, prefix, flits, preemption);
        let gaps = u64::from(split.packets.saturating_sub(1));
        split
            .sum(packet)
            .saturating_add(gaps.saturating_mul(packet(max_packet_flits)))
            .min(SATURATION_SENTINEL)
    }
}

/// The indices of the set bits of a flow bitset, ascending.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

impl crate::analysis::oracle::WcttBoundModel for PreemptiveOracle {
    fn name(&self) -> &'static str {
        "preemptive"
    }

    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64> {
        let (prefix, preemption) = self.terms(id)?;
        Some(Self::packet_from_prefix(
            self.depth_factor,
            prefix,
            own_flits,
            preemption,
        ))
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let (prefix, preemption) = self.terms(id)?;
        Some(Self::message_from_prefix(
            self.depth_factor,
            prefix,
            self.base.split(message_flits),
            self.base.contender_flits(),
            preemption,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::oracle::WcttBoundModel;
    use crate::geometry::Coord;
    use crate::topology::Mesh;
    use crate::vc::VcAssignment;

    fn all_to_memory(side: u16) -> FlowSet {
        let mesh = Mesh::square(side).unwrap();
        FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap()
    }

    fn default_buffers(config: &NocConfig) -> BufferConfig {
        BufferConfig::uniform(config.input_buffer_flits)
    }

    #[test]
    fn single_vc_default_depth_matches_regular_per_packet() {
        let flows = all_to_memory(5);
        let config = NocConfig::regular(4);
        let mut model = PreemptiveOracle::new(
            &flows,
            &config,
            &default_buffers(&config),
            VcConfig::single(),
        );
        let mut regular = RegularWcttModel::new(&flows, 4);
        for index in 0..flows.len() {
            let id = FlowId(index);
            let route = flows.route(id).unwrap().clone();
            for own in [1u32, 4] {
                assert_eq!(
                    model.packet_bound(id, own).unwrap(),
                    regular.route_wctt(&route, own),
                    "per-packet bound must coincide at the paper design point"
                );
            }
        }
    }

    #[test]
    fn composition_strictly_dominates_the_per_packet_sum() {
        let flows = all_to_memory(4);
        let config = NocConfig::regular(4);
        let mut model = PreemptiveOracle::new(
            &flows,
            &config,
            &default_buffers(&config),
            VcConfig::single(),
        );
        let mut regular = RegularWcttModel::new(&flows, 4);
        let id = FlowId(0);
        let route = flows.route(id).unwrap().clone();
        // Two maximum packets: Σ per-packet plus one full extra round.
        let naive = regular.message_wctt(&route, config.packetization.split(8));
        let repaired = model.message_bound(id, 8).unwrap();
        assert_eq!(repaired, naive + regular.route_wctt(&route, 4));
        // Comfortably above the 15% exceedance campaigns observed.
        assert!(repaired as f64 >= 1.15 * naive as f64);
        // Single packets are unchanged.
        assert_eq!(
            model.message_bound(id, 4).unwrap(),
            regular.route_wctt(&route, 4)
        );
    }

    #[test]
    fn depth_envelope_covers_both_directions() {
        let config = NocConfig::regular(8);
        // Calibration depth: factor 1.
        assert_eq!(
            PreemptiveOracle::depth_envelope_factor(&config, &default_buffers(&config)),
            1
        );
        // Depth 64 trains: 16× ≥ the 3.2× campaigns observed.
        assert_eq!(
            PreemptiveOracle::depth_envelope_factor(&config, &BufferConfig::uniform(64)),
            16
        );
        // Depth-1 credit round-trips: 4×.
        assert_eq!(
            PreemptiveOracle::depth_envelope_factor(&config, &BufferConfig::uniform(1)),
            4
        );
        // Heterogeneous 1..8: both directions compound.
        let mesh = Mesh::square(3).unwrap();
        let het =
            crate::buffers::per_port_table(&mesh, |node, _| if node.index() == 0 { 1 } else { 8 });
        assert_eq!(PreemptiveOracle::depth_envelope_factor(&config, &het), 8);
    }

    #[test]
    fn deep_buffers_scale_the_packet_bound() {
        let flows = all_to_memory(4);
        let config = NocConfig::regular(8);
        let mut calibrated = PreemptiveOracle::new(
            &flows,
            &config,
            &default_buffers(&config),
            VcConfig::single(),
        );
        let mut deep = PreemptiveOracle::new(
            &flows,
            &config,
            &BufferConfig::uniform(64),
            VcConfig::single(),
        );
        let id = FlowId(3);
        assert_eq!(
            deep.packet_bound(id, 8).unwrap(),
            16 * calibrated.packet_bound(id, 8).unwrap()
        );
    }

    #[test]
    fn saturated_higher_priority_interference_pins_the_sentinel() {
        // All-to-one with flows spread over 2 VCs: every VC-1 flow shares its
        // ejection link with saturated VC-0 flows, so its closed-loop
        // response-time iteration diverges.
        let flows = all_to_memory(4);
        let config = NocConfig::regular(4);
        let vcs = VcConfig::new(2, VcAssignment::FlowIndex).unwrap();
        let mut model = PreemptiveOracle::new(&flows, &config, &default_buffers(&config), vcs);
        let mut top_class = 0;
        let mut starved = 0;
        for index in 0..flows.len() {
            let id = FlowId(index);
            let bound = model.message_bound(id, 4).unwrap();
            match model.priority_of(id).unwrap() {
                0 => {
                    assert!(model.interferers_of(id).unwrap().is_empty());
                    assert!(bound < SATURATION_SENTINEL, "VC 0 keeps a finite bound");
                    top_class += 1;
                }
                _ => {
                    assert!(!model.interferers_of(id).unwrap().is_empty());
                    assert_eq!(bound, SATURATION_SENTINEL);
                    starved += 1;
                }
            }
        }
        assert!(top_class > 0 && starved > 0);
    }

    #[test]
    fn message_bound_is_monotone_in_message_size() {
        let flows = all_to_memory(4);
        let config = NocConfig::regular(4);
        for vcs in [
            VcConfig::single(),
            VcConfig::new(3, VcAssignment::Distance).unwrap(),
        ] {
            let mut model = PreemptiveOracle::new(&flows, &config, &default_buffers(&config), vcs);
            for index in 0..flows.len() {
                let mut last = 0;
                for mf in [1u32, 2, 4, 8, 16] {
                    let bound = model.message_bound(FlowId(index), mf).unwrap();
                    assert!(bound >= last, "flow {index} not monotone at mf={mf}");
                    last = bound;
                }
            }
        }
    }

    #[test]
    fn unknown_flow_yields_none() {
        let flows = all_to_memory(3);
        let config = NocConfig::regular(2);
        let mut model = PreemptiveOracle::new(
            &flows,
            &config,
            &default_buffers(&config),
            VcConfig::single(),
        );
        assert!(model.packet_bound(FlowId(flows.len()), 1).is_none());
        assert!(model.message_bound(FlowId(flows.len()), 1).is_none());
    }

    #[test]
    fn indirect_interference_reaches_flows_off_the_shared_route() {
        // A (VC 1) shares row-4 links with B (VC 0); C (VC 0) shares
        // column-0 links with B but none with A.  C must still appear in A's
        // interferer set: it preempts B, which directly interferes with A
        // (Nikolić & Indrusiak's indirect interference).
        let mesh = Mesh::square(5).unwrap();
        let node = |r, c| mesh.node_id(Coord::from_row_col(r, c)).unwrap();
        let pairs = vec![
            // Flow 0 = B: (4,2) -> (0,0), along row 4 then up column 0.
            (node(4, 2), node(0, 0)),
            // Flow 1 = A: (4,4) -> (4,0), row 4 only (overlaps B's row leg).
            (node(4, 4), node(4, 0)),
            // Flow 2 = C: (2,0) -> (0,0), column 0 only (overlaps B's column
            // leg, disjoint from A).
            (node(2, 0), node(0, 0)),
        ];
        let flows = FlowSet::from_pairs(&mesh, pairs).unwrap();
        let config = NocConfig::regular(4);
        // FlowIndex over 2 VCs: flows 0 and 2 (B, C) -> VC 0, flow 1 (A) -> VC 1.
        let vcs = VcConfig::new(2, VcAssignment::FlowIndex).unwrap();
        let model = PreemptiveOracle::new(&flows, &config, &default_buffers(&config), vcs);
        assert_eq!(model.priority_of(FlowId(1)), Some(1));
        // Direct (B) and indirect (C) higher-priority interferers of A.
        assert_eq!(model.interferers_of(FlowId(1)).unwrap(), &[0, 2]);
        // The top class never carries interferers.
        assert!(model.interferers_of(FlowId(0)).unwrap().is_empty());
        assert!(model.interferers_of(FlowId(2)).unwrap().is_empty());
    }
}
