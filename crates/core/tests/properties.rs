//! Property-based tests over the core primitives: routing, flow counting,
//! weights, packetization, arbitration and the preemptive interference sets.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use wnoc_core::analysis::preemptive::PreemptiveOracle;
use wnoc_core::analysis::{RegularWcttModel, WeightedWcttModel};
use wnoc_core::arbitration::{RoundRobinArbiter, WawArbiter};
use wnoc_core::config::zero_load_head_latency;
use wnoc_core::flow::FlowSet;
use wnoc_core::geometry::Coord;
use wnoc_core::packetization::{
    MessageDescriptor, PacketizationPolicy, Packetizer, CONTROL_BITS, LINK_WIDTH_BITS,
};
use wnoc_core::port::{Direction, Port};
use wnoc_core::routing::{xy_turn_allowed, Route, RoutingAlgorithm, XyRouting};
use wnoc_core::topology::Mesh;
use wnoc_core::weights::WeightTable;
use wnoc_core::{
    BufferConfig, FlowId, MessageId, NocConfig, NodeId, PacketId, VcAssignment, VcConfig,
};

fn mesh_dims() -> impl Strategy<Value = (u16, u16)> {
    (1u16..=6, 1u16..=6).prop_filter("at least two nodes", |(w, h)| *w * *h >= 2)
}

/// Greedy reference slicing, written out packet by packet: maximum-size
/// packets until the message is used up under regular packetization; under
/// WaP, single-flit slices each carrying one slice's worth of payload bits
/// until the payload is carried, and at least one slice.
fn reference_sizes(policy: PacketizationPolicy, flits: u32) -> Vec<u32> {
    let mut sizes = Vec::new();
    match policy {
        PacketizationPolicy::Regular { max_packet_flits } => {
            let mut remaining = flits;
            while remaining > 0 {
                let take = remaining.min(max_packet_flits);
                sizes.push(take);
                remaining -= take;
            }
        }
        PacketizationPolicy::Wap => {
            let mut payload = (flits * LINK_WIDTH_BITS).saturating_sub(CONTROL_BITS);
            loop {
                sizes.push(1);
                payload = payload.saturating_sub(LINK_WIDTH_BITS - CONTROL_BITS);
                if payload == 0 {
                    break;
                }
            }
        }
    }
    sizes
}

/// The split of a `flits`-flit message equals the greedy reference, its flit
/// total equals `wire_flits`, and the packetizer emits exactly its packets,
/// with sequential ids across two messages (a zero-flit message is rejected).
fn check_split(policy: PacketizationPolicy, flits: u32) {
    let split = policy.split(flits);
    let sizes: Vec<u32> = (0..split.packets).map(|i| split.packet_flits(i)).collect();
    let reference = reference_sizes(policy, flits);
    assert_eq!(&sizes, &reference);
    let mut packetizer = Packetizer::new(policy).unwrap();
    assert_eq!(split.wire_flits(), reference.iter().sum::<u32>());
    assert_eq!(packetizer.wire_flits(flits), split.wire_flits());
    let msg = MessageDescriptor {
        id: MessageId(7),
        flow: FlowId(0),
        src: NodeId(1),
        dst: NodeId(0),
        regular_flits: flits,
        created: 0,
    };
    if flits == 0 {
        assert!(packetizer.flits(&msg).is_err());
        return;
    }
    let mut next_packet = 0;
    for _ in 0..2 {
        let mut emitted = packetizer.flits(&msg).unwrap();
        for &size in &reference {
            for seq in 0..size {
                let flit = emitted.next().expect("one flit per split flit");
                assert_eq!(flit.packet, PacketId(next_packet));
                assert_eq!(flit.seq, seq);
                assert_eq!(flit.message, MessageId(7));
            }
            next_packet += 1;
        }
        assert!(emitted.next().is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XY routes are minimal (Manhattan length) and every hop is a legal turn.
    #[test]
    fn xy_routes_are_minimal_and_legal(
        (w, h) in mesh_dims(),
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::new(w, h).unwrap();
        let nodes = mesh.router_count() as u64;
        let src_idx = (seed % nodes) as usize;
        let dst_idx = ((seed / nodes) % nodes) as usize;
        let src = mesh.coord_of(NodeId(src_idx)).unwrap();
        let dst = mesh.coord_of(NodeId(dst_idx)).unwrap();
        let route = XyRouting.route(&mesh, src, dst).unwrap();
        prop_assert_eq!(route.hop_count(), src.manhattan_distance(dst));
        prop_assert_eq!(route.hops().first().unwrap().router, src);
        prop_assert_eq!(route.hops().last().unwrap().router, dst);
        for hop in route.hops() {
            prop_assert!(xy_turn_allowed(hop.input, hop.output));
        }
        // Routes never revisit a router.
        let mut seen: Vec<Coord> = route.hops().iter().map(|h| h.router).collect();
        let len = seen.len();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len(), len);
    }

    /// Flow conservation: at every router the number of traversing flows
    /// entering equals the number leaving, for arbitrary destinations.
    #[test]
    fn flow_conservation_all_to_one((w, h) in mesh_dims(), seed in any::<u64>()) {
        let mesh = Mesh::new(w, h).unwrap();
        let nodes = mesh.router_count() as u64;
        let dst = mesh.coord_of(NodeId((seed % nodes) as usize)).unwrap();
        let flows = FlowSet::all_to_one(&mesh, dst).unwrap();
        prop_assert_eq!(flows.len(), mesh.router_count() - 1);
        let table = WeightTable::from_flow_set(&flows);
        let input_flows = |router, input| -> u32 {
            Port::ALL.iter().map(|&output| table.quota(router, input, output)).sum()
        };
        for router in mesh.routers() {
            let inputs: u32 = mesh.ports(router).iter()
                .map(|&p| input_flows(router, p)).sum();
            let outputs: u32 = mesh.ports(router).iter()
                .map(|&p| table.output_flows(router, p)).sum();
            prop_assert_eq!(inputs, outputs);
            // What leaves over a link enters the router at its far end.
            for dir in mesh.mesh_ports(router) {
                let next = mesh.neighbor(router, dir).unwrap();
                prop_assert_eq!(
                    table.output_flows(router, Port::Mesh(dir)),
                    input_flows(next, Port::Mesh(dir.opposite()))
                );
            }
        }
        // Every flow's route ends at the destination's local port.
        for (id, _flow) in flows.iter() {
            let route = flows.route(id).unwrap();
            prop_assert_eq!(route.dst(), dst);
            prop_assert_eq!(route.hops().last().unwrap().output, Port::Local);
        }
    }

    /// Weights of every output port form a probability distribution (sum to 1)
    /// and each individual weight lies in (0, 1].
    #[test]
    fn weights_normalise((w, h) in mesh_dims(), seed in any::<u64>()) {
        let mesh = Mesh::new(w, h).unwrap();
        let nodes = mesh.router_count() as u64;
        let dst = mesh.coord_of(NodeId((seed % nodes) as usize)).unwrap();
        let flows = FlowSet::all_to_one(&mesh, dst).unwrap();
        let table = WeightTable::from_flow_set(&flows);
        for router in mesh.routers() {
            for output in mesh.ports(router) {
                if table.output_flows(router, output) == 0 {
                    continue;
                }
                let mut sum = 0.0;
                for input in Port::ALL {
                    let weight = table.weight(router, input, output);
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&weight));
                    sum += weight;
                }
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }

    /// WaP slicing preserves the payload: the slices carry at least as many
    /// payload bits as the original message and the slice count is the
    /// closed-form `⌈payload / (link width − control)⌉` (at least one).  The
    /// split agrees with the greedy reference, `wire_flits` and the
    /// packetizer's flits.
    #[test]
    fn wap_slicing_preserves_payload(regular_flits in 0u32..64) {
        let policy = PacketizationPolicy::Wap;
        let split = policy.split(regular_flits);
        let payload_bits = (regular_flits * LINK_WIDTH_BITS).saturating_sub(CONTROL_BITS);
        let slice_payload = LINK_WIDTH_BITS - CONTROL_BITS;
        prop_assert_eq!(split.packets, payload_bits.div_ceil(slice_payload).max(1));
        // Every slice can carry link_width - control payload bits; together they
        // cover the original payload.
        let capacity = split.packets * slice_payload;
        prop_assert!(capacity >= payload_bits);
        // The wire overhead never exceeds one extra slice per original flit
        // (an empty message still sends one slice).
        prop_assert!(split.packets <= (2 * regular_flits).max(1));
        check_split(policy, regular_flits);
    }

    /// Regular packetization never produces packets larger than L and covers
    /// exactly the message length.  The split agrees with the greedy
    /// reference, `wire_flits` and the packetizer's flits.
    #[test]
    fn regular_packetization_covers_message(
        regular_flits in 0u32..64,
        max_packet in 1u32..16,
    ) {
        let policy = PacketizationPolicy::Regular { max_packet_flits: max_packet };
        let split = policy.split(regular_flits);
        prop_assert_eq!(split.wire_flits(), regular_flits);
        prop_assert!(split.size <= max_packet && split.last <= max_packet);
        check_split(policy, regular_flits);
    }

    /// The weighted arbiter's long-run grant shares match the configured quotas
    /// under saturation, for arbitrary small quota vectors.
    #[test]
    fn waw_arbiter_matches_quotas(q_west in 1u32..8, q_north in 1u32..8, q_east in 1u32..8) {
        let west = Port::Mesh(Direction::West);
        let north = Port::Mesh(Direction::North);
        let east = Port::Mesh(Direction::East);
        let mut arb = WawArbiter::new(&[(west, q_west), (north, q_north), (east, q_east)]);
        let total_quota = q_west + q_north + q_east;
        let rounds = 200 * total_quota;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..rounds {
            let winner = arb.grant(&[west, north, east]).unwrap();
            *counts.entry(winner).or_insert(0u32) += 1;
        }
        let expect = |q: u32| f64::from(rounds) * f64::from(q) / f64::from(total_quota);
        for (port, quota) in [(west, q_west), (north, q_north), (east, q_east)] {
            let got = f64::from(*counts.get(&port).unwrap_or(&0));
            let want = expect(quota);
            prop_assert!((got - want).abs() <= f64::from(total_quota) + 1.0,
                "port {port}: got {got}, want {want}");
        }
    }

    /// Round-robin never lets any requester wait more than `Port::COUNT`
    /// consecutive grants.
    #[test]
    fn round_robin_bounded_waiting(request_mask in 1u8..31) {
        let requests: Vec<Port> = Port::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| request_mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        prop_assume!(!requests.is_empty());
        let mut arb = RoundRobinArbiter::new();
        let mut last_grant = [0usize; Port::COUNT];
        for cycle in 1..=100usize {
            let winner = arb.grant(&requests).unwrap();
            last_grant[winner.index()] = cycle;
        }
        for p in &requests {
            let gap = 100 - last_grant[p.index()];
            prop_assert!(gap <= requests.len(), "port {p} waited {gap}");
        }
    }

    /// The analytical WaW+WaP bound always dominates the zero-load latency and
    /// is itself dominated by the regular chained-blocking bound for flows far
    /// from the destination.
    #[test]
    fn analytical_bounds_ordering(side in 3u16..6, seed in any::<u64>()) {
        let mesh = Mesh::square(side).unwrap();
        let memory = Coord::from_row_col(0, 0);
        let flows = FlowSet::all_to_one(&mesh, memory).unwrap();
        let nodes = mesh.router_count() as u64;
        let src = mesh.coord_of(NodeId((seed % nodes) as usize)).unwrap();
        prop_assume!(src != memory);
        let route = XyRouting.route(&mesh, src, memory).unwrap();
        let mut regular = RegularWcttModel::new(&flows, 1);
        let weighted = WeightedWcttModel::new(WeightTable::from_flow_set(&flows), 1);
        let zero_load = zero_load_head_latency(route.hop_count());
        let reg = regular.route_wctt(&route, 1);
        let waw = weighted.packet_wctt(&route);
        prop_assert!(reg >= zero_load);
        prop_assert!(waw >= zero_load);
        // For any flow at distance >= 3 the chained-blocking bound dominates.
        if route.hop_count() >= 3 {
            prop_assert!(reg >= waw, "regular {reg} < weighted {waw} for {src}");
        }
    }

    /// Node-id/coordinate round trip over arbitrary meshes.
    #[test]
    fn node_id_round_trip((w, h) in mesh_dims()) {
        let mesh = Mesh::new(w, h).unwrap();
        for node in mesh.nodes() {
            let coord = mesh.coord_of(node).unwrap();
            prop_assert_eq!(mesh.node_id(coord).unwrap(), node);
        }
    }

    /// Arbitrary coordinates inside the mesh always produce a valid coordinate
    /// conversion, outside coordinates always fail.
    #[test]
    fn coord_bounds_checking((w, h) in mesh_dims(), x in 0u16..10, y in 0u16..10) {
        let mesh = Mesh::new(w, h).unwrap();
        let coord = Coord::new(x, y);
        let inside = x < w && y < h;
        prop_assert_eq!(mesh.node_id(coord).is_ok(), inside);
        prop_assert_eq!(mesh.contains(coord), inside);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The regular chained-blocking WCTT is monotone in the contender packet
    /// size L (assumption (4): larger allowed packets can only hurt).
    #[test]
    fn regular_bound_monotone_in_packet_size(side in 3u16..6, l in 1u32..8) {
        let mesh = Mesh::square(side).unwrap();
        let memory = Coord::from_row_col(0, 0);
        let flows = FlowSet::all_to_one(&mesh, memory).unwrap();
        let corner = XyRouting
            .route(&mesh, Coord::new(side - 1, side - 1), memory)
            .unwrap();
        let mut small = RegularWcttModel::new(&flows, l);
        let mut large = RegularWcttModel::new(&flows, l + 1);
        prop_assert!(large.route_wctt(&corner, 1) >= small.route_wctt(&corner, 1));
    }
}

/// `hp(S_D ∪ S_I)` for every flow by direct construction over hashed link
/// sets: the reference the bitset construction in [`PreemptiveOracle`] must
/// reproduce exactly.
fn reference_interferers(flows: &FlowSet, priority: &[u8]) -> Vec<Vec<usize>> {
    let n = flows.len();
    // A flow's links: every (router, output port) pair along its route,
    // ejection hop included.
    let link_sets: Vec<HashSet<(Coord, Port)>> = (0..n)
        .map(|index| {
            let route = flows.route(FlowId(index)).unwrap();
            route
                .hops()
                .iter()
                .map(|hop| (hop.router, hop.output))
                .collect()
        })
        .collect();
    let mut direct: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if !link_sets[i].is_disjoint(&link_sets[j]) {
                direct[i].push(j);
                direct[j].push(i);
            }
        }
    }
    (0..n)
        .map(|i| {
            let mut set = HashSet::new();
            for &j in &direct[i] {
                if priority[j] < priority[i] {
                    set.insert(j);
                }
                // Indirect: flows sharing links with the direct interferer j
                // (whether or not they touch i's route).
                for &k in &direct[j] {
                    if k != i && priority[k] < priority[i] {
                        set.insert(k);
                    }
                }
            }
            let mut hp: Vec<usize> = set.into_iter().collect();
            hp.sort_unstable();
            hp
        })
        .collect()
}

/// A flow set on a `side × side` mesh: all-to-one towards a seeded node, or
/// `pairs` seeded (source, destination) pairs, duplicates allowed.
fn seeded_flow_set(side: u16, all_to_one: bool, pairs: usize, seed: u64) -> FlowSet {
    let mesh = Mesh::square(side).unwrap();
    let nodes = mesh.router_count() as u64;
    let mut state = seed;
    let mut draw = || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        NodeId(((z ^ (z >> 31)) % nodes) as usize)
    };
    if all_to_one {
        return FlowSet::all_to_one(&mesh, mesh.coord_of(draw()).unwrap()).unwrap();
    }
    let pairs: Vec<(NodeId, NodeId)> = std::iter::repeat_with(|| (draw(), draw()))
        .filter(|(src, dst)| src != dst)
        .take(pairs)
        .collect();
    FlowSet::from_pairs(&mesh, pairs).unwrap()
}

/// Asserts the oracle's interferer lists equal the reference for every flow
/// of `flows` under `vcs`.
fn assert_interferers_match_reference(flows: &FlowSet, vcs: VcConfig) {
    let config = NocConfig::regular(4);
    let oracle = PreemptiveOracle::new(
        flows,
        &config,
        &BufferConfig::uniform(config.input_buffer_flits),
        vcs,
    );
    let priority: Vec<u8> = (0..flows.len())
        .map(|index| oracle.priority_of(FlowId(index)).unwrap())
        .collect();
    for (index, expected) in reference_interferers(flows, &priority).iter().enumerate() {
        assert_eq!(
            oracle.interferers_of(FlowId(index)).unwrap(),
            expected.as_slice(),
            "flow {index} of {} under {}",
            flows.len(),
            vcs.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The preemptive oracle's bitset `hp(S_D ∪ S_I)` equals the hashed-set
    /// reference for every flow: sides 2–12, all-to-one and seeded pairs (up
    /// to 200 flows, so bitsets span up to four words), 2–4 VCs under both
    /// assignment rules.
    #[test]
    fn preemptive_interferers_match_reference(
        side in 2u16..=12,
        all_to_one in any::<bool>(),
        pairs in 1usize..=200,
        seed in any::<u64>(),
        vc_count in 2u32..=4,
        by_distance in any::<bool>(),
    ) {
        let flows = seeded_flow_set(side, all_to_one, pairs, seed);
        let assignment = if by_distance { VcAssignment::Distance } else { VcAssignment::FlowIndex };
        assert_interferers_match_reference(&flows, VcConfig::new(vc_count, assignment).unwrap());
    }
}

/// The same equivalence pinned at and across the 64-flow word boundaries,
/// which random sizes hit only by chance.
#[test]
fn preemptive_interferers_match_reference_across_word_boundaries() {
    for pairs in [63, 64, 65, 127, 128, 129] {
        let flows = seeded_flow_set(12, false, pairs, pairs as u64);
        for vc_count in 2..=4 {
            for assignment in [VcAssignment::FlowIndex, VcAssignment::Distance] {
                assert_interferers_match_reference(
                    &flows,
                    VcConfig::new(vc_count, assignment).unwrap(),
                );
            }
        }
    }
    // 12×12 all-to-one: 143 flows, every one sharing the ejection link.
    let flows = seeded_flow_set(12, true, 0, 0);
    assert_eq!(flows.len(), 143);
    assert_interferers_match_reference(&flows, VcConfig::new(3, VcAssignment::Distance).unwrap());
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Asserts every read of `table` matches the `HashMap` counts of `routes`,
/// the live routes it was built or delta-maintained from.
fn assert_table_matches_routes(table: &WeightTable, mesh: &Mesh, routes: &[Route]) {
    let mut pair_counts: HashMap<(Coord, Port, Port), u32> = HashMap::new();
    let mut output_counts: HashMap<(Coord, Port), u32> = HashMap::new();
    for hop in routes.iter().flat_map(|route| route.hops()) {
        *pair_counts
            .entry((hop.router, hop.input, hop.output))
            .or_default() += 1;
        *output_counts.entry((hop.router, hop.output)).or_default() += 1;
    }
    for router in mesh.routers() {
        let mut expected_pairs = Vec::new();
        for output in Port::ALL {
            let flows = output_counts.get(&(router, output)).copied().unwrap_or(0);
            assert_eq!(
                table.output_flows(router, output),
                flows,
                "{router} {output}"
            );
            let mut raw = Vec::new();
            for input in Port::ALL {
                let quota = pair_counts
                    .get(&(router, input, output))
                    .copied()
                    .unwrap_or(0);
                assert_eq!(table.quota(router, input, output), quota);
                if quota > 0 {
                    raw.push((input, quota));
                    expected_pairs.push((input, output, quota));
                }
            }
            let divisor = raw.iter().fold(0, |acc, &(_, quota)| gcd(acc, quota));
            let reduced: Vec<(Port, u32)> = raw
                .iter()
                .map(|&(input, quota)| (input, quota / divisor))
                .collect();
            assert_eq!(table.reduced_quotas(router, output), reduced);
            // The round-robin reads: which inputs carry a flow towards the
            // output, and how many of them other than a given input (and
            // other than the U-turn input facing the output) do.
            let supported = |input: Port| {
                pair_counts
                    .get(&(router, input, output))
                    .is_some_and(|&count| count > 0)
            };
            let support = Port::ALL
                .iter()
                .filter(|&&input| supported(input))
                .fold(0, |mask, input| mask | 1 << input.index());
            assert_eq!(table.column_support(router, output), support);
            for input in Port::ALL {
                let contenders = Port::ALL
                    .iter()
                    .filter(|&&other| other != input && other != output && supported(other))
                    .count() as u32;
                assert_eq!(
                    table.contender_count(router, input, output),
                    contenders,
                    "{router} {input}->{output}"
                );
            }
        }
        assert_eq!(table.pairs(router), expected_pairs, "{router}");
    }
    // Coordinates outside the mesh read zero, including the ones a row-major
    // index without a bounds check would alias onto a real router.
    let (w, h) = (mesh.width(), mesh.height());
    for outside in [Coord::new(w, 0), Coord::new(0, h), Coord::new(w + 3, h + 1)] {
        for output in Port::ALL {
            assert_eq!(table.output_flows(outside, output), 0);
            assert!(table.reduced_quotas(outside, output).is_empty());
            assert_eq!(table.column_support(outside, output), 0);
            for input in Port::ALL {
                assert_eq!(table.quota(outside, input, output), 0);
                assert_eq!(table.contender_count(outside, input, output), 0);
            }
        }
        assert!(table.pairs(outside).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dense weight table, built from a random pair set on a non-square
    /// mesh and then delta-maintained through random route additions and
    /// removals, agrees after every step with `HashMap` counts of the live
    /// routes and with a rebuild from the mutated flow set.
    #[test]
    fn weight_table_deltas_match_reference(
        (w, h) in (2u16..=7, 2u16..=7).prop_filter("non-square", |(w, h)| w != h),
        initial in prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
        steps in prop::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..32),
    ) {
        let mesh = Mesh::new(w, h).unwrap();
        let nodes = mesh.router_count() as u32;
        let pair = |a: u32, b: u32| {
            let src = a % nodes;
            // Offsetting by 1..nodes keeps the destination distinct.
            let dst = (src + 1 + b % (nodes - 1)) % nodes;
            (NodeId(src as usize), NodeId(dst as usize))
        };
        let route_of = |(src, dst): (NodeId, NodeId)| {
            XyRouting
                .route(&mesh, mesh.coord_of(src).unwrap(), mesh.coord_of(dst).unwrap())
                .unwrap()
        };
        let mut pairs: Vec<(NodeId, NodeId)> =
            initial.iter().map(|&(a, b)| pair(a, b)).collect();
        let mut routes: Vec<Route> = pairs.iter().map(|&p| route_of(p)).collect();
        let mut table = WeightTable::from_flow_set(&FlowSet::from_pairs(&mesh, pairs.clone()).unwrap());
        assert_table_matches_routes(&table, &mesh, &routes);
        for (add, a, b) in steps {
            if add || pairs.is_empty() {
                let added = pair(a, b);
                let route = route_of(added);
                table.apply_route_delta(&route, true);
                pairs.push(added);
                routes.push(route);
            } else {
                let index = a as usize % pairs.len();
                pairs.swap_remove(index);
                let route = routes.swap_remove(index);
                table.apply_route_delta(&route, false);
            }
            assert_table_matches_routes(&table, &mesh, &routes);
            let rebuilt = WeightTable::from_flow_set(&FlowSet::from_pairs(&mesh, pairs.clone()).unwrap());
            prop_assert_eq!(&table, &rebuilt);
        }
    }
}

/// Non-proptest sanity check: the property harness file also exercises the
/// public facade imports used above.
#[test]
fn facade_types_are_reachable() {
    let mesh = Mesh::square(2).unwrap();
    assert_eq!(mesh.router_count(), 4);
}
