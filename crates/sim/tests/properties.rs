//! Property-based tests of the cycle-accurate simulator: conservation,
//! wormhole integrity and determinism under randomised traffic.

use proptest::prelude::*;

use wnoc_core::flow::FlowSet;
use wnoc_core::packetization::{CONTROL_BITS, LINK_WIDTH_BITS};
use wnoc_core::{Coord, Mesh, NocConfig, NodeId};
use wnoc_sim::network::Network;
use wnoc_sim::traffic::{RandomTraffic, TrafficPattern};

fn config_strategy() -> impl Strategy<Value = NocConfig> {
    prop_oneof![
        Just(NocConfig::regular(1)),
        Just(NocConfig::regular(4)),
        Just(NocConfig::regular(8)),
        Just(NocConfig::waw_wap()),
        Just(NocConfig::wap_only()),
        Just(NocConfig::waw_only(4)),
    ]
}

fn build(side: u16, config: NocConfig) -> Network {
    let mesh = Mesh::square(side).unwrap();
    let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
    Network::new(mesh, config, &flows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every message offered to the network is eventually delivered in full,
    /// for any design point and any batch of random messages: no flit is ever
    /// lost or duplicated.
    #[test]
    fn all_offered_messages_are_delivered(
        config in config_strategy(),
        seed in any::<u64>(),
        message_count in 1usize..40,
        size in 1u32..6,
    ) {
        let side = 4u16;
        let mut network = build(side, config);
        let mesh = Mesh::square(side).unwrap();
        let nodes = mesh.router_count() as u64;
        let mut offered_messages = 0u64;
        let mut state = seed;
        for _ in 0..message_count {
            // Simple deterministic LCG so the test is reproducible from `seed`.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = NodeId((state >> 16) as usize % nodes as usize);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let dst = NodeId((state >> 16) as usize % nodes as usize);
            if src == dst {
                continue;
            }
            network.offer(src, dst, size).unwrap();
            offered_messages += 1;
        }
        prop_assert!(network.run_until_drained(200_000));
        let stats = network.stats();
        prop_assert_eq!(stats.messages_delivered, offered_messages);
        prop_assert_eq!(stats.flits_injected, stats.flits_delivered);
        prop_assert_eq!(stats.packets_injected, stats.packets_delivered);
    }

    /// Under WaP every delivered packet is a single flit, and the number of
    /// flits on the wire for an n-flit message matches the analytical slicing
    /// (25% overhead for 4-flit cache lines).
    #[test]
    fn wap_wire_occupancy_matches_packetizer(size in 1u32..9, seed in any::<u64>()) {
        let mut network = build(4, NocConfig::waw_wap());
        let mesh = Mesh::square(4).unwrap();
        let nodes = mesh.router_count();
        let src = NodeId(1 + (seed as usize % (nodes - 1)));
        let dst = NodeId(0);
        prop_assume!(src != dst);
        network.offer(src, dst, size).unwrap();
        prop_assert!(network.run_until_drained(50_000));
        let stats = network.stats();
        let payload_bits = (size * LINK_WIDTH_BITS).saturating_sub(CONTROL_BITS);
        let expected = u64::from(payload_bits.div_ceil(LINK_WIDTH_BITS - CONTROL_BITS).max(1));
        prop_assert_eq!(stats.flits_delivered, expected);
        prop_assert_eq!(stats.packets_delivered, expected);
    }

    /// The simulator is deterministic: the same configuration and the same
    /// random-traffic seed produce identical statistics.
    #[test]
    fn random_traffic_runs_are_deterministic(seed in any::<u64>(), rate in 1u32..20) {
        let run = || {
            let mesh = Mesh::square(4).unwrap();
            let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
            let mut network = Network::new(mesh, NocConfig::waw_wap(), &flows).unwrap();
            let mut traffic = RandomTraffic::new(
                mesh,
                TrafficPattern::UniformRandom,
                f64::from(rate) / 100.0,
                2,
                seed,
            )
            .unwrap();
            for cycle in 0..300 {
                for msg in traffic.messages_for_cycle(cycle) {
                    network.offer(msg.src, msg.dst, msg.size_flits).unwrap();
                }
                network.step();
            }
            network.run_until_drained(100_000);
            let stats = network.stats();
            (
                stats.messages_delivered,
                stats.flits_delivered,
                stats.overall_traversal_latency().max,
                stats.overall_traversal_latency().sum,
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Latency sanity: every delivered message's traversal latency is at least
    /// its hop count and its end-to-end latency is at least its traversal
    /// latency.
    #[test]
    fn latencies_respect_physical_lower_bounds(config in config_strategy(), seed in any::<u64>()) {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let mut network = Network::new(mesh, config, &flows).unwrap();
        let nodes = mesh.router_count() as u64;
        let src_index = 1 + (seed % (nodes - 1)) as usize;
        let src = NodeId(src_index);
        let dst = NodeId(0);
        network.offer(src, dst, 2).unwrap();
        prop_assert!(network.run_until_drained(50_000));
        let flow = network.flow_id(src, dst);
        let stats = network.stats();
        let traversal = stats.flow_traversal_latency(flow).unwrap();
        let end_to_end = stats.flow_message_latency(flow).unwrap();
        let hops = mesh
            .coord_of(src)
            .unwrap()
            .manhattan_distance(Coord::from_row_col(0, 0));
        prop_assert!(traversal.min >= u64::from(hops));
        prop_assert!(end_to_end.max >= traversal.max);
    }
}
