//! Property-based fleet conformance: for random (scenario count, shard
//! count, merge order) triples, the sharded pipeline — partition, per-shard
//! partial reports, a full JSON round trip through the checkpoint codec,
//! and an order-shuffled merge — produces a report *byte-identical* to the
//! single-process [`Campaign::run`] output.
//!
//! A second property damages rendered checkpoints and requires the codec to
//! answer with a named `CorruptCheckpoint`, never a panic.
//!
//! The proptest shim samples from a fixed-seed deterministic stream, so any
//! failure reproduces identically on every run.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::path::Path;
use std::sync::OnceLock;

use wnoc_conformance::fleet::{config_hash, fnv1a, ShardManifest};
use wnoc_conformance::{partition, Campaign, ConformanceReport, PartialReport};
use wnoc_core::Error;

/// Fisher–Yates shuffle driven by a seeded ChaCha stream (the vendored
/// `rand` shim has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharding is invisible: any shard count, any merge order, with every
    /// partial pushed through the render/parse codec, reproduces the
    /// single-process report byte for byte.
    #[test]
    fn sharded_merge_is_byte_identical_to_single_process(
        scenarios in 0usize..=5,
        shards in 1usize..=8,
        seed in 1u64..=500,
        shuffle_seed in any::<u64>(),
        buffer_depths in any::<bool>(),
    ) {
        let campaign = if buffer_depths {
            Campaign::buffer_sweep(seed, scenarios)
        } else {
            Campaign::new(seed, scenarios)
        };
        let reference = campaign.run(2).unwrap();

        // Compute every shard's partial and round-trip it through the
        // checkpoint codec, exactly as the on-disk resume path does.
        let mut partials: Vec<PartialReport> = partition(scenarios, shards)
            .into_iter()
            .map(|range| {
                let partial = PartialReport::compute(&campaign, range).unwrap();
                let json = partial.render_json();
                let back = PartialReport::parse_json(&json, Path::new("inline")).unwrap();
                assert_eq!(back, partial, "codec round trip");
                back
            })
            .collect();

        // Merge in a random completion order: the fold must not care.
        shuffle(&mut partials, shuffle_seed);
        let mut merged = ConformanceReport::empty(campaign.seed);
        for partial in partials {
            merged.merge(partial.into_report());
        }

        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(merged.render_json(), reference.render_json());
        prop_assert_eq!(merged.render(), reference.render());
    }
}

/// One rendered VC-sweep partial, one fault-sweep partial and one manifest,
/// built once per test process: the artifacts the damage property breaks.
fn checkpoint_artifacts() -> &'static [String; 3] {
    static ARTIFACTS: OnceLock<[String; 3]> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let render = |campaign: Campaign| {
            PartialReport::compute(&campaign, partition(campaign.scenarios, 1)[0])
                .unwrap()
                .render_json()
        };
        let vc = render(Campaign::vc_sweep(7, 3));
        let fault = render(Campaign::fault_sweep(7, 3));
        let manifest = ShardManifest {
            config_hash: config_hash(&Campaign::vc_sweep(7, 3)),
            shard: partition(3, 1)[0],
            outcomes: 3,
            partial_digest: fnv1a(vc.as_bytes()),
        }
        .render_json();
        assert!(
            vc.contains("\"kind\":\"count\""),
            "the VC partial carries VCs"
        );
        assert!(
            fault.contains("\"faults\":"),
            "the fault partial carries faults"
        );
        [vc, fault, manifest]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Damaged checkpoint bytes — truncated at any byte, up to five bytes
    /// overwritten with printable ASCII, or both — either parse or fail with
    /// a named `CorruptCheckpoint`, and whatever parses renders without
    /// panicking.
    #[test]
    fn damaged_checkpoints_parse_or_are_corrupt(
        artifact in 0usize..3,
        damage in 0u32..3,
        cut in any::<u64>(),
        overwrites in prop::collection::vec((any::<u64>(), 0x20u8..0x7f), 1..6),
    ) {
        let mut bytes = checkpoint_artifacts()[artifact].clone().into_bytes();
        if damage != 1 {
            bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        }
        if damage != 0 && !bytes.is_empty() {
            for (at, byte) in overwrites {
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] = byte;
            }
        }
        // The artifacts are ASCII, and so is every byte written over them.
        let text = String::from_utf8(bytes).unwrap();
        let path = Path::new("damaged.json");
        let parsed = if artifact == 2 {
            ShardManifest::parse_json(&text, path).map(|manifest| manifest.render_json())
        } else {
            PartialReport::parse_json(&text, path).map(|partial| {
                let report = partial.into_report();
                report.render() + &report.render_json()
            })
        };
        match parsed {
            Ok(rendered) => prop_assert!(!rendered.is_empty()),
            Err(Error::CorruptCheckpoint { .. }) => {}
            Err(other) => panic!("damaged checkpoint failed with {other}"),
        }
    }
}
