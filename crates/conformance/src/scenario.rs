//! Randomized conformance scenarios: a sampled platform (mesh, flow set,
//! design, message size) plus the machine-checked invariants tying the
//! cycle-accurate simulator to the analytic WCTT bounds.
//!
//! Each scenario runs the simulator under the *closed-loop probing*
//! discipline ([`wnoc_sim::Simulation::run_closed_loop`]) and asserts, per
//! flow:
//!
//! * **dominance** — the worst observed traversal latency never exceeds the
//!   bound of any analysis that claims observation safety
//!   ([`WcttBoundModel::dominates_observation`]);
//! * **cross-analysis ordering** — the slot-model bottleneck envelope sits
//!   below the primary bound, and the UBD packetization composition sits
//!   between the single-flit bound and the naive sum of per-packet bounds.
//!
//! Scenario sampling is fully determined by `(campaign_seed, index)` through
//! `rand_chacha`, so any failure reproduces from two integers.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wnoc_core::analysis::oracle::{
    oracle_suite_with_counts, oracle_suite_with_curve, BufferAwareOracle, GraphBufferAwareOracle,
    WcttBoundModel,
};
use wnoc_core::analysis::preemptive::SATURATION_SENTINEL;
use wnoc_core::analysis::BufferAwareWcttModel;
use wnoc_core::buffers::per_port_table;
use wnoc_core::fault::reroute_flows;
use wnoc_core::flow::{FlowId, FlowSet};
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::weights::WeightTable;
use wnoc_core::{
    ArrivalCurve, BufferConfig, Coord, FaultPlan, Mesh, NocConfig, NodeId, Result,
    RetransmitPolicy, TreeRouting,
};
use wnoc_sim::{LatencyStats, SaturatedReport, Simulation};
use wnoc_workloads::Placement;

/// The NoC design a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignChoice {
    /// Baseline round-robin mesh with maximum packet size `L`.
    Regular {
        /// Maximum packet size in flits (the paper's `L`).
        max_packet_flits: u32,
    },
    /// The proposed WaW + WaP design.
    WawWap,
}

impl DesignChoice {
    /// The concrete configuration.
    pub fn config(&self) -> NocConfig {
        match *self {
            DesignChoice::Regular { max_packet_flits } => NocConfig::regular(max_packet_flits),
            DesignChoice::WawWap => NocConfig::waw_wap(),
        }
    }

    /// Human-readable label (matches [`NocConfig::label`]).
    pub fn label(&self) -> String {
        self.config().label()
    }
}

/// The router input-buffer sizing of a scenario — the buffer-depth dimension
/// of the conformance space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferChoice {
    /// The design's historical buffering (uniform at
    /// [`NocConfig::input_buffer_flits`]); scenarios sampled by
    /// [`Scenario::sample`] always use it, keeping legacy campaigns
    /// byte-identical.
    Default,
    /// Uniform buffers of the given depth, in flits — the sweep points
    /// {1, 2, 8, [`BufferConfig::INFINITE_EQUIVALENT`]} plus the default 4.
    Uniform {
        /// Buffer depth in flits.
        depth: u32,
    },
    /// A seeded heterogeneous assignment: every `(router, input port)` draws
    /// its depth from {1, 2, 4, 8} via `ChaCha8Rng(seed)`.
    Heterogeneous {
        /// Seed of the per-port depth assignment.
        seed: u64,
    },
}

impl BufferChoice {
    /// Materialises the concrete [`BufferConfig`] over `mesh`.
    pub fn config(&self, noc: &NocConfig, mesh: &Mesh) -> BufferConfig {
        match *self {
            BufferChoice::Default => BufferConfig::uniform(noc.input_buffer_flits),
            BufferChoice::Uniform { depth } => BufferConfig::uniform(depth),
            BufferChoice::Heterogeneous { seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                per_port_table(mesh, |_, _| 1 << rng.gen_range(0u32..4))
            }
        }
    }

    /// Label suffix for reports; empty for the default buffering so legacy
    /// scenario labels are unchanged.
    pub fn label_suffix(&self) -> String {
        match *self {
            BufferChoice::Default => String::new(),
            BufferChoice::Uniform { depth } => format!(" d={depth}"),
            BufferChoice::Heterogeneous { seed } => format!(" d=het#{seed}"),
        }
    }
}

/// The virtual-channel configuration of a scenario — the VC dimension of the
/// conformance space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcChoice {
    /// The paper's single-queue router ([`VcConfig::single`]); scenarios
    /// sampled by [`Scenario::sample`] and [`Scenario::sample_buffered`]
    /// always use it, keeping legacy campaigns byte-identical.
    Default,
    /// `count` virtual channels per input port with the given static flow →
    /// VC assignment (VC 0 is the highest priority class).
    Count {
        /// VCs per input port (2..=[`wnoc_core::vc::MAX_VCS`]).
        count: u32,
        /// The flow → VC assignment rule.
        assignment: VcAssignment,
    },
}

impl VcChoice {
    /// Materialises the concrete [`VcConfig`].
    pub fn config(&self) -> VcConfig {
        match *self {
            VcChoice::Default => VcConfig::single(),
            VcChoice::Count { count, assignment } => VcConfig::new(count, assignment)
                .expect("sampled VC counts are valid by construction"),
        }
    }

    /// Label suffix for reports; empty for the single-VC default so legacy
    /// scenario labels are unchanged.
    pub fn label_suffix(&self) -> String {
        match self {
            VcChoice::Default => String::new(),
            VcChoice::Count { .. } => format!(" {}", self.config().label()),
        }
    }
}

/// The traffic discipline of a scenario — the arrival dimension of the
/// conformance space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficChoice {
    /// Closed-loop probing ([`Simulation::run_closed_loop`]): every flow
    /// keeps exactly one message in flight, observing *traversal* latencies.
    /// Scenarios sampled outside the bursty dimension always use it, keeping
    /// legacy campaigns byte-identical.
    ClosedLoop,
    /// Open-loop bursty arrivals ([`Simulation::run_bursty`]): every flow
    /// releases messages along the arrival curve `(burst, gap, cv)`,
    /// observing *end-to-end message* latencies (queueing behind the flow's
    /// own admitted backlog included) against the graph-based buffer-aware
    /// bound.
    Bursty {
        /// Messages released back-to-back at cycle zero (the curve's `b`).
        burst: u32,
        /// Sustained inter-arrival gap in cycles.
        gap: u32,
        /// Jitter knob: each release may slip by up to `gap * cv / 100`
        /// cycles (seeded, per flow).
        cv: u32,
    },
}

impl TrafficChoice {
    /// The concrete arrival contract, or `None` for the closed-loop default.
    pub fn curve(&self) -> Option<ArrivalCurve> {
        match *self {
            TrafficChoice::ClosedLoop => None,
            TrafficChoice::Bursty { burst, gap, cv } => {
                Some(ArrivalCurve::bursty(burst, gap).with_jitter(cv))
            }
        }
    }

    /// Label suffix for reports; empty for the closed-loop default so legacy
    /// scenario labels are unchanged.
    pub fn label_suffix(&self) -> String {
        match *self {
            TrafficChoice::ClosedLoop => String::new(),
            TrafficChoice::Bursty { burst, gap, cv } => format!(" b={burst}/g={gap}/cv={cv}"),
        }
    }
}

/// The fault injection of a scenario — the degraded-mode dimension of the
/// conformance space.  Variants carry sampling *parameters* (seed, count,
/// activation), not concrete coordinates: the plan is rematerialised from the
/// mesh via the deterministic [`FaultPlan`] samplers, so a scenario stays a
/// small self-contained value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultChoice {
    /// The healthy network; scenarios sampled outside the fault dimension
    /// always use it, keeping legacy campaigns byte-identical (the fault
    /// machinery is never installed).
    None,
    /// `count` distinct directed-link failures, all activating at
    /// `activation` (cycle 0 = degraded from the start; later = mid-run
    /// epoch flush), sampled from `seed`
    /// ([`FaultPlan::sample_links`]).
    Links {
        /// Number of distinct directed links to fail (1–3 in the sweep).
        count: u32,
        /// Sampling seed of the link choice.
        seed: u64,
        /// Activation cycle of every sampled link fault.
        activation: u64,
    },
    /// One whole-router failure at `activation`, sampled from `seed`
    /// ([`FaultPlan::sample_router`]).
    Router {
        /// Sampling seed of the router choice.
        seed: u64,
        /// Activation cycle of the router fault.
        activation: u64,
    },
}

impl FaultChoice {
    /// Materialises the concrete [`FaultPlan`] over `mesh`, or `None` for
    /// the healthy default.
    ///
    /// # Errors
    ///
    /// Returns an error if the mesh has fewer directed links than `count`
    /// (cannot happen for generator-produced scenarios).
    pub fn plan(&self, mesh: &Mesh) -> Result<Option<FaultPlan>> {
        match *self {
            FaultChoice::None => Ok(None),
            FaultChoice::Links {
                count,
                seed,
                activation,
            } => FaultPlan::sample_links(mesh, seed, count as usize, activation).map(Some),
            FaultChoice::Router { seed, activation } => {
                Ok(Some(FaultPlan::sample_router(mesh, seed, activation)))
            }
        }
    }

    /// `true` for the healthy default.
    pub fn is_none(&self) -> bool {
        *self == FaultChoice::None
    }

    /// Label suffix for reports; empty for the healthy default so legacy
    /// scenario labels are unchanged.
    pub fn label_suffix(&self) -> String {
        match *self {
            FaultChoice::None => String::new(),
            FaultChoice::Links {
                count,
                seed,
                activation,
            } => format!(" f=L{count}#{seed}@{activation}"),
            FaultChoice::Router { seed, activation } => format!(" f=R#{seed}@{activation}"),
        }
    }
}

/// The flow-set family of a scenario, with its sampled parameters baked in so
/// the scenario is self-contained and serializable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioFamily {
    /// Every node sends to one hotspot (the paper's memory-controller
    /// scenario, with a randomized hotspot position).
    AllToOne {
        /// Hotspot destination.
        hotspot: Coord,
    },
    /// One source broadcasts to every other node.
    OneToAll {
        /// Broadcast source.
        source: Coord,
    },
    /// Request/response flows between every node and a few endpoint nodes
    /// (randomized memory-controller placements).
    Endpoints {
        /// Endpoint (memory controller) positions.
        memories: Vec<Coord>,
    },
    /// An explicit randomized set of (source, destination) pairs.
    RandomPairs {
        /// The sampled pairs (distinct, deduplicated).
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// One of the paper's 16-thread placements (`wnoc-workloads`), with
    /// request/response flows between every placed core and the memory
    /// controller at `R(0,0)` (8×8 mesh only).
    Placement {
        /// Placement name (`"P0"` … `"P3"`).
        name: String,
        /// Memory controller position.
        memory: Coord,
        /// The placed cores.
        cores: Vec<Coord>,
    },
}

impl ScenarioFamily {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ScenarioFamily::AllToOne { hotspot } => format!("all-to-one({hotspot})"),
            ScenarioFamily::OneToAll { source } => format!("one-to-all({source})"),
            ScenarioFamily::Endpoints { memories } => format!("endpoints(x{})", memories.len()),
            ScenarioFamily::RandomPairs { pairs } => format!("random-pairs(x{})", pairs.len()),
            ScenarioFamily::Placement { name, .. } => format!("placement({name})"),
        }
    }

    /// Builds the concrete flow set over `mesh`.
    ///
    /// # Errors
    ///
    /// Returns an error if a sampled coordinate lies outside the mesh (cannot
    /// happen for generator-produced scenarios).
    pub fn flow_set(&self, mesh: &Mesh) -> Result<FlowSet> {
        match self {
            ScenarioFamily::AllToOne { hotspot } => FlowSet::all_to_one(mesh, *hotspot),
            ScenarioFamily::OneToAll { source } => FlowSet::one_to_all(mesh, *source),
            ScenarioFamily::Endpoints { memories } => {
                FlowSet::to_and_from_endpoints(mesh, memories)
            }
            ScenarioFamily::RandomPairs { pairs } => FlowSet::from_pairs(mesh, pairs.clone()),
            ScenarioFamily::Placement { memory, cores, .. } => {
                let memory_id = mesh.node_id(*memory)?;
                let mut pairs = Vec::with_capacity(2 * cores.len());
                for &core in cores {
                    let core_id = mesh.node_id(core)?;
                    pairs.push((core_id, memory_id));
                    pairs.push((memory_id, core_id));
                }
                FlowSet::from_pairs(mesh, pairs)
            }
        }
    }
}

/// A memo of materialised flow sets and their contention tables, keyed by
/// `(mesh width, mesh height, family)`.  Campaign samplers draw the same
/// families repeatedly (there are only four paper placements, and hotspot
/// positions collide across indices), and scenario startup pays twice for
/// every repeat: route construction for the flow set and the contention count
/// behind the slot envelope.  A per-worker cache skips both — the table is
/// handed to [`oracle_suite_with_counts`] — while outcomes stay byte-identical
/// to uncached runs (the cache only ever returns what a fresh build would
/// have produced).
#[derive(Debug, Default)]
pub struct FlowSetCache {
    entries: HashMap<(u16, u16, String), (FlowSet, WeightTable)>,
}

/// Cached families per worker before the memo resets; campaigns sample a few
/// distinct families per mesh side, so evictions are rare in practice.
const FLOW_SET_CACHE_CAP: usize = 64;

impl FlowSetCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Families currently memoised.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The flow set and contention table of `family` over `mesh`, built on
    /// first use and cloned out of the memo afterwards.
    ///
    /// # Errors
    ///
    /// Returns an error if the family does not fit the mesh (generator bugs
    /// only — sampled scenarios are valid by construction).
    pub fn get_or_build(
        &mut self,
        mesh: &Mesh,
        family: &ScenarioFamily,
    ) -> Result<(FlowSet, WeightTable)> {
        let key = (mesh.width(), mesh.height(), format!("{family:?}"));
        if let Some(entry) = self.entries.get(&key) {
            return Ok(entry.clone());
        }
        let flows = family.flow_set(mesh)?;
        let counts = WeightTable::from_flow_set(&flows);
        if self.entries.len() >= FLOW_SET_CACHE_CAP {
            self.entries.clear();
        }
        self.entries.insert(key, (flows.clone(), counts.clone()));
        Ok((flows, counts))
    }
}

/// One sampled conformance scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in the campaign (also the replay key together with `seed`).
    pub index: usize,
    /// The campaign seed this scenario was derived from.
    pub seed: u64,
    /// Mesh side (2–12).
    pub side: u16,
    /// Flow-set family.
    pub family: ScenarioFamily,
    /// NoC design.
    pub design: DesignChoice,
    /// Message size offered by every probe, in regular-packetization flits.
    pub message_flits: u32,
    /// Closed-loop probing cycles.
    pub cycles: u64,
    /// Router input-buffer sizing ([`BufferChoice::Default`] for scenarios
    /// sampled outside the buffer-depth dimension).
    pub buffers: BufferChoice,
    /// Virtual-channel configuration ([`VcChoice::Default`] for scenarios
    /// sampled outside the VC dimension).
    pub vcs: VcChoice,
    /// Traffic discipline ([`TrafficChoice::ClosedLoop`] for scenarios
    /// sampled outside the bursty dimension).
    pub traffic: TrafficChoice,
    /// Fault injection ([`FaultChoice::None`] for scenarios sampled outside
    /// the fault dimension).
    pub faults: FaultChoice,
}

/// One dominance violation: an observation above an analysis' bound.  An
/// empty violation list is the conformance verdict the harness exists to
/// check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The violating flow.
    pub flow: FlowId,
    /// Name of the analysis whose bound was exceeded.
    pub oracle: String,
    /// Worst observed traversal latency.
    pub observed: u64,
    /// The analytic bound that should have dominated it.
    pub bound: u64,
}

/// Summary of per-flow tightness ratios (`observed_max / primary_bound`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TightnessSummary {
    /// Flows with at least one observation.
    pub flows: usize,
    /// Mean ratio over observed flows (0 when no flow was observed).
    pub mean: f64,
    /// Smallest ratio (loosest bound).
    pub min: f64,
    /// Largest ratio (tightest — must stay ≤ 1 for a safe bound).
    pub max: f64,
}

impl TightnessSummary {
    fn from_ratios(ratios: &[f64]) -> Self {
        if ratios.is_empty() {
            return Self {
                flows: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let sum: f64 = ratios.iter().sum();
        Self {
            flows: ratios.len(),
            mean: sum / ratios.len() as f64,
            min: ratios.iter().copied().fold(f64::INFINITY, f64::min),
            max: ratios.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// The result of running one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// Flows in the sampled flow set.
    pub flow_count: usize,
    /// Messages observed during the run (all flows together).
    pub observed: LatencyStats,
    /// Cycles the simulator executed for this scenario (probing window plus
    /// drain) — the numerator of campaign-level `cycles_per_sec` throughput.
    pub simulated_cycles: u64,
    /// Whether observation dominance was asserted.  `false` only for WaW
    /// scenarios whose flow set is not output-consistent
    /// ([`FlowSet::is_output_consistent`]): FIFO head-of-line divergence puts
    /// such platforms outside what the weighted analysis models, so those
    /// scenarios carry the analytic ordering checks only.
    pub dominance_checked: bool,
    /// Dominance violations (observation above a safe bound).  Empty on pass.
    pub violations: Vec<Violation>,
    /// Cross-analysis ordering violations, as human-readable descriptions.
    /// Empty on pass.
    pub ordering_violations: Vec<String>,
    /// Tightness of the primary bound against the observations (empty when
    /// dominance was not checked).
    pub tightness: TightnessSummary,
}

impl ScenarioOutcome {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.ordering_violations.is_empty()
    }
}

impl Scenario {
    /// Deterministically samples scenario `index` of the campaign with seed
    /// `campaign_seed`.  The scenario space covers mesh sides 2–12, five flow
    /// families (including the paper's thread placements), the regular design
    /// with `L ∈ {1, 2, 4, 8}` and WaW + WaP, and message sizes from 1 flit up
    /// to two maximum packets (multi-packet messages).
    ///
    /// WaW + WaP scenarios always probe single slices: that is the quantity
    /// the paper's per-packet WCTT analysis bounds (multi-slice pipelining is
    /// covered by the analytic ordering checks instead — see
    /// [`wnoc_core::analysis::oracle`]).
    pub fn sample(index: usize, campaign_seed: u64) -> Self {
        let stream = campaign_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = ChaCha8Rng::seed_from_u64(stream);

        let family_roll = rng.gen_range(0u32..8);
        // The paper placements are defined on the 8×8 mesh; every other
        // family samples its side freely.
        let side: u16 = if family_roll == 7 {
            8
        } else {
            rng.gen_range(2u16..=12)
        };
        let mesh = Mesh::square(side).expect("side in 2..=12");
        let random_coord =
            |rng: &mut ChaCha8Rng| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side));

        let family = match family_roll {
            // All-to-one is the paper's evaluation scenario; keep it the most
            // frequent family.
            0..=2 => ScenarioFamily::AllToOne {
                hotspot: random_coord(&mut rng),
            },
            3 => ScenarioFamily::OneToAll {
                source: random_coord(&mut rng),
            },
            4 => {
                let count = rng.gen_range(1usize..=2);
                let mut memories = vec![random_coord(&mut rng)];
                while memories.len() < count {
                    let extra = random_coord(&mut rng);
                    if !memories.contains(&extra) {
                        memories.push(extra);
                    }
                }
                ScenarioFamily::Endpoints { memories }
            }
            5 | 6 => {
                let nodes = usize::from(side) * usize::from(side);
                let want = rng.gen_range(2usize..=(3 * usize::from(side)).min(24));
                let mut pairs = Vec::new();
                // Rejection-sample distinct pairs; bounded attempts keep the
                // generator total even on tiny meshes.
                for _ in 0..(8 * want) {
                    if pairs.len() >= want {
                        break;
                    }
                    let src = NodeId(rng.gen_range(0..nodes));
                    let dst = NodeId(rng.gen_range(0..nodes));
                    if src != dst && !pairs.contains(&(src, dst)) {
                        pairs.push((src, dst));
                    }
                }
                ScenarioFamily::RandomPairs { pairs }
            }
            _ => {
                let memory = Coord::from_row_col(0, 0);
                let set = Placement::paper_set(&mesh, memory).expect("paper placements on 8x8");
                let placement = &set[rng.gen_range(0usize..set.len())];
                ScenarioFamily::Placement {
                    name: placement.name().to_string(),
                    memory,
                    cores: placement.cores().to_vec(),
                }
            }
        };

        let design = match rng.gen_range(0u32..6) {
            0 | 1 => DesignChoice::WawWap,
            2 => DesignChoice::Regular {
                max_packet_flits: 1,
            },
            3 => DesignChoice::Regular {
                max_packet_flits: 2,
            },
            4 => DesignChoice::Regular {
                max_packet_flits: 4,
            },
            _ => DesignChoice::Regular {
                max_packet_flits: 8,
            },
        };

        let message_flits = match design {
            // Single slices: the per-packet quantity the WaW+WaP analysis
            // bounds (see the type-level docs).
            DesignChoice::WawWap => 1,
            DesignChoice::Regular { max_packet_flits } => match rng.gen_range(0u32..4) {
                0 => 1,
                1 => max_packet_flits,
                // Up to two maximum packets: exercises the multi-packet
                // message composition.
                _ => rng.gen_range(1..=2 * max_packet_flits),
            },
        };

        let flow_count = family.flow_set(&mesh).map(|f| f.len() as u64).unwrap_or(0);
        // Enough probes per flow to squeeze the observations towards the
        // bound, scaled by platform size and capped to keep campaigns brisk.
        let cycles = (1_000 + 30 * flow_count * u64::from(message_flits).min(4)).min(12_000);

        Self {
            index,
            seed: campaign_seed,
            side,
            family,
            design,
            message_flits,
            cycles,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::None,
        }
    }

    /// Samples scenario `index` of a **buffer-depth** campaign: the same
    /// platform space as [`Scenario::sample`] (identical rng stream, so the
    /// two campaigns cover the same meshes/flows/designs), plus a buffer
    /// dimension drawn from an independent stream — uniform depths
    /// {1, 2, 4 (default), 8, ∞-equivalent} and seeded heterogeneous
    /// per-port assignments.
    ///
    /// The depth dimension probes **per-packet** dominance for the regular
    /// design (message sizes are clamped to one maximum packet), mirroring
    /// how WaW scenarios always probe single slices: campaigns at this scale
    /// caught the regular *multi-packet message composition* exceeded by up
    /// to 15% on ≥ 9×9 meshes even at the default depth (deep-FIFO
    /// cross-traffic between the packets of a train).  The composition is
    /// now bounded by the `preemptive` oracle's repaired message bound; the
    /// depth clamp here simply keeps this dimension focused on per-packet
    /// buffering effects.
    pub fn sample_buffered(index: usize, campaign_seed: u64) -> Self {
        let mut scenario = Self::sample(index, campaign_seed);
        if let DesignChoice::Regular { max_packet_flits } = scenario.design {
            scenario.message_flits = scenario.message_flits.min(max_packet_flits);
        }
        // Independent stream: the base scenario draws stay identical to the
        // legacy sampler's.
        let stream =
            !campaign_seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0xBADB_00F5;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        scenario.buffers = match rng.gen_range(0u32..8) {
            0 => BufferChoice::Uniform { depth: 1 },
            1 => BufferChoice::Uniform { depth: 2 },
            // Keep the default design point inside the sweep.
            2 | 3 => BufferChoice::Default,
            4 => BufferChoice::Uniform { depth: 8 },
            5 => BufferChoice::Uniform {
                depth: BufferConfig::INFINITE_EQUIVALENT,
            },
            _ => BufferChoice::Heterogeneous {
                seed: rng.gen_range(0u64..1_000_000),
            },
        };
        // Shallow rings serialise the pipeline (credit round-trips), so give
        // depth-1 scenarios more probing time to squeeze observations.
        if let BufferChoice::Uniform { depth: 1 } = scenario.buffers {
            scenario.cycles = (scenario.cycles * 3 / 2).min(12_000);
        }
        scenario
    }

    /// Samples scenario `index` of a **virtual-channel** campaign: the same
    /// platform space as [`Scenario::sample`] (identical rng stream), plus a
    /// VC dimension drawn from an independent stream — counts weighted
    /// towards 2 and 3 (with the single-VC design point kept inside the
    /// sweep) crossed with both static assignment rules.
    ///
    /// Only round-robin scenarios sample multiple VCs: the per-VC priority
    /// arbiter replaces the weighted WaW/WaP arbiter, so a multi-VC WaW
    /// platform is outside every weighted analysis and would carry no
    /// dominance oracle.  Regular probes are clamped to one maximum packet,
    /// mirroring the buffer-depth dimension, so the VC sweep exercises the
    /// priority/preemption machinery rather than re-testing message
    /// composition.
    pub fn sample_vc(index: usize, campaign_seed: u64) -> Self {
        let mut scenario = Self::sample(index, campaign_seed);
        // Independent stream: the base scenario draws stay identical to the
        // legacy sampler's.
        let stream =
            !campaign_seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xADD5_EED0;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        let count = [1u32, 2, 2, 3, 3, 4][rng.gen_range(0usize..6)];
        let assignment = if rng.gen_range(0u32..2) == 0 {
            VcAssignment::FlowIndex
        } else {
            VcAssignment::Distance
        };
        match scenario.design {
            DesignChoice::Regular { max_packet_flits } => {
                scenario.message_flits = scenario.message_flits.min(max_packet_flits);
                if count > 1 {
                    scenario.vcs = VcChoice::Count { count, assignment };
                }
            }
            DesignChoice::WawWap => {}
        }
        scenario
    }

    /// Samples scenario `index` of a **bursty** campaign: open-loop
    /// arrival-curve traffic against the graph-based buffer-aware bound.
    ///
    /// The graph-based analysis models the single-VC WaW + WaP router with
    /// **one flow per source NIC** under a **stable** sustained rate (see
    /// [`wnoc_core::analysis::graph_buffer_aware`]), so this sampler stays
    /// inside that validity domain by construction: the design is always
    /// WaW + WaP with the default single-queue router, the family is either
    /// an all-to-one hotspot or a random pair set with distinct sources, and
    /// the sustained gap is sized from the scenario's own steady-state
    /// buffer-aware bounds — at least twice the worst per-flow message bound,
    /// so even a release delayed by the maximum jitter (`cv ≤ 50`% of the
    /// gap) leaves every queue emptied before the next arrival.  Burst sizes
    /// 0–6 and heterogeneous buffer depths ride on top; the burst backlog is
    /// what separates the graph-based bound from its steady-state base.
    pub fn sample_bursty(index: usize, campaign_seed: u64) -> Self {
        let stream =
            !campaign_seed ^ (index as u64).wrapping_mul(0x94D0_49BB_1331_11EB) ^ 0xB0B5_7EED;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);

        let side: u16 = rng.gen_range(3u16..=8);
        let mesh = Mesh::square(side).expect("side in 3..=8");
        let random_coord =
            |rng: &mut ChaCha8Rng| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side));

        // One flow per source NIC: the hotspot family has it by construction;
        // pair sets enforce it by rejecting a second flow from the same
        // source.  Broadcasts, endpoints and placements put several flows on
        // one NIC and are outside the graph-based model's domain.
        let family = if rng.gen_range(0u32..3) < 2 {
            ScenarioFamily::AllToOne {
                hotspot: random_coord(&mut rng),
            }
        } else {
            let nodes = usize::from(side) * usize::from(side);
            let want = rng.gen_range(2usize..=(2 * usize::from(side)).min(16));
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..(8 * want) {
                if pairs.len() >= want {
                    break;
                }
                let src = NodeId(rng.gen_range(0..nodes));
                let dst = NodeId(rng.gen_range(0..nodes));
                if src != dst && !pairs.iter().any(|&(s, _)| s == src) {
                    pairs.push((src, dst));
                }
            }
            ScenarioFamily::RandomPairs { pairs }
        };

        let buffers = match rng.gen_range(0u32..8) {
            0 => BufferChoice::Uniform { depth: 1 },
            1 => BufferChoice::Uniform { depth: 2 },
            2..=4 => BufferChoice::Default,
            5 => BufferChoice::Uniform { depth: 8 },
            _ => BufferChoice::Heterogeneous {
                seed: rng.gen_range(0u64..1_000_000),
            },
        };

        let message_flits = [1u32, 1, 1, 2, 3][rng.gen_range(0usize..5)];
        let burst = rng.gen_range(0u32..=6);
        let cv = [0u32, 0, 10, 25, 50][rng.gen_range(0usize..5)];

        // Size the sustained gap from the platform's own steady-state bounds:
        // gap ≥ 2 × the worst per-flow buffer-aware message bound keeps every
        // flow stable (the queue drains between arrivals) even when jitter
        // delays a release by the full cv ≤ 50% allowance.
        let design = DesignChoice::WawWap;
        let config = design.config();
        let flows = family.flow_set(&mesh).expect("sampled family is valid");
        let mut base =
            BufferAwareOracle::new(&flows, &config, mesh, buffers.config(&config, &mesh));
        let worst = (0..flows.len())
            .filter_map(|i| base.message_bound(FlowId(i), message_flits))
            .max()
            .unwrap_or(1)
            .max(1);
        let slack = rng.gen_range(0u64..=worst);
        let gap = u32::try_from(2 * worst + slack).unwrap_or(u32::MAX);

        // Enough epochs to see steady-state repeats after the initial burst
        // drains, plus a floor for small platforms.
        let cycles = u64::from(gap) * 5 + 500;

        Self {
            index,
            seed: campaign_seed,
            side,
            family,
            design,
            message_flits,
            cycles,
            buffers,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::Bursty { burst, gap, cv },
            faults: FaultChoice::None,
        }
    }

    /// Samples scenario `index` of a **fault-sweep** campaign: the same
    /// platform space as [`Scenario::sample`] (identical rng stream), plus a
    /// fault dimension drawn from an independent stream — 1–3 directed-link
    /// failures or one whole-router failure, activating either at cycle 0
    /// (the run is degraded from the start, so the rerouted flows are held
    /// to freshly built degraded oracles) or mid-run (an epoch flush
    /// truncates in-flight worms; the invariant is that the network drains
    /// — retransmitting survivors, dropping severed traffic — rather than
    /// deadlocking).  A slice of healthy design points stays inside the
    /// sweep so the zero-fault path is continuously compared against the
    /// legacy dimensions.
    pub fn sample_fault(index: usize, campaign_seed: u64) -> Self {
        let mut scenario = Self::sample(index, campaign_seed);
        // Independent stream: the base scenario draws stay identical to the
        // legacy sampler's.
        let stream =
            !campaign_seed ^ (index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xFA17_5EED;
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        // Mid-run activations land while the closed loop is still probing
        // (never 0, never past the window).
        let midrun = (scenario.cycles / 2).max(1);
        let activation = if rng.gen_range(0u32..2) == 0 {
            0
        } else {
            midrun
        };
        let seed = rng.gen_range(0u64..1_000_000);
        scenario.faults = match rng.gen_range(0u32..8) {
            // Keep the healthy design point inside the sweep: the zero-fault
            // path must stay byte-identical to the legacy dimensions.
            0 => FaultChoice::None,
            1..=3 => FaultChoice::Links {
                count: 1,
                seed,
                activation,
            },
            4 => FaultChoice::Links {
                count: 2,
                seed,
                activation,
            },
            5 => FaultChoice::Links {
                count: 3,
                seed,
                activation,
            },
            _ => FaultChoice::Router { seed, activation },
        };
        // Degraded runs reroute over the spanning forest, whose paths are
        // longer than XY routes; give the probes room to keep squeezing.
        if !scenario.faults.is_none() {
            scenario.cycles = (scenario.cycles * 3 / 2).min(12_000);
        }
        scenario
    }

    /// One-line description for logs and reports.
    pub fn label(&self) -> String {
        format!(
            "#{} {}x{} {} {} mf={}{}{}{}{}",
            self.index,
            self.side,
            self.side,
            self.family.label(),
            self.design.label(),
            self.message_flits,
            self.buffers.label_suffix(),
            self.vcs.label_suffix(),
            self.traffic.label_suffix(),
            self.faults.label_suffix()
        )
    }

    /// Runs the scenario: closed-loop simulation plus every analytic check.
    ///
    /// # Errors
    ///
    /// Returns an error if the sampled platform is invalid (generator bugs
    /// only — sampled scenarios are valid by construction).
    pub fn run(&self) -> Result<ScenarioOutcome> {
        self.run_with_cache(&mut FlowSetCache::new())
    }

    /// [`Scenario::run`] reusing a [`FlowSetCache`] across scenarios — the
    /// campaign runner holds one per worker.  Outcomes are byte-identical to
    /// uncached runs.
    ///
    /// # Errors
    ///
    /// Returns an error if the sampled platform is invalid (generator bugs
    /// only — sampled scenarios are valid by construction).
    pub fn run_with_cache(&self, cache: &mut FlowSetCache) -> Result<ScenarioOutcome> {
        let mesh = Mesh::square(self.side)?;
        let (flows, counts) = cache.get_or_build(&mesh, &self.family)?;
        let config = self.design.config();
        let buffers = self.buffers.config(&config, &mesh);
        let vcs = self.vcs.config();

        let mut sim = Simulation::with_vcs(mesh, config, &flows, &buffers, vcs)?;
        let fault_plan = self.faults.plan(&mesh)?;
        if let Some(plan) = &fault_plan {
            sim.install_fault_plan(plan.clone(), RetransmitPolicy::default())?;
        }
        let report = match self.traffic.curve() {
            None => sim.run_closed_loop(&flows, self.message_flits, self.cycles)?,
            Some(curve) => {
                // Open-loop replay: the release schedule (and its jitter) is
                // a pure function of the campaign identity, so the outcome
                // reproduces from `(seed, index)` like every other scenario.
                let schedule_seed =
                    self.seed ^ (self.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                sim.run_bursty(
                    &flows,
                    self.message_flits,
                    &curve,
                    self.cycles,
                    schedule_seed,
                )?
            }
        };
        let unjudged = ScenarioOutcome {
            scenario: self.clone(),
            flow_count: flows.len(),
            observed: report.overall(),
            simulated_cycles: sim.stats().cycles,
            dominance_checked: false,
            violations: Vec::new(),
            ordering_violations: Vec::new(),
            tightness: TightnessSummary::from_ratios(&[]),
        };
        let Some(plan) = &fault_plan else {
            // Stats can contain ids the network registered on demand;
            // conformance only judges the statically analysed flows.
            return self.judge(
                unjudged,
                mesh,
                &flows,
                counts,
                &buffers,
                vcs,
                &report,
                |flow: FlowId| flows.route(flow).map(|_| flow),
            );
        };
        // The simulator has already proved the liveness half of a fault
        // scenario: the run drained — retransmitting NACKed survivors and
        // dropping severed traffic — instead of deadlocking or wedging.  The
        // analytic checks apply on top only when every fault activated at
        // cycle 0: every observation then happened on the tree-routed
        // topology, so the surviving flows are rerouted ([`reroute_flows`] —
        // the same construction the incremental engine's fault mutations are
        // verified against) and judged like a healthy run.  A mid-run
        // activation mixes healthy-epoch and degraded-epoch traversals (a
        // probe NACKed by the flush spans the outage end-to-end); no single
        // oracle bounds that mixture, so the scenario is drain-only.
        let reroute = reroute_flows(&flows, &TreeRouting::new(&plan.final_set(&mesh)))?;
        let degraded_from_start = plan.activations().iter().all(|&cycle| cycle == 0);
        if !degraded_from_start || reroute.flows.is_empty() {
            return Ok(unjudged);
        }
        // The report keys observations by original flow id, while the
        // degraded oracles index the densely re-indexed rerouted set.
        // Severed pairs carry no bound (and no observation: the closed loop
        // refuses their offers).
        let mut degraded_ids = vec![None; flows.len()];
        for (position, original) in reroute.surviving.iter().enumerate() {
            degraded_ids[original.0] = Some(FlowId(position));
        }
        // Contention table of the rerouted set (no cache: degraded sets are
        // plan-specific).
        let counts = WeightTable::from_flow_set(&reroute.flows);
        self.judge(
            unjudged,
            mesh,
            &reroute.flows,
            counts,
            &buffers,
            vcs,
            &report,
            |flow: FlowId| degraded_ids.get(flow.0).copied().flatten(),
        )
    }

    /// Judges a finished run against the oracle suite of `analysed`, the
    /// flow set the analyses see (the sampled set, or the rerouted survivors
    /// of a degraded run): dominance when a dominating oracle exists and the
    /// design admits it, then the cross-analysis ordering.  `analysed_id`
    /// maps a report's flow id to its id in `analysed` (`None`: not
    /// judged); violations keep the report's id, which is what a
    /// reproduction needs.
    #[allow(clippy::too_many_arguments)]
    fn judge(
        &self,
        mut outcome: ScenarioOutcome,
        mesh: Mesh,
        analysed: &FlowSet,
        counts: WeightTable,
        buffers: &BufferConfig,
        vcs: VcConfig,
        report: &SaturatedReport,
        analysed_id: impl Fn(FlowId) -> Option<FlowId>,
    ) -> Result<ScenarioOutcome> {
        let config = self.design.config();
        let mut suite = match self.traffic.curve() {
            None => oracle_suite_with_counts(analysed, &config, mesh, buffers, vcs, counts)?,
            Some(curve) => {
                oracle_suite_with_curve(analysed, &config, mesh, buffers, vcs, counts, curve)?
            }
        };
        // The weighted analyses only model platforms where flows sharing an
        // input buffer never diverge (the paper's single-destination
        // evaluation); elsewhere FIFO head-of-line blocking imports delay
        // from off-route ports and no per-route bound applies.  The
        // chained-blocking analysis of the regular mesh models divergence
        // explicitly, so round-robin scenarios are checked whenever a
        // depth-valid dominating oracle exists (shallow buffers demote the
        // depth-unaware analyses to ordering-only — see
        // `oracle_suite_with_vcs`).
        let has_dominating = suite.iter().any(|oracle| oracle.dominates_observation());
        outcome.dominance_checked = has_dominating
            && match self.design {
                DesignChoice::Regular { .. } => true,
                DesignChoice::WawWap => analysed.is_output_consistent(),
            };
        if outcome.dominance_checked {
            let (violations, ratios) = self.check_dominance(report, &mut suite, analysed_id);
            outcome.violations = violations;
            outcome.tightness = TightnessSummary::from_ratios(&ratios);
        }
        outcome.ordering_violations = self.check_ordering(analysed, &mesh, buffers, &mut suite);
        Ok(outcome)
    }

    /// Dominance: every analysis claiming observation safety *for this
    /// message size* ([`WcttBoundModel::dominates_observation`] together with
    /// [`WcttBoundModel::dominates_message`]) must bound every judged flow's
    /// worst observed traversal.  Returns the violations plus the per-flow
    /// tightness ratios against the primary (first dominating) analysis.
    ///
    /// Ratios are diagnostics, not verdicts: they are recorded even when the
    /// primary analysis does not claim the multi-packet composition (so a
    /// ratio above 1.0 can coexist with a pass — the scenario is then held
    /// to the `preemptive` oracle's repaired message bound instead), and
    /// skipped when the bound is the saturation sentinel (no finite bound
    /// exists under closed-loop saturation of a higher-priority VC).
    fn check_dominance(
        &self,
        report: &SaturatedReport,
        suite: &mut [Box<dyn WcttBoundModel>],
        analysed_id: impl Fn(FlowId) -> Option<FlowId>,
    ) -> (Vec<Violation>, Vec<f64>) {
        let mut violations = Vec::new();
        let mut ratios = Vec::new();
        let primary = suite
            .iter()
            .position(|oracle| oracle.dominates_observation());
        for (flow, observed) in report.per_flow_max() {
            let Some(analysed) = analysed_id(flow) else {
                continue;
            };
            for (position, oracle) in suite.iter_mut().enumerate() {
                if !oracle.dominates_observation() {
                    continue;
                }
                let Some(bound) = oracle.message_bound(analysed, self.message_flits) else {
                    continue;
                };
                if Some(position) == primary && bound > 0 && bound < SATURATION_SENTINEL {
                    ratios.push(observed as f64 / bound as f64);
                }
                if observed > bound && oracle.dominates_message(self.message_flits) {
                    violations.push(Violation {
                        flow,
                        oracle: oracle.name().to_string(),
                        observed,
                        bound,
                    });
                }
            }
        }
        (violations, ratios)
    }

    /// Cross-analysis ordering, for every flow:
    ///
    /// * `slot ≤ reference` — the bottleneck-port envelope sits below the
    ///   full-route bound (`reference` is the paper-flavour model: `regular`
    ///   under round robin, `weighted` under WaW);
    /// * `reference ≤ primary` — the dominance bound can only strengthen the
    ///   paper bound (trivial equality under round robin, paper ≤
    ///   backpressured under WaW);
    /// * `packet(1) ≤ ubd ≤ packets × packet(L)` — the UBD packetization
    ///   composition lies between one minimal packet and the naive
    ///   per-packet sum;
    /// * under round robin, `reference ≤ preemptive` — the priority-
    ///   preemptive bound starts from the chained-blocking service time and
    ///   only adds depth-envelope and preemption terms, so it can never
    ///   undercut the paper bound;
    /// * under WaW, the **buffer-aware** bound sits between the paper bound
    ///   and the backpressured bound according to depth — `paper ≤
    ///   buffer-aware` always, `buffer-aware ≤ backpressured` when every
    ///   buffer is at least the calibration depth, `buffer-aware ≥
    ///   backpressured` when none is deeper — and tightens monotonically:
    ///   doubling every depth never raises it.
    fn check_ordering(
        &self,
        flows: &FlowSet,
        mesh: &Mesh,
        buffers: &BufferConfig,
        suite: &mut [Box<dyn WcttBoundModel>],
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let position = |suite: &[Box<dyn WcttBoundModel>], name: &str| {
            suite.iter().position(|o| o.name() == name)
        };
        let Some(ubd_at) = position(suite, "ubd") else {
            return vec!["oracle suite lacks the ubd analysis".to_string()];
        };
        let Some(slot_at) = position(suite, "slot") else {
            return vec!["oracle suite lacks the slot analysis".to_string()];
        };
        // The paper-flavour reference the envelope and UBD compose against.
        let reference_at = position(suite, "regular")
            .or_else(|| position(suite, "weighted"))
            .unwrap_or(0);

        let max_packet = self
            .design
            .config()
            .packetization
            .worst_case_contender_flits();
        let naive_packets = u64::from(self.message_flits.div_ceil(max_packet).max(1)) + 1;
        for index in 0..flows.len() {
            let flow = FlowId(index);
            let (Some(reference_msg), Some(reference_single), Some(reference_packet)) = (
                suite[reference_at].message_bound(flow, self.message_flits),
                suite[reference_at].packet_bound(flow, 1),
                suite[reference_at].packet_bound(flow, max_packet),
            ) else {
                continue;
            };
            if let Some(envelope) = suite[slot_at].message_bound(flow, self.message_flits) {
                if envelope > reference_msg {
                    failures.push(format!(
                        "{flow}: slot envelope {envelope} above reference bound {reference_msg}"
                    ));
                }
            }
            if let Some(primary_msg) = suite[0].message_bound(flow, self.message_flits) {
                if reference_msg > primary_msg {
                    failures.push(format!(
                        "{flow}: reference bound {reference_msg} above primary bound \
                         {primary_msg}"
                    ));
                }
            }
            if let Some(preemptive_at) = position(suite, "preemptive") {
                if let Some(preemptive_msg) =
                    suite[preemptive_at].message_bound(flow, self.message_flits)
                {
                    if reference_msg > preemptive_msg {
                        failures.push(format!(
                            "{flow}: reference bound {reference_msg} above preemptive bound \
                             {preemptive_msg}"
                        ));
                    }
                }
            }
            if let Some(composed) = suite[ubd_at].message_bound(flow, self.message_flits) {
                if composed < reference_single {
                    failures.push(format!(
                        "{flow}: ubd composition {composed} below single-packet bound \
                         {reference_single}"
                    ));
                }
                // The +1 packet of `naive_packets` absorbs the WaP control
                // slice; the pipelined composition must never exceed the
                // naive per-packet sum.
                if composed > naive_packets * reference_packet {
                    failures.push(format!(
                        "{flow}: ubd composition {composed} above naive sum \
                         {naive_packets}x{reference_packet}"
                    ));
                }
            }
        }
        if self.design == DesignChoice::WawWap {
            failures.extend(self.check_buffer_aware_ordering(flows, mesh, buffers, suite));
        }
        if let TrafficChoice::Bursty { burst, gap, cv } = self.traffic {
            failures
                .extend(self.check_bursty_ordering(flows, mesh, buffers, suite, burst, gap, cv));
        }
        failures
    }

    /// The buffer-aware ordering invariants (WaW scenarios only — the model
    /// is an analysis of the weighted design).
    fn check_buffer_aware_ordering(
        &self,
        flows: &FlowSet,
        mesh: &Mesh,
        buffers: &BufferConfig,
        suite: &mut [Box<dyn WcttBoundModel>],
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let position = |suite: &[Box<dyn WcttBoundModel>], name: &str| {
            suite.iter().position(|o| o.name() == name)
        };
        let (Some(ba_at), Some(paper_at), Some(bp_at)) = (
            position(suite, "buffer-aware"),
            position(suite, "weighted"),
            position(suite, "weighted-bp"),
        ) else {
            return vec!["WaW oracle suite lacks a weighted analysis".to_string()];
        };
        let config = self.design.config();
        let calibration = BufferAwareWcttModel::CALIBRATION_DEPTH;
        let all_deep = buffers.min_depth() >= calibration;
        let all_shallow = buffers.max_depth() <= calibration;
        // Doubling every depth must never raise the bound (monotone
        // tightening with buffer capacity).
        let mut deepened = BufferAwareOracle::new(flows, &config, *mesh, buffers.scaled(2));
        for index in 0..flows.len() {
            let flow = FlowId(index);
            let (Some(ba), Some(paper), Some(bp)) = (
                suite[ba_at].message_bound(flow, self.message_flits),
                suite[paper_at].message_bound(flow, self.message_flits),
                suite[bp_at].message_bound(flow, self.message_flits),
            ) else {
                continue;
            };
            if ba < paper {
                failures.push(format!(
                    "{flow}: buffer-aware bound {ba} below paper bound {paper}"
                ));
            }
            if all_deep && ba > bp {
                failures.push(format!(
                    "{flow}: buffer-aware bound {ba} above backpressured bound {bp} \
                     despite calibration-or-deeper buffers"
                ));
            }
            if all_shallow && ba < bp {
                failures.push(format!(
                    "{flow}: buffer-aware bound {ba} below backpressured bound {bp} \
                     despite calibration-or-shallower buffers"
                ));
            }
            if let Some(relaxed) = deepened.message_bound(flow, self.message_flits) {
                if relaxed > ba {
                    failures.push(format!(
                        "{flow}: doubling every buffer depth raised the buffer-aware \
                         bound {ba} -> {relaxed}"
                    ));
                }
            }
        }
        failures
    }

    /// The bursty ordering invariants (scenarios of the bursty dimension
    /// only), per flow:
    ///
    /// * **zero-burst collapse** — at `b ≤ 1` without jitter the graph-based
    ///   bound equals the steady-state buffer-aware bound *bit-identically*
    ///   (the burst and jitter terms vanish, nothing else may differ);
    /// * `buffer-aware ≤ graph-ba` — the burst term never weakens the base;
    /// * **monotone in `b`** — raising the burst by one message never lowers
    ///   the bound.
    #[allow(clippy::too_many_arguments)]
    fn check_bursty_ordering(
        &self,
        flows: &FlowSet,
        mesh: &Mesh,
        buffers: &BufferConfig,
        suite: &mut [Box<dyn WcttBoundModel>],
        burst: u32,
        gap: u32,
        cv: u32,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let position = |suite: &[Box<dyn WcttBoundModel>], name: &str| {
            suite.iter().position(|o| o.name() == name)
        };
        let (Some(graph_at), Some(ba_at)) =
            (position(suite, "graph-ba"), position(suite, "buffer-aware"))
        else {
            return vec!["bursty oracle suite lacks the graph-based analysis".to_string()];
        };
        let config = self.design.config();
        let mut collapsed = GraphBufferAwareOracle::new(
            flows,
            &config,
            *mesh,
            buffers.clone(),
            ArrivalCurve::bursty(1, gap),
        );
        let mut raised = GraphBufferAwareOracle::new(
            flows,
            &config,
            *mesh,
            buffers.clone(),
            ArrivalCurve::bursty(burst + 1, gap).with_jitter(cv),
        );
        for index in 0..flows.len() {
            let flow = FlowId(index);
            let (Some(graph), Some(ba)) = (
                suite[graph_at].message_bound(flow, self.message_flits),
                suite[ba_at].message_bound(flow, self.message_flits),
            ) else {
                continue;
            };
            if let Some(zero) = collapsed.message_bound(flow, self.message_flits) {
                if zero != ba {
                    failures.push(format!(
                        "{flow}: zero-burst graph bound {zero} differs from the \
                         buffer-aware bound {ba}"
                    ));
                }
            }
            if graph < ba {
                failures.push(format!(
                    "{flow}: graph bound {graph} below its buffer-aware base {ba}"
                ));
            }
            if let Some(next) = raised.message_bound(flow, self.message_flits) {
                if next < graph {
                    failures.push(format!(
                        "{flow}: raising the burst from {burst} to {} lowered the graph \
                         bound {graph} -> {next}",
                        burst + 1
                    ));
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_in_index_and_seed() {
        for index in [0usize, 3, 17] {
            assert_eq!(Scenario::sample(index, 7), Scenario::sample(index, 7));
        }
        assert_ne!(Scenario::sample(0, 7), Scenario::sample(0, 8));
        assert_ne!(Scenario::sample(0, 7), Scenario::sample(1, 7));
    }

    #[test]
    fn sampled_scenarios_are_valid_platforms() {
        for index in 0..40 {
            let scenario = Scenario::sample(index, 1234);
            assert!((2..=12).contains(&scenario.side), "{}", scenario.label());
            assert!(scenario.message_flits >= 1);
            assert!(scenario.cycles >= 1_000);
            let mesh = Mesh::square(scenario.side).unwrap();
            let flows = scenario.family.flow_set(&mesh).unwrap();
            assert!(!flows.is_empty(), "{}", scenario.label());
        }
    }

    #[test]
    fn placements_always_sample_the_8x8_mesh() {
        let mut seen = 0;
        for index in 0..120 {
            let scenario = Scenario::sample(index, 99);
            if let ScenarioFamily::Placement { cores, .. } = &scenario.family {
                assert_eq!(scenario.side, 8);
                assert_eq!(cores.len(), 16);
                seen += 1;
            }
        }
        assert!(seen > 0, "placement family never sampled");
    }

    #[test]
    fn waw_scenarios_probe_single_slices() {
        for index in 0..60 {
            let scenario = Scenario::sample(index, 5);
            if scenario.design == DesignChoice::WawWap {
                assert_eq!(scenario.message_flits, 1);
            }
        }
    }

    #[test]
    fn a_small_scenario_passes_end_to_end() {
        // Pin a tiny scenario rather than relying on the sampler.
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 3,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::Regular {
                max_packet_flits: 2,
            },
            message_flits: 3,
            cycles: 1_500,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::None,
        };
        let outcome = scenario.run().unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert_eq!(outcome.flow_count, 8);
        assert_eq!(outcome.tightness.flows, 8);
        assert!(outcome.tightness.max <= 1.0);
        assert!(outcome.tightness.mean > 0.0);
        assert!(outcome.observed.count > 0);
    }

    #[test]
    fn scenario_runs_reproduce() {
        let scenario = Scenario::sample(4, 42);
        assert_eq!(scenario.run().unwrap(), scenario.run().unwrap());
    }

    #[test]
    fn cached_runs_match_uncached_runs() {
        // One shared cache across several scenarios (with repeated families)
        // must leave every outcome identical to the uncached path.
        let mut cache = FlowSetCache::new();
        for index in [0usize, 1, 2, 0, 1] {
            let scenario = Scenario::sample(index, 42);
            assert_eq!(
                scenario.run_with_cache(&mut cache).unwrap(),
                scenario.run().unwrap(),
                "{}",
                scenario.label()
            );
        }
        assert!(!cache.is_empty());
        assert!(cache.len() <= 3, "repeats must hit the memo");
    }

    #[test]
    fn cache_counts_match_bulk_rebuild() {
        let mesh = Mesh::square(5).unwrap();
        let family = ScenarioFamily::AllToOne {
            hotspot: Coord::from_row_col(2, 3),
        };
        let mut cache = FlowSetCache::new();
        let (flows, counts) = cache.get_or_build(&mesh, &family).unwrap();
        assert_eq!(counts, WeightTable::from_flow_set(&flows));
        // The second build is a memo hit returning the identical entry.
        let (again_flows, again_counts) = cache.get_or_build(&mesh, &family).unwrap();
        assert_eq!(flows.pairs(), again_flows.pairs());
        assert_eq!(counts, again_counts);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_keys_by_both_mesh_dimensions() {
        // Two meshes of equal width but different heights must not share an
        // entry: the 4x5 funnel has 19 flows, the 4x3 one only 11.
        let family = ScenarioFamily::AllToOne {
            hotspot: Coord::from_row_col(0, 0),
        };
        let mut cache = FlowSetCache::new();
        for (height, flow_count) in [(3u16, 11usize), (5, 19)] {
            let mesh = Mesh::new(4, height).unwrap();
            let (flows, counts) = cache.get_or_build(&mesh, &family).unwrap();
            assert_eq!(*flows.mesh(), mesh);
            assert_eq!(*counts.mesh(), mesh);
            assert_eq!(flows.len(), flow_count);
            assert_eq!(counts, WeightTable::from_flow_set(&flows));
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn buffered_sampler_keeps_the_platform_and_only_adds_depth() {
        for index in 0..30 {
            let base = Scenario::sample(index, 9);
            let buffered = Scenario::sample_buffered(index, 9);
            assert_eq!(base.side, buffered.side);
            assert_eq!(base.family, buffered.family);
            assert_eq!(base.design, buffered.design);
            // Regular designs probe per-packet in the depth dimension.
            let expected_mf = match base.design {
                DesignChoice::Regular { max_packet_flits } => {
                    base.message_flits.min(max_packet_flits)
                }
                DesignChoice::WawWap => base.message_flits,
            };
            assert_eq!(buffered.message_flits, expected_mf);
            assert_eq!(base.buffers, BufferChoice::Default);
        }
    }

    #[test]
    fn buffered_sampler_covers_the_depth_dimension() {
        let mut shallow = 0;
        let mut deep = 0;
        let mut heterogeneous = 0;
        for index in 0..80 {
            match Scenario::sample_buffered(index, 3).buffers {
                BufferChoice::Uniform { depth } if depth < 4 => shallow += 1,
                BufferChoice::Uniform { .. } => deep += 1,
                BufferChoice::Heterogeneous { .. } => heterogeneous += 1,
                BufferChoice::Default => {}
            }
        }
        assert!(shallow > 0, "no shallow-depth scenario sampled");
        assert!(deep > 0, "no deep-depth scenario sampled");
        assert!(heterogeneous > 0, "no heterogeneous scenario sampled");
    }

    #[test]
    fn heterogeneous_choice_is_deterministic_and_valid() {
        let mesh = Mesh::square(5).unwrap();
        let config = NocConfig::waw_wap();
        let choice = BufferChoice::Heterogeneous { seed: 77 };
        let a = choice.config(&config, &mesh);
        let b = choice.config(&config, &mesh);
        assert_eq!(a, b);
        assert!(a.validate(&mesh).is_ok());
        assert!(a.min_depth() >= 1);
        assert!(a.max_depth() <= 8);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs large 9x9 campaign scenarios; release only"
    )]
    fn formerly_unsound_compositions_pass_by_bound_not_suppression() {
        // Seed-7 Core scenarios #234 and #267 (≥ 9×9, L=8, multi-packet) are
        // the pinned reproductions that proved the composed `Σ` per-packet
        // message bound unsound (observed exceeds it by up to 15%).  The
        // repair has two halves: the `regular`/`ubd` oracles no longer claim
        // *message* dominance beyond one maximum packet
        // (`dominates_message`), and the `preemptive` oracle's repaired
        // composition bounds the full message train.  There is no violation
        // suppression anywhere anymore — these scenarios must pass because a
        // sound bound actually covers the observation.
        for index in [234usize, 267] {
            let scenario = Scenario::sample(index, 7);
            assert!(
                scenario.side >= 9 && scenario.message_flits > 8,
                "pinned violator drifted: {}",
                scenario.label()
            );
            let outcome = scenario.run().unwrap();
            assert!(
                outcome.passed(),
                "{}: {:?} / {:?}",
                scenario.label(),
                outcome.violations,
                outcome.ordering_violations
            );
            assert!(outcome.dominance_checked);
            // The diagnostic ratio against the primary (regular) composed
            // bound still exceeds 1.0: the observation really is above the
            // old bound, and the pass is earned by the preemptive message
            // bound — not by skipping the comparison.
            assert!(
                outcome.tightness.max > 1.0,
                "{}: composition no longer exceeded (tightness {:.3}) — the \
                 pinned reproduction lost its teeth",
                scenario.label(),
                outcome.tightness.max
            );
        }
    }

    #[test]
    fn depth_one_scenario_passes_end_to_end() {
        // The tightest design point: depth-1 wormhole under WaW.  The
        // buffer-aware oracle must dominate, the run must drain (no
        // SimulationStalled), and the demoted depth-unaware oracles must not
        // report violations.
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 4,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::WawWap,
            message_flits: 1,
            cycles: 3_000,
            buffers: BufferChoice::Uniform { depth: 1 },
            vcs: VcChoice::Default,
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::None,
        };
        let outcome = scenario.run().unwrap();
        assert!(
            outcome.passed(),
            "violations: {:?} / {:?}",
            outcome.violations,
            outcome.ordering_violations
        );
        assert!(outcome.dominance_checked);
        assert!(outcome.tightness.flows > 0);
        assert!(outcome.tightness.max <= 1.0);
    }

    #[test]
    fn vc_sampler_keeps_the_platform_and_only_adds_channels() {
        for index in 0..40 {
            let base = Scenario::sample(index, 13);
            let vc = Scenario::sample_vc(index, 13);
            assert_eq!(base.side, vc.side);
            assert_eq!(base.family, vc.family);
            assert_eq!(base.design, vc.design);
            assert_eq!(base.buffers, vc.buffers);
            assert_eq!(base.vcs, VcChoice::Default);
            match base.design {
                DesignChoice::Regular { max_packet_flits } => {
                    // Per-packet probes, mirroring the buffer-depth sweep.
                    assert_eq!(vc.message_flits, base.message_flits.min(max_packet_flits));
                }
                DesignChoice::WawWap => {
                    // WaW keeps the single-queue design: the priority arbiter
                    // would replace the weighted arbiter the analyses model.
                    assert_eq!(vc.vcs, VcChoice::Default);
                    assert_eq!(vc.message_flits, base.message_flits);
                }
            }
            assert_eq!(Scenario::sample_vc(index, 13), vc, "sampler not pure");
        }
    }

    #[test]
    fn vc_sampler_covers_the_vc_dimension() {
        let mut counts_seen = [0usize; 5];
        let mut idx_seen = 0;
        let mut dist_seen = 0;
        for index in 0..160 {
            let scenario = Scenario::sample_vc(index, 3);
            match scenario.vcs {
                VcChoice::Default => counts_seen[1] += 1,
                VcChoice::Count { count, assignment } => {
                    assert!((2..=4).contains(&count), "{}", scenario.label());
                    counts_seen[count as usize] += 1;
                    match assignment {
                        VcAssignment::FlowIndex => idx_seen += 1,
                        VcAssignment::Distance => dist_seen += 1,
                    }
                    assert!(
                        matches!(scenario.design, DesignChoice::Regular { .. }),
                        "multi-VC WaW sampled: {}",
                        scenario.label()
                    );
                }
            }
        }
        for (count, &seen) in counts_seen.iter().enumerate().skip(1) {
            assert!(seen > 0, "VC count {count} never sampled");
        }
        assert!(idx_seen > 0, "flow-index assignment never sampled");
        assert!(dist_seen > 0, "distance assignment never sampled");
    }

    #[test]
    fn bursty_sampler_stays_inside_the_graph_models_domain() {
        let mut hotspots = 0;
        let mut pair_sets = 0;
        let mut bursts_seen = [false; 7];
        for index in 0..60 {
            let scenario = Scenario::sample_bursty(index, 11);
            assert_eq!(
                scenario.design,
                DesignChoice::WawWap,
                "{}",
                scenario.label()
            );
            assert_eq!(scenario.vcs, VcChoice::Default, "{}", scenario.label());
            let TrafficChoice::Bursty { burst, gap, cv } = scenario.traffic else {
                panic!("bursty sampler produced closed-loop traffic");
            };
            assert!(burst <= 6 && cv <= 50, "{}", scenario.label());
            bursts_seen[burst as usize] = true;
            // One flow per source NIC, and a gap at least twice the worst
            // steady-state message bound (the stability margin the analysis
            // needs under cv <= 50% jitter).
            let mesh = Mesh::square(scenario.side).unwrap();
            let flows = scenario.family.flow_set(&mesh).unwrap();
            let mut sources: Vec<NodeId> = flows.iter().map(|(_, f)| f.src).collect();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), flows.len(), "{}", scenario.label());
            let config = scenario.design.config();
            let buffers = scenario.buffers.config(&config, &mesh);
            let mut base = BufferAwareOracle::new(&flows, &config, mesh, buffers);
            let worst = (0..flows.len())
                .filter_map(|i| base.message_bound(FlowId(i), scenario.message_flits))
                .max()
                .unwrap();
            assert!(
                u64::from(gap) >= 2 * worst,
                "{}: gap {gap} below stability margin 2x{worst}",
                scenario.label()
            );
            assert!(scenario.cycles > u64::from(gap), "{}", scenario.label());
            match &scenario.family {
                ScenarioFamily::AllToOne { .. } => hotspots += 1,
                ScenarioFamily::RandomPairs { .. } => pair_sets += 1,
                other => panic!("family outside the bursty domain: {other:?}"),
            }
            assert_eq!(
                Scenario::sample_bursty(index, 11),
                scenario,
                "sampler not pure"
            );
        }
        assert!(hotspots > 0, "no hotspot scenario sampled");
        assert!(pair_sets > 0, "no pair-set scenario sampled");
        assert!(
            bursts_seen.iter().filter(|&&b| b).count() >= 4,
            "burst sizes barely covered"
        );
    }

    #[test]
    fn a_small_bursty_scenario_passes_end_to_end() {
        // Pinned bursty platform: a 3x3 hotspot with a 4-message burst and
        // jittered sustained arrivals.  The graph-based oracle must dominate
        // the end-to-end message latencies (self-queueing included), and the
        // bursty ordering checks (zero-burst collapse, monotonicity) run.
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 3,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::WawWap,
            message_flits: 1,
            cycles: 6_000,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::Bursty {
                burst: 4,
                gap: 1_000,
                cv: 25,
            },
            faults: FaultChoice::None,
        };
        assert!(
            scenario.label().ends_with(" b=4/g=1000/cv=25"),
            "{}",
            scenario.label()
        );
        let outcome = scenario.run().unwrap();
        assert!(
            outcome.passed(),
            "violations: {:?} / {:?}",
            outcome.violations,
            outcome.ordering_violations
        );
        assert!(outcome.dominance_checked, "graph-ba oracle must dominate");
        assert!(outcome.tightness.flows > 0);
        assert!(outcome.tightness.max <= 1.0);
        assert!(outcome.observed.count > 0);
    }

    #[test]
    fn sampled_bursty_scenarios_pass() {
        let mut cache = FlowSetCache::new();
        for index in 0..4 {
            let scenario = Scenario::sample_bursty(index, 42);
            let outcome = scenario.run_with_cache(&mut cache).unwrap();
            assert!(
                outcome.passed(),
                "{}: {:?} / {:?}",
                scenario.label(),
                outcome.violations,
                outcome.ordering_violations
            );
            assert_eq!(outcome, scenario.run().unwrap(), "{}", scenario.label());
        }
    }

    #[test]
    fn a_small_multi_vc_scenario_passes_end_to_end() {
        // Pinned multi-VC platform: the preemptive oracle is the only
        // dominating analysis (the single-VC analyses are demoted), VC 0
        // flows carry finite bounds and higher VCs may carry the saturation
        // sentinel — the scenario must still be dominance-checked and pass.
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 3,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::Regular {
                max_packet_flits: 2,
            },
            message_flits: 2,
            cycles: 2_000,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Count {
                count: 2,
                assignment: VcAssignment::FlowIndex,
            },
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::None,
        };
        assert!(
            scenario.label().ends_with(" vc=2/idx"),
            "{}",
            scenario.label()
        );
        let outcome = scenario.run().unwrap();
        assert!(
            outcome.passed(),
            "violations: {:?} / {:?}",
            outcome.violations,
            outcome.ordering_violations
        );
        assert!(outcome.dominance_checked, "preemptive oracle must dominate");
        assert!(outcome.observed.count > 0);
    }

    #[test]
    fn fault_sampler_perturbs_only_the_fault_dimension() {
        let mut kinds = [false; 5]; // none, L1, L2, L3, router
        let mut cycle_zero = 0;
        let mut midrun = 0;
        for index in 0..60 {
            let scenario = Scenario::sample_fault(index, 11);
            let base = Scenario::sample(index, 11);
            // Platform identical to the legacy sampler: only the fault
            // dimension (and its cycle stretch) may differ.
            assert_eq!(scenario.side, base.side, "{}", scenario.label());
            assert_eq!(scenario.family, base.family, "{}", scenario.label());
            assert_eq!(scenario.design, base.design, "{}", scenario.label());
            assert_eq!(scenario.buffers, base.buffers, "{}", scenario.label());
            assert_eq!(scenario.vcs, base.vcs, "{}", scenario.label());
            assert_eq!(scenario.traffic, base.traffic, "{}", scenario.label());
            match scenario.faults {
                FaultChoice::None => {
                    kinds[0] = true;
                    assert_eq!(scenario, base, "fault-free point must be the base point");
                }
                FaultChoice::Links {
                    count, activation, ..
                } => {
                    assert!((1..=3).contains(&count), "{}", scenario.label());
                    kinds[count as usize] = true;
                    assert!(activation < scenario.cycles, "{}", scenario.label());
                    if activation == 0 {
                        cycle_zero += 1
                    } else {
                        midrun += 1
                    }
                }
                FaultChoice::Router { activation, .. } => {
                    kinds[4] = true;
                    if activation == 0 {
                        cycle_zero += 1
                    } else {
                        midrun += 1
                    }
                }
            }
            // The sampled plan must materialize on the scenario's own mesh.
            let mesh = Mesh::square(scenario.side).unwrap();
            assert!(scenario.faults.plan(&mesh).is_ok(), "{}", scenario.label());
            assert_eq!(
                Scenario::sample_fault(index, 11),
                scenario,
                "sampler not pure"
            );
        }
        assert!(
            kinds.iter().all(|&k| k),
            "fault kinds barely covered: {kinds:?}"
        );
        assert!(cycle_zero > 0, "no degraded-from-start scenario sampled");
        assert!(midrun > 0, "no mid-run activation sampled");
    }

    #[test]
    fn a_degraded_from_start_scenario_is_held_to_degraded_oracles() {
        // Pinned cycle-0 link failure: every observation happens on the
        // up*/down* tree-routed topology, so the outcome must be
        // dominance-checked against freshly built degraded oracles — and
        // pass.
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 4,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::Regular {
                max_packet_flits: 4,
            },
            message_flits: 4,
            cycles: 4_000,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::Links {
                count: 1,
                seed: 3,
                activation: 0,
            },
        };
        assert!(
            scenario.label().ends_with(" f=L1#3@0"),
            "{}",
            scenario.label()
        );
        let outcome = scenario.run().unwrap();
        assert!(
            outcome.passed(),
            "violations: {:?} / {:?}",
            outcome.violations,
            outcome.ordering_violations
        );
        assert!(
            outcome.dominance_checked,
            "degraded oracles must dominate a cycle-0 scenario"
        );
        assert!(outcome.observed.count > 0, "survivors must deliver");
        assert!(outcome.tightness.max <= 1.0);
    }

    #[test]
    fn a_midrun_fault_scenario_is_drain_only() {
        // Pinned mid-run router death: observations mix healthy-epoch and
        // degraded-epoch traversals, so no dominance claim is made — the
        // invariant is that the run drains (no deadlock, no stall error).
        let scenario = Scenario {
            index: 0,
            seed: 0,
            side: 4,
            family: ScenarioFamily::AllToOne {
                hotspot: Coord::from_row_col(0, 0),
            },
            design: DesignChoice::Regular {
                max_packet_flits: 4,
            },
            message_flits: 4,
            cycles: 4_000,
            buffers: BufferChoice::Default,
            vcs: VcChoice::Default,
            traffic: TrafficChoice::ClosedLoop,
            faults: FaultChoice::Router {
                seed: 5,
                activation: 2_000,
            },
        };
        assert!(
            scenario.label().ends_with(" f=R#5@2000"),
            "{}",
            scenario.label()
        );
        let outcome = scenario.run().unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert!(
            !outcome.dominance_checked,
            "mid-run mixtures admit no oracle claim"
        );
        assert!(outcome.violations.is_empty());
        assert!(outcome.ordering_violations.is_empty());
    }

    #[test]
    fn sampled_fault_scenarios_pass() {
        let mut cache = FlowSetCache::new();
        for index in 0..6 {
            let scenario = Scenario::sample_fault(index, 42);
            let outcome = scenario.run_with_cache(&mut cache).unwrap();
            assert!(
                outcome.passed(),
                "{}: {:?} / {:?}",
                scenario.label(),
                outcome.violations,
                outcome.ordering_violations
            );
            assert_eq!(outcome, scenario.run().unwrap(), "{}", scenario.label());
        }
    }
}
