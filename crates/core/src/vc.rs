//! Virtual-channel configuration: VC count and priority assignment.
//!
//! The paper's router model has a single FIFO per input port.  The
//! priority-preemptive interference analysis of Nikolić & Indrusiak
//! (arXiv:1605.07888) instead assumes **virtual channels**: each input port
//! holds one flit ring *per VC*, credits are tracked per `(output, VC)`, and
//! the output arbiter serves VCs in strict priority order (VC 0 highest)
//! while the classic round-robin/WaW arbiter breaks ties *within* the
//! selected VC.  [`VcConfig`] makes that axis explicit, mirroring
//! [`BufferConfig`](crate::buffers::BufferConfig):
//!
//! * the **count** (1–4) sizes the per-port ring array — count 1 is the
//!   paper's design and must behave bit-identically to the historical
//!   single-queue router;
//! * the **assignment** maps every flow to the VC (= priority class) it
//!   travels on, statically, so the analysis and the simulator agree on
//!   which flows can preempt which.
//!
//! Flows never change VC mid-route (no adaptive VC allocation): a flow's
//! packets occupy the same ring index at every hop, which keeps XY routing
//! deadlock-free per VC and makes the per-flow priority a property the
//! WCTT analysis can consume directly.

use crate::error::{Error, Result};
use crate::flow::FlowId;
use crate::geometry::Coord;

/// Largest supported VC count per input port.
pub const MAX_VCS: usize = 4;

/// Static flow → VC (priority class) assignment rule.
///
/// Both rules are total functions of data available wherever a flow is first
/// seen (its id and endpoints), so dynamically registered flows get the same
/// VC the analysis predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcAssignment {
    /// `vc = flow index mod count` — spreads flows round-robin over priority
    /// classes independent of geometry.
    FlowIndex,
    /// `vc = manhattan(src, dst) mod count` — groups flows by route length,
    /// so short and long routes land in different priority classes.
    Distance,
}

impl VcAssignment {
    /// Short tag for labels and codecs: `idx` / `dist`.
    pub fn tag(&self) -> &'static str {
        match self {
            VcAssignment::FlowIndex => "idx",
            VcAssignment::Distance => "dist",
        }
    }
}

/// Virtual-channel configuration of every router in the mesh: how many VCs
/// each input port carries and how flows are assigned to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcConfig {
    count: u32,
    assignment: VcAssignment,
}

impl VcConfig {
    /// The paper's single-queue design: one VC, assignment irrelevant.
    pub fn single() -> Self {
        VcConfig {
            count: 1,
            assignment: VcAssignment::FlowIndex,
        }
    }

    /// `count` VCs per input port (1..=[`MAX_VCS`]) with the given flow
    /// assignment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `count` is zero or exceeds
    /// [`MAX_VCS`].
    pub fn new(count: u32, assignment: VcAssignment) -> Result<Self> {
        if count == 0 || count as usize > MAX_VCS {
            return Err(Error::InvalidConfig {
                reason: format!("VC count must be 1..={MAX_VCS}, got {count}"),
            });
        }
        Ok(VcConfig { count, assignment })
    }

    /// Number of virtual channels per input port.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The static flow → VC assignment rule.
    pub fn assignment(&self) -> VcAssignment {
        self.assignment
    }

    /// `true` for the single-VC (paper default) design.
    pub fn is_single(&self) -> bool {
        self.count == 1
    }

    /// The VC (= priority class, 0 highest) carrying `flow` between `src`
    /// and `dst`.  Total and deterministic: the simulator and the
    /// priority-preemptive analysis call this same function.
    pub fn vc_of(&self, flow: FlowId, src: Coord, dst: Coord) -> usize {
        if self.count == 1 {
            return 0;
        }
        let class = match self.assignment {
            VcAssignment::FlowIndex => flow.0,
            VcAssignment::Distance => src.manhattan_distance(dst) as usize,
        };
        class % self.count as usize
    }

    /// Short label for reports: `vc=1`, `vc=3/idx`, `vc=2/dist`.
    pub fn label(&self) -> String {
        if self.count == 1 {
            "vc=1".to_string()
        } else {
            format!("vc={}/{}", self.count, self.assignment.tag())
        }
    }
}

impl Default for VcConfig {
    /// The historical design point: a single queue per input port.
    fn default() -> Self {
        VcConfig::single()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_validated() {
        assert!(VcConfig::new(0, VcAssignment::FlowIndex).is_err());
        assert!(VcConfig::new(5, VcAssignment::FlowIndex).is_err());
        for count in 1..=4 {
            assert!(VcConfig::new(count, VcAssignment::Distance).is_ok());
        }
    }

    #[test]
    fn single_vc_maps_every_flow_to_zero() {
        let cfg = VcConfig::single();
        assert!(cfg.is_single());
        for raw in [0usize, 1, 7, 100] {
            assert_eq!(
                cfg.vc_of(FlowId(raw), Coord::new(0, 0), Coord::new(3, 2)),
                0
            );
        }
        assert_eq!(cfg.label(), "vc=1");
    }

    #[test]
    fn flow_index_assignment_cycles_over_classes() {
        let cfg = VcConfig::new(3, VcAssignment::FlowIndex).unwrap();
        let (a, b) = (Coord::new(0, 0), Coord::new(1, 1));
        assert_eq!(cfg.vc_of(FlowId(0), a, b), 0);
        assert_eq!(cfg.vc_of(FlowId(1), a, b), 1);
        assert_eq!(cfg.vc_of(FlowId(2), a, b), 2);
        assert_eq!(cfg.vc_of(FlowId(3), a, b), 0);
        assert_eq!(cfg.label(), "vc=3/idx");
    }

    #[test]
    fn distance_assignment_groups_by_route_length() {
        let cfg = VcConfig::new(2, VcAssignment::Distance).unwrap();
        let origin = Coord::new(0, 0);
        // Manhattan distance 2 -> VC 0; distance 3 -> VC 1.
        assert_eq!(cfg.vc_of(FlowId(9), origin, Coord::new(1, 1)), 0);
        assert_eq!(cfg.vc_of(FlowId(9), origin, Coord::new(2, 1)), 1);
        assert_eq!(cfg.label(), "vc=2/dist");
    }

    #[test]
    fn default_is_the_paper_design() {
        assert_eq!(VcConfig::default(), VcConfig::single());
    }
}
