//! Per-node state threaded through the pipeline passes.

use crate::palette::Palette;
use crate::wire::ColorCodec;
use graphs::{Color, NodeId};

/// A node's ACD classification within the current phase (Definition 6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AcdClass {
    /// Not yet classified / not active this phase.
    #[default]
    Unclassified,
    /// `V^{sparse}`: locally sparse.
    Sparse,
    /// `V^{uneven}`: adjacent to many higher-degree nodes.
    Uneven,
    /// `V^{dense}`: member of an almost-clique.
    Dense,
}

/// The mutable per-node state shared by every pass of the D1LC pipeline.
///
/// A solve keeps every node's state in one buffer from start to end. Each
/// pass builds a program per node that borrows the node's state, runs,
/// and drops its programs — see [`crate::driver::Driver::run_in_place`].
#[derive(Clone, Debug)]
pub struct NodeState {
    /// This node's identifier.
    pub id: NodeId,
    /// Remaining candidate colors.
    pub palette: Palette,
    /// Adopted color, if any.
    pub color: Option<Color>,
    /// Whether the node participates in the current phase.
    pub active: bool,
    /// Large-color codec (own hash + neighbors' hash indices).
    pub codec: ColorCodec,
    /// Per sorted-neighbor position: is that neighbor still uncolored?
    pub neighbor_uncolored: Vec<bool>,
    /// Per sorted-neighbor position: is that neighbor active this phase?
    pub neighbor_active: Vec<bool>,
    /// The `(active, uncolored)` bits this node's neighbors last heard
    /// from it, by an `ActivatePass` broadcast or, for `(false, false)`,
    /// by its `ADOPTED` announcement. Starts at what every receiver
    /// assumes of a fresh neighbor: inactive, uncolored.
    pub(crate) status_heard: (bool, bool),
    /// ACD class in the current phase.
    pub class: AcdClass,
    /// Almost-clique hub id (the minimum-id member, used for clique-local
    /// communication), if dense.
    pub clique: Option<NodeId>,
    /// Selected leader `x_C` of the clique, if dense.
    pub leader: Option<NodeId>,
    /// Chromatic slack `κ_v` accumulated during `GenerateSlack` (Def. 7).
    pub chroma_slack: u32,
    /// Slack gained during the current phase's `GenerateSlack` (colored
    /// neighbors + same-color coincidences), for `V_start` selection.
    pub slack_gain: u32,
    /// Whether the node is an inlier of its clique.
    pub is_inlier: bool,
    /// Whether the node is in its clique's put-aside set `P_C`.
    pub put_aside: bool,
    /// Whether the clique was classified low-slack (`σ̄_C ≤ ℓ`).
    pub low_slack_clique: bool,
    /// Number of same-clique neighbors `|N_C(v)|` (set by the ACD pass).
    pub nc: u32,
    /// External degree `e_v`: active neighbors outside the clique.
    pub ext: u32,
    /// Clique size `|C|` learned from the hub aggregation.
    pub clique_size: u32,
    /// Whether this node is adjacent to the selected leader.
    pub leader_adjacent: bool,
    /// Same-clique put-aside neighbors (ids), for `G[P_C]` topology upload.
    pub pc_neighbors: Vec<NodeId>,
    /// Per sorted-neighbor position: that neighbor's clique id, if dense.
    pub neighbor_clique: Vec<Option<NodeId>>,
    /// Active uncolored neighbors that announced they received slack
    /// (`V_start` selection, Proposition 2).
    pub flagged_neighbors: u32,
    /// Pass in which the node adopted its color (for stats), if any.
    pub colored_by: Option<&'static str>,
}

impl NodeState {
    /// Fresh state for node `id` with the given list and codec.
    pub fn new(id: NodeId, palette: Palette, codec: ColorCodec, degree: usize) -> Self {
        NodeState {
            id,
            palette,
            color: None,
            active: false,
            codec,
            neighbor_uncolored: vec![true; degree],
            neighbor_active: vec![false; degree],
            status_heard: (false, true),
            class: AcdClass::Unclassified,
            clique: None,
            leader: None,
            chroma_slack: 0,
            slack_gain: 0,
            is_inlier: false,
            put_aside: false,
            low_slack_clique: false,
            nc: 0,
            ext: 0,
            clique_size: 0,
            leader_adjacent: false,
            pc_neighbors: Vec::new(),
            neighbor_clique: vec![None; degree],
            flagged_neighbors: 0,
            colored_by: None,
        }
    }

    /// Whether this node still needs a color.
    pub fn uncolored(&self) -> bool {
        self.color.is_none()
    }

    /// Number of uncolored neighbors.
    pub fn uncolored_degree(&self) -> usize {
        self.neighbor_uncolored.iter().filter(|&&b| b).count()
    }

    /// Number of neighbors that are both active (this phase) and
    /// uncolored — the competition `SlackColor` counts against.
    pub fn active_uncolored_degree(&self) -> usize {
        self.neighbor_uncolored
            .iter()
            .zip(&self.neighbor_active)
            .filter(|&(&u, &a)| u && a)
            .count()
    }

    /// The node's slack within the current participant set:
    /// `s(v) = |Ψ_v| − d̂(v)`.
    pub fn slack(&self) -> i64 {
        self.palette.len() as i64 - self.active_uncolored_degree() as i64
    }

    /// Adopt `color` permanently, crediting `pass` in the stats. The
    /// `ADOPTED` announcement every caller sends next tells the neighbors
    /// that this node is inactive and colored, so that counts as heard.
    ///
    /// # Panics
    ///
    /// Panics if the node is already colored or the color is not in the
    /// palette (both would be pipeline bugs).
    pub fn adopt(&mut self, color: Color, pass: &'static str) {
        assert!(self.color.is_none(), "node {} double-colored", self.id);
        assert!(
            self.palette.contains(color),
            "node {} adopted off-palette color",
            self.id
        );
        self.color = Some(color);
        self.colored_by = Some(pass);
        self.active = false;
        self.status_heard = (false, false);
    }

    /// Reset the per-phase fields (called between degree-range phases).
    pub fn reset_phase(&mut self) {
        self.class = AcdClass::Unclassified;
        self.clique = None;
        self.leader = None;
        self.chroma_slack = 0;
        self.slack_gain = 0;
        self.is_inlier = false;
        self.put_aside = false;
        self.low_slack_clique = false;
        self.nc = 0;
        self.ext = 0;
        self.clique_size = 0;
        self.leader_adjacent = false;
        self.pc_neighbors.clear();
        for c in &mut self.neighbor_clique {
            *c = None;
        }
        self.flagged_neighbors = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;

    fn state() -> NodeState {
        let codec = ColorCodec::new(&ParamProfile::laptop(), 1, 100, 16, 3);
        NodeState::new(7, Palette::new(vec![1, 2, 3, 4]), codec, 3)
    }

    #[test]
    fn fresh_state_is_uncolored() {
        let s = state();
        assert!(s.uncolored());
        assert_eq!(s.uncolored_degree(), 3);
        assert_eq!(s.active_uncolored_degree(), 0); // nobody active yet
        assert_eq!(s.status_heard, (false, true));
    }

    #[test]
    fn slack_counts_active_uncolored() {
        let mut s = state();
        s.neighbor_active = vec![true, true, false];
        assert_eq!(s.active_uncolored_degree(), 2);
        assert_eq!(s.slack(), 4 - 2);
        s.neighbor_uncolored[0] = false;
        assert_eq!(s.slack(), 4 - 1);
    }

    #[test]
    fn adopt_marks_and_deactivates() {
        let mut s = state();
        s.active = true;
        s.adopt(3, "test");
        assert_eq!(s.color, Some(3));
        assert_eq!(s.colored_by, Some("test"));
        assert!(!s.active);
        assert_eq!(s.status_heard, (false, false));
    }

    #[test]
    #[should_panic(expected = "double-colored")]
    fn double_adopt_panics() {
        let mut s = state();
        s.adopt(1, "a");
        s.adopt(2, "b");
    }

    #[test]
    #[should_panic(expected = "off-palette")]
    fn off_palette_adopt_panics() {
        let mut s = state();
        s.adopt(99, "a");
    }

    #[test]
    fn reset_phase_clears_acd_fields() {
        let mut s = state();
        s.class = AcdClass::Dense;
        s.clique = Some(3);
        s.put_aside = true;
        s.reset_phase();
        assert_eq!(s.class, AcdClass::Unclassified);
        assert_eq!(s.clique, None);
        assert!(!s.put_aside);
    }
}
