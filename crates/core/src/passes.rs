//! Pass infrastructure: the codec-setup and activation passes, and the
//! color-announce and adoption-digest helpers shared by every pass that
//! announces colors.
//!
//! Every pass program but [`CodecSetupPass`] borrows its node's state
//! (`st: &'s mut NodeState`) and runs through
//! [`crate::driver::Driver::run_in_place`], so the states never leave the
//! solve's buffer. [`CodecSetupPass`] owns its state and runs through
//! [`crate::driver::Driver::run_pass`].

use crate::state::NodeState;
use crate::wire::{tags, ColorWire, Tag, Wire};
use congest::{inbox_positions, Ctx, Program};

/// Digest a neighbor's permanent-color announcement: mark it inactive and
/// colored, remove the color from the palette, and (during
/// `GenerateSlack`) account chromatic slack `κ_v` and slack gain.
///
/// The announcement doubles as the adopter's `(inactive, colored)` status
/// update — [`NodeState::adopt`] records those bits as heard — so no
/// [`ActivatePass`] re-sends them.
///
/// Hash collisions can only remove *extra* palette colors — the true color
/// always matches its own image — so colored-neighbor conflicts are
/// structurally impossible afterwards.
pub fn digest_adoption(st: &mut NodeState, from_pos: usize, wire: ColorWire, count_chroma: bool) {
    st.neighbor_active[from_pos] = false;
    st.neighbor_uncolored[from_pos] = false;
    let in_original = count_chroma && st.codec.original_contains(&st.palette, wire);
    let removed = st.codec.remove_from(&mut st.palette, wire);
    if count_chroma {
        if !in_original {
            st.chroma_slack += 1;
        }
        if removed == 0 {
            st.slack_gain += 1;
        }
    }
}

/// Digest every `ADOPTED` announcement in this round's inbox with
/// [`digest_adoption`]. Draws no randomness and sends nothing.
pub fn digest_adoptions(st: &mut NodeState, ctx: &Ctx<'_, Wire>, count_chroma: bool) {
    for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
        if let Wire::Color {
            tag: tags::ADOPTED,
            payload,
            ..
        } = msg
        {
            digest_adoption(st, pos, *payload, count_chroma);
        }
    }
}

/// Tell every neighbor `color` under `tag`. Raw colors are one
/// broadcast, since every neighbor gets the same payload; hashed colors
/// go out as one targeted send per neighbor, each encoded with that
/// receiver's hash. Either way each neighbor receives one
/// [`Wire::Color`] of the codec's width, in the same place of this
/// node's send order.
pub fn announce_color(st: &NodeState, ctx: &mut Ctx<'_, Wire>, tag: Tag, color: graphs::Color) {
    let bits = st.codec.color_bits();
    if !st.codec.hashed() {
        ctx.broadcast(Wire::Color {
            tag,
            payload: ColorWire::Raw(color),
            bits,
        });
        return;
    }
    for (pos, &to) in ctx.neighbors().iter().enumerate() {
        let payload = st.codec.encode_for(pos, color);
        ctx.send(to, Wire::Color { tag, payload, bits });
    }
}

/// Announce this node's adopted color to all neighbors.
pub fn announce_adoption(st: &NodeState, ctx: &mut Ctx<'_, Wire>, color: graphs::Color) {
    announce_color(st, ctx, tags::ADOPTED, color);
}

/// One-time setup: every node announces its universal-hash index
/// (Appendix D.3) so neighbors can encode colors for it. 2 rounds.
#[derive(Debug)]
pub struct CodecSetupPass {
    st: NodeState,
    done: bool,
}

impl CodecSetupPass {
    /// Wrap a node state.
    pub fn new(st: NodeState) -> Self {
        CodecSetupPass { st, done: false }
    }

    /// Recover the node state.
    pub fn into_state(self) -> NodeState {
        self.st
    }
}

impl Program for CodecSetupPass {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                let index = self.st.codec.choose_index(ctx.rng());
                let bits = self.st.codec.index_bits();
                ctx.broadcast(Wire::Uint {
                    tag: tags::ACTIVE,
                    value: index,
                    bits,
                });
            }
            _ => {
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let Wire::Uint { value, .. } = msg {
                        self.st.codec.set_neighbor_index(pos, *value);
                    }
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Phase activation: each node decides whether it participates in the
/// current phase, and its neighbors learn its `(active, uncolored)` bits.
/// 2 rounds.
///
/// A node broadcasts its bits only when they differ from the bits its
/// neighbors last heard from it (`NodeState`'s `status_heard`); a
/// receiver that hears nothing keeps the bits it holds. Between two
/// activations only drop-outs, newly activated nodes and newly colored
/// nodes change, and the colored ones were already heard through their
/// `ADOPTED` announcements. Under a [`congest::FaultPlan`] the same rule
/// holds: a lost update stays lost until the sender's bits change again.
#[derive(Debug)]
pub struct ActivatePass<'s> {
    st: &'s mut NodeState,
    should_activate: bool,
    done: bool,
}

impl<'s> ActivatePass<'s> {
    /// `should_activate` is the driver's decision (degree range etc.); a
    /// colored node never activates.
    pub fn new(st: &'s mut NodeState, should_activate: bool) -> Self {
        ActivatePass {
            st,
            should_activate,
            done: false,
        }
    }
}

impl Program for ActivatePass<'_> {
    type Msg = Wire;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) {
        match ctx.round() {
            0 => {
                self.st.active = self.should_activate && self.st.uncolored();
                let status = (self.st.active, self.st.uncolored());
                if status != self.st.status_heard {
                    self.st.status_heard = status;
                    ctx.broadcast(Wire::Uint {
                        tag: tags::ACTIVE,
                        value: u64::from(status.0) | (u64::from(status.1) << 1),
                        bits: 2,
                    });
                }
            }
            _ => {
                for (pos, _, msg) in inbox_positions(ctx.neighbors(), ctx.inbox()) {
                    if let Wire::Uint { value, .. } = msg {
                        self.st.neighbor_active[pos] = value & 1 != 0;
                        self.st.neighbor_uncolored[pos] = value & 2 != 0;
                    }
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use congest::SimConfig;
    use graphs::{gen, Graph};

    pub(crate) fn fresh_states(g: &Graph, color_bits: u32) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as u32);
                let list: Vec<u64> = (0..=d as u64).collect();
                let codec = ColorCodec::new(&profile, 7, g.n(), color_bits, d);
                NodeState::new(v as u32, Palette::new(list), codec, d)
            })
            .collect()
    }

    #[test]
    fn codec_setup_exchanges_indices() {
        let g = gen::cycle(6);
        let states = fresh_states(&g, 16);
        let programs: Vec<_> = states.into_iter().map(CodecSetupPass::new).collect();
        let (programs, report) = congest::run(&g, programs, SimConfig::seeded(1)).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds, 2);
        let states: Vec<_> = programs
            .into_iter()
            .map(CodecSetupPass::into_state)
            .collect();
        // Neighbor hash indices recorded consistently: node 0's view of
        // node 1 equals node 1's own choice. We verify via hashing one
        // color both ways.
        let c0 = &states[0].codec;
        let c1 = &states[1].codec;
        let pos_of_1_at_0 = g.neighbors(0).binary_search(&1).unwrap();
        assert_eq!(
            c0.neighbor_hash(pos_of_1_at_0).hash(42),
            c1.my_hash().hash(42)
        );
    }

    #[test]
    fn activation_propagates_flags() {
        let g = gen::path(4);
        let mut states = fresh_states(&g, 16);
        states[2].color = Some(0); // pre-colored node never activates
        let programs: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let on = st.id != 3; // node 3 stays out by driver decision
                ActivatePass::new(st, on)
            })
            .collect();
        congest::run(&g, programs, SimConfig::seeded(2)).unwrap();
        assert!(states[0].active && states[1].active);
        assert!(!states[2].active, "colored node must not activate");
        assert!(!states[3].active);
        // Node 1 sees node 2 as inactive and colored.
        let pos = g.neighbors(1).binary_search(&2).unwrap();
        assert!(!states[1].neighbor_active[pos]);
        assert!(!states[1].neighbor_uncolored[pos]);
    }

    #[test]
    fn digest_adoption_updates_palette_and_slack() {
        let g = gen::path(2);
        let mut states = fresh_states(&g, 16);
        // Node 0 hears node 1 adopt color 1 (in 0's list).
        let wire = ColorWire::Raw(1);
        digest_adoption(&mut states[0], 0, wire, true);
        assert!(!states[0].neighbor_uncolored[0]);
        assert!(!states[0].palette.contains(1));
        assert_eq!(states[0].chroma_slack, 0);
        assert_eq!(states[0].slack_gain, 0);
        // A second announcement of a color outside the list gains slack.
        let mut st = states.remove(0);
        digest_adoption(&mut st, 0, ColorWire::Raw(999), true);
        assert_eq!(st.chroma_slack, 1);
        assert_eq!(st.slack_gain, 1);
    }
}
