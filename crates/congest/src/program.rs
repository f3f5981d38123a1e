//! Node programs and their per-round execution context.

use crate::error::SimError;
use crate::message::Message;
use crate::plane::Sink;
use graphs::NodeId;
use rand::rngs::StdRng;

/// A node's distributed program: a state machine advanced once per round.
///
/// The engine calls [`Program::on_round`] every round, starting at round 0
/// with an empty inbox. Messages sent during round `r` are delivered in the
/// inbox of round `r + 1`. The run ends when every node reports
/// [`Program::is_done`] (or the round cap is hit).
pub trait Program: Send {
    /// Message type exchanged by this protocol.
    type Msg: Message;

    /// Advance one round: read `ctx.inbox()`, mutate local state, send
    /// messages via `ctx.send` / `ctx.broadcast`.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Whether this node has terminated. A done node's `on_round` must be
    /// a no-op (no sends, no state changes, no RNG draws): the
    /// active-frontier scheduler ([`crate::Session`]) relies on this to
    /// skip done nodes entirely, and the done flag must never flip back.
    /// Done nodes still *receive* messages until the whole run ends.
    fn is_done(&self) -> bool;
}

/// Per-round execution context handed to [`Program::on_round`].
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) neighbors: &'a [NodeId],
    pub(crate) inbox: &'a [(NodeId, M)],
    pub(crate) rng: &'a mut StdRng,
    pub(crate) sink: Sink<'a, M>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current round number (0-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sorted neighbor list.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Position of `u` in the sorted neighbor list, if adjacent.
    ///
    /// O(log deg); the engine's own send path resolves destinations in
    /// O(1) through the mailbox plane's neighbor index instead.
    pub fn neighbor_index(&self, u: NodeId) -> Option<usize> {
        self.neighbors.binary_search(&u).ok()
    }

    /// Messages delivered this round, as `(sender, message)` pairs.
    ///
    /// **Arrival order is a documented guarantee:** the inbox is sorted by
    /// sender id (the receiver's CSR neighbor order), and messages from
    /// one sender appear in the order that sender's `send`/`broadcast`
    /// calls issued them — regardless of the order destinations were
    /// addressed in, and regardless of the engine's thread count.
    pub fn inbox(&self) -> &'a [(NodeId, M)] {
        self.inbox
    }

    /// The node's private random generator (deterministic per
    /// `(engine seed, node id)`).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send `msg` to neighbor `to` (delivered next round).
    ///
    /// Sending to a non-neighbor is reported by the engine as
    /// [`crate::SimError::NotANeighbor`] — except under an active
    /// [`FaultPlan`](crate::FaultPlan), where the faulty network eats the
    /// message and counts it as misrouted (a lossy network cannot tell a
    /// bad address from a dropped packet).
    pub fn send(&mut self, to: NodeId, msg: M) {
        match &mut self.sink {
            Sink::Slots(s) => match s.resolve(self.neighbors, to) {
                Some(k) => s.write(k, to, msg),
                None if s.forgiving => s.misrouted += 1,
                None => {
                    if s.err.is_none() {
                        *s.err = Some(SimError::NotANeighbor {
                            from: self.node,
                            to,
                            round: self.round,
                        });
                    }
                }
            },
            Sink::Outbox(out) => out.push((to, msg)),
        }
    }

    /// Send a copy of `msg` to every neighbor.
    ///
    /// On the mailbox plane this is a single write into the node's
    /// broadcast slot plus one mail bit per neighbor — no destination
    /// resolution, no per-edge payload storage; the per-neighbor copies
    /// are cloned at delivery.
    pub fn broadcast(&mut self, msg: M) {
        match &mut self.sink {
            Sink::Slots(s) => {
                if self.neighbors.is_empty() {
                    return;
                }
                s.write_bcast(self.neighbors, msg);
            }
            Sink::Outbox(out) => {
                for &to in self.neighbors {
                    out.push((to, msg.clone()));
                }
            }
        }
    }
}

/// Walk an inbox in lockstep with the sorted neighbor list, yielding
/// `(neighbor position, sender, message)` — O(deg) for the whole inbox,
/// versus a binary search per message ([`Ctx::neighbor_index`]).
///
/// Relies on the engine's documented inbox order (sorted by sender id,
/// see [`Ctx::inbox`]); senders are guaranteed neighbors by the engine.
pub fn inbox_positions<'a, M>(
    neighbors: &'a [NodeId],
    inbox: &'a [(NodeId, M)],
) -> impl Iterator<Item = (usize, NodeId, &'a M)> {
    let mut pos = 0usize;
    inbox.iter().map(move |&(from, ref msg)| {
        while neighbors[pos] < from {
            pos += 1;
        }
        debug_assert_eq!(neighbors[pos], from, "sender must be a neighbor");
        (pos, from, msg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_accessors_and_send() {
        let neighbors = [1 as NodeId, 3, 7];
        let inbox: Vec<(NodeId, ())> = vec![(1, ()), (3, ())];
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox = Vec::new();
        let mut ctx = Ctx {
            node: 5,
            round: 2,
            neighbors: &neighbors,
            inbox: &inbox,
            rng: &mut rng,
            sink: Sink::Outbox(&mut outbox),
        };
        assert_eq!(ctx.id(), 5);
        assert_eq!(ctx.round(), 2);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.neighbor_index(3), Some(1));
        assert_eq!(ctx.neighbor_index(2), None);
        assert_eq!(ctx.inbox().len(), 2);
        ctx.send(1, ());
        ctx.broadcast(());
        assert_eq!(outbox.len(), 4);
        assert_eq!(outbox[1].0, 1);
        assert_eq!(outbox[3].0, 7);
    }

    #[test]
    fn inbox_positions_walk_duplicates_and_gaps() {
        let neighbors = [1 as NodeId, 3, 7, 9];
        let inbox: Vec<(NodeId, u8)> = vec![(1, 0), (3, 1), (3, 2), (9, 3)];
        let walked: Vec<_> = inbox_positions(&neighbors, &inbox)
            .map(|(pos, from, &m)| (pos, from, m))
            .collect();
        assert_eq!(walked, [(0, 1, 0), (1, 3, 1), (1, 3, 2), (3, 9, 3)]);
    }
}
