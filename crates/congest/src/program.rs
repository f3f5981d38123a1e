//! Node programs and their per-round execution context.

use crate::error::SimError;
use crate::message::Message;
use crate::plane::{PlaneCell, Sink, Slot};
use graphs::NodeId;
use rand::rngs::StdRng;

/// A node's distributed program: a state machine advanced once per round.
///
/// The engine calls [`Program::on_round`] every round until the node
/// reports [`Program::is_done`], starting at round 0 with an empty inbox.
/// Messages sent during round `r` are delivered in the inbox of round
/// `r + 1`. The run ends when every node is done (or the round cap is
/// hit). The session may skip
/// the rounds a program declares idle ([`Program::wake_round`]); the
/// contract makes each skipped call a no-op, so a run's transcript is the
/// one of stepping every node every round.
pub trait Program: Send {
    /// Message type exchanged by this protocol.
    type Msg: Message;

    /// Advance one round: read `ctx.inbox()`, mutate local state, send
    /// messages via `ctx.send` / `ctx.broadcast`.
    ///
    /// The inbox is an [`Inbox`] view that borrows from the engine for
    /// the length of this call: a broadcast is read where its sender
    /// wrote it, so keep what you need from a message by value (or clone
    /// it), not by reference.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Whether this node has terminated. Every engine reads it before
    /// round 0 and after each step, and retires the node the first time
    /// it reads true: `on_round` is never called again in the run (a
    /// program that starts done is never stepped), so it need not guard
    /// against being done. Done nodes still *receive* messages until the
    /// whole run ends.
    fn is_done(&self) -> bool;

    /// The first round in which this node must be stepped if no mail
    /// reaches it. The default, 0, asks for every round.
    ///
    /// The session ([`crate::Session`]) reads the hint before round 0 and
    /// after each step. A node whose hint lies beyond the next round is
    /// parked: it is stepped again in the hinted round, or in an earlier
    /// round in which mail reaches it, whichever comes first, and its hint
    /// is read again after that step.
    ///
    /// **Contract:** every `on_round` call the hint lets the session skip
    /// would have been a no-op — no send, no RNG draw, no state write and
    /// no change to [`Program::is_done`]. That is, in every round before
    /// the hint, a call with an empty inbox does nothing. The hint itself
    /// must be a pure read of the state: it is read at points the program
    /// does not see, and the reference engine
    /// ([`crate::reference::run_reference`]) never reads it, stepping every
    /// node every round, so the differential batteries check each hint.
    fn wake_round(&self) -> u64 {
        0
    }
}

/// Per-round execution context handed to [`Program::on_round`].
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) neighbors: &'a [NodeId],
    pub(crate) inbox: Inbox<'a, M>,
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
    ///
    /// The view is `Copy` and costs nothing to take: a fault-free
    /// broadcast is read in its sender's broadcast slot, not copied into
    /// this node's inbox (see [`Inbox`]).
    pub fn inbox(&self) -> Inbox<'a, M> {
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
            Sink::Queue(out) => out.push((to, msg)),
        }
    }

    /// Send a copy of `msg` to every neighbor.
    ///
    /// On the mailbox plane this is a single write into the node's
    /// broadcast slot plus one mail bit per neighbor — no destination
    /// resolution, no per-edge payload storage. Each neighbor reads the
    /// slot in place next round; only the rare copies that cannot be
    /// read there (a sender that also sent targeted messages to the
    /// receiver or broadcast twice, or a faulty network) are cloned at
    /// delivery.
    pub fn broadcast(&mut self, msg: M) {
        match &mut self.sink {
            Sink::Slots(s) => {
                if self.neighbors.is_empty() {
                    return;
                }
                s.write_bcast(self.neighbors, msg);
            }
            Sink::Queue(out) => {
                for &to in self.neighbors {
                    out.push((to, msg.clone()));
                }
            }
        }
    }
}

/// The messages delivered to a node this round: the borrowed view
/// [`Ctx::inbox`] returns.
///
/// It yields `(sender, &message)` pairs in the documented inbox order
/// (see [`Ctx::inbox`]). Two kinds of delivery make it up, merged by
/// sender id:
///
/// * **heard broadcasts** — an in-edge whose whole mail last round was
///   one broadcast, delivered fault-free. The engine records only the
///   in-neighbor's position, and the view reads the message in the
///   sender's broadcast slot, which stays valid for exactly this round
///   (the SAFETY argument is in the `plane` module docs);
/// * **owned copies** — everything else: targeted messages, a sender
///   that used both lanes or broadcast twice to this node, and every
///   message a faulty network delivers.
///
/// No sender appears in both, so the merge is a plain two-way walk. An
/// `Inbox` cannot outlive the [`Program::on_round`] call it was handed
/// to.
pub struct Inbox<'a, M> {
    /// Copies the engine made, sorted by sender.
    owned: &'a [(NodeId, M)],
    /// Ascending in-neighbor positions whose broadcast is read in place.
    heard: &'a [u32],
    /// The receiver's sorted neighbor list (resolves `heard` to senders).
    neighbors: &'a [NodeId],
    /// The broadcast array the heard broadcasts were written to.
    bcast: &'a [PlaneCell<Slot<M>>],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// A view of copies only, with nothing heard in place.
    pub(crate) fn owned(owned: &'a [(NodeId, M)]) -> Self {
        Inbox {
            owned,
            heard: &[],
            neighbors: &[],
            bcast: &[],
        }
    }

    /// A view of `owned` copies merged with the broadcasts of the
    /// in-neighbor positions `heard`, read in `bcast`.
    ///
    /// # Safety
    ///
    /// No one may write the slots of `bcast` that `heard` names (through
    /// `neighbors`) while the view, or a message read through it, lives:
    /// the session guarantees it for the round after the broadcasts were
    /// written (the `plane` module docs).
    pub(crate) unsafe fn new(
        owned: &'a [(NodeId, M)],
        heard: &'a [u32],
        neighbors: &'a [NodeId],
        bcast: &'a [PlaneCell<Slot<M>>],
    ) -> Self {
        Inbox {
            owned,
            heard,
            neighbors,
            bcast,
        }
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.owned.len() + self.heard.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty() && self.heard.is_empty()
    }

    /// The messages in inbox order, as `(sender, &message)`.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter { rest: *self }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], in inbox order.
pub struct InboxIter<'a, M> {
    /// What is left to yield.
    rest: Inbox<'a, M>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        let rest = &mut self.rest;
        let heard = rest.heard.first().map(|&j| rest.neighbors[j as usize]);
        if let Some(((from, msg), owned)) = rest.owned.split_first() {
            if heard.is_none_or(|u| *from < u) {
                rest.owned = owned;
                return Some((*from, msg));
            }
        }
        let u = heard?;
        rest.heard = &rest.heard[1..];
        // SAFETY: no one writes this slot while the view lives, which
        // its constructor's caller guaranteed (`Inbox::new`).
        let slot = unsafe { &*rest.bcast[u as usize].get() };
        let msg = slot
            .first
            .as_ref()
            .expect("a heard slot holds its broadcast");
        Some((u, msg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.rest.len();
        (len, Some(len))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// Walk an inbox in lockstep with the sorted neighbor list, yielding
/// `(neighbor position, sender, message)` — O(deg) for the whole inbox,
/// versus a binary search per message ([`Ctx::neighbor_index`]).
///
/// Relies on the engine's documented inbox order (sorted by sender id,
/// see [`Ctx::inbox`]); senders are guaranteed neighbors by the engine.
pub fn inbox_positions<'a, M>(
    neighbors: &'a [NodeId],
    inbox: Inbox<'a, M>,
) -> impl Iterator<Item = (usize, NodeId, &'a M)> {
    let mut pos = 0usize;
    inbox.into_iter().map(move |(from, msg)| {
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
            inbox: Inbox::owned(&inbox),
            rng: &mut rng,
            sink: Sink::Queue(&mut outbox),
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

    /// The same inbox, all copies or with senders 1 and 9 heard in
    /// place, walks the same: the view merges the two by sender.
    #[test]
    fn inbox_positions_walk_duplicates_and_gaps() {
        let neighbors = [1 as NodeId, 3, 7, 9];
        let copies: Vec<(NodeId, u8)> = vec![(1, 0), (3, 1), (3, 2), (9, 3)];
        let bcast: Vec<PlaneCell<Slot<u8>>> = (0..10u8)
            .map(|u| {
                PlaneCell::new(Slot {
                    stamp: 0,
                    bits: 8,
                    spilled: 0,
                    seq: 0,
                    first: [1, 9].contains(&u).then_some(if u == 1 { 0 } else { 3 }),
                })
            })
            .collect();
        let owned = [(3, 1), (3, 2)];
        // SAFETY: single-threaded test; nothing writes `bcast`.
        let heard = unsafe { Inbox::new(&owned, &[0, 3], &neighbors, &bcast) };
        for inbox in [Inbox::owned(&copies), heard] {
            assert_eq!((inbox.len(), inbox.iter().len()), (4, 4));
            let walked: Vec<_> = inbox_positions(&neighbors, inbox)
                .map(|(pos, from, &m)| (pos, from, m))
                .collect();
            assert_eq!(walked, [(0, 1, 0), (1, 3, 1), (1, 3, 2), (3, 9, 3)]);
        }
    }
}
