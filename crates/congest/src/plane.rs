//! The CSR edge-indexed mailbox plane.
//!
//! The plane has **two lanes**, chosen per send call:
//!
//! * **Broadcast lane** — `Ctx::broadcast` sends one value across every
//!   out-edge, so it needs no per-edge payload storage at all: the
//!   payload goes into the sender's own slot of an `n`-sized array (one
//!   contiguous write, no destination resolution). The array is
//!   double-buffered by round parity, so the slot stays valid for one
//!   more round, and a receiver whose only mail from the sender is that
//!   one broadcast reads it there, in place, through its
//!   [`crate::Inbox`]: delivery records the in-neighbor's position and
//!   copies nothing. This is the hot lane: HNT22-style coloring
//!   protocols are broadcast-dominated (trials, adoptions, slack
//!   announcements, hash-family indices all go to every neighbor).
//! * **Targeted lane** — `Ctx::send(to, ..)` writes the slot of the
//!   directed edge `(u, to)`, keyed by the *receiver-side* CSR edge id
//!   `offsets[to] + pos(u in N(to))`, reached through the reverse-CSR
//!   permutation `rev[offsets[u] + k]`. Keying by receiver keeps a
//!   receiver's in-slots contiguous for delivery. Destination resolution
//!   is O(1) via a lazily filled per-worker [`NeighborIndex`] (with a
//!   small-degree fast path), not a per-message `binary_search`.
//!
//! **Mail words** say which in-edges carry anything this round: one bit
//! per directed edge ([`MailBoard`]) means the edge's sender wrote to its
//! receiver, on either lane. A targeted write sets the bit of its edge,
//! a broadcast sets the bit of every out-edge (found through `rev`, like
//! the targeted slots), and routing visits exactly the set bits,
//! clearing them as it delivers. Delivery cost therefore follows the
//! messages carried, not the degrees of the receivers addressed.
//!
//! Slots inline the round's **first** message next to the epoch stamp and
//! the per-edge bit counter — in the CONGEST model an edge almost always
//! carries at most one message per round — and spill further same-round
//! messages to cold side arrays. Every message is tagged with the
//! sender's per-round send sequence, so a receiver that gets both lanes
//! from one neighbor in one round merges them back into exact send-call
//! order. Slots reset lazily by epoch stamp (the round of their last
//! write): no per-round clearing pass, no steady-state allocation.
//!
//! Bandwidth accounting is folded into the writes: a targeted write
//! accumulates its bits in the edge slot, a broadcast write accumulates
//! its per-copy bits in the sender's broadcast slot, and delivery sums
//! the two for the per-directed-edge round load.
//!
//! # Ownership sharding and the exchange lanes
//!
//! The session engine partitions the node range into contiguous
//! **ownership shards** (see [`crate::session`]). Each shard owns its
//! receivers' targeted-slot range (a per-shard CSR sub-plane: the
//! contiguous `offsets[lo]..offsets[hi]` block of `slots`/`spill`), its
//! senders' broadcast slots, and its receivers' mail words. During the
//! step phase a sender writes **only** slots and mail words its own
//! shard owns; a send or broadcast bit whose receiver lives in another
//! shard is *staged* into an [`ExchangeLanes`] outbox cell keyed
//! `(sender shard, receiver shard)` instead of touching the foreign
//! sub-plane. At the exchange point (one barrier later) each shard
//! drains its inbound column and replays the staged writes into its own
//! sub-plane — reconstructing the exact inline-first/spill/sequence slot
//! state and mail bits a direct write would have produced, because every
//! directed edge still has exactly one sender and the staged records
//! carry the sender's send-sequence tags.
//!
//! Broadcast slots are the **ghost state**: during routing, and during
//! the next round's step through the receivers' inboxes, a shard *reads*
//! any sender's broadcast slot (cross-shard included) without mutation —
//! a read-only ghost copy frozen at the exchange barrier.
//!
//! Lane storage is `UnsafeCell`-based because the phases access slots at
//! value-dependent disjoint indices the borrow checker cannot see:
//!
//! * **step phase** — worker `w` owns senders `[lo_w, hi_w)`: it writes
//!   their broadcast slots (disjoint, contiguous) and, of their
//!   out-edges' targeted slots and mail bits, exactly those owned by its
//!   own shards (disjoint because every directed edge has exactly one
//!   sender, a receiver's mail words belong to it alone, *and*
//!   cross-shard writes are staged, never direct).
//! * **exchange + routing phase** — worker `w` drains the exchange
//!   cells addressed to its shards (each cell has exactly one writer
//!   shard and one reader shard) into its own receivers' contiguous
//!   targeted slots and mail words, then mutates only those, and
//!   performs **reads** of the round's broadcast array (no mutation; it
//!   notes which in-edges carry one broadcast and nothing else, and
//!   clones the payload only for the rare rest).
//!
//! The phases are separated by a barrier (or by program order in a
//! one-worker pass), so no slot or mail word is ever written by one
//! thread while another touches it, and no exchange cell is drained
//! before its writer is done staging.
//!
//! # Reading a broadcast in place (SAFETY)
//!
//! The round of epoch `r` writes broadcast array [`parity`]`(r)`, and
//! its routing puts each in-edge whose whole mail was one broadcast on
//! the receiver's *heard list*. During the step of round `r + 1`, the
//! receiver's [`crate::Inbox`] reads those broadcasts in array
//! `parity(r)`, on whatever worker steps the receiver. That is sound
//! because:
//!
//! * nobody writes array `parity(r)` during round `r + 1`: its step
//!   writes the other array, and its routing only reads that other one;
//! * the writes came in round `r`'s step, and barriers A and B of round
//!   `r` (or program order, in a one-worker pass) lie between them and
//!   the reads, which is the ghost rule of DESIGN.md §9.1, stretched by
//!   one round;
//! * round `r + 2`'s step rewrites array `parity(r)` only after round
//!   `r + 1`'s barrier A, which every reader crosses after its last
//!   `on_round` of round `r + 1`, and after round `r + 1`'s routing has
//!   cleared every heard list that points into the array (through the
//!   `filled` worklist), so no later inbox can name a rewritten slot;
//! * an [`crate::Inbox`] borrows for one `on_round` call and cannot
//!   outlive it, and `Session::run` clears every heard list at pass
//!   start. Epochs are session-global and never reset, so the parity
//!   alternates across passes too, and a heard list never survives into
//!   a pass (or a binding) whose slots it does not describe.
//!
//! The faulty router never fills a heard list: a held-back or duplicated
//! copy must outlive the slot it came from, so it copies every message.

use crate::error::SimError;
use crate::message::Message;
use graphs::{Graph, NodeId};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// One mailbox slot — the hot, fixed-size part shared by both lanes.
///
/// The targeted lane keys one per directed edge (drained at delivery);
/// the broadcast lane keys one per node, where `bits` counts the
/// *per-copy* cost every receiving edge accounts and delivery clones
/// instead of draining.
pub(crate) struct Slot<M> {
    /// Round of the last write; `u64::MAX` = never written. A stale stamp
    /// means the other fields are leftovers and are reset in place on the
    /// next write (lazy, so idle slots cost nothing).
    pub(crate) stamp: u64,
    /// Bits accumulated by this round's writes. Saturates at `u32::MAX` —
    /// orders of magnitude above any per-round CONGEST load.
    pub(crate) bits: u32,
    /// Number of same-round messages pushed to the spill vector.
    pub(crate) spilled: u32,
    /// Send-sequence tag of `first` (for merging the two lanes back into
    /// exact send order).
    pub(crate) seq: u32,
    /// The round's first message, inline — the common case.
    pub(crate) first: Option<M>,
}

/// A slot's cold overflow: its round's further messages, each with its
/// send-sequence tag.
pub(crate) type Spill<M> = PlaneCell<Vec<(M, u32)>>;

/// Shareable cell for slot-indexed plane storage; see the module docs for
/// the disjoint-access protocol that makes the `Sync` impl sound.
pub(crate) struct PlaneCell<T>(UnsafeCell<T>);

/// SAFETY: plane cells are mutated only at phase-disjoint indices (module
/// docs). Payloads move between threads (`T: Send`), and a broadcast
/// slot is read by several workers at once, during routing and through
/// the next round's inboxes, but never while anyone mutates it
/// (`T: Sync`).
unsafe impl<T: Send + Sync> Sync for PlaneCell<T> {}

impl<T> PlaneCell<T> {
    pub(crate) fn new(value: T) -> Self {
        PlaneCell(UnsafeCell::new(value))
    }

    /// Raw pointer; the caller must hold this phase's exclusivity over
    /// the index (module docs) for the duration of the dereference.
    pub(crate) fn get(&self) -> *mut T {
        self.0.get()
    }
}

/// O(1) neighbor-position lookup, one per engine worker.
///
/// `mark[w] == tick` means `pos[w]` is the position of `w` in the
/// neighbor list the index was last filled from. Filling is lazy — it
/// happens on a node's first targeted `send` of the round, so
/// broadcast-only protocols never pay for it — and costs `O(deg)`, after
/// which every `send` resolves in O(1).
pub(crate) struct NeighborIndex {
    mark: Vec<u64>,
    pos: Vec<u32>,
    tick: u64,
}

impl NeighborIndex {
    /// An index able to resolve destinations in `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        NeighborIndex {
            mark: vec![0; n],
            pos: vec![0; n],
            tick: 0,
        }
    }

    /// Grow the index to resolve destinations in `0..n` (never shrinks).
    /// New entries carry mark 0, which predates every post-fill `tick`,
    /// so they can never be mistaken for resolved positions.
    pub(crate) fn grow(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.pos.resize(n, 0);
        }
    }

    /// Point the index at a new neighbor list (O(deg)).
    fn fill(&mut self, neighbors: &[NodeId]) {
        self.tick += 1;
        for (k, &w) in neighbors.iter().enumerate() {
            self.mark[w as usize] = self.tick;
            self.pos[w as usize] = k as u32;
        }
    }

    /// Neighbor position of `to` in the list last filled, if present.
    fn get(&self, to: NodeId) -> Option<usize> {
        let t = to as usize;
        (t < self.mark.len() && self.mark[t] == self.tick).then(|| self.pos[t] as usize)
    }
}

/// Per-receiver mail words: one bit per directed edge, set iff the
/// edge's sender wrote to its receiver this round, on either lane.
/// Routing visits exactly the set bits and clears them as it delivers,
/// so a round costs the messages it carries, not the in-degrees of the
/// receivers it addresses.
///
/// The edge with receiver-side id `e = offsets[v] + j` (in-neighbor `j`
/// of `v`) is bit [`mail_bit`]`(e, v) = e + 63·v`. Receiver `v`'s bits
/// are thus one contiguous run, and consecutive receivers' runs lie 63
/// bits apart, so no word ever holds bits of two receivers. The words
/// therefore follow the receiver-range ownership of the slot arrays:
/// written only by the owning shard's worker in the step phase
/// (cross-shard bits are staged through the exchange lanes) and read
/// and cleared only by it in routing. They are atomics so that this
/// needs no `unsafe`, but every access is a plain relaxed load or store,
/// never a read-modify-write; the phase barriers order them across
/// workers.
///
/// A round that aborts (a step error before routing, or a routing error
/// mid-sweep) leaves bits behind; [`MailBoard::clear`] at every pass
/// start discards them, so leftovers never deliver.
pub(crate) struct MailBoard {
    words: Vec<AtomicU64>,
}

/// The mail bit of the directed edge with receiver-side id `e` into
/// receiver `to` (see [`MailBoard`]).
#[inline]
pub(crate) fn mail_bit(e: u32, to: NodeId) -> u32 {
    e + 63 * to
}

impl MailBoard {
    /// A board bound to no graph.
    pub(crate) fn empty() -> Self {
        MailBoard { words: Vec::new() }
    }

    /// Size the board for `n` receivers and `m` directed edges (reusing
    /// capacity); every word starts clear.
    fn rebuild(&mut self, n: usize, m: usize) {
        let bits = m + 63 * n;
        assert!(
            bits <= u32::MAX as usize,
            "graph too large for u32 mail bits"
        );
        self.words.clear();
        self.words
            .resize_with(bits.div_ceil(64), || AtomicU64::new(0));
    }

    /// Set mail bit `bit` (a [`mail_bit`]).
    #[inline]
    pub(crate) fn set(&self, bit: u32) {
        let word = &self.words[(bit >> 6) as usize];
        word.store(
            word.load(Ordering::Relaxed) | 1 << (bit & 63),
            Ordering::Relaxed,
        );
    }

    /// Receiver `v`'s words, and where its run starts in the first of
    /// them: in-neighbor `j` is bit `skip + j` of the words read as one
    /// bit string (word `i` holding bits `64·i..64·i + 64`).
    #[inline]
    pub(crate) fn words(&self, offsets: &[usize], v: usize) -> (&[AtomicU64], usize) {
        let (lo, hi) = (offsets[v] + 63 * v, offsets[v + 1] + 63 * v);
        if lo == hi {
            return (&[], 0);
        }
        (&self.words[lo / 64..=(hi - 1) / 64], lo % 64)
    }

    /// Clear every word (pass start): bits an aborted round left behind
    /// must never deliver.
    pub(crate) fn clear(&mut self) {
        for word in &mut self.words {
            *word.get_mut() = 0;
        }
    }
}

/// Read a mail word and clear it: a plain load, plus a store only when
/// the word had bits (no read-modify-write; the caller owns the word).
#[inline]
pub(crate) fn take_mail(word: &AtomicU64) -> u64 {
    let bits = word.load(Ordering::Relaxed);
    if bits != 0 {
        word.store(0, Ordering::Relaxed);
    }
    bits
}

/// Degree at or below which `resolve` searches the (cache-resident)
/// neighbor list directly instead of the O(1) scratch table: for short
/// lists a handful of L1 compares beats two probes into `n`-sized arrays.
const SMALL_DEGREE: usize = 32;

/// A sender's window onto the mailbox plane for one `on_round` call.
pub(crate) struct SlotSink<'a, M> {
    /// The whole targeted-lane slot array (writes go to
    /// `slots[rev_out[k]]`).
    pub(crate) slots: &'a [PlaneCell<Slot<M>>],
    /// The whole targeted-lane overflow array (same indexing; cold).
    pub(crate) spill: &'a [Spill<M>],
    /// This node's broadcast-lane slot.
    pub(crate) bcast: &'a PlaneCell<Slot<M>>,
    /// This node's broadcast-lane overflow (cold).
    pub(crate) bcast_spill: &'a Spill<M>,
    /// The node's slice of the reverse-CSR permutation: `rev_out[k]` is
    /// the receiver-side slot id of the edge to the `k`-th neighbor.
    pub(crate) rev_out: &'a [u32],
    /// The session's mail words (every write sets its edge's bit so
    /// routing visits only in-edges with mail).
    pub(crate) mail: &'a MailBoard,
    /// Current round (the epoch value to stamp writes with).
    pub(crate) epoch: u64,
    /// Per-round send-call sequence (shared by both lanes; restores exact
    /// send order at delivery).
    pub(crate) seq: u32,
    /// Targeted sends issued through this sink (drives the router's
    /// lane skipping).
    pub(crate) targeted: u32,
    /// Broadcasts issued through this sink.
    pub(crate) broadcasts: u32,
    /// The worker's neighbor-position scratch.
    pub(crate) lookup: &'a mut NeighborIndex,
    /// Whether `lookup` has been filled for this node yet.
    pub(crate) filled: bool,
    /// Whether a fault plan is active: sends to non-neighbors are then
    /// eaten by the faulty network (counted in `misrouted`) instead of
    /// failing the run with [`SimError::NotANeighbor`].
    pub(crate) forgiving: bool,
    /// Sends eaten because the destination was not a neighbor (only under
    /// an active fault plan; see `forgiving`).
    pub(crate) misrouted: u64,
    /// First error any node of this worker's range raised (kept, not
    /// overwritten — nodes are stepped in ascending id order).
    pub(crate) err: &'a mut Option<SimError>,
    /// The sender's ownership shard: which receivers are local (written
    /// directly) and where cross-shard writes are staged.
    pub(crate) shard: ShardRoute<'a, M>,
}

/// A sender shard's view of the exchange topology for one step call:
/// the owned (local) node range and the sender's row of outbox cells,
/// one per receiver shard.
pub(crate) struct ShardRoute<'a, M> {
    /// First node id this shard owns.
    pub(crate) lo: NodeId,
    /// One past the last node id this shard owns.
    pub(crate) hi: NodeId,
    /// Shard width in nodes (receiver shard of node `v` is `v / chunk`).
    pub(crate) chunk: NodeId,
    /// The sender shard's outbox row, indexed by receiver shard. Empty
    /// in single-shard runs (where `is_local` is always true).
    pub(crate) row: &'a [PlaneCell<Outbox<M>>],
}

impl<M> ShardRoute<'_, M> {
    /// Whether this shard owns receiver `to`.
    #[inline]
    pub(crate) fn is_local(&self, to: NodeId) -> bool {
        self.lo <= to && to < self.hi
    }

    /// Stage a targeted send toward the shard owning `to`.
    ///
    /// SAFETY-relevant invariant: cell `row[to / chunk]` is written only
    /// by this sender shard's worker during the step phase and drained
    /// only by the receiver shard's worker after the exchange barrier.
    fn outbox(&self, to: NodeId) -> *mut Outbox<M> {
        self.row[(to / self.chunk) as usize].get()
    }

    /// Stage the exact slot write `(edge, seq, msg)` and its mail bit
    /// for the owner of `to` to replay at the exchange point.
    pub(crate) fn stage(&self, to: NodeId, edge: u32, bit: u32, epoch: u64, seq: u32, msg: M) {
        // SAFETY: single-writer-per-phase exclusivity, see above.
        let ob = unsafe { &mut *self.outbox(to) };
        ob.reset_for(epoch);
        ob.sends.push(Staged {
            edge,
            bit,
            seq,
            msg,
        });
    }

    /// Stage a broadcast's mail bit for the owner of `to`.
    pub(crate) fn stage_mail(&self, to: NodeId, bit: u32, epoch: u64) {
        // SAFETY: single-writer-per-phase exclusivity, see above.
        let ob = unsafe { &mut *self.outbox(to) };
        ob.reset_for(epoch);
        ob.mail.push(bit);
    }
}

/// One staged cross-shard targeted send: enough to replay the exact
/// slot write on the owning shard.
pub(crate) struct Staged<M> {
    /// Receiver-side slot id of the directed edge (the sender's
    /// `rev_out[k]`).
    pub(crate) edge: u32,
    /// Mail bit of the directed edge.
    pub(crate) bit: u32,
    /// The sender's per-round send-sequence tag.
    pub(crate) seq: u32,
    pub(crate) msg: M,
}

/// One (sender shard → receiver shard) exchange buffer. Epoch-stamped
/// with the same lazy-reset protocol as the slots: content staged in an
/// aborted round (a step error exits before the exchange point) keeps
/// its stale stamp, is never applied, and is cleared in place by the
/// next round's first staging push.
pub(crate) struct Outbox<M> {
    /// Epoch of the last staging push; `u64::MAX` = never written.
    stamp: u64,
    /// Staged targeted sends, in the sender shard's step order.
    sends: Vec<Staged<M>>,
    /// Staged mail bits of broadcasts (one per cross-shard out-edge).
    mail: Vec<u32>,
}

impl<M> Outbox<M> {
    fn fresh() -> Self {
        Outbox {
            stamp: u64::MAX,
            sends: Vec::new(),
            mail: Vec::new(),
        }
    }

    /// Lazy epoch reset: drop content from any earlier (possibly
    /// aborted) round before the first push of this one.
    fn reset_for(&mut self, epoch: u64) {
        if self.stamp != epoch {
            self.stamp = epoch;
            self.sends.clear();
            self.mail.clear();
        }
    }
}

/// The shards × shards grid of exchange outboxes, row-major by sender
/// shard: cell `(from, to)` carries `from`'s cross-shard writes into
/// `to`'s sub-plane. Owned by the session core so the (cold) buffers
/// are reused across rounds, passes, and rebinds — stale content is
/// fenced off by the epoch stamps exactly like slot state.
pub(crate) struct ExchangeLanes<M> {
    shards: usize,
    boxes: Vec<PlaneCell<Outbox<M>>>,
}

impl<M: Message> ExchangeLanes<M> {
    /// Lanes bound to no shard layout.
    pub(crate) fn empty() -> Self {
        ExchangeLanes {
            shards: 0,
            boxes: Vec::new(),
        }
    }

    /// Rebuild the grid for `shards` ownership shards (no-op when the
    /// count is unchanged; retained cells keep stale stamps, which the
    /// lazy reset fences off).
    pub(crate) fn ensure(&mut self, shards: usize) {
        if self.shards != shards {
            self.shards = shards;
            self.boxes = (0..shards * shards)
                .map(|_| PlaneCell::new(Outbox::fresh()))
                .collect();
        }
    }

    /// Sender shard `from`'s outbox row (indexed by receiver shard).
    pub(crate) fn row(&self, from: usize) -> &[PlaneCell<Outbox<M>>] {
        &self.boxes[from * self.shards..(from + 1) * self.shards]
    }

    /// Drain every outbox addressed to `shard`, replaying the staged
    /// writes and mail bits into `shard`'s own sub-plane — the exchange
    /// phase. Sender shards are drained in ascending order and each
    /// shard stages in its own step order, so per-slot replay preserves
    /// the per-sender sequence tags exactly.
    ///
    /// SAFETY (caller): must run after the exchange barrier (or after
    /// the full step phase in a one-worker pass) and only on the
    /// worker owning `shard`; column cells then have no concurrent
    /// writer, and the slots and mail words written are `shard`'s own.
    pub(crate) fn apply_into(&self, shard: usize, plane: &MailboxPlane<M>, epoch: u64) {
        if self.shards <= 1 {
            return;
        }
        for from in 0..self.shards {
            // SAFETY: post-barrier single-reader exclusivity, see above.
            let ob = unsafe { &mut *self.boxes[from * self.shards + shard].get() };
            if ob.stamp != epoch {
                continue; // idle this round, or stale from an aborted one
            }
            for staged in ob.sends.drain(..) {
                let e = staged.edge as usize;
                // SAFETY: slot `e` belongs to a receiver `shard` owns.
                push_slot(
                    &plane.slots[e],
                    &plane.spill[e],
                    epoch,
                    staged.seq,
                    staged.msg,
                );
                plane.mail.set(staged.bit);
            }
            for bit in ob.mail.drain(..) {
                plane.mail.set(bit);
            }
        }
    }
}

/// Clamp a `bit_cost` to the slot counters' width.
fn cost32(msg_bits: u64) -> u32 {
    u32::try_from(msg_bits).unwrap_or(u32::MAX)
}

/// The shared write protocol of both lanes (and of exchange replay):
/// lazy epoch reset, bit accumulation, inline-first-or-spill, sequence
/// tagging.
///
/// SAFETY (caller): the cells must be ones the calling phase holds
/// exclusivity over — a step-phase sender's own-shard out-edge slots or
/// broadcast slot, or a routing-phase owner replaying staged sends into
/// its own receivers' slots (module docs).
pub(crate) fn push_slot<M: Message>(
    slot: &PlaneCell<Slot<M>>,
    spill: &Spill<M>,
    epoch: u64,
    seq: u32,
    msg: M,
) {
    // SAFETY: exclusivity guaranteed by the caller (see above).
    let slot = unsafe { &mut *slot.get() };
    if slot.stamp != epoch {
        slot.stamp = epoch;
        slot.bits = 0;
        slot.first = None;
        if slot.spilled > 0 {
            slot.spilled = 0;
            // SAFETY: same exclusivity as the hot slot.
            unsafe { &mut *spill.get() }.clear();
        }
    }
    slot.bits = slot.bits.saturating_add(cost32(msg.bit_cost()));
    if slot.first.is_none() {
        slot.first = Some(msg);
        slot.seq = seq;
    } else {
        slot.spilled += 1;
        // SAFETY: same exclusivity as the hot slot.
        unsafe { &mut *spill.get() }.push((msg, seq));
    }
}

impl<M: Message> SlotSink<'_, M> {
    /// Resolve `to` to a neighbor position: O(1) via the scratch table
    /// (filled lazily on a node's first targeted send), with a
    /// small-degree fast path over the neighbor list itself.
    pub(crate) fn resolve(&mut self, neighbors: &[NodeId], to: NodeId) -> Option<usize> {
        if neighbors.len() <= SMALL_DEGREE {
            return neighbors.binary_search(&to).ok();
        }
        if !self.filled {
            self.lookup.fill(neighbors);
            self.filled = true;
        }
        self.lookup.get(to)
    }

    /// Targeted send: append `msg` to the slot of the edge to neighbor
    /// `k` (node id `to`), folding its bit cost into the slot counter and
    /// setting the edge's mail bit. A receiver outside the sender's own
    /// shard is not touched directly: the write is staged into the
    /// exchange lane toward its owner and replayed there at the exchange
    /// point (same slot, same bits, same sequence tag, same mail bit).
    pub(crate) fn write(&mut self, k: usize, to: NodeId, msg: M) {
        let e = self.rev_out[k];
        if self.shard.is_local(to) {
            let slot = e as usize;
            // SAFETY: this sink's node is the unique step-phase sender
            // over its own shard's out-edge slots (module docs).
            push_slot(
                &self.slots[slot],
                &self.spill[slot],
                self.epoch,
                self.seq,
                msg,
            );
            self.mail.set(mail_bit(e, to));
        } else {
            self.shard
                .stage(to, e, mail_bit(e, to), self.epoch, self.seq, msg);
        }
        self.seq += 1;
        self.targeted += 1;
    }

    /// Broadcast to `neighbors` (the node's whole neighbor list): store
    /// `msg` once in the sender's broadcast slot and set the mail bit of
    /// every out-edge — directly for receivers this shard owns, staged
    /// for the others. Every receiving edge accounts `bit_cost` bits, and
    /// its receiver reads the slot in place next round unless the edge
    /// carried more than this one broadcast (then routing clones a copy).
    pub(crate) fn write_bcast(&mut self, neighbors: &[NodeId], msg: M) {
        // SAFETY: a node's broadcast slot is written only while its own
        // worker steps it (module docs).
        push_slot(self.bcast, self.bcast_spill, self.epoch, self.seq, msg);
        for (&to, &e) in neighbors.iter().zip(self.rev_out) {
            if self.shard.is_local(to) {
                self.mail.set(mail_bit(e, to));
            } else {
                self.shard.stage_mail(to, mail_bit(e, to), self.epoch);
            }
        }
        self.seq += 1;
        self.broadcasts += 1;
    }
}

/// Where a `Ctx`'s sends go: the engine's slot plane, or a plain outbox
/// (the reference engine).
pub(crate) enum Sink<'a, M> {
    /// CSR mailbox plane (the engine's fast path).
    Slots(SlotSink<'a, M>),
    /// Legacy per-round `(destination, message)` outbox.
    Outbox(&'a mut Vec<(NodeId, M)>),
}

/// The engine-owned lane arrays plus the reverse-CSR permutation.
pub(crate) struct MailboxPlane<M> {
    /// `rev[offsets[u] + k]` = receiver-side slot id of the edge from `u`
    /// to its `k`-th neighbor (i.e. `offsets[v] + pos(u in N(v))`). An
    /// involution over directed-edge ids.
    pub(crate) rev: Vec<u32>,
    /// Which in-edges carry mail this round, per receiver.
    pub(crate) mail: MailBoard,
    /// Targeted lane, receiver-side keyed: receiver `v` owns the
    /// contiguous range `offsets[v]..offsets[v+1]`, in-neighbor order.
    pub(crate) slots: Vec<PlaneCell<Slot<M>>>,
    /// Targeted-lane overflow (cold; same indexing).
    pub(crate) spill: Vec<Spill<M>>,
    /// Broadcast lane, sender keyed, double-buffered by round parity:
    /// the round of epoch `e` writes `bcast[parity(e)]` (length `n`
    /// each), and its receivers read that array in place during the
    /// next round's step (module docs).
    pub(crate) bcast: [Vec<PlaneCell<Slot<M>>>; 2],
    /// Broadcast-lane overflow (cold; same parity and indexing).
    pub(crate) bcast_spill: [Vec<Spill<M>>; 2],
}

/// Which of the two broadcast arrays the round of epoch `epoch` writes
/// (see [`MailboxPlane::bcast`]).
#[inline]
pub(crate) fn parity(epoch: u64) -> usize {
    (epoch & 1) as usize
}

/// A never-written slot (stamp `u64::MAX` predates every epoch).
fn fresh_slot<M>() -> PlaneCell<Slot<M>> {
    PlaneCell::new(Slot {
        stamp: u64::MAX,
        bits: 0,
        spilled: 0,
        seq: 0,
        first: None,
    })
}

impl<M> MailboxPlane<M> {
    /// A plane bound to no graph (every lane empty). Useful as the
    /// recyclable identity of [`MailboxPlane::rebuild`].
    pub(crate) fn empty() -> Self {
        MailboxPlane {
            rev: Vec::new(),
            mail: MailBoard::empty(),
            slots: Vec::new(),
            spill: Vec::new(),
            bcast: [Vec::new(), Vec::new()],
            bcast_spill: [Vec::new(), Vec::new()],
        }
    }

    /// Retarget the plane at `graph` in place (O(n + m)), reusing the
    /// lane allocations of the previous binding. Slots retained from an
    /// earlier graph keep their stale stamps: as long as the caller's
    /// epoch counter never reuses a value (the [`crate::Session`]
    /// contract), a stale stamp can never equal a live epoch, so leftover
    /// payloads are never delivered and are lazily overwritten by the
    /// next write to the slot.
    pub(crate) fn rebuild(&mut self, graph: &Graph) {
        let offsets = graph.offsets();
        let adj = graph.adjacency();
        assert!(
            adj.len() <= u32::MAX as usize,
            "graph too large for u32 edge ids"
        );
        // rev[offsets[v] + pos(u in N(v))] = offsets[u] + pos(v in N(u)).
        // Iterating senders in ascending id order means each receiver v
        // sees its in-neighbors in ascending order too, so a per-receiver
        // cursor yields pos(u in N(v)) without any search.
        self.rev.clear();
        self.rev.resize(adj.len(), 0);
        let mut cursor: Vec<usize> = offsets[..offsets.len() - 1].to_vec();
        for win in offsets.windows(2) {
            for (x, &v) in adj[win[0]..win[1]]
                .iter()
                .enumerate()
                .map(|(k, v)| (win[0] + k, v))
            {
                self.rev[cursor[v as usize]] = x as u32;
                cursor[v as usize] += 1;
            }
        }
        self.mail.rebuild(graph.n(), adj.len());
        // resize_with truncates on shrink and fills fresh cells on grow;
        // retained cells keep their (stale-stamped) state, see above.
        self.slots.resize_with(adj.len(), fresh_slot);
        self.spill
            .resize_with(adj.len(), || PlaneCell::new(Vec::new()));
        for (bcast, spill) in self.bcast.iter_mut().zip(&mut self.bcast_spill) {
            bcast.resize_with(graph.n(), fresh_slot);
            spill.resize_with(graph.n(), || PlaneCell::new(Vec::new()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    /// Whether receiver `v`'s mail names in-neighbor position `j`.
    fn has_mail(board: &MailBoard, g: &Graph, v: usize, j: usize) -> bool {
        let (words, skip) = board.words(g.offsets(), v);
        let b = skip + j;
        words[b / 64].load(Ordering::Relaxed) & 1 << (b % 64) != 0
    }

    /// Take (and clear) every mail bit of receiver `v`, as positions.
    fn take_all(board: &MailBoard, g: &Graph, v: usize) -> Vec<usize> {
        let (words, skip) = board.words(g.offsets(), v);
        let mut taken = Vec::new();
        for (w, word) in words.iter().enumerate() {
            let bits = take_mail(word);
            taken.extend(
                (0..64)
                    .filter(|b| bits & 1 << b != 0)
                    .map(|b| 64 * w + b - skip),
            );
        }
        taken
    }

    #[test]
    fn rev_is_an_involution_mapping_edges_to_their_reverse() {
        for g in [
            gen::gnp(60, 0.1, 3),
            gen::cycle(9),
            gen::complete(7),
            gen::star(5),
            gen::star(130),
            gen::path(0),
        ] {
            let mut plane: MailboxPlane<()> = MailboxPlane::empty();
            plane.rebuild(&g);
            let offsets = g.offsets();
            let adj = g.adjacency();
            assert_eq!(plane.slots.len(), adj.len());
            assert!(plane.bcast.iter().all(|lane| lane.len() == g.n()));
            for v in 0..g.n() {
                for (j, &u) in g.neighbors(v as NodeId).iter().enumerate() {
                    let x = offsets[v] + j;
                    let e = plane.rev[x] as usize;
                    // e is an out-edge of u pointing at v...
                    assert!(offsets[u as usize] <= e && e < offsets[u as usize + 1]);
                    assert_eq!(adj[e], v as NodeId);
                    // ...and reversing it again returns to x.
                    assert_eq!(plane.rev[e] as usize, x);
                    // Its mail bit reads as in-neighbor j of v, and as
                    // no other edge of any receiver.
                    plane.mail.set(mail_bit(x as u32, v as NodeId));
                    let heard: Vec<_> = (0..g.n())
                        .map(|w| (w, take_all(&plane.mail, &g, w)))
                        .filter(|(_, taken)| !taken.is_empty())
                        .collect();
                    assert_eq!(heard, [(v, vec![j])], "one edge, one bit");
                }
            }
        }
    }

    #[test]
    fn neighbor_index_resolves_and_rejects() {
        let mut idx = NeighborIndex::new(10);
        idx.fill(&[1, 4, 7]);
        assert_eq!(idx.get(1), Some(0));
        assert_eq!(idx.get(4), Some(1));
        assert_eq!(idx.get(7), Some(2));
        assert_eq!(idx.get(2), None);
        assert_eq!(idx.get(99), None, "out-of-range ids are not neighbors");
        // Refilling for another node invalidates earlier marks.
        idx.fill(&[2]);
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.get(2), Some(0));
    }

    #[derive(Clone)]
    struct Bit8;
    impl Message for Bit8 {
        fn bit_cost(&self) -> u64 {
            8
        }
    }

    /// A one-worker, one-shard sink for `node` of `plane`.
    fn sink_for<'a>(
        plane: &'a MailboxPlane<Bit8>,
        g: &'a Graph,
        node: usize,
        epoch: u64,
        lookup: &'a mut NeighborIndex,
        err: &'a mut Option<SimError>,
    ) -> SlotSink<'a, Bit8> {
        let out = g.offsets()[node]..g.offsets()[node + 1];
        SlotSink {
            slots: &plane.slots,
            spill: &plane.spill,
            bcast: &plane.bcast[parity(epoch)][node],
            bcast_spill: &plane.bcast_spill[parity(epoch)][node],
            rev_out: &plane.rev[out],
            mail: &plane.mail,
            epoch,
            seq: 0,
            targeted: 0,
            broadcasts: 0,
            lookup,
            filled: false,
            forgiving: false,
            misrouted: 0,
            err,
            shard: ShardRoute {
                lo: 0,
                hi: NodeId::MAX,
                chunk: 1,
                row: &[],
            },
        }
    }

    #[test]
    fn slot_writes_accumulate_and_epoch_reset_clears_in_place() {
        // Node 0 of the path 0 - 1 - 2: one out-edge (to node 1), which
        // is node 1's in-neighbor 0.
        let g = gen::path(3);
        let mut plane: MailboxPlane<Bit8> = MailboxPlane::empty();
        plane.rebuild(&g);
        let mut lookup = NeighborIndex::new(3);
        let mut err = None;
        let mut sink = sink_for(&plane, &g, 0, 0, &mut lookup, &mut err);
        sink.write(0, 1, Bit8);
        sink.write_bcast(g.neighbors(0), Bit8);
        sink.write(0, 1, Bit8);
        assert_eq!((sink.targeted, sink.broadcasts, sink.seq), (2, 1, 3));
        assert!(
            has_mail(&plane.mail, &g, 1, 0),
            "writes must set the edge's bit"
        );
        assert!(!has_mail(&plane.mail, &g, 1, 1), "node 2 sent nothing");
        assert!(
            !has_mail(&plane.mail, &g, 0, 0),
            "nothing was sent to node 0"
        );
        let e = plane.rev[0] as usize;
        // SAFETY: single-threaded test, no other accessor.
        let slot = unsafe { &mut *plane.slots[e].get() };
        assert_eq!((slot.bits, slot.spilled, slot.seq), (16, 1, 0));
        // The spilled targeted message carries its send sequence (2).
        assert_eq!(unsafe { &*plane.spill[e].get() }[0].1, 2);
        let b = unsafe { &mut *plane.bcast[parity(0)][0].get() };
        assert_eq!((b.bits, b.spilled, b.seq), (8, 0, 1));
        // Routing takes the bit; a cleared board shows no mail at all.
        assert_eq!(take_all(&plane.mail, &g, 1), [0]);
        assert!(!has_mail(&plane.mail, &g, 1, 0));
        plane.mail.set(mail_bit(plane.rev[0], 1));
        plane.mail.clear();
        assert!(
            !has_mail(&plane.mail, &g, 1, 0),
            "clear must drop leftovers"
        );
        // A later epoch resets lazily on the next write.
        let mut sink = sink_for(&plane, &g, 0, 5, &mut lookup, &mut err);
        sink.write(0, 1, Bit8);
        let slot = unsafe { &mut *plane.slots[e].get() };
        assert_eq!((slot.stamp, slot.bits, slot.spilled), (5, 8, 0));
        assert!(unsafe { &*plane.spill[e].get() }.is_empty());
    }

    /// Cross-shard staging + exchange replay reconstructs the exact slot
    /// state and mail bits a direct write would have produced, and stale
    /// staging from an aborted round is fenced off by the epoch stamp.
    #[test]
    fn exchange_replay_matches_direct_writes_and_fences_stale_rounds() {
        // Two shards of one node each (chunk 1) over the edge 0 - 1; the
        // edge 0 → 1 is slot 1 (receiver node 1, in-neighbor 0), mail
        // bit 1 + 63 = 64.
        let g = gen::path(2);
        let mut plane: MailboxPlane<Bit8> = MailboxPlane::empty();
        plane.rebuild(&g);
        assert_eq!((plane.rev[0], mail_bit(plane.rev[0], 1)), (1, 64));
        let mut lanes: ExchangeLanes<Bit8> = ExchangeLanes::empty();
        lanes.ensure(2);
        // Shard 0 (owning node 0) stages two sends and a broadcast bit
        // for node 1 in epoch 7, as SlotSink::write/write_bcast would.
        let route = ShardRoute {
            lo: 0,
            hi: 1,
            chunk: 1,
            row: lanes.row(0),
        };
        assert!(route.is_local(0) && !route.is_local(1));
        route.stage(1, 1, 64, 7, 0, Bit8);
        route.stage(1, 1, 64, 7, 2, Bit8);
        route.stage_mail(1, 64, 7);
        // Applying a *different* epoch must deliver nothing (the aborted
        // -round fence)...
        lanes.apply_into(1, &plane, 8);
        assert!(!has_mail(&plane.mail, &g, 1, 0));
        assert_eq!(unsafe { &*plane.slots[1].get() }.stamp, u64::MAX);
        // ...and restaging in epoch 9 clears the stale content in place.
        route.stage(1, 1, 64, 9, 5, Bit8);
        lanes.apply_into(1, &plane, 9);
        assert!(has_mail(&plane.mail, &g, 1, 0));
        assert!(!has_mail(&plane.mail, &g, 0, 0));
        let slot = unsafe { &*plane.slots[1].get() };
        assert_eq!(
            (slot.stamp, slot.bits, slot.seq, slot.spilled),
            (9, 8, 5, 0)
        );
        assert!(unsafe { &*plane.spill[1].get() }.is_empty());
        // A staged broadcast bit alone also reaches the receiver.
        assert_eq!(take_all(&plane.mail, &g, 1), [0]);
        route.stage_mail(1, 64, 10);
        lanes.apply_into(1, &plane, 10);
        assert!(has_mail(&plane.mail, &g, 1, 0));
        assert_eq!(unsafe { &*plane.slots[1].get() }.stamp, 9, "no slot write");
        // A second apply of the same epoch is a no-op (cells drained).
        take_all(&plane.mail, &g, 1);
        lanes.apply_into(1, &plane, 10);
        assert!(!has_mail(&plane.mail, &g, 1, 0));
        let slot = unsafe { &*plane.slots[1].get() };
        assert_eq!((slot.bits, slot.spilled), (8, 0));
    }
}
