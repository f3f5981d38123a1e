//! The CSR edge-indexed mailbox plane.
//!
//! The plane has **two lanes**, chosen per send call:
//!
//! * **Broadcast lane** — `Ctx::broadcast` sends one value across every
//!   out-edge, so it needs no per-edge storage at all: the payload goes
//!   into the sender's own slot of an `n`-sized array (one contiguous
//!   write, no destination resolution). Delivery gathers each receiver's
//!   in-neighbors' broadcast slots — an array small enough to stay
//!   cache-resident. This is the hot lane: HNT22-style coloring
//!   protocols are broadcast-dominated (trials, slack announcements,
//!   hash-family indices all go to every neighbor).
//! * **Targeted lane** — `Ctx::send(to, ..)` writes the slot of the
//!   directed edge `(u, to)`, keyed by the *receiver-side* CSR edge id
//!   `offsets[to] + pos(u in N(to))`, reached through the reverse-CSR
//!   permutation `rev[offsets[u] + k]`. Keying by receiver makes
//!   delivery a contiguous sweep of `offsets[v]..offsets[v+1]` and puts
//!   the unavoidable cache scatter on the *store* side, where the engine
//!   hides it with software prefetch. Destination resolution is O(1) via
//!   a lazily filled per-worker [`NeighborIndex`] (with a small-degree
//!   fast path), not a per-message `binary_search`.
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
//! senders' broadcast slots, and its receivers' dirty stamps. During the
//! step phase a sender writes **only** slots its own shard owns; a send
//! whose receiver lives in another shard is *staged* into an
//! [`ExchangeLanes`] outbox cell keyed `(sender shard, receiver shard)`
//! instead of touching the foreign sub-plane. At the exchange point
//! (one barrier later) each shard drains its inbound column and replays
//! the staged writes into its own sub-plane — reconstructing the exact
//! inline-first/spill/sequence slot state a direct write would have
//! produced, because every directed edge still has exactly one sender
//! and the staged records carry the sender's send-sequence tags.
//!
//! Broadcast slots are the **ghost state**: during routing a shard
//! *reads* any sender's broadcast slot (cross-shard included) without
//! mutation — a read-only ghost copy frozen at the exchange barrier.
//!
//! Lane storage is `UnsafeCell`-based because the phases access slots at
//! value-dependent disjoint indices the borrow checker cannot see:
//!
//! * **step phase** — worker `w` owns senders `[lo_w, hi_w)`: it writes
//!   their broadcast slots (disjoint, contiguous) and, of their
//!   out-edges' targeted slots, exactly those owned by its own shards
//!   (disjoint because every directed edge has exactly one sender *and*
//!   cross-shard writes are staged, never direct).
//! * **exchange + routing phase** — worker `w` drains the exchange
//!   cells addressed to its shards (each cell has exactly one writer
//!   shard and one reader shard) into its own receivers' contiguous
//!   targeted slots, then mutates only those slots, and performs
//!   **reads** of broadcast slots (no mutation; broadcast payloads are
//!   cloned per receiving edge, exactly the copies the legacy plane
//!   made at send time).
//!
//! The phases are separated by a barrier (or by program order in a
//! one-worker pass), so no slot is ever written by one thread while
//! another touches it, and no exchange cell is drained before its
//! writer is done staging.

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

/// Shareable cell for slot-indexed plane storage; see the module docs for
/// the disjoint-access protocol that makes the `Sync` impl sound.
pub(crate) struct PlaneCell<T>(UnsafeCell<T>);

/// SAFETY: plane cells are mutated only at phase-disjoint indices (module
/// docs); `T: Send` suffices because payloads move between threads but
/// are never aliased across them mid-mutation.
unsafe impl<T: Send> Sync for PlaneCell<T> {}

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

/// Hint the cache that `p` is about to be written.
///
/// The targeted lane's slot writes are a scatter through the reverse-CSR
/// permutation — the one cache-unfriendly access of the plane. Unlike the
/// legacy outbox plane, the destinations are known *before* the node
/// program runs (they are exactly its `rev_out` entries), so the engine
/// prefetches them and the misses overlap the programs' own compute.
/// No-op on non-x86_64 targets.
#[inline(always)]
pub(crate) fn prefetch_for_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
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

/// Per-receiver dirty stamps: the epoch of the last write addressed to a
/// receiver, the worklist behind the session scheduler's dirty-receiver
/// delivery (see [`crate::Session`]). A targeted send stamps its
/// destination; a broadcast stamps the sender's whole out-neighborhood
/// (the same O(deg) the delivery clone pass pays anyway). Routing then
/// sweeps only receivers stamped with the current epoch instead of every
/// edge slot of the graph.
///
/// Stores are `Relaxed` atomics: several step workers may stamp the same
/// receiver in one round, but they all write the *same* epoch value, and
/// the phase barrier orders every stamp before the routing phase's loads.
pub(crate) struct DirtyBoard {
    stamps: Vec<AtomicU64>,
}

impl DirtyBoard {
    /// A board for receivers `0..n`; no receiver starts dirty (the
    /// initial stamp `u64::MAX` is never a valid epoch).
    pub(crate) fn new(n: usize) -> Self {
        DirtyBoard {
            stamps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    /// Grow the board to cover receivers `0..n` (never shrinks — retained
    /// stamps are from past epochs and the session epoch counter never
    /// reuses a value, so they can never alias a future round).
    pub(crate) fn grow(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize_with(n, || AtomicU64::new(u64::MAX));
        }
    }

    /// Stamp receiver `v` dirty for `epoch`.
    #[inline]
    pub(crate) fn mark(&self, v: NodeId, epoch: u64) {
        self.stamps[v as usize].store(epoch, Ordering::Relaxed);
    }

    /// Whether receiver `v` was addressed during `epoch`.
    #[inline]
    pub(crate) fn is_dirty(&self, v: usize, epoch: u64) -> bool {
        self.stamps[v].load(Ordering::Relaxed) == epoch
    }
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
    pub(crate) spill: &'a [PlaneCell<Vec<(M, u32)>>],
    /// This node's broadcast-lane slot.
    pub(crate) bcast: &'a PlaneCell<Slot<M>>,
    /// This node's broadcast-lane overflow (cold).
    pub(crate) bcast_spill: &'a PlaneCell<Vec<(M, u32)>>,
    /// The node's slice of the reverse-CSR permutation: `rev_out[k]` is
    /// the receiver-side slot id of the edge to the `k`-th neighbor.
    pub(crate) rev_out: &'a [u32],
    /// The session's dirty-receiver stamps (every write marks its
    /// receiver so routing can skip clean nodes).
    pub(crate) dirty: &'a DirtyBoard,
    /// Current round (the epoch value to stamp writes with).
    pub(crate) epoch: u64,
    /// Per-round send-call sequence (shared by both lanes; restores exact
    /// send order at delivery).
    pub(crate) seq: u32,
    /// Targeted sends issued through this sink (drives the engine's
    /// lane-skipping and prefetch heuristics).
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

    /// Stage the exact slot write `(edge, seq, msg)` for the owner of
    /// `to` to replay at the exchange point.
    pub(crate) fn stage(&self, to: NodeId, edge: u32, epoch: u64, seq: u32, msg: M) {
        // SAFETY: single-writer-per-phase exclusivity, see above.
        let ob = unsafe { &mut *self.outbox(to) };
        ob.reset_for(epoch);
        ob.sends.push(Staged { to, edge, seq, msg });
    }

    /// Stage a dirty-receiver stamp for the owner of `to`.
    pub(crate) fn stage_dirt(&self, to: NodeId, epoch: u64) {
        // SAFETY: single-writer-per-phase exclusivity, see above.
        let ob = unsafe { &mut *self.outbox(to) };
        ob.reset_for(epoch);
        ob.dirt.push(to);
    }
}

/// One staged cross-shard targeted send: enough to replay the exact
/// slot write on the owning shard.
pub(crate) struct Staged<M> {
    /// Receiver node id.
    pub(crate) to: NodeId,
    /// Receiver-side slot id of the directed edge (the sender's
    /// `rev_out[k]`).
    pub(crate) edge: u32,
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
    /// Staged dirty-receiver stamps (broadcast out-neighborhood marks).
    dirt: Vec<NodeId>,
}

impl<M> Outbox<M> {
    fn fresh() -> Self {
        Outbox {
            stamp: u64::MAX,
            sends: Vec::new(),
            dirt: Vec::new(),
        }
    }

    /// Lazy epoch reset: drop content from any earlier (possibly
    /// aborted) round before the first push of this one.
    fn reset_for(&mut self, epoch: u64) {
        if self.stamp != epoch {
            self.stamp = epoch;
            self.sends.clear();
            self.dirt.clear();
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
    /// writes into `shard`'s own sub-plane — the exchange phase. Sender
    /// shards are drained in ascending order and each shard stages in
    /// its own step order, so per-slot replay preserves the per-sender
    /// sequence tags exactly.
    ///
    /// SAFETY (caller): must run after the exchange barrier (or after
    /// the full step phase in a one-worker pass) and only on the
    /// worker owning `shard`; column cells then have no concurrent
    /// writer, and the slots written are `shard`'s own.
    pub(crate) fn apply_into(
        &self,
        shard: usize,
        plane: &MailboxPlane<M>,
        dirty: &DirtyBoard,
        epoch: u64,
    ) {
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
                dirty.mark(staged.to, epoch);
            }
            for v in ob.dirt.drain(..) {
                dirty.mark(v, epoch);
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
    spill: &PlaneCell<Vec<(M, u32)>>,
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
    /// stamping the receiver dirty. A receiver outside the sender's own
    /// shard is not touched directly: the write is staged into the
    /// exchange lane toward its owner and replayed there at the exchange
    /// point (same slot, same bits, same sequence tag).
    pub(crate) fn write(&mut self, k: usize, to: NodeId, msg: M) {
        if self.shard.is_local(to) {
            let e = self.rev_out[k] as usize;
            // SAFETY: this sink's node is the unique step-phase sender
            // over its own shard's out-edge slots (module docs).
            push_slot(&self.slots[e], &self.spill[e], self.epoch, self.seq, msg);
            self.dirty.mark(to, self.epoch);
        } else {
            self.shard
                .stage(to, self.rev_out[k], self.epoch, self.seq, msg);
        }
        self.seq += 1;
        self.targeted += 1;
    }

    /// Broadcast: store `msg` once in the sender's broadcast slot; every
    /// receiving edge clones its own copy at delivery (the same copies
    /// the legacy plane made at send time) and accounts `bit_cost` bits.
    /// The caller ([`crate::Ctx::broadcast`]) stamps the out-neighborhood
    /// dirty via [`SlotSink::mark`].
    pub(crate) fn write_bcast(&mut self, msg: M) {
        // SAFETY: a node's broadcast slot is written only while its own
        // worker steps it (module docs).
        push_slot(self.bcast, self.bcast_spill, self.epoch, self.seq, msg);
        self.seq += 1;
        self.broadcasts += 1;
    }

    /// Stamp `v` as a dirty receiver of the current epoch — directly
    /// when this shard owns `v`, via the exchange lane otherwise (the
    /// dirty board is shard-exclusive during the step phase).
    #[inline]
    pub(crate) fn mark(&self, v: NodeId) {
        if self.shard.is_local(v) {
            self.dirty.mark(v, self.epoch);
        } else {
            self.shard.stage_dirt(v, self.epoch);
        }
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
    /// Targeted lane, receiver-side keyed: receiver `v` owns the
    /// contiguous range `offsets[v]..offsets[v+1]`, in-neighbor order.
    pub(crate) slots: Vec<PlaneCell<Slot<M>>>,
    /// Targeted-lane overflow (cold; same indexing).
    pub(crate) spill: Vec<PlaneCell<Vec<(M, u32)>>>,
    /// Broadcast lane, sender keyed (length `n`).
    pub(crate) bcast: Vec<PlaneCell<Slot<M>>>,
    /// Broadcast-lane overflow (cold; length `n`).
    pub(crate) bcast_spill: Vec<PlaneCell<Vec<(M, u32)>>>,
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
            slots: Vec::new(),
            spill: Vec::new(),
            bcast: Vec::new(),
            bcast_spill: Vec::new(),
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
        // resize_with truncates on shrink and fills fresh cells on grow;
        // retained cells keep their (stale-stamped) state, see above.
        self.slots.resize_with(adj.len(), fresh_slot);
        self.spill
            .resize_with(adj.len(), || PlaneCell::new(Vec::new()));
        self.bcast.resize_with(graph.n(), fresh_slot);
        self.bcast_spill
            .resize_with(graph.n(), || PlaneCell::new(Vec::new()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn rev_is_an_involution_mapping_edges_to_their_reverse() {
        for g in [
            gen::gnp(60, 0.1, 3),
            gen::cycle(9),
            gen::complete(7),
            gen::star(5),
            gen::path(0),
        ] {
            let mut plane: MailboxPlane<()> = MailboxPlane::empty();
            plane.rebuild(&g);
            let offsets = g.offsets();
            let adj = g.adjacency();
            assert_eq!(plane.slots.len(), adj.len());
            assert_eq!(plane.bcast.len(), g.n());
            for v in 0..g.n() {
                for (j, &u) in g.neighbors(v as NodeId).iter().enumerate() {
                    let x = offsets[v] + j;
                    let e = plane.rev[x] as usize;
                    // e is an out-edge of u pointing at v...
                    assert!(offsets[u as usize] <= e && e < offsets[u as usize + 1]);
                    assert_eq!(adj[e], v as NodeId);
                    // ...and reversing it again returns to x.
                    assert_eq!(plane.rev[e] as usize, x);
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

    #[allow(clippy::too_many_arguments)]
    fn sink_fixture<'a>(
        cells: &'a [PlaneCell<Slot<Bit8>>],
        spill: &'a [PlaneCell<Vec<(Bit8, u32)>>],
        bcast: &'a PlaneCell<Slot<Bit8>>,
        bcast_spill: &'a PlaneCell<Vec<(Bit8, u32)>>,
        rev_out: &'a [u32],
        dirty: &'a DirtyBoard,
        epoch: u64,
        lookup: &'a mut NeighborIndex,
        err: &'a mut Option<SimError>,
    ) -> SlotSink<'a, Bit8> {
        SlotSink {
            slots: cells,
            spill,
            bcast,
            bcast_spill,
            rev_out,
            dirty,
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
        let cells = [PlaneCell::new(Slot::<Bit8> {
            stamp: u64::MAX,
            bits: 0,
            spilled: 0,
            seq: 0,
            first: None,
        })];
        let spill = [PlaneCell::new(Vec::new())];
        let bcast = PlaneCell::new(Slot::<Bit8> {
            stamp: u64::MAX,
            bits: 0,
            spilled: 0,
            seq: 0,
            first: None,
        });
        let bcast_spill = PlaneCell::new(Vec::new());
        let rev_out = [0u32];
        let dirty = DirtyBoard::new(1);
        let mut lookup = NeighborIndex::new(1);
        let mut err = None;
        let mut sink = sink_fixture(
            &cells,
            &spill,
            &bcast,
            &bcast_spill,
            &rev_out,
            &dirty,
            0,
            &mut lookup,
            &mut err,
        );
        sink.write(0, 0, Bit8);
        sink.write_bcast(Bit8);
        sink.write(0, 0, Bit8);
        assert_eq!((sink.targeted, sink.broadcasts, sink.seq), (2, 1, 3));
        assert!(dirty.is_dirty(0, 0), "targeted write must stamp receiver");
        // SAFETY: single-threaded test, no other accessor.
        let slot = unsafe { &mut *cells[0].get() };
        assert_eq!((slot.bits, slot.spilled, slot.seq), (16, 1, 0));
        // The spilled targeted message carries its send sequence (2).
        assert_eq!(unsafe { &*spill[0].get() }[0].1, 2);
        let b = unsafe { &mut *bcast.get() };
        assert_eq!((b.bits, b.spilled, b.seq), (8, 0, 1));
        // A later epoch resets lazily on the next write.
        let mut sink = sink_fixture(
            &cells,
            &spill,
            &bcast,
            &bcast_spill,
            &rev_out,
            &dirty,
            5,
            &mut lookup,
            &mut err,
        );
        sink.write(0, 0, Bit8);
        let slot = unsafe { &mut *cells[0].get() };
        assert_eq!((slot.stamp, slot.bits, slot.spilled), (5, 8, 0));
        assert!(unsafe { &*spill[0].get() }.is_empty());
    }

    /// Cross-shard staging + exchange replay reconstructs the exact slot
    /// state a direct write would have produced, and stale staging from
    /// an aborted round is fenced off by the epoch stamp.
    #[test]
    fn exchange_replay_matches_direct_writes_and_fences_stale_rounds() {
        // Two shards of one node each (chunk 1); one directed edge slot
        // owned by shard 1 (receiver node 1).
        let mut lanes: ExchangeLanes<Bit8> = ExchangeLanes::empty();
        lanes.ensure(2);
        let cells = [fresh_slot::<Bit8>(), fresh_slot::<Bit8>()];
        let spill = [PlaneCell::new(Vec::new()), PlaneCell::new(Vec::new())];
        let plane = MailboxPlane {
            rev: vec![1, 0],
            slots: cells.into(),
            spill: spill.into(),
            bcast: vec![fresh_slot(), fresh_slot()],
            bcast_spill: vec![PlaneCell::new(Vec::new()), PlaneCell::new(Vec::new())],
        };
        let dirty = DirtyBoard::new(2);
        // Shard 0 (owning node 0) stages two sends and a dirt mark for
        // node 1 in epoch 7, as SlotSink::write/mark would.
        let route = ShardRoute {
            lo: 0,
            hi: 1,
            chunk: 1,
            row: lanes.row(0),
        };
        assert!(route.is_local(0) && !route.is_local(1));
        route.stage(1, 1, 7, 0, Bit8);
        route.stage(1, 1, 7, 2, Bit8);
        route.stage_dirt(1, 7);
        // Applying a *different* epoch must deliver nothing (the aborted
        // -round fence)...
        lanes.apply_into(1, &plane, &dirty, 8);
        assert!(!dirty.is_dirty(1, 8));
        assert_eq!(unsafe { &*plane.slots[1].get() }.stamp, u64::MAX);
        // ...and restaging in epoch 9 clears the stale content in place.
        route.stage(1, 1, 9, 5, Bit8);
        lanes.apply_into(1, &plane, &dirty, 9);
        assert!(dirty.is_dirty(1, 9));
        let slot = unsafe { &*plane.slots[1].get() };
        assert_eq!(
            (slot.stamp, slot.bits, slot.seq, slot.spilled),
            (9, 8, 5, 0)
        );
        assert!(unsafe { &*plane.spill[1].get() }.is_empty());
        // A second apply of the same epoch is a no-op (cells drained).
        lanes.apply_into(1, &plane, &dirty, 9);
        let slot = unsafe { &*plane.slots[1].get() };
        assert_eq!((slot.bits, slot.spilled), (8, 0));
    }
}
