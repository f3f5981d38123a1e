//! Round-synchronous CONGEST model simulator.
//!
//! The CONGEST model: `n` nodes on a graph compute in synchronous rounds;
//! per round, each node may send one message of `O(log n)` bits across each
//! incident edge. This crate provides:
//!
//! * [`Program`] / [`Ctx`] — the node-program abstraction (a program
//!   leaves the scheduler's frontier once it reports
//!   [`Program::is_done`]), and [`inbox_positions`], the merge-walk that
//!   pairs an inbox with neighbor positions;
//! * [`Session`] — a persistent engine session: the CSR edge-indexed
//!   mailbox plane, worker pool, per-node RNGs, and the active-frontier
//!   scheduler (compacted active lists, and delivery that visits only the
//!   in-edges whose per-receiver mail bits say they carry a message),
//!   reused across every pass of a multi-pass pipeline;
//! * [`SessionCore`] — the graph-independent half of a session: unbind
//!   a finished session and rebind the storage (and parked worker pool)
//!   to the next graph, so a stream of solves over varying graphs runs
//!   on one warm engine;
//! * [`run`] — the one-shot wrapper over [`Session`]: O(1) sends,
//!   permutation delivery, deterministic per-node randomness, optional
//!   multi-threaded step *and* routing phases, and per-directed-edge
//!   per-round bit accounting folded into slot writes;
//! * [`reference::run_reference`] — a deliberately naive, sequential
//!   oracle with [`Session::run`]'s shape, written from the documented
//!   semantics and sharing no engine or fault-layer code, against which
//!   the differential tests hold [`Session`];
//! * [`Bandwidth`] — strict enforcement (prove a protocol CONGEST-legal)
//!   or tracking (expose the congestion cost of LOCAL-style protocols via
//!   [`RunReport::normalized_rounds`]);
//! * [`FaultPlan`] — deterministic, seeded fault injection between send
//!   and delivery (drop / delay / duplicate / truncate / abort), exactly
//!   reproducible from `(seed, plan)` at any thread count, with per-run
//!   [`FaultCounters`] and starved-receiver sentinels in [`RunReport`];
//! * [`SchedulePlan`] — asynchronous execution under deterministic,
//!   seeded schedule adversaries (jitter / stragglers / anti-FIFO edges
//!   / burst stalls), run through a correctness-preserving
//!   α-synchronizer: transcripts stay byte-identical to the synchronous
//!   engine, [`ScheduleCounters`] record the synchronizer's overhead,
//!   and a wedged schedule fails loud with
//!   [`SimError::ScheduleStalled`];
//! * [`RunReport`] / [`PassLog`] — metrics, composable across the passes
//!   of multi-phase pipelines;
//! * [`BitTally`] — two-party transcript accounting for the edge-local
//!   procedures of §3.
//!
//! # Example
//!
//! ```
//! use congest::{run, Ctx, Program, SimConfig};
//!
//! /// Every node announces its id once; everyone finishes after hearing
//! /// all neighbors.
//! struct Hello { heard: usize, done: bool }
//!
//! #[derive(Clone)]
//! struct Id(u32);
//! impl congest::Message for Id {
//!     fn bit_cost(&self) -> u64 { 16 }
//! }
//!
//! impl Program for Hello {
//!     type Msg = Id;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, Id>) {
//!         if ctx.round() == 0 {
//!             ctx.broadcast(Id(ctx.id()));
//!         } else {
//!             self.heard = ctx.inbox().len();
//!             self.done = true;
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.done }
//! }
//!
//! let g = graphs::gen::cycle(8);
//! let programs = (0..8).map(|_| Hello { heard: 0, done: false }).collect();
//! let (programs, report) = run(&g, programs, SimConfig::seeded(7)).unwrap();
//! assert!(report.completed);
//! assert!(programs.iter().all(|p| p.heard == 2));
//! ```

#![warn(missing_docs)]

mod engine;
mod error;
mod fault;
pub mod message;
mod metrics;
mod plane;
mod program;
pub mod reference;
mod sched;
mod session;
mod twoparty;

pub use engine::{run, Bandwidth, SimConfig};
pub use error::SimError;
pub use fault::{FaultCounters, FaultPlan};
pub use message::{Message, Words};
pub use metrics::{LoadProfile, PassLog, PassRecord, RunReport, MAX_BUCKETS};
pub use program::{inbox_positions, Ctx, Program};
pub use sched::{ScheduleCounters, SchedulePlan, PULSE_TAG_BITS};
pub use session::{BarrierAudit, Session, SessionCore};
pub use twoparty::BitTally;
