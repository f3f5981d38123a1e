//! Engine micro-benchmark: one message round of the session engine on
//! the sparse-solve graph (gnp-window at n = 8192, seed 1), so delivery
//! cost can be read apart from pass compute.
//!
//! Each sample runs one two-round pass on a warm session: in round 0
//! every node sends by the shape below, in round 1 every node reads the
//! sender and payload of every message in its inbox, as a protocol
//! would, and stops. Shapes:
//!
//! * `bcast-all` — every node broadcasts one message;
//! * `send-all` — every node sends one targeted message to each
//!   neighbor (the same copies as `bcast-all`, one slot write each);
//! * `bcast-tenth` — one node in ten broadcasts.
//!
//! Each shape runs with an empty payload (`()`), an 8-byte payload, a
//! `d1lc::Wire` (a raw-color announcement) and a `signature` (a 512-bit
//! `Wire::Bitmap` whose words are a range of a buffer the sender owns,
//! as in the ACD's similarity round), so a payload's size and clone
//! cost can be read against the round's fixed costs. Each node's payload,
//! buffer included, is built before the timed rounds, so `signature`
//! against `wire` reads what a copy of out-of-line words costs: a
//! reference count. A fault-free broadcast is read in its sender's slot,
//! so on the `bcast-` shapes a receiver reads the one payload its sender
//! wrote instead of a copy of its own.
//!
//! Every row builds its own session and programs, so no row runs on
//! what an earlier one left in the session; a name filter runs one row
//! in a fresh process, away from what earlier rows left in the heap:
//!
//! `cargo bench -p bench --bench engine_round [-- send-all/signature]`

use bench::workloads;
use congest::{Ctx, Message, Program, Session, SimConfig, Words};
use criterion::{criterion_group, criterion_main, Criterion};
use d1lc::wire::{tags, ColorWire, Wire};
use graphs::Graph;
use std::time::Duration;

/// Which nodes send in round 0, and how.
#[derive(Clone, Copy)]
enum Shape {
    BcastAll,
    SendAll,
    BcastTenth,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::BcastAll, Shape::SendAll, Shape::BcastTenth];

    fn name(self) -> &'static str {
        match self {
            Shape::BcastAll => "bcast-all",
            Shape::SendAll => "send-all",
            Shape::BcastTenth => "bcast-tenth",
        }
    }
}

/// An 8-byte payload.
#[derive(Clone)]
struct Word(u64);

impl Message for Word {
    fn bit_cost(&self) -> u64 {
        8 * std::mem::size_of_val(&self.0) as u64
    }
}

/// A payload the reading round can fold into a checksum, so that every
/// delivered message's payload is read, not just counted.
trait Payload: Message {
    /// A value that depends on the payload's contents.
    fn read(&self) -> u64;
}

impl Payload for () {
    fn read(&self) -> u64 {
        0
    }
}

impl Payload for Word {
    fn read(&self) -> u64 {
        self.0
    }
}

impl Payload for Wire {
    fn read(&self) -> u64 {
        match self {
            Wire::Color {
                payload: ColorWire::Raw(c),
                ..
            } => *c,
            Wire::Bitmap { words, .. } => words.iter().fold(0, |acc, w| acc ^ w),
            other => other.bit_cost(),
        }
    }
}

/// Sends `msg` in round 0 by `shape`; in round 1 reads the sender and
/// payload of every message in its inbox.
struct OneRound<M> {
    shape: Shape,
    msg: M,
    heard: usize,
    checksum: u64,
    done: bool,
}

impl<M: Payload> Program for OneRound<M> {
    type Msg = M;

    fn on_round(&mut self, ctx: &mut Ctx<'_, M>) {
        if ctx.round() > 0 {
            for (from, msg) in ctx.inbox() {
                self.heard += 1;
                self.checksum = self.checksum.wrapping_add(u64::from(from) ^ msg.read());
            }
            self.done = true;
            return;
        }
        match self.shape {
            Shape::BcastAll => ctx.broadcast(self.msg.clone()),
            Shape::SendAll => {
                for &to in ctx.neighbors() {
                    ctx.send(to, self.msg.clone());
                }
            }
            Shape::BcastTenth => {
                if ctx.id().is_multiple_of(10) {
                    ctx.broadcast(self.msg.clone());
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Time one round of every shape with each node's payload from `msg`,
/// labelled `payload`.
fn bench_payload<M: Payload>(c: &mut Criterion, g: &Graph, payload: &str, msg: impl Fn() -> M) {
    let mut group = c.benchmark_group("engine-round");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    for shape in Shape::ALL {
        group.bench_function(format!("{}/{payload}", shape.name()), |b| {
            let mut session: Session<'_, M> = Session::new(g, SimConfig::default());
            let mut programs: Vec<OneRound<M>> = (0..g.n())
                .map(|_| OneRound {
                    shape,
                    msg: msg(),
                    heard: 0,
                    checksum: 0,
                    done: false,
                })
                .collect();
            b.iter(|| {
                for p in &mut programs {
                    p.heard = 0;
                    p.done = false;
                }
                session.run(&mut programs, 1).expect("one round")
            });
            let copies: usize = programs.iter().map(|p| p.heard).sum();
            assert!(copies > 0, "{}: nothing delivered", shape.name());
            std::hint::black_box(programs.iter().map(|p| p.checksum).sum::<u64>());
        });
    }
    group.finish();
}

fn bench_engine_round(c: &mut Criterion) {
    let graph = workloads::gnp_window(8192, 1).graph;
    bench_payload(c, &graph, "empty", || ());
    bench_payload(c, &graph, "8-byte", || Word(0x5eed));
    let wire = Wire::Color {
        tag: tags::ADOPTED,
        payload: ColorWire::Raw(12_345),
        bits: 22,
    };
    bench_payload(c, &graph, "wire", || wire.clone());
    bench_payload(c, &graph, "signature", || Wire::Bitmap {
        tag: tags::TRIED,
        words: Words::range(&Words::zeroed(8), 0..8),
        bits: 512,
    });
}

criterion_group!(benches, bench_engine_round);
criterion_main!(benches);
