//! Engine micro-benchmark: one message round of the session engine on
//! the sparse-solve graph (gnp-window at n = 8192, seed 1), so delivery
//! cost can be read apart from pass compute.
//!
//! Each sample runs one two-round pass on a warm session: in round 0
//! every node sends by the shape below, in round 1 every node reads its
//! inbox and stops. Shapes:
//!
//! * `bcast-all` — every node broadcasts one message;
//! * `send-all` — every node sends one targeted message to each
//!   neighbor (the same copies as `bcast-all`, one slot write each);
//! * `bcast-tenth` — one node in ten broadcasts.
//!
//! Each shape runs with an empty payload (`()`), an 8-byte payload and a
//! `d1lc::Wire` (a raw-color announcement), so a payload's size and
//! clone cost can be read against the round's fixed costs.
//!
//! `cargo bench -p bench --bench engine_round`

use bench::workloads;
use congest::{Ctx, Message, Program, Session, SimConfig};
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

/// Sends `msg` in round 0 by `shape`, reads its inbox in round 1.
struct OneRound<M> {
    shape: Shape,
    msg: M,
    heard: usize,
    done: bool,
}

impl<M: Message> Program for OneRound<M> {
    type Msg = M;

    fn on_round(&mut self, ctx: &mut Ctx<'_, M>) {
        if ctx.round() > 0 {
            self.heard = ctx.inbox().len();
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

/// Time one round of every shape with payload `msg`, labelled `payload`.
fn bench_payload<M: Message>(c: &mut Criterion, g: &Graph, payload: &str, msg: M) {
    let mut group = c.benchmark_group("engine-round");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    let mut session: Session<'_, M> = Session::new(g, SimConfig::default());
    for shape in Shape::ALL {
        let mut programs: Vec<OneRound<M>> = (0..g.n())
            .map(|_| OneRound {
                shape,
                msg: msg.clone(),
                heard: 0,
                done: false,
            })
            .collect();
        group.bench_function(format!("{}/{payload}", shape.name()), |b| {
            b.iter(|| {
                for p in &mut programs {
                    p.done = false;
                }
                session.run(&mut programs, 1).expect("one round")
            })
        });
        let copies: usize = programs.iter().map(|p| p.heard).sum();
        assert!(copies > 0, "{}: nothing delivered", shape.name());
    }
    group.finish();
}

fn bench_engine_round(c: &mut Criterion) {
    let graph = workloads::gnp_window(8192, 1).graph;
    bench_payload(c, &graph, "empty", ());
    bench_payload(c, &graph, "8-byte", Word(0x5eed));
    let wire = Wire::Color {
        tag: tags::ADOPTED,
        payload: ColorWire::Raw(12_345),
        bits: 22,
    };
    bench_payload(c, &graph, "wire", wire);
}

criterion_group!(benches, bench_engine_round);
criterion_main!(benches);
