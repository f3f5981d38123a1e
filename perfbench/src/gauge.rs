//! The host-speed gauge: fixed work, defined here and never in the
//! library, read next to every measured operation so the reported times
//! can be rescaled to one reference speed.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! with its neighbours' load. On a 2-vCPU VM the same commit's median
//! sparse-solve solve moved between 0.55 s and 1.3 s within an hour, with
//! almost no CPU steal: the cores and caches slow down, the CPU time does
//! not go missing. Work the library cannot change, timed right before and after
//! an operation, slows down with it. An operation's wall time divided by
//! the mean of its two neighbouring readings is what it would have taken
//! on the reference host; a faster commit shrinks the operation and
//! leaves the gauge alone.
//!
//! The work resembles the solver's two kinds of work, on fixed random
//! graphs: message-passing rounds (each node hashes its state into a
//! message per edge, then folds its in-edges' messages into its state,
//! then the states are sorted), and similarity signatures (per edge, hash
//! the far end's neighbours into a small window and keep the bits hit
//! exactly once, the ACD's inner loop). Neighbour load slows code by how
//! much it leans on each level of the cache hierarchy, and no single
//! kernel followed all three workloads: in probes spread over 1.5-2×
//! drifts on that VM, a ~70 MiB round tracked sparse-solve but slowed
//! far more than dense-solve, signatures alone slowed less than
//! sparse-solve, and plain arithmetic barely moved. A reading is therefore the mean
//! slowdown of three parts:
//! signatures on a ~1 MiB graph, rounds on a ~4 MiB (L2-sized) graph and
//! a round on a ~70 MiB graph (most of the shared L3). Over those probes
//! it left a residual log-s.d. of 4-6% on every workload's median,
//! against 12-17% unscaled.

use crate::plan::mix;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed of the gauge's graphs.
const GRAPH_SEED: u64 = 0x6a09_e667;
/// Out-edges each node draws; the graphs keep both directions.
const OUT_DEGREE: u64 = 8;

/// One part of a reading: a graph's size, the kernel run on it and how
/// many passes, and the part's time on the reference host (the 2-vCPU
/// Sapphire Rapids KVM guest the benchmark was defined on, at its
/// fastest).
struct Part {
    nodes: usize,
    kernel: fn(&mut Graph) -> u64,
    passes: usize,
    reference: Duration,
}

/// Similarity signatures on a ~1 MiB graph.
const SIGNATURES: Part = Part {
    nodes: 1 << 12,
    kernel: Graph::signatures,
    passes: 1,
    reference: Duration::from_micros(16_500),
};
/// Message-passing rounds on a ~4 MiB (L2-sized) graph.
const SMALL: Part = Part {
    nodes: 1 << 14,
    kernel: Graph::round,
    passes: 12,
    reference: Duration::from_micros(19_000),
};
/// One message-passing round on a ~70 MiB graph.
const LARGE: Part = Part {
    nodes: 1 << 18,
    kernel: Graph::round,
    passes: 1,
    reference: Duration::from_micros(72_000),
};

/// A gauge graph and its state.
struct Graph {
    /// CSR offsets into `targets`.
    offsets: Vec<u32>,
    /// Edge targets, grouped by source node.
    targets: Vec<u32>,
    /// For each edge slot, the slot of the same edge in the other
    /// direction.
    reverse: Vec<u32>,
    /// One message slot per directed edge.
    messages: Vec<u64>,
    /// Per-node state.
    state: Vec<u64>,
    /// Sorted copy of the state (reused buffer).
    sorted: Vec<u64>,
    /// Passes run so far; salts each pass's hashes.
    pass: u64,
}

impl Graph {
    /// Build the graph in place, with no temporary larger than a node
    /// array, so building it never raises the process's peak memory above
    /// the gauge's own.
    fn new(nodes: usize) -> Graph {
        let n = nodes as u64;
        let edges = || {
            (0..n).flat_map(move |v| {
                (0..OUT_DEGREE)
                    .map(move |k| (v as usize, (mix(GRAPH_SEED ^ v, k) % n) as usize))
                    .filter(|(v, u)| v != u)
            })
        };
        let mut offsets = vec![0u32; nodes + 1];
        for (v, u) in edges() {
            offsets[v + 1] += 1;
            offsets[u + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let slots = offsets[nodes] as usize;
        let (mut targets, mut reverse) = (vec![0u32; slots], vec![0u32; slots]);
        let mut next = offsets[..nodes].to_vec();
        for (v, u) in edges() {
            let (a, b) = (next[v], next[u]);
            next[v] += 1;
            next[u] += 1;
            targets[a as usize] = u as u32;
            targets[b as usize] = v as u32;
            reverse[a as usize] = b;
            reverse[b as usize] = a;
        }
        Graph {
            offsets,
            targets,
            reverse,
            messages: vec![0; slots],
            state: (0..n).map(|v| mix(GRAPH_SEED, v)).collect(),
            sorted: Vec::with_capacity(nodes),
            pass: 0,
        }
    }

    fn slots(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// One synchronous round: send, receive, sort.
    fn round(&mut self) -> u64 {
        self.pass += 1;
        for v in 0..self.state.len() {
            let h = mix(self.state[v], self.pass);
            for e in self.slots(v) {
                self.messages[e] = h ^ u64::from(self.targets[e]);
            }
        }
        for v in 0..self.state.len() {
            let mut acc = self.state[v];
            for e in self.slots(v) {
                let m = self.messages[self.reverse[e] as usize];
                acc = if m & 1 == 0 {
                    acc.rotate_left(7) ^ m
                } else {
                    acc.wrapping_add(m)
                };
            }
            self.state[v] = mix(acc, v as u64);
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.state);
        self.sorted.sort_unstable();
        self.sorted[self.sorted.len() / 2]
    }

    /// One signature per directed edge (v, u): each of u's neighbours,
    /// scaled up twice, hashed into `[0, 1024)`; the hits in the window
    /// `[0, 256)` that no other element hit are counted.
    fn signatures(&mut self) -> u64 {
        self.pass += 1;
        let mut hits = 0u64;
        for v in 0..self.state.len() {
            let salt = mix(self.pass, v as u64);
            for e in self.slots(v) {
                let (mut once, mut twice) = ([0u64; 4], [0u64; 4]);
                for f in self.slots(self.targets[e] as usize) {
                    let x = u64::from(self.targets[f]);
                    for k in 0..2 {
                        let h =
                            ((u128::from(mix(mix(salt, 2 * x + k), 0x5bd1)) * 1024) >> 64) as u64;
                        if h < 256 {
                            let (w, bit) = ((h / 64) as usize, 1u64 << (h % 64));
                            twice[w] |= once[w] & bit;
                            once[w] |= bit;
                        }
                    }
                }
                hits += once
                    .iter()
                    .zip(&twice)
                    .map(|(o, t)| u64::from((o & !t).count_ones()))
                    .sum::<u64>();
            }
        }
        hits
    }
}

/// The gauge: one graph per part and the readings taken so far.
pub struct Gauge {
    graphs: [Graph; 3],
    readings: Vec<f64>,
}

impl Gauge {
    /// The parts of a reading.
    const PARTS: [Part; 3] = [SIGNATURES, SMALL, LARGE];

    /// Build the gauge and read it once, unrecorded, so its pages are
    /// mapped and its code is warm.
    pub fn new() -> Gauge {
        let mut gauge = Gauge {
            graphs: Gauge::PARTS.map(|part| Graph::new(part.nodes)),
            readings: Vec::new(),
        };
        gauge.read();
        gauge.readings.clear();
        gauge
    }

    /// One reading: how much slower than the reference host this host
    /// runs now (2.0 when it takes twice as long), the mean over the
    /// parts.
    pub fn read(&mut self) -> f64 {
        let mut total = 0.0;
        for (graph, part) in self.graphs.iter_mut().zip(&Gauge::PARTS) {
            let start = Instant::now();
            for _ in 0..part.passes {
                black_box((part.kernel)(graph));
            }
            total += start.elapsed().as_secs_f64() / part.reference.as_secs_f64();
        }
        let reading = total / Gauge::PARTS.len() as f64;
        self.readings.push(reading);
        reading
    }

    /// Readings taken so far.
    pub fn readings(&self) -> usize {
        self.readings.len()
    }

    /// The host's speed relative to the reference host over the run: one
    /// over the median reading.
    pub fn speed(&self) -> f64 {
        if self.readings.is_empty() {
            return 1.0;
        }
        1.0 / median(&self.readings)
    }
}

/// `wall`, measured between gauge readings `before` and `after`, in the
/// reference host's seconds.
pub fn rescale(wall: Duration, before: f64, after: f64) -> f64 {
    wall.as_secs_f64() / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_slots_pair_up_each_edge() {
        let g = Graph::new(1 << 10);
        for v in 0..1 << 10 {
            for e in g.slots(v) {
                let (u, r) = (g.targets[e] as usize, g.reverse[e] as usize);
                assert!(g.slots(u).contains(&r));
                assert_eq!(g.targets[r] as usize, v);
                assert_eq!(g.reverse[r] as usize, e);
            }
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        let (mut a, mut b) = (Graph::new(1 << 9), Graph::new(1 << 9));
        for _ in 0..3 {
            assert_eq!(a.round(), b.round());
            assert_eq!(a.signatures(), b.signatures());
        }
        assert_eq!(a.state, b.state);
        assert!(a.signatures() > 0);
    }

    #[test]
    fn rescale_divides_by_the_mean_reading() {
        let s = Duration::from_secs;
        assert!((rescale(s(2), 1.0, 1.0) - 2.0).abs() < 1e-12);
        // On a host half as fast a reading is 2.
        assert!((rescale(s(2), 2.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((rescale(s(3), 1.0, 2.0) - 2.0).abs() < 1e-12);
    }
}
