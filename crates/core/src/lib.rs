//! The (degree+1)-list-coloring CONGEST algorithm of *Overcoming
//! Congestion in Distributed Coloring* (§4–5 and the appendices) — the
//! paper's primary contribution.
//!
//! Entry point: [`solve`] runs the full Theorem 1 pipeline (almost-clique
//! decomposition → sparse path → dense path per degree range, then the
//! shattering fallback and deterministic cleanup) and always returns a
//! proper list-coloring with per-pass round/bit metrics. Building blocks
//! are public for experimentation:
//!
//! * [`multitrial`] — `MultiTrial(x)` with Alg. 4's representative hash
//!   or Alg. 5's pairwise hash;
//! * [`acd`] / [`acd_uniform`] — §4.2's decomposition, with similarity
//!   estimates or with Alg. 6's buddy test;
//! * [`ParamProfile::uniform`] — the one switch to §5's advice-free
//!   variants (Alg. 5 and Alg. 6);
//! * [`slackcolor`] — Alg. 15's tetration ladder;
//! * [`leader`], [`putaside`], [`synchtrial`] — the App. D dense-path
//!   machinery;
//! * [`baseline`] — the classical comparators;
//! * [`server`] — throughput-mode solving: an always-on concurrent
//!   [`server::SolveServer`] over pooled, rebindable engine sessions
//!   with admission control, per-request deadlines/retries, and
//!   single-flight deterministic response memoization ([`service`]
//!   holds the shared request/config/error vocabulary).
//!
//! # Example
//!
//! ```
//! use d1lc::{solve, SolveOptions};
//!
//! let graph = graphs::gen::gnp(150, 0.1, 7);
//! let lists = graphs::palette::random_lists(&graph, 48, 0, 3);
//! let result = solve(&graph, &lists, SolveOptions::seeded(1)).unwrap();
//! assert_eq!(
//!     graphs::palette::check_coloring(&graph, &lists, &result.coloring),
//!     Ok(())
//! );
//! println!("{} rounds, {} repairs", result.rounds(), result.stats.repairs);
//! ```

#![warn(missing_docs)]

pub mod acd;
pub mod acd_uniform;
pub mod baseline;
pub mod buddy_uniform;
pub mod clique_comm;
pub mod colorspace;
pub mod config;
pub mod dense;
pub mod driver;
pub mod leader;
pub mod multitrial;
pub mod palette;
pub mod passes;
pub mod pipeline;
pub mod putaside;
pub mod server;
pub mod service;
pub mod shattering;
pub mod slackcolor;
pub mod sparse;
pub mod state;
pub mod synchtrial;
pub mod trycolor;
pub mod wire;

pub use baseline::{greedy_oracle, solve_naive_multitrial, solve_random_trial};
pub use buddy_uniform::{uniform_buddy, BuddyOutcome};
pub use config::ParamProfile;
pub use driver::{CancelToken, Driver, EngineMode, PassFailure};
pub use palette::Palette;
pub use pipeline::{solve, SolveOptions, SolveResult, Stats};
pub use server::{ServerHandle, ServerStats, SolveServer, Ticket};
pub use service::{Admission, ConfigError, RequestPolicy, ServeError, ServiceConfig, SolveRequest};
pub use state::{AcdClass, NodeState};
