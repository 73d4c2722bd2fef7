//! # libdat — Distributed Aggregation Trees with Load-Balancing on Chord
//!
//! A full reproduction of *"Distributed Aggregation Algorithms with
//! Load-Balancing for Scalable Grid Resource Monitoring"* (Min Cai & Kai
//! Hwang, IPDPS 2007) as a Rust workspace. This umbrella crate re-exports
//! every layer under one roof:
//!
//! * [`chord`] — the Chord overlay: identifier space, finger tables with
//!   FOF, greedy **and balanced** routing, stabilization, identifier
//!   probing, plus a global-view [`chord::StaticRing`] for analysis;
//! * [`core`] — the DAT library: implicit basic/balanced trees, mergeable
//!   aggregate partials, the protocol-stack engine ([`core::StackNode`]
//!   hosting [`core::AppProtocol`] handlers) with continuous and on-demand
//!   aggregation, the centralized and explicit-tree baselines, and the
//!   paper's closed-form theory;
//! * [`sim`] — the discrete-event engine (hierarchical timer wheel,
//!   virtual time, latency/loss models) and overlay-building harness;
//! * [`cluster`] — the real-UDP host running the same sans-io nodes over
//!   loopback sockets on a task-per-node tokio runtime, plus a 1k-node
//!   harness;
//! * [`maan`] — the multi-attribute addressable network indexing layer;
//! * [`monitor`] — the P-GMA monitoring stack (sensors → producers →
//!   aggregation → consumers) with the synthetic CPU-usage trace;
//! * [`obs`] — the observability subsystem: mergeable counter/gauge/
//!   histogram registries, structured event tracing with causal epoch
//!   trace ids, and Prometheus text exposition.
//!
//! ## Five-minute tour
//!
//! ```
//! use libdat::chord::{IdSpace, IdPolicy, StaticRing, RoutingScheme, Id};
//! use libdat::core::{DatTree, TreeStats};
//! use rand::SeedableRng;
//!
//! // A 512-node overlay with identifier probing, like the paper's.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let ring = StaticRing::build(IdSpace::new(32), 512, IdPolicy::Probed, &mut rng);
//!
//! // The balanced DAT toward the "cpu-usage" rendezvous key.
//! let key = libdat::chord::hash_to_id(ring.space(), b"cpu-usage");
//! let tree = DatTree::build(&ring, key, RoutingScheme::Balanced);
//! let stats = TreeStats::of(&tree);
//!
//! assert!(stats.max_branching <= 6);          // near-constant branching
//! assert!(stats.height <= 20);                // O(log n) height
//! assert_eq!(tree.root(), ring.successor(key));
//! # let _: Id = tree.root();
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `cargo run --release -p dat-bench --bin repro -- all` for the full
//! paper-figure reproduction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dat_chord as chord;
pub use dat_cluster as cluster;
pub use dat_core as core;
pub use dat_maan as maan;
pub use dat_monitor as monitor;
pub use dat_obs as obs;
pub use dat_sim as sim;
