//! Hierarchical device→aggregator→server aggregation topology.
//!
//! Lumos' flat star topology prices per-round server traffic at
//! O(devices): every device ships its pooled update straight to the
//! server. That is fine at the paper's scale (thousands of devices) and
//! hopeless at the ROADMAP's (millions). This crate owns the middle
//! tier that fixes it:
//!
//! - [`TopologyConfig`] — the `LumosConfig` opt-in switch. `Flat` is the
//!   default and leaves every code path bit-identical to the seed;
//!   `Hierarchical { aggregators }` routes device updates through K edge
//!   aggregators so the server receives O(K) partials per round.
//! - [`Topology`] — a deterministic partition of `n` devices into K
//!   **contiguous** shards. Contiguity is load-bearing: the batched
//!   training forest lays trees out in device order, so a contiguous
//!   shard is a contiguous slice of the pool arrays and the degenerate
//!   single-shard pooling sequence is *literally* the flat one.
//! - [`shard_late_with_staleness`] — applies an
//!   [`AggregationPolicy`](lumos_sim::AggregationPolicy) per shard:
//!   each aggregator cuts its own members against its own local median
//!   deadline. With one shard the mask keeps every entry, so the result
//!   is bit-identical to the global policy call.
//! - [`pool_flat`] / [`pool_tiered`] — a scalar reference model of the
//!   two-tier POOL (aggregator partial sums, then a server merge) used
//!   by the conservation property tests.
//! - [`tier_timing`] — composes tier-2 delivery on top of a device-tier
//!   [`EpochStats`](lumos_sim::EpochStats): an aggregator's partial is
//!   ready when the slowest of its members' updates that made the
//!   round lands, then pays the aggregator's own uplink + latency to
//!   reach the server.
//! - [`Topology::failover_map`] + [`tier_timing_failover`] — aggregator
//!   outage recovery: an outaged shard re-homes to its deterministic
//!   cyclic successor, which folds the orphaned members into its own
//!   readiness and ships one merged partial. The identity map reproduces
//!   [`tier_timing`] bit for bit.
//!
//! Everything here is pure data + arithmetic over `lumos-sim` types, so
//! `fed` and `core` can both depend on it without cycles.

#![forbid(unsafe_code)]
pub mod config;
pub mod policy;
pub mod pooling;
pub mod timing;
pub mod topology;

pub use config::TopologyConfig;
pub use policy::{shard_late_with_staleness, ShardRoundPolicies};
pub use pooling::{pool_flat, pool_tiered};
pub use timing::{tier_timing, tier_timing_failover, TierTiming};
pub use topology::Topology;
