//! `lumos-fed` — the federated runtime simulation.
//!
//! Devices are simulated in-process, but every message they would exchange
//! is logged in the ledger's window ([`network::SimNetwork`]), epochs run
//! synchronously through [`runtime::Runtime`], and each epoch's window is
//! priced by a straggler-dominated makespan model ([`clock::CostModel`]) —
//! the quantities behind Figure 8's communication-round and training-time
//! comparisons. A window is opened by [`SimNetwork::snapshot`]; it logs
//! that round's `(from, to, bytes)` messages and nothing older, and it is
//! the ledger's one record of them: per-sender totals and per-receiver
//! inbound lists are both read off it. A hierarchical network is the same
//! window plus aggregators ([`SimNetwork::new_sharded`]):
//! `send(d, SimNetwork::SERVER, bytes)` is logged as on a flat network,
//! and the server hears only the aggregators' partials.
//!
//! An epoch is priced twice over: by the global linear [`clock::CostModel`]
//! (every device identical — the paper's abstraction), and, when the caller
//! simulates the round, by the `lumos-sim` discrete-event schedule over the
//! window's per-sender totals ([`runtime::ledger_work`]), so
//! heterogeneous fleets report per-device virtual timing, per-sender
//! arrival-gated drains, and straggler identities. A round closes through
//! one door, [`Runtime::end_epoch`], which takes the round's simulated
//! statistics and returns the round's [`EpochRecord`]; the runtime keeps no
//! log of its own.

#![forbid(unsafe_code)]
pub mod clock;
pub mod network;
pub mod runtime;

pub use clock::{epoch_makespan, epoch_mean_cost, CostModel};
pub use network::{NetworkSnapshot, SimNetwork};
pub use runtime::{ledger_work, EpochRecord, Runtime, SimEpoch, TierSpec, UNAVAILABLE_COST_FACTOR};
