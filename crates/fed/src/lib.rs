//! `lumos-fed` — the federated runtime simulation.
//!
//! Devices are simulated in-process, but every message they would exchange
//! is recorded on a per-device ledger ([`network::SimNetwork`]), epochs run
//! synchronously through [`runtime::Runtime`], and the epoch wall time is
//! paired with a straggler-dominated makespan model ([`clock::CostModel`]) —
//! the quantities behind Figure 8's communication-round and training-time
//! comparisons.
//!
//! The runtime has two pricing paths: the global linear [`clock::CostModel`]
//! (every device identical — the paper's abstraction), and a profile-aware
//! path ([`Runtime::with_profiles`]) that feeds each epoch's per-edge
//! ledger deltas ([`runtime::ledger_work`]) through the `lumos-sim`
//! discrete-event simulator, so heterogeneous fleets report per-device
//! virtual timing, per-sender arrival-gated drains, and straggler
//! identities. A round closes through one door, [`Runtime::end_epoch`],
//! whose [`RoundOutcome`] says who left the barrier, whether a quorum
//! closed it early, and which faults it ran under.

#![forbid(unsafe_code)]
pub mod clock;
pub mod network;
pub mod runtime;

pub use clock::{epoch_makespan, epoch_mean_cost, CostModel, EpochTiming};
pub use network::{DeviceTraffic, EdgeTraffic, NetworkSnapshot, SimNetwork};
pub use runtime::{
    ledger_work, EpochRecord, RoundOutcome, Runtime, TierSpec, UNAVAILABLE_COST_FACTOR,
};
