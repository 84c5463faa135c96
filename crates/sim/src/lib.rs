//! `lumos-sim` — a deterministic discrete-event simulator for
//! heterogeneous decentralized devices.
//!
//! The paper evaluates Lumos on one machine and *models* the straggler
//! effect with a global linear cost (`lumos_fed::CostModel`). This crate
//! makes the decentralized-device setting first-class:
//!
//! * [`profile`] — per-device capabilities ([`DeviceProfile`]: compute
//!   rate, asymmetric link throughput, latency, availability) sampled from
//!   seeded heterogeneity distributions ([`Heterogeneity`]: uniform,
//!   jitter, lognormal, Pareto).
//! * [`time`] — [`VirtualTime`]: a totally ordered virtual clock, with no
//!   real clock anywhere in the simulation path.
//! * [`runtime`] — the [`EventDrivenRuntime`]: prices one epoch's full
//!   event schedule up front as `u128` keys — time, then kind, then
//!   device; `runtime.rs` holds that key — sorts them once, and walks
//!   every [`SimEvent`] past a subscribed handler, expanding each
//!   delivered burst into its arrivals from a receiver table. The handler
//!   may close the round early ([`Control::CloseRound`]): a closed round
//!   is a prefix of the stream. This is the core `lumos-core` runs every
//!   round on, once.
//! * [`epoch`] — [`simulate_epoch`]: the synchronous barrier as the
//!   degenerate event-driven run (a handler that never closes) over one
//!   round's [`RoundWork`]. Schedules per-device compute, per-edge
//!   message-delivery ([`RoundWork::inbound`]: a receiver's drain starts at
//!   the latest of its senders' actual delivery times), and inbox-drain
//!   events, and
//!   reports the epoch makespan, per-device busy time, per-device
//!   update-delivery times, and the straggler's identity.
//! * [`policy`] — [`AggregationPolicy`]: the synchronous barrier
//!   (`FullSync`), a semi-synchronous deadline that drops updates landing
//!   after a multiple of the round's median delivery time, the buffered
//!   variant that keeps the same cut but blends late updates into later
//!   rounds with staleness-decayed weights (the queue they wait in is
//!   `lumos_fed::Runtime`'s), or the
//!   barrier-free `Async` quorum that closes the round the moment
//!   `min_updates` have landed. [`RoundPolicy`] is each policy expressed
//!   as an event handler: it names the late updates and closes the round
//!   when the last update it still awaits lands.
//! * [`scenario`] — presets ([`Scenario::Uniform`],
//!   [`Scenario::MobileFleet`], [`Scenario::StragglerTail`],
//!   [`Scenario::Churn`]) and the round-to-round fleet evolution
//!   ([`ScenarioState`]) including dropout/rejoin.
//! * [`fault`] — seeded fault injection and recovery: [`FaultSpec`]
//!   (mid-round crashes, message loss, aggregator outage windows) and the
//!   module's recovery constants (timeout, exponential backoff with
//!   seeded jitter, retry budget) compiled by [`FaultState`] into a
//!   per-round [`FaultPlan`] the [`EventDrivenRuntime`] prices as
//!   [`SimEvent::Crashed`]/[`SimEvent::Lost`]/[`SimEvent::RetryDue`]
//!   events under the same total order.
//!
//! Everything is a pure function of the seed: same seed + same scenario ⇒
//! bit-identical makespans and straggler sequences (asserted by
//! `tests/determinism.rs` at the workspace root).

#![forbid(unsafe_code)]
pub mod epoch;
pub mod fault;
pub mod policy;
pub mod profile;
pub mod runtime;
pub mod scenario;
pub mod time;

pub use epoch::{simulate_epoch, DeviceWork, EpochStats, RoundWork, SERVER_SENDER};
pub use fault::{
    FaultCounters, FaultPlan, FaultSpec, FaultState, OutageWindow, RecoveryPolicy, SendFaults,
};
pub use policy::{AggregationPolicy, RoundPolicy, STALENESS_CAP};
pub use profile::{DeviceProfile, FleetSpec, Heterogeneity};
pub use runtime::{Control, EventDrivenRuntime, SimEvent};
pub use scenario::{Scenario, ScenarioState};
pub use time::VirtualTime;
