//! `simkit` — discrete-event simulation foundation for the PIFS-Rec
//! reproduction.
//!
//! Every timing model in this workspace (the DDR state machines in
//! [`memsim`](../memsim/index.html), the CXL fabric in
//! [`cxlsim`](../cxlsim/index.html), the PIFS process core in
//! `pifs-core`) is built on the primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   matching the paper's 1 ns/clk top-module tick (§VI-A).
//! * [`hash`] — a fast deterministic hasher ([`hash::FastMap`]) for
//!   simulation-internal maps on hot paths.
//! * [`BandwidthLink`] — a serialization-delay model for bandwidth-limited
//!   resources (FlexBus lanes, DIMM data buses, switch ports).
//! * [`stats`] — latency histograms, summaries, the event tally and the
//!   allocation counters used by every experiment harness.
//! * [`rng`] — a small deterministic RNG so that every figure regenerates
//!   bit-identically.
//! * [`faults`] — seeded fault schedules (fail-stop, slow-down, link
//!   degradation) generated as pure data, so faulty runs stay exactly as
//!   reproducible as fault-free ones.

#![warn(missing_docs)]

pub mod faults;
pub mod hash;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
pub use link::BandwidthLink;
pub use rng::DetRng;
pub use stats::{LatencyHist, Summary};
pub use time::{SimDuration, SimTime};
