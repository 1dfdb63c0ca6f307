//! `cxlsim` — a CXL 2.0/3.0 fabric substrate model.
//!
//! The paper builds PIFS-Rec on three CXL ingredients (§II-B): the
//! FlexBus/PCIe physical layer, the fabric switch that every multi-node
//! CXL topology must route through, and Type 3 (memory-only) devices.
//! This crate models all three plus the instruction format the paper
//! modifies (Fig 9):
//!
//! * [`FlexBusLink`] — a 64 GB/s (PCIe 5.0 ×16) serialized link with
//!   port/retimer latency, so flex-bus congestion appears under load;
//! * [`M2sReq`] / [`MemOpcode`] — bit-exact encode/decode of the enhanced
//!   CXL.mem M2S request, including the paper's added `sumtag`,
//!   `vectorsize` and `SumCandidateCount` fields;
//! * [`Type3Device`] — a DDR4 expander behind a downstream port
//!   ([`memsim::DramDevice`] plus link serialization);
//! * [`FabricSwitch`] — port bookkeeping, device binding (the Fabric
//!   Manager endpoint's job) and switch transit latency;
//! * [`Topology`] — multi-switch scale-out graphs for §IV-C.
//!
//! # Examples
//!
//! ```
//! use cxlsim::{CxlParams, Type3Device};
//! use simkit::SimTime;
//!
//! let mut dev = Type3Device::new(0, CxlParams::default());
//! let done = dev.read(SimTime::ZERO, 0x1000, 64);
//! // The device-side round trip alone (two port hops + DDR4 access) costs
//! // tens of ns; the host↔switch hops add the rest of the ~100 ns penalty.
//! assert!(done.as_ns() >= 60);
//! ```

#![warn(missing_docs)]

pub mod instr;
pub mod link;
pub mod opcode;
pub mod switch;
pub mod topology;
pub mod type3;

pub use instr::M2sReq;
pub use link::{CxlParams, FlexBusLink};
pub use opcode::MemOpcode;
pub use switch::{FabricSwitch, PortId};
pub use topology::{SwitchId, Topology};
pub use type3::Type3Device;
