//! MemOpcode checking and instruction repacking (§IV-A2).
//!
//! When a memory request reaches the fabric switch, the MemOpcode checker
//! inspects the instruction's `memOpcode` field: standard traffic
//! bypasses the process core and goes straight to the VCS for routing;
//! PIFS-enhanced opcodes (`DataFetch`, `Configuration`) are diverted into
//! the process core, which repacks row fetches into standard reads whose
//! SPID points at the switch so retrieved data lands in switch registers
//! instead of the host.

use cxlsim::{M2sReq, MemOpcode};

/// Where the MemOpcode checker routes an incoming instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrRoute {
    /// Standard CXL.mem traffic: bypass the PC, route via the VCS.
    BypassToVcs,
    /// PIFS-enhanced: handled by the process core.
    ProcessCore,
}

/// The MemOpcode checker ("Upon receiving a memory request from the
/// host, the memopcode checker examines the instruction's memory
/// operation field").
///
/// # Examples
///
/// ```
/// use cxlsim::M2sReq;
/// use pifs_core::{check_memopcode, InstrRoute};
///
/// let standard = M2sReq::mem_read(0x1000, 1);
/// assert_eq!(check_memopcode(&standard), InstrRoute::BypassToVcs);
/// let fetch = M2sReq::data_fetch(0x1000, 3, 4, 1);
/// assert_eq!(check_memopcode(&fetch), InstrRoute::ProcessCore);
/// ```
pub fn check_memopcode(req: &M2sReq) -> InstrRoute {
    if req.opcode.is_pifs_enhanced() {
        InstrRoute::ProcessCore
    } else {
        InstrRoute::BypassToVcs
    }
}

/// Repacks a `DataFetch` for issue to the end device: opcode becomes a
/// standard `MemRd`, the SPID becomes the switch's, and the DPID selects
/// the target device. The host "still acts as a monitor" — its original
/// tag and address are preserved so the returning row can be matched to
/// its instruction.
///
/// # Panics
///
/// Panics if called on a non-`DataFetch` instruction — the checker must
/// have routed standard traffic around the PC already.
pub fn repack(req: &M2sReq, switch_spid: u16, device_dpid: u16) -> M2sReq {
    assert_eq!(
        req.opcode,
        MemOpcode::DataFetch,
        "only DataFetch instructions are repacked"
    );
    req.repack_for_device(switch_spid, device_dpid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_traffic_bypasses_the_pc() {
        assert_eq!(
            check_memopcode(&M2sReq::mem_read(0, 9)),
            InstrRoute::BypassToVcs
        );
    }

    #[test]
    fn enhanced_traffic_routes_to_the_pc() {
        assert_eq!(
            check_memopcode(&M2sReq::data_fetch(0, 1, 1, 9)),
            InstrRoute::ProcessCore
        );
        assert_eq!(
            check_memopcode(&M2sReq::configuration(0, 1, 4, 9)),
            InstrRoute::ProcessCore
        );
    }

    #[test]
    fn repacked_fetch_is_a_standard_read_owned_by_the_switch() {
        let host_req = M2sReq::data_fetch(0xAB00, 7, 2, /*host*/ 3);
        let dev_req = repack(&host_req, /*switch*/ 100, /*device*/ 5);
        assert_eq!(dev_req.opcode, MemOpcode::MemRd);
        assert_eq!(dev_req.spid, 100);
        assert_eq!(dev_req.dpid, 5);
        assert_eq!(dev_req.address, host_req.address);
        // The repacked request no longer routes to the PC on the device.
        assert_eq!(check_memopcode(&dev_req), InstrRoute::BypassToVcs);
    }

    #[test]
    #[should_panic(expected = "DataFetch")]
    fn repacking_standard_reads_is_a_bug() {
        let _ = repack(&M2sReq::mem_read(0, 0), 1, 2);
    }
}
