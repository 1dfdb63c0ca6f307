//! Static initial-placement policies from the characterization study.
//!
//! Fig 5 compares: everything local, a fraction on a remote socket,
//! a fraction on CXL, and software interleaving (the empirically best
//! 4:1 local:CXL split — "when we allocate 20% of the total working set
//! size to CXL memory and the remaining 80% to local DRAM … we get a
//! significant performance improvement").

use serde::{Deserialize, Serialize};

use crate::table::{PageId, PageTable, Tier};

/// How pages are laid out before any dynamic management runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitialPlacement {
    /// Everything in local DRAM (the Fig 5 baseline).
    AllLocal,
    /// Everything on CXL devices, round-robin (BEACON's placement).
    AllCxl,
    /// Everything on CXL devices in contiguous blocks (device 0 gets the
    /// first pages, device 1 the next…). Concentrates whatever spatial
    /// hotspot the workload has onto few devices — the Fig 10(b)/13(b)
    /// "worst case" the spreading strategy repairs.
    AllCxlBlocked {
        /// Total pages that will be placed (needed to size the blocks).
        total_pages: u64,
    },
    /// `remote_frac` of pages on the remote socket, rest local.
    RemoteFraction {
        /// Fraction (0–1) of the working set on the remote socket.
        remote_frac: f64,
    },
    /// `cxl_frac` of pages on CXL (round-robin over devices), rest local.
    /// `cxl_frac = 0.2` is the paper's 4:1 interleave.
    CxlFraction {
        /// Fraction (0–1) of the working set on CXL.
        cxl_frac: f64,
    },
}

impl InitialPlacement {
    /// Places pages `0..n_pages`, spilling to CXL round-robin whenever the
    /// preferred tier is full (mirrors the paper's "memory addresses
    /// exceeding [local capacity] will be mapped into CXL regions").
    ///
    /// # Panics
    ///
    /// Panics if a fraction is outside `[0, 1]`, if a policy needs CXL
    /// devices and none exist, or if total capacity is insufficient.
    pub fn apply(self, pt: &mut PageTable, n_pages: u64) {
        let n_cxl = pt.capacities().n_cxl;
        let pick = |i: u64| -> Tier {
            match self {
                InitialPlacement::AllLocal => Tier::Local,
                InitialPlacement::AllCxl => {
                    assert!(n_cxl > 0, "AllCxl placement requires CXL devices");
                    Tier::Cxl((i % n_cxl as u64) as u16)
                }
                InitialPlacement::AllCxlBlocked { total_pages } => {
                    assert!(n_cxl > 0, "AllCxlBlocked placement requires CXL devices");
                    let block = total_pages.max(1).div_ceil(n_cxl as u64);
                    Tier::Cxl(((i / block).min(n_cxl as u64 - 1)) as u16)
                }
                InitialPlacement::RemoteFraction { remote_frac } => {
                    assert!((0.0..=1.0).contains(&remote_frac), "fraction out of range");
                    // Interleave so the remote share is spread through the
                    // address space rather than clustered at the end.
                    if frac_hit(i, remote_frac) {
                        Tier::Remote
                    } else {
                        Tier::Local
                    }
                }
                InitialPlacement::CxlFraction { cxl_frac } => {
                    assert!((0.0..=1.0).contains(&cxl_frac), "fraction out of range");
                    assert!(n_cxl > 0, "CxlFraction placement requires CXL devices");
                    if frac_hit(i, cxl_frac) {
                        Tier::Cxl((i % n_cxl as u64) as u16)
                    } else {
                        Tier::Local
                    }
                }
            }
        };
        pt.reserve_pages(n_pages);
        let mut spill = 0u64;
        for i in 0..n_pages {
            let page = PageId(i);
            let preferred = pick(i);
            if pt.place(page, preferred).is_ok() {
                continue;
            }
            // Preferred tier full: spill to CXL devices round-robin, then
            // remote, then local.
            let mut placed = false;
            for k in 0..n_cxl as u64 {
                let t = Tier::Cxl(((spill + k) % n_cxl as u64) as u16);
                if pt.place(page, t).is_ok() {
                    spill += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                let fallbacks = [Tier::Remote, Tier::Local];
                let ok = fallbacks.iter().any(|&t| pt.place(page, t).is_ok());
                assert!(ok, "total memory capacity insufficient for {n_pages} pages");
            }
        }
    }
}

/// Deterministically marks ~`frac` of indices, spread evenly (index `i`
/// hits when the fractional accumulator crosses 1).
fn frac_hit(i: u64, frac: f64) -> bool {
    if frac <= 0.0 {
        return false;
    }
    if frac >= 1.0 {
        return true;
    }
    // i-th hit when floor((i+1)·f) > floor(i·f).
    (((i + 1) as f64 * frac) as u64) > ((i as f64 * frac) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TierCapacities;

    fn table(local: u64, remote: u64, n_cxl: u16, per_dev: u64) -> PageTable {
        PageTable::new(TierCapacities::new(local, remote, n_cxl, per_dev))
    }

    #[test]
    fn all_local_fills_local() {
        let mut pt = table(100, 0, 2, 10);
        InitialPlacement::AllLocal.apply(&mut pt, 50);
        assert_eq!(pt.occupancy(Tier::Local), 50);
    }

    #[test]
    fn blocked_placement_fills_devices_in_order() {
        let mut pt = table(0, 0, 4, 100);
        InitialPlacement::AllCxlBlocked { total_pages: 40 }.apply(&mut pt, 40);
        for d in 0..4 {
            assert_eq!(pt.occupancy(Tier::Cxl(d)), 10, "device {d}");
        }
        // First block entirely on device 0.
        assert_eq!(pt.tier_of(PageId(0)), Some(Tier::Cxl(0)));
        assert_eq!(pt.tier_of(PageId(9)), Some(Tier::Cxl(0)));
        assert_eq!(pt.tier_of(PageId(10)), Some(Tier::Cxl(1)));
    }

    #[test]
    fn all_cxl_round_robins_devices() {
        let mut pt = table(0, 0, 4, 100);
        InitialPlacement::AllCxl.apply(&mut pt, 40);
        for d in 0..4 {
            assert_eq!(pt.occupancy(Tier::Cxl(d)), 10);
        }
    }

    #[test]
    fn cxl_fraction_splits_4_to_1() {
        let mut pt = table(1000, 0, 2, 1000);
        InitialPlacement::CxlFraction { cxl_frac: 0.2 }.apply(&mut pt, 100);
        assert_eq!(pt.occupancy(Tier::Local), 80);
        assert_eq!(pt.occupancy(Tier::Cxl(0)) + pt.occupancy(Tier::Cxl(1)), 20);
    }

    #[test]
    fn remote_fraction_spreads_through_address_space() {
        let mut pt = table(1000, 1000, 0, 0);
        InitialPlacement::RemoteFraction { remote_frac: 0.5 }.apply(&mut pt, 10);
        assert_eq!(pt.occupancy(Tier::Remote), 5);
        // Alternating, not clustered: page 1 remote, page 0 local.
        assert_eq!(pt.tier_of(PageId(0)), Some(Tier::Local));
        assert_eq!(pt.tier_of(PageId(1)), Some(Tier::Remote));
    }

    #[test]
    fn local_overflow_spills_to_cxl() {
        let mut pt = table(10, 0, 2, 100);
        InitialPlacement::AllLocal.apply(&mut pt, 30);
        assert_eq!(pt.occupancy(Tier::Local), 10);
        assert_eq!(pt.occupancy(Tier::Cxl(0)) + pt.occupancy(Tier::Cxl(1)), 20);
    }

    #[test]
    #[should_panic(expected = "insufficient")]
    fn impossible_placement_panics() {
        let mut pt = table(1, 0, 0, 0);
        InitialPlacement::AllLocal.apply(&mut pt, 5);
    }
}
