//! `pagemgmt` — tiered-memory page management (§IV-B).
//!
//! The characterization study's second takeaway is that CXL memory only
//! pays off with deliberate placement: hot pages in local DRAM, cold
//! pages spread across CXL devices, and cheap migration between them.
//! This crate implements that software layer as pure, deterministic
//! policy logic (the timing costs are charged by the system runners in
//! `pifs-core`):
//!
//! * [`PageTable`] / [`Tier`] — 4 KB page placement with per-tier
//!   capacity accounting (§IV-B1's page-granular management);
//! * [`HotnessTracker`] / [`GlobalHotness`] — access-frequency heatmaps
//!   and the Private-Hot/Public-Cold split with cold-age
//!   reclassification (§IV-B2);
//! * [`spread`] — the embedding-spreading migration strategy that
//!   rebalances device load at the migrate threshold (§IV-B3);
//! * [`MigrationCostModel`] — page-block vs cache-line-block migration
//!   overheads (§IV-B4);
//! * [`TppPolicy`] — the TPP baseline (promotion-on-reuse tiering) the
//!   paper compares against in Fig 13(d);
//! * [`InitialPlacement`] — the static interleave policies of the
//!   characterization study (all-local, all-CXL, remote-socket, 4:1).
//!
//! # Examples
//!
//! ```
//! use pagemgmt::{InitialPlacement, PageTable, Tier, TierCapacities};
//!
//! let caps = TierCapacities::new(100, 0, 4, 1000);
//! let mut pt = PageTable::new(caps);
//! InitialPlacement::CxlFraction { cxl_frac: 0.2 }.apply(&mut pt, 50);
//! assert_eq!(pt.occupancy(Tier::Local), 40);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod hotness;
pub mod placement;
pub mod spread;
pub mod table;
pub mod tpp;

pub use cost::{MigrationCostModel, MigrationGranularity};
pub use hotness::{GlobalHotness, HotnessTracker, PageClass};
pub use placement::InitialPlacement;
pub use spread::{access_std_dev, rebalance, rebalance_into, DeviceLoad, Migration, SpreadConfig};
pub use table::{PageId, PageTable, Tier, TierCapacities, PAGE_BYTES};
pub use tpp::TppPolicy;
