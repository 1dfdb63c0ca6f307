//! Page identity, memory tiers, and the placement table.

use simkit::hash::FastMap;

use serde::{Deserialize, Serialize};

/// Size of one OS page. §IV-B1 settles on 4 KB page-granular management
/// ("page-granular metadata management and migration is supported and
/// compatible with the current OS").
pub const PAGE_BYTES: u64 = 4096;

/// Identifies one 4 KB page of the unified address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    /// Page containing byte address `addr`.
    pub fn of_addr(addr: u64) -> PageId {
        PageId(addr / PAGE_BYTES)
    }

    /// First byte address of the page.
    pub fn base_addr(self) -> u64 {
        self.0 * PAGE_BYTES
    }
}

/// A memory tier in the §III hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// CPU-attached local DRAM (lowest latency).
    Local,
    /// A remote CPU socket's DRAM, reached over the inter-socket link.
    Remote,
    /// CXL Type 3 device `n`, reached through the fabric switch.
    Cxl(u16),
}

/// Capacity of each tier in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierCapacities {
    /// Local DRAM pages.
    pub local_pages: u64,
    /// Remote-socket pages.
    pub remote_pages: u64,
    /// Number of CXL devices.
    pub n_cxl: u16,
    /// Pages per CXL device.
    pub cxl_pages_per_dev: u64,
}

impl TierCapacities {
    /// Creates a capacity description.
    pub fn new(local_pages: u64, remote_pages: u64, n_cxl: u16, cxl_pages_per_dev: u64) -> Self {
        TierCapacities {
            local_pages,
            remote_pages,
            n_cxl,
            cxl_pages_per_dev,
        }
    }

    /// Capacity of `tier` in pages.
    pub fn of(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Local => self.local_pages,
            Tier::Remote => self.remote_pages,
            Tier::Cxl(_) => self.cxl_pages_per_dev,
        }
    }

    /// Total capacity in pages across every tier.
    pub fn total(&self) -> u64 {
        self.local_pages + self.remote_pages + self.n_cxl as u64 * self.cxl_pages_per_dev
    }
}

/// Error returned when a placement would exceed a tier's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// The tier that was full.
    pub tier: Tier,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier {:?} is at capacity", self.tier)
    }
}

impl std::error::Error for CapacityError {}

/// The placement table: which tier each page lives on.
///
/// Placement is dense: a slot per page id, so [`Self::tier_of`] — which
/// the pipeline calls on every lookup — is an index, not a hash probe.
/// Page ids are expected to be compact (the initial placements lay out
/// `0..n_pages`); placing page `p` sizes the table to `p + 1` slots.
///
/// # Examples
///
/// ```
/// use pagemgmt::{PageId, PageTable, Tier, TierCapacities};
///
/// let mut pt = PageTable::new(TierCapacities::new(2, 0, 1, 2));
/// pt.place(PageId(0), Tier::Local).unwrap();
/// pt.move_page(PageId(0), Tier::Cxl(0)).unwrap();
/// assert_eq!(pt.tier_of(PageId(0)), Some(Tier::Cxl(0)));
/// assert_eq!(pt.migrations(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    caps: TierCapacities,
    /// Placement indexed by page id; `None` for an unplaced page.
    slots: Vec<Option<Tier>>,
    placed: u64,
    occupancy: FastMap<Tier, u64>,
    migrations: u64,
}

impl PageTable {
    /// Creates an empty table with the given capacities.
    pub fn new(caps: TierCapacities) -> Self {
        PageTable {
            caps,
            slots: Vec::new(),
            placed: 0,
            occupancy: FastMap::default(),
            migrations: 0,
        }
    }

    /// Sizes the slot array for pages `0..n_pages` up front, so a
    /// sequential layout grows it once.
    pub(crate) fn reserve_pages(&mut self, n_pages: u64) {
        let extra = (n_pages as usize).saturating_sub(self.slots.len());
        self.slots.reserve_exact(extra);
    }

    /// Tier currently holding `page`, if placed.
    pub fn tier_of(&self, page: PageId) -> Option<Tier> {
        self.slots.get(page.0 as usize).copied().flatten()
    }

    /// The slot of a placed page.
    fn slot_mut(&mut self, page: PageId) -> &mut Option<Tier> {
        &mut self.slots[page.0 as usize]
    }

    /// Places a previously unplaced page.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the tier is full.
    ///
    /// # Panics
    ///
    /// Panics if the page is already placed (use [`PageTable::move_page`]).
    pub fn place(&mut self, page: PageId, tier: Tier) -> Result<(), CapacityError> {
        assert!(
            self.tier_of(page).is_none(),
            "page {page:?} already placed; use move_page"
        );
        if self.occupancy(tier) >= self.caps.of(tier) {
            return Err(CapacityError { tier });
        }
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(tier);
        self.placed += 1;
        *self.occupancy.entry(tier).or_insert(0) += 1;
        Ok(())
    }

    /// Moves a placed page to another tier, counting one migration.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the destination is full.
    ///
    /// # Panics
    ///
    /// Panics if the page was never placed.
    pub fn move_page(&mut self, page: PageId, to: Tier) -> Result<(), CapacityError> {
        let from = self
            .tier_of(page)
            .unwrap_or_else(|| panic!("page {page:?} not placed"));
        if from == to {
            return Ok(());
        }
        if self.occupancy(to) >= self.caps.of(to) {
            return Err(CapacityError { tier: to });
        }
        *self.occupancy.entry(from).or_insert(1) -= 1;
        *self.occupancy.entry(to).or_insert(0) += 1;
        *self.slot_mut(page) = Some(to);
        self.migrations += 1;
        Ok(())
    }

    /// Swaps the tiers of two placed pages (the "Claim & Swap" of
    /// Fig 10(a)) without capacity churn.
    ///
    /// # Panics
    ///
    /// Panics if either page is unplaced.
    pub fn swap(&mut self, a: PageId, b: PageId) {
        let ta = self.tier_of(a).expect("page a not placed");
        let tb = self.tier_of(b).expect("page b not placed");
        if ta == tb {
            return;
        }
        *self.slot_mut(a) = Some(tb);
        *self.slot_mut(b) = Some(ta);
        self.migrations += 2;
    }

    /// Pages currently resident on `tier`.
    pub fn occupancy(&self, tier: Tier) -> u64 {
        self.occupancy.get(&tier).copied().unwrap_or(0)
    }

    /// Total pages placed.
    pub fn placed(&self) -> u64 {
        self.placed
    }

    /// Total page migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Capacity description.
    pub fn capacities(&self) -> &TierCapacities {
        &self.caps
    }

    /// Iterates over all placements, page-id ascending.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, Tier)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (PageId(i as u64), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> TierCapacities {
        TierCapacities::new(2, 1, 2, 2)
    }

    #[test]
    fn page_id_maps_addresses() {
        assert_eq!(PageId::of_addr(0), PageId(0));
        assert_eq!(PageId::of_addr(4095), PageId(0));
        assert_eq!(PageId::of_addr(4096), PageId(1));
        assert_eq!(PageId(3).base_addr(), 3 * 4096);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(0), Tier::Local).unwrap();
        pt.place(PageId(1), Tier::Local).unwrap();
        assert_eq!(
            pt.place(PageId(2), Tier::Local),
            Err(CapacityError { tier: Tier::Local })
        );
        assert_eq!(pt.occupancy(Tier::Local), 2);
    }

    #[test]
    fn cxl_devices_have_independent_capacity() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(0), Tier::Cxl(0)).unwrap();
        pt.place(PageId(1), Tier::Cxl(0)).unwrap();
        assert!(pt.place(PageId(2), Tier::Cxl(0)).is_err());
        assert!(pt.place(PageId(2), Tier::Cxl(1)).is_ok());
    }

    #[test]
    fn moves_update_occupancy_and_count() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(0), Tier::Local).unwrap();
        pt.move_page(PageId(0), Tier::Cxl(1)).unwrap();
        assert_eq!(pt.occupancy(Tier::Local), 0);
        assert_eq!(pt.occupancy(Tier::Cxl(1)), 1);
        assert_eq!(pt.migrations(), 1);
        // A no-op move costs nothing.
        pt.move_page(PageId(0), Tier::Cxl(1)).unwrap();
        assert_eq!(pt.migrations(), 1);
    }

    #[test]
    fn swap_preserves_occupancy() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(0), Tier::Local).unwrap();
        pt.place(PageId(1), Tier::Cxl(0)).unwrap();
        pt.swap(PageId(0), PageId(1));
        assert_eq!(pt.tier_of(PageId(0)), Some(Tier::Cxl(0)));
        assert_eq!(pt.tier_of(PageId(1)), Some(Tier::Local));
        assert_eq!(pt.occupancy(Tier::Local), 1);
        assert_eq!(pt.occupancy(Tier::Cxl(0)), 1);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(0), Tier::Local).unwrap();
        let _ = pt.place(PageId(0), Tier::Remote);
    }

    #[test]
    fn iteration_is_page_id_ascending_and_skips_holes() {
        let mut pt = PageTable::new(caps());
        pt.place(PageId(3), Tier::Cxl(1)).unwrap();
        pt.place(PageId(0), Tier::Local).unwrap();
        assert_eq!(pt.tier_of(PageId(1)), None);
        assert_eq!(pt.tier_of(PageId(99)), None);
        assert_eq!(pt.placed(), 2);
        let all: Vec<_> = pt.iter().collect();
        assert_eq!(all, [(PageId(0), Tier::Local), (PageId(3), Tier::Cxl(1))]);
    }

    #[test]
    fn totals_add_up() {
        let c = caps();
        assert_eq!(c.total(), 2 + 1 + 2 * 2);
        assert_eq!(c.of(Tier::Cxl(7)), 2);
    }
}
