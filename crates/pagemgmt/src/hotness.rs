//! Access-frequency tracking and global hot/cold classification (§IV-B2).
//!
//! Each host tracks per-page access frequency. Merging the per-host
//! heatmaps yields a *global* temperature, from which the hottest pages
//! are claimed into each host's Private Hot Region (local DRAM) and the
//! rest form the Public Cold Region shared over CXL. A page already
//! claimed by one host is skipped by others, which claim their next
//! hottest candidate instead.

use simkit::hash::FastMap;

use crate::table::PageId;

/// The ranking order shared by every hotness query: hottest first,
/// page-id ascending on ties — a total order (ids are unique).
fn hotter_first(a: &(PageId, u64), b: &(PageId, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Per-host page-access frequency tracker.
///
/// # Examples
///
/// ```
/// use pagemgmt::{HotnessTracker, PageId};
///
/// let mut t = HotnessTracker::new();
/// t.record(PageId(1));
/// t.record(PageId(1));
/// t.record(PageId(2));
/// assert_eq!(t.count(PageId(1)), 2);
/// assert_eq!(t.hottest(1), vec![PageId(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HotnessTracker {
    counts: FastMap<PageId, u64>,
}

impl HotnessTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to `page`.
    pub fn record(&mut self, page: PageId) {
        *self.counts.entry(page).or_insert(0) += 1;
    }

    /// Access count of `page` this epoch.
    pub fn count(&self, page: PageId) -> u64 {
        self.counts.get(&page).copied().unwrap_or(0)
    }

    /// The `k` most-accessed pages, hottest first (ties broken by page id
    /// for determinism). The allocating form of [`Self::hottest_into`].
    pub fn hottest(&self, k: usize) -> Vec<PageId> {
        let mut ranked = Vec::new();
        self.hottest_into(k, &mut ranked);
        ranked.into_iter().map(|(p, _)| p).collect()
    }

    /// Fills `out` with the `k` most-accessed `(page, count)` entries,
    /// hottest first (ties broken by page id), reusing its capacity.
    ///
    /// `(count, id)` is a total order, so partitioning the top `k` with a
    /// quickselect before sorting only that prefix returns exactly what
    /// a full sort followed by `take(k)` would — at O(n + k log k)
    /// instead of O(n log n), which matters because the page manager
    /// ranks on every epoch boundary.
    pub fn hottest_into(&self, k: usize, out: &mut Vec<(PageId, u64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        self.rank_into(out);
        if k < out.len() {
            out.select_nth_unstable_by(k, hotter_first);
            out.truncate(k);
        }
        out.sort_unstable_by(hotter_first);
    }

    /// Replaces `buf`'s contents with every `(page, count)` entry,
    /// unordered — the input both ranking entry points
    /// ([`Self::hottest_into`], [`Self::hottest_floor`]) feed
    /// through [`hotter_first`], so the two stay ordering-consistent by
    /// construction.
    fn rank_into(&self, buf: &mut Vec<(PageId, u64)>) {
        buf.clear();
        buf.extend(self.counts.iter().map(|(&p, &c)| (p, c)));
    }

    /// Access count of the `k`-th hottest page (the coldest page
    /// [`Self::hottest`]`(k)` would return), or 0 when nothing is
    /// tracked, ranking in the reused buffer `buf` (left holding
    /// unspecified entries). Exactly `hottest(k).last()`'s count — the
    /// demotion cutoff — but via a quickselect alone, skipping the
    /// top-`k` sort a full ranking pays.
    pub fn hottest_floor(&self, k: usize, buf: &mut Vec<(PageId, u64)>) -> u64 {
        if k == 0 || self.counts.is_empty() {
            return 0;
        }
        self.rank_into(buf);
        if k < buf.len() {
            let (_, kth, _) = buf.select_nth_unstable_by(k - 1, hotter_first);
            kth.1
        } else {
            // Fewer pages than k: the floor is the coldest tracked page.
            buf.iter()
                .min_by(|a, b| hotter_first(b, a))
                .expect("non-empty")
                .1
        }
    }

    /// Exponentially decays all counts (epoch boundary), dropping pages
    /// that reach zero.
    pub fn decay(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    /// Number of distinct pages seen.
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(page, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.counts.iter().map(|(&p, &c)| (p, c))
    }
}

/// Classification of one page after global hotness detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Claimed into host `h`'s Private Hot Region (local DRAM).
    PrivateHot(u16),
    /// Lives in the shared Public Cold Region (CXL pool).
    PublicCold,
}

/// Merges per-host heatmaps and produces the private/public split.
#[derive(Debug, Clone, Default)]
pub struct GlobalHotness {
    hosts: Vec<HotnessTracker>,
}

impl GlobalHotness {
    /// Creates a detector for `n_hosts` hosts.
    pub fn new(n_hosts: usize) -> Self {
        GlobalHotness {
            hosts: (0..n_hosts).map(|_| HotnessTracker::new()).collect(),
        }
    }

    /// The tracker of host `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn host_mut(&mut self, h: usize) -> &mut HotnessTracker {
        &mut self.hosts[h]
    }

    /// Read-only view of host `h`'s tracker.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn host(&self, h: usize) -> &HotnessTracker {
        &self.hosts[h]
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Claims up to `hot_capacity` pages per host into Private Hot
    /// Regions and classifies every other observed page Public Cold.
    /// The allocating form of [`Self::classify_into`].
    pub fn classify(&self, hot_capacity: usize) -> FastMap<PageId, PageClass> {
        let mut private = FastMap::default();
        self.classify_into(hot_capacity, &mut Vec::new(), &mut private);
        let mut out: FastMap<PageId, PageClass> = private
            .into_iter()
            .map(|(p, h)| (p, PageClass::PrivateHot(h)))
            .collect();
        // Everything observed but unclaimed is public cold.
        for tracker in &self.hosts {
            for (page, _) in tracker.iter() {
                out.entry(page).or_insert(PageClass::PublicCold);
            }
        }
        out
    }

    /// The claim pass of [`Self::classify`]: replaces `private` with the
    /// Private Hot pages, each mapped to its claiming host, ranking in
    /// the reused buffer `rank`. Claims up to `hot_capacity` pages per
    /// host, hottest-first by each host's own heatmap; pages already
    /// claimed by an earlier host are skipped and the host claims its
    /// next candidate ("if a host identifies a page already designated
    /// as a private hot page by another host, it selects its next most
    /// frequently accessed page"). Public Cold pages are left out: they
    /// are every tracked page not in `private`.
    pub fn classify_into(
        &self,
        hot_capacity: usize,
        rank: &mut Vec<(PageId, u64)>,
        private: &mut FastMap<PageId, u16>,
    ) {
        private.clear();
        for (h, tracker) in self.hosts.iter().enumerate() {
            let mut claimed = 0;
            // The claim loop consumes at most `hot_capacity` fresh pages
            // plus one skip per page an earlier host already claimed, so
            // ranking that many candidates is exactly equivalent to
            // ranking the host's whole heatmap.
            tracker.hottest_into(hot_capacity + private.len(), rank);
            for &(page, _) in rank.iter() {
                if claimed >= hot_capacity {
                    break;
                }
                if private.contains_key(&page) {
                    continue; // another host got here first
                }
                private.insert(page, h as u16);
                claimed += 1;
            }
        }
    }

    /// Cold-age reclassification (§IV-B2): returns the private-hot pages
    /// of `current` whose access frequency has dropped more than
    /// `cold_age_threshold` (e.g. 0.2) below the least-accessed page that
    /// *would* be claimed now. Those pages should be demoted to the
    /// Public Cold Region. The allocating form of
    /// [`Self::demotions_into`].
    pub fn demotions(
        &self,
        current: &FastMap<PageId, PageClass>,
        hot_capacity: usize,
        cold_age_threshold: f64,
    ) -> Vec<PageId> {
        let private: FastMap<PageId, u16> = current
            .iter()
            .filter_map(|(&p, &c)| match c {
                PageClass::PrivateHot(h) => Some((p, h)),
                PageClass::PublicCold => None,
            })
            .collect();
        let mut demote = Vec::new();
        self.demotions_into(
            &private,
            hot_capacity,
            cold_age_threshold,
            &mut Vec::new(),
            &mut demote,
        );
        demote
    }

    /// [`Self::demotions`] over a claim map from
    /// [`Self::classify_into`]: replaces `out` with the pages to demote,
    /// ascending, ranking in the reused buffer `rank`.
    pub fn demotions_into(
        &self,
        private: &FastMap<PageId, u16>,
        hot_capacity: usize,
        cold_age_threshold: f64,
        rank: &mut Vec<(PageId, u64)>,
        out: &mut Vec<PageId>,
    ) {
        out.clear();
        for (h, tracker) in self.hosts.iter().enumerate() {
            let floor = tracker.hottest_floor(hot_capacity, rank);
            let cutoff = (floor as f64 * (1.0 - cold_age_threshold)).floor() as u64;
            for (&page, &owner) in private.iter() {
                if owner == h as u16 && tracker.count(page) < cutoff {
                    out.push(page);
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_n(t: &mut HotnessTracker, page: u64, n: u64) {
        for _ in 0..n {
            t.record(PageId(page));
        }
    }

    #[test]
    fn hottest_orders_by_frequency_then_id() {
        let mut t = HotnessTracker::new();
        record_n(&mut t, 1, 5);
        record_n(&mut t, 2, 5);
        record_n(&mut t, 3, 9);
        assert_eq!(t.hottest(3), vec![PageId(3), PageId(1), PageId(2)]);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut t = HotnessTracker::new();
        record_n(&mut t, 1, 4);
        record_n(&mut t, 2, 1);
        t.decay();
        assert_eq!(t.count(PageId(1)), 2);
        assert_eq!(t.count(PageId(2)), 0);
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn classify_gives_first_host_priority_and_second_its_next_pick() {
        let mut g = GlobalHotness::new(2);
        // Both hosts love page 10; host 1 also likes page 20.
        record_n(g.host_mut(0), 10, 9);
        record_n(g.host_mut(1), 10, 8);
        record_n(g.host_mut(1), 20, 5);
        let classes = g.classify(1);
        assert_eq!(classes[&PageId(10)], PageClass::PrivateHot(0));
        assert_eq!(classes[&PageId(20)], PageClass::PrivateHot(1));
    }

    #[test]
    fn unclaimed_pages_are_public_cold() {
        let mut g = GlobalHotness::new(1);
        record_n(g.host_mut(0), 1, 9);
        record_n(g.host_mut(0), 2, 1);
        let classes = g.classify(1);
        assert_eq!(classes[&PageId(1)], PageClass::PrivateHot(0));
        assert_eq!(classes[&PageId(2)], PageClass::PublicCold);
    }

    #[test]
    fn demotions_fire_below_the_cold_age_cutoff() {
        let mut g = GlobalHotness::new(1);
        record_n(g.host_mut(0), 1, 100);
        record_n(g.host_mut(0), 2, 100);
        let current = g.classify(2);
        // Page 2 cools off dramatically relative to the new floor.
        record_n(g.host_mut(0), 1, 100);
        record_n(g.host_mut(0), 3, 150);
        let demote = g.demotions(&current, 2, 0.2);
        assert_eq!(demote, vec![PageId(2)]);
    }

    #[test]
    fn no_demotions_when_everything_stays_hot() {
        let mut g = GlobalHotness::new(1);
        record_n(g.host_mut(0), 1, 50);
        record_n(g.host_mut(0), 2, 50);
        let current = g.classify(2);
        assert!(g.demotions(&current, 2, 0.2).is_empty());
    }
}
