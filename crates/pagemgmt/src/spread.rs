//! Embedding spreading for bandwidth optimization (§IV-B3).
//!
//! When one CXL device absorbs a disproportionate share of accesses
//! (Fig 10(b)'s "worst case"), total bandwidth collapses to that one
//! device's link. The adaptive page-migration strategy redistributes hot
//! pages from over-burdened devices to under-used ones until access
//! frequency balances, raising aggregate I/O parallelism — the effect
//! quantified in Fig 13(a)/(b).

use serde::{Deserialize, Serialize};

use crate::table::PageId;

/// Tuning for the spreading strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpreadConfig {
    /// A device rebalances when its access count exceeds the average of
    /// the others by this fraction. The paper's default is 35 %
    /// ("exceeds the average access count for other nodes by
    /// '1 − migrate threshold' (by default, 35 %)").
    pub migrate_threshold: f64,
    /// Safety cap on rebalancing iterations.
    pub max_rounds: usize,
}

impl Default for SpreadConfig {
    fn default() -> Self {
        SpreadConfig {
            migrate_threshold: 0.35,
            max_rounds: 64,
        }
    }
}

/// One page move produced by the rebalancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The page to move.
    pub page: PageId,
    /// Source device index.
    pub from: u16,
    /// Destination device index.
    pub to: u16,
}

/// Per-device state fed to the rebalancer: resident pages with their
/// access counts, plus the device's page capacity.
#[derive(Debug, Clone)]
pub struct DeviceLoad {
    /// Resident pages and their access counts.
    pub pages: Vec<(PageId, u64)>,
    /// Device capacity in pages.
    pub capacity: u64,
}

impl DeviceLoad {
    fn total(&self) -> u64 {
        self.pages.iter().map(|&(_, c)| c).sum()
    }
}

/// Rebalances access load across CXL devices.
///
/// Repeatedly finds the most over-burdened device (per the migrate
/// threshold), moves its hottest page to the least-accessed device, and —
/// if the destination is at capacity — swaps that device's coldest page
/// back (§IV-B3's two-way move). Stops when balanced or after
/// `cfg.max_rounds`.
///
/// Returns the migrations in execution order; `devices` is updated in
/// place so callers can inspect the final distribution. The allocating
/// form of [`rebalance_into`].
pub fn rebalance(devices: &mut [DeviceLoad], cfg: &SpreadConfig) -> Vec<Migration> {
    let mut moves = Vec::new();
    rebalance_into(devices, cfg, &mut moves);
    moves
}

/// [`rebalance`] into the reused buffer `moves` (replacing its
/// contents), allocating nothing once `moves` and the devices' page
/// lists have grown to their high-water marks.
pub fn rebalance_into(devices: &mut [DeviceLoad], cfg: &SpreadConfig, moves: &mut Vec<Migration>) {
    moves.clear();
    let n = devices.len();
    if n < 2 {
        return;
    }
    for _ in 0..cfg.max_rounds {
        // Hottest device (lowest index on ties) and the average of the
        // *other* devices.
        let (mut hot_idx, mut hot_total, mut sum) = (0, 0u64, 0u64);
        for (i, d) in devices.iter().enumerate() {
            let t = d.total();
            sum += t;
            if i == 0 || t > hot_total {
                (hot_idx, hot_total) = (i, t);
            }
        }
        let others_avg: f64 = (sum - hot_total) as f64 / (n as f64 - 1.0);
        if (hot_total as f64) <= others_avg * (1.0 + cfg.migrate_threshold) || hot_total == 0 {
            break; // balanced enough
        }
        let (cold_total, cold_idx) = devices
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != hot_idx)
            .map(|(i, d)| (d.total(), i))
            .min()
            .expect("at least two devices");

        // Pick the page whose count best matches the ideal transfer
        // (half the hot/cold gap): moving the raw hottest page can
        // overshoot and oscillate, which the paper's "most accessed
        // pages" heuristic implicitly avoids by moving several smaller
        // pages.
        let gap = hot_total - cold_total;
        let ideal = gap / 2;
        let Some(page_pos) = best_transfer(&devices[hot_idx].pages, ideal, gap) else {
            break;
        };
        let (page, count) = devices[hot_idx].pages.remove(page_pos);
        moves.push(Migration {
            page,
            from: hot_idx as u16,
            to: cold_idx as u16,
        });

        // Destination full? Swap its coldest page back (the paper: "we
        // also move the coldest page of that device to the overburdened
        // memory node").
        if devices[cold_idx].pages.len() as u64 >= devices[cold_idx].capacity {
            if let Some(cold_page_pos) = argmin_count(&devices[cold_idx].pages) {
                let (cold_page, cold_count) = devices[cold_idx].pages.remove(cold_page_pos);
                moves.push(Migration {
                    page: cold_page,
                    from: cold_idx as u16,
                    to: hot_idx as u16,
                });
                devices[hot_idx].pages.push((cold_page, cold_count));
            }
        }
        devices[cold_idx].pages.push((page, count));
    }
}

/// Index of the page whose count is closest to `ideal` without making the
/// imbalance worse (count must stay below `gap`). Falls back to the
/// coldest page if every page overshoots.
fn best_transfer(pages: &[(PageId, u64)], ideal: u64, gap: u64) -> Option<usize> {
    let viable = pages
        .iter()
        .enumerate()
        .filter(|&(_, &(_, c))| c > 0 && c < gap)
        .min_by_key(|&(i, &(p, c))| (c.abs_diff(ideal), p, i))
        .map(|(i, _)| i);
    viable.or_else(|| argmin_count(pages).filter(|&i| pages[i].1 > 0 && pages[i].1 < gap))
}

fn argmin_count(pages: &[(PageId, u64)]) -> Option<usize> {
    pages
        .iter()
        .enumerate()
        .min_by_key(|&(_, &(p, c))| (c, p))
        .map(|(i, _)| i)
}

/// Population standard deviation of the devices' access totals — the
/// Fig 13(b) balance metric (paper: 20.6 before PM, 7.8 after).
pub fn access_std_dev(devices: &[DeviceLoad]) -> f64 {
    let totals: Vec<f64> = devices.iter().map(|d| d.total() as f64).collect();
    simkit::Summary::of(&totals).std_dev
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(counts: &[u64], capacity: u64) -> DeviceLoad {
        DeviceLoad {
            pages: counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (PageId(i as u64), c))
                .collect(),
            capacity,
        }
    }

    #[test]
    fn balanced_input_produces_no_moves() {
        let mut devs = vec![dev(&[10, 10], 10), dev(&[10, 10], 10)];
        let moves = rebalance(&mut devs, &SpreadConfig::default());
        assert!(moves.is_empty());
    }

    #[test]
    fn skewed_device_sheds_hot_pages() {
        let mut devs = vec![dev(&[100, 90, 5], 10), dev(&[1, 1], 10)];
        let before = access_std_dev(&devs);
        let moves = rebalance(&mut devs, &SpreadConfig::default());
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.from == 0 && m.to == 1));
        let after = access_std_dev(&devs);
        assert!(after < before, "std dev must shrink: {before} -> {after}");
    }

    #[test]
    fn full_destination_triggers_a_swap_back() {
        // Device 1 is full (capacity 2) and cold.
        let mut devs = vec![dev(&[100, 90], 10), dev(&[1, 1], 2)];
        let moves = rebalance(&mut devs, &SpreadConfig::default());
        // Some move must flow back from device 1 to device 0.
        assert!(moves.iter().any(|m| m.from == 1 && m.to == 0), "{moves:?}");
        // Occupancy respects capacity.
        assert!(devs[1].pages.len() as u64 <= 2);
    }

    #[test]
    fn rounds_are_bounded() {
        let mut devs = vec![dev(&[1000; 32], 64), dev(&[], 64)];
        let cfg = SpreadConfig {
            migrate_threshold: 0.0,
            max_rounds: 5,
        };
        let moves = rebalance(&mut devs, &cfg);
        assert!(moves.len() <= 10, "bounded by max_rounds (plus swaps)");
    }

    #[test]
    fn single_device_is_a_no_op() {
        let mut devs = vec![dev(&[5, 5], 10)];
        assert!(rebalance(&mut devs, &SpreadConfig::default()).is_empty());
    }

    #[test]
    fn multi_device_balance_converges_toward_uniform() {
        // One hot device among 4.
        let mut devs = vec![
            dev(&[50, 40, 30, 20, 10], 32),
            dev(&[2], 32),
            dev(&[2], 32),
            dev(&[2], 32),
        ];
        rebalance(&mut devs, &SpreadConfig::default());
        let totals: Vec<u64> = devs.iter().map(DeviceLoad::total).collect();
        let max = *totals.iter().max().unwrap() as f64;
        let avg = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        assert!(max <= avg * 1.6, "totals={totals:?}");
    }
}
