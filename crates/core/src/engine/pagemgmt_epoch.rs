//! Epoch-boundary page management: the paper's §IV-B global policy
//! (hot-page promotion with claim-&-swap, cold-age demotion, embedding
//! spreading) and the TPP-like baseline, applied between batches.

#![deny(missing_docs)]

use cxlsim::Type3Device;
use pagemgmt::{
    DeviceLoad, GlobalHotness, Migration, MigrationCostModel, PageId, PageTable, SpreadConfig, Tier,
};
use simkit::hash::FastMap;
use simkit::SimDuration;

use super::config::{PmStyle, SystemConfig};
use super::metrics::RunMetrics;

/// Reusable buffers for the epoch boundary — the per-epoch member of the
/// scratch convention ([`EngineScratch`]): every ranking, claim, victim
/// and move list an epoch builds keeps its capacity across epochs, so a
/// warm run's epochs allocate nothing. The owner drops it at the end of
/// each run ([`SlsSystem::run_trace`], [`SlsSystem::open_loop_finish`]):
/// its buffers scale with the page count, and an idle system holding
/// them would multiply the heap by the number of live systems.
///
/// [`EngineScratch`]: super::pipeline::EngineScratch
/// [`SlsSystem::run_trace`]: crate::system::SlsSystem::run_trace
/// [`SlsSystem::open_loop_finish`]: crate::system::SlsSystem::open_loop_finish
#[derive(Debug, Default, Clone)]
pub(crate) struct EpochScratch {
    /// Ranking buffer of the hotness queries.
    rank: Vec<(PageId, u64)>,
    /// Private-hot claims: page → claiming host.
    private: FastMap<PageId, u16>,
    /// Promotion candidates `(heat, page)` (TPP's too).
    hot: Vec<(u64, PageId)>,
    /// Local residents `(page, heat)`, the swap and eviction victims.
    residents: Vec<(PageId, u64)>,
    /// Cold-age demotions.
    demotions: Vec<PageId>,
    /// Per-device spreading input.
    loads: Vec<DeviceLoad>,
    /// Spreading moves.
    moves: Vec<Migration>,
}

/// Mutable view over the state an epoch touches: placement, hotness,
/// per-device access counts, and the run metrics being charged.
pub(crate) struct EpochCtx<'a> {
    /// The run configuration.
    pub cfg: &'a SystemConfig,
    /// Page placement being rewritten.
    pub page_table: &'a mut PageTable,
    /// Cross-host page-hotness state.
    pub hotness: &'a mut GlobalHotness,
    /// Per-device page-access counts within this epoch.
    pub epoch_dev_pages: &'a mut [FastMap<PageId, u64>],
    /// Devices (read-only: load statistics).
    pub devices: &'a [Type3Device],
    /// Run metrics under construction.
    pub metrics: &'a mut RunMetrics,
    /// Monotonic epoch counter.
    pub pm_epoch: &'a mut u64,
    /// The epoch's reusable buffers.
    pub scratch: &'a mut EpochScratch,
}

/// Global (cross-host) heat of `page`.
fn hotness_count(hotness: &GlobalHotness, page: PageId) -> u64 {
    (0..hotness.n_hosts())
        .map(|h| hotness.host(h).count(page))
        .sum()
}

/// Replaces `out` with the local residents `(page, heat)`, coldest
/// first (page id ascending on ties — a total order).
fn local_residents(page_table: &PageTable, hotness: &GlobalHotness, out: &mut Vec<(PageId, u64)>) {
    out.clear();
    out.extend(
        page_table
            .iter()
            .filter(|&(_, t)| t == Tier::Local)
            .map(|(p, _)| (p, hotness_count(hotness, p))),
    );
    out.sort_unstable_by_key(|&(p, c)| (c, p));
}

fn least_loaded_device(devices: &[Type3Device]) -> u16 {
    devices
        .iter()
        .enumerate()
        .min_by_key(|&(_, d)| d.access_count())
        .map(|(i, _)| i as u16)
        .unwrap_or(0)
}

/// One page-management epoch: global hotness classification, hot-page
/// promotion with claim-&-swap, cold-age demotion, and embedding
/// spreading across devices. Returns the exposed overhead.
pub(crate) fn run_pm_epoch(ctx: &mut EpochCtx<'_>) -> SimDuration {
    let Some(pm) = ctx.cfg.page_mgmt else {
        return SimDuration::ZERO;
    };
    let cost = match pm.granularity {
        pagemgmt::MigrationGranularity::PageBlock => MigrationCostModel::page_block(),
        pagemgmt::MigrationGranularity::CacheLineBlock => MigrationCostModel::cache_line_block(),
    };
    let migrations_before = ctx.page_table.migrations();

    if pm.style == PmStyle::Tpp {
        run_tpp_epoch(ctx);
        return finish_epoch(ctx, &cost, migrations_before);
    }
    let sc = &mut *ctx.scratch;

    // 1. Promote globally hottest pages into local DRAM. Promotion is
    // budgeted per epoch so migration overhead amortizes over the
    // run instead of thrashing on the first batch.
    let hot_capacity = ctx.page_table.capacities().local_pages as usize;
    // Aggressive promotion while the hot set is being learned, then a
    // trickle: steady-state churn would otherwise chase Zipf-tail
    // sampling noise forever.
    let promote_budget = if *ctx.pm_epoch < 4 {
        (hot_capacity / 4).max(8) as u64
    } else {
        // Steady-state trickle, scaled by the migrate threshold
        // (Fig 13(a)'s knob: a higher threshold moves more pages).
        ((pm.migrate_threshold * 48.0) as u64).max(4)
    };
    ctx.hotness
        .classify_into(hot_capacity, &mut sc.rank, &mut sc.private);
    let mut promoted = 0u64;
    sc.hot.clear();
    sc.hot.extend(
        sc.private
            .keys()
            .map(|&p| (hotness_count(ctx.hotness, p), p))
            // Tail pages with a couple of accesses churn in and out of
            // the hot set; only promote pages with real heat.
            .filter(|&(heat, _)| heat >= 4),
    );
    // Hottest first, deterministic tie-break.
    sc.hot
        .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    // Current local residents, coldest first, available for swapping
    // (only read when there is something to promote).
    if !sc.hot.is_empty() {
        local_residents(ctx.page_table, ctx.hotness, &mut sc.residents);
    }
    let residents = &sc.residents;
    let mut resident_cursor = 0usize;
    for &(_, page) in &sc.hot {
        if promoted >= promote_budget {
            break;
        }
        if ctx.page_table.tier_of(page) == Some(Tier::Local) {
            continue;
        }
        if ctx.page_table.move_page(page, Tier::Local).is_ok() {
            promoted += 1;
            continue;
        }
        // Local full: claim & swap with the coldest resident.
        while resident_cursor < residents.len() {
            let (victim, victim_heat) = residents[resident_cursor];
            resident_cursor += 1;
            if ctx.page_table.tier_of(victim) != Some(Tier::Local) {
                continue;
            }
            // Hysteresis: only displace a resident when the candidate
            // is clearly hotter, otherwise promotion thrashes.
            if hotness_count(ctx.hotness, page) < victim_heat.saturating_mul(2).max(4) {
                break; // residents are comparably hot; stop promoting
            }
            ctx.page_table.swap(page, victim);
            promoted += 1;
            break;
        }
        if resident_cursor >= residents.len() {
            break;
        }
    }

    // 2. Cold-age demotion of stale private-hot pages (bounded per
    // epoch so demotion churn cannot swamp useful work).
    ctx.hotness.demotions_into(
        &sc.private,
        hot_capacity,
        pm.cold_age_threshold,
        &mut sc.rank,
        &mut sc.demotions,
    );
    sc.demotions
        .truncate(((pm.migrate_threshold * 24.0) as usize).max(2));
    for &page in &sc.demotions {
        if ctx.page_table.tier_of(page) == Some(Tier::Local) {
            // Send it to the least-loaded device.
            let dev = least_loaded_device(ctx.devices);
            let _ = ctx.page_table.move_page(page, Tier::Cxl(dev));
        }
    }

    // 3. Embedding spreading across devices, budgeted by the migrate
    // threshold (larger threshold ⇒ more pages eligible to move).
    // Spreading runs periodically — device-level imbalance drifts
    // slowly, and rebalancing every epoch would re-chase sampling
    // noise.
    *ctx.pm_epoch += 1;
    if (*ctx.pm_epoch).is_multiple_of(4) {
        spread(ctx, pm.migrate_threshold);
    }
    finish_epoch(ctx, &cost, migrations_before)
}

/// Embedding spreading: rebalances this epoch's per-device page loads
/// ([`pagemgmt::rebalance_into`]) and applies the moves.
fn spread(ctx: &mut EpochCtx<'_>, migrate_threshold: f64) {
    let sc = &mut *ctx.scratch;
    let active_pages: usize = ctx.epoch_dev_pages.iter().map(|m| m.len()).sum();
    // Budget scales with the observed imbalance: balanced traffic
    // gets a trickle, a Fig 10(b)-style hotspot gets aggressive
    // redistribution.
    let (mut total, mut max) = (0u64, 0u64);
    for m in ctx.epoch_dev_pages.iter() {
        let t = m.values().sum::<u64>();
        total += t;
        max = max.max(t);
    }
    let avg = (total as f64 / ctx.epoch_dev_pages.len().max(1) as f64).max(1.0);
    let imbalance = max as f64 / avg;
    let budget = ((active_pages as f64 * migrate_threshold / 8.0).ceil() as usize)
        .clamp(1, ((migrate_threshold * 192.0 * imbalance) as usize).max(8));
    // The rebalancer is order-sensitive (ties go by index), so each
    // device's list follows its epoch map's iteration order.
    let capacity = ctx.page_table.capacities().cxl_pages_per_dev;
    sc.loads
        .resize_with(ctx.epoch_dev_pages.len(), || DeviceLoad {
            pages: Vec::new(),
            capacity,
        });
    for (d, (load, pages)) in sc
        .loads
        .iter_mut()
        .zip(ctx.epoch_dev_pages.iter())
        .enumerate()
    {
        load.capacity = capacity;
        load.pages.clear();
        load.pages.extend(
            pages
                .iter()
                .filter(|(p, _)| ctx.page_table.tier_of(**p) == Some(Tier::Cxl(d as u16)))
                .map(|(&p, &c)| (p, c)),
        );
    }
    pagemgmt::rebalance_into(
        &mut sc.loads,
        &SpreadConfig {
            migrate_threshold: 0.35,
            max_rounds: budget,
        },
        &mut sc.moves,
    );
    for m in &sc.moves {
        let _ = ctx.page_table.move_page(m.page, Tier::Cxl(m.to));
    }
}

/// Closes an epoch of either style: clears the per-device access counts,
/// decays every host's heatmap, and charges the epoch's migrations.
/// Returns the exposed overhead.
fn finish_epoch(
    ctx: &mut EpochCtx<'_>,
    cost: &MigrationCostModel,
    migrations_before: u64,
) -> SimDuration {
    for m in ctx.epoch_dev_pages.iter_mut() {
        m.clear();
    }
    for h in 0..ctx.hotness.n_hosts() {
        ctx.hotness.host_mut(h).decay();
    }
    let migrated = ctx.page_table.migrations() - migrations_before;
    ctx.metrics.migrations += migrated;
    // In-flight lookups colliding with migrating pages: a couple per
    // moved page at DLRM arrival rates.
    cost.total_overhead(migrated, migrated * 2)
}

/// TPP-like epoch: promote every page re-referenced this epoch
/// (heat ≥ 2), evicting the least-recently-promoted page when local
/// DRAM is full. No spreading, no global coordination.
fn run_tpp_epoch(ctx: &mut EpochCtx<'_>) {
    let sc = &mut *ctx.scratch;
    let candidates = &mut sc.hot;
    candidates.clear();
    for h in 0..ctx.hotness.n_hosts() {
        for (page, heat) in ctx.hotness.host(h).iter() {
            if heat >= 2 && ctx.page_table.tier_of(page) != Some(Tier::Local) {
                candidates.push((heat, page));
            }
        }
    }
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    candidates.truncate(64);
    // Demotion victims: current locals, coldest first.
    local_residents(ctx.page_table, ctx.hotness, &mut sc.residents);
    let mut victim_cursor = 0usize;
    for &(_, page) in candidates.iter() {
        if ctx.page_table.move_page(page, Tier::Local).is_ok() {
            continue;
        }
        if victim_cursor >= sc.residents.len() {
            break;
        }
        let (victim, _) = sc.residents[victim_cursor];
        victim_cursor += 1;
        ctx.page_table.swap(page, victim);
    }
}
