//! Deterministic adaptive serving controllers.
//!
//! PR 5's batcher is static fill-or-max-wait and PR 9's shedder only
//! ever *drops* load; this module closes ROADMAP item 3 with policies
//! that *retune* the serving knobs at runtime. A
//! [`ServingController`] rides inside every open-loop session and, at
//! batch boundaries, may resize the batcher's `batch_size`/`max_wait_ns`
//! (load-aware policy) and stretch or shrink the page-management epoch
//! period (hotness-drift policy). Which levers are live is the
//! [`ControllerPolicy`] — the `serving.controller` knob.
//!
//! # Determinism (rule 7)
//!
//! Controllers read **only sim-time-visible state**: the dispatch
//! backlog (batch close → service start delay), the closed batch's
//! fill, a tick-local latency histogram of retired queries, and the
//! [`GlobalHotness`] top-k sets — every one a deterministic function of
//! the workload and the configuration, never of wall-clock time, thread
//! interleaving, or host load. Decisions are pure integer threshold
//! rules on that state, so a run's knob trajectory — and therefore its
//! entire output — is byte-identical at any runner thread count. The
//! fixed baseline ([`ControllerPolicy::Fixed`]) takes no decisions at
//! all and is byte-identical to the pre-controller build.
//!
//! Two structural guarantees keep the rest of the engine honest under
//! adaptation:
//!
//! * `max_wait_ns` only ever moves **at or below** its configured base,
//!   so the windowed-latency retirement bound (computed from the base
//!   `max_wait_ns` at session start) stays conservative — see the
//!   serving layer's `LatencyWindows`.
//! * `batch_size` is bounded by [`BATCH_GROWTH_CAP`] × base, so the
//!   session's pending-bag store stays bounded.

#![deny(missing_docs)]

use pagemgmt::{GlobalHotness, PageId};
use simkit::{LatencyHist, SimDuration};

use super::serving::ServingConfig;

/// Batches per controller tick: load decisions fire every this many
/// dispatched batches, on the tick's aggregate signals.
pub const TICK_BATCHES: u32 = 4;

/// Ceiling on adaptive batch growth, as a multiple of the configured
/// base `batch_size` (bounds the pending-bag store).
pub const BATCH_GROWTH_CAP: u32 = 4;

/// Floor on adaptive max-wait shrink, as a divisor of the configured
/// base `max_wait_ns`.
pub const WAIT_SHRINK_FLOOR: u64 = 8;

/// Ceiling on the adaptive page-management epoch period, in batches.
pub const EPOCH_PERIOD_CAP: u32 = 16;

/// Pages per host compared between epochs for the churn signal.
pub const CHURN_TOP_K: usize = 32;

/// Which knobs the serving controller may move at runtime
/// (`serving.controller` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerPolicy {
    /// The static baseline: knobs never move, a page-management epoch
    /// runs at every batch boundary — byte-identical to a build without
    /// the controller.
    #[default]
    Fixed,
    /// Load-aware batch sizing: grows `batch_size` (toward
    /// [`BATCH_GROWTH_CAP`] × base) while the engine is backlogged and
    /// batches close full, shrinks it back when the backlog clears, and
    /// halves `max_wait_ns` (toward base / [`WAIT_SHRINK_FLOOR`]) while
    /// the tick p99 violates the SLA.
    LoadAware,
    /// Hotness-drift-driven epoch adaptation: lengthens the
    /// page-management epoch period (toward [`EPOCH_PERIOD_CAP`]
    /// batches) while the [`GlobalHotness`] top-k sets are stable, and
    /// snaps it back toward every-batch when they churn.
    EpochAdaptive,
    /// Both levers at once.
    Adaptive,
}

impl ControllerPolicy {
    /// Parses the knob spelling `fixed | load | epoch | adaptive`.
    /// Errors say why the spec was rejected.
    pub fn parse(spec: &str) -> Result<ControllerPolicy, String> {
        match spec.to_ascii_lowercase().as_str() {
            "fixed" => Ok(ControllerPolicy::Fixed),
            "load" => Ok(ControllerPolicy::LoadAware),
            "epoch" => Ok(ControllerPolicy::EpochAdaptive),
            "adaptive" => Ok(ControllerPolicy::Adaptive),
            other => Err(format!(
                "unknown serving controller {other:?} (fixed|load|epoch|adaptive)"
            )),
        }
    }

    /// A short stable label for curve keys.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerPolicy::Fixed => "fixed",
            ControllerPolicy::LoadAware => "load",
            ControllerPolicy::EpochAdaptive => "epoch",
            ControllerPolicy::Adaptive => "adaptive",
        }
    }
}

/// The per-session controller state: effective knobs plus the tick- and
/// epoch-local signals they are steered by. `Clone` travels with the
/// session — checkpoints resume the knob trajectory byte-identically.
#[derive(Debug, Clone)]
pub struct ServingController {
    policy: ControllerPolicy,
    /// The configured knobs the adaptive ranges anchor to.
    base_batch: u32,
    base_wait_ns: u64,
    sla_ns: u64,
    /// Effective knobs (== base under [`ControllerPolicy::Fixed`]).
    batch_size: u32,
    max_wait_ns: u64,
    /// Latencies of queries retired since the last load tick.
    tick_hist: LatencyHist,
    batches_in_tick: u32,
    /// Largest batch-close → service-start delay seen this tick: the
    /// open-loop queue-depth signal (work formed but not yet served).
    backlog_max_ns: u64,
    /// Largest batch fill seen this tick.
    fill_max: u32,
    /// Page-management epoch cadence, in batches (1 = every batch).
    epoch_period: u32,
    batches_since_epoch: u32,
    /// The union of per-host hottest-[`CHURN_TOP_K`] sets at the last
    /// epoch, sorted — the churn baseline.
    prev_hot: Vec<PageId>,
    /// The union being built at an epoch (swapped with `prev_hot`
    /// afterwards) and its ranking buffer: recycled across epochs.
    cur_hot: Vec<PageId>,
    rank: Vec<(PageId, u64)>,
    /// Epochs actually run (cadence introspection for harnesses).
    epochs_run: u64,
}

impl ServingController {
    /// A controller for one open-loop session under `cfg`.
    pub fn new(cfg: &ServingConfig) -> ServingController {
        ServingController {
            policy: cfg.controller,
            base_batch: cfg.batch_size,
            base_wait_ns: cfg.max_wait_ns,
            sla_ns: cfg.sla_ns,
            batch_size: cfg.batch_size,
            max_wait_ns: cfg.max_wait_ns,
            tick_hist: LatencyHist::default(),
            batches_in_tick: 0,
            backlog_max_ns: 0,
            fill_max: 0,
            epoch_period: 1,
            batches_since_epoch: 0,
            prev_hot: Vec::new(),
            cur_hot: Vec::new(),
            rank: Vec::new(),
            epochs_run: 0,
        }
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> ControllerPolicy {
        self.policy
    }

    /// The effective batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// The effective max-wait, ns.
    pub fn max_wait_ns(&self) -> u64 {
        self.max_wait_ns
    }

    /// The current page-management epoch period, in batches.
    pub fn epoch_period(&self) -> u32 {
        self.epoch_period
    }

    /// Page-management epochs this controller has admitted.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Whether the load lever (batch sizing) is live.
    pub fn load_active(&self) -> bool {
        matches!(
            self.policy,
            ControllerPolicy::LoadAware | ControllerPolicy::Adaptive
        )
    }

    /// Whether the epoch lever (page-management cadence) is live.
    pub fn epoch_active(&self) -> bool {
        matches!(
            self.policy,
            ControllerPolicy::EpochAdaptive | ControllerPolicy::Adaptive
        )
    }

    /// Feeds one retired query's latency into the tick histogram.
    /// No-op unless the load lever is live.
    pub fn record_latency(&mut self, latency: SimDuration) {
        if self.load_active() {
            self.tick_hist.record(latency);
        }
    }

    /// Observes one dispatched batch (its fill and its close→start
    /// backlog) and, every [`TICK_BATCHES`] batches, takes the load
    /// decision. Returns the new `(batch_size, max_wait_ns)` when the
    /// tick moved a knob, `None` otherwise (including always under
    /// policies without the load lever).
    pub fn on_batch(&mut self, fill: u32, backlog_ns: u64) -> Option<(u32, u64)> {
        if !self.load_active() {
            return None;
        }
        self.batches_in_tick += 1;
        self.backlog_max_ns = self.backlog_max_ns.max(backlog_ns);
        self.fill_max = self.fill_max.max(fill);
        if self.batches_in_tick < TICK_BATCHES {
            return None;
        }
        let p99 = self.tick_hist.percentile(0.99);
        let sampled = self.tick_hist.count() > 0;
        // Backlogged by more than one base max-wait: the hosts are
        // behind the arrival stream, not merely batching.
        let overloaded = self.backlog_max_ns > self.base_wait_ns;
        let filled = self.fill_max >= self.batch_size;
        let before = (self.batch_size, self.max_wait_ns);
        if overloaded && filled {
            // Bigger batches amortize the per-batch epoch and dispatch
            // overheads exactly when queueing (not batching delay)
            // dominates latency.
            self.batch_size = self
                .batch_size
                .saturating_mul(2)
                .min(self.base_batch.saturating_mul(BATCH_GROWTH_CAP));
        } else if !overloaded && self.batch_size > self.base_batch {
            self.batch_size = (self.batch_size / 2).max(self.base_batch);
        }
        if sampled && p99 > self.sla_ns {
            // The tail is blowing the SLA: stop holding part-full
            // batches open.
            self.max_wait_ns = (self.max_wait_ns / 2).max(self.base_wait_ns / WAIT_SHRINK_FLOOR);
        } else if sampled
            && p99.saturating_mul(2) < self.sla_ns
            && self.max_wait_ns < self.base_wait_ns
        {
            self.max_wait_ns = self.max_wait_ns.saturating_mul(2).min(self.base_wait_ns);
        }
        self.tick_hist = LatencyHist::default();
        self.batches_in_tick = 0;
        self.backlog_max_ns = 0;
        self.fill_max = 0;
        let after = (self.batch_size, self.max_wait_ns);
        (after != before).then_some(after)
    }

    /// Whether a page-management epoch is due at this batch boundary.
    /// Policies without the epoch lever run one at every boundary (the
    /// historical cadence). With the lever live, an epoch runs every
    /// [`Self::epoch_period`] batches, and each run re-aims the period
    /// from [`GlobalHotness`] churn: a mostly-fresh top-k set halves it
    /// (drift demands fast migration), a mostly-stable one doubles it
    /// (idle epochs are pure overhead).
    pub fn epoch_due(&mut self, hotness: &GlobalHotness) -> bool {
        if !self.epoch_active() {
            self.epochs_run += 1;
            return true;
        }
        self.batches_since_epoch += 1;
        if self.batches_since_epoch < self.epoch_period {
            return false;
        }
        self.batches_since_epoch = 0;
        self.epochs_run += 1;
        hottest_union(hotness, CHURN_TOP_K, &mut self.rank, &mut self.cur_hot);
        let cur = &self.cur_hot;
        let fresh = cur.len() - sorted_intersection(&self.prev_hot, cur);
        if fresh * 2 > cur.len() {
            self.epoch_period = (self.epoch_period / 2).max(1);
        } else if fresh * 8 < cur.len().max(1) {
            self.epoch_period = (self.epoch_period * 2).min(EPOCH_PERIOD_CAP);
        }
        std::mem::swap(&mut self.prev_hot, &mut self.cur_hot);
        true
    }
}

/// Replaces `out` with the union of every host's hottest-`k` pages,
/// sorted ascending (deterministic:
/// [`pagemgmt::HotnessTracker::hottest_into`] total-orders ties by page
/// id), ranking in the reused buffer `rank`.
fn hottest_union(
    hotness: &GlobalHotness,
    k: usize,
    rank: &mut Vec<(PageId, u64)>,
    out: &mut Vec<PageId>,
) {
    out.clear();
    for h in 0..hotness.n_hosts() {
        hotness.host(h).hottest_into(k, rank);
        out.extend(rank.iter().map(|&(p, _)| p));
    }
    out.sort_unstable();
    out.dedup();
}

/// `|a ∩ b|` for sorted, deduplicated slices (two-pointer walk).
fn sorted_intersection(a: &[PageId], b: &[PageId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: ControllerPolicy) -> ServingConfig {
        ServingConfig {
            batch_size: 32,
            max_wait_ns: 50_000,
            sla_ns: 25_000,
            controller: policy,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn policy_parse_covers_spellings_and_reports_why_it_rejects() {
        assert_eq!(
            ControllerPolicy::parse("fixed"),
            Ok(ControllerPolicy::Fixed)
        );
        assert_eq!(
            ControllerPolicy::parse("Load"),
            Ok(ControllerPolicy::LoadAware)
        );
        assert_eq!(
            ControllerPolicy::parse("epoch"),
            Ok(ControllerPolicy::EpochAdaptive)
        );
        assert_eq!(
            ControllerPolicy::parse("adaptive"),
            Ok(ControllerPolicy::Adaptive)
        );
        assert!(ControllerPolicy::parse("pid")
            .unwrap_err()
            .contains("unknown serving controller"));
        for p in [
            ControllerPolicy::Fixed,
            ControllerPolicy::LoadAware,
            ControllerPolicy::EpochAdaptive,
            ControllerPolicy::Adaptive,
        ] {
            assert_eq!(ControllerPolicy::parse(p.label()), Ok(p));
        }
    }

    #[test]
    fn fixed_never_moves_a_knob_and_always_admits_epochs() {
        let mut c = ServingController::new(&cfg(ControllerPolicy::Fixed));
        let hotness = GlobalHotness::new(1);
        for i in 0..64 {
            c.record_latency(SimDuration::from_ns(1_000_000));
            assert_eq!(c.on_batch(32, 10_000_000), None);
            assert!(c.epoch_due(&hotness), "epoch at every boundary");
            assert_eq!(c.epochs_run(), i + 1);
        }
        assert_eq!(c.batch_size(), 32);
        assert_eq!(c.max_wait_ns(), 50_000);
        assert_eq!(c.epoch_period(), 1);
    }

    #[test]
    fn load_policy_grows_batches_under_backlog_and_recovers() {
        let mut c = ServingController::new(&cfg(ControllerPolicy::LoadAware));
        // Four full batches with a large backlog and an SLA-violating
        // tail: batch_size doubles, max_wait halves.
        for _ in 0..TICK_BATCHES {
            c.record_latency(SimDuration::from_ns(400_000));
            let _ = c.on_batch(c.batch_size(), 500_000);
        }
        assert_eq!(c.batch_size(), 64);
        assert_eq!(c.max_wait_ns(), 25_000);
        // Sustained overload caps at BATCH_GROWTH_CAP × base and the
        // wait floor.
        for _ in 0..8 * TICK_BATCHES {
            c.record_latency(SimDuration::from_ns(400_000));
            let _ = c.on_batch(c.batch_size(), 500_000);
        }
        assert_eq!(c.batch_size(), 32 * BATCH_GROWTH_CAP);
        assert_eq!(c.max_wait_ns(), 50_000 / WAIT_SHRINK_FLOOR);
        // Load clears (no backlog, quick tail): both knobs walk back to
        // base and no further.
        for _ in 0..8 * TICK_BATCHES {
            c.record_latency(SimDuration::from_ns(1_000));
            let _ = c.on_batch(4, 0);
        }
        assert_eq!(c.batch_size(), 32);
        assert_eq!(c.max_wait_ns(), 50_000);
    }

    #[test]
    fn load_ticks_fire_every_tick_batches() {
        let mut c = ServingController::new(&cfg(ControllerPolicy::LoadAware));
        for i in 1..TICK_BATCHES {
            c.record_latency(SimDuration::from_ns(400_000));
            assert_eq!(c.on_batch(32, 500_000), None, "batch {i}: mid-tick");
        }
        c.record_latency(SimDuration::from_ns(400_000));
        assert_eq!(c.on_batch(32, 500_000), Some((64, 25_000)));
    }

    #[test]
    fn epoch_policy_lengthens_on_stability_and_snaps_back_on_churn() {
        let mut c = ServingController::new(&cfg(ControllerPolicy::EpochAdaptive));
        let mut hotness = GlobalHotness::new(1);
        for p in 0..CHURN_TOP_K as u64 {
            for _ in 0..4 {
                hotness.host_mut(0).record(PageId(p));
            }
        }
        // A stable hot set doubles the period every epoch, up to the cap.
        let mut admitted = 0;
        for _ in 0..200 {
            if c.epoch_due(&hotness) {
                admitted += 1;
            }
        }
        assert_eq!(c.epoch_period(), EPOCH_PERIOD_CAP);
        assert!(admitted < 40, "long periods admit few epochs: {admitted}");
        // The hot set churns wholesale: the period collapses back.
        for p in 0..CHURN_TOP_K as u64 {
            for _ in 0..64 {
                hotness.host_mut(0).record(PageId(1_000 + p));
            }
        }
        let before = c.epochs_run();
        while c.epochs_run() == before {
            let _ = c.epoch_due(&hotness);
        }
        assert!(
            c.epoch_period() < EPOCH_PERIOD_CAP,
            "churn must shorten the period"
        );
    }

    #[test]
    fn controller_decisions_are_reproducible() {
        let run = || {
            let mut c = ServingController::new(&cfg(ControllerPolicy::Adaptive));
            let hotness = GlobalHotness::new(2);
            let mut trail = Vec::new();
            for i in 0..64u64 {
                c.record_latency(SimDuration::from_ns(i * 7_919));
                let knobs = c.on_batch((i % 33) as u32, i * 13_337);
                let due = c.epoch_due(&hotness);
                trail.push((
                    knobs,
                    due,
                    c.batch_size(),
                    c.max_wait_ns(),
                    c.epoch_period(),
                ));
            }
            trail
        };
        assert_eq!(run(), run());
    }
}
