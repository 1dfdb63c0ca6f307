//! The on-switch buffer with Hottest-Recording replacement (§IV-A4).
//!
//! Fetching one address from the CXL pool can take ~270 ns, ~37 % of it
//! CXL I/O port transfers and retimer delays. The on-switch SRAM keeps
//! the hottest embedding rows inside the switch, skipping the device
//! round trip entirely. Unlike LRU/FIFO, the HTR policy ranks rows by an
//! address profiler's access frequency and only caches the
//! highest-priority candidates — the paper shows this tracks embedding
//! reuse better than recency (Fig 15).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use simkit::hash::FastMap;

use simkit::SimDuration;

/// Replacement policy of the on-switch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Hottest Recording: frequency-ranked admission and eviction.
    Htr,
    /// Least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
}

/// The on-switch SRAM row cache.
///
/// # Examples
///
/// ```
/// use pifs_core::{BufferPolicy, OnSwitchBuffer};
///
/// // 512 KB of SRAM holding 256 B rows.
/// let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 512 * 1024, 256);
/// assert!(!buf.access(42));  // cold miss (admitted)
/// assert!(buf.access(42));   // hit
/// assert!(buf.hit_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct OnSwitchBuffer {
    policy: BufferPolicy,
    capacity_rows: usize,
    capacity_bytes: u64,
    /// HTR address profiler: frequency of *every* observed row, with
    /// [`RESIDENT`] set while the row is cached, so one probe answers
    /// both "how hot" and "is it resident".
    profiler: FastMap<u64, u64>,
    /// Rows with [`RESIDENT`] set.
    resident: usize,
    /// LRU only: resident row → recency stamp.
    stamps: FastMap<u64, u64>,
    /// FIFO only: resident rows in insertion order.
    fifo: VecDeque<u64>,
    /// Lazy min-heap of `(rank, key)` eviction candidates, where rank is
    /// the profiled frequency (HTR) or the recency stamp (LRU). Ranks
    /// only ever grow, so a popped entry whose rank no longer matches the
    /// key's current rank is a stale lower bound: it is re-pushed with
    /// the fresh rank and the pop retried. This finds the same coldest
    /// resident as a full scan in amortized O(log n) instead of O(n).
    coldest: BinaryHeap<Reverse<(u64, u64)>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Residency flag in a profiler count. A row would need 2^63 accesses
/// for its count to reach it.
const RESIDENT: u64 = 1 << 63;

impl OnSwitchBuffer {
    /// Creates a buffer of `capacity_bytes` SRAM caching rows of
    /// `row_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than one row.
    pub fn new(policy: BufferPolicy, capacity_bytes: u64, row_bytes: u64) -> Self {
        let capacity_rows = (capacity_bytes / row_bytes.max(1)) as usize;
        assert!(
            capacity_rows >= 1,
            "buffer of {capacity_bytes} B cannot hold a {row_bytes} B row"
        );
        OnSwitchBuffer {
            policy,
            capacity_rows,
            capacity_bytes,
            profiler: FastMap::default(),
            resident: 0,
            stamps: FastMap::default(),
            fifo: VecDeque::new(),
            coldest: BinaryHeap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up row `key` (a row-granular address), updating profiler and
    /// replacement state; returns `true` on a hit. Misses consider the
    /// row for admission per the policy.
    pub fn access(&mut self, key: u64) -> bool {
        self.clock += 1;
        let count = self.profiler.entry(key).or_insert(0);
        *count += 1;
        let count = *count;
        if count & RESIDENT != 0 {
            self.hits += 1;
            if self.policy == BufferPolicy::Lru {
                self.stamps.insert(key, self.clock);
            }
            return true;
        }
        self.misses += 1;
        self.admit(key, count);
        false
    }

    /// Eviction rank of resident `key` under the current policy, or
    /// `None` when the key is not resident (or the policy keeps no
    /// ranks). HTR ranks by profiled frequency, LRU by recency stamp;
    /// both only ever grow, which is what makes the lazy heap exact.
    fn rank_of(&self, key: u64) -> Option<u64> {
        match self.policy {
            BufferPolicy::Htr => self
                .profiler
                .get(&key)
                .filter(|&&c| c & RESIDENT != 0)
                .map(|&c| c & !RESIDENT),
            BufferPolicy::Lru => self.stamps.get(&key).copied(),
            BufferPolicy::Fifo => None,
        }
    }

    /// Brings the coldest resident `(rank, key)` — the same `(rank, key)`
    /// minimum a full scan of the residents would find — to the top of
    /// the heap and returns it, discarding entries for evicted keys and
    /// refreshing entries whose rank went stale. The entry stays in the
    /// heap: a victim that survives costs no pop and re-push.
    fn peek_coldest(&mut self) -> Option<(u64, u64)> {
        loop {
            let &Reverse((rank, key)) = self.coldest.peek()?;
            match self.rank_of(key) {
                Some(cur) if cur == rank => return Some((rank, key)),
                Some(cur) => {
                    debug_assert!(cur > rank, "ranks must be monotonic");
                    self.replace_coldest(Reverse((cur, key)));
                }
                None => {
                    // Evicted since it was pushed.
                    self.coldest.pop();
                }
            }
        }
    }

    /// Caches the profiled row `key`.
    fn insert(&mut self, key: u64) {
        *self
            .profiler
            .get_mut(&key)
            .expect("accessed rows are profiled") |= RESIDENT;
        self.resident += 1;
        match self.policy {
            BufferPolicy::Htr => {}
            BufferPolicy::Lru => {
                self.stamps.insert(key, self.clock);
            }
            BufferPolicy::Fifo => self.fifo.push_back(key),
        }
    }

    /// Drops `key` from the cache; returns whether it was resident.
    fn evict(&mut self, key: u64) -> bool {
        let count = self
            .profiler
            .get_mut(&key)
            .expect("cached rows are profiled");
        if *count & RESIDENT == 0 {
            return false;
        }
        *count &= !RESIDENT;
        self.resident -= 1;
        if self.policy == BufferPolicy::Lru {
            self.stamps.remove(&key);
        }
        true
    }

    /// Replaces the heap's top entry with `entry`: one sift instead of a
    /// pop and a push, leaving the same multiset of entries and so the
    /// same pop order.
    fn replace_coldest(&mut self, entry: Reverse<(u64, u64)>) {
        *self.coldest.peek_mut().expect("the heap has a top entry") = entry;
    }

    /// Considers missed row `key`, profiled `freq` times, for admission.
    fn admit(&mut self, key: u64, freq: u64) {
        if self.resident < self.capacity_rows {
            self.insert(key);
            if let Some(rank) = self.rank_of(key) {
                self.coldest.push(Reverse((rank, key)));
            }
            return;
        }
        match self.policy {
            BufferPolicy::Htr => {
                // Admit only if this row is now hotter than the coldest
                // resident row (by profiled frequency).
                if let Some((victim_freq, victim)) = self.peek_coldest() {
                    if freq > victim_freq {
                        self.evict(victim);
                        self.insert(key);
                        self.replace_coldest(Reverse((freq, key)));
                    }
                }
            }
            BufferPolicy::Lru => {
                let entry = Reverse((self.clock, key));
                if let Some((_, victim)) = self.peek_coldest() {
                    self.evict(victim);
                    self.replace_coldest(entry);
                } else {
                    self.coldest.push(entry);
                }
                self.insert(key);
            }
            BufferPolicy::Fifo => {
                while let Some(v) = self.fifo.pop_front() {
                    if self.evict(v) {
                        break;
                    }
                }
                self.insert(key);
            }
        }
    }

    /// SRAM access latency for this buffer's capacity. Table II quotes
    /// 0.91–4.19 ns across sizes; the model interpolates logarithmically
    /// from 32 KB (≈1 ns) to 1 MB (≈4 ns) — larger arrays have longer
    /// word lines, which is why the 1 MB point in Fig 15 loses speedup.
    pub fn access_latency(&self) -> SimDuration {
        let kb = (self.capacity_bytes / 1024).max(32) as f64;
        let lg = (kb / 32.0).log2(); // 0 at 32 KB … 5 at 1 MB
        let ns = 0.91 + lg * (4.19 - 0.91) / 5.0;
        SimDuration::from_ns(ns.round().max(1.0) as u64)
    }

    /// Hit ratio so far (0.0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident rows.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The configured policy.
    pub fn policy(&self) -> BufferPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;
    use std::collections::HashMap;

    #[test]
    fn capacity_is_respected() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Lru, 1024, 256);
        for k in 0..100 {
            buf.access(k);
        }
        assert!(buf.len() <= 4);
    }

    #[test]
    fn lru_keeps_recently_used_rows() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Lru, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        buf.access(1); // 1 is now most recent
        buf.access(3); // evicts 2
        assert!(buf.access(1));
        assert!(!buf.access(2));
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Fifo, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        buf.access(1); // hit: does not refresh FIFO position
        buf.access(3); // evicts 1 (oldest inserted)
        assert!(!buf.access(1)); // miss — and this admission evicts 2
        assert!(buf.access(3)); // 3 survived both evictions
    }

    #[test]
    fn htr_protects_hot_rows_from_scan_pollution() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 2 * 256, 256);
        // Make rows 1 and 2 hot.
        for _ in 0..10 {
            buf.access(1);
            buf.access(2);
        }
        // A long cold scan must not displace them.
        for k in 100..200 {
            buf.access(k);
        }
        assert!(buf.access(1));
        assert!(buf.access(2));
    }

    #[test]
    fn htr_eventually_admits_a_newly_hot_row() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        // Row 3 becomes hotter than both residents.
        for _ in 0..5 {
            buf.access(3);
        }
        assert!(buf.access(3), "profiled-hot row must be cached");
    }

    #[test]
    fn htr_beats_lru_and_fifo_on_skewed_traffic() {
        let run = |policy| {
            let mut buf = OnSwitchBuffer::new(policy, 8 * 256, 256);
            let mut rng = DetRng::new(17);
            for _ in 0..20_000 {
                // 30%: 8 hot rows; 70%: a wide cold space — embedding-like.
                let key = if rng.unit_f64() < 0.3 {
                    rng.below(8)
                } else {
                    100 + rng.below(5_000)
                };
                buf.access(key);
            }
            buf.hit_ratio()
        };
        let htr = run(BufferPolicy::Htr);
        let lru = run(BufferPolicy::Lru);
        let fifo = run(BufferPolicy::Fifo);
        assert!(htr > lru, "htr={htr:.3} lru={lru:.3}");
        assert!(htr > fifo, "htr={htr:.3} fifo={fifo:.3}");
    }

    /// The replacement rules by full scan: no heap, no flags.
    struct Oracle {
        policy: BufferPolicy,
        capacity_rows: usize,
        freq: HashMap<u64, u64>,
        /// Resident row → recency stamp (LRU) or admission stamp (FIFO).
        resident: HashMap<u64, u64>,
        clock: u64,
    }

    impl Oracle {
        fn access(&mut self, key: u64) -> bool {
            self.clock += 1;
            *self.freq.entry(key).or_insert(0) += 1;
            if self.resident.contains_key(&key) {
                if self.policy == BufferPolicy::Lru {
                    self.resident.insert(key, self.clock);
                }
                return true;
            }
            if self.resident.len() < self.capacity_rows {
                self.resident.insert(key, self.clock);
                return false;
            }
            let rank = |k: u64, stamp: u64| match self.policy {
                BufferPolicy::Htr => (self.freq[&k], k),
                BufferPolicy::Lru | BufferPolicy::Fifo => (stamp, k),
            };
            let (victim_rank, victim) = self
                .resident
                .iter()
                .map(|(&k, &stamp)| (rank(k, stamp), k))
                .min()
                .expect("a full buffer has residents");
            if self.policy != BufferPolicy::Htr || self.freq[&key] > victim_rank.0 {
                self.resident.remove(&victim);
                self.resident.insert(key, self.clock);
            }
            false
        }
    }

    #[test]
    fn matches_a_full_scan_oracle() {
        let mut rng = DetRng::new(2024);
        for policy in [BufferPolicy::Htr, BufferPolicy::Lru, BufferPolicy::Fifo] {
            for capacity_rows in 1..=16u64 {
                // Skewed keys: a hot head over a wider cold tail, with
                // the skew varying per stream.
                let hot = 1 + capacity_rows / 2;
                let hot_frac = rng.unit_f64();
                let mut buf = OnSwitchBuffer::new(policy, capacity_rows * 256, 256);
                let mut oracle = Oracle {
                    policy,
                    capacity_rows: capacity_rows as usize,
                    freq: HashMap::new(),
                    resident: HashMap::new(),
                    clock: 0,
                };
                let mut oracle_hits = 0u64;
                for i in 0..4_000 {
                    let key = if rng.unit_f64() < hot_frac {
                        rng.below(hot)
                    } else {
                        rng.below(8 * capacity_rows + 32)
                    };
                    let ctx = format!("{policy:?} rows={capacity_rows} access {i} key {key}");
                    let hit = oracle.access(key);
                    oracle_hits += hit as u64;
                    assert_eq!(buf.access(key), hit, "{ctx}");
                    assert_eq!(buf.len(), oracle.resident.len(), "{ctx}");
                }
                assert_eq!(buf.hit_ratio(), oracle_hits as f64 / oracle.clock as f64);
            }
        }
    }

    #[test]
    fn latency_grows_with_capacity() {
        let small = OnSwitchBuffer::new(BufferPolicy::Htr, 64 * 1024, 256);
        let large = OnSwitchBuffer::new(BufferPolicy::Htr, 1024 * 1024, 256);
        assert!(large.access_latency() > small.access_latency());
        assert!(small.access_latency().as_ns() >= 1);
        assert!(large.access_latency().as_ns() <= 5);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn undersized_buffer_rejected() {
        let _ = OnSwitchBuffer::new(BufferPolicy::Htr, 100, 256);
    }

    #[test]
    fn hit_ratio_counts_correctly() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Lru, 4 * 256, 256);
        buf.access(1);
        buf.access(1);
        buf.access(1);
        buf.access(2);
        assert_eq!(buf.hits(), 2);
        assert_eq!(buf.misses(), 2);
        assert!((buf.hit_ratio() - 0.5).abs() < 1e-9);
    }
}
