//! Row-index distributions.

use serde::{Deserialize, Serialize};
use simkit::DetRng;

/// The distribution family a trace draws its row indices from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Power-law skew with exponent `s` (Fig 12(b) "ZF"). Larger `s`
    /// concentrates accesses on fewer rows.
    Zipfian {
        /// Skew exponent (0 = uniform, ~1 = classic Zipf).
        s: f64,
    },
    /// Discretized normal centered on the table middle (Fig 12(b) "NoL").
    Normal {
        /// Standard deviation as a fraction of the table size.
        sigma_frac: f64,
    },
    /// Perfectly balanced striding (Fig 12(b) "Um") — the best case for
    /// device-level parallelism.
    Uniform,
    /// Independent uniform draws (Fig 12(b) "Rm") — balanced on average
    /// but with no structure to exploit.
    Random,
    /// Zipfian skew with hot rows packed at the *head* of the table
    /// (rank = row index, no scattering). Paired with a blocked device
    /// layout this reproduces the Fig 10(b) worst case where one device
    /// absorbs most requests.
    ZipfianHead {
        /// Skew exponent.
        s: f64,
    },
    /// Synthetic stand-in for the Meta production traces: Zipfian hot set
    /// plus short-range temporal reuse.
    MetaLike {
        /// Fraction of accesses that re-reference a recently used row.
        reuse_frac: f64,
        /// Zipf exponent of the underlying popularity ranking.
        s: f64,
    },
}

impl Distribution {
    /// Parses a sweep-parameter spelling of a distribution: one of the
    /// Fig 12(b) labels (`Meta`, `ZF`, `NoL`, `Um`, `Rm`,
    /// case-insensitive) or a parameterized form — `zipf:<s>`,
    /// `zipf_head:<s>`, `normal:<sigma_frac>`, `meta:<reuse_frac>:<s>`,
    /// `uniform`, `random`.
    pub fn parse(spec: &str) -> Option<Distribution> {
        if let Some((_, dist)) = Self::fig12b_suite()
            .into_iter()
            .find(|(label, _)| label.eq_ignore_ascii_case(spec))
        {
            return Some(dist);
        }
        let mut parts = spec.split(':');
        let head = parts.next()?.to_ascii_lowercase();
        let mut arg = || parts.next()?.parse::<f64>().ok();
        let dist = match head.as_str() {
            "uniform" => Distribution::Uniform,
            "random" => Distribution::Random,
            "zipf" => Distribution::Zipfian { s: arg()? },
            "zipf_head" => Distribution::ZipfianHead { s: arg()? },
            "normal" => Distribution::Normal { sigma_frac: arg()? },
            "meta" => Distribution::MetaLike {
                reuse_frac: arg()?,
                s: arg()?,
            },
            _ => return None,
        };
        match parts.next() {
            Some(_) => None, // trailing junk
            None => Some(dist),
        }
    }

    /// The paper's Fig 12(b) trace families, in plot order.
    pub fn fig12b_suite() -> Vec<(&'static str, Distribution)> {
        vec![
            (
                "Meta",
                Distribution::MetaLike {
                    reuse_frac: 0.35,
                    s: 1.05,
                },
            ),
            ("ZF", Distribution::Zipfian { s: 1.05 }),
            ("NoL", Distribution::Normal { sigma_frac: 0.125 }),
            ("Um", Distribution::Uniform),
            ("Rm", Distribution::Random),
        ]
    }
}

/// A stateful index sampler for one table.
#[derive(Debug, Clone)]
pub struct Sampler {
    dist: Distribution,
    rows: u64,
    rng: DetRng,
    /// Zipf: precomputed cumulative weights for binary search.
    zipf_cdf: Vec<f64>,
    /// Zipf: `zipf_guide[j]` is the first rank whose CDF value is at
    /// least `j / GUIDE_BUCKETS`, so a draw `u` searches only the ranks
    /// of its own bucket.
    zipf_guide: Vec<u32>,
    /// Uniform: the golden-ratio stride for `rows`.
    stride: u64,
    /// Uniform: current stride position.
    stride_pos: u64,
    /// MetaLike: recent accesses ring buffer.
    recent: Vec<u64>,
    recent_pos: usize,
}

const RECENT_WINDOW: usize = 256;

/// Buckets of the Zipf guide table.
const GUIDE_BUCKETS: usize = 1024;

impl Sampler {
    /// Creates a sampler over `rows` rows with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(dist: Distribution, rows: u64, rng: DetRng) -> Self {
        assert!(rows > 0, "sampler needs at least one row");
        let (zipf_cdf, zipf_guide) = match dist {
            Distribution::Zipfian { s }
            | Distribution::ZipfianHead { s }
            | Distribution::MetaLike { s, .. } => build_zipf_cdf(rows, s),
            _ => (Vec::new(), Vec::new()),
        };
        Sampler {
            dist,
            rows,
            rng,
            zipf_cdf,
            zipf_guide,
            stride: golden_stride(rows),
            stride_pos: 0,
            recent: Vec::with_capacity(RECENT_WINDOW),
            recent_pos: 0,
        }
    }

    /// Draws the next row index.
    pub fn next_index(&mut self) -> u64 {
        let idx = match self.dist {
            Distribution::Zipfian { .. } => self.draw_zipf(),
            Distribution::ZipfianHead { .. } => self.draw_zipf_rank(),
            Distribution::Normal { sigma_frac } => self.draw_normal(sigma_frac),
            Distribution::Uniform => {
                // Golden-ratio stride: visits rows in a balanced, spread
                // pattern with no hot spots.
                let idx = self.stride_pos;
                self.stride_pos = (self.stride_pos + self.stride) % self.rows;
                idx
            }
            Distribution::Random => self.rng.below(self.rows),
            Distribution::MetaLike { reuse_frac, .. } => {
                if !self.recent.is_empty() && self.rng.unit_f64() < reuse_frac {
                    // Temporal reuse: re-reference something recent.
                    self.recent[self.rng.below(self.recent.len() as u64) as usize]
                } else {
                    self.draw_zipf()
                }
            }
        };
        if matches!(self.dist, Distribution::MetaLike { .. }) {
            if self.recent.len() < RECENT_WINDOW {
                self.recent.push(idx);
            } else {
                self.recent[self.recent_pos] = idx;
                self.recent_pos = (self.recent_pos + 1) % RECENT_WINDOW;
            }
        }
        idx
    }

    fn draw_zipf(&mut self) -> u64 {
        // Ranks are scattered over the row space so that popular rows
        // are not physically adjacent.
        let u = self.rng.unit_f64();
        let rank = self.zipf_rank(u);
        scatter_rank(rank, self.rows)
    }

    /// Zipf draw returning the raw rank (hot rows contiguous at index 0).
    fn draw_zipf_rank(&mut self) -> u64 {
        let u = self.rng.unit_f64();
        self.zipf_rank(u).min(self.rows - 1)
    }

    /// The rank a binary search of the CDF for `u ∈ [0, 1)` yields,
    /// clamped to the last rank. The guide narrows the search to `u`'s
    /// bucket: every rank before it has a CDF value below `u` and every
    /// rank past it one above. That finds the first rank at or above
    /// `u`, which is the binary search's `Err` index whenever no value
    /// equals `u`; an exact hit defers to the binary search itself, so
    /// its `Ok` index is kept even across repeated CDF values.
    fn zipf_rank(&self, u: f64) -> u64 {
        let cdf = &self.zipf_cdf;
        let j = (u * GUIDE_BUCKETS as f64) as usize;
        let (lo, hi) = (self.zipf_guide[j] as usize, self.zipf_guide[j + 1] as usize);
        let mut i = lo + cdf[lo..hi].partition_point(|&w| w < u);
        if cdf.get(i) == Some(&u) {
            i = match cdf.binary_search_by(|w| w.partial_cmp(&u).expect("CDF is finite")) {
                Ok(i) | Err(i) => i,
            };
        }
        i.min(cdf.len() - 1) as u64
    }

    fn draw_normal(&mut self, sigma_frac: f64) -> u64 {
        // Box–Muller.
        let u1 = self.rng.unit_f64().max(f64::MIN_POSITIVE);
        let u2 = self.rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let mean = self.rows as f64 / 2.0;
        let sigma = (self.rows as f64 * sigma_frac).max(1.0);
        let v = mean + z * sigma;
        (v.round().max(0.0) as u64).min(self.rows - 1)
    }
}

/// Cumulative Zipf weights over `min(rows, CAP)` ranks, and their guide
/// table (see [`extend_guide`]), built in the same pass. Capping the rank
/// table keeps memory bounded for huge tables; ranks past the cap carry
/// negligible probability mass at the exponents used here.
fn build_zipf_cdf(rows: u64, s: f64) -> (Vec<f64>, Vec<u32>) {
    const CAP: u64 = 262_144;
    let n = rows.min(CAP) as usize;
    let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut guide = Vec::with_capacity(GUIDE_BUCKETS + 1);
    let mut acc = 0.0;
    for (rank, w) in weights.iter_mut().enumerate() {
        acc += *w / total;
        *w = acc;
        extend_guide(&mut guide, rank, acc);
    }
    assert!(acc.is_finite(), "Zipf CDF is not finite for s = {s}");
    guide.resize(GUIDE_BUCKETS + 1, n as u32);
    (weights, guide)
}

/// Fed a sorted CDF in rank order, builds `guide[j]` for
/// `j ∈ 0..=GUIDE_BUCKETS`: the first rank whose CDF value is at least
/// `j / GUIDE_BUCKETS`. `rank`, with CDF value `value`, starts every
/// bucket whose lower bound it is the first to reach. Buckets no rank
/// reaches are left for the caller to fill with the rank count.
fn extend_guide(guide: &mut Vec<u32>, rank: usize, value: f64) {
    while guide.len() <= GUIDE_BUCKETS && value >= guide.len() as f64 / GUIDE_BUCKETS as f64 {
        guide.push(rank as u32);
    }
}

/// Maps a popularity rank onto a physical row index, scattering hot ranks
/// across the table (hot embeddings are not contiguous in practice).
fn scatter_rank(rank: u64, rows: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % rows
}

fn golden_stride(rows: u64) -> u64 {
    // A stride coprime with `rows` near the golden ratio visits every row
    // exactly once per cycle while staying spread out.
    let mut stride = ((rows as f64 * 0.618_033_988) as u64).max(1);
    while gcd(stride, rows) != 1 {
        stride += 1;
    }
    stride
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn histogram(dist: Distribution, rows: u64, draws: usize) -> HashMap<u64, u64> {
        let mut s = Sampler::new(dist, rows, DetRng::new(7));
        let mut h = HashMap::new();
        for _ in 0..draws {
            *h.entry(s.next_index()).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn all_draws_in_bounds() {
        for dist in [
            Distribution::Zipfian { s: 1.0 },
            Distribution::Normal { sigma_frac: 0.125 },
            Distribution::Uniform,
            Distribution::Random,
            Distribution::MetaLike {
                reuse_frac: 0.3,
                s: 1.0,
            },
            Distribution::ZipfianHead { s: 1.0 },
        ] {
            let mut s = Sampler::new(dist, 100, DetRng::new(1));
            for _ in 0..10_000 {
                assert!(s.next_index() < 100);
            }
        }
    }

    #[test]
    fn zipf_is_heavily_skewed() {
        let h = histogram(Distribution::Zipfian { s: 1.05 }, 10_000, 50_000);
        let mut counts: Vec<u64> = h.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.25 * 50_000.0,
            "top-10 rows should absorb >25% of accesses, got {top10}"
        );
    }

    #[test]
    fn zipf_head_concentrates_at_low_indices() {
        let h = histogram(Distribution::ZipfianHead { s: 1.05 }, 10_000, 50_000);
        let head: u64 = h.iter().filter(|(&k, _)| k < 100).map(|(_, &v)| v).sum();
        assert!(
            head as f64 > 0.4 * 50_000.0,
            "first 100 rows should absorb >40% of accesses, got {head}"
        );
    }

    #[test]
    fn uniform_stride_is_balanced() {
        let h = histogram(Distribution::Uniform, 1000, 10_000);
        let max = *h.values().max().unwrap();
        let min = h.values().copied().min().unwrap_or(0);
        assert!(max - min <= 2, "stride should be near-perfectly balanced");
    }

    #[test]
    fn random_covers_the_space() {
        let h = histogram(Distribution::Random, 1000, 50_000);
        assert!(h.len() > 900, "iid uniform should touch most rows");
    }

    #[test]
    fn normal_concentrates_near_the_middle() {
        let h = histogram(Distribution::Normal { sigma_frac: 0.1 }, 10_000, 50_000);
        let central: u64 = h
            .iter()
            .filter(|(&k, _)| (3_000..7_000).contains(&k))
            .map(|(_, &v)| v)
            .sum();
        assert!(central as f64 > 0.9 * 50_000.0);
    }

    #[test]
    fn metalike_has_more_reuse_than_plain_zipf() {
        let reuse = |dist| {
            let mut s = Sampler::new(dist, 100_000, DetRng::new(3));
            let mut last_seen: HashMap<u64, usize> = HashMap::new();
            let mut near = 0u64;
            for i in 0..50_000usize {
                let idx = s.next_index();
                if let Some(&prev) = last_seen.get(&idx) {
                    if i - prev < 512 {
                        near += 1;
                    }
                }
                last_seen.insert(idx, i);
            }
            near
        };
        let meta = reuse(Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        });
        let zipf = reuse(Distribution::Zipfian { s: 1.05 });
        assert!(meta > zipf, "meta={meta} zipf={zipf}");
    }

    #[test]
    fn samplers_are_deterministic() {
        let draws = |seed| {
            let mut s = Sampler::new(Distribution::Zipfian { s: 0.9 }, 1000, DetRng::new(seed));
            (0..100).map(|_| s.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
    }

    #[test]
    fn guided_zipf_search_matches_binary_search() {
        // Large s underflows every weight past the first few ranks, so
        // the CDF repeats 1.0 over almost all of the table. Rounding
        // never leaves a run of equal values below 1.0 in a built CDF,
        // so the last case plants such runs by hand to reach the
        // exact-hit fallback.
        let mut samplers: Vec<Sampler> = [
            (1, 1.05),
            (7, 0.5),
            (1_000, 1.05),
            (300_000, 0.9),
            (5_000, 40.0),
        ]
        .into_iter()
        .map(|(rows, s)| Sampler::new(Distribution::Zipfian { s }, rows, DetRng::new(0)))
        .collect();
        let mut planted = Sampler::new(Distribution::Zipfian { s: 1.0 }, 12, DetRng::new(0));
        planted.zipf_cdf = vec![
            0.0, 0.1, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 0.999, 0.999, 1.0, 1.0,
        ];
        planted.zipf_guide.clear();
        for (rank, &w) in planted.zipf_cdf.iter().enumerate() {
            extend_guide(&mut planted.zipf_guide, rank, w);
        }
        samplers.push(planted);
        for (case, sampler) in samplers.iter().enumerate() {
            let cdf = &sampler.zipf_cdf;
            let reference = |u: f64| match cdf.binary_search_by(|w| w.partial_cmp(&u).unwrap()) {
                Ok(i) | Err(i) => i.min(cdf.len() - 1) as u64,
            };
            let mut rng = DetRng::new(case as u64);
            let points = cdf
                .iter()
                .copied()
                .filter(|&w| w < 1.0)
                .chain((0..GUIDE_BUCKETS).map(|j| j as f64 / GUIDE_BUCKETS as f64))
                .chain((0..100_000).map(|_| rng.unit_f64()));
            for u in points {
                assert_eq!(sampler.zipf_rank(u), reference(u), "case {case} u={u}");
            }
        }
    }

    #[test]
    fn cached_stride_draws_are_unchanged() {
        for rows in [1, 2, 10, 1_000, 65_536, 999_983] {
            let mut s = Sampler::new(Distribution::Uniform, rows, DetRng::new(0));
            let mut pos = 0;
            for _ in 0..1_000 {
                assert_eq!(s.next_index(), pos);
                pos = (pos + golden_stride(rows)) % rows;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = Sampler::new(Distribution::Uniform, 0, DetRng::new(0));
    }

    #[test]
    fn parse_covers_labels_and_parameterized_forms() {
        for (label, dist) in Distribution::fig12b_suite() {
            assert_eq!(Distribution::parse(label), Some(dist), "label {label}");
        }
        assert_eq!(
            Distribution::parse("zipf:0.9"),
            Some(Distribution::Zipfian { s: 0.9 })
        );
        assert_eq!(
            Distribution::parse("normal:0.125"),
            Some(Distribution::Normal { sigma_frac: 0.125 })
        );
        assert_eq!(
            Distribution::parse("meta:0.35:1.05"),
            Some(Distribution::MetaLike {
                reuse_frac: 0.35,
                s: 1.05
            })
        );
        assert_eq!(Distribution::parse("uniform"), Some(Distribution::Uniform));
        assert_eq!(Distribution::parse("zipf"), None);
        assert_eq!(Distribution::parse("zipf:0.9:junk"), None);
        assert_eq!(Distribution::parse("nope"), None);
    }
}
