//! Physical-address decomposition into DRAM coordinates.

use serde::{Deserialize, Serialize};

use crate::config::DramOrg;

/// Where one 64-byte access lands inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// Address-interleaving policy.
///
/// `CacheLineInterleave` spreads consecutive cache lines round-robin over
/// channels then banks, maximizing parallelism for streaming access —
/// the policy real memory controllers default to and the one the paper's
/// bandwidth-expansion argument assumes. `RowInterleave` keeps whole rows
/// on one bank, maximizing row-buffer locality for sequential scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddressMapping {
    /// 64 B granularity: channel bits lowest, then bank, then rank.
    CacheLineInterleave,
    /// Row granularity: consecutive addresses fill a row before moving on.
    RowInterleave,
}

impl AddressMapping {
    /// Decodes `addr` into DRAM coordinates for a device organized as
    /// `org`. Addresses beyond capacity wrap (the simulation treats the
    /// device as its own physical address space).
    pub fn decode(self, addr: u64, org: &DramOrg) -> Location {
        let line = (addr % org.capacity_bytes.max(1)) / 64;
        let ch = org.channels as u64;
        let ba = org.banks as u64;
        let ra = org.ranks as u64;
        let lines_per_row = (org.row_bytes / 64).max(1);
        match self {
            AddressMapping::CacheLineInterleave => {
                // line = (((row * ranks + rank) * banks + bank) * channels + channel)
                //        × lines_per_row + line_in_row   — channel varies fastest.
                let channel = line % ch;
                let rest = line / ch;
                let in_row = rest % lines_per_row;
                let _ = in_row;
                let rest = rest / lines_per_row;
                let bank = rest % ba;
                let rest = rest / ba;
                let rank = rest % ra;
                let row = rest / ra;
                Location {
                    channel: channel as u32,
                    rank: rank as u32,
                    bank: bank as u32,
                    row,
                }
            }
            AddressMapping::RowInterleave => {
                let rest = line / lines_per_row;
                let channel = rest % ch;
                let rest = rest / ch;
                let bank = rest % ba;
                let rest = rest / ba;
                let rank = rest % ra;
                let row = rest / ra;
                Location {
                    channel: channel as u32,
                    rank: rank as u32,
                    bank: bank as u32,
                    row,
                }
            }
        }
    }
}

/// Precomputed decode state for one `(mapping, org)` pair.
///
/// [`AddressMapping::decode`] re-derives every divisor from the
/// organization on each call and pays a hardware divide per level of the
/// hierarchy. The device front-end instead builds a `LineDecoder` once.
/// The fast path needs a power-of-two capacity, row size, bank count and
/// rank count, which collapse to shifts and masks. The channel count may
/// be anything: a power of two is a shift, and any other count (the
/// 12-channel host DRAM) is a multiply by a precomputed reciprocal, exact
/// whenever every line index is below 2^32 (capacity ≤ 256 GiB). Any
/// other organization takes the reference path. Both paths produce
/// bit-identical [`Location`]s — `decode_is_cached_exactly` in the tests
/// below sweeps both mappings against the reference.
#[derive(Debug, Clone, Copy)]
pub struct LineDecoder {
    mapping: AddressMapping,
    org: DramOrg,
    /// Shift/mask constants, present only when the organization fits the
    /// fast path.
    fast: Option<DecodeShifts>,
}

#[derive(Debug, Clone, Copy)]
struct DecodeShifts {
    /// `log2(capacity_bytes)` wrap mask.
    cap_mask: u64,
    /// Division by the channel count.
    ch: ChannelDiv,
    /// `log2(lines_per_row)`.
    lpr_shift: u32,
    /// `log2(banks)` / its mask.
    ba_shift: u32,
    ba_mask: u64,
    /// `log2(ranks)` / its mask.
    ra_shift: u32,
    ra_mask: u64,
}

/// Quotient and remainder by the channel count, without a divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelDiv {
    /// A power-of-two count: `n >> shift`, `n & mask`.
    Shift { shift: u32, mask: u64 },
    /// Any other count `d`, for dividends below 2^32: `m = ⌈2^64 / d⌉`
    /// and `n / d = (m · n) >> 64` exactly (Lemire, Kaser & Kurz,
    /// "Faster Remainder by Direct Computation", 2019, Theorem 1 with
    /// N = 32, F = 64).
    Reciprocal { d: u64, m: u64 },
}

impl ChannelDiv {
    fn new(channels: u32) -> Self {
        let d = channels as u64;
        if d.is_power_of_two() {
            ChannelDiv::Shift {
                shift: d.trailing_zeros(),
                mask: d - 1,
            }
        } else {
            // `d` is not a power of two, so it does not divide 2^64 and
            // ⌈2^64 / d⌉ = ⌊(2^64 − 1) / d⌋ + 1.
            ChannelDiv::Reciprocal {
                d,
                m: u64::MAX / d + 1,
            }
        }
    }

    /// `(n / d, n % d)`. `n` must be below 2^32 on the reciprocal path.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        match self {
            ChannelDiv::Shift { shift, mask } => (n >> shift, n & mask),
            ChannelDiv::Reciprocal { d, m } => {
                debug_assert!(n < 1 << 32, "reciprocal divide needs a 32-bit dividend");
                let q = ((m as u128 * n as u128) >> 64) as u64;
                (q, n - q * d)
            }
        }
    }
}

impl LineDecoder {
    /// Builds the decoder for `mapping` over `org`.
    pub fn new(mapping: AddressMapping, org: DramOrg) -> Self {
        let cap = org.capacity_bytes.max(1);
        let lpr = (org.row_bytes / 64).max(1);
        let pow2 = |x: u64| x.is_power_of_two();
        // Every line index is at most (cap − 1) / 64, below 2^32 when
        // cap ≤ 2^38: the reciprocal's exactness condition.
        let ch_fits = org.channels > 0 && (pow2(org.channels as u64) || cap <= 1 << 38);
        let fast =
            (pow2(cap) && ch_fits && pow2(lpr) && pow2(org.banks as u64) && pow2(org.ranks as u64))
                .then(|| DecodeShifts {
                    cap_mask: cap - 1,
                    ch: ChannelDiv::new(org.channels),
                    lpr_shift: lpr.trailing_zeros(),
                    ba_shift: (org.banks as u64).trailing_zeros(),
                    ba_mask: org.banks as u64 - 1,
                    ra_shift: (org.ranks as u64).trailing_zeros(),
                    ra_mask: org.ranks as u64 - 1,
                });
        LineDecoder { mapping, org, fast }
    }

    /// Decodes `addr` exactly as [`AddressMapping::decode`] would.
    #[inline]
    pub fn decode(&self, addr: u64) -> Location {
        let Some(s) = &self.fast else {
            return self.mapping.decode(addr, &self.org);
        };
        let line = (addr & s.cap_mask) >> 6;
        let (channel, rest) = match self.mapping {
            AddressMapping::CacheLineInterleave => {
                let (rest, channel) = s.ch.div_rem(line);
                (channel, rest >> s.lpr_shift)
            }
            AddressMapping::RowInterleave => {
                let (rest, channel) = s.ch.div_rem(line >> s.lpr_shift);
                (channel, rest)
            }
        };
        Location {
            channel: channel as u32,
            rank: ((rest >> s.ba_shift) & s.ra_mask) as u32,
            bank: (rest & s.ba_mask) as u32,
            row: (rest >> s.ba_shift) >> s.ra_shift,
        }
    }

    /// The mapping this decoder implements.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrg {
        DramOrg {
            channels: 4,
            ranks: 2,
            banks: 16,
            row_bytes: 8192,
            bus_bytes: 8,
            capacity_bytes: 1 << 30,
        }
    }

    #[test]
    fn cacheline_interleave_rotates_channels() {
        let m = AddressMapping::CacheLineInterleave;
        let o = org();
        for i in 0..16u64 {
            let loc = m.decode(i * 64, &o);
            assert_eq!(loc.channel, (i % 4) as u32, "line {i}");
        }
    }

    #[test]
    fn row_interleave_keeps_row_on_one_channel() {
        let m = AddressMapping::RowInterleave;
        let o = org();
        let first = m.decode(0, &o);
        for i in 0..(o.row_bytes / 64) {
            let loc = m.decode(i * 64, &o);
            assert_eq!(loc.channel, first.channel);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
        }
        // The next row moves to a different channel.
        let next = m.decode(o.row_bytes, &o);
        assert_ne!(next.channel, first.channel);
    }

    #[test]
    fn decode_is_within_bounds() {
        let o = org();
        for m in [
            AddressMapping::CacheLineInterleave,
            AddressMapping::RowInterleave,
        ] {
            for i in 0..10_000u64 {
                let loc = m.decode(i * 64 + 3, &o);
                assert!(loc.channel < o.channels);
                assert!(loc.rank < o.ranks);
                assert!(loc.bank < o.banks);
            }
        }
    }

    /// Which decode path `d` takes.
    fn path(d: &LineDecoder) -> &'static str {
        match d.fast.map(|s| s.ch) {
            None => "reference",
            Some(ChannelDiv::Shift { .. }) => "shift",
            Some(ChannelDiv::Reciprocal { .. }) => "reciprocal",
        }
    }

    #[test]
    fn decode_is_cached_exactly() {
        // The precomputed decoder must agree with the reference decode
        // bit-for-bit, on both mappings, on every path it can take.
        let non_pow2 = DramOrg {
            channels: 3,
            ..org()
        };
        // The scaled host DRAM: 12 channels over 256 GiB, so its last
        // line index is 2^32 − 1.
        let host = DramOrg {
            channels: 12,
            ..DramOrg::table2_local()
        };
        assert_eq!(host.capacity_bytes, 1 << 38);
        // One capacity step past that, a line index no longer fits in
        // 32 bits and a non-pow2 channel count must divide for real; so
        // must a non-pow2 bank count at any capacity.
        let too_big = DramOrg {
            capacity_bytes: 1 << 39,
            ..host
        };
        let odd_banks = DramOrg { banks: 12, ..org() };
        let cases = [
            (org(), "shift"),
            (non_pow2, "reciprocal"),
            (host, "reciprocal"),
            (too_big, "reference"),
            (odd_banks, "reference"),
        ];
        for (o, want) in cases {
            for m in [
                AddressMapping::CacheLineInterleave,
                AddressMapping::RowInterleave,
            ] {
                let d = LineDecoder::new(m, o);
                assert_eq!(d.mapping(), m);
                assert_eq!(path(&d), want, "{o:?}");
                let mut addr = 0u64;
                for i in 0..50_000u64 {
                    // Stride through lines, odd offsets, and wraps.
                    addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
                    assert_eq!(d.decode(addr), m.decode(addr, &o), "addr {addr:#x}");
                }
                // The top of the address space: the last lines below
                // capacity (line index 2^32 − 1 on the host) and the
                // wrap just past it.
                let cap = o.capacity_bytes;
                for addr in (cap - 64 * 64..cap + 64 * 64).step_by(61) {
                    assert_eq!(d.decode(addr), m.decode(addr, &o), "addr {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn reciprocal_divide_is_exact_below_2_pow_32() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for d in (3u32..2_000).chain([12, 1_000_003, u32::MAX - 1, u32::MAX]) {
            let div = ChannelDiv::new(d);
            if d.is_power_of_two() {
                assert!(matches!(div, ChannelDiv::Shift { .. }));
                continue;
            }
            let d64 = d as u64;
            let edges = [0, 1, d64 - 1, d64, d64 + 1, (1 << 32) - 1, (1 << 32) - d64];
            let random = (0..200).map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng >> 32
            });
            for n in edges.into_iter().filter(|&n| n < 1 << 32).chain(random) {
                assert_eq!(div.div_rem(n), (n / d64, n % d64), "{n} / {d}");
            }
        }
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let o = org();
        let m = AddressMapping::CacheLineInterleave;
        assert_eq!(m.decode(64, &o), m.decode(o.capacity_bytes + 64, &o));
    }

    #[test]
    fn same_line_same_location() {
        let o = org();
        let m = AddressMapping::CacheLineInterleave;
        assert_eq!(m.decode(128, &o), m.decode(129, &o));
        assert_eq!(m.decode(128, &o), m.decode(191, &o));
    }
}
