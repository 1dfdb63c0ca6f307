//! Cross-crate integration tests: every compute placement and topology
//! must produce the same functional SLS results, and the performance
//! ordering the paper reports must hold end to end.

use pifs_rec::prelude::*;
use pifs_rec::{ComputeSite, SystemConfig as Cfg};

fn model() -> ModelConfig {
    ModelConfig::rmc1().scaled_down(8)
}

fn trace(batches: u32, batch: u32, seed: u64) -> tracegen::Trace {
    let m = model();
    TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size: batch,
        n_batches: batches,
        bag_size: m.bag_size,
        seed,
    }
    .generate()
}

fn checksums_close(a: f64, b: f64) {
    let tol = (a.abs() + b.abs()) * 1e-5 + 1e-6;
    assert!((a - b).abs() <= tol, "checksums differ: {a} vs {b}");
}

#[test]
fn all_five_schemes_compute_identical_sls_results() {
    let t = trace(4, 16, 101);
    let mut checks = Vec::new();
    for scheme in Scheme::all() {
        let m = SlsSystem::new(scheme.config(model())).run_trace(&t);
        checks.push((scheme.label(), m.checksum));
    }
    for w in checks.windows(2) {
        checksums_close(w[0].1, w[1].1);
    }
}

#[test]
fn paper_ordering_holds_end_to_end() {
    let t = trace(12, 32, 103);
    let run = |s: Scheme| SlsSystem::new(s.config(model())).run_trace(&t).total_ns;
    let pond = run(Scheme::Pond);
    let beacon = run(Scheme::Beacon);
    let pifs = run(Scheme::PifsRec);
    assert!(pifs < beacon, "pifs={pifs} beacon={beacon}");
    assert!(beacon < pond, "beacon={beacon} pond={pond}");
    let ratio = pond as f64 / pifs as f64;
    assert!(
        (2.0..8.0).contains(&ratio),
        "Pond/PIFS ratio {ratio:.2} should be in the paper's neighbourhood (3.89x)"
    );
}

#[test]
fn multi_switch_topology_preserves_results() {
    let t = trace(3, 8, 107);
    let single = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let mut cfg = Cfg::pifs_rec(model());
    cfg.n_switches = 4;
    cfg.n_hosts = 4;
    let multi = SlsSystem::new(cfg).run_trace(&t);
    checksums_close(single.checksum, multi.checksum);
}

#[test]
fn threading_modes_cover_the_same_work() {
    let t = trace(3, 16, 109);
    let mut a = Cfg::pifs_rec(model());
    a.threading = dlrm::ThreadingMode::Batch;
    let mut b = Cfg::pifs_rec(model());
    b.threading = dlrm::ThreadingMode::Table;
    let ra = SlsSystem::new(a).run_trace(&t);
    let rb = SlsSystem::new(b).run_trace(&t);
    assert_eq!(ra.lookups, rb.lookups);
    checksums_close(ra.checksum, rb.checksum);
}

#[test]
fn warmup_excludes_transients_but_not_correctness() {
    let t = trace(8, 16, 113);
    let cold = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let mut warm_cfg = Cfg::pifs_rec(model());
    warm_cfg.warmup_batches = 4;
    let warm = SlsSystem::new(warm_cfg).run_trace(&t);
    // The warm measurement covers half the batches…
    assert_eq!(warm.bags * 2, cold.bags);
    // …and excludes the PM convergence transient, so its per-bag time is
    // lower.
    let cold_per_bag = cold.total_ns as f64 / cold.bags as f64;
    let warm_per_bag = warm.total_ns as f64 / warm.bags as f64;
    assert!(
        warm_per_bag < cold_per_bag,
        "warm {warm_per_bag:.0} vs cold {cold_per_bag:.0}"
    );
}

#[test]
fn compute_sites_are_exercised() {
    for scheme in Scheme::all() {
        let cfg = scheme.config(model());
        match scheme {
            Scheme::Pond | Scheme::PondPm => assert_eq!(cfg.compute, ComputeSite::Host),
            Scheme::Beacon | Scheme::PifsRec => assert_eq!(cfg.compute, ComputeSite::Switch),
            Scheme::RecNmp => assert_eq!(cfg.compute, ComputeSite::Dimm),
        }
    }
}

#[test]
fn determinism_across_full_stack() {
    let t = trace(4, 16, 127);
    let a = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let b = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    assert_eq!(a.total_ns, b.total_ns);
    assert_eq!(a.device_accesses, b.device_accesses);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn cnv_fallback_preserves_results_and_costs_bandwidth() {
    // §IV-C2: a remote switch without a process core streams raw rows to
    // the local switch, which computes on its behalf. Results must be
    // identical; latency must not improve.
    let t = trace(4, 16, 131);
    let build = || {
        let mut cfg = Cfg::pifs_rec(model());
        cfg.n_switches = 4;
        cfg.n_hosts = 1;
        cfg
    };
    let with_pc = SlsSystem::new(build()).run_trace(&t);
    let mut crippled = SlsSystem::new(build());
    for idx in 1..4 {
        crippled.disable_process_core(idx);
    }
    let without_pc = crippled.run_trace(&t);
    checksums_close(with_pc.checksum, without_pc.checksum);
    assert!(
        without_pc.total_ns >= with_pc.total_ns,
        "losing remote process cores cannot speed things up: {} vs {}",
        without_pc.total_ns,
        with_pc.total_ns
    );
}

#[test]
fn multi_switch_switch_path_is_pinned_bit_exactly() {
    // The switch-compute path on a 4-switch fabric, bit for bit:
    // PIFS-Rec and BEACON, each with every process core and with the
    // cores of switches 1..4 disabled (CNV = 0, so the host's switch
    // folds the remote rows itself). The merge of the per-switch
    // partial sums and the hop timing both show in these numbers.
    // (scheme, every core on, checksum bits, total_ns, ooo_stalls,
    // sram_spills, buffer_hits)
    const PINNED: [(Scheme, bool, u64, u64, u64, u64, u64); 4] = [
        (
            Scheme::PifsRec,
            true,
            0x40b3_decb_93ec_0000,
            8149,
            0,
            0,
            1204,
        ),
        (
            Scheme::PifsRec,
            false,
            0x40b3_decb_93ec_0000,
            8197,
            0,
            0,
            1204,
        ),
        (
            Scheme::Beacon,
            true,
            0x40b3_decb_9414_0000,
            11894,
            1823,
            0,
            0,
        ),
        (
            Scheme::Beacon,
            false,
            0x40b3_decb_9414_0000,
            12334,
            511,
            0,
            0,
        ),
    ];
    let t = trace(4, 16, 131);
    for (scheme, cnv, checksum_bits, total_ns, stalls, spills, hits) in PINNED {
        let mut cfg = scheme.config(model());
        cfg.n_switches = 4;
        cfg.n_hosts = 1;
        let mut sys = SlsSystem::new(cfg);
        if !cnv {
            for idx in 1..4 {
                sys.disable_process_core(idx);
            }
        }
        let m = sys.run_trace(&t);
        let got = (
            m.checksum.to_bits(),
            m.total_ns,
            m.ooo_stalls,
            m.sram_spills,
            m.buffer_hits,
        );
        assert_eq!(
            got,
            (checksum_bits, total_ns, stalls, spills, hits),
            "{} with every core on = {cnv}",
            scheme.label()
        );
    }
}

#[test]
fn page_management_epochs_are_pinned_bit_exactly() {
    // The batch-boundary page manager, bit for bit, on two hosts over
    // twelve epochs (three of them spreading): Pond+PM and PIFS-Rec
    // with cache-line and page-block migration, PIFS-Rec under the
    // TPP-style policy, and PIFS-Rec from a device-blocked placement
    // (the Fig 10(b) hotspot that spreading repairs). The final
    // placement is pinned per tier as (pages, sum of page ids), so a
    // change in which pages an epoch picks shows even when the counts
    // balance out.
    use pifs_rec::pagemgmt::{InitialPlacement, MigrationGranularity, Tier};
    use pifs_rec::pifs_core::system::PmStyle;
    // (label, migrations, migration_ns, checksum bits, local/remote/cxl
    // lookups, final placement on [local, remote, cxl 0, cxl 1, ...])
    type Pin = (&'static str, u64, u64, u64, [u64; 3], &'static [(u64, u64)]);
    // The four PIFS-policy runs from the 4:1 interleave end on the same
    // placement: their epochs pick the same pages.
    const CXL_FRACTION_END: &[(u64, u64)] = &[
        (205, 116819),
        (0, 0),
        (102, 50471),
        (103, 49752),
        (102, 51897),
        (103, 49147),
        (102, 51855),
        (102, 50477),
        (103, 52422),
        (102, 50936),
    ];
    const PINNED: [Pin; 6] = [
        (
            "pond_pm/cache_line",
            504,
            6048,
            0x40d1c7a4cf280000,
            [6350, 0, 5938],
            CXL_FRACTION_END,
        ),
        (
            "pond_pm/page_block",
            504,
            1137024,
            0x40d1c7a4cf280000,
            [6350, 0, 5938],
            CXL_FRACTION_END,
        ),
        (
            "pifs_rec/cache_line",
            504,
            6048,
            0x40d1c7a4cf510000,
            [6350, 0, 5938],
            CXL_FRACTION_END,
        ),
        (
            "pifs_rec/page_block",
            504,
            1137024,
            0x40d1c7a4cf510000,
            [6350, 0, 5938],
            CXL_FRACTION_END,
        ),
        (
            "pifs_rec/tpp",
            1536,
            18432,
            0x40d1c7a4cf150000,
            [6665, 0, 5623],
            &[
                (205, 113548),
                (0, 0),
                (102, 53591),
                (103, 47890),
                (102, 51134),
                (103, 49012),
                (102, 51746),
                (102, 50934),
                (103, 51574),
                (102, 54347),
            ],
        ),
        (
            "pifs_rec/blocked",
            351,
            4212,
            0x40d1c7a4cf160000,
            [5779, 0, 6509],
            &[
                (205, 111134),
                (0, 0),
                (103, 8599),
                (101, 20566),
                (96, 31032),
                (104, 45705),
                (99, 56101),
                (106, 68827),
                (104, 83057),
                (106, 98755),
            ],
        ),
    ];
    let t = trace(12, 16, 137);
    for (label, migrations, migration_ns, checksum_bits, split, placement) in PINNED {
        let mut cfg = if label.starts_with("pond_pm") {
            Cfg::pond_pm(model())
        } else {
            Cfg::pifs_rec(model())
        };
        cfg.n_hosts = 2;
        if label.ends_with("blocked") {
            cfg.placement = InitialPlacement::AllCxlBlocked {
                total_pages: cfg.n_pages(),
            };
        }
        let pm = cfg.page_mgmt.as_mut().expect("page management on");
        if label.ends_with("page_block") {
            pm.granularity = MigrationGranularity::PageBlock;
        }
        if label.ends_with("tpp") {
            pm.style = PmStyle::Tpp;
        }
        let mut sys = SlsSystem::new(cfg);
        let m = sys.run_trace(&t);
        let pt = sys.page_table();
        let final_placement: Vec<(u64, u64)> = [Tier::Local, Tier::Remote]
            .into_iter()
            .chain((0..pt.capacities().n_cxl).map(Tier::Cxl))
            .map(|tier| {
                let id_sum = pt
                    .iter()
                    .filter(|&(_, t)| t == tier)
                    .map(|(p, _)| p.0)
                    .sum();
                (pt.occupancy(tier), id_sum)
            })
            .collect();
        let got = (
            m.migrations,
            m.migration_ns,
            m.checksum.to_bits(),
            [m.local_lookups, m.remote_lookups, m.cxl_lookups],
            final_placement,
        );
        assert_eq!(
            got,
            (
                migrations,
                migration_ns,
                checksum_bits,
                split,
                placement.to_vec()
            ),
            "{label}"
        );
    }
}
