//! Allocation guard for the switch-compute path: once a system is warm,
//! a `run_trace` of BEACON or PIFS-Rec on a multi-switch fabric makes a
//! fixed number of heap allocations, however many bags it serves. Each
//! bag reuses the pipeline's scratch buffers, the per-switch partial
//! sums included.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use pifs_core::system::{SlsSystem, SystemConfig};
use simkit::stats::alloc_stats;
use tracegen::{Distribution, Trace, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

/// Allocations made by the third `run_trace` of `trace` on one system:
/// the first two runs grow every map and buffer to its high-water mark.
fn warm_run_allocs(cfg: &SystemConfig, trace: &Trace) -> u64 {
    let mut sys = SlsSystem::new(cfg.clone());
    sys.run_trace(trace);
    sys.run_trace(trace);
    let before = alloc_stats().calls;
    let m = sys.run_trace(trace);
    let allocs = alloc_stats().calls - before;
    assert!(m.cxl_lookups > 0, "the trace must reach the switch path");
    allocs
}

#[test]
fn warm_switch_path_allocations_do_not_grow_with_bags() {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let short = TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size: 16,
        n_batches: 4,
        bag_size: model.bag_size,
        seed: 7,
    }
    .generate();
    // The same batches twice over: twice the bags, no new rows or pages.
    let mut long = short.clone();
    long.batches.extend(short.batches.iter().cloned());
    let short_bags = short.batches.len() as u64 * (short.batch_size * short.n_tables) as u64;

    for (name, base) in [
        ("BEACON", SystemConfig::beacon(model.clone())),
        ("PIFS-Rec", SystemConfig::pifs_rec(model)),
    ] {
        let cfg = SystemConfig {
            n_switches: 4,
            page_mgmt: None,
            ..base
        };
        let a = warm_run_allocs(&cfg, &short);
        let b = warm_run_allocs(&cfg, &long);
        assert!(
            b <= a + 8 && a < short_bags / 8,
            "{name}: a warm run made {a} allocations over {short_bags} bags and {b} over {} — \
             the switch path allocates per bag",
            2 * short_bags
        );
    }
}
