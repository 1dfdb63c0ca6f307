//! Allocation guard for the batch boundary: once a system is warm, a
//! run with page management on makes a fixed number of heap
//! allocations, however many page-management epochs it runs. Each epoch
//! ranks, claims, demotes and spreads in recycled buffers, and each
//! open-loop batch reuses the batcher's member buffer.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use pifs_core::system::{
    OpenLoopOpts, PmStyle, ServingConfig, SlsSystem, SystemConfig, TraceSource,
};
use simkit::stats::alloc_stats;
use simkit::SimTime;
use tracegen::{Distribution, Trace, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

/// One whole run of a trace on a system.
type Run = fn(&mut SlsSystem, &Trace);

/// Allocations made by one call of `run` on a system that already ran
/// `warm` twice: the warm runs grow every map and buffer the system
/// keeps to its high-water mark.
fn warm_allocs(cfg: &SystemConfig, warm: &Trace, trace: &Trace, run: Run) -> u64 {
    let mut sys = SlsSystem::new(cfg.clone());
    run(&mut sys, warm);
    run(&mut sys, warm);
    let before = alloc_stats().calls;
    run(&mut sys, trace);
    alloc_stats().calls - before
}

fn closed_loop(sys: &mut SlsSystem, trace: &Trace) {
    let m = sys.run_trace(trace);
    assert!(m.migrations > 0, "the epochs must move pages");
}

/// Serves `trace` open-loop, one query per microsecond: every batch
/// closes full and ends in an epoch.
fn open_loop(sys: &mut SlsSystem, trace: &Trace) {
    let n = trace.batches.len() * trace.batch_size as usize;
    let arrivals: Vec<SimTime> = (0..n as u64).map(|q| SimTime::from_ns(q * 1_000)).collect();
    let opts = OpenLoopOpts {
        record_completion: false,
        window_ns: None,
    };
    let m = sys.serve(&mut TraceSource::new(trace, &arrivals), opts);
    assert_eq!(
        m.pm_epochs,
        trace.batches.len() as u64,
        "one epoch per batch"
    );
    assert!(m.run.migrations > 0, "the epochs must move pages");
}

#[test]
fn warm_epoch_allocations_do_not_grow_with_epochs() {
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
        n_batches: 16,
        bag_size: model.bag_size,
        seed: 11,
    }
    .generate();
    // The same batches twice over: twice the epochs, no new rows or pages.
    let mut long = short.clone();
    long.batches.extend(short.batches.iter().cloned());
    let epochs = short.batches.len() as u64;

    let pifs = SystemConfig {
        n_hosts: 2,
        serving: ServingConfig {
            batch_size: short.batch_size,
            ..ServingConfig::default()
        },
        ..SystemConfig::pifs_rec(model.clone())
    };
    let mut tpp = SystemConfig::pifs_rec(model.clone());
    tpp.page_mgmt.as_mut().expect("page management on").style = PmStyle::Tpp;
    let runs: [(&str, SystemConfig, Run); 3] = [
        ("PIFS-Rec open loop", pifs, open_loop),
        (
            "Pond+PM run_trace",
            SystemConfig::pond_pm(model),
            closed_loop,
        ),
        ("TPP run_trace", tpp, closed_loop),
    ];
    for (name, cfg, run) in runs {
        assert!(cfg.page_mgmt.is_some(), "{name}: page management on");
        let a = warm_allocs(&cfg, &long, &short, run);
        let b = warm_allocs(&cfg, &long, &long, run);
        assert!(
            b <= a + 8,
            "{name}: a warm run made {a} allocations over {epochs} epochs and {b} over {} — \
             the batch boundary allocates per epoch",
            2 * epochs
        );
    }
}
