//! Determinism of the serving controllers through the public façade:
//! every [`ControllerPolicy`] is a pure function of sim-time-visible
//! state, so two identically-seeded open-loop runs agree to the bit —
//! the property that makes adaptive goldens possible at all.

use dlrm::ModelConfig;
use pifs_core::system::{OpenLoopOpts, ServingMetrics, SlsSystem, SystemConfig, TraceSource};
use proptest::prelude::*;
use tracegen::{ArrivalProcess, Distribution, Trace, TraceSpec};

/// Every `serving.controller` spelling the knob accepts.
const CONTROLLERS: [&str; 4] = ["fixed", "load", "epoch", "adaptive"];

fn small_model() -> ModelConfig {
    ModelConfig {
        emb_num: 4096,
        ..ModelConfig::rmc1()
    }
}

fn trace_for(model: &ModelConfig, n: u32) -> Trace {
    TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size: 16,
        n_batches: n.div_ceil(16),
        bag_size: model.bag_size,
        seed: 5,
    }
    .generate()
}

fn serve(controller: &str, arrival: &ArrivalProcess, n: u32) -> ServingMetrics {
    let mut cfg = SystemConfig::pifs_rec(small_model());
    cfg.apply_knob("serving.max_wait_us", "10").unwrap();
    cfg.apply_knob("serving.controller", controller).unwrap();
    let trace = trace_for(&cfg.model.clone(), n);
    let arrivals = arrival.times(n as usize, 77);
    SlsSystem::new(cfg).serve(
        &mut TraceSource::new(&trace, &arrivals),
        OpenLoopOpts::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two fresh runs of any controller over any arrival shape and
    /// load agree on every metric bit — histograms, knob trajectory
    /// side effects (batch count), PM epochs, and the SLS checksum.
    #[test]
    fn prop_every_controller_is_deterministic(
        ctl_idx in 0usize..CONTROLLERS.len(),
        arrival_idx in 0usize..3,
        qps_idx in 0usize..3,
    ) {
        let controller = CONTROLLERS[ctl_idx];
        let qps = [50_000.0f64, 2_000_000.0, 100_000_000.0][qps_idx];
        let arrival = [
            ArrivalProcess::Poisson { qps },
            ArrivalProcess::Bursty { qps, burst: 0.8, dwell_us: 200.0 },
            ArrivalProcess::parse("flash:4:0.0001:0.0002", qps).unwrap(),
        ][arrival_idx];
        let a = serve(controller, &arrival, 256);
        let b = serve(controller, &arrival, 256);
        prop_assert_eq!(&a.latency, &b.latency, "latency hist drifted ({})", controller);
        prop_assert_eq!(&a.wait, &b.wait, "wait hist drifted ({})", controller);
        prop_assert_eq!(a.makespan_ns, b.makespan_ns);
        prop_assert_eq!(a.batches, b.batches);
        prop_assert_eq!(a.pm_epochs, b.pm_epochs);
        prop_assert_eq!(a.run.checksum.to_bits(), b.run.checksum.to_bits());
        prop_assert_eq!(a.queries, 256u64, "open-loop conservation");
    }
}

/// The load controller demonstrably *acts* under sustained overload —
/// it grows the batch, so the run closes fewer, fuller batches than
/// the fixed policy over the identical workload. Guards against the
/// silent-no-op regression where the tick never fires within a run.
#[test]
fn load_controller_resizes_batches_under_overload() {
    let overload = ArrivalProcess::Poisson { qps: 100_000_000.0 };
    let fixed = serve("fixed", &overload, 512);
    let load = serve("load", &overload, 512);
    assert!(
        load.batches < fixed.batches,
        "load controller closed {} batches vs fixed {} — it never grew the batch",
        load.batches,
        fixed.batches
    );
    assert_eq!(
        fixed.queries, load.queries,
        "same offered queries either way"
    );
}

/// The fixed policy is the default: an untouched config and an explicit
/// `serving.controller=fixed` produce bit-identical runs, so every
/// pre-controller golden stays valid.
#[test]
fn fixed_spelling_is_byte_identical_to_the_default_config() {
    let arrival = ArrivalProcess::Bursty {
        qps: 2_000_000.0,
        burst: 0.8,
        dwell_us: 200.0,
    };
    let explicit = serve("fixed", &arrival, 256);
    let mut cfg = SystemConfig::pifs_rec(small_model());
    cfg.apply_knob("serving.max_wait_us", "10").unwrap();
    let trace = trace_for(&cfg.model.clone(), 256);
    let arrivals = arrival.times(256, 77);
    let default = SlsSystem::new(cfg).serve(
        &mut TraceSource::new(&trace, &arrivals),
        OpenLoopOpts::default(),
    );
    assert_eq!(explicit.latency, default.latency);
    assert_eq!(explicit.makespan_ns, default.makespan_ns);
    assert_eq!(explicit.batches, default.batches);
    assert_eq!(
        explicit.run.checksum.to_bits(),
        default.run.checksum.to_bits()
    );
}
