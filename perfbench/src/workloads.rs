//! The four workloads: what each sets up, the simulation calls it times,
//! and the digest of simulated outputs its correctness check compares.
//!
//! Set-up (host time before the first simulated lookup) builds every
//! `SystemConfig`/`SlsSystem`/`ShardPlacement`, every materialized trace,
//! the query streams, and fills the process-wide embedding row store
//! inside the first `SlsSystem::new`. The simulation phase is the
//! `run_trace`, `open_loop_push*`, `open_loop_finish`, `route_stream` and
//! `merge_streamed` calls, one simulated configuration (an *operation*)
//! after another on this thread.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use baselines::Scheme;
use dlrm::ModelConfig;
use pagemgmt::MigrationGranularity;
use pifs_core::engine::cluster::{
    merge_streamed, route_stream, ClusterConfig, ClusterMetrics, ShardPlacement, ShardPolicy,
    TaggedQuerySource,
};
use pifs_core::system::{
    OpenLoopOpts, PmConfig, RunMetrics, ServingMetrics, SlsSystem, SystemConfig,
};
use pifs_core::SlsCluster;
use simkit::{FaultSchedule, FaultSpec, SimTime};
use tracegen::{
    ArrivalProcess, Distribution, QosClass, QueryStream, QueryStreamSpec, TenantMixStream,
    TenantSpec, Trace, TraceSpec,
};

use crate::tracing::Tracer;

/// Embedding-count scale-down of every Table I model (the repository's
/// standard scaled workload).
const MODEL_SCALE: u64 = 16;
/// Batches and samples per batch of the standard closed-loop trace.
const STD_BATCHES: u32 = 12;
const STD_BATCH_SIZE: u32 = 32;
/// Warmup batches of every closed-loop run (steady-state measurement).
const WARMUP_BATCHES: u32 = 4;
/// Batcher max-wait of every open-loop run, µs (the serving families'
/// floor).
const MAX_WAIT_US: &str = "10";
/// Queries per `serving_burst` point (the `latency_adaptive` length).
const BURST_QUERIES: u32 = 48 * STD_BATCH_SIZE;
/// Offered rates of `serving_burst`, queries/s: at and above the
/// single-node knee.
const BURST_QPS: [f64; 2] = [8e6, 16e6];
/// `serving_diurnal`: rate, simulated seconds, and latency window.
const DIURNAL_QPS: u64 = 500;
const DIURNAL_SECONDS: u64 = 30;
const DIURNAL_WINDOW_NS: u64 = 1_000_000_000;
/// Queries and offered rate of every `cluster` configuration.
const CLUSTER_QUERIES: u32 = 4 * STD_BATCHES * STD_BATCH_SIZE;
const CLUSTER_QPS: f64 = 16e6;
/// Faulty-cluster knobs (the `cluster_faults` shapes). A fault schedule
/// carries one family, so there is one faulty configuration per family.
const FAULT_NODES: u16 = 4;
const FAULT_QPS: f64 = 32e6;
const FAULTS: [&str; 3] = ["failstop:32000", "slow:64000:4", "link:64000:8"];
const FAULT_SLA_US: &str = "8";
const FAULT_REPLICAS: u32 = 64;
const FAULT_PARTIAL_TIMEOUT_NS: u64 = 100_000;

/// The workloads this benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClosedLoop,
    ServingBurst,
    ServingDiurnal,
    Cluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClosedLoop,
        Workload::ServingBurst,
        Workload::ServingDiurnal,
        Workload::Cluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedLoop => "closed_loop",
            Workload::ServingBurst => "serving_burst",
            Workload::ServingDiurnal => "serving_diurnal",
            Workload::Cluster => "cluster",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A per-purpose seed derived from the run's `--seed` (splitmix64).
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scaled(model: ModelConfig) -> ModelConfig {
    model.scaled_down(MODEL_SCALE)
}

fn meta_like() -> Distribution {
    Distribution::MetaLike {
        reuse_frac: 0.35,
        s: 1.05,
    }
}

/// Buffer capacities scaled with the model (as the figure harness does).
fn scale_buffers(mut cfg: SystemConfig) -> SystemConfig {
    if let Some(b) = cfg.buffer.as_mut() {
        b.capacity_bytes = (b.capacity_bytes / MODEL_SCALE).max(16 * 1024);
    }
    cfg
}

fn trace_spec(m: &ModelConfig, batch_size: u32, n_batches: u32, seed: u64) -> TraceSpec {
    TraceSpec {
        distribution: meta_like(),
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size,
        n_batches,
        bag_size: m.bag_size,
        seed,
    }
}

/// A PIFS-Rec scaled-RMC1 serving node at the serving families' max-wait.
fn serving_node() -> SystemConfig {
    let mut cfg = scale_buffers(SystemConfig::pifs_rec(scaled(ModelConfig::rmc1())));
    cfg.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us is a serving knob");
    cfg
}

/// Scheme key used in operation names.
fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Pond => "pond",
        Scheme::PondPm => "pond_pm",
        Scheme::Beacon => "beacon",
        Scheme::RecNmp => "recnmp",
        Scheme::PifsRec => "pifs_rec",
    }
}

/// The `run_trace` span of each scheme.
pub fn run_trace_span(s: Scheme) -> &'static str {
    match s {
        Scheme::Pond => "system.run_trace.pond",
        Scheme::PondPm => "system.run_trace.pond_pm",
        Scheme::Beacon => "system.run_trace.beacon",
        Scheme::RecNmp => "system.run_trace.recnmp",
        Scheme::PifsRec => "system.run_trace.pifs_rec",
    }
}

/// Span names of the layer calls.
pub mod span {
    pub const GENERATE: &str = "tracegen.generate";
    pub const NEXT_QUERY: &str = "tracegen.next_query";
    pub const SYSTEM_NEW: &str = "system.new";
    pub const PUSH: &str = "serving.push";
    pub const FINISH: &str = "serving.finish";
    pub const PLACEMENT: &str = "cluster.placement";
    pub const ROUTE: &str = "cluster.route";
    pub const NODE_PUSH: &str = "cluster.node_push";
    pub const NODE_FINISH: &str = "cluster.node_finish";
    pub const MERGE: &str = "cluster.merge";
}

/// A query source for one open-loop serving operation.
enum Source {
    Stream(QueryStream),
    Mix(TenantMixStream),
}

/// A [`TaggedQuerySource`] that publishes the id of the query it last
/// emitted, so the node-push spans inside `route_stream`'s callback can
/// carry the run's query id. Outputs are those of the wrapped stream.
#[derive(Clone)]
struct QidTap {
    inner: QueryStream,
    last: Rc<Cell<u64>>,
}

impl TaggedQuerySource for QidTap {
    fn next_tagged(&mut self) -> Option<(u64, u16, SimTime)> {
        let next = self.inner.next_tagged();
        if let Some((qid, _, _)) = next {
            self.last.set(qid);
        }
        next
    }
    fn bag(&self, table: u32) -> &[u64] {
        self.inner.bag(table)
    }
    fn n_tables(&self) -> u32 {
        self.inner.n_tables()
    }
    fn position(&self) -> u64 {
        self.inner.position()
    }
}

/// What one operation runs. A workload holds a handful of these for one
/// run, so the variants' size difference costs nothing worth boxing.
#[allow(clippy::large_enum_variant)]
enum Kind {
    Closed {
        scheme: Scheme,
        sys: SlsSystem,
        trace: Rc<Trace>,
    },
    Serve {
        sys: SlsSystem,
        source: Source,
    },
    Cluster {
        cfg: ClusterConfig,
        placement: ShardPlacement,
        nodes: Vec<SlsSystem>,
        stream: QidTap,
        replay: QueryStream,
    },
}

/// One simulated configuration, set up and ready to run.
pub struct Op {
    pub name: String,
    /// Closed-loop operations on the same trace share a group: their
    /// functional checksums must agree across schemes.
    group: Option<&'static str>,
    kind: Kind,
}

/// What an operation produced.
pub enum Outcome {
    Closed {
        /// Samples the trace carries (batches × batch size).
        samples: u64,
        run: RunMetrics,
    },
    Serve {
        offered: u64,
        met: ServingMetrics,
    },
    Cluster {
        offered: u64,
        met: ClusterMetrics,
        route_peak_bytes: u64,
    },
}

impl Outcome {
    /// Simulated queries: closed-loop samples, or offered open-loop
    /// queries.
    pub fn queries(&self) -> u64 {
        match self {
            Outcome::Closed { samples, .. } => *samples,
            Outcome::Serve { offered, .. } | Outcome::Cluster { offered, .. } => *offered,
        }
    }

    /// Simulated embedding lookups (`RunMetrics::lookups`, or the
    /// cluster's `total_lookups`).
    pub fn lookups(&self) -> u64 {
        match self {
            Outcome::Closed { run, .. } => run.lookups,
            Outcome::Serve { met, .. } => met.run.lookups,
            Outcome::Cluster { met, .. } => met.total_lookups,
        }
    }
}

/// A finished operation: its outcome, or why it failed.
pub struct Done {
    pub name: String,
    pub group: Option<&'static str>,
    pub result: Result<Outcome, String>,
}

/// Tracks the simulation phase's peak live heap across the sub-phase
/// resets that measure the routing peak.
pub struct HeapWatch {
    base: u64,
    peak: u64,
}

impl HeapWatch {
    /// Starts watching at the current live heap.
    pub fn start() -> HeapWatch {
        simkit::stats::reset_alloc_peak();
        let s = simkit::stats::alloc_stats();
        HeapWatch {
            base: s.live_bytes,
            peak: s.peak_live_bytes,
        }
    }

    /// Closes the current segment: folds its peak into the phase peak,
    /// restarts peak tracking at the live heap, and returns the
    /// segment's peak above the live heap at `from`.
    fn segment(&mut self, from: u64) -> u64 {
        let s = simkit::stats::alloc_stats();
        self.peak = self.peak.max(s.peak_live_bytes);
        simkit::stats::reset_alloc_peak();
        s.peak_live_bytes.saturating_sub(from)
    }

    /// The phase's peak live heap above its start, bytes.
    pub fn finish(mut self) -> u64 {
        self.segment(0);
        self.peak.saturating_sub(self.base)
    }
}

/// Builds every operation of `workload` for `seed`.
pub fn setup(workload: Workload, seed: u64, tr: &mut Tracer) -> Vec<Op> {
    match workload {
        Workload::ClosedLoop => setup_closed_loop(seed, tr),
        Workload::ServingBurst => setup_burst(seed, tr),
        Workload::ServingDiurnal => setup_diurnal(seed, tr),
        Workload::Cluster => cluster_configs(seed)
            .into_iter()
            .map(|(name, cfg, spec)| {
                let stream = spec.stream();
                let placement = tr.scope(span::PLACEMENT, None, || {
                    ShardPlacement::build_streamed(&cfg, &stream)
                });
                let replay = stream.clone();
                let n_tables = stream.n_tables();
                let nodes = (0..cfg.n_shards)
                    .map(|s| {
                        let mut node =
                            tr.scope(span::SYSTEM_NEW, None, || SlsSystem::new(cfg.node.clone()));
                        node.set_slowdowns(cfg.faults.slow_intervals(s));
                        node.open_loop_begin(n_tables, OpenLoopOpts::default());
                        node
                    })
                    .collect();
                Op {
                    name,
                    group: None,
                    kind: Kind::Cluster {
                        cfg,
                        placement,
                        nodes,
                        stream: QidTap {
                            inner: stream,
                            last: Rc::new(Cell::new(0)),
                        },
                        replay,
                    },
                }
            })
            .collect(),
    }
}

fn closed_op(
    name: String,
    group: Option<&'static str>,
    scheme: Scheme,
    cfg: SystemConfig,
    trace: &Rc<Trace>,
    tr: &mut Tracer,
) -> Op {
    let mut cfg = cfg;
    cfg.warmup_batches = WARMUP_BATCHES;
    let sys = tr.scope(span::SYSTEM_NEW, None, || SlsSystem::new(cfg));
    Op {
        name,
        group,
        kind: Kind::Closed {
            scheme,
            sys,
            trace: Rc::clone(trace),
        },
    }
}

/// `closed_loop`: the five schemes on scaled RMC1 and RMC4 over the
/// standard warmed Meta-like trace, fig14-style multi-host PIFS-Rec
/// points, and fig13a-style page-management points at a low migrate
/// threshold.
fn setup_closed_loop(seed: u64, tr: &mut Tracer) -> Vec<Op> {
    let mut ops = Vec::new();
    for (key, model) in [("rmc1", ModelConfig::rmc1()), ("rmc4", ModelConfig::rmc4())] {
        let m = scaled(model);
        let spec = trace_spec(&m, STD_BATCH_SIZE, STD_BATCHES, seed);
        let trace = Rc::new(tr.scope(span::GENERATE, None, || spec.generate()));
        for scheme in Scheme::all() {
            let cfg = scale_buffers(scheme.config(m.clone()));
            ops.push(closed_op(
                format!("{key}/{}", scheme_key(scheme)),
                Some(key),
                scheme,
                cfg,
                &trace,
                tr,
            ));
        }
        if key == "rmc4" {
            for (gran_key, gran) in [
                ("cache_line", MigrationGranularity::CacheLineBlock),
                ("page_block", MigrationGranularity::PageBlock),
            ] {
                let mut cfg = SystemConfig::pifs_rec(m.clone());
                cfg.page_mgmt = Some(PmConfig {
                    migrate_threshold: 0.10,
                    granularity: gran,
                    ..PmConfig::default()
                });
                ops.push(closed_op(
                    format!("fig13a/rmc4/t0.10/{gran_key}"),
                    None,
                    Scheme::PifsRec,
                    cfg,
                    &trace,
                    tr,
                ));
            }
        }
    }
    let m = scaled(ModelConfig::rmc1());
    for hosts in [2u16, 4, 8] {
        // Each host carries its own request stream, as in Fig 14.
        let spec = trace_spec(&m, 64, 6 * hosts as u32, derive(seed, 14));
        let trace = Rc::new(tr.scope(span::GENERATE, None, || spec.generate()));
        let mut cfg = SystemConfig::pifs_rec(m.clone());
        cfg.n_hosts = hosts;
        ops.push(closed_op(
            format!("fig14/rmc1/b64/h{hosts}"),
            None,
            Scheme::PifsRec,
            cfg,
            &trace,
            tr,
        ));
    }
    ops
}

/// The canned two-tenant mix of `latency_adaptive`: a latency-critical
/// Poisson tenant at 75 % of the rate beside a bursty batch tenant.
fn mix_tenants(m: &ModelConfig, qps: f64, trace_seed: u64, arrival_seed: u64) -> Vec<TenantSpec> {
    let batches = BURST_QUERIES / STD_BATCH_SIZE;
    let rank_batches = (batches as f64 * 0.75).round() as u32;
    vec![
        TenantSpec {
            name: "rank".to_string(),
            qos: QosClass::LatencyCritical,
            stream: QueryStreamSpec {
                trace: trace_spec(m, STD_BATCH_SIZE, rank_batches, trace_seed),
                arrival: ArrivalProcess::Poisson { qps: qps * 0.75 },
                arrival_seed,
            },
        },
        TenantSpec {
            name: "backfill".to_string(),
            qos: QosClass::Batch,
            stream: QueryStreamSpec {
                trace: trace_spec(
                    m,
                    STD_BATCH_SIZE,
                    batches - rank_batches,
                    trace_seed ^ 0x6261_636b,
                ),
                arrival: ArrivalProcess::Bursty {
                    qps: qps * 0.25,
                    burst: 0.8,
                    dwell_us: 200.0,
                },
                arrival_seed: arrival_seed ^ 0x5eed,
            },
        },
    ]
}

/// `serving_burst`: single-node PIFS-Rec RMC1 at and above the knee,
/// bursty / flash / two-tenant traffic, fixed and adaptive controllers.
/// Every controller serves the same queries at the same instants.
fn setup_burst(seed: u64, tr: &mut Tracer) -> Vec<Op> {
    let m = scaled(ModelConfig::rmc1());
    let trace_seed = derive(seed, 1);
    let mut ops = Vec::new();
    for controller in ["fixed", "adaptive"] {
        for (ti, traffic) in ["bursty", "flash:4:0.0001:0.0002", "mix"]
            .into_iter()
            .enumerate()
        {
            for (qi, qps) in BURST_QPS.into_iter().enumerate() {
                let arrival_seed = derive(seed, 100 + 10 * ti as u64 + qi as u64);
                let mut cfg = serving_node();
                cfg.apply_knob("serving.controller", controller)
                    .expect("controller policy parses");
                let mut sys = tr.scope(span::SYSTEM_NEW, None, || SlsSystem::new(cfg));
                let source = if traffic == "mix" {
                    let mix = TenantMixStream::new(mix_tenants(&m, qps, trace_seed, arrival_seed));
                    sys.open_loop_begin(mix.n_tables(), mix_opts());
                    Source::Mix(mix)
                } else {
                    let spec = QueryStreamSpec {
                        trace: trace_spec(
                            &m,
                            STD_BATCH_SIZE,
                            BURST_QUERIES / STD_BATCH_SIZE,
                            trace_seed,
                        ),
                        arrival: ArrivalProcess::parse(traffic, qps).expect("traffic spec parses"),
                        arrival_seed,
                    };
                    sys.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default());
                    Source::Stream(spec.stream())
                };
                ops.push(Op {
                    name: format!("{controller}/{traffic}/{}M", qps / 1e6),
                    group: None,
                    kind: Kind::Serve { sys, source },
                });
            }
        }
    }
    ops
}

/// Session options of the two-tenant mix (as `run_open_loop_mix` is
/// driven by `latency_adaptive`).
fn mix_opts() -> OpenLoopOpts {
    OpenLoopOpts {
        record_completion: false,
        window_ns: None,
    }
}

/// `serving_diurnal`: one long low-rate diurnal stream on the
/// bounded-memory path (no completion vector, 1 s windows).
fn setup_diurnal(seed: u64, tr: &mut Tracer) -> Vec<Op> {
    let m = scaled(ModelConfig::rmc1());
    let n_queries = DIURNAL_QPS * DIURNAL_SECONDS;
    let spec = QueryStreamSpec {
        trace: trace_spec(
            &m,
            STD_BATCH_SIZE,
            n_queries.div_ceil(STD_BATCH_SIZE as u64) as u32,
            derive(seed, 2),
        ),
        arrival: ArrivalProcess::parse("diurnal:0.9:20", DIURNAL_QPS as f64)
            .expect("diurnal spec parses"),
        arrival_seed: derive(seed, 3),
    };
    let mut sys = tr.scope(span::SYSTEM_NEW, None, || SlsSystem::new(serving_node()));
    sys.open_loop_begin(
        spec.trace.n_tables,
        OpenLoopOpts {
            record_completion: false,
            window_ns: Some(DIURNAL_WINDOW_NS),
        },
    );
    vec![Op {
        name: format!("diurnal:0.9:20/{DIURNAL_QPS}qps/{DIURNAL_SECONDS}s"),
        group: None,
        kind: Kind::Serve {
            sys,
            source: Source::Stream(spec.stream()),
        },
    }]
}

/// The `cluster` configurations: 4 and 8 nodes under each placement
/// policy, plus one faulty 4-node configuration per fault family
/// (a schedule carries one family), each with deadline shedding,
/// hot-row replicas and a partial timeout.
fn cluster_configs(seed: u64) -> Vec<(String, ClusterConfig, QueryStreamSpec)> {
    let m = scaled(ModelConfig::rmc1());
    let spec = QueryStreamSpec {
        trace: trace_spec(
            &m,
            STD_BATCH_SIZE,
            CLUSTER_QUERIES / STD_BATCH_SIZE,
            derive(seed, 4),
        ),
        arrival: ArrivalProcess::parse("poisson", CLUSTER_QPS).expect("poisson parses"),
        arrival_seed: derive(seed, 5),
    };
    let mut out = Vec::new();
    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        for nodes in [4u16, 8] {
            out.push((
                format!("{}/n{nodes}", policy.label()),
                ClusterConfig::new(nodes, policy, serving_node()),
                spec,
            ));
        }
    }
    // Faulty configurations run past the knee, so the deadline shedder
    // fires, with fault rates (events per node-second) high enough that
    // events land inside the ~70 µs arrival window on any seed.
    let faulty_spec = QueryStreamSpec {
        arrival: ArrivalProcess::parse("poisson", FAULT_QPS).expect("poisson parses"),
        ..spec
    };
    let horizon_ns = (CLUSTER_QUERIES as f64 / FAULT_QPS * 1.5e9).ceil() as u64;
    for (fi, fault) in FAULTS.into_iter().enumerate() {
        let mut node = serving_node();
        node.apply_knob("serving.shed_policy", "deadline")
            .expect("deadline shedding parses");
        node.apply_knob("serving.sla_us", FAULT_SLA_US)
            .expect("sla knob parses");
        let mut cfg = ClusterConfig::new(FAULT_NODES, ShardPolicy::RowHash, node);
        cfg.hot_rows_per_table = FAULT_REPLICAS;
        cfg.faults = FaultSchedule::generate(
            FaultSpec::parse(fault).expect("fault spec parses"),
            derive(seed, 200 + fi as u64),
            FAULT_NODES,
            horizon_ns,
        );
        cfg.partial_timeout_ns = Some(FAULT_PARTIAL_TIMEOUT_NS);
        out.push((format!("faulty/{fault}/n{FAULT_NODES}"), cfg, faulty_spec));
    }
    out
}

impl Op {
    fn run(&mut self, tr: &mut Tracer, heap: &mut HeapWatch) -> Outcome {
        match &mut self.kind {
            Kind::Closed { scheme, sys, trace } => {
                let run = tr.scope(run_trace_span(*scheme), None, || sys.run_trace(trace));
                Outcome::Closed {
                    samples: trace.batches.len() as u64 * trace.batch_size as u64,
                    run,
                }
            }
            Kind::Serve { sys, source } => {
                let mut offered = 0u64;
                match source {
                    Source::Stream(stream) => {
                        while let Some((qid, at)) =
                            tr.scope(span::NEXT_QUERY, None, || stream.next_query())
                        {
                            tr.scope(span::PUSH, Some(qid), || sys.open_loop_push(at, &*stream));
                            offered += 1;
                        }
                    }
                    Source::Mix(mix) => {
                        while let Some((qid, tenant, at)) =
                            tr.scope(span::NEXT_QUERY, None, || mix.next_query())
                        {
                            tr.scope(span::PUSH, Some(qid), || {
                                sys.open_loop_push_tagged(at, tenant, &*mix)
                            });
                            offered += 1;
                        }
                    }
                }
                let met = tr.scope(span::FINISH, None, || sys.open_loop_finish());
                Outcome::Serve { offered, met }
            }
            Kind::Cluster {
                cfg,
                placement,
                nodes,
                stream,
                replay,
            } => {
                // Composed exactly as `SlsCluster::run_open_loop_streamed`.
                let from = simkit::stats::alloc_stats().live_bytes;
                heap.segment(from);
                let last = Rc::clone(&stream.last);
                let route = tr.begin(span::ROUTE, None);
                let routed = route_stream(placement, &cfg.faults, stream, |s, tenant, at, sub| {
                    let push = tr.begin(span::NODE_PUSH, Some(last.get()));
                    nodes[s].open_loop_push_tagged(at, tenant, sub);
                    tr.end(push);
                });
                tr.end(route);
                let route_peak_bytes = heap.segment(from);
                let per_node: Vec<ServingMetrics> = nodes
                    .iter_mut()
                    .map(|node| tr.scope(span::NODE_FINISH, None, || node.open_loop_finish()))
                    .collect();
                let met = tr.scope(span::MERGE, None, || {
                    let completions: Vec<&[SimTime]> =
                        per_node.iter().map(|m| &m.completion[..]).collect();
                    let makespans: Vec<u64> = per_node.iter().map(|m| m.makespan_ns).collect();
                    // Nodes shed by local qid; the merge keys on global qids.
                    let sheds: Vec<Vec<u64>> = per_node
                        .iter()
                        .enumerate()
                        .map(|(s, pm)| {
                            pm.shed_qids
                                .iter()
                                .map(|&lq| routed.qids[s][lq as usize])
                                .collect()
                        })
                        .collect();
                    let shed_refs: Vec<&[u64]> = sheds.iter().map(Vec::as_slice).collect();
                    merge_streamed(
                        cfg,
                        placement,
                        &*replay,
                        &routed,
                        &completions,
                        &shed_refs,
                        &makespans,
                    )
                });
                let mut met = met;
                met.per_node = per_node;
                Outcome::Cluster {
                    offered: stream.position(),
                    met,
                    route_peak_bytes,
                }
            }
        }
    }
}

/// Serves every `cluster` configuration through the library's own
/// entry point, `SlsCluster::run_open_loop_streamed`, for comparison
/// with the composed path the benchmark times.
pub fn cluster_entry_point(seed: u64) -> Vec<(String, Result<Outcome, String>)> {
    cluster_configs(seed)
        .into_iter()
        .map(|(name, cfg, spec)| {
            let result = catch_unwind(AssertUnwindSafe(|| Outcome::Cluster {
                offered: spec.n_queries(),
                met: SlsCluster::new(cfg).run_open_loop_streamed(&mut spec.stream()),
                route_peak_bytes: 0,
            }))
            .map_err(panic_message);
            (name, result)
        })
        .collect()
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs every operation in order, catching a panicking one as a failure.
pub fn run_all(ops: &mut [Op], tr: &mut Tracer, heap: &mut HeapWatch) -> Vec<Done> {
    ops.iter_mut()
        .map(|op| {
            let depth = tr.depth();
            let result = catch_unwind(AssertUnwindSafe(|| op.run(tr, heap))).map_err(|p| {
                tr.unwind_to(depth);
                panic_message(p)
            });
            Done {
                name: op.name.clone(),
                group: op.group,
                result,
            }
        })
        .collect()
}
