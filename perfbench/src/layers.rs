//! Per-layer metrics of the traced run, named after the repository's
//! modules.

use std::collections::BTreeMap;

use baselines::Scheme;

use crate::tracing::Tracer;
use crate::workloads::{run_trace_span, span, Done, Outcome};

/// Every per-layer metric with its unit, in report order. README.md
/// records what each measures, which end-to-end metric it should move,
/// and on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tracegen.generate_s", "s"),
    ("tracegen.next_query_s", "s"),
    ("system.new_s", "s"),
    ("system.run_trace_s.pond", "s"),
    ("system.run_trace_s.pond_pm", "s"),
    ("system.run_trace_s.beacon", "s"),
    ("system.run_trace_s.recnmp", "s"),
    ("system.run_trace_s.pifs_rec", "s"),
    ("system.run_trace_allocs.pond", "count"),
    ("system.run_trace_allocs.pond_pm", "count"),
    ("system.run_trace_allocs.beacon", "count"),
    ("system.run_trace_allocs.recnmp", "count"),
    ("system.run_trace_allocs.pifs_rec", "count"),
    ("serving.push_s", "s"),
    ("serving.finish_s", "s"),
    ("serving.push_allocs_per_query", "count"),
    ("serving.batches", "count"),
    ("serving.batch_fill", "ratio"),
    ("serving.pm_epochs", "count"),
    ("serving.shed_frac", "ratio"),
    ("cluster.placement_s", "s"),
    ("cluster.route_s", "s"),
    ("cluster.node_push_s", "s"),
    ("cluster.node_finish_s", "s"),
    ("cluster.merge_s", "s"),
    ("cluster.merge_allocs", "count"),
    ("cluster.route_peak_heap_mib", "MiB"),
    ("cluster.fanout", "count"),
    ("cluster.agg_bytes", "bytes"),
    ("cluster.coverage", "ratio"),
    ("cluster.failovers", "count"),
    ("cluster.timeouts", "count"),
    ("cluster.hedge_yield", "ratio"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("memsim.device_accesses", "count"),
    ("memsim.device_imbalance", "ratio"),
    ("cxlsim.host_link_bytes", "bytes"),
    ("core.buffer_hit_ratio", "ratio"),
    ("core.ooo_stalls", "count"),
    ("core.lookups.local", "count"),
    ("core.lookups.remote", "count"),
    ("core.lookups.cxl", "count"),
    ("pagemgmt.migrations", "count"),
    ("pagemgmt.migration_sim_ns", "sim_ns"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric one iteration measures (all but the
/// `trace.*` pair, which compare iterations). Span-derived values are
/// zero when tracing is off or the workload never calls the layer.
pub fn measure(
    done: &[Done],
    tr: &Tracer,
    events: u64,
    wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let secs = |name: &str| tr.totals(name).total_ns as f64 * 1e-9;
    out.insert("tracegen.generate_s", secs(span::GENERATE));
    out.insert("tracegen.next_query_s", secs(span::NEXT_QUERY));
    out.insert("system.new_s", secs(span::SYSTEM_NEW));
    for scheme in Scheme::all() {
        let t = tr.totals(run_trace_span(scheme));
        let per_run = if t.count == 0 {
            0.0
        } else {
            t.allocs as f64 / t.count as f64
        };
        let (secs_name, allocs_name) = run_trace_metrics(scheme);
        out.insert(secs_name, t.total_ns as f64 * 1e-9);
        out.insert(allocs_name, per_run);
    }
    out.insert("serving.push_s", secs(span::PUSH));
    out.insert("serving.finish_s", secs(span::FINISH));
    out.insert("cluster.placement_s", secs(span::PLACEMENT));
    out.insert(
        "cluster.route_s",
        tr.totals(span::ROUTE).self_ns as f64 * 1e-9,
    );
    out.insert("cluster.node_push_s", secs(span::NODE_PUSH));
    out.insert("cluster.node_finish_s", secs(span::NODE_FINISH));
    out.insert("cluster.merge_s", secs(span::MERGE));
    out.insert("cluster.merge_allocs", tr.totals(span::MERGE).allocs as f64);

    let ok = || done.iter().filter_map(|d| d.result.as_ref().ok());
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    // Serving: single-node open-loop operations only.
    let (mut offered, mut batches, mut fill, mut epochs, mut shed) = (0u64, 0u64, 0.0, 0u64, 0u64);
    for o in ok() {
        if let Outcome::Serve { offered: n, met } = o {
            offered += n;
            batches += met.batches;
            fill += met.mean_batch_fill * met.batches as f64;
            epochs += met.pm_epochs;
            shed += met.shed;
        }
    }
    let serving_allocs = tr.totals(span::PUSH).allocs + tr.totals(span::FINISH).allocs;
    out.insert(
        "serving.push_allocs_per_query",
        ratio(serving_allocs as f64, offered as f64),
    );
    out.insert("serving.batches", batches as f64);
    out.insert("serving.batch_fill", ratio(fill, batches as f64));
    out.insert("serving.pm_epochs", epochs as f64);
    out.insert("serving.shed_frac", ratio(shed as f64, offered as f64));

    // Cluster outcome counts.
    let (mut n, mut fanout, mut agg, mut served, mut total) = (0u64, 0.0, 0u64, 0u64, 0u64);
    let (mut failovers, mut timeouts, mut hedges, mut route_peak) = (0u64, 0u64, 0u64, 0u64);
    for o in ok() {
        if let Outcome::Cluster {
            met,
            route_peak_bytes,
            ..
        } = o
        {
            n += 1;
            fanout += met.mean_fanout;
            agg += met.agg_bytes;
            served += met.served_lookups;
            total += met.total_lookups;
            failovers += met.failovers;
            timeouts += met.timeouts;
            hedges += met.hedges;
            route_peak = route_peak.max(*route_peak_bytes);
        }
    }
    out.insert("cluster.route_peak_heap_mib", route_peak as f64 / MIB);
    out.insert("cluster.fanout", ratio(fanout, n as f64));
    out.insert("cluster.agg_bytes", agg as f64);
    out.insert("cluster.coverage", ratio(served as f64, total as f64));
    out.insert("cluster.failovers", failovers as f64);
    out.insert("cluster.timeouts", timeouts as f64);
    out.insert("cluster.hedge_yield", ratio(hedges as f64, timeouts as f64));

    out.insert("sim.events", events as f64);
    out.insert("sim.host_ns_per_event", ratio(wall_s * 1e9, events as f64));

    // Pipeline counters over every simulated run, cluster nodes included.
    let mut runs = Vec::new();
    for o in ok() {
        match o {
            Outcome::Closed { run, .. } => runs.push(run),
            Outcome::Serve { met, .. } => runs.push(&met.run),
            Outcome::Cluster { met, .. } => runs.extend(met.per_node.iter().map(|n| &n.run)),
        }
    }
    let sum = |f: fn(&pifs_core::RunMetrics) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let closed: Vec<_> = ok()
        .filter_map(|o| match o {
            Outcome::Closed { run, .. } => Some(run),
            _ => None,
        })
        .collect();
    let cvs: Vec<f64> = closed
        .iter()
        .filter(|r| r.device_accesses.len() > 1)
        .map(|r| coefficient_of_variation(&r.device_accesses))
        .collect();
    out.insert(
        "memsim.device_accesses",
        closed
            .iter()
            .map(|r| r.device_accesses.iter().sum::<u64>())
            .sum::<u64>() as f64,
    );
    out.insert(
        "memsim.device_imbalance",
        ratio(cvs.iter().sum(), cvs.len() as f64),
    );
    out.insert("cxlsim.host_link_bytes", sum(|r| r.host_link_bytes));
    let hits = sum(|r| r.buffer_hits);
    out.insert(
        "core.buffer_hit_ratio",
        ratio(hits, hits + sum(|r| r.buffer_misses)),
    );
    out.insert("core.ooo_stalls", sum(|r| r.ooo_stalls));
    out.insert("core.lookups.local", sum(|r| r.local_lookups));
    out.insert("core.lookups.remote", sum(|r| r.remote_lookups));
    out.insert("core.lookups.cxl", sum(|r| r.cxl_lookups));
    let closed_sum =
        |f: fn(&pifs_core::RunMetrics) -> u64| closed.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.insert("pagemgmt.migrations", closed_sum(|r| r.migrations));
    out.insert("pagemgmt.migration_sim_ns", closed_sum(|r| r.migration_ns));
    out
}

/// The `run_trace` time and allocation metrics of each scheme.
fn run_trace_metrics(s: Scheme) -> (&'static str, &'static str) {
    match s {
        Scheme::Pond => ("system.run_trace_s.pond", "system.run_trace_allocs.pond"),
        Scheme::PondPm => (
            "system.run_trace_s.pond_pm",
            "system.run_trace_allocs.pond_pm",
        ),
        Scheme::Beacon => (
            "system.run_trace_s.beacon",
            "system.run_trace_allocs.beacon",
        ),
        Scheme::RecNmp => (
            "system.run_trace_s.recnmp",
            "system.run_trace_allocs.recnmp",
        ),
        Scheme::PifsRec => (
            "system.run_trace_s.pifs_rec",
            "system.run_trace_allocs.pifs_rec",
        ),
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

fn coefficient_of_variation(xs: &[u64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}
