//! Correctness: a digest of each operation's simulated outputs, the
//! seed-independent conservation invariants, and the reference digests
//! recorded for the default seed.
//!
//! Simulated results are checks, not metrics: a change to the simulator's
//! speed must leave every digest unchanged.

use std::collections::BTreeMap;
use std::fmt::Write;

use pifs_core::system::RunMetrics;
use simkit::LatencyHist;

use crate::workloads::{Done, Outcome, Workload};

/// The seed the reference digests were recorded with (the repository's
/// workload seed).
pub const DEFAULT_SEED: u64 = 2024;

/// Reference digests, one `<workload> <operation> <digest>` line each,
/// recorded with `--record-reference` at [`DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference.txt");

fn run_fields(out: &mut String, r: &RunMetrics) {
    write!(
        out,
        " total_ns={} bags={} lookups={} local={} remote={} cxl={} devices={:?} checksum={:016x}",
        r.total_ns,
        r.bags,
        r.lookups,
        r.local_lookups,
        r.remote_lookups,
        r.cxl_lookups,
        r.device_accesses,
        r.checksum.to_bits()
    )
    .expect("writing to a String cannot fail");
}

fn latency_fields(out: &mut String, h: &LatencyHist) {
    write!(
        out,
        " lat_n={} p50={} p99={} max={}",
        h.count(),
        h.percentile(0.50),
        h.percentile(0.99),
        h.max_ns()
    )
    .expect("writing to a String cannot fail");
}

/// The canonical text of an operation's simulated outputs.
pub fn canonical(outcome: &Outcome) -> String {
    let mut s = String::new();
    match outcome {
        Outcome::Closed { run, .. } => run_fields(&mut s, run),
        Outcome::Serve { offered, met } => {
            write!(
                s,
                "offered={offered} served={} shed={} batches={} pm_epochs={} makespan_ns={}",
                met.queries, met.shed, met.batches, met.pm_epochs, met.makespan_ns
            )
            .expect("writing to a String cannot fail");
            latency_fields(&mut s, &met.latency);
            run_fields(&mut s, &met.run);
        }
        Outcome::Cluster { met, .. } => {
            write!(
                s,
                "queries={} makespan_ns={} total_lookups={} served_lookups={} fully={} degraded={} \
                 shed={} lost={} timeouts={} hedges={} failovers={} agg_bytes={} checksum={:016x}",
                met.queries,
                met.makespan_ns,
                met.total_lookups,
                met.served_lookups,
                met.fully_served,
                met.degraded,
                met.shed,
                met.lost,
                met.timeouts,
                met.hedges,
                met.failovers,
                met.agg_bytes,
                met.checksum.to_bits()
            )
            .expect("writing to a String cannot fail");
            latency_fields(&mut s, &met.latency);
            for node in &met.per_node {
                write!(
                    s,
                    " | served={} shed={} batches={} makespan_ns={}",
                    node.queries, node.shed, node.batches, node.makespan_ns
                )
                .expect("writing to a String cannot fail");
                latency_fields(&mut s, &node.latency);
                run_fields(&mut s, &node.run);
            }
        }
    }
    s
}

/// A 64-bit FNV-1a digest of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn check_run(r: &RunMetrics, what: &str) -> Result<(), String> {
    let split = r.local_lookups + r.remote_lookups + r.cxl_lookups;
    if r.lookups != split {
        return Err(format!(
            "{what}: lookups {} != local + remote + cxl {split}",
            r.lookups
        ));
    }
    Ok(())
}

/// The conservation laws every seed must satisfy, per operation.
pub fn invariants(outcome: &Outcome) -> Result<(), String> {
    match outcome {
        Outcome::Closed { run, .. } => check_run(run, "run"),
        Outcome::Serve { offered, met } => {
            if met.queries + met.shed != *offered {
                return Err(format!(
                    "served {} + shed {} != offered {offered}",
                    met.queries, met.shed
                ));
            }
            check_run(&met.run, "run")
        }
        Outcome::Cluster { offered, met, .. } => {
            let outcomes = met.fully_served + met.degraded + met.shed + met.lost;
            if outcomes != *offered || met.queries != *offered {
                return Err(format!(
                    "fully {} + degraded {} + shed {} + lost {} = {outcomes}, queries {}, offered {offered}",
                    met.fully_served, met.degraded, met.shed, met.lost, met.queries
                ));
            }
            for (s, node) in met.per_node.iter().enumerate() {
                // With completion recording on, every pushed query owns one
                // completion slot, shed or served.
                let pushed = node.completion.len() as u64;
                if node.queries + node.shed != pushed {
                    return Err(format!(
                        "node {s}: served {} + shed {} != offered {pushed}",
                        node.queries, node.shed
                    ));
                }
                check_run(&node.run, &format!("node {s}"))?;
            }
            Ok(())
        }
    }
}

/// Relative tolerance of the cross-scheme checksum comparison. The
/// schemes fold each bag in f32 at different sites and in different
/// orders, so their sums agree only up to f32 reassociation (observed
/// differences are ~1e-9 relative).
const CHECKSUM_REL_TOL: f64 = 1e-6;

/// Checks every operation's invariants and, across the closed-loop
/// operations that share a trace, that all five schemes computed the
/// same functional checksum. Failed operations are marked in place.
pub fn check_all(done: &mut [Done]) {
    for d in done.iter_mut() {
        if let Ok(outcome) = &d.result {
            if let Err(e) = invariants(outcome) {
                d.result = Err(format!("invariant: {e}"));
            }
        }
    }
    let mut first: BTreeMap<&'static str, (String, f64)> = BTreeMap::new();
    for d in done.iter_mut() {
        let (Some(group), Ok(Outcome::Closed { run, .. })) = (d.group, &d.result) else {
            continue;
        };
        let sum = run.checksum;
        let (ref_name, ref_sum) = first.entry(group).or_insert((d.name.clone(), sum)).clone();
        if (sum - ref_sum).abs() > CHECKSUM_REL_TOL * ref_sum.abs() {
            d.result = Err(format!(
                "functional checksum {sum:e} differs from {ref_name}'s {ref_sum:e}"
            ));
        }
    }
}

/// The recorded reference digests of `workload`, by operation name.
pub fn reference(workload: Workload) -> BTreeMap<String, String> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, op, dg) = (f.next()?, f.next()?, f.next()?);
            (w == workload.name()).then(|| (op.to_string(), dg.to_string()))
        })
        .collect()
}
