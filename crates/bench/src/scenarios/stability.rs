//! Shared saturation-knee / stable-throughput detection for the
//! open-loop sweep summaries.
//!
//! The `latency_qps`, `cluster_qps`, `cluster_faults` and
//! `latency_adaptive` summaries all reduce an ascending-qps curve to
//! the same two headline numbers, and each used to carry its own copy
//! of the arithmetic — with the same blind spots: a single-point sweep
//! (`--param qps=X`) "detected" a knee at its only point, and an
//! all-saturated sweep reported `max_stable_qps: 0.0` as if the system
//! had a measured zero-throughput operating point. This module is the
//! one shared implementation, with honest `None`s for the degenerate
//! sweeps (serialized as JSON `null` by the summaries):
//!
//! * [`knee_qps`] — the first offered rate where the curve leaves the
//!   stable regime. `None` when the sweep cannot establish one: fewer
//!   than two points (no curve), a first point already saturated (no
//!   baseline p99 to compare against), or no point ever saturating.
//! * [`max_stable_qps`] — the best rate among stable points. `None`
//!   when no point is stable at all.

use crate::scenario::ResultRow;
use serde_json::Value;

/// One point of an ascending-rate sweep, as the stability reducers see
/// it: the rate the point contributes if it is stable (achieved or
/// offered QPS — the caller's convention), its tail latency, and
/// whether the caller's stability predicate already rejected it.
#[derive(Debug, Clone, Copy)]
pub struct StabilityPoint {
    /// The rate this point contributes to [`max_stable_qps`].
    pub stable_qps: f64,
    /// The offered rate [`knee_qps`] reports if the knee lands here.
    pub offered_qps: f64,
    /// Tail latency, ns (the knee's 2× baseline comparison).
    pub p99_ns: f64,
    /// Whether the point failed the caller's stability predicate
    /// (saturation for the latency families; saturation + SLA +
    /// availability for the fault frontier).
    pub saturated: bool,
}

/// The first offered rate whose point is saturated or whose p99
/// exceeds twice the first point's p99 — the saturation knee of an
/// ascending-qps curve.
///
/// Honest `None`s instead of misleading knees: a sweep with fewer than
/// two points has no curve to knee; a sweep whose *first* point is
/// already saturated has no stable baseline (every point would
/// trivially "knee" at index 0); a sweep that never saturates has no
/// knee to report.
pub fn knee_qps(points: &[StabilityPoint]) -> Option<f64> {
    if points.len() < 2 || points[0].saturated {
        return None;
    }
    let base_p99 = points[0].p99_ns;
    points
        .iter()
        .position(|p| p.saturated || p.p99_ns > 2.0 * base_p99)
        .map(|i| points[i].offered_qps)
}

/// The best `stable_qps` among unsaturated points, or `None` when the
/// sweep has no stable point at all (everything saturated / over SLA)
/// — distinguishing "no stable operating point was found" from an
/// actual measured rate of zero.
pub fn max_stable_qps(points: &[StabilityPoint]) -> Option<f64> {
    points
        .iter()
        .filter(|p| !p.saturated)
        .map(|p| p.stable_qps)
        .fold(None, |acc: Option<f64>, q| {
            Some(acc.map_or(q, |a| a.max(q)))
        })
}

/// Both reducers as the JSON values the summaries embed (`null` for
/// the honest-`None` cases).
pub fn stability_json(points: &[StabilityPoint]) -> (Value, Value) {
    (
        knee_qps(points).map_or(Value::Null, Value::from),
        max_stable_qps(points).map_or(Value::Null, Value::from),
    )
}

/// Builds the stability view of one ascending-qps serving curve from
/// the standard open-loop row shape (`offered_qps` / `achieved_qps` /
/// `p99_ns` / `saturated` data fields) — the shared convention of the
/// `latency`, `cluster` and `adaptive` scenario families. `stable_qps`
/// is the *achieved* rate (what the system actually served while
/// stable), `offered_qps` the knee's reporting axis.
pub fn serving_points(group: &[&ResultRow]) -> Vec<StabilityPoint> {
    group
        .iter()
        .map(|r| {
            let f = |key: &str| {
                r.data
                    .get(key)
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("row carries {key}"))
            };
            StabilityPoint {
                stable_qps: f("achieved_qps"),
                offered_qps: f("offered_qps"),
                p99_ns: f("p99_ns"),
                saturated: r.is_saturated(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, achieved: f64, p99: f64, saturated: bool) -> StabilityPoint {
        StabilityPoint {
            stable_qps: achieved,
            offered_qps: offered,
            p99_ns: p99,
            saturated,
        }
    }

    #[test]
    fn normal_curve_knees_at_the_first_saturated_point() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.98e6, 6_000.0, false),
            pt(4e6, 3.10e6, 40_000.0, true),
            pt(8e6, 3.20e6, 900_000.0, true),
        ];
        assert_eq!(knee_qps(&curve), Some(4e6));
        assert_eq!(max_stable_qps(&curve), Some(1.98e6));
    }

    #[test]
    fn p99_blowup_knees_before_saturation() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.97e6, 11_000.0, false), // > 2 x 5_000: queueing bite
            pt(4e6, 3.10e6, 40_000.0, true),
        ];
        assert_eq!(knee_qps(&curve), Some(2e6));
    }

    #[test]
    fn single_point_sweeps_have_no_knee() {
        // A user --param grid with one qps value: no curve, no knee —
        // whether the point is stable or not.
        assert_eq!(knee_qps(&[pt(4e6, 3.1e6, 40_000.0, true)]), None);
        assert_eq!(knee_qps(&[pt(1e6, 0.99e6, 5_000.0, false)]), None);
        // max_stable is still meaningful for a single stable point.
        assert_eq!(
            max_stable_qps(&[pt(1e6, 0.99e6, 5_000.0, false)]),
            Some(0.99e6)
        );
    }

    #[test]
    fn all_saturated_sweeps_are_null_not_zero() {
        let curve = [
            pt(16e6, 3.1e6, 500_000.0, true),
            pt(32e6, 3.2e6, 900_000.0, true),
        ];
        // First point saturated: no baseline, no knee.
        assert_eq!(knee_qps(&curve), None);
        // No stable point: null, not a fake 0.0 "operating point".
        assert_eq!(max_stable_qps(&curve), None);
        let (knee, stable) = stability_json(&curve);
        assert_eq!(knee, Value::Null);
        assert_eq!(stable, Value::Null);
    }

    #[test]
    fn never_saturating_sweeps_have_no_knee_but_a_frontier() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.98e6, 6_000.0, false),
        ];
        assert_eq!(knee_qps(&curve), None);
        assert_eq!(max_stable_qps(&curve), Some(1.98e6));
    }

    #[test]
    fn empty_sweep_is_all_null() {
        assert_eq!(knee_qps(&[]), None);
        assert_eq!(max_stable_qps(&[]), None);
    }
}
