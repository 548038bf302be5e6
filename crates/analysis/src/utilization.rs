//! Utilisation-based feasibility tests for preemptive fixed-priority systems.
//!
//! These are the *sufficient* (but not necessary) tests classically used to
//! admit a periodic task set before running the exact response-time analysis
//! of [`crate::rta`]. The paper relies on the standard theory (its §2 cites
//! Lehoczky et al. and Buttazzo's book) and requires that adding a task
//! server must not change the feasibility conditions of the periodic tasks —
//! which is why the server is dimensioned as a periodic task (capacity,
//! period) that enters exactly these formulas.

use rt_model::{PeriodicTask, ServerPolicyKind, ServerSpec};

/// Total processor utilisation of a periodic task set.
pub fn total_utilization(tasks: &[PeriodicTask]) -> f64 {
    tasks.iter().map(|t| t.utilization()).sum()
}

/// Liu & Layland least upper bound for `n` tasks under rate-monotonic
/// priorities: `n (2^{1/n} − 1)`.
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Liu & Layland sufficient test: the set is schedulable under RM if its
/// utilisation does not exceed the bound for its cardinality.
pub fn liu_layland_test(tasks: &[PeriodicTask]) -> bool {
    total_utilization(tasks) <= liu_layland_bound(tasks.len()) + 1e-12
}

/// Hyperbolic bound (Bini & Buttazzo): the set is schedulable under RM if
/// `∏ (U_i + 1) ≤ 2`. Strictly dominates the Liu & Layland test.
pub fn hyperbolic_test(tasks: &[PeriodicTask]) -> bool {
    let product: f64 = tasks.iter().map(|t| t.utilization() + 1.0).product();
    product <= 2.0 + 1e-12
}

/// Utilisation of the periodic tasks plus the server dimensioned as a
/// periodic task (capacity / period). Background servicing adds nothing.
pub fn utilization_with_server(tasks: &[PeriodicTask], server: &ServerSpec) -> f64 {
    total_utilization(tasks) + server.utilization()
}

/// Least upper bound on the periodic utilisation in the presence of a
/// deferrable server of utilisation `u_s` (Lehoczky, Sha & Strosnider 1987;
/// Strosnider, Lehoczky & Sha 1995):
///
/// `U_lub = ln( (u_s + 2) / (2 u_s + 1) )`
///
/// The deferrable server's ability to defer its capacity lets it run
/// back-to-back across a period boundary, which lowers the bound compared to
/// a plain periodic task of the same size — this is the "modified feasibility
/// analysis" the paper refers to in §2.2.
pub fn deferrable_server_utilization_bound(server_utilization: f64) -> f64 {
    if server_utilization <= 0.0 {
        return 1.0_f64.ln().max(2f64.ln()); // ln 2, the RM bound for n → ∞
    }
    ((server_utilization + 2.0) / (2.0 * server_utilization + 1.0)).ln()
}

/// Sufficient schedulability test for a periodic set running below a
/// deferrable server: periodic utilisation must stay under the
/// [`deferrable_server_utilization_bound`].
pub fn deferrable_server_test(tasks: &[PeriodicTask], server: &ServerSpec) -> bool {
    debug_assert_eq!(server.policy, ServerPolicyKind::Deferrable);
    total_utilization(tasks) <= deferrable_server_utilization_bound(server.utilization()) + 1e-12
}

/// Sufficient schedulability test for a periodic set running below a polling
/// server: the polling server behaves as a periodic task, so the
/// Liu & Layland bound applies to the set augmented with the server.
pub fn polling_server_test(tasks: &[PeriodicTask], server: &ServerSpec) -> bool {
    debug_assert_eq!(server.policy, ServerPolicyKind::Polling);
    utilization_with_server(tasks, server) <= liu_layland_bound(tasks.len() + 1) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{Priority, Span, TaskId};

    fn task(id: u32, cost: u64, period: u64, prio: u8) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("tau{id}"),
            Span::from_units(cost),
            Span::from_units(period),
            Priority::new(prio),
        )
    }

    #[test]
    fn liu_layland_bound_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284271247461903).abs() < 1e-9);
        assert!(liu_layland_bound(100) > 2f64.ln());
        assert_eq!(liu_layland_bound(0), 1.0);
    }

    #[test]
    fn paper_example_task_set_utilization() {
        // Table 1: PS (3/6) + tau1 (2/6) + tau2 (1/6) = 1.0 utilisation.
        let tasks = vec![task(0, 2, 6, 20), task(1, 1, 6, 10)];
        let server =
            ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30));
        assert!((utilization_with_server(&tasks, &server) - 1.0).abs() < 1e-12);
        // Utilisation 1.0 exceeds the LL bound for 3 tasks, so the sufficient
        // test rejects it (it is nonetheless schedulable: harmonic periods).
        assert!(!polling_server_test(&tasks, &server));
    }

    #[test]
    fn liu_layland_and_hyperbolic_accept_light_sets() {
        let tasks = vec![task(0, 1, 10, 30), task(1, 2, 20, 20), task(2, 3, 50, 10)];
        assert!(total_utilization(&tasks) < 0.3);
        assert!(liu_layland_test(&tasks));
        assert!(hyperbolic_test(&tasks));
    }

    #[test]
    fn hyperbolic_dominates_liu_layland() {
        // A set accepted by the hyperbolic bound but rejected by LL:
        // U = 0.4 + 0.4 + 0.02 = 0.82 > LL(3) ≈ 0.7798, yet
        // (1.4)(1.4)(1.02) = 1.9992 ≤ 2.
        let tasks = vec![task(0, 4, 10, 30), task(1, 4, 10, 20), task(2, 1, 50, 10)];
        let u = total_utilization(&tasks);
        assert!(u > liu_layland_bound(3));
        assert!(hyperbolic_test(&tasks));
        assert!(!liu_layland_test(&tasks));
    }

    #[test]
    fn deferrable_server_bound_shrinks_with_server_size() {
        let small = deferrable_server_utilization_bound(0.1);
        let large = deferrable_server_utilization_bound(0.5);
        assert!(small > large);
        // With u_s = 0.5 the bound is ln(2.5 / 2) ≈ 0.223.
        assert!((large - (2.5f64 / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn deferrable_server_test_uses_the_bound() {
        let server =
            ServerSpec::deferrable(Span::from_units(1), Span::from_units(10), Priority::new(30));
        let light = vec![task(0, 1, 20, 20)];
        assert!(deferrable_server_test(&light, &server));
        let heavy = vec![task(0, 8, 10, 20)];
        assert!(!deferrable_server_test(&heavy, &server));
    }
}
