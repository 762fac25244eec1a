import math

import numpy as np
import pytest
from reference import reference_extended, reference_steady_state

from harqest import (
    ConvergenceError,
    CostLadder,
    DepthError,
    LtiSystem,
    SteadyStateKalman,
    build_cost_ladder,
    f_apply,
    solve_steady_state,
)

# Published steady-state values for the reference 2x2 system.
PBAR0_REF = np.array([[2.5548, -1.6233], [-1.6233, 1.6179]])
F_PBAR0_REF = np.array([[14.2218, -1.6966], [-1.6966, 1.6179]])


class TestSolveSteadyState:
    def test_reference_values(self, ref_kalman):
        np.testing.assert_allclose(ref_kalman.P_bar0, PBAR0_REF, atol=1e-3)

    def test_fixed_point_persists(self, ref_system, ref_kalman):
        p = ref_kalman.P_bar0
        p_pred = ref_system.A @ p @ ref_system.A.T + ref_system.Q_w
        k = p_pred @ ref_system.C.T @ np.linalg.inv(
            ref_system.C @ p_pred @ ref_system.C.T + ref_system.Q_v
        )
        p_next = (np.eye(2) - k @ ref_system.C) @ p_pred
        assert np.max(np.abs(p_next - p)) < 1e-9

    def test_perfect_measurement_kills_posterior(self):
        with pytest.warns(UserWarning):
            sys = LtiSystem(A=[[0.5]], C=[[1.0]], Q_w=[[1.0]], Q_v=[[1e-12]])
        kal = solve_steady_state(sys)
        assert kal.P_bar0[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_scalar_closed_form(self):
        # Posterior fixed point of a=2, c=1, q_w=q_v=1 solves
        # 4 p^2 - 2 p - 1 = 0, so p = (1 + sqrt(5)) / 4.
        sys = LtiSystem(A=[[2.0]], C=[[1.0]], Q_w=[[1.0]], Q_v=[[1.0]])
        expected = (1.0 + math.sqrt(5.0)) / 4.0
        kal = solve_steady_state(sys)
        assert kal.P_bar0[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_undetectable_unstable_mode_raises(self):
        sys = LtiSystem(
            A=[[2.0, 0.0], [0.0, 2.0]],
            C=[[1.0, 0.0]],
            Q_w=np.eye(2),
            Q_v=[[1.0]],
        )
        with pytest.raises(ConvergenceError) as excinfo:
            solve_steady_state(sys, max_iters=2_000)
        with pytest.raises(ConvergenceError) as expected:
            reference_steady_state(sys, max_iters=2_000)
        assert str(excinfo.value) == str(expected.value)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_rejects_budget_below_one(self, ref_system, max_iters):
        # max_iters = 0 used to end in an UnboundLocalError
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            solve_steady_state(ref_system, max_iters=max_iters)

    def test_symmetry(self, ref_kalman):
        assert np.max(np.abs(ref_kalman.P_bar0 - ref_kalman.P_bar0.T)) < 1e-10


class TestFApply:
    def test_identity_system_is_noop(self):
        with pytest.warns(UserWarning):
            sys = LtiSystem(A=np.eye(2), C=[[1.0, 0.0]], Q_w=np.zeros((2, 2)), Q_v=[[1.0]], Sigma0=np.eye(2))
        x = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(f_apply(sys, x), x, atol=1e-15)

    def test_reference_one_step(self, ref_system, ref_kalman):
        np.testing.assert_allclose(f_apply(ref_system, ref_kalman.P_bar0), F_PBAR0_REF, atol=1e-3)

    def test_two_steps_match_explicit_products(self, ref_system, ref_kalman):
        a, q = ref_system.A, ref_system.Q_w
        p = ref_kalman.P_bar0
        expected = a @ (a @ p @ a.T + q) @ a.T + q
        out = f_apply(ref_system, f_apply(ref_system, p))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_dimension_mismatch(self, ref_system):
        with pytest.raises(ValueError):
            f_apply(ref_system, np.eye(3))


class TestCostLadder:
    def test_first_trace_is_performance_baseline(self, ref_ladder):
        assert ref_ladder.trace(1) == pytest.approx(15.8397, abs=0.05)

    def test_matches_naive_iteration(self, ref_system, ref_kalman, ref_ladder):
        x = ref_kalman.P_bar0.copy()
        for _ in range(3):
            x = ref_system.A @ x @ ref_system.A.T + ref_system.Q_w
        assert ref_ladder.trace(3) == pytest.approx(float(np.trace(x)), rel=1e-12)

    def test_flat_for_static_process(self):
        with pytest.warns(UserWarning):
            sys = LtiSystem(A=np.eye(2), C=[[1.0, 0.0]], Q_w=np.zeros((2, 2)), Q_v=[[1.0]], Sigma0=np.eye(2))
        p0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        kal = SteadyStateKalman(P_bar0=p0, K_bar=np.zeros((2, 1)), iterations=0, residual=0.0)
        ladder = build_cost_ladder(sys, kal, 6)
        for n in range(1, 7):
            assert ladder.trace(n) == pytest.approx(float(np.trace(p0)), rel=1e-12)

    def test_monotone_increasing(self, ref_ladder):
        traces = [ref_ladder.trace(n) for n in range(1, ref_ladder.depth + 1)]
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_growth_rate_bounded_by_spectral_radius(self, ref_system, ref_ladder):
        rho_sq = ref_system.rho_squared
        ratios = [ref_ladder.trace(n) / rho_sq**n for n in range(1, ref_ladder.depth + 1)]
        assert all(np.isfinite(ratios))
        # the normalized sequence converges rather than growing
        assert ratios[-1] <= ratios[-2] * 1.001

    def test_extension_is_consistent(self, ref_system, ref_kalman, ref_ladder):
        longer = ref_ladder.extended(30)
        assert longer.depth == 30
        for n in range(1, ref_ladder.depth + 1):
            assert longer.trace(n) == ref_ladder.trace(n)
        fresh = build_cost_ladder(ref_system, ref_kalman, 30)
        assert fresh.trace(30) == pytest.approx(longer.trace(30), rel=1e-12)

    def test_overflow_reports_largest_safe_depth(self):
        sys = LtiSystem(A=[[1e80]], C=[[1.0]], Q_w=[[1.0]], Q_v=[[1.0]])
        kal = SteadyStateKalman(P_bar0=np.array([[1.0]]), K_bar=np.zeros((1, 1)), iterations=0, residual=0.0)
        with pytest.raises(DepthError) as excinfo:
            build_cost_ladder(sys, kal, 5)
        assert excinfo.value.largest_safe_depth == 1

    @pytest.mark.parametrize("scale", [1e10, 1e40, 1e80])
    @pytest.mark.parametrize("start", [0, 1])
    def test_overflows_at_the_depth_of_the_per_step_loop(self, scale, start):
        sys = LtiSystem(A=[[scale, 1.0], [0.0, 1.5]], C=[[1.0, 1.0]], Q_w=np.eye(2), Q_v=[[1.0]])
        seed = CostLadder(sys=sys, traces=(), tail=np.eye(2)).extended(start)
        with pytest.raises(DepthError) as excinfo:
            seed.extended(60)
        with pytest.raises(DepthError) as expected:
            reference_extended(seed, 60)
        assert excinfo.value.largest_safe_depth == expected.value.largest_safe_depth
        assert str(excinfo.value) == str(expected.value)

    def test_tail_of_another_dimension_is_refused(self, ref_system):
        ladder = CostLadder(sys=ref_system, traces=(), tail=np.eye(3))
        with pytest.raises(ValueError, match=r"covariance shape \(3, 3\) does not match state dimension 2"):
            ladder.extended(1)

    def test_out_of_range_lookup(self, ref_ladder):
        with pytest.raises(IndexError):
            ref_ladder.trace(0)
        with pytest.raises(IndexError):
            ref_ladder.trace(ref_ladder.depth + 1)


class TestLtiSystemValidation:
    def test_stable_process_warns(self):
        with pytest.warns(UserWarning, match="trivial"):
            LtiSystem(A=[[0.5]], C=[[1.0]], Q_w=[[1.0]], Q_v=[[1.0]])

    def test_sigma0_defaults_to_process_noise(self, ref_system):
        np.testing.assert_array_equal(ref_system.Sigma0, ref_system.Q_w)

    @pytest.mark.parametrize("sigma0, message", [
        ([[1.0, 0.0], [0.0, -1.0]], "Sigma0 must be positive semidefinite"),
        ([[1.0, 0.5], [0.0, 1.0]], "Sigma0 must be symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], "Sigma0 has non-finite entries"),
        (np.eye(3), r"Sigma0 must be 2 x 2, got \(3, 3\)"),
    ], ids=["not-psd", "asymmetric", "nan", "wrong-shape"])
    def test_rejects_a_bad_explicit_sigma0(self, sigma0, message):
        with pytest.raises(ValueError, match=message):
            LtiSystem(A=np.eye(2) * 2, C=[[1.0, 0.0]], Q_w=np.eye(2), Q_v=[[1.0]], Sigma0=sigma0)

    def test_rejects_asymmetric_noise(self):
        with pytest.raises(ValueError):
            LtiSystem(A=np.eye(2) * 2, C=[[1.0, 0.0]], Q_w=[[1.0, 0.5], [0.0, 1.0]], Q_v=[[1.0]])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            LtiSystem(A=np.eye(2) * 2, C=[[1.0]], Q_w=np.eye(2), Q_v=[[1.0]])
