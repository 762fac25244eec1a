import math

import numpy as np
import pytest
from reference import balance_stationary

from harqest import MarkovChannel, ModelError, gaussian_q, gth_stationary, spectral_radius


def eig_2x2_oracle(m):
    """Roots of the characteristic polynomial of a real 2x2 matrix."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        roots = [(tr + math.sqrt(disc)) / 2.0, (tr - math.sqrt(disc)) / 2.0]
        return max(abs(r) for r in roots)
    return math.sqrt(det)  # complex pair: |root| = sqrt(det)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_reference_state_matrix(self):
        # [[2.4, 0.2], [0.2, 0.8]]: the quadratic formula gives
        # (3.2 + sqrt(3.2^2 - 4*1.88)) / 2 = 2.424621125123532.
        m = np.array([[2.4, 0.2], [0.2, 0.8]])
        expected = eig_2x2_oracle(m)
        assert expected == pytest.approx(2.424621125123532, rel=1e-12)
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_2x2_against_quadratic_formula(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2))
        assert spectral_radius(m) == pytest.approx(eig_2x2_oracle(m), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_homogeneity(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(2, 5)
        m = rng.normal(size=(n, n))
        c = float(rng.uniform(-3.0, 3.0))
        assert spectral_radius(c * m) == pytest.approx(abs(c) * spectral_radius(m), rel=1e-9, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_equals_single_calls(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, 4, n, n))
        radii = spectral_radius(stack)
        assert radii.shape == (3, 4)
        for cell in np.ndindex(3, 4):
            single = spectral_radius(stack[cell])
            assert type(single) is float
            assert radii[cell].tobytes() == np.float64(single).tobytes()

    @pytest.mark.parametrize(
        "stack", [np.ones((4, 2, 3)), np.ones(3), np.array([[[1.0, np.nan], [0.0, 1.0]]] * 2)]
    )
    def test_stack_rejects_bad_input(self, stack):
        with pytest.raises(ValueError):
            spectral_radius(stack)


class TestGaussianQ:
    def test_half_at_zero(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_tail(self):
        assert gaussian_q(8.0) < 1e-15

    def test_quadrature_oracle_at_one(self):
        # Simpson integration of the standard normal density over [1, 9]
        # (tail beyond 9 is < 1.2e-19): 0.15865525393145705.
        xs = np.linspace(1.0, 9.0, 200_001)
        dens = np.exp(-(xs**2) / 2.0) / math.sqrt(2.0 * math.pi)
        h = xs[1] - xs[0]
        simpson = h / 3.0 * (dens[0] + dens[-1] + 4.0 * dens[1:-1:2].sum() + 2.0 * dens[2:-2:2].sum())
        assert simpson == pytest.approx(0.15865525393145705, abs=1e-12)
        assert gaussian_q(1.0) == pytest.approx(simpson, abs=1e-12)

    @pytest.mark.parametrize("x", [-6.5, -2.0, -0.3, 0.0, 0.7, 1.0, 3.25, 6.5])
    def test_symmetry(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-12)


class TestStationaryDistribution:
    """A channel's stationary vector, which `MarkovChannel` computes once by
    GTH elimination."""

    @staticmethod
    def stationary(pi):
        return MarkovChannel(gains=(2.0, 1.0), pi=np.array(pi)).stationary()

    def test_symmetric_two_state(self):
        np.testing.assert_allclose(self.stationary([[0.5, 0.5], [0.5, 0.5]]), [0.5, 0.5], atol=1e-12)

    def test_doubly_stochastic(self):
        np.testing.assert_allclose(self.stationary([[0.8, 0.2], [0.2, 0.8]]), [0.5, 0.5], atol=1e-12)

    def test_hand_solved_balance(self):
        # 0.2 e1 = 0.5 e2 with e1 + e2 = 1 gives (5/7, 2/7); the first entry,
        # which sets the initial-channel draw, is 5/7 correctly rounded
        out = self.stationary([[0.8, 0.5], [0.2, 0.5]])
        np.testing.assert_allclose(out, [5.0 / 7.0, 2.0 / 7.0], atol=1e-12)
        assert out[0] == 5.0 / 7.0

    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_point_residual(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        p = rng.uniform(0.05, 1.0, size=(n, n))
        p /= p.sum(axis=0, keepdims=True)
        e = MarkovChannel(gains=tuple(range(1, n + 1)), pi=p).stationary()
        assert np.max(np.abs(p @ e - e)) <= 1e-10
        assert e.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(e >= 0)
        np.testing.assert_allclose(e, balance_stationary(p), rtol=1e-12)

    def test_rejects_row_stochastic(self):
        p = np.array([[0.9, 0.1], [0.4, 0.6]])  # rows sum to 1, columns do not
        with pytest.raises(ModelError):
            gth_stationary(p)

    def test_rejects_non_unique(self):
        # the identity has a stationary vector per state; the channel refuses it
        with pytest.raises(ModelError):
            MarkovChannel(gains=(2.0, 1.0), pi=np.eye(2))


class TestNullSpaceVector:
    """`gth_stationary` returns the nonnegative null-space vector of P - I,
    normalized, on the closed class reached from the start state."""

    def test_simple_rank_deficient(self):
        # P - I = [[0, 0.5], [0, -0.5]] has rank one; state 1 is transient
        e = gth_stationary(np.array([[1.0, 0.5], [0.0, 0.5]]), start=1)
        np.testing.assert_array_equal(e, [1.0, 0.0])

    def test_matches_stationary_distribution(self):
        p = np.array([[0.8, 0.5], [0.2, 0.5]])
        np.testing.assert_allclose(gth_stationary(p), balance_stationary(p), atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.1, 1.0, size=(4, 4))
        p /= p.sum(axis=0, keepdims=True)
        e = gth_stationary(p)
        assert np.max(np.abs(p @ e - e)) <= 1e-12
        assert np.all(e >= 0)
        assert e.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_full_rank(self):
        # P - I of full rank: P is not a transition matrix
        with pytest.raises(ModelError):
            gth_stationary(np.array([[3.0, 0.0], [0.0, 2.0]]))

    def test_rejects_deficiency_two(self):
        # from state 1 the chain is absorbed in state 0 or in state 2
        p = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 1.0]])
        with pytest.raises(ModelError):
            gth_stationary(p, start=1)
        np.testing.assert_array_equal(gth_stationary(p, start=2), [0.0, 0.0, 1.0])

    def test_start_in_transient_loop(self):
        # states 0 and 1 swap until the chain leaves for the closed pair {2, 3}
        p = np.array([
            [0.0, 0.9, 0.0, 0.0],
            [0.9, 0.0, 0.0, 0.0],
            [0.1, 0.1, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.5],
        ])
        np.testing.assert_allclose(gth_stationary(p), [0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_tail_keeps_relative_precision(self):
        # birth-death chain: detailed balance gives e[i + 1] / e[i] = up / down
        # exactly, with the tail near 1e-160
        n, up, down = 60, 1e-3, 0.5
        p = np.zeros((n, n))
        for i in range(n):
            if i + 1 < n:
                p[i + 1, i] = up
            if i > 0:
                p[i - 1, i] = down
            p[i, i] = 1.0 - p[:, i].sum()
        e = gth_stationary(p)
        assert e[-1] < 1e-150
        np.testing.assert_allclose(e[1:] / e[:-1], up / down, rtol=1e-13)
