"""Dynamic process model, steady-state sensor filter, and the AoI cost ladder.

The receiver's estimation error covariance after n slots without a fresh
delivery is the n-fold application of f(X) = A X A^T + Q_w to the sensor's
steady-state posterior covariance, so the per-slot estimation cost is fully
described by the trace ladder Tr(f^n(P_bar0)) indexed by the age n.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DepthError
from .numerics import spectral_radius

__all__ = [
    "LtiSystem",
    "SteadyStateKalman",
    "CostLadder",
    "solve_steady_state",
    "f_apply",
    "build_cost_ladder",
]


def _as_matrix(x, name):
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _check_symmetric_psd(m, name, tol=1e-8):
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if np.max(np.abs(m - m.T)) > tol:
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -tol:
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Discrete LTI process x' = A x + w observed through y = C x + v.

    Sigma0 is the initial-state covariance; it defaults to Q_w, which only
    matters as the starting point of the filter recursion.
    """

    A: np.ndarray
    C: np.ndarray
    Q_w: np.ndarray
    Q_v: np.ndarray
    Sigma0: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "Q_w", _as_matrix(self.Q_w, "Q_w"))
        object.__setattr__(self, "Q_v", _as_matrix(self.Q_v, "Q_v"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n}")
        m = self.C.shape[0]
        _check_symmetric_psd(self.Q_w, "Q_w")
        if self.Q_w.shape[0] != n:
            raise ValueError("Q_w dimension must match A")
        _check_symmetric_psd(self.Q_v, "Q_v")
        if self.Q_v.shape[0] != m:
            raise ValueError("Q_v dimension must match C")
        sigma0 = self.Q_w if self.Sigma0 is None else _as_matrix(self.Sigma0, "Sigma0")
        _check_symmetric_psd(sigma0, "Sigma0")
        object.__setattr__(self, "Sigma0", sigma0)
        if self.rho_squared <= 1.0:
            warnings.warn(
                f"rho^2(A) = {self.rho_squared:.4f} <= 1: the process is easy to track "
                "and the retransmission trade-off is trivial",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def rho_squared(self) -> float:
        """Squared spectral radius of A; the per-slot MSE growth factor."""
        return spectral_radius(self.A) ** 2


@dataclass(frozen=True, eq=False)
class SteadyStateKalman:
    """Converged posterior covariance and gain of the sensor-side filter."""

    P_bar0: np.ndarray
    K_bar: np.ndarray
    iterations: int
    residual: float


def solve_steady_state(sys: LtiSystem, tol: float = 1e-10, max_iters: int = 100_000) -> SteadyStateKalman:
    """Iterate the filter recursion from Sigma0 until the posterior covariance settles.

    Raises ConvergenceError when the recursion does not settle, which is how a
    non-detectable or non-stabilizable configuration shows up operationally.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    a, c, q_w, q_v = sys.A, sys.C, sys.Q_w, sys.Q_v
    p = sys.Sigma0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            p_pred = a @ p @ a.T + q_w
            k = p_pred @ c.T @ np.linalg.inv(c @ p_pred @ c.T + q_v)
            p_new = (np.eye(sys.n) - k @ c) @ p_pred
            p_new = (p_new + p_new.T) / 2.0
            residual = float(np.max(np.abs(p_new - p)))
            p = p_new
            if not np.isfinite(residual):
                break
            if residual < tol:
                return SteadyStateKalman(P_bar0=p, K_bar=k, iterations=it, residual=residual)
    raise ConvergenceError(
        f"filter covariance did not settle within {max_iters} iterations "
        f"(last step changed by {residual:.3e}); the local estimator appears unstable"
    )


def f_apply(sys: LtiSystem, x) -> np.ndarray:
    """One prediction step of the error covariance: A X A^T + Q_w, symmetrized."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n, sys.n):
        raise ValueError(f"covariance shape {x.shape} does not match state dimension {sys.n}")
    y = sys.A @ x @ sys.A.T + sys.Q_w
    return (y + y.T) / 2.0


# Traces above this value stop the ladder: a few more f-steps would overflow.
_TRACE_LIMIT = 1e280


@dataclass(frozen=True, eq=False)
class CostLadder:
    """Traces Tr(f^n(P_bar0)) for n = 1..depth, plus what is needed to grow it.

    `tail` holds f^depth(P_bar0) so an extension never recomputes the prefix.
    """

    sys: LtiSystem
    traces: tuple
    tail: np.ndarray = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.traces)

    def trace(self, n: int) -> float:
        """Tr(f^n(P_bar0)) for 1 <= n <= depth."""
        if not 1 <= n <= self.depth:
            raise IndexError(f"ladder depth is {self.depth}, requested n={n}")
        return self.traces[n - 1]

    def extended(self, new_depth: int) -> "CostLadder":
        """A ladder of at least `new_depth` entries; self if already deep enough."""
        if new_depth <= self.depth:
            return self
        traces = list(self.traces)
        x = self.tail.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(self.depth + 1, new_depth + 1):
                x = f_apply(self.sys, x)
                tr = float(np.trace(x))
                if not np.isfinite(tr) or tr > _TRACE_LIMIT:
                    raise DepthError(
                        f"cost trace overflows at depth {n}; largest safe depth is {n - 1}",
                        largest_safe_depth=n - 1,
                    )
                traces.append(tr)
        return CostLadder(sys=self.sys, traces=tuple(traces), tail=x)


def build_cost_ladder(sys: LtiSystem, kal: SteadyStateKalman, max_depth: int) -> CostLadder:
    """Precompute Tr(f^n(P_bar0)) for n = 1..max_depth."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    seed = CostLadder(sys=sys, traces=(), tail=kal.P_bar0.copy())
    return seed.extended(max_depth)
