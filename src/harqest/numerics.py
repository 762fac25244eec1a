"""Small dense-matrix utilities shared by the rest of the package.

Everything here operates on plain numpy arrays and is pure: no state, no
side effects, safe to call concurrently.
"""

import math

import numpy as np

from .errors import ModelError

__all__ = [
    "spectral_radius",
    "gaussian_q",
    "stationary_distribution",
    "gth_stationary",
]

_SQRT2 = math.sqrt(2.0)


def spectral_radius(m):
    """Largest absolute eigenvalue of a square matrix (a float), or of each
    matrix in a stack of shape (..., n, n) (an array of shape (...))."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"spectral radius needs square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    radii = np.abs(np.linalg.eigvals(m)).max(axis=-1)
    return float(radii) if m.ndim == 2 else radii


def gaussian_q(x: float) -> float:
    """Upper tail probability of the standard normal, Q(x) = P[Z > x]."""
    return 0.5 * math.erfc(x / _SQRT2)


def stationary_distribution(p, tol: float = 1e-9) -> np.ndarray:
    """Stationary distribution of a column-stochastic transition matrix.

    Solves the balance equations directly (one balance row replaced by the
    normalization constraint), which is exact for the small chains used here.

    Parameters
    ----------
    p : array_like
        Column-stochastic matrix: entry (j, i) is the probability of moving
        to state j given the current state i.

    Returns
    -------
    np.ndarray
        Probability vector e with p @ e = e, entries >= 0, summing to 1.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ModelError(f"transition matrix must be square, got shape {p.shape}")
    n = p.shape[0]
    col_sums = p.sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > tol:
        raise ModelError(
            "matrix is not column-stochastic (column sums "
            f"{col_sums}); transpose a row-stochastic matrix before calling"
        )
    a = p - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        e = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"stationary distribution is not unique: {exc}") from exc
    if np.min(e) < -1e-10:
        raise ModelError(f"balance solution has negative mass: {e}")
    e = np.clip(e, 0.0, None)
    e = e / e.sum()
    residual = np.max(np.abs(p @ e - e))
    if residual > 1e-10:
        raise ModelError(f"fixed-point residual {residual:.3e} exceeds 1e-10; chain may be reducible")
    return e


def gth_stationary(p, start: int = 0) -> np.ndarray:
    """Stationary distribution of the closed class a chain reaches from `start`.

    Grassmann-Taksar-Heyman elimination (Grassmann, Taksar and Heyman, 1985)
    on that class of the column-stochastic matrix p. The elimination only
    adds, multiplies and divides nonnegative numbers, so even tail
    probabilities near 1e-300 keep full relative precision. States outside
    the class get probability 0. Raises ModelError when more than one closed
    class can be reached from `start`.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ModelError(f"transition matrix must be square, got shape {p.shape}")
    if np.min(p) < 0.0 or np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-9:
        raise ModelError("matrix is not column-stochastic")
    linked = p > 0.0  # linked[j, i]: one step leads from i to j
    ahead = _reachable(linked, start)
    cls, centre = ahead, start
    while True:
        strays = np.flatnonzero(cls & ~_reachable(linked.T, centre))
        if not len(strays):
            break
        centre = strays[0]  # cannot return to centre: its closed class lies further on
        cls = _reachable(linked, centre)
    if centre != start and (ahead & ~_reachable(linked.T, cls)).any():
        raise ModelError("more than one closed class is reachable; the stationary vector is not unique")
    members = np.flatnonzero(cls)
    a = p[np.ix_(members, members)].T.copy()  # row-stochastic on the class
    # Censor the states from the last one down: a[:k, k] becomes the flow
    # into k per unit leaving it, and paths through k fold into a[:k, :k].
    for k in range(len(members) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += a[:k, k, None] * a[k, :k]
    x = np.zeros(len(members))  # unnormalized, back-substituted from state 0
    x[0] = 1.0
    for k in range(1, len(members)):
        x[k] = x[:k] @ a[:k, k]
    e = np.zeros(p.shape[0])
    e[members] = x / x.sum()
    return e


def _reachable(linked, seeds) -> np.ndarray:
    """Mask of the states reachable from the seed state(s) along `linked`."""
    seen = np.zeros(linked.shape[0], dtype=bool)
    seen[seeds] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = linked[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return seen
