"""Finite-state Markov channel model.

A static channel is the one-state special case, so every consumer has a
single code path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .numerics import gth_stationary

__all__ = ["MarkovChannel", "static_channel"]


@dataclass(frozen=True, eq=False)
class MarkovChannel:
    """Gain set and column-stochastic transition matrix.

    pi[j, i] is the probability of moving to gain index j from gain index i;
    every column sums to one and every entry is strictly positive, so the
    chain is irreducible and aperiodic.
    """

    gains: tuple
    pi: np.ndarray

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        if not gains:
            raise ModelError("channel needs at least one gain state")
        if any(g <= 0 for g in gains):
            raise ModelError("channel power gains must be positive")
        pi = np.asarray(self.pi, dtype=float)
        b = len(gains)
        if pi.shape != (b, b):
            raise ModelError(f"transition matrix shape {pi.shape} does not match {b} gains")
        if np.max(np.abs(pi.sum(axis=0) - 1.0)) > 1e-12:
            raise ModelError(
                "transition matrix must be column-stochastic "
                f"(column sums {pi.sum(axis=0)})"
            )
        if np.min(pi) <= 0.0:
            raise ModelError("all transition probabilities must be strictly positive")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_cumulative", np.cumsum(pi, axis=0))
        object.__setattr__(self, "_stationary", gth_stationary(pi))

    @property
    def size(self) -> int:
        return len(self.gains)

    def stationary(self) -> np.ndarray:
        """Stationary distribution, found by GTH elimination when the channel is built."""
        return self._stationary.copy()


def static_channel(gain: float) -> MarkovChannel:
    """A constant-gain channel as a one-state Markov chain."""
    return MarkovChannel(gains=(gain,), pi=np.ones((1, 1)))

