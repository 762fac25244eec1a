"""Finite-blocklength packet-error probabilities for CC and IR retransmission combining.

The block error probability of an attempt is the normal-approximation
Q-expression over the accumulated channel gains of the combining round;
conditional (per-slot) error probabilities are ratios of two block
evaluations. Evaluations are cached per sorted gain multiset, so the solvers
can hammer the same few hundred values cheaply.
"""

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import ModelError
from .numerics import gaussian_q

__all__ = [
    "HarqModel",
    "block_error_prob",
    "conditional_error_prob",
    "worst_retransmission_error_markov",
    "WorstMarkovError",
]

log = logging.getLogger(__name__)

_LOG2E = math.log2(math.e)
_SCHEMES = ("cc", "ir")

# Below this, a combining round is reliable beyond any representable ratio.
_DENOMINATOR_FLOOR = 1e-300


@dataclass(frozen=True)
class HarqModel:
    """Link model: combining scheme, linear SNR at unit gain, blocklength, rate.

    scheme is "cc" (identical copies, maximal-ratio combined) or "ir" (each
    copy adds parity; all copies decode as one long codeword).
    """

    scheme: str
    snr: float
    blocklength: int
    rate: float

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ModelError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not self.snr > 0:
            raise ModelError("snr must be a positive linear power ratio")
        if self.blocklength < 1:
            raise ModelError("blocklength must be at least one symbol")
        if not self.rate > 0:
            raise ModelError("rate must be positive")
        # Every `_block_error` lookup hashes the model: hash the fields once.
        object.__setattr__(self, "_hash", hash((self.scheme, self.snr, self.blocklength, self.rate)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__, so a copy made in another process hashes there.
        return type(self), (self.scheme, self.snr, self.blocklength, self.rate)

    @classmethod
    def from_db(cls, scheme: str, snr_db: float, blocklength: int, rate: float) -> "HarqModel":
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        if not 0.0 < snr < math.inf:
            raise ModelError(
                f"snr_db = {snr_db!r} gives no finite positive linear SNR 10 ** (snr_db / 10)"
            )
        return cls(scheme=scheme, snr=snr, blocklength=blocklength, rate=rate)


@lru_cache(maxsize=None)
def _block_error(model: HarqModel, gains: tuple) -> float:
    """P[round still undecodable | len(gains) attempts with these gains]."""
    snr, length, rate = model.snr, model.blocklength, model.rate
    if model.scheme == "cc":
        s = 1.0 + snr * sum(gains)
        num = math.sqrt(length) * (math.log2(s) + math.log2(length) / length - rate)
        dispersion = 1.0 - 1.0 / (s * s)
    else:
        correction = math.log2(len(gains) * length) / length
        num = math.sqrt(length) * (
            sum(math.log2(1.0 + snr * g) for g in gains) + correction - rate
        )
        dispersion = sum(1.0 - 1.0 / (1.0 + snr * g) ** 2 for g in gains)
    den = max(math.sqrt(max(dispersion, 0.0)) * _LOG2E, _DENOMINATOR_FLOOR)
    return min(max(gaussian_q(num / den), 0.0), 1.0)


def block_error_prob(model: HarqModel, gains) -> float:
    """Error probability of one combining round over the given gain multiset."""
    gains = tuple(sorted(float(g) for g in gains))
    if not gains:
        raise ValueError("gain multiset must be nonempty")
    if any(g <= 0 for g in gains):
        raise ValueError("gains must be positive")
    return _block_error(model, gains)


def conditional_error_prob(model: HarqModel, gains, counts, xi: int) -> float:
    """Error probability of an attempt under gains[xi], given the pending round.

    counts[i] is how many of the round's buffered attempts saw gains[i]; all
    zeros is a new transmission (single-attempt block error). Otherwise the
    attempt fails with the ratio of the block error over the buffered attempts
    plus this one to the block error over the buffered attempts alone.
    """
    if len(counts) != len(gains):
        raise ValueError("counts and gains must have the same length")
    current = float(gains[xi])  # first, so that empty gains still raise IndexError
    if min(counts) < 0:
        raise ValueError("counts must be nonnegative")
    # The buffered gains as the sorted multiset `block_error_prob` would key
    # them by, built from the sorted (gain, count) pairs.
    held = sorted((float(g), c) for g, c in zip(gains, counts) if c)
    if not held:
        return block_error_prob(model, (current,))
    if held[0][0] <= 0:  # held is sorted: its first gain is the least
        raise ValueError("gains must be positive")
    past = ()
    for g, c in held:
        past += (g,) * c
    denominator = _block_error(model, past)
    if denominator < _DENOMINATOR_FLOOR:
        log.debug(
            "retransmission after an all-but-decoded history %s; conditional error pinned to 0",
            tuple(counts),
        )
        return 0.0
    if current <= 0:
        raise ValueError("gains must be positive")
    at = bisect_right(past, current)
    numerator = _block_error(model, past[:at] + (current,) + past[at:])
    return min(numerator / denominator, 1.0)


def _histories(b: int, budget: int) -> list:
    """Every b-tuple of nonnegative counts summing to at most budget, in
    lexicographic order."""
    if b == 0:
        return [()]
    return [(c,) + rest for c in range(budget + 1) for rest in _histories(b - 1, budget - c)]


@dataclass(frozen=True)
class WorstMarkovError:
    """Largest retransmission error probability over histories with ||omega||_1 <= budget.

    values holds every scanned error in scan order; on one gain that is the
    error of attempts 2..budget + 1.
    """

    value: float
    argmax_counts: tuple
    at_budget_boundary: bool
    values: tuple


def worst_retransmission_error_markov(
    model: HarqModel, gains, channel_index: int, omega_budget: int
) -> WorstMarkovError:
    """Exhaustively maximize the conditional error for gain gains[channel_index].

    Histories are scanned in lexicographic count order and the first maximum
    wins. A maximum attained at ||omega||_1 == omega_budget is flagged: the
    true supremum over unbounded histories may then be larger than the scan
    found. A static link is the one-gain case, with budget r_max - 1.
    """
    if omega_budget < 1:
        raise ValueError("omega_budget must be at least 1")
    gains = tuple(float(g) for g in gains)
    if not 0 <= channel_index < len(gains):
        raise ValueError(f"channel_index {channel_index} out of range for {len(gains)} gains")
    histories = _histories(len(gains), omega_budget)[1:]  # all but the empty round
    values = tuple(conditional_error_prob(model, gains, c, channel_index) for c in histories)
    best = max(range(len(values)), key=values.__getitem__)
    return WorstMarkovError(
        value=values[best],
        argmax_counts=histories[best],
        at_budget_boundary=sum(histories[best]) == omega_budget,
        values=values,
    )
