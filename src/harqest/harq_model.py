"""Finite-blocklength packet-error probabilities for CC and IR retransmission combining.

The block error probability of an attempt is the normal-approximation
Q-expression over the accumulated channel gains of the combining round;
conditional (per-slot) error probabilities are ratios of two block
evaluations. Evaluations are cached per sorted gain multiset, so the solvers
can hammer the same few hundred values cheaply.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import ModelError
from .numerics import gaussian_q

__all__ = [
    "HarqModel",
    "HistoryCounter",
    "block_error_prob",
    "conditional_error_prob",
    "worst_retransmission_error_static",
    "worst_retransmission_error_markov",
    "WorstStaticError",
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

    @classmethod
    def from_db(cls, scheme: str, snr_db: float, blocklength: int, rate: float) -> "HarqModel":
        return cls(scheme=scheme, snr=10.0 ** (snr_db / 10.0), blocklength=blocklength, rate=rate)


@dataclass(frozen=True)
class HistoryCounter:
    """Per-gain counts of the failed attempts in the current combining round.

    counts[i] is how many of the buffered attempts saw gain gains[i]. The
    all-zero counter stands for "no pending round" (a new transmission).
    """

    counts: tuple
    gains: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        gains = tuple(float(g) for g in self.gains)
        if len(counts) != len(gains):
            raise ValueError("counts and gains must have the same length")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if any(g <= 0 for g in gains):
            raise ValueError("gains must be positive")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "gains", gains)

    @property
    def total(self) -> int:
        """Number of buffered attempts, i.e. the consecutive-attempt counter r."""
        return sum(self.counts)

    @property
    def is_empty(self) -> bool:
        return self.total == 0

    def gain_multiset(self) -> tuple:
        out = []
        for count, gain in zip(self.counts, self.gains):
            out.extend([gain] * count)
        return tuple(out)


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


def conditional_error_prob(model: HarqModel, history: HistoryCounter, current_gain: float) -> float:
    """Per-slot error probability given the buffered attempts of the round.

    An empty history is a new transmission (single-attempt block error).
    Otherwise the slot fails with the ratio of the block error over
    history + current attempt to the block error over the history alone.
    """
    if history.is_empty:
        return block_error_prob(model, (current_gain,))
    past = history.gain_multiset()
    denominator = block_error_prob(model, past)
    if denominator < _DENOMINATOR_FLOOR:
        log.debug(
            "retransmission after an all-but-decoded history %s; conditional error pinned to 0",
            history.counts,
        )
        return 0.0
    numerator = block_error_prob(model, past + (float(current_gain),))
    return min(numerator / denominator, 1.0)


@dataclass(frozen=True)
class WorstStaticError:
    """Largest retransmission error probability over attempts 2..r_max."""

    value: float
    argmax_attempts: int
    monotone_decreasing: bool


def worst_retransmission_error_static(model: HarqModel, gain: float, r_max: int) -> WorstStaticError:
    """Scan g(r) for r = 2..r_max and report the maximum.

    Also reports whether g was monotone decreasing over the scanned range; a
    non-monotone sequence is a hint the scan bound may matter.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    g = float(gain)
    values = []
    for r in range(2, r_max + 1):
        history = HistoryCounter(counts=(r - 1,), gains=(g,))
        values.append(conditional_error_prob(model, history, g))
    best = max(range(len(values)), key=values.__getitem__)
    monotone = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    return WorstStaticError(
        value=values[best], argmax_attempts=best + 2, monotone_decreasing=monotone
    )


@dataclass(frozen=True)
class WorstMarkovError:
    """Largest retransmission error probability over histories with ||omega||_1 <= budget."""

    value: float
    argmax_counts: tuple
    at_budget_boundary: bool


def worst_retransmission_error_markov(
    model: HarqModel, gains, channel_index: int, omega_budget: int
) -> WorstMarkovError:
    """Exhaustively maximize the conditional error for gain gains[channel_index].

    A maximum attained at ||omega||_1 == omega_budget is flagged: the true
    supremum over unbounded histories may then be larger than the scan found.
    """
    if omega_budget < 1:
        raise ValueError("omega_budget must be at least 1")
    gains = tuple(float(g) for g in gains)
    if not 0 <= channel_index < len(gains):
        raise ValueError(f"channel_index {channel_index} out of range for {len(gains)} gains")
    current = gains[channel_index]
    best_value, best_counts = -1.0, None
    for counts in product(range(omega_budget + 1), repeat=len(gains)):
        total = sum(counts)
        if not 1 <= total <= omega_budget:
            continue
        history = HistoryCounter(counts=counts, gains=gains)
        value = conditional_error_prob(model, history, current)
        if value > best_value:
            best_value, best_counts = value, counts
    return WorstMarkovError(
        value=best_value,
        argmax_counts=best_counts,
        at_budget_boundary=sum(best_counts) == omega_budget,
    )
