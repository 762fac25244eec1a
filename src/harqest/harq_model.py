"""Finite-blocklength packet-error probabilities for CC and IR retransmission combining.

The block error probability of an attempt is the normal-approximation
Q-expression over the accumulated channel gains of the combining round;
the error of one attempt is the ratio of two block evaluations. One
`LinkErrors` table per link holds its block errors keyed by attempt counts,
for as long as its holder keeps it; nothing is cached at module level.
"""

import logging
import math
from dataclasses import dataclass

from .errors import ModelError
from .numerics import gaussian_q

__all__ = [
    "HarqModel",
    "block_error_prob",
    "LinkErrors",
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


class LinkErrors:
    """One link's error table over attempt counts, filled on first use.

    counts[i] is how many of a round's attempts saw gains[i]. A block is
    evaluated over those attempts as the ascending gain tuple that
    `block_error_prob` builds, so every value has the same bits as there.
    """

    def __init__(self, model: HarqModel, gains):
        self.model = model
        self.gains = tuple(float(g) for g in gains)
        if any(g <= 0 for g in self.gains):
            raise ValueError("gains must be positive")
        self._ascending = sorted(range(len(self.gains)), key=self.gains.__getitem__)
        self._blocks = {}

    def block(self, counts) -> float:
        """Error probability of the round that made the attempts `counts`."""
        p = self._blocks.get(counts)
        if p is None:
            if len(counts) != len(self.gains):
                raise ValueError("counts and gains must have the same length")
            if min(counts) < 0:
                raise ValueError("counts must be nonnegative")
            # Built from a list, at its exact length. A tuple built from a
            # generator starts at ten items and is resized, so a longer one is
            # taken from the ten-item free list but freed onto its own length's,
            # which grows with every call until a full collection empties it.
            gains = tuple([g for i in self._ascending for g in (self.gains[i],) * counts[i]])
            p = self._blocks[counts] = _block_error(self.model, gains)
        return p

    def attempt(self, counts, xi: int) -> float:
        """Error probability of an attempt under gains[xi] after a round that
        buffered the attempts `counts` (all zeros for a fresh transmission):
        the block error with this attempt over the block error without it."""
        bumped = counts[:xi] + (counts[xi] + 1,) + counts[xi + 1 :]
        if not any(counts):
            return self.block(bumped)
        denominator = self.block(counts)
        if denominator < _DENOMINATOR_FLOOR:
            log.debug(
                "retransmission after an all-but-decoded history %s; conditional error pinned to 0",
                counts,
            )
            return 0.0
        return min(self.block(bumped) / denominator, 1.0)


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
    link: LinkErrors, channel_index: int, omega_budget: int
) -> WorstMarkovError:
    """Exhaustively maximize the attempt error for gain link.gains[channel_index].

    Histories are scanned in lexicographic count order and the first maximum
    wins. A maximum attained at ||omega||_1 == omega_budget is flagged: the
    true supremum over unbounded histories may then be larger than the scan
    found. A static link is the one-gain case, with budget r_max - 1.
    """
    if omega_budget < 1:
        raise ValueError("omega_budget must be at least 1")
    b = len(link.gains)
    if not 0 <= channel_index < b:
        raise ValueError(f"channel_index {channel_index} out of range for {b} gains")
    histories = _histories(b, omega_budget)[1:]  # all but the empty round
    values = tuple([link.attempt(c, channel_index) for c in histories])  # as in LinkErrors.block
    best = max(range(len(values)), key=values.__getitem__)
    return WorstMarkovError(
        value=values[best],
        argmax_counts=histories[best],
        at_budget_boundary=sum(histories[best]) == omega_budget,
        values=values,
    )
