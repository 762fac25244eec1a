"""Seeded Monte Carlo of the closed loop: channel, link outcomes, policy
execution, and the receiver's per-slot estimation cost.

The receiver's MSE is a deterministic function of the age q, so the loop
never simulates raw trajectories: it reads Tr(P_k) off the cost ladder and
all randomness comes from packet outcomes and channel motion. One uniform is
drawn per slot for the packet outcome and one for the channel step,
regardless of the action taken, so equally-seeded runs of different policies
see identical random streams (common random numbers).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channel import MarkovChannel
from .errors import ConfigError, DepthError
from .harq_model import HarqModel, conditional_error_prob
from .lti_estimation import CostLadder
from .mdp_core import Policy

__all__ = [
    "PolicySpec",
    "SimConfig",
    "SimulationTrace",
    "TransitionMachine",
    "run",
    "PolicyEntry",
    "ComparisonRow",
    "ComparisonTable",
    "evaluate_policies",
]

_KINDS = (
    "table",
    "delay_optimal_table",
    "myopic",
    "no_retransmission",
    "always_retransmit_psi",
)


@dataclass(frozen=True)
class PolicySpec:
    """What to execute each slot.

    table / delay_optimal_table carry a solved Policy and look actions up
    with truncation clamping; myopic recomputes the one-step rule on the fly.
    """

    kind: str
    table: Policy = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind in ("table", "delay_optimal_table") and self.table is None:
            raise ValueError(f"{self.kind} policy needs a solved table")


@dataclass(frozen=True)
class SimConfig:
    """Shared simulation settings. Replicate i of base seed s uses the
    independent stream seeded by the pair (s, i)."""

    slots: int = 10_000
    replicates: int = 1
    seed: int = 0
    initial_channel: int = None  # None: draw from the stationary distribution

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("slots must be at least 1")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


_CSV_CHUNK = 1024  # trace rows formatted per write


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-slot record of one replicate plus the running average (partial
    means of Tr(P_k)). A diverged trace is truncated at the slot whose cost
    overflowed the ladder."""

    k: np.ndarray
    a: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    trace_mse: np.ndarray
    running_avg: np.ndarray
    omega: np.ndarray  # per-slot attempt counter, kept for conformance checks
    diverged: bool = False
    diverged_slot: int = None

    @property
    def final_average(self) -> float:
        return float(self.running_avg[-1]) if len(self.running_avg) else math.inf

    def to_csv(self, path):
        """One row per slot, each value written as its repr, _CSV_CHUNK rows
        at a time. The cost column holds a few ladder values, so each distinct
        one is formatted once."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,a,gamma,r,q,xi,trace_mse,running_avg\n")
            for start in range(0, len(self.k), _CSV_CHUNK):
                part = slice(start, start + _CSV_CHUNK)
                columns = [
                    map(repr, getattr(self, name)[part].tolist())
                    for name in ("k", "a", "gamma", "r", "q", "xi")
                ]
                # Keyed by bit pattern: equal floats such as 0.0 and -0.0 repr apart.
                costs, which = np.unique(self.trace_mse[part].view(np.int64), return_inverse=True)
                costs = [repr(c) for c in costs.view(np.float64).tolist()]
                columns.append(map(costs.__getitem__, which.tolist()))
                columns.append(map(repr, self.running_avg[part].tolist()))
                fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
            if self.diverged:
                fh.write(f"# diverged at slot {self.diverged_slot}\n")


_UNBUILT = -1  # a successor not looked up yet
_DIVERGED = -2  # a state whose cost or policy lookahead overflows the ladder


class TransitionMachine:
    """The closed loop of one link model, channel, ladder and policy as a
    machine over numbered states, built as the slots visit it. It is not
    safe to share between threads.

    A state is (counts, q, xi); its round so far holds sum(counts) attempts.
    On its first visit it is numbered and its action `a[s]` and error
    probability `p[s]` are fixed. A state whose cost, or the lookahead its
    policy needs, overflows the ladder gets no number: it is marked _DIVERGED.
    The successor of state s after outcome gamma and channel bin b sits at
    `successors[s * width + gamma * bins + b]`, filled on first use. The bin
    of a channel uniform u is its place among the sorted union of the
    cumulative transition columns' breakpoints; every u in one bin moves
    each gain to the same next gain, `next_x[xi][b]`.

    The ladder grows only through extended(n + 32), with n at most one past
    its depth, so its depth is always the initial depth plus a multiple of
    33 whatever path asked for it, and whether a state diverges depends on
    the state alone. That lets every replicate of an entry share one machine.
    """

    def __init__(self, harq: HarqModel, ch: MarkovChannel, ladder: CostLadder, policy: PolicySpec):
        self.harq, self.ch = harq, ch
        self.built_for = (harq, ch, ladder, policy)
        size = ch.size
        self.zeros = (0,) * size
        self.units = [tuple(1 if j == i else 0 for j in range(size)) for i in range(size)]
        columns = [ch._cumulative[:, i].tolist() for i in range(size)]
        edges = sorted(set().union(*columns))
        self.edges = np.array(edges)
        self.bins = len(edges) + 1
        self.width = 2 * self.bins
        # bisect_right is searchsorted(side="right") on the same floats.
        self.next_x = [[0] + [bisect_right(column, e) for e in edges] for column in columns]
        self.traces = list(ladder.traces)  # index n - 1 holds Tr at age n
        self._grown = ladder
        self._errors = {}
        self._act = self._compile(policy)
        self.index = {}  # state -> number, or _DIVERGED
        self.a, self.q, self.xi, self.counts, self.p = [], [], [], [], []
        self.successors = []

    def _compile(self, spec: PolicySpec):
        """The policy as act(counts, q, xi) -> action over plain ints."""
        if spec.kind in ("table", "delay_optimal_table"):
            ch, table = self.ch, spec.table
            action = dict(zip(table.states, table.actions.tolist()))
            caps = tuple(table.params["omega_caps"])
            q_max = table.params["q_max"]
            if len(caps) != ch.size:
                raise ConfigError(f"table was solved for {len(caps)} gain states, channel has {ch.size}")
            gains = tuple(table.params["gains"])
            if gains != ch.gains:
                raise ConfigError(f"table was solved for gains {gains}, channel has {ch.gains}")

            def act(counts, q, xi):
                return action[(tuple(map(min, counts, caps)), q if q < q_max else q_max, xi)]

            return act
        if spec.kind == "myopic":

            def act(counts, q, xi):
                if q + 1 > len(self.traces):
                    self._grow(q + 1)
                g0 = self._error(self.zeros, xi)
                g1 = self._error(counts, xi)
                # A retransmission success ends the round at sum(counts) + 1 attempts.
                fresh = g0 * self.traces[q] + (1.0 - g0) * self.traces[0]
                retx = g1 * self.traces[q] + (1.0 - g1) * self.traces[sum(counts)]
                return 0 if retx >= fresh else 1

            return act
        if spec.kind == "no_retransmission":
            return lambda counts, q, xi: 0
        return lambda counts, q, xi: 0 if sum(counts) == q else 1  # always_retransmit_psi

    def _error(self, counts, xi):
        """conditional_error_prob, memoized; a fresh attempt's counts are all zeros."""
        key = (counts, xi)
        p = self._errors.get(key)
        if p is None:
            p = self._errors[key] = conditional_error_prob(self.harq, self.ch.gains, counts, xi)
        return p

    def _grow(self, n):
        # Extend to n + 32: whether a DepthError fires depends on how far
        # each extension reaches, so this chunking fixes the divergence slot.
        self._grown = self._grown.extended(n + 32)
        self.traces.extend(self._grown.traces[len(self.traces) :])

    def state(self, counts, q, xi) -> int:
        """The number of a state, or _DIVERGED; numbers it on first visit."""
        key = (counts, q, xi)
        s = self.index.get(key)
        if s is not None:
            return s
        try:
            if q > len(self.traces):
                self._grow(q)
            a = self._act(counts, q, xi)
        except DepthError:
            self.index[key] = _DIVERGED
            return _DIVERGED
        s = self.index[key] = len(self.a)
        self.a.append(a)
        self.q.append(q)
        self.xi.append(xi)
        self.counts.append(counts)
        self.p.append(self._error(self.zeros if a == 0 else counts, xi))
        self.successors.extend([_UNBUILT] * self.width)
        return s

    def successor(self, k: int) -> int:
        """Fill and return successors[k]."""
        s, rest = divmod(k, self.width)
        gamma, b = divmod(rest, self.bins)
        xi = self.xi[s]
        if self.a[s] == 0:
            counts = self.units[xi]
        else:
            counts = self.counts[s]
            counts = counts[:xi] + (counts[xi] + 1,) + counts[xi + 1 :]
        # A success resets the age to the length of the round it ends.
        q = sum(counts) if gamma else self.q[s] + 1
        t = self.successors[k] = self.state(counts, q, self.next_x[xi][b])
        return t


def _draw_stream(ch: MarkovChannel, edges: np.ndarray, cfg: SimConfig, replicate: int):
    """Replicate `replicate`'s random stream, as run consumes it: the initial
    channel, the outcome uniforms (an array, and a list of all but the last
    slot's) and the channel bins (the first step's, then one per slot).

    All uniforms after the initial-channel draw are drawn in one block and
    consumed in the order of the per-slot scalar draws (first channel step,
    then an outcome and a channel step per slot); Generator.random(n) yields
    the same values as n scalar calls, so traces and common random numbers
    match slot by slot.
    """
    rng = np.random.default_rng([cfg.seed, replicate])
    size = ch.size
    if cfg.initial_channel is None:
        stationary = ch.stationary()
        xi_prev = int(np.searchsorted(np.cumsum(stationary), rng.random(), side="right"))
        xi_prev = min(xi_prev, size - 1)
    else:
        xi_prev = int(cfg.initial_channel)
        if not 0 <= xi_prev < size:
            raise ValueError(f"initial_channel {xi_prev} out of range")
    slots = cfg.slots
    uniforms = rng.random(2 * slots + 1)
    outcomes = uniforms[1::2]
    bins = np.searchsorted(edges, uniforms[0::2], side="right").tolist()
    return xi_prev, outcomes, outcomes[: slots - 1].tolist(), bins


def run(
    harq: HarqModel,
    ch: MarkovChannel,
    ladder: CostLadder,
    policy: PolicySpec,
    cfg: SimConfig,
    replicate: int = 0,
    machine: TransitionMachine = None,
    stream: tuple = None,
) -> SimulationTrace:
    """Simulate one replicate. Deterministic given (cfg.seed, replicate).

    `machine`, built for these same arguments, carries the states earlier
    replicates visited; without one a fresh machine is built. `stream` is
    this replicate's random stream as `_draw_stream` returns it for this
    channel and cfg; without one it is drawn here.
    """
    if machine is None:
        machine = TransitionMachine(harq, ch, ladder, policy)
    elif any(mine is not arg for mine, arg in zip(machine.built_for, (harq, ch, ladder, policy))):
        raise ValueError("machine was built for other arguments")
    if stream is None:
        stream = _draw_stream(ch, machine.edges, cfg, replicate)
    xi_prev, outcomes, outcome_list, bins = stream
    slots = cfg.slots
    s = machine.state(machine.units[xi_prev], 1, machine.next_x[xi_prev][bins[0]])
    path = []
    if s != _DIVERGED:
        path.append(s)
        p, successors = machine.p, machine.successors
        width, gamma_offset = machine.width, machine.bins
        for u, b in zip(outcome_list, bins[1:]):
            k = s * width + b
            if u >= p[s]:
                k += gamma_offset
            s = successors[k]
            if s < 0:
                if s == _UNBUILT:
                    s = machine.successor(k)
                if s == _DIVERGED:
                    # The cost (or a lookahead the policy needs) left the
                    # representable range: the estimate diverged.
                    break
            path.append(s)
    recorded = len(path)
    at = np.array(path, dtype=np.intp)
    q = np.array(machine.q, dtype=np.int64)[at]
    cost = np.array(machine.traces)[q - 1]
    running = np.cumsum(cost) / np.arange(1, recorded + 1) if recorded else np.array([])
    omega = np.array(machine.counts, dtype=np.int64).reshape(-1, ch.size).take(at, axis=0)
    diverged = recorded < slots
    return SimulationTrace(
        k=np.arange(1, recorded + 1, dtype=np.int64),
        a=np.array(machine.a, dtype=np.int8)[at],
        gamma=(outcomes[:recorded] >= np.array(machine.p)[at]).astype(np.int8),
        r=sum(omega.T),  # adds the B count columns; faster than numpy's row sum here
        q=q,
        xi=np.array(machine.xi, dtype=np.int64)[at],
        trace_mse=cost,
        running_avg=running,
        omega=omega,
        diverged=diverged,
        diverged_slot=recorded + 1 if diverged else None,
    )


@dataclass(frozen=True)
class PolicyEntry:
    """One column of a comparison. harq overrides the shared link model,
    which is how same-channel CC-vs-IR comparisons are expressed."""

    label: str
    spec: PolicySpec
    harq: HarqModel = None


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    label: str
    finals: tuple
    mean: float
    stderr: float
    n_diverged: int


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    rows: tuple
    trajectories: dict  # label -> per-slot mean running average (non-diverged only)
    first_trace: SimulationTrace  # replicate 0 of the first entry

    def row(self, label: str) -> ComparisonRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("policy,mean_final_avg_mse,stderr,replicates,diverged\n")
            for row in self.rows:
                fh.write(
                    f"{row.label},{row.mean!r},{row.stderr!r},"
                    f"{len(row.finals) + row.n_diverged},{row.n_diverged}\n"
                )


def evaluate_policies(
    entries, harq: HarqModel, ch: MarkovChannel, ladder: CostLadder, cfg: SimConfig
) -> ComparisonTable:
    """Run every entry over the same replicate seeds and summarize.

    Common random numbers: replicate i of every entry uses the stream seeded
    by (cfg.seed, i), so policies that act identically produce identical
    traces. The stream is drawn once per replicate and every entry runs on
    it, each on its own machine. A bounded run keeps its final average and
    adds its running average to its entry's one sum; only replicate 0 of the
    first entry keeps its trace. A diverged replicate makes the mean infinite.
    """
    labels = [entry.label for entry in entries]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate comparison labels: {labels}")
    models = [entry.harq if entry.harq is not None else harq for entry in entries]
    machines = [
        TransitionMachine(model, ch, ladder, entry.spec) for entry, model in zip(entries, models)
    ]
    finals = [[] for _ in entries]
    # The bounded replicates' running averages, added in replicate order.
    totals = [np.zeros(cfg.slots) for _ in entries]
    first_trace = None
    for rep in range(cfg.replicates):
        stream = _draw_stream(ch, machines[0].edges, cfg, rep)
        for i, (entry, model, machine) in enumerate(zip(entries, models, machines)):
            trace = run(
                model, ch, ladder, entry.spec, cfg, replicate=rep, machine=machine, stream=stream
            )
            if first_trace is None:
                first_trace = trace
            if not trace.diverged:
                finals[i].append(trace.final_average)
                totals[i] += trace.running_avg
    rows = []
    trajectories = {}
    for entry, mine, total in zip(entries, finals, totals):
        diverged = cfg.replicates - len(mine)
        if diverged:
            mean, stderr = math.inf, math.nan
        else:
            mean = float(np.mean(mine))
            stderr = (
                float(np.std(mine, ddof=1) / math.sqrt(len(mine))) if len(mine) > 1 else 0.0
            )
            trajectories[entry.label] = total / cfg.replicates
        rows.append(
            ComparisonRow(
                label=entry.label,
                finals=tuple(mine),
                mean=mean,
                stderr=stderr,
                n_diverged=diverged,
            )
        )
    return ComparisonTable(rows=tuple(rows), trajectories=trajectories, first_trace=first_trace)
