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
from functools import cached_property

import numpy as np

from .channel import MarkovChannel
from .errors import ConfigError, DepthError
from .harq_model import HarqModel, LinkErrors
from .lti_estimation import CostLadder
from .mdp_markov import Policy

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
    """One replicate as the states it visited, plus the running average
    (partial means of Tr(P_k)). A diverged trace is truncated at the slot
    whose cost overflowed the ladder.

    `states` numbers each recorded slot's state on the machine that ran it,
    `outcomes` holds the replicate's outcome uniforms and `arrays` is that
    machine's `arrays()` when the run ended. The per-slot columns k, a,
    gamma, r, q, xi, trace_mse and omega are gathered from them on first
    read, so a replicate whose columns nobody reads never builds them.
    """

    states: np.ndarray
    outcomes: np.ndarray
    arrays: tuple
    running_avg: np.ndarray
    diverged: bool = False
    diverged_slot: int = None

    @cached_property
    def k(self) -> np.ndarray:
        return np.arange(1, len(self.states) + 1, dtype=np.int64)

    @cached_property
    def a(self) -> np.ndarray:
        return self.arrays[0][self.states]

    @cached_property
    def gamma(self) -> np.ndarray:
        p_of = self.arrays[3]
        return (self.outcomes[: len(self.states)] >= p_of[self.states]).astype(np.int8)

    @cached_property
    def r(self) -> np.ndarray:
        return sum(self.omega.T)  # adds the B count columns; faster than numpy's row sum here

    @cached_property
    def q(self) -> np.ndarray:
        return self.arrays[1][self.states]

    @cached_property
    def xi(self) -> np.ndarray:
        return self.arrays[2][self.states]

    @cached_property
    def trace_mse(self) -> np.ndarray:
        return self.arrays[5][self.q - 1]

    @cached_property
    def omega(self) -> np.ndarray:
        """Per-slot attempt counts, one row per slot, kept for conformance checks."""
        return self.arrays[4].take(self.states, axis=0)

    def to_csv(self, path):
        """One row per slot, each value written as its repr, _CSV_CHUNK rows
        at a time. A row's fields from a to trace_mse depend only on its
        state and outcome, so each distinct (state, gamma) is formatted once."""
        a_of, q_of, xi_of, _, counts_of, traces = self.arrays
        pairs, which = np.unique(self.states * 2 + self.gamma, return_inverse=True)
        at, gamma = np.divmod(pairs, 2)
        q = q_of[at]
        middles = [
            ",".join(map(repr, row))
            for row in zip(
                a_of[at].tolist(),
                gamma.tolist(),
                counts_of[at].sum(axis=1).tolist(),
                q.tolist(),
                xi_of[at].tolist(),
                traces[q - 1].tolist(),
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,a,gamma,r,q,xi,trace_mse,running_avg\n")
            for start in range(0, len(which), _CSV_CHUNK):
                part = slice(start, start + _CSV_CHUNK)
                rows = zip(
                    range(start + 1, start + _CSV_CHUNK + 1),
                    map(middles.__getitem__, which[part].tolist()),
                    self.running_avg[part].tolist(),
                )
                fh.write("".join([f"{k},{middle},{avg!r}\n" for k, middle, avg in rows]))
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
        self.ch = ch
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
        self._link = LinkErrors(harq, ch.gains)
        self._act = self._compile(policy)
        self.index = {}  # state -> number, or _DIVERGED
        self.a, self.q, self.xi, self.counts, self.p = [], [], [], [], []
        self.successors = []
        self._arrays, self._arrays_for = None, None

    def _compile(self, spec: PolicySpec):
        """The policy as act(counts, q, xi) -> action over plain ints."""
        if spec.kind in ("table", "delay_optimal_table"):
            ch, table = self.ch, spec.table
            grid, actions = table.grid, table.actions.tolist()
            if grid.b != ch.size:
                raise ConfigError(f"table was solved for {grid.b} gain states, channel has {ch.size}")
            if table.gains != ch.gains:
                raise ConfigError(f"table was solved for gains {table.gains}, channel has {ch.gains}")

            def act(counts, q, xi):
                return actions[grid.number(tuple(map(min, counts, grid.caps)), min(q, grid.q_max), xi)]

            return act
        if spec.kind == "myopic":

            def act(counts, q, xi):
                if q + 1 > len(self.traces):
                    self._grow(q + 1)
                g0 = self._link.attempt(self.zeros, xi)
                g1 = self._link.attempt(counts, xi)
                # A retransmission success ends the round at sum(counts) + 1 attempts.
                fresh = g0 * self.traces[q] + (1.0 - g0) * self.traces[0]
                retx = g1 * self.traces[q] + (1.0 - g1) * self.traces[sum(counts)]
                return 0 if retx >= fresh else 1

            return act
        if spec.kind == "no_retransmission":
            return lambda counts, q, xi: 0
        return lambda counts, q, xi: 0 if sum(counts) == q else 1  # always_retransmit_psi

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
        self.p.append(self._link.attempt(self.zeros if a == 0 else counts, xi))
        self.successors.extend([_UNBUILT] * self.width)
        return s

    def arrays(self):
        """The per-state lists and the ladder's traces as numpy arrays: (a, q,
        xi, p, counts, traces), counts one row per state. The lists only
        grow, so the arrays are rebuilt only when their lengths have changed."""
        size = (len(self.a), len(self.traces))
        if self._arrays_for != size:
            self._arrays = (
                np.array(self.a, dtype=np.int8),
                np.array(self.q, dtype=np.int64),
                np.array(self.xi, dtype=np.int64),
                np.array(self.p),
                np.array(self.counts, dtype=np.int64).reshape(-1, self.ch.size),
                np.array(self.traces),
            )
            self._arrays_for = size
        return self._arrays

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
    channel and cfg; without one it is drawn here. The trace keeps the
    visited states and computes the running average; its other columns are
    gathered only when read.
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
    at = np.fromiter(path, dtype=np.intp, count=recorded)
    arrays = machine.arrays()
    q_of, traces = arrays[1], arrays[5]
    cost = traces[q_of[at] - 1]
    running = np.cumsum(cost) / np.arange(1, recorded + 1) if recorded else np.array([])
    diverged = recorded < slots
    return SimulationTrace(
        states=at,
        outcomes=outcomes,
        arrays=arrays,
        running_avg=running,
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


def _twin_average(machine: TransitionMachine, machines, twins: dict, averages: list):
    """The running average of the first twin in `twins` whose replicate is
    bounded and on whose states `machine` agrees, or None. States numbered
    since a twin's last check are passed through `machine`; divergence
    depends on the state alone, so their order changes nothing. A twin that
    itself took a run has numbered every state of the run's owner. A twin
    that disagrees is removed from `twins`."""
    for j, checked in list(twins.items()):
        if averages[j] is None:
            continue
        twin = machines[j]
        for s in range(checked, len(twin.a)):
            t = machine.state(twin.counts[s], twin.q[s], twin.xi[s])
            if t == _DIVERGED or machine.a[t] != twin.a[s]:
                del twins[j]
                break
        else:
            twins[j] = len(twin.a)
            return averages[j]
    return None


def _stderr(finals) -> float:
    """The standard error of the mean of `finals`, 0 for one final. The
    finals are scaled by the power of two that brings the largest below 1,
    which is exact, so squaring them cannot overflow."""
    if len(finals) < 2:
        return 0.0
    scale = math.ldexp(1.0, -math.frexp(max(map(abs, finals)))[1])
    return float(np.std(np.multiply(finals, scale), ddof=1) / scale / math.sqrt(len(finals)))


def evaluate_policies(
    entries, harq: HarqModel, ch: MarkovChannel, ladder: CostLadder, cfg: SimConfig
) -> ComparisonTable:
    """Run every entry over the same replicate seeds and summarize.

    Common random numbers: replicate i of every entry uses the stream seeded
    by (cfg.seed, i), so policies that act identically produce identical
    traces. The stream is drawn once per replicate, and each entry runs on
    it on its own machine unless it has a twin: an earlier entry on the
    same link model object whose replicate is bounded, and on every state
    whose machine has numbered the entry takes the same action and does not
    diverge. That run is then the entry's own, bit for bit, and the entry
    takes its running average instead of running. A failed check rules the
    twin out for good; the first entry always runs. Per replicate only each
    entry's running average is held. A bounded replicate keeps its final
    average and adds its running average to its entry's one sum; only
    replicate 0 of the first entry keeps its trace. A diverged replicate
    makes the mean infinite.
    """
    labels = [entry.label for entry in entries]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate comparison labels: {labels}")
    if any("," in label for label in labels):
        raise ConfigError(f"comparison labels must not hold a comma: {labels}")
    models = [entry.harq if entry.harq is not None else harq for entry in entries]
    machines = [
        TransitionMachine(model, ch, ladder, entry.spec) for entry, model in zip(entries, models)
    ]
    # Per entry: twin candidate -> how many of its machine's states are checked.
    twins = [{j: 0 for j in range(i) if models[j] is model} for i, model in enumerate(models)]
    finals = [[] for _ in entries]
    # The bounded replicates' running averages, added in replicate order.
    totals = [np.zeros(cfg.slots) for _ in entries]
    first_trace = None
    for rep in range(cfg.replicates):
        stream = _draw_stream(ch, machines[0].edges, cfg, rep)
        averages = []  # per entry, its bounded running average, else None
        for i, (entry, model, machine) in enumerate(zip(entries, models, machines)):
            avg = _twin_average(machine, machines, twins[i], averages)
            if avg is None:
                trace = run(
                    model, ch, ladder, entry.spec, cfg, replicate=rep, machine=machine, stream=stream
                )
                if first_trace is None:
                    first_trace = trace
                if not trace.diverged:
                    avg = trace.running_avg
            averages.append(avg)
            if avg is not None:
                finals[i].append(float(avg[-1]))
                totals[i] += avg
    rows = []
    trajectories = {}
    for entry, mine, total in zip(entries, finals, totals):
        diverged = cfg.replicates - len(mine)
        if diverged:
            mean, stderr = math.inf, math.nan
        else:
            mean = float(np.mean(mine))
            stderr = _stderr(mine)
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
