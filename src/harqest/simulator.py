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
from .errors import DepthError
from .harq_model import HarqModel, HistoryCounter, block_error_prob, conditional_error_prob
from .lti_estimation import CostLadder
from .mdp_core import Policy
from .mdp_static import markov_policy

__all__ = [
    "PolicySpec",
    "SimConfig",
    "SimulationTrace",
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
    "threshold",
)


@dataclass(frozen=True)
class PolicySpec:
    """What to execute each slot.

    table / delay_optimal_table carry a solved Policy and look actions up
    with truncation clamping; myopic recomputes the one-step rule on the fly;
    threshold retransmits at round length 1 once the age passes the current
    gain's threshold (the perfect-retransmission validation policy).
    """

    kind: str
    table: Policy = None
    thetas: tuple = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind in ("table", "delay_optimal_table") and self.table is None:
            raise ValueError(f"{self.kind} policy needs a solved table")
        if self.kind == "threshold" and not self.thetas:
            raise ValueError("threshold policy needs one threshold per gain state")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class SimConfig:
    """Shared simulation settings. Replicate i of base seed s uses the
    independent stream seeded by the pair (s, i)."""

    slots: int = 10_000
    replicates: int = 1
    seed: int = 0
    force_success_retransmissions: bool = False
    initial_channel: int = None  # None: draw from the stationary distribution

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("slots must be at least 1")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")


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
        columns = (self.k, self.a, self.gamma, self.r, self.q, self.xi, self.trace_mse, self.running_avg)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,a,gamma,r,q,xi,trace_mse,running_avg\n")
            for row in zip(*(column.tolist() for column in columns)):
                fh.write(",".join(map(repr, row)) + "\n")
            if self.diverged:
                fh.write(f"# diverged at slot {self.diverged_slot}\n")


def _action_fn(spec: PolicySpec, ch: MarkovChannel, new_tx: tuple, retx_error, traces: list, grow):
    """Compile a policy to act(r, q, counts, xi) -> action over plain ints.

    retx_error(counts, xi) is the true conditional retransmission error;
    traces is the shared flat cost ladder (index n - 1 holds Tr at age n),
    which grow(n) extends to cover age n.
    """
    if spec.kind in ("table", "delay_optimal_table"):
        # A static (r, q) table is the one-state table keyed ((r,), q, 0).
        table = markov_policy(spec.table) if spec.table.kind == "static" else spec.table
        action = dict(zip(table.states, table.actions.tolist()))
        caps = tuple(table.params["omega_caps"])
        q_max = table.params["q_max"]
        if len(caps) != ch.size:
            raise ValueError(f"table was solved for {len(caps)} gain states, channel has {ch.size}")

        clamped = {}  # counts -> counts clamped to the table's caps

        def act(r, q, counts, xi):
            c = clamped.get(counts)
            if c is None:
                c = clamped[counts] = tuple(map(min, counts, caps))
            return action[(c, q if q < q_max else q_max, xi)]

        return act
    if spec.kind == "myopic":

        def act(r, q, counts, xi):
            if q + 1 > len(traces):
                grow(q + 1)
            g0 = new_tx[xi]
            g1 = retx_error(counts, xi)
            # The round holds r attempts, so a retransmission success lands at age r + 1.
            fresh = g0 * traces[q] + (1.0 - g0) * traces[0]
            retx = g1 * traces[q] + (1.0 - g1) * traces[r]
            return 0 if retx >= fresh else 1

        return act
    if spec.kind == "no_retransmission":
        return lambda r, q, counts, xi: 0
    if spec.kind == "always_retransmit_psi":
        return lambda r, q, counts, xi: 0 if r == q else 1
    thetas = tuple(int(t) for t in spec.thetas)

    def act(r, q, counts, xi):
        return 1 if (r == 1 and q > thetas[xi]) else 0

    return act


def run(
    harq: HarqModel,
    ch: MarkovChannel,
    ladder: CostLadder,
    policy: PolicySpec,
    cfg: SimConfig,
    replicate: int = 0,
) -> SimulationTrace:
    """Simulate one replicate. Deterministic given (cfg.seed, replicate).

    The state is plain ints and a counts tuple. All uniforms after the
    initial-channel draw are drawn in one block and consumed in the order of
    the per-slot scalar draws (first channel step, then an outcome and a
    channel step per slot); Generator.random(n) yields the same values as n
    scalar calls, so traces and common random numbers match slot by slot.
    """
    rng = np.random.default_rng([cfg.seed, replicate])
    size = ch.size
    gains = ch.gains
    new_tx = tuple(block_error_prob(harq, (g,)) for g in gains)
    # Column i of the cumulative transition matrix; bisect_right on it is
    # searchsorted(side="right") on the same floats.
    columns = [ch._cumulative[:, i].tolist() for i in range(size)]
    units = [tuple(1 if j == i else 0 for j in range(size)) for i in range(size)]

    retx_errors = {}

    def retx_error(counts, xi):
        key = (counts, xi)
        p = retx_errors.get(key)
        if p is None:
            history = HistoryCounter(counts, gains)
            p = retx_errors[key] = conditional_error_prob(harq, history, gains[xi])
        return p

    traces = list(ladder.traces)

    def grow(n):
        # Extend to n + 32: whether a DepthError fires depends on how far
        # each extension reaches, so this chunking fixes the divergence slot.
        nonlocal ladder
        ladder = ladder.extended(n + 32)
        traces.extend(ladder.traces[len(traces) :])

    act = _action_fn(policy, ch, new_tx, retx_error, traces, grow)
    force = cfg.force_success_retransmissions

    if cfg.initial_channel is None:
        stationary = ch.stationary()
        xi_prev = int(np.searchsorted(np.cumsum(stationary), rng.random(), side="right"))
        xi_prev = min(xi_prev, size - 1)
    else:
        xi_prev = int(cfg.initial_channel)
        if not 0 <= xi_prev < size:
            raise ValueError(f"initial_channel {xi_prev} out of range")
    slots = cfg.slots
    uniforms = rng.random(2 * slots + 1).tolist()
    counts = units[xi_prev]
    xi = bisect_right(columns[xi_prev], uniforms[0])
    r, q = 1, 1

    col_a, col_gamma, col_r, col_q, col_xi, col_cost, col_omega = [], [], [], [], [], [], []
    diverged_slot = None
    for i, u_outcome, u_channel in zip(range(slots), uniforms[1::2], uniforms[2::2]):
        try:
            if q > len(traces):
                grow(q)
            cost = traces[q - 1]
            a = act(r, q, counts, xi)
        except DepthError:
            # The cost (or a lookahead the policy needs) left the
            # representable range: the estimate diverged.
            diverged_slot = i + 1
            break
        if a == 0:
            p_err = new_tx[xi]
        elif force:
            p_err = 0.0
        else:
            p_err = retx_error(counts, xi)
        gamma = 1 if u_outcome >= p_err else 0
        col_a.append(a)
        col_gamma.append(gamma)
        col_r.append(r)
        col_q.append(q)
        col_xi.append(xi)
        col_cost.append(cost)
        col_omega.append(counts)
        if a == 0:
            r = 1
            counts = units[xi]
        else:
            r += 1
            counts = counts[:xi] + (counts[xi] + 1,) + counts[xi + 1 :]
        q = r if gamma == 1 else q + 1
        xi = bisect_right(columns[xi], u_channel)
    recorded = len(col_cost)
    cost_rec = np.array(col_cost, dtype=np.float64)
    running = np.cumsum(cost_rec) / np.arange(1, recorded + 1) if recorded else np.array([])
    return SimulationTrace(
        k=np.arange(1, recorded + 1, dtype=np.int64),
        a=np.array(col_a, dtype=np.int8),
        gamma=np.array(col_gamma, dtype=np.int8),
        r=np.array(col_r, dtype=np.int64),
        q=np.array(col_q, dtype=np.int64),
        xi=np.array(col_xi, dtype=np.int64),
        trace_mse=cost_rec,
        running_avg=running,
        omega=np.array(col_omega, dtype=np.int64).reshape(recorded, size),
        diverged=diverged_slot is not None,
        diverged_slot=diverged_slot,
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
                    f"{row.label},{row.mean!r},{row.stderr!r},{len(row.finals)},{row.n_diverged}\n"
                )


def evaluate_policies(
    entries, harq: HarqModel, ch: MarkovChannel, ladder: CostLadder, cfg: SimConfig
) -> ComparisonTable:
    """Run every entry over the same replicate seeds and summarize.

    Common random numbers: replicate i of every entry uses the stream seeded
    by (cfg.seed, i), so policies that act identically produce identical
    traces. A diverged replicate makes the row's mean infinite.
    """
    labels = [entry.label for entry in entries]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate comparison labels: {labels}")
    rows = []
    trajectories = {}
    first_trace = None
    for entry in entries:
        model = entry.harq if entry.harq is not None else harq
        finals = []
        traces = []
        n_diverged = 0
        for rep in range(cfg.replicates):
            trace = run(model, ch, ladder, entry.spec, cfg, replicate=rep)
            if first_trace is None:
                first_trace = trace
            if trace.diverged:
                n_diverged += 1
            else:
                finals.append(trace.final_average)
                traces.append(trace.running_avg)
        if n_diverged:
            mean, stderr = math.inf, math.nan
        else:
            mean = float(np.mean(finals))
            stderr = (
                float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
                if len(finals) > 1
                else 0.0
            )
            trajectories[entry.label] = np.mean(np.stack(traces), axis=0)
        rows.append(
            ComparisonRow(
                label=entry.label,
                finals=tuple(finals),
                mean=mean,
                stderr=stderr,
                n_diverged=n_diverged,
            )
        )
    return ComparisonTable(rows=tuple(rows), trajectories=trajectories, first_trace=first_trace)
