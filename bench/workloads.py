"""Workload make-up: generated configs, set-up solves and the measured CLI calls.

Every workload uses the reference process of the package README (A =
[[2.4, 0.2], [0.2, 0.8]], C = [1 1], Q_w = I, Q_v = 1), 100-symbol packets
at rate 4 and the gain-2 link or the {2, 1} fading chain. The seed only
reaches the program through the generated config files.
"""

import random
from dataclasses import dataclass, replace

import oracle

A = ((2.4, 0.2), (0.2, 0.8))
C = ((1.0, 1.0),)
Q_W = ((1.0, 0.0), (0.0, 1.0))
Q_V = ((1.0,),)
BLOCKLENGTH = 100
RATE = 4.0
FADING_PI = ((0.8, 0.2), (0.2, 0.8))

# Simulation sizes. compare: every policy of a call runs this many
# replicates of this many slots; long-trace: one replicate.
COMPARE_SLOTS = 2500
COMPARE_REPLICATES = 8
LONG_TRACE_SLOTS = 100_000

# An op the program gets wrong today: the op name, the known fault and the
# checks it fails. Counted as failed, reported under its tag, never hidden.
KNOWN_FAULTS = {
    "solve.static-10dB": ("F1", {"exact_cost"}),
    "solve.markov-8x8-q30-8.5dB": ("F2", {"exact_cost"}),
    "solve.markov-ir-6.5dB": ("F3", {"exit"}),
}


def _matrix(rows) -> str:
    return " ; ".join(" ".join(repr(float(v)) for v in row) for row in rows)


@dataclass(frozen=True)
class Setting:
    """One generated config file."""

    name: str
    scheme: str = "cc"
    snr_db: float = 10.0
    gains: tuple = (2.0,)
    pi: tuple = ((1.0,),)
    r_max: int = 20
    q_max: int = 20
    caps: tuple = None
    slots: int = 10_000
    replicates: int = 1
    seed: int = 1

    @property
    def markov(self) -> bool:
        return len(self.gains) > 1

    @property
    def budget(self) -> int:
        """Worst-error scan bound: the attempt truncation the solver uses."""
        return sum(self.caps) if self.markov else self.r_max

    def link(self, scheme=None, snr_db=None) -> oracle.Link:
        return oracle.Link(scheme or self.scheme, self.snr_db if snr_db is None else snr_db,
                           BLOCKLENGTH, RATE)

    def text(self) -> str:
        if self.markov:
            channel = f"gains = {' '.join(repr(g) for g in self.gains)}\ntransition = {_matrix(self.pi)}\n"
            caps = f"omega_caps = {' '.join(str(c) for c in self.caps)}\n"
        else:
            channel, caps = f"gain = {self.gains[0]!r}\n", ""
        return (
            f"[system]\nA = {_matrix(A)}\nC = {_matrix(C)}\nQ_w = {_matrix(Q_W)}\nQ_v = {_matrix(Q_V)}\n\n"
            f"[harq]\nscheme = {self.scheme}\nsnr_db = {self.snr_db!r}\n"
            f"blocklength = {BLOCKLENGTH}\nrate = {RATE!r}\n\n"
            f"[channel]\n{channel}\n"
            f"[solver]\nr_max = {self.r_max}\nq_max = {self.q_max}\n{caps}"
            "tol = 1e-9\nmax_iters = 100000\ncost_mode = mse\n\n"
            f"[sim]\nslots = {self.slots}\nreplicates = {self.replicates}\nseed = {self.seed}\n"
        )


@dataclass(frozen=True)
class Op:
    """One CLI call. Table policies are named '@<set-up op>/<file>'."""

    name: str
    command: str
    setting: Setting
    args: tuple = ()
    policies: tuple = ()

    @property
    def requested_slots(self) -> int:
        if self.command != "simulate":
            return 0
        return len(self.policies) * self.setting.replicates * self.setting.slots


@dataclass(frozen=True)
class Workload:
    name: str
    settings: tuple
    setup: tuple
    ops: tuple


STATIC = Setting("static")
MARKOV = replace(STATIC, name="markov", gains=(2.0, 1.0), pi=FADING_PI, q_max=10, caps=(4, 4))


def _solve(name, setting, cost="mse"):
    return Op(name, "solve", setting, ("--cost", cost) if cost != "mse" else ())


def compare(seed: int) -> Workload:
    sim = dict(snr_db=8.5, slots=COMPARE_SLOTS, replicates=COMPARE_REPLICATES, seed=seed)
    static = replace(STATIC, name="static-8.5dB", **sim)
    markov = replace(MARKOV, name="markov-8.5dB", **sim)
    markov_ir = replace(markov, name="markov-ir-8.5dB", scheme="ir")
    setup = (
        _solve("static-mse", static),
        _solve("static-delay", static, "delay"),
        _solve("markov-mse", markov),
        _solve("markov-delay", markov, "delay"),
        _solve("markov-ir-mse", markov_ir),
    )
    ops = (
        Op("simulate.static-8.5dB", "simulate", static, policies=(
            "@static-mse/policy_static_mse.txt", "@static-delay/policy_static_delay.txt",
            "myopic", "psi", "no-retx")),
        Op("simulate.markov-8.5dB", "simulate", markov, policies=(
            "@markov-mse/policy_markov_mse.txt", "@markov-delay/policy_markov_delay.txt",
            "myopic", "psi", "no-retx")),
        Op("simulate.markov-ir-8.5dB", "simulate", markov_ir, policies=(
            "@markov-ir-mse/policy_markov_mse.txt", "myopic", "no-retx")),
    )
    return Workload("compare", (static, markov, markov_ir), setup, ops)


def design(seed: int) -> Workload:
    static = replace(STATIC, name="static-10dB")
    markov = replace(MARKOV, name="markov-10dB")
    big = replace(MARKOV, name="markov-8x8-q30-8.5dB", snr_db=8.5, caps=(8, 8), q_max=30)
    ir = replace(MARKOV, name="markov-ir-6.5dB", scheme="ir", snr_db=6.5)
    sweep = ("--snr-db", "5", "8.5", "10", "15", "--schemes", "cc", "ir")
    ops = [
        Op("stability.static-10dB", "stability", static),
        Op("stability.markov-10dB", "stability", markov),
        Op("highsnr.static-10dB", "highsnr", static),
        Op("highsnr.markov-10dB", "highsnr", markov),
        Op("sweep.static", "sweep", static, sweep),
        Op("sweep.markov", "sweep", markov, sweep),
        _solve("solve.static-10dB", static),
        _solve("solve.markov-10dB", markov),
        _solve("solve.markov-8x8-q30-8.5dB", big),
        _solve("solve.markov-ir-6.5dB", ir),
    ]
    # The calls are fixed operating points; the seed only orders them.
    random.Random(seed).shuffle(ops)
    return Workload("design", (static, markov, big, ir), (), tuple(ops))


def long_trace(seed: int) -> Workload:
    markov = replace(MARKOV, name="markov-8.5dB", snr_db=8.5, slots=LONG_TRACE_SLOTS,
                     replicates=1, seed=seed)
    setup = (_solve("markov-mse", markov),)
    ops = (Op("simulate.markov-long", "simulate", markov,
              policies=("@markov-mse/policy_markov_mse.txt",)),)
    return Workload("long-trace", (markov,), setup, ops)


WORKLOADS = {"compare": compare, "design": design, "long-trace": long_trace}
