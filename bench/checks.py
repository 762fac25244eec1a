"""Checks of every CLI output against the benchmark's oracle.

Each check returns a list of (check id, message) pairs, empty when the
output is right. Values are never compared with a stored copy of an
earlier run: each reference comes from `oracle` or from a property of the
method (the RVI bound, the switching structure, replaying a trace).
"""

import io
import math
import os
import re

import numpy as np

import oracle
import workloads

# A simulated mean may sit SIM_SIGMAS of its standard errors plus SIM_RTOL
# of the exact cost from the exact cost of the policy. Replicate means are
# heavy-tailed (the cost grows 5.9-fold per slot of age), so their sample
# standard error is itself noisy: over 240 seeds of the compare tables the
# largest deviations reached 8.5 standard errors and 11% of the cost.
SIM_SIGMAS = 5.0
SIM_RTOL = 0.1
# Failed slots in a trace may differ from their exact expectation by this
# many standard deviations (a sum of independent Bernoulli draws).
OUTCOME_SIGMAS = 6.0
# Batches for the standard error of a single-replicate trace.
TRACE_BATCHES = 20
# Extra ages past q_max that make a table's chain the simulator's process.
AGE_EXTENSION = 40
# Exact-cost agreement the solver's tol = 1e-9 should deliver.
SOLVE_RTOL = 1e-6
# Agreement of quantities both sides compute in float64 by different routes.
FLOAT_RTOL = 1e-9


class Reference:
    """Oracle quantities shared by all checks of one run."""

    def __init__(self):
        self.posterior = oracle.steady_posterior(workloads.A, workloads.C, workloads.Q_W, workloads.Q_V)
        self.ladder = oracle.cost_ladder(workloads.A, workloads.Q_W, self.posterior, 300)
        self.rho_sq = oracle.spectral_radius(workloads.A) ** 2

    @property
    def age_one(self) -> float:
        return float(self.ladder[1])

    def existence(self, setting, scheme=None, snr_db=None) -> float:
        return oracle.existence_product(setting.link(scheme, snr_db), setting.gains,
                                        setting.pi, self.rho_sq, setting.budget)


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------- parsing


def read_policy(path):
    """Header dict and {state: action} of a policy file."""
    header, actions, body = {}, {}, False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[actions]":
                body = True
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if not body:
                header[key] = value
            elif header["kind"] == "static":
                r, q = key.split(",")
                actions[(int(r), int(q))] = int(value)
            else:
                omega, q, xi = key.split("|")
                actions[(tuple(int(v) for v in omega.split(",")), int(q), int(xi))] = int(value)
    return header, actions


def _lines(path) -> dict:
    """'key = value' lines of a text report."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if " = " in line:
                key, value = line.split(" = ", 1)
                out[key.strip()] = value.strip()
    return out


_NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")
# Check ids that report a fault without failing the op (see NOTES in README).
NOTES = {"format"}


def _number(text) -> float:
    """A float, also when written as a numpy repr such as 'np.float64(0.5)'."""
    return float(_NUMPY_REPR.sub(r"\1", text))


def _read_numbers(path):
    """Header, float table and format notes of a numeric CSV file.

    Numbers written as numpy reprs are read for their value and reported.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        text = fh.read()
    wrapped = text.count("np.float64(")
    if wrapped:
        text = _NUMPY_REPR.sub(r"\1", text)
    data = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)
    notes = [("format", f"{os.path.basename(path)}: {wrapped} numbers written as "
                        "'np.float64(...)' instead of plain numbers")] if wrapped else []
    return header, data, notes


def _csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip() and not line.startswith("#")]
    return header, rows


# ---------------------------------------------------------------- exact costs


def policy_chain(setting, actions, header, ref, cost_mode="mse", q_top=None):
    link = setting.link()
    q_max = int(header["q_max"])
    if header["kind"] == "static":
        return oracle.static_chain(link, setting.gains[0], actions, int(header["r_max"]), q_max,
                                   ref.ladder, cost_mode, q_top)
    caps = tuple(int(c) for c in header["omega_caps"].split(","))
    return oracle.markov_chain(link, setting.gains, setting.pi, actions, caps, q_max,
                               ref.ladder, cost_mode, q_top)


def grid_cost(setting, actions, header, ref, cost_mode="mse") -> float:
    """Exact cost of the table on the solver's own truncated grid."""
    _, succ, prob, cost, start = policy_chain(setting, actions, header, ref, cost_mode)
    return oracle.stationary_cost(succ, prob, cost, start)[0]


def simulated_cost(setting, actions, header, ref) -> float:
    """Exact MSE of the process the simulator runs with this table.

    The simulator reads the table at the clamped age but charges the true
    age; clamping the ages further out instead must not change the cost,
    or the policy's cost is unbounded.
    """
    q_max = int(header["q_max"])
    costs = []
    for extra in (AGE_EXTENSION, AGE_EXTENSION + 20):
        _, succ, prob, cost, start = policy_chain(setting, actions, header, ref, "mse", q_max + extra)
        costs.append(oracle.stationary_cost(succ, prob, cost, start)[0])
    if not _close(costs[0], costs[1], FLOAT_RTOL):
        raise ValueError(f"table cost does not settle as the age bound grows: {costs}")
    return costs[1]


# ---------------------------------------------------------------- per command


def check_solve(op, rc, out_dir, ref):
    if rc != 0:
        return [("exit", f"exit code {rc}")]
    s = op.setting
    mode = op.args[1] if op.args else "mse"
    path = os.path.join(out_dir, f"policy_{'markov' if s.markov else 'static'}_{mode}.txt")
    header, actions = read_policy(path)
    zeta, span = float(header["zeta"]), float(header["span"])
    exact = grid_cost(s, actions, header, ref, mode)
    fails = []
    error = abs(zeta - exact)
    if error > span / 2.0 + 1e-12 * exact:
        fails.append(("rvi_bound", f"zeta {zeta!r} +- {span / 2.0!r} excludes the exact cost {exact!r}"))
    if error > SOLVE_RTOL * exact:
        fails.append(("exact_cost", f"zeta {zeta!r} differs from the exact cost {exact!r} "
                                    f"by {error / exact:.1e} relative"))
    if ref.existence(s) < 1.0:
        bad = oracle.switching_violations(header["kind"], actions)
        if bad:
            fails.append(("switching", f"{bad} switching-structure violations where a "
                                       "bounded-MSE policy exists"))
    return fails


def check_sweep(op, rc, out_dir, ref):
    if rc != 0:
        return [("exit", f"exit code {rc}")]
    header, rows = _csv(os.path.join(out_dir, "sweep.csv"))
    snrs = [float(v) for v in op.args[op.args.index("--snr-db") + 1:op.args.index("--schemes")]]
    schemes = list(op.args[op.args.index("--schemes") + 1:])
    fails = []
    if header != ["snr_db", "scheme", "zeta", "iterations", "switching"] or \
            [(float(r[0]), r[1]) for r in rows] != [(v, k) for v in snrs for k in schemes]:
        return [("rows", f"unexpected sweep table {header} with {len(rows)} rows")]
    for snr, scheme, zeta, _, verdict in rows:
        cell = f"{snr} dB {scheme}"
        if not float(zeta) >= ref.age_one:
            fails.append(("zeta_floor", f"{cell}: zeta {zeta} below the age-1 cost {ref.age_one!r}"))
        if ref.existence(op.setting, scheme, float(snr)) < 1.0 and verdict != "pass":
            fails.append(("switching", f"{cell}: {verdict} where a bounded-MSE policy exists"))
    return fails


def check_stability(op, rc, out_dir, ref):
    if rc != 0:
        return [("exit", f"exit code {rc}")]
    s = op.setting
    report = _lines(os.path.join(out_dir, "stability.txt"))
    product = ref.existence(s)
    fails = []
    if not _close(float(report["product"]), product, 1e-5):
        fails.append(("product", f"product {report['product']} against {product!r}"))
    if report["verdict"].startswith("stable") != (product < 1.0):
        fails.append(("verdict", f"verdict '{report['verdict']}' for product {product!r}"))
    if s.markov:
        header, grid, fails_format = _read_numbers(os.path.join(out_dir, "stability_region.csv"))
        fails += fails_format
        expected = 4 * 51 * 51
        if header != ["lambda1", "lambda2", "rho_sq", "stable"] or grid.shape != (expected, 4):
            return fails + [("region", f"region grid has {len(grid)} rows, expected {expected}")]
        (p00, p01), (p10, p11) = s.pi
        l1, l2, rho_sq, stable = grid.T
        radius = oracle.spectral_radius_2x2(p00 * l1, p01 * l2, p10 * l1, p11 * l2) * rho_sq
        # Cells within rounding of the boundary (product 1) can go either way.
        decided = np.abs(radius - 1.0) > 1e-9
        wrong = int(np.sum(decided & ((radius < 1.0) != (stable == 1.0))))
        if wrong:
            fails.append(("region", f"{wrong} region-grid verdicts disagree with the closed form"))
    return fails


def check_highsnr(op, rc, out_dir, ref):
    if rc != 0:
        return [("exit", f"exit code {rc}")]
    s = op.setting
    report = _lines(os.path.join(out_dir, "highsnr.txt"))
    link = s.link()
    fresh = [link.fresh_error(g) for g in s.gains]
    theta_max = 8  # the CLI's default --theta-max
    if s.markov:
        grid = [(a, b) for a in range(1, theta_max + 1) for b in range(1, theta_max + 1)]
        theta_star = tuple(int(v) for v in report["theta_star"].strip("()").split(","))
    else:
        grid = [(t,) for t in range(1, theta_max + 1)]
        theta_star = (int(report["theta_star"]),)
    zetas = {t: oracle.high_snr_cost(fresh, s.pi, t, ref.ladder) for t in grid}
    best = min(zetas.values())
    zeta_star = float(report["zeta_star"])
    fails = []
    if not _close(zeta_star, best, FLOAT_RTOL):
        fails.append(("zeta_star", f"zeta* {zeta_star!r} against the reduced-chain minimum {best!r}"))
    if theta_star not in zetas or not _close(zetas[theta_star], best, FLOAT_RTOL):
        fails.append(("theta_star", f"theta* {theta_star} is not a minimizer (minimum {best!r})"))
    if not s.markov:
        for t in range(1, theta_max + 1):
            if not _close(float(report[f"zeta({t})"]), zetas[(t,)], FLOAT_RTOL):
                fails.append(("zeta_theta", f"zeta({t}) {report[f'zeta({t})']} against {zetas[(t,)]!r}"))
    return fails


def _resolve(token, setup_dir):
    if token.startswith("@"):
        return os.path.join(setup_dir, token[1:])
    return None


def _label(token):
    return os.path.splitext(os.path.basename(token))[0] if token.startswith("@") else token


def read_trace(path):
    """(per-slot table, whether it diverged, format notes) of a trace CSV."""
    _, data, notes = _read_numbers(path)
    with open(path, "rb") as fh:
        fh.seek(max(os.path.getsize(path) - 4096, 0))
        diverged = b"# diverged" in fh.read()
    return data, diverged, notes


def replay_trace(data, setting, header, actions, ref):
    """Recompute a trace's states, costs, running average, actions and outcomes."""
    fails = []
    k, a, gamma, r, q, xi = (data[:, i].astype(np.int64) for i in range(6))
    mse, running = data[:, 6], data[:, 7]
    n = len(k)
    if not np.array_equal(k, np.arange(1, n + 1)):
        return [("trace_rows", "slot column is not 1..n")]
    r_ref = np.ones(n, dtype=np.int64)
    q_ref = np.ones(n, dtype=np.int64)
    for i in range(n - 1):
        r_ref[i + 1] = 1 if a[i] == 0 else r_ref[i] + 1
        q_ref[i + 1] = r_ref[i + 1] if gamma[i] == 1 else q_ref[i] + 1
    if not (np.array_equal(r, r_ref) and np.array_equal(q, q_ref)):
        return [("trace_state", "r and q do not follow from the actions and outcomes")]
    if not np.allclose(mse, ref.ladder[q], rtol=FLOAT_RTOL, atol=0.0):
        fails.append(("trace_mse", "trace_mse differs from the cost ladder at the recorded age"))
    mean = np.cumsum(mse) / np.arange(1, n + 1)
    if not np.allclose(running, mean, rtol=1e-12, atol=0.0):
        fails.append(("running_avg", "running_avg is not the cumulative mean of trace_mse"))
    q_max = int(header["q_max"])
    static = header["kind"] == "static"
    caps = (int(header["r_max"]),) if static else tuple(int(c) for c in header["omega_caps"].split(","))
    b = len(caps)

    def histories(xi0):
        """Per-gain counts of the buffered attempts at each slot."""
        counts = [int(j == xi0) for j in range(b)]
        for i in range(n):
            yield tuple(counts)
            if a[i] == 0:
                counts = [0] * b
            counts[xi[i]] += 1

    def table_action(i, counts):
        clamped = tuple(min(c, cap) for c, cap in zip(counts, caps))
        age = min(int(q[i]), q_max)
        return actions.get((clamped[0], age) if static else (clamped, age, int(xi[i])))

    # Slot 1 continues a round whose gain index is not recorded: the slots
    # up to the first fresh transmission must fit one of the indices.
    if not any(all(table_action(i, h) == a[i] for i, h in enumerate(histories(xi0)))
               for xi0 in range(b)):
        fails.append(("trace_actions", "actions differ from the table at the clamped state"))

    # Given the state, each slot's outcome is a Bernoulli draw whose failure
    # probability the link model fixes, so the failure count is checked
    # against its exact mean and variance (light-tailed, unlike the MSE).
    link = setting.link()
    first = int(np.argmax(a == 0)) if np.any(a == 0) else n
    p_fail = []
    for i, counts in enumerate(histories(0)):
        if i < first:
            continue
        gain = setting.gains[xi[i]]
        history = tuple(g for g, c in zip(setting.gains, counts) for _ in range(c))
        p_fail.append(link.fresh_error(gain) if a[i] == 0 else link.retx_error(history, gain))
    p_fail = np.array(p_fail)
    failures = float(np.sum(1 - gamma[first:]))
    spread = math.sqrt(float(np.sum(p_fail * (1.0 - p_fail))))
    if abs(failures - p_fail.sum()) > OUTCOME_SIGMAS * spread + 1e-9 * n:
        fails.append(("trace_outcomes", f"{failures:.0f} failed slots where the link model "
                                        f"expects {p_fail.sum():.1f} +- {spread:.1f}"))
    return fails


def check_simulate(op, rc, out_dir, ref, setup_dir):
    if rc not in (0, 4):
        return [("exit", f"exit code {rc}")]
    s = op.setting
    _, rows = _csv(os.path.join(out_dir, "comparison.csv"))
    table = {row[0]: (float(row[1]), float(row[2]), int(row[3]), int(row[4])) for row in rows}
    labels = [_label(t) for t in op.policies]
    if list(table) != labels:
        return [("rows", f"comparison rows {list(table)}, expected {labels}")]
    first = op.policies[0]
    trace, trace_diverged, fails = read_trace(os.path.join(out_dir, f"trace_{labels[0]}_rep0.csv"))
    diverged = trace_diverged or any(v[3] for v in table.values())
    if (rc == 4) != diverged:
        fails.append(("exit", f"exit code {rc} with diverged rows {diverged}"))
    grid_costs = {}
    for token, label in zip(op.policies, labels):
        mean, stderr, reps, n_div = table[label]
        if reps != s.replicates:
            fails.append(("rows", f"{label}: {reps} replicates, expected {s.replicates}"))
        path = _resolve(token, setup_dir)
        if path is not None:
            header, actions = read_policy(path)
            grid_costs[header["cost_mode"]] = grid_cost(s, actions, header, ref)
            exact = simulated_cost(s, actions, header, ref)
            if s.replicates == 1:
                stderr = _batch_stderr(trace[:, 6]) if token == first else math.nan
            if n_div or not abs(mean - exact) <= SIM_SIGMAS * stderr + SIM_RTOL * exact:
                fails.append(("sim_mean", f"{label}: simulated {mean!r} +- {stderr!r} against "
                                          f"exact {exact!r}"))
        elif token == "no-retx":
            divergent = oracle.fresh_product(s.link(), s.gains, s.pi, ref.rho_sq) >= 1.0
            if divergent and not (n_div or mean > 10.0 * ref.age_one):
                fails.append(("no_retx", f"never-retransmit mean {mean!r} stays below "
                                         f"10 x Tr f(P0) = {10 * ref.age_one!r} although it diverges"))
        if not n_div:
            fails += _check_trajectory(os.path.join(out_dir, f"trajectory_{label}.csv"), label, mean)
    if "mse" in grid_costs and "delay" in grid_costs and not grid_costs["mse"] <= grid_costs["delay"]:
        fails.append(("mse_vs_delay", f"MSE table exact cost {grid_costs['mse']!r} exceeds the "
                                      f"delay table's {grid_costs['delay']!r}"))
    if first.startswith("@"):
        header, actions = read_policy(_resolve(first, setup_dir))
        fails += replay_trace(trace, s, header, actions, ref)
    if s.replicates == 1 and not table[labels[0]][3]:
        last = trace[-1, 7]
        if last != table[labels[0]][0]:
            fails.append(("trace_mean", f"comparison mean {table[labels[0]][0]!r} is not the "
                                        f"trace's last running average {last!r}"))
    return fails


def _last_line(path) -> str:
    with open(path, "rb") as fh:
        fh.seek(max(os.path.getsize(path) - 4096, 0))
        return fh.read().decode().strip().splitlines()[-1]


def _check_trajectory(path, label, mean):
    last = _number(_last_line(path).split(",")[1])
    if not _close(last, mean, 1e-12):
        return [("trajectory", f"{label}: last trajectory row {last!r} against mean {mean!r}")]
    return []


def _batch_stderr(mse) -> float:
    batches = np.array_split(mse, TRACE_BATCHES)
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / math.sqrt(TRACE_BATCHES))


CHECKS = {
    "solve": check_solve,
    "sweep": check_sweep,
    "stability": check_stability,
    "highsnr": check_highsnr,
}


def check(op, rc, out_dir, setup_dir, ref):
    if op.command == "simulate":
        return check_simulate(op, rc, out_dir, ref, setup_dir)
    return CHECKS[op.command](op, rc, out_dir, ref)
