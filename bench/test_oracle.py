"""Tests of the benchmark's oracle and checks: python3 -m pytest -q bench

The exact costs are recomputed here at every run with 60-digit mpmath
arithmetic end to end (Riccati, link formula, chain and a subtraction-free
elimination), never read from a stored copy.
"""

import os
import shutil
import subprocess
import sys
from collections import defaultdict

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from harqest import HarqModel, LtiSystem, build_cost_ladder, build_static_mdp, solve_rvi, solve_steady_state  # noqa: E402

REF = checks.Reference()


# ---------------------------------------------------------------- documented values


def test_ladder_matches_documented_covariance():
    # The package documents these entries to 1e-3.
    np.testing.assert_allclose(REF.posterior, [[2.5548, -1.6233], [-1.6233, 1.6179]], atol=1e-3)
    assert REF.age_one == pytest.approx(15.8397, abs=1e-4)
    assert REF.rho_sq == pytest.approx(5.878788, abs=1e-6)
    ratios = REF.ladder[2:30] / REF.ladder[1:29]
    assert np.all(ratios > 1.0) and ratios[-1] == pytest.approx(REF.rho_sq, rel=1e-6)


def test_link_matches_documented_error_probabilities():
    assert oracle.Link("cc", 10.0, 100, 4.0).fresh_error(2.0) == pytest.approx(7.28e-4, rel=1e-3)
    fresh = oracle.Link("cc", 8.5, 100, 4.0).fresh_error(2.0)
    assert fresh == pytest.approx(0.532, abs=1e-3)
    assert fresh * REF.rho_sq == pytest.approx(3.13, abs=5e-3)
    # CC and IR agree on a single attempt; combining only helps afterwards.
    cc, ir = oracle.Link("cc", 8.5, 100, 4.0), oracle.Link("ir", 8.5, 100, 4.0)
    assert cc.fresh_error(1.0) == ir.fresh_error(1.0)
    assert ir.retx_error((2.0,), 2.0) < cc.retx_error((2.0,), 2.0) < fresh


def test_existence_products_match_documented_values():
    static, markov = workloads.STATIC, workloads.MARKOV
    assert REF.existence(static, "cc", 5.0) == pytest.approx(5.12, abs=5e-3)
    assert REF.existence(markov, "cc", 5.0) == pytest.approx(5.88, abs=5e-3)
    assert REF.existence(static, "cc", 8.5) == pytest.approx(2.1e-6, rel=5e-2)


def test_closed_form_spectral_radius():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(200, 2, 2))
    expected = np.max(np.abs(np.linalg.eigvals(m)), axis=1)
    got = oracle.spectral_radius_2x2(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])
    np.testing.assert_allclose(got, expected, rtol=1e-12)


# ---------------------------------------------------------------- 60-digit exact cost


def _mp_ladder(depth):
    a = mp.matrix([list(r) for r in workloads.A])
    c = mp.matrix([list(r) for r in workloads.C])
    q_w = mp.matrix([list(r) for r in workloads.Q_W])
    q_v = mp.matrix([list(r) for r in workloads.Q_V])
    m = q_w.copy()
    for _ in range(2000):
        gain = m * c.T * (c * m * c.T + q_v) ** -1
        nxt = a * (m - gain * c * m) * a.T + q_w
        if mp.mnorm(nxt - m, 1) < mp.mpf(10) ** -55:
            m = nxt
            break
        m = nxt
    else:
        raise AssertionError("60-digit Riccati recursion did not settle")
    x = m - m * c.T * (c * m * c.T + q_v) ** -1 * c * m
    out = [x[0, 0] + x[1, 1]]
    for _ in range(depth):
        x = a * x * a.T + q_w
        out.append(x[0, 0] + x[1, 1])
    return out


def _mp_block_error(snr_db, gains):
    snr = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
    n = 100
    x = 1 + snr * sum(gains)
    arg = mp.sqrt(n) * (mp.log(x) + mp.log(n) / n - 4 * mp.log(2)) / mp.sqrt(1 - 1 / (x * x))
    return mp.erfc(arg / mp.sqrt(2)) / 2


def _gth_cost(rows, cost, ref):
    """Stationary cost by Grassmann-Taksar-Heyman elimination on a sparse chain.

    rows[i] maps successor -> probability. Every step only adds, multiplies
    and divides nonnegative numbers.
    """
    rows = {i: dict(r) for i, r in rows.items()}
    incoming = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            incoming[j].add(i)
    eliminated = []
    left = set(rows) - {ref}
    while left:
        k = min(left, key=lambda s: len(incoming[s]) * len(rows[s]))
        left.discard(k)
        out = rows.pop(k)
        out.pop(k, None)
        leave = sum(out.values())
        into = {i: rows[i].pop(k) for i in incoming.pop(k) if i in rows}
        for j in out:
            incoming[j].discard(k)
        for i, p_ik in into.items():
            for j, p_kj in out.items():
                if j != i:
                    rows[i][j] = rows[i].get(j, 0) + p_ik * p_kj / leave
                    incoming[j].add(i)
        eliminated.append((k, into, leave))
    weight = {ref: mp.mpf(1)}
    for k, into, leave in reversed(eliminated):
        weight[k] = sum(weight[i] * p for i, p in into.items()) / leave
    return sum(weight[s] * cost[s] for s in weight) / sum(weight.values())


def _exact_cost_60_digits(snr_db, actions, r_max, q_max):
    with mp.workdps(60):
        ladder = _mp_ladder(q_max)
        g = {r: _mp_block_error(snr_db, [2] * r) for r in range(1, r_max + 1)}
        retx = {r: g[r + 1] / g[r] for r in range(1, r_max)}
        rows, cost, todo = {}, {}, [(1, 1)]
        while todo:
            r, q = state = todo.pop()
            if state in rows:
                continue
            q_fail = min(q + 1, q_max)
            if actions[state] == 0:
                rows[state] = {(1, 1): 1 - g[1], (1, q_fail): g[1]}
            else:
                rows[state] = {(r + 1, r + 1): 1 - retx[r], (r + 1, q_fail): retx[r]}
            cost[state] = ladder[q]
            todo += [s for s in rows[state] if s not in rows]
        return float(_gth_cost(rows, cost, (1, 1)))


@pytest.mark.parametrize("snr_db, documented", [(5.0, 5714.7546366), (8.5, 135.9769683)])
def test_oracle_matches_60_digit_cost_of_rvi_policy(snr_db, documented):
    sys_ = LtiSystem(A=workloads.A, C=workloads.C, Q_w=workloads.Q_W, Q_v=workloads.Q_V)
    ladder = build_cost_ladder(sys_, solve_steady_state(sys_), 22)
    mdp = build_static_mdp(HarqModel.from_db("cc", snr_db, 100, 4.0), 2.0, ladder, 20, 20)
    policy = solve_rvi(mdp)
    actions = {s: int(a) for s, a in zip(policy.states, policy.actions)}
    setting = workloads.Setting("static", snr_db=snr_db)
    header = {"kind": "static", "r_max": "20", "q_max": "20"}
    fast = checks.grid_cost(setting, actions, header, REF)
    exact = _exact_cost_60_digits(snr_db, actions, 20, 20)
    assert fast == pytest.approx(exact, rel=1e-9)
    assert exact == pytest.approx(documented, rel=1e-9)


def test_power_iteration_matches_dense_solve_on_small_chain():
    rng = np.random.default_rng(3)
    n, k = 30, 3
    succ = rng.integers(0, n, size=(n, k))
    prob = rng.random((n, k))
    prob /= prob.sum(axis=1, keepdims=True)
    cost = rng.random(n) * 100
    p = np.zeros((n, n))
    for i in range(n):
        for j, w in zip(succ[i], prob[i]):
            p[j, i] += w
    a = p - np.eye(n)
    a[-1] = 1.0
    dist = np.linalg.solve(a, np.eye(n)[-1])
    zeta, _ = oracle.stationary_cost(succ, prob, cost, 0)
    assert zeta == pytest.approx(float(dist @ cost), rel=1e-10)


# ---------------------------------------------------------------- checks catch faults


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A small static simulate call and its table, run through the CLI."""
    root = tmp_path_factory.mktemp("bench")
    setting = workloads.Setting("static-8.5dB", snr_db=8.5, slots=400, replicates=4, seed=3)
    cfg = root / "static.cfg"
    cfg.write_text(setting.text())
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    for argv in (["solve", "--config", str(cfg), "--out", str(root / "table")],
                 ["simulate", "--config", str(cfg), "--out", str(root / "sim"),
                  "--policy", str(root / "table" / "policy_static_mse.txt"), "--compare", "no-retx"]):
        subprocess.run([sys.executable, "-m", "harqest.cli", *argv], check=True, env=env,
                       stdout=subprocess.DEVNULL)
    op = workloads.Op("simulate", "simulate", setting,
                      policies=("@table/policy_static_mse.txt", "no-retx"))
    return root, setting, op


def test_checks_pass_on_program_output(simulated):
    root, _, op = simulated
    fails = checks.check(op, 0, str(root / "sim"), str(root), REF)
    assert [f for f in fails if f[0] not in checks.NOTES] == []


def test_trace_replay_catches_a_wrong_age(simulated, tmp_path):
    root, setting, _ = simulated
    trace = tmp_path / "trace.csv"
    shutil.copy(root / "sim" / "trace_policy_static_mse_rep0.csv", trace)
    lines = trace.read_text().splitlines()
    cells = lines[10].split(",")
    cells[4] = str(int(cells[4]) + 1)
    lines[10] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    header, actions = checks.read_policy(root / "table" / "policy_static_mse.txt")
    fails = checks.replay_trace(checks.read_trace(str(trace))[0], setting, header, actions, REF)
    assert "trace_state" in {cid for cid, _ in fails}


def test_solve_check_catches_a_misreported_cost(simulated, tmp_path):
    root, setting, _ = simulated
    text = (root / "table" / "policy_static_mse.txt").read_text()
    header, _ = checks.read_policy(root / "table" / "policy_static_mse.txt")
    wrong = float(header["zeta"]) * 1.01
    (tmp_path / "policy_static_mse.txt").write_text(text.replace(f"zeta = {header['zeta']}",
                                                                 f"zeta = {wrong!r}"))
    op = workloads.Op("solve", "solve", setting)
    ids = {cid for cid, _ in checks.check_solve(op, 0, str(tmp_path), REF)}
    assert {"exact_cost", "rvi_bound"} <= ids


def test_outcome_check_catches_a_wrong_link(simulated):
    root, setting, _ = simulated
    data = checks.read_trace(str(root / "sim" / "trace_policy_static_mse_rep0.csv"))[0]
    header, actions = checks.read_policy(root / "table" / "policy_static_mse.txt")
    assert "trace_outcomes" not in {cid for cid, _ in checks.replay_trace(data, setting, header, actions, REF)}
    weaker = workloads.Setting("static-7.5dB", snr_db=7.5)
    ids = {cid for cid, _ in checks.replay_trace(data, weaker, header, actions, REF)}
    assert "trace_outcomes" in ids
