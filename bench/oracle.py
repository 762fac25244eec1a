"""Reference computations the benchmark checks harqest's outputs against.

Nothing here imports harqest. The link model is the normal approximation
written with natural logarithms and `math.erfc`; the estimation cost comes
from the prediction-form Riccati iteration; exact long-run costs come from
lazy power iteration on the chain a policy file induces. Every quantity that
power iteration adds is nonnegative, so no digits are lost to cancellation
even where stage costs reach 1e22 and stationary masses 1e-25.
"""

import math
from itertools import product

import numpy as np

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
# Below this block error a combining round counts as decoded: the next
# attempt of the round cannot fail (the link model's own convention).
_DECODED = 1e-300


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


class Link:
    """Finite-blocklength block error of one combining round.

    CC adds the received SNRs of all copies into one channel use; IR decodes
    all copies as one codeword, so capacities and dispersions add and the
    log term counts the m copies.
    """

    def __init__(self, scheme: str, snr_db: float, blocklength: int, rate: float):
        if scheme not in ("cc", "ir"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.snr = 10.0 ** (snr_db / 10.0)
        self.n = int(blocklength)
        self.rate = float(rate)
        self._block = {}

    def block_error(self, gains) -> float:
        key = tuple(sorted(float(g) for g in gains))
        value = self._block.get(key)
        if value is None:
            value = self._block[key] = self._evaluate(key)
        return value

    def _evaluate(self, gains) -> float:
        n = self.n
        if self.scheme == "cc":
            x = 1.0 + self.snr * sum(gains)
            capacity = math.log(x)
            dispersion = 1.0 - 1.0 / (x * x)
            log_term = math.log(n) / n
        else:
            xs = [1.0 + self.snr * g for g in gains]
            capacity = sum(math.log(x) for x in xs)
            dispersion = sum(1.0 - 1.0 / (x * x) for x in xs)
            log_term = math.log(len(gains) * n) / n
        arg = math.sqrt(n) * (capacity + log_term - self.rate * _LN2) / math.sqrt(dispersion)
        return min(max(q_function(arg), 0.0), 1.0)

    def fresh_error(self, gain: float) -> float:
        return self.block_error((gain,))

    def retx_error(self, history, gain: float) -> float:
        """Failure probability of one more attempt at `gain` after `history` failed."""
        if not history:
            return self.fresh_error(gain)
        past = self.block_error(history)
        if past < _DECODED:
            return 0.0
        return min(self.block_error(tuple(history) + (gain,)) / past, 1.0)


# ---------------------------------------------------------------- estimation


def steady_posterior(a, c, q_w, q_v, rtol: float = 1e-14, max_iters: int = 100_000) -> np.ndarray:
    """Sensor posterior covariance from the prediction-form Riccati recursion."""
    a, c, q_w, q_v = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, c, q_w, q_v))
    m = q_w.copy()
    for _ in range(max_iters):
        gain = m @ c.T @ np.linalg.inv(c @ m @ c.T + q_v)
        nxt = a @ (m - gain @ c @ m) @ a.T + q_w
        nxt = (nxt + nxt.T) / 2.0
        done = np.max(np.abs(nxt - m)) <= rtol * np.max(np.abs(nxt))
        m = nxt
        if done:
            break
    else:
        raise RuntimeError("Riccati recursion did not settle")
    post = m - m @ c.T @ np.linalg.inv(c @ m @ c.T + q_v) @ c @ m
    return (post + post.T) / 2.0


def cost_ladder(a, q_w, posterior, depth: int) -> np.ndarray:
    """ladder[n] = Tr(f^n(posterior)) for n = 0..depth, f(X) = A X A^T + Q_w."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q_w = np.atleast_2d(np.asarray(q_w, dtype=float))
    out = np.empty(depth + 1)
    x = np.asarray(posterior, dtype=float)
    out[0] = np.trace(x)
    for n in range(1, depth + 1):
        x = a @ x @ a.T + q_w
        out[n] = np.trace(x)
    return out


def spectral_radius_2x2(m00, m01, m10, m11):
    """Closed-form spectral radius of 2 x 2 real matrices (vectorized)."""
    half_tr = (np.asarray(m00, dtype=float) + m11) / 2.0
    det = np.asarray(m00, dtype=float) * m11 - np.asarray(m01, dtype=float) * m10
    disc = half_tr * half_tr - det
    root = np.sqrt(np.abs(disc))
    real = np.maximum(np.abs(half_tr + root), np.abs(half_tr - root))
    cplx = np.sqrt(np.maximum(det, 0.0))
    return np.where(disc >= 0.0, real, cplx)


def spectral_radius(m) -> float:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    if m.shape != (2, 2):
        raise ValueError("the benchmark's closed form covers 1 x 1 and 2 x 2 matrices")
    return float(spectral_radius_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1]))


# ---------------------------------------------------------------- stability


def worst_static(link: Link, gain: float, r_max: int) -> float:
    return max(link.retx_error((gain,) * (r - 1), gain) for r in range(2, r_max + 1))


def worst_markov(link: Link, gains, index: int, budget: int) -> float:
    best = 0.0
    for counts in product(range(budget + 1), repeat=len(gains)):
        if 1 <= sum(counts) <= budget:
            history = tuple(g for g, k in zip(gains, counts) for _ in range(k))
            best = max(best, link.retx_error(history, gains[index]))
    return best


def existence_product(link: Link, gains, pi, rho_sq: float, budget: int) -> float:
    """Worst retransmission error (per gain state) times rho^2(A).

    `budget` is r_max on the constant-gain grid and sum(omega_caps) on the
    fading grid, the truncation the solver itself uses.
    """
    if len(gains) == 1:
        return worst_static(link, gains[0], budget) * rho_sq
    worst = [worst_markov(link, gains, i, budget) for i in range(len(gains))]
    return spectral_radius(np.asarray(pi) @ np.diag(worst)) * rho_sq


def fresh_product(link: Link, gains, pi, rho_sq: float) -> float:
    """rho(Pi diag(fresh errors)) rho^2(A): at or above 1, never retransmitting diverges."""
    fresh = [link.fresh_error(g) for g in gains]
    return spectral_radius(np.asarray(pi) @ np.diag(fresh)) * rho_sq


# ---------------------------------------------------------------- exact cost


def stationary_cost(succ, prob, cost, start: int, rtol: float = 1e-14, max_iters: int = 1_000_000):
    """Long-run average cost of the chain started in `start`, with its distribution.

    Lazy power iteration x <- (x + P^T x) / 2 from the point mass at `start`;
    each sweep only multiplies and adds nonnegative numbers. Stops when one
    sweep moves the cost-weighted mass by less than rtol of the cost.
    """
    succ = np.asarray(succ)
    prob = np.asarray(prob, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    flat = succ.ravel()
    x = np.zeros(n)
    x[start] = 1.0
    for _ in range(max_iters):
        flow = np.bincount(flat, weights=(prob * x[:, None]).ravel(), minlength=n)
        nxt = 0.5 * x + 0.5 * flow
        nxt /= nxt.sum()
        moved = float(cost @ np.abs(nxt - x))
        x = nxt
        if moved <= rtol * float(cost @ x):
            return float(cost @ x), x
    raise RuntimeError("power iteration did not settle")


def _stage_costs(ages, ladder, cost_mode: str) -> np.ndarray:
    ages = np.asarray(ages)
    return ladder[ages] if cost_mode == "mse" else ages.astype(float)


def static_chain(link: Link, gain: float, actions: dict, r_max: int, q_max: int,
                 ladder, cost_mode: str = "mse", q_top: int = None):
    """Chain of a constant-gain (r, q) policy table.

    Ages clamp at q_top (default q_max, the solver's grid). With q_top >
    q_max the chain is the process the simulator runs: the table is read at
    the clamped age, while the cost keeps the true age.
    """
    q_top = q_max if q_top is None else q_top
    states = [(r, q) for r in range(1, r_max + 1) for q in range(r, q_top + 1)]
    index = {s: i for i, s in enumerate(states)}
    fresh = link.fresh_error(gain)
    succ = np.zeros((len(states), 2), dtype=np.int64)
    prob = np.zeros((len(states), 2))
    for i, (r, q) in enumerate(states):
        q_fail = min(q + 1, q_top)
        if actions[(r, min(q, q_max))] == 0:
            succ[i] = (index[(1, 1)], index[(1, q_fail)])
            prob[i] = (1.0 - fresh, fresh)
        else:
            if r >= r_max:
                raise ValueError(f"table retransmits at the attempt cap, state {(r, q)}")
            err = link.retx_error((gain,) * r, gain)
            succ[i] = (index[(r + 1, r + 1)], index[(r + 1, q_fail)])
            prob[i] = (1.0 - err, err)
    cost = _stage_costs([q for _, q in states], ladder, cost_mode)
    return states, succ, prob, cost, index[(1, 1)]


def markov_chain(link: Link, gains, pi, actions: dict, caps, q_max: int,
                 ladder, cost_mode: str = "mse", q_top: int = None):
    """Chain of a fading-link (omega, q, xi) policy table; q_top as in static_chain."""
    q_top = q_max if q_top is None else q_top
    b = len(gains)
    pi = np.asarray(pi, dtype=float)
    states = [
        (omega, q, xi)
        for omega in product(*[range(c + 1) for c in caps]) if sum(omega) >= 1
        for q in range(sum(omega), q_top + 1)
        for xi in range(b)
    ]
    index = {s: i for i, s in enumerate(states)}
    units = [tuple(int(j == i) for j in range(b)) for i in range(b)]
    fresh = [link.fresh_error(g) for g in gains]
    succ = np.zeros((len(states), 2 * b), dtype=np.int64)
    prob = np.zeros((len(states), 2 * b))
    for s, (omega, q, xi) in enumerate(states):
        q_fail = min(q + 1, q_top)
        if actions[(omega, min(q, q_max), xi)] == 0:
            nxt, err, q_ok = units[xi], fresh[xi], 1
        else:
            if omega[xi] >= caps[xi]:
                raise ValueError(f"table retransmits at the attempt cap, state {(omega, q, xi)}")
            history = tuple(g for g, k in zip(gains, omega) for _ in range(k))
            err = link.retx_error(history, gains[xi])
            nxt = tuple(o + u for o, u in zip(omega, units[xi]))
            q_ok = sum(omega) + 1
        for j in range(b):
            succ[s, 2 * j] = index[(nxt, q_ok, j)]
            prob[s, 2 * j] = pi[j, xi] * (1.0 - err)
            succ[s, 2 * j + 1] = index[(nxt, q_fail, j)]
            prob[s, 2 * j + 1] = pi[j, xi] * err
    cost = _stage_costs([q for _, q, _ in states], ladder, cost_mode)
    return states, succ, prob, cost, index[(units[0], 1, 0)]


# ---------------------------------------------------------------- structure


def switching_violations(kind: str, actions: dict) -> int:
    """Count breaches of the threshold structure on a policy table.

    Fresh at a state stays fresh with one more buffered attempt; retransmit
    at a state stays retransmit one slot older.
    """
    bad = 0
    for state, act in actions.items():
        if kind == "static":
            r, q = state
            neighbours = [(r + 1, q)] if act == 0 else [(r, q + 1)]
        else:
            omega, q, xi = state
            if act == 0:
                neighbours = [
                    (tuple(o + int(j == i) for j, o in enumerate(omega)), q, xi)
                    for i in range(len(omega))
                ]
            else:
                neighbours = [(omega, q + 1, xi)]
        bad += sum(1 for nb in neighbours if nb in actions and actions[nb] != act)
    return bad


# ---------------------------------------------------------------- high SNR


def high_snr_cost(fresh, pi, thetas, ladder) -> float:
    """Average MSE of a threshold policy when every retransmission succeeds.

    States (1, q, xi) for ages q = 1..top and the post-retransmission state
    (2, 2, xi). At round length 1 the policy retransmits once the age
    exceeds the current gain's threshold; a fresh packet fails with
    fresh[xi].
    """
    b = len(fresh)
    pi = np.asarray(pi, dtype=float).reshape(b, b)
    top = max(max(thetas), 2) + 1
    states = [("post", xi) for xi in range(b)] + [(q, xi) for q in range(1, top + 1) for xi in range(b)]
    index = {s: i for i, s in enumerate(states)}
    succ = np.zeros((len(states), 2 * b), dtype=np.int64)
    prob = np.zeros((len(states), 2 * b))
    cost = np.empty(len(states))
    for s, (pos, xi) in enumerate(states):
        age = 2 if pos == "post" else pos
        cost[s] = ladder[age]
        retransmit = pos != "post" and age > thetas[xi]
        for j in range(b):
            if retransmit:
                succ[s, 2 * j] = succ[s, 2 * j + 1] = index[("post", j)]
                prob[s, 2 * j] = pi[j, xi]
            else:
                succ[s, 2 * j] = index[(1, j)]
                prob[s, 2 * j] = pi[j, xi] * (1.0 - fresh[xi])
                succ[s, 2 * j + 1] = index[(min(age + 1, top), j)]
                prob[s, 2 * j + 1] = pi[j, xi] * fresh[xi]
    return stationary_cost(succ, prob, cost, index[(1, 0)])[0]
