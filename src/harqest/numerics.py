"""Small dense-matrix utilities shared by the rest of the package.

Everything here operates on plain numpy arrays and is pure: no state, no
side effects, safe to call concurrently.
"""

import math

import numpy as np

from .errors import ModelError

__all__ = [
    "spectral_radius",
    "gaussian_q",
    "gth_stationary",
    "first_passage_cost",
]

_SQRT2 = math.sqrt(2.0)
_SPLIT = "more than one closed class is reachable; the stationary vector is not unique"


def spectral_radius(m):
    """Largest absolute eigenvalue of a square matrix (a float), or of each
    matrix in a stack of shape (..., n, n) (an array of shape (...))."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"spectral radius needs square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    radii = np.abs(np.linalg.eigvals(m)).max(axis=-1)
    return float(radii) if m.ndim == 2 else radii


def gaussian_q(x: float) -> float:
    """Upper tail probability of the standard normal, Q(x) = P[Z > x]."""
    return 0.5 * math.erfc(x / _SQRT2)


def gth_stationary(p, start: int = 0) -> np.ndarray:
    """Stationary distribution of the closed class a chain reaches from `start`.

    Grassmann-Taksar-Heyman elimination (Grassmann, Taksar and Heyman, 1985)
    on that class of the column-stochastic matrix p, or of each matrix in a
    stack of shape (..., n, n), which gives a stack of shape (..., n). The
    elimination only adds, multiplies and divides nonnegative numbers, so
    even tail probabilities near 1e-300 keep full relative precision. States
    outside the class get probability 0. Raises ModelError when more than
    one closed class can be reached from `start`; for a stack, the message
    names the item.

    A stack is eliminated in one pass. Each item's class comes first, in the
    order a lone call uses, and an item leaves the pass once its class is
    eliminated, so it sums exactly the terms a lone call would.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ModelError(f"transition matrix must be square, got shape {p.shape}")
    lead, n = p.shape[:-2], p.shape[-1]
    stack = p.reshape(-1, n, n)
    if not len(stack):
        return np.zeros(p.shape[:-1])

    def item(t):
        return f"stack item {tuple(int(i) for i in np.unravel_index(t, lead))}: " if lead else ""

    bad = (stack.min(axis=(1, 2)) < 0.0) | (np.abs(stack.sum(axis=1) - 1.0).max(axis=1) > 1e-9)
    if bad.any():
        raise ModelError(f"{item(bad.argmax())}matrix is not column-stochastic")
    # linked[t, j, i] is 1 where one step leads from i to j; a matrix product
    # with it counts a mask's one-step successors (or predecessors) per state.
    linked = (stack > 0.0).astype(float)
    cls, _, split = _closed_class(
        lambda f: (linked @ f[:, :, None])[:, :, 0] > 0.0,
        lambda f: (f[:, None, :] @ linked)[:, 0, :] > 0.0,
        np.full(len(stack), start),
        n,
    )
    del linked  # as large as the stack: free it before the gather below
    if split.any():
        raise ModelError(f"{item(split.argmax())}{_SPLIT}")
    # Per item: the class first (`start` first when it is recurrent, so that
    # states whose probability underflows are not the root and the flow back
    # to it cannot underflow to a zero pivot; then the others in ascending
    # order), then the other states. Items go largest class first, so the
    # items still being eliminated are always a leading block.
    rank = np.where(cls, np.arange(n), n)
    rank[cls[:, start], start] = -1
    sizes = cls.sum(axis=1)
    items = np.argsort(-sizes, kind="stable")
    sizes = sizes[items]
    width = int(sizes[0])
    order = np.argsort(rank[items], axis=1, kind="stable")[:, :width]
    # Row-stochastic on each class: a[t, i, j] is the flow from member i to j.
    a = stack[items[:, None, None], order[:, None, :], order[:, :, None]]
    live = (sizes[:, None] > np.arange(width)).sum(axis=0).tolist()  # items with member k
    # Censor the states from the last one down: a[:k, k] becomes the flow
    # into k per unit leaving it, and paths through k fold into a[:k, :k].
    for k in range(width - 1, 0, -1):
        b = a[: live[k]]
        b[:, :k, k] /= b[:, k, :k].sum(axis=1)[:, None]
        b[:, :k, :k] += b[:, :k, k, None] * b[:, k, None, :k]
    x = np.zeros((len(stack), width))  # unnormalized, back-substituted from member 0
    x[:, 0] = 1.0
    for k in range(1, width):
        x[: live[k], k] = (x[: live[k], :k] * a[: live[k], :k, k]).sum(axis=1)
    # Normalize by the sum over each item's own members, as a lone call does
    # (zero padding would regroup the pairwise sum), a block of equal sizes
    # at a time.
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    total = np.empty(len(stack))
    for lo, hi in zip(cuts, cuts[1:]):
        total[lo:hi] = x[lo:hi, : sizes[lo]].sum(axis=1)
    e = np.zeros((len(stack), n))
    e[items[:, None], order] = x / total[:, None]
    return e.reshape(*lead, n)


def first_passage_cost(succ, prob, cost, start: int, graph):
    """Long-run average cost and relative values of a chain started at `start`.

    Row s moves to succ[s, k] with probability prob[s, k]. The chain is cut
    into cycles at an anchor: `start` when it is recurrent, else a state of
    the closed class it reaches. With m_c(s) and m_1(s) the expected cost and
    number of steps from s until the chain first reaches the anchor (both 0
    at the anchor), the renewal-reward theorem gives

        zeta = (cost[a] + sum_k prob[a, k] m_c(succ[a, k]))
               / (1 + sum_k prob[a, k] m_1(succ[a, k])),

    and h = m_c - zeta * m_1 solves h = cost - zeta + P h with h = 0 at the
    anchor. h is NaN at states that may never reach the anchor.

    The first-passage sums come from state reduction (Heyman and O'Leary,
    1998) in GTH form: each eliminated state's 1 - P_kk is the sum of its
    outflow to the states still present, the anchor included, so the
    reduction only adds, multiplies and divides nonnegative numbers and m
    keeps full relative precision at stage costs near 1e22. States are
    eliminated a level at a time, farthest from the anchor first, where the
    level is the breadth-first distance from the anchor along `graph`, an
    (n, W) array of successors that holds every successor of positive
    probability in succ (for an MDP, those of every available action). A
    step raises the level by at most one, so a level's rows pick up only
    the next level's exit rows, and on the retransmission grid, where the
    level is about the age, the fill stays on the few states that a
    delivery resets to.
    """
    succ = np.asarray(succ)
    prob = np.asarray(prob, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    positive = prob > 0.0

    def mark(targets):
        out = np.zeros(n, dtype=bool)
        out[targets] = True
        return out

    def successors(frontier):
        return mark(succ[frontier][positive[frontier]])

    def predecessors(frontier):
        return (frontier[succ] & positive).any(axis=1)

    _, anchor, split = _closed_class(successors, predecessors, start, n)
    if split:
        raise ModelError(_SPLIT)
    anchor = int(anchor)
    # States that reach the anchor with probability one cannot reach a state
    # from which the anchor is out of reach.
    sure = ~_reachable(predecessors, ~_reachable(predecessors, mark(anchor)))
    graph = np.asarray(graph)
    level = _distances(lambda f: mark(graph[f].ravel()), mark(anchor))
    top = int(level.max()) + 1
    level[sure & (level < 0)] = top  # not reached along graph: eliminated first
    level[~sure] = -1
    rows = sure.copy()
    rows[anchor] = False
    if (positive[rows] & (level[succ[rows]] > level[rows, None] + 1)).any():
        raise ValueError("graph misses a successor of the chain")
    weights = np.stack([cost, np.ones(n)], axis=1)  # m_c and m_1 side by side
    blocks = [np.flatnonzero(level == d) for d in range(top + 1)]
    where = np.zeros(n, dtype=np.int64)  # position of a state in its level
    for block in blocks:
        where[block] = np.arange(len(block))
    exits = [None] * (top + 2)  # per level: (rest, exit rows over rest and the weights)
    for d in range(top, 0, -1):
        block = blocks[d]
        if not len(block):
            continue
        nb = len(block)
        s, p = succ[block], prob[block]
        lv = np.where(positive[block], level[s], -1)
        r = np.broadcast_to(np.arange(nb)[:, None], s.shape)
        lower = (lv >= 0) & (lv < d)
        up = lv == d + 1
        fold = up.any()  # then exits[d + 1] exists
        # A mask, not np.unique: its first call imports numpy.ma (0.6 MB).
        into_rest = mark(s[lower])
        if fold:
            above = exits[d + 1][0]
            into_rest[above[level[above] < d]] = True
        rest = np.flatnonzero(into_rest)
        nr = len(rest)
        # Row i: [flow into the level | flow into `rest` | cost, 1].
        a = np.zeros((nb, nb + nr + 2))
        a[:, nb + nr:] = weights[block]
        inner = lv == d
        np.add.at(a, (r[inner], where[s[inner]]), p[inner])
        np.add.at(a, (r[lower], nb + np.searchsorted(rest, s[lower])), p[lower])
        if fold:
            cols, e = exits[d + 1]
            f = np.zeros((nb, len(blocks[d + 1])))
            np.add.at(f, (r[up], where[s[up]]), p[up])
            at = np.where(level[cols] == d, where[cols], nb + np.searchsorted(rest, cols))
            a[:, np.concatenate([at, [nb + nr, nb + nr + 1]])] += f @ e
        # GTH within the level, last state first; the self-loops never enter.
        d_out = np.empty(nb)
        for k in range(nb - 1, -1, -1):
            d_out[k] = a[k, :k].sum() + a[k, nb:nb + nr].sum()
            into = a[:k, k]
            if into.any():
                a[:k] += (into / d_out[k])[:, None] * a[k]
        # Exit rows over `rest` (and the cost columns), first state first.
        e = a[:, nb:] / d_out[:, None]
        for k in np.flatnonzero(np.tril(a[:, :nb], -1).any(axis=1)):
            e[k] = (a[k, nb:] + a[k, :k] @ e[:k]) / d_out[k]
        exits[d] = (rest, e)
    m = np.zeros((n, 2))
    for d in range(1, top + 1):
        if exits[d] is not None:
            rest, e = exits[d]
            m[blocks[d]] = e[:, -2:] + e[:, :-2] @ m[rest]
    out, p = succ[anchor], prob[anchor]
    zeta = float((cost[anchor] + p @ m[out, 0]) / (1.0 + p @ m[out, 1]))
    h = m[:, 0] - zeta * m[:, 1]
    h[~sure] = np.nan
    return zeta, h


def _closed_class(forward, backward, start, n: int):
    """The closed class a chain reaches from `start`, for one chain or for
    each of a stack of them: `start` is an int or an int array, and forward
    and backward map masks of shape start.shape + (n,) to the masks of their
    one-step successors or predecessors. Returns the class mask, a state of
    the class (`start` itself when it is recurrent), and a flag that is true
    where more than one closed class can be reached."""
    start = np.asarray(start)
    states = np.arange(n)
    ahead = _reachable(forward, states == start[..., None])
    cls, centre = ahead, start
    while True:
        strays = cls & ~_reachable(backward, states == centre[..., None])
        moving = strays.any(axis=-1)
        if not moving.any():
            break
        # A stray cannot return to centre: its closed class lies further on.
        centre = np.where(moving, strays.argmax(axis=-1), centre)
        cls = _reachable(forward, states == centre[..., None])
    split = centre != start
    if split.any():
        split &= (ahead & ~_reachable(backward, cls)).any(axis=-1)
    return cls, centre, split


def _distances(step, frontier) -> np.ndarray:
    """Breadth-first step count from the states of the mask `frontier`, -1
    where unreachable; step maps a mask of states to the mask of their
    one-step neighbours. The mask may carry leading axes, one per search."""
    dist = np.full(frontier.shape, -1)
    d = 0
    while frontier.any():
        dist[frontier] = d
        d += 1
        frontier = step(frontier) & (dist < 0)
    return dist


def _reachable(step, frontier) -> np.ndarray:
    """Mask of the states reachable from the states of the mask `frontier`."""
    return _distances(step, frontier) >= 0
