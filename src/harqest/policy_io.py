"""Lossless text export of solved policies.

Every file has one layout, `kind = markov`: the headers name the attempt
caps, age cap and gains of the grid, and each action line is keyed
"r1,...,rB|q|xi" with a zero-based gain index. A constant-gain table is the
one-state case, keyed "r|q|0". Floats are written with repr so a round trip
reproduces them bit for bit. The action lines list the truncated grid the
headers declare in the solver's order, one line per state under the key
`save_policy` writes for it; a file is refused at its first other line.
"""

from itertools import islice

import numpy as np

from .errors import ConfigError
from .mdp_markov import Grid, Policy, _counts

__all__ = ["save_policy", "load_policy"]


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _keys(caps, q_max: int):
    """The action-line key of every grid state in solver order, made one at
    a time, so a prefix costs only its own length. The first omega, one
    attempt under the last gain, spans every age, so its keys' "|q|xi" tails
    serve every later omega from its own first age on."""
    b = len(caps)
    omegas = islice(_counts(caps), 1, None)
    first = ",".join(map(str, next(omegas)))
    tails = []
    for q in range(1, q_max + 1):
        for xi in range(b):
            tails.append(f"|{q}|{xi}")
            yield first + tails[-1]
    for omega in omegas:
        yield from map(",".join(map(str, omega)).__add__, tails[(sum(omega) - 1) * b :])


def save_policy(policy: Policy, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# transmission-control policy\n")
        fh.write("kind = markov\n")
        fh.write(f"cost_mode = {policy.cost_mode}\n")
        fh.write(f"zeta = {policy.zeta!r}\n")
        fh.write(f"span = {policy.span!r}\n")
        fh.write(f"iterations = {policy.iterations}\n")
        fh.write(f"converged = {str(policy.converged).lower()}\n")
        grid = policy.grid
        fh.write(f"omega_caps = {','.join(str(c) for c in grid.caps)}\n")
        fh.write(f"q_max = {grid.q_max}\n")
        fh.write(f"gains = {','.join(repr(float(g)) for g in policy.gains)}\n")
        fh.write("[actions]\n")
        actions = np.asarray(policy.actions, dtype=np.int64).tolist()
        fh.write("".join(f"{key} = {action}\n" for key, action in zip(_keys(grid.caps, grid.q_max), actions)))


def load_policy(path) -> Policy:
    meta = {}
    actions = []  # (line number, state key, action)
    in_actions = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[actions]":
            in_actions = True
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if in_actions:
            if value not in ("0", "1"):
                raise ConfigError(f"{path}:{lineno}: action must be 0 or 1, got {value!r}")
            actions.append((lineno, key, int(value)))
        else:
            meta[key] = value

    def header(key, parse=str):
        if key not in meta:
            raise ConfigError(f"{path}: missing {key!r} header")
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: cannot parse {key!r} header {meta[key]!r}") from exc

    kind = header("kind")
    if kind != "markov":
        raise ConfigError(f"{path}: unknown policy kind {kind!r}")
    caps = header("omega_caps", lambda text: tuple(int(c) for c in text.split(",")))
    q_max = header("q_max", int)
    gains = header("gains", lambda text: tuple(float(g) for g in text.split(",")))
    solve = {
        "zeta": header("zeta", float),
        "span": header("span", float),
        "iterations": header("iterations", int),
        "converged": header("converged", _flag),
        "cost_mode": header("cost_mode"),
    }
    if solve["cost_mode"] not in ("mse", "delay"):
        raise ConfigError(f"{path}: cannot parse 'cost_mode' header {solve['cost_mode']!r}")
    if len(gains) != len(caps):
        raise ConfigError(f"{path}: {len(gains)} gains for {len(caps)} omega caps")
    try:
        n = Grid.count(caps, q_max)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # The labels are made as the lines are read, so a file that ends early
    # costs no more than its own lines, however large its headers' grid.
    for expected, (lineno, key, _) in zip(_keys(caps, q_max), actions):
        if key != expected:
            raise ConfigError(f"{path}:{lineno}: expected state {expected!r}, found {key!r}")
    if len(actions) != n:
        raise ConfigError(f"{path}: {len(actions)} action lines for the {n} grid states")
    table = np.array([action for _, _, action in actions], dtype=np.int8)
    return Policy(actions=table, grid=Grid(caps, q_max), gains=gains, **solve)
