"""Lossless text export of solved policies.

Every file has one layout, `kind = markov`: the headers name the attempt
caps, age cap and gains of the grid, and each action line is keyed
"r1,...,rB|q|xi" with a zero-based gain index. A constant-gain table is the
one-state case, keyed "r|q|0". Floats are written with repr so a round trip
reproduces them bit for bit. The action lines list the truncated grid the
headers declare in the solver's order, one line per state under the key
`save_policy` writes for it; a file is refused at its first other line.
"""

from itertools import groupby

import numpy as np

from .errors import ConfigError
from .mdp_markov import Grid, Policy

__all__ = ["save_policy", "load_policy"]


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _state_key(state) -> str:
    omega, q, xi = state
    return f"{','.join(str(c) for c in omega)}|{q}|{xi}"


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
        # One block per omega: solver order keeps each omega's states together.
        rows = zip(grid.states, np.asarray(policy.actions, dtype=np.int64).tolist())
        for omega, block in groupby(rows, key=lambda row: row[0][0]):
            prefix = ",".join(str(c) for c in omega)
            fh.write("".join(f"{prefix}|{q}|{xi} = {action}\n" for (_, q, xi), action in block))


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
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
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
    for expected, (lineno, key, _) in zip(map(_state_key, Grid.labels(caps, q_max)), actions):
        if key != expected:
            raise ConfigError(f"{path}:{lineno}: expected state {expected!r}, found {key!r}")
    if len(actions) != n:
        raise ConfigError(f"{path}: {len(actions)} action lines for the {n} grid states")
    table = np.array([action for _, _, action in actions], dtype=np.int8)
    return Policy(actions=table, grid=Grid(caps, q_max), gains=gains, **solve)
