"""Lossless text export of solved policies.

Static entries are keyed "r,q"; Markov entries "r1,...,rB|q|xi" with
zero-based gain indices. Floats are written with repr so a round trip
reproduces them bit for bit. A file lists an action for every state of the
truncated grid its headers declare, and for no other state.
"""

import numpy as np

from .errors import ConfigError
from .mdp_core import Policy
from .mdp_markov import truncated_grid

__all__ = ["save_policy", "load_policy"]


def _ints(text: str) -> tuple:
    return tuple(int(c) for c in text.split(","))


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _state_key(kind: str, state) -> str:
    if kind == "static":
        r, q = state
        return f"{r},{q}"
    omega, q, xi = state
    return f"{','.join(str(c) for c in omega)}|{q}|{xi}"


def _parse_state(kind: str, key: str):
    if kind == "static":
        r, q = key.split(",")
        return (int(r), int(q))
    omega, q, xi = key.split("|")
    return (_ints(omega), int(q), int(xi))


def save_policy(policy: Policy, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# transmission-control policy\n")
        fh.write(f"kind = {policy.kind}\n")
        fh.write(f"cost_mode = {policy.cost_mode}\n")
        fh.write(f"zeta = {policy.zeta!r}\n")
        fh.write(f"span = {policy.span!r}\n")
        fh.write(f"iterations = {policy.iterations}\n")
        fh.write(f"converged = {str(policy.converged).lower()}\n")
        if policy.kind == "static":
            fh.write(f"r_max = {policy.params['r_max']}\n")
            fh.write(f"q_max = {policy.params['q_max']}\n")
        else:
            caps = ",".join(str(c) for c in policy.params["omega_caps"])
            gains = ",".join(repr(float(g)) for g in policy.params["gains"])
            fh.write(f"omega_caps = {caps}\n")
            fh.write(f"q_max = {policy.params['q_max']}\n")
            fh.write(f"gains = {gains}\n")
        fh.write("[actions]\n")
        for state, action in zip(policy.states, policy.actions):
            fh.write(f"{_state_key(policy.kind, state)} = {int(action)}\n")


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
    if kind not in ("static", "markov"):
        raise ConfigError(f"{path}: unknown policy kind {kind!r}")
    if kind == "static":
        params = {"r_max": header("r_max", int), "q_max": header("q_max", int)}
        caps = (params["r_max"],)
    else:
        params = {
            "omega_caps": header("omega_caps", _ints),
            "q_max": header("q_max", int),
            "gains": header("gains", lambda text: tuple(float(g) for g in text.split(","))),
        }
        caps = params["omega_caps"]
    solve = {
        "zeta": header("zeta", float),
        "span": header("span", float),
        "iterations": header("iterations", int),
        "converged": header("converged", _flag),
        "cost_mode": header("cost_mode"),
    }
    # The grid the headers declare, in the solver's state order.
    try:
        states = truncated_grid(caps, params["q_max"], len(caps))[1]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if kind == "static":
        states = tuple((omega[0], q) for omega, q, _ in states)
    grid = set(states)
    by_state = {}
    for lineno, key, action in actions:
        try:
            state = _parse_state(kind, key)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad state {key!r}") from exc
        if state in by_state:
            raise ConfigError(f"{path}:{lineno}: state {key!r} is listed twice")
        if state not in grid:
            raise ConfigError(f"{path}:{lineno}: state {key!r} is off the grid of its headers")
        by_state[state] = action
    missing = [s for s in states if s not in by_state]
    if missing:
        raise ConfigError(
            f"{path}: {len(missing)} states of the grid have no action, "
            f"the first is {_state_key(kind, missing[0])!r}"
        )
    table = np.array([by_state[s] for s in states], dtype=np.int8)
    return Policy(actions=table, states=states, kind=kind, params=params, **solve)
