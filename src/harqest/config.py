"""Config-file ingestion.

The format is INI-style sections of key = value lines; matrices are rows
separated by ';' with whitespace-separated entries. Exactly one of the
static and Markov channel descriptions must be present. dB-to-linear SNR
conversion happens here, once.
"""

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .channel import MarkovChannel, static_channel
from .errors import ConfigError
from .harq_model import HarqModel
from .lti_estimation import LtiSystem
from .simulator import SimConfig

__all__ = ["SolverSettings", "Config", "load_config"]


@dataclass(frozen=True)
class SolverSettings:
    omega_caps: tuple  # attempt caps per gain state; a static link's is (r_max,)
    q_max: int = 20
    tol: float = 1e-9
    max_iters: int = 100_000
    cost_mode: str = "mse"


@dataclass(frozen=True, eq=False)
class Config:
    system: LtiSystem
    harq: HarqModel
    channel: MarkovChannel
    is_static: bool
    solver: SolverSettings
    sim: SimConfig
    output_dir: str


def _parse_number(text: str, where: str, cast=float):
    """A float, or with cast=int an integral number such as 100, 1e4 or 20.0.
    An integer literal is read exactly, however large."""
    if cast is int:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {text!r}") from exc
    if cast is int and not value.is_integer():
        raise ConfigError(f"{where}: must be an integer, got {text!r}")
    return cast(value)


def _parse_vector(text: str, where: str, cast=float) -> np.ndarray:
    values = [_parse_number(tok, where, cast) for tok in text.replace(",", " ").split()]
    if not values:
        raise ConfigError(f"{where}: empty vector")
    return np.array(values)


def _parse_matrix(text: str, where: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError(f"{where}: empty matrix")
    parsed = [_parse_vector(row, where) for row in rows]
    width = len(parsed[0])
    if any(len(row) != width for row in parsed):
        raise ConfigError(f"{where}: ragged rows in {text!r}")
    return np.vstack(parsed)


class _Section:
    """Typed accessors with '[section] key' error locations."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.present = parser.has_section(name)
        self._section = parser[name] if self.present else {}

    def require(self, key: str) -> str:
        if key not in self._section:
            raise ConfigError(f"[{self.name}] {key}: required key is missing")
        return self._section[key]

    def get(self, key: str, default=None):
        return self._section.get(key, default)

    def has(self, key: str) -> bool:
        return key in self._section

    def number(self, key: str, default=None, cast=float):
        if default is not None and not self.has(key):
            return default
        return _parse_number(self.require(key), f"[{self.name}] {key}", cast)

    def matrix(self, key: str) -> np.ndarray:
        return _parse_matrix(self.require(key), f"[{self.name}] {key}")

    def vector(self, key: str, cast=float) -> np.ndarray:
        return _parse_vector(self.require(key), f"[{self.name}] {key}", cast)


def load_config(path) -> Config:
    # No interpolation: a value is read as written, so a "%" in it is not syntax.
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    system = _Section(parser, "system")
    if not system.present:
        raise ConfigError("[system] section is missing")
    try:
        lti = LtiSystem(
            A=system.matrix("A"),
            C=system.matrix("C"),
            Q_w=system.matrix("Q_w"),
            Q_v=system.matrix("Q_v"),
            Sigma0=system.matrix("Sigma0") if system.has("Sigma0") else None,
        )
    except ValueError as exc:
        raise ConfigError(f"[system]: {exc}") from exc

    harq_sec = _Section(parser, "harq")
    if not harq_sec.present:
        raise ConfigError("[harq] section is missing")
    scheme = harq_sec.require("scheme").lower()
    try:
        harq = HarqModel.from_db(
            scheme=scheme,
            snr_db=harq_sec.number("snr_db"),
            blocklength=harq_sec.number("blocklength", cast=int),
            rate=harq_sec.number("rate"),
        )
    except Exception as exc:
        raise ConfigError(f"[harq]: {exc}") from exc

    channel_sec = _Section(parser, "channel")
    if not channel_sec.present:
        raise ConfigError("[channel] section is missing")
    has_static = channel_sec.has("gain")
    has_markov = channel_sec.has("gains") or channel_sec.has("transition")
    if has_static == has_markov:
        raise ConfigError(
            "[channel]: exactly one of 'gain' (static) or 'gains' + 'transition' (Markov) "
            "must be present"
        )
    try:
        if has_static:
            channel = static_channel(channel_sec.number("gain"))
        else:
            channel = MarkovChannel(
                gains=tuple(channel_sec.vector("gains")),
                pi=channel_sec.matrix("transition"),
            )
    except Exception as exc:
        raise ConfigError(f"[channel]: {exc}") from exc

    solver_sec = _Section(parser, "solver")
    r_max = solver_sec.number("r_max", 20, cast=int)
    caps = (4,) * channel.size
    if has_static:
        if solver_sec.has("omega_caps"):
            raise ConfigError("[solver] omega_caps: a constant-gain link is capped by r_max alone")
        if r_max < 2:
            raise ConfigError("r_max must be at least 2")
        caps = (r_max,)
    elif solver_sec.has("omega_caps"):
        caps = tuple(solver_sec.vector("omega_caps", int).tolist())
        if len(caps) != channel.size or min(caps) < 1:
            raise ConfigError(
                f"[solver] omega_caps: need a cap of at least 1 per channel state, got {caps}"
            )
    solver = SolverSettings(
        omega_caps=caps,
        q_max=solver_sec.number("q_max", 20, cast=int),
        tol=solver_sec.number("tol", 1e-9),
        max_iters=solver_sec.number("max_iters", 100_000, cast=int),
        cost_mode=solver_sec.get("cost_mode", "mse").lower(),
    )
    # A tol of inf stops on the first sweep and nan never does.
    if not (math.isfinite(solver.tol) and solver.tol >= 0.0):
        raise ConfigError(f"[solver] tol must be finite and at least 0, got {solver.tol!r}")
    if solver.max_iters < 1:
        raise ConfigError(f"[solver] max_iters must be at least 1, got {solver.max_iters}")
    if solver.cost_mode not in ("mse", "delay"):
        raise ConfigError(f"[solver] cost_mode: must be 'mse' or 'delay', got {solver.cost_mode!r}")

    sim_sec = _Section(parser, "sim")
    initial = None
    if sim_sec.has("initial_channel"):
        initial = sim_sec.number("initial_channel", cast=int)
        if not 0 <= initial < channel.size:
            raise ConfigError(
                f"[sim] initial_channel: must lie in 0 .. {channel.size - 1}, "
                f"got {initial}"
            )
    try:
        sim = SimConfig(
            slots=sim_sec.number("slots", 10_000, cast=int),
            replicates=sim_sec.number("replicates", 1, cast=int),
            seed=sim_sec.number("seed", 0, cast=int),
            initial_channel=initial,
        )
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from exc

    output_sec = _Section(parser, "output")
    output_dir = output_sec.get("directory", "out")

    return Config(
        system=lti,
        harq=harq,
        channel=channel,
        is_static=has_static,
        solver=solver,
        sim=sim,
        output_dir=output_dir,
    )
