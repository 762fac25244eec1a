"""Spans around the calls into each harqest layer, recorded from outside the package.

`Tracer.install` replaces the package's public functions in the namespaces
that call them (for example `harqest.cli.build_static_mdp`, or
`harqest.simulator.conditional_error_prob` for the simulator's per-slot
lookups) with timing wrappers, and `uninstall` puts the originals back.
Nothing inside the package changes. A patch point the package no longer
has is skipped, so its metrics read 0.

Spans (name, start, end, parent, attributes) stay in memory until the run
writes them out. Calls made once per simulated slot or per grid cell
("hot" calls) are too many to keep one by one: they are summed per name
instead, and their time is charged to the enclosing span so that self
times stay right.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name, how the result is read)
_FUNCTIONS = [
    ("harqest.cli", "load_config", "config.load", None),
    ("harqest.cli", "solve_steady_state", "lti_estimation.kalman", None),
    ("harqest.cli", "build_cost_ladder", "lti_estimation.ladder", None),
    ("harqest.cli", "worst_retransmission_error_static", "harq_model.worst_error", None),
    ("harqest.cli", "worst_retransmission_error_markov", "harq_model.worst_error", None),
    ("harqest.cli", "build_static_mdp", "mdp_static.build", None),
    ("harqest.cli", "build_markov_mdp", "mdp_markov.build", "states"),
    ("harqest.cli", "solve_rvi", "mdp_core.rvi", "policy"),
    ("harqest.cli", "solve_rvi_markov", "mdp_core.rvi", "policy"),
    ("harqest.cli", "verify_switching", "mdp_static.switching", None),
    ("harqest.cli", "verify_switching_markov", "mdp_markov.switching", None),
    ("harqest.cli", "high_snr_optimal_static", "mdp_static.highsnr", None),
    ("harqest.cli", "high_snr_markov", "mdp_markov.highsnr", None),
    ("harqest.cli", "save_policy", "policy_io.save", None),
    ("harqest.cli", "load_policy", "policy_io.load", None),
    ("harqest.cli", "evaluate_policies", "simulator.evaluate", None),
    ("harqest.cli", "run", "simulator.run", "trace"),
    ("harqest.simulator", "run", "simulator.run", "trace"),
]
_HOT = [
    ("harqest.cli", "block_error_prob", "harq_model.error_prob"),
    ("harqest.simulator", "block_error_prob", "harq_model.error_prob"),
    ("harqest.simulator", "conditional_error_prob", "harq_model.error_prob"),
    ("harqest.mdp_static", "conditional_error_prob", "harq_model.error_prob"),
    ("harqest.mdp_markov", "conditional_error_prob", "harq_model.error_prob"),
    ("harqest.mdp_markov", "spectral_radius", "numerics.spectral_radius"),
    ("harqest.lti_estimation", "spectral_radius", "numerics.spectral_radius"),
    ("harqest.mdp_markov", "null_space_vector", "numerics.null_space"),
]
# (module, class, method, span name); CostLadder.extended is traced only
# when it really grows the ladder.
_METHODS = [
    ("harqest.lti_estimation", "CostLadder", "extended", "lti_estimation.ladder"),
    ("harqest.simulator", "SimulationTrace", "to_csv", "cli.trace_csv"),
]

SIM_KINDS = ("table", "delay_optimal_table", "myopic", "always_retransmit_psi", "no_retransmission")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, span_id, name, start, parent, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent.id if self.parent is not None else None,
            "attrs": self.attrs,
        }


class Tracer:
    """Span recorder; spans are opened by the benchmark and by the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._saved = []
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]

    # ------------------------------------------------------------ spans

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, time.perf_counter(), parent, attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def take(self):
        """Hand over the spans and hot counters recorded since the last take."""
        spans, hot = self.spans, dict(self.hot)
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0])
        return spans, hot

    # ------------------------------------------------------------ patching

    def install(self):
        for module_name, attr, name, reader in _FUNCTIONS:
            self._patch(importlib.import_module(module_name), attr, self._span_wrapper, name, reader)
        for module_name, attr, name in _HOT:
            self._patch(importlib.import_module(module_name), attr, self._hot_wrapper, name)
        for module_name, cls_name, method, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if method == "extended":
                self._patch(cls, method, self._grow_wrapper, name)
            else:
                self._patch(cls, method, self._span_wrapper, name, None)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, make, *args):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn, *args))

    def _span_wrapper(self, fn, name, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                if reader == "policy" and type(exc).__name__ == "ConvergenceError":
                    span.attrs["stop"] = "budget"
                    span.attrs["sweeps"] = kwargs.get("max_iters", 0)
                raise
            finally:
                tracer.close(span)
            if reader == "states":
                span.attrs["states"] = len(result.states)
            elif reader == "policy":
                span.attrs["stop"] = "tol" if result.converged else "plateau"
                span.attrs["sweeps"] = int(result.iterations)
            elif reader == "trace":
                spec = args[3] if len(args) > 3 else kwargs["policy"]
                span.attrs["kind"] = spec.kind
                span.attrs["slots"] = len(result.k)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = tracer.hot[name]  # take() rebinds tracer.hot
                entry[0] += 1
                entry[1] += elapsed
                if tracer._stack:
                    tracer._stack[-1].child_s += elapsed

        return wrapper

    def _grow_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ladder, new_depth, *args, **kwargs):
            if new_depth <= ladder.depth:
                return fn(ladder, new_depth, *args, **kwargs)
            span = tracer.open(name, grow=True)
            try:
                return fn(ladder, new_depth, *args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper


def write_spans(path, passes):
    """Write every traced pass's spans and hot counters as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, (spans, hot) in enumerate(passes):
            for span in spans:
                fh.write(json.dumps({"pass": number, **span.record()}) + "\n")
            fh.write(json.dumps({"pass": number, "hot": hot}) + "\n")


# ---------------------------------------------------------------- metrics


def _outermost(spans, name):
    """Spans called `name` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans, hot, requested_slots: int) -> dict:
    """Per-layer figures of one traced pass (set-up plus one round)."""

    def seconds(name):
        return sum(s.duration for s in _outermost(spans, name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    rvi = [s for s in spans if s.name == "mdp_core.rvi"]
    rvi_s = seconds("mdp_core.rvi")
    sweeps = sum(s.attrs.get("sweeps", 0) for s in rvi)
    runs = [s for s in spans if s.name == "simulator.run"]
    simulated = sum(s.attrs.get("slots", 0) for s in runs)
    cli_roots = [s for s in spans if s.name.startswith("cli.") and s.attrs.get("op")]
    m = {
        "config.load_s": seconds("config.load"),
        "lti_estimation.kalman_s": seconds("lti_estimation.kalman"),
        "lti_estimation.ladder_s": seconds("lti_estimation.ladder"),
        "lti_estimation.ladder_growths": sum(
            1 for s in _outermost(spans, "lti_estimation.ladder") if s.attrs.get("grow")
        ),
        "harq_model.error_prob_calls": hot.get("harq_model.error_prob", [0, 0.0])[0],
        "harq_model.error_prob_s": hot.get("harq_model.error_prob", [0, 0.0])[1],
        "harq_model.cache_misses": sum(s.attrs.get("cache_misses", 0) for s in cli_roots),
        "harq_model.worst_error_s": seconds("harq_model.worst_error"),
        "mdp_static.build_s": seconds("mdp_static.build"),
        "mdp_markov.build_s": seconds("mdp_markov.build"),
        "mdp_markov.states": attr_sum("mdp_markov.build", "states"),
        "mdp_static.switching_s": seconds("mdp_static.switching"),
        "mdp_markov.switching_s": seconds("mdp_markov.switching"),
        "mdp_static.highsnr_s": seconds("mdp_static.highsnr"),
        "mdp_markov.highsnr_s": seconds("mdp_markov.highsnr"),
        "mdp_core.rvi_s": rvi_s,
        "mdp_core.rvi_sweeps": sweeps,
        "mdp_core.rvi_us_per_sweep": rvi_s / sweeps * 1e6 if sweeps else 0.0,
        "mdp_core.rvi_tol_stops": sum(1 for s in rvi if s.attrs.get("stop") == "tol"),
        "mdp_core.rvi_plateau_stops": sum(1 for s in rvi if s.attrs.get("stop") == "plateau"),
        "mdp_core.rvi_budget_failures": sum(1 for s in rvi if s.attrs.get("stop") == "budget"),
        "numerics.spectral_radius_calls": hot.get("numerics.spectral_radius", [0, 0.0])[0],
        "numerics.spectral_radius_s": hot.get("numerics.spectral_radius", [0, 0.0])[1],
        "numerics.null_space_calls": hot.get("numerics.null_space", [0, 0.0])[0],
        "policy_io.save_s": seconds("policy_io.save"),
        "policy_io.load_s": seconds("policy_io.load"),
        "simulator.run_s": seconds("simulator.run"),
        "simulator.slots_simulated": simulated,
        "simulator.useful_slot_ratio": requested_slots / simulated if simulated else 0.0,
        "cli.trace_csv_s": seconds("cli.trace_csv"),
        "cli.output_bytes": sum(s.attrs.get("output_bytes", 0) for s in cli_roots),
        "cli.self_s": sum(s.duration - s.child_s for s in cli_roots),
    }
    for kind in SIM_KINDS:
        mine = [s for s in runs if s.attrs.get("kind") == kind]
        slots = sum(s.attrs.get("slots", 0) for s in mine)
        m[f"simulator.us_per_slot.{kind}"] = (
            sum(s.duration for s in mine) / slots * 1e6 if slots else 0.0
        )
    return m
