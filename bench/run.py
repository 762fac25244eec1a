"""harqest benchmark: one workload of CLI calls, timed, traced and checked.

    python3 bench/run.py --workload compare --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Every call goes through `harqest.cli.main(argv)` in this process,
with configs generated from the seed, and writes under `.bench_out/`.

A run makes as many whole passes as fit in `--seconds` (at least one, two
when traced). A pass is the set-up (config files and the policy solves a
workload's simulations read) followed by one round of the workload's
measured calls. After the first pass every output is checked against the
benchmark's oracle; later passes must reproduce the first one byte for byte.

Times of end-to-end metrics are speed-normalized: before each pass the
run times `reference_kernel`, a fixed mix of interpreter and small-numpy work
that does not touch the package, and scales the pass's times by
REFERENCE_SECONDS over that time. On a 2-CPU machine whose cores are shared
with other work, speed drifted by up to 60% from one minute to the next;
the scaled times follow the package's own cost instead. Raw times are
printed and kept in `result.json`.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes traced through `tracing.Tracer` and reports the
per-layer metrics, the per-subcommand times of the untraced passes and the
tracing overhead. The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ANALYSIS = ("stability", "highsnr")
# Seconds the reference kernel takes on an uncontended 2-CPU machine (the one
# bench/README.md reports figures for); it only sets the scale of the
# normalized times.
REFERENCE_SECONDS = 0.1
# Fresh interpreters that time `import harqest.cli`, as a CLI user pays it.
IMPORT_SAMPLES = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import harqest.cli; print(time.perf_counter() - start)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel() -> float:
    """Time a fixed workload that resembles the package's: dict and tuple
    work in the interpreter, then small gather-and-reduce numpy sweeps."""
    start = time.perf_counter()
    counts = {}
    total = 0.0
    for i in range(200_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += (i * 1.000001) % 7.0
    values = np.zeros(64)
    weights = np.full((64, 4), 0.25)
    successors = (np.arange(256) * 7 % 64).reshape(64, 4)
    for _ in range(6000):
        values = np.einsum("sk,sk->s", weights, values[successors]) + 1.0
        values = values - values.min()
    return time.perf_counter() - start


class Pass:
    __slots__ = ("traced", "reference_s", "setup_s", "results")

    def __init__(self, traced, reference_s, setup_s, results):
        self.traced = traced
        self.reference_s = reference_s
        self.setup_s = setup_s
        self.results = results

    @property
    def scale(self) -> float:
        return REFERENCE_SECONDS / self.reference_s


class OpResult:
    __slots__ = ("rc", "seconds", "fingerprint")

    def __init__(self, rc, seconds, fingerprint):
        self.rc = rc
        self.seconds = seconds
        self.fingerprint = fingerprint


class Runner:
    """Runs a workload's passes against one imported harqest."""

    def __init__(self, cli, harq_model, workload, workdir, tracer):
        self.cli = cli
        self.cache = getattr(harq_model, "_block_error", None)
        self.workload = workload
        self.tracer = tracer
        self.config_dir = os.path.join(workdir, "configs")
        self.setup_dir = os.path.join(workdir, "setup")
        self.ops_dir = os.path.join(workdir, "ops")

    def argv(self, op, out_dir):
        argv = [op.command, "--config", os.path.join(self.config_dir, f"{op.setting.name}.cfg"),
                "--out", out_dir, *op.args]
        if op.policies:
            tokens = [os.path.join(self.setup_dir, t[1:]) if t.startswith("@") else t
                      for t in op.policies]
            argv += ["--policy", tokens[0], "--compare", *tokens[1:]]
        return argv

    def call(self, op, out_dir, traced) -> OpResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        # Each CLI call starts with a cold block-error cache, as it would
        # in a process of its own.
        if hasattr(self.cache, "cache_clear"):
            self.cache.cache_clear()
        argv = self.argv(op, out_dir)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(f"cli.{op.command}", op=op.name) if traced else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an escaped exception is reported as this op's failure
            rc = f"exception: {traceback.format_exc(limit=3)}"
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        digest = hashlib.sha256(f"{rc}\n{out.getvalue()}\n{err.getvalue()}".encode())
        size = 0
        for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
            path = os.path.join(out_dir, name)
            size += os.path.getsize(path)
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
        if span is not None:
            span.attrs["output_bytes"] = size
            if hasattr(self.cache, "cache_info"):
                span.attrs["cache_misses"] = self.cache.cache_info().misses
        return OpResult(rc, elapsed, digest.hexdigest())

    def one_pass(self, traced):
        """Set-up plus one round; returns (setup seconds, {op: OpResult})."""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            setup_span = self.tracer.open("setup") if traced else None
            os.makedirs(self.config_dir, exist_ok=True)
            for setting in self.workload.settings:
                with open(os.path.join(self.config_dir, f"{setting.name}.cfg"), "w", encoding="utf-8") as fh:
                    fh.write(setting.text())
            setup_s = time.perf_counter() - start
            results = {}
            for op in self.workload.setup:
                results[op.name] = res = self.call(op, os.path.join(self.setup_dir, op.name), traced)
                setup_s += res.seconds
            if setup_span is not None:
                self.tracer.close(setup_span)
            round_span = self.tracer.open("round") if traced else None
            for op in self.workload.ops:
                results[op.name] = self.call(op, os.path.join(self.ops_dir, op.name), traced)
            if round_span is not None:
                self.tracer.close(round_span)
        finally:
            if traced:
                self.tracer.uninstall()
        return setup_s, results


def _subcommand_seconds(workload, results) -> dict:
    def total(commands):
        return sum(results[op.name].seconds for op in workload.ops if op.command in commands)

    simulate_s = total(("simulate",))
    requested = sum(op.requested_slots for op in workload.ops)
    return {
        "simulate_s": simulate_s,
        "sim_slots_per_s": requested / simulate_s if simulate_s else 0.0,
        "solve_s": total(("solve",)),
        "sweep_s": total(("sweep",)),
        "analysis_s": total(ANALYSIS),
    }


def _round_seconds(workload, results) -> float:
    return sum(results[op.name].seconds for op in workload.ops)


def _import_seconds() -> float:
    """Median import time of the package over fresh interpreters."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _verdicts(workload, first, runner, ref):
    """Check the first pass: ({op: (tag, failures)}, unexpected failures, notes)."""
    verdicts, unexpected, notes = {}, [], []
    for op in workload.setup:
        if first[op.name].rc != 0:
            unexpected.append(f"set-up {op.name}: exit code {first[op.name].rc}")
    for op in workload.ops:
        out_dir = os.path.join(runner.ops_dir, op.name)
        try:
            fails = checks.check(op, first[op.name].rc, out_dir, runner.setup_dir, ref)
        except Exception:  # a check that cannot read the output fails the op
            fails = [("unreadable", traceback.format_exc(limit=2).strip().splitlines()[-1])]
        notes += [f"{op.name}: {msg}" for cid, msg in fails if cid in checks.NOTES]
        fails = [(cid, msg) for cid, msg in fails if cid not in checks.NOTES]
        tag, allowed = workloads.KNOWN_FAULTS.get(op.name, (None, set()))
        if fails and tag and {cid for cid, _ in fails} <= allowed:
            verdicts[op.name] = (tag, fails)
        elif fails:
            verdicts[op.name] = (None, fails)
            unexpected += [f"{op.name} [{cid}]: {msg}" for cid, msg in fails]
        else:
            verdicts[op.name] = (None, [])
            if tag:
                notes.append(f"{op.name} no longer shows known fault {tag}")
    return verdicts, unexpected, notes


def _load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = _parse(argv)
    end_to_end_units, per_layer_units = _load_metric_units()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import harqest.cli as cli
        import harqest.harq_model as harq_model
    except ImportError as exc:
        print(f"cannot import harqest from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"harqest was imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(ROOT, ".bench_out", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = tracing.Tracer()
    runner = Runner(cli, harq_model, workload, workdir, tracer)
    ref = checks.Reference()

    passes = []
    traced_passes = []  # (spans, hot) per traced pass
    mismatches = []
    verdicts = unexpected = None
    checking_s = 0.0
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        reference_s = reference_kernel()
        setup_s, results = runner.one_pass(traced)
        passes.append(Pass(traced, reference_s, setup_s, results))
        if traced:
            traced_passes.append(tracer.take())
        if verdicts is None:
            t = time.perf_counter()
            verdicts, unexpected, notes = _verdicts(workload, results, runner, ref)
            checking_s += time.perf_counter() - t
        else:
            first = passes[0].results
            mismatches += [f"pass {len(passes)}: {name} output differs from pass 1"
                           for name, res in results.items()
                           if res.fingerprint != first[name].fingerprint]
        # Stop before a pass that would end past the measuring time.
        measured = time.perf_counter() - loop_start - checking_s
        longest = max(p.reference_s + p.setup_s + _round_seconds(workload, p.results) for p in passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if measured + longest > args.seconds and enough:
            break

    rounds = len(passes)
    failed_per_round = sum(1 for tag, fails in verdicts.values() if fails)
    attempted = len(workload.ops) * rounds
    failed = failed_per_round * rounds
    problems = unexpected + mismatches
    correct = not problems

    untraced = [p for p in passes if not p.traced]
    sub = {k: statistics.median(_subcommand_seconds(workload, p.results)[k] for p in untraced)
           for k in ("simulate_s", "sim_slots_per_s", "solve_s", "sweep_s", "analysis_s")}
    if args.trace:
        def pass_s(runs):
            return statistics.median((p.setup_s + _round_seconds(workload, p.results)) * p.scale
                                     for p in runs)

        requested = sum(op.requested_slots for op in workload.ops)
        layer = [tracing.layer_metrics(spans, hot, requested) for spans, hot in traced_passes]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values.update(sub)
        values["trace.overhead"] = pass_s([p for p in passes if p.traced]) / pass_s(untraced) - 1.0
        tracing.write_spans(os.path.join(workdir, "spans.jsonl"), traced_passes)
        units = per_layer_units
    else:
        import_s = _import_seconds()
        import_scale = REFERENCE_SECONDS / reference_kernel()
        raw = {
            "setup_s": import_s + statistics.median(p.setup_s for p in passes),
            "wall_s": statistics.median(_round_seconds(workload, p.results) for p in passes),
        }
        values = {
            "setup_s": import_s * import_scale + statistics.median(p.setup_s * p.scale for p in passes),
            "wall_s": statistics.median(_round_seconds(workload, p.results) * p.scale for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {rounds} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in raw.items():
            print(f"  {name} = {value:.6g} s before speed normalization")
        for name, value in sub.items():
            if value:
                print(f"  {name} = {value:.6g} {per_layer_units[name]} (per round, median)")
    for name, (tag, fails) in verdicts.items():
        for cid, msg in fails:
            print(f"  failed {tag or 'UNEXPECTED'} {name} [{cid}]: {msg}")
    for problem in mismatches:
        print(f"  UNEXPECTED {problem}")
    for note in notes:
        print(f"  note: {note}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "passes": rounds,
        "problems": problems, "notes": notes,
        "ops": {name: {"tag": tag, "failures": fails} for name, (tag, fails) in verdicts.items()},
        "fingerprints": {name: res.fingerprint for name, res in passes[0].results.items()},
        "pass_seconds": [{"traced": p.traced, "reference_s": p.reference_s, "setup_s": p.setup_s,
                          **{n: r.seconds for n, r in p.results.items()}} for p in passes],
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
