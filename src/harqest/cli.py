"""Command-line front end.

Subcommands: stability, solve, simulate, highsnr, sweep. All output is
plain-text files for external plotting plus a stdout summary. Exit codes:
0 ok, 2 config error, 3 convergence failure, 4 divergence detected.

A call builds one parser, `harqest <command>`, for the command its first
argument names, from the one command table. The `harqest` parser that lists
every command is built only when the first argument names no command (no
arguments, `-h`, an unknown name) or to report arguments the command left
over; its entries carry no arguments of their own. Usage, help, errors and
exit codes are those of one parser with a subparser per command.
"""

import argparse
import os
import sys
from dataclasses import replace
from itertools import product

import numpy as np

from .channel import MarkovChannel
from .config import Config, load_config
from .errors import ConfigError, ConvergenceError, HarqestError
from .harq_model import HarqModel, LinkErrors, block_error_prob, worst_retransmission_error_markov
from .lti_estimation import build_cost_ladder, solve_steady_state
from .mdp_markov import (
    assemble_markov_cells,
    build_markov_mdp,
    check_stability_markov,
    high_snr_markov,
    solve_rvi_cells,
    solve_rvi_markov,
    verify_switching_markov,
)
from .numerics import spectral_radius
from .policy_io import load_policy, save_policy
from .simulator import PolicyEntry, PolicySpec, evaluate_policies

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DIVERGENCE = 4


def _prepare(args):
    cfg = load_config(args.config)
    out_dir = args.out if args.out is not None else cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir


def _ladder(cfg: Config):
    return build_cost_ladder(cfg.system, solve_steady_state(cfg.system), cfg.solver.q_max + 2)


def _solve(cfg: Config, harq: HarqModel, ladder, cost_mode: str):
    """Solve the truncated MDP; returns the policy and its switching report."""
    mdp = build_markov_mdp(harq, cfg.channel, ladder, cfg.solver.omega_caps, cfg.solver.q_max, cost_mode)
    policy = solve_rvi_markov(mdp, tol=cfg.solver.tol, max_iters=cfg.solver.max_iters)
    return policy, verify_switching_markov(policy)


def cmd_stability(args) -> int:
    if args.grid_steps < 1:
        raise ConfigError("--grid-steps must be at least 1")
    if not all(0.0 <= v < float("inf") for v in args.rho_sq):
        raise ConfigError(f"--rho-sq values must be finite and nonnegative, got {args.rho_sq}")
    cfg, out_dir = _prepare(args)
    caps = cfg.solver.omega_caps
    rho_sq = cfg.system.rho_squared
    lines = [f"rho^2(A) = {rho_sq:.6f}"]
    # A static round capped at r_max attempts buffers at most r_max - 1 of them.
    budget = caps[0] - 1 if cfg.is_static else sum(caps)
    link = LinkErrors(cfg.harq, cfg.channel.gains)
    lambdas = []
    for i in range(cfg.channel.size):
        worst = worst_retransmission_error_markov(link, i, budget)
        lambdas.append(worst.value)
        if cfg.is_static:
            monotone = all(b <= a for a, b in zip(worst.values, worst.values[1:]))
            name = "Lambda0"
            where = f"attempt {worst.argmax_counts[0] + 1}, monotone decreasing: {monotone}"
        else:
            name, where = f"Lambda_{i}", f"history {worst.argmax_counts}"
        boundary = worst.at_budget_boundary
        lines.append(f"{name} = {worst.value:.6e} ({where}, at budget boundary: {boundary})")
    report = check_stability_markov(cfg.channel.pi, lambdas, rho_sq)
    lines += [
        f"product = {report.product:.6e}",
        f"verdict = {'stable: product < 1' if report.stable else 'existence not guaranteed'}",
    ]
    if cfg.channel.size == 2:
        grid_path = os.path.join(out_dir, "stability_region.csv")
        _write_region_grid(cfg.channel, args.rho_sq, args.grid_steps, grid_path)
        lines.append(f"region sweep written to {grid_path}")
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out_dir, "stability.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return EXIT_OK


def _write_region_grid(ch: MarkovChannel, rho_sq_values, steps: int, path):
    """Verdict of `check_stability_markov` on every (lambda1, lambda2) cell,
    with the cells' radii taken in one stacked call and reused for each rho^2.
    Each cell's `lambda1,lambda2,` prefix is formatted once; a rho^2 block
    joins each prefix to one of its two `rho^2,verdict` ends."""
    grid = np.linspace(0.0, 1.0, steps)
    lambdas = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    radii = spectral_radius(ch.pi * lambdas[..., None, :])
    labels = [repr(value) for value in grid.tolist()]
    prefixes = [f"{l1},{l2}," for l1 in labels for l2 in labels]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda1,lambda2,rho_sq,stable\n")
        for rho_sq in rho_sq_values:
            ends = (f"{rho_sq!r},0\n", f"{rho_sq!r},1\n")
            stable = (radii * rho_sq < 1.0).ravel().tolist()
            fh.write("".join([prefix + ends[s] for prefix, s in zip(prefixes, stable)]))


def cmd_solve(args) -> int:
    cfg, out_dir = _prepare(args)
    cost_mode = args.cost if args.cost is not None else cfg.solver.cost_mode
    ladder = _ladder(cfg)
    policy, switching = _solve(cfg, cfg.harq, ladder, cost_mode)
    name = f"policy_{'static' if cfg.is_static else 'markov'}_{cost_mode}.txt"
    path = os.path.join(out_dir, name)
    save_policy(policy, path)
    print(f"states = {policy.grid.n}")
    print(f"zeta = {policy.zeta!r} (span {policy.span!r}, iterations {policy.iterations}, "
          f"converged {policy.converged})")
    print(f"switching structure: {'pass' if switching.passed else 'FAIL'}"
          + (f" ({len(switching.violations)} violations)" if not switching.passed else ""))
    print(f"policy written to {path}")
    return EXIT_OK


def _policy_spec(token: str) -> PolicyEntry:
    builtin = {
        "myopic": "myopic",
        "no-retx": "no_retransmission",
        "psi": "always_retransmit_psi",
    }
    if token in builtin:
        return PolicyEntry(label=token, spec=PolicySpec(kind=builtin[token]))
    table = load_policy(token)
    kind = "delay_optimal_table" if table.cost_mode == "delay" else "table"
    label = os.path.splitext(os.path.basename(token))[0]
    return PolicyEntry(label=label, spec=PolicySpec(kind=kind, table=table))


def cmd_simulate(args) -> int:
    cfg, out_dir = _prepare(args)
    try:
        sim = cfg.sim if args.seed is None else replace(cfg.sim, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from exc
    ladder = _ladder(cfg)
    entries = [_policy_spec(token) for token in (args.policy, *args.compare)]
    table = evaluate_policies(entries, cfg.harq, cfg.channel, ladder, sim)
    trace = table.first_trace
    trace_path = os.path.join(out_dir, f"trace_{entries[0].label}_rep0.csv")
    trace.to_csv(trace_path)
    print(f"replicate-0 trace written to {trace_path}"
          + (f" (diverged at slot {trace.diverged_slot})" if trace.diverged else ""))
    table_path = os.path.join(out_dir, "comparison.csv")
    table.to_csv(table_path)
    for row in table.rows:
        detail = f"{row.mean!r} +- {row.stderr!r}" if not row.n_diverged else "diverged"
        print(f"  {row.label}: {detail} ({sim.replicates} replicates)")
    # Entries that shared every replicate carry equal trajectories: format each once.
    carriers = {}
    for label, trajectory in table.trajectories.items():
        carriers.setdefault(trajectory.tobytes(), []).append(label)
    for labels in carriers.values():
        trajectory = table.trajectories[labels[0]].tolist()
        text = "".join(["k,mean_running_avg\n"] + [
            f"{k},{value!r}\n" for k, value in enumerate(trajectory, start=1)
        ])
        for label in labels:
            with open(os.path.join(out_dir, f"trajectory_{label}.csv"), "w", encoding="utf-8") as fh:
                fh.write(text)
    print(f"comparison written to {table_path}")
    return EXIT_DIVERGENCE if any(row.n_diverged for row in table.rows) else EXIT_OK


def cmd_highsnr(args) -> int:
    if args.theta_max < 1:
        raise ConfigError("--theta-max must be at least 1")
    cfg, out_dir = _prepare(args)
    ladder = _ladder(cfg)
    lambda_primes = tuple(block_error_prob(cfg.harq, (g,)) for g in cfg.channel.gains)
    result = high_snr_markov(ladder, cfg.channel, lambda_primes, args.theta_max)
    if cfg.is_static:
        lines = [
            f"lambda_prime = {lambda_primes[0]!r}",
            f"theta_star = {result.theta_star[0]}",
            f"zeta_star = {result.zeta_star!r}",
        ]
        lines += [f"zeta({t}) = {z!r}" for (t,), z in result.evaluated.items()]
    else:
        lines = [
            f"lambda_primes = {lambda_primes!r}",
            f"theta_star = {result.theta_star}",
            f"zeta_star = {result.zeta_star!r}",
            f"evaluated = {len(result.evaluated)} threshold vectors",
        ]
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out_dir, "highsnr.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Solve every (SNR, scheme) cell on the config's grid in one lockstep
    RVI, then check each cell's table in cell order. Every cell's link is
    built before any solve, so an SNR the model refuses fails first."""
    cfg, out_dir = _prepare(args)
    ladder = _ladder(cfg)
    cells = list(product(args.snr_db, args.schemes))
    models = [HarqModel.from_db(scheme, snr_db, cfg.harq.blocklength, cfg.harq.rate) for snr_db, scheme in cells]
    links = [LinkErrors(model, cfg.channel.gains).attempt for model in models]
    mdps = assemble_markov_cells(links, cfg.channel, ladder, cfg.solver.omega_caps, cfg.solver.q_max, "mse")
    rows = []
    all_pass = True
    policies = solve_rvi_cells(mdps, tol=cfg.solver.tol, max_iters=cfg.solver.max_iters)
    for (snr_db, scheme), policy in zip(cells, policies):
        switching = verify_switching_markov(policy)
        verdict = "pass" if switching.passed else f"FAIL({len(switching.violations)})"
        rows.append((snr_db, scheme, policy.zeta, policy.iterations, verdict))
        all_pass = all_pass and switching.passed
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("snr_db,scheme,zeta,iterations,switching\n")
        for snr_db, scheme, zeta, iterations, verdict in rows:
            line = f"{snr_db!r},{scheme},{zeta!r},{iterations},{verdict}"
            fh.write(line + "\n")
            print(line)
    print(f"switching verification: {'all pass' if all_pass else 'violations found'}")
    return EXIT_OK


# Every command takes these first; a command table entry adds its own.
_COMMON = (
    ("--config", {"required": True, "help": "path to the config file"}),
    ("--out", {"default": None, "help": "output directory (default from config)"}),
)


def _commands() -> dict:
    """name -> (handler, help, arguments), the one table every parser is built
    from. An argument is (flag, add_argument keywords). Built per call, so no
    two calls share a default list."""
    return {
        "stability": (cmd_stability, "bounded-MSE existence check and stability region sweep", (
            ("--rho-sq", {"type": float, "nargs": "+", "default": [1.1, 2.0, 3.0, 5.0],
                          "help": "squared spectral radii for the region sweep grid"}),
            ("--grid-steps", {"type": int, "default": 51, "help": "region sweep resolution per axis"}),
        )),
        "solve": (cmd_solve, "solve the transmission-control MDP", (
            ("--cost", {"choices": ["mse", "delay"], "default": None, "help": "override cost mode"}),
        )),
        "simulate": (cmd_simulate, "Monte Carlo policy evaluation", (
            ("--policy", {"required": True, "help": "policy file, or one of: myopic, no-retx, psi"}),
            ("--compare", {"nargs": "*", "default": [], "help": "additional policies for the comparison table"}),
            ("--seed", {"type": int, "default": None, "help": "override the simulation seed"}),
        )),
        "highsnr": (cmd_highsnr, "perfect-retransmission threshold optimization", (
            ("--theta-max", {"type": int, "default": 8, "help": "threshold search bound"}),
        )),
        "sweep": (cmd_sweep, "solve + switching verification over SNR and scheme", (
            ("--snr-db", {"type": float, "nargs": "+", "default": [5.0, 10.0, 15.0]}),
            ("--schemes", {"nargs": "+", "choices": ["cc", "ir"], "default": ["cc", "ir"]}),
        )),
    }


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> argparse.ArgumentParser:
    for flag, keywords in _COMMON + arguments:
        parser.add_argument(flag, **keywords)
    return parser


def _listing_parser(commands: dict, argv) -> argparse.ArgumentParser:
    """The `harqest` parser that lists the commands. A command's entry gets its
    arguments only when `argv` names it, since only then can parsing reach it."""
    parser = argparse.ArgumentParser(
        prog="harqest",
        description="Retransmit-or-refresh transmission control for remote estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in commands.items():
        entry = sub.add_parser(name, help=help_text)
        if name in argv:
            _add_arguments(entry, arguments)
    return parser


def _parse_args(argv: list, commands: dict) -> argparse.Namespace:
    """Parse with the parser of the command `argv[0]` names alone; the listing
    parser is built when `argv[0]` names none, and to report leftovers as
    `harqest: error: unrecognized arguments: ...`."""
    name = argv[0] if argv else None
    if name not in commands:
        return _listing_parser(commands, argv).parse_args(argv)
    parser = _add_arguments(argparse.ArgumentParser(prog=f"harqest {name}"), commands[name][2])
    args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if extras:
        _listing_parser(commands, ()).error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    commands = _commands()
    args = _parse_args(sys.argv[1:] if argv is None else list(argv), commands)
    try:
        return commands[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except HarqestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
