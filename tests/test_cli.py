import argparse
import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from reference import build_parser

from harqest import (
    build_cost_ladder,
    build_markov_mdp,
    check_stability_markov,
    load_policy,
    policy_average_cost,
    policy_iteration,
    solve_steady_state,
)
from harqest import cli
from harqest.cli import main
from harqest.config import load_config
from harqest.errors import ConfigError

STATIC_CFG = """
[system]
A = 2.4 0.2 ; 0.2 0.8
C = 1 1
Q_w = 1 0 ; 0 1
Q_v = 1

[harq]
scheme = cc
snr_db = 10
blocklength = 100
rate = 4

[channel]
gain = 2

[solver]
r_max = 8
q_max = 10

[sim]
slots = 1500
replicates = 3
seed = 11

[output]
directory = {out}
"""

MARKOV_CFG = """
[system]
A = 2.4 0.2 ; 0.2 0.8
C = 1 1
Q_w = 1 0 ; 0 1
Q_v = 1

[harq]
scheme = cc
snr_db = 10
blocklength = 100
rate = 4

[channel]
gains = 2 1
transition = 0.8 0.2 ; 0.2 0.8

[solver]
r_max = 8
q_max = 8
omega_caps = 3 3

[sim]
slots = 1500
replicates = 3
seed = 11

[output]
directory = {out}
"""


@pytest.fixture
def static_cfg(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "static.cfg"
    path.write_text(STATIC_CFG.format(out=out))
    return path, out


@pytest.fixture
def markov_cfg(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "markov.cfg"
    path.write_text(MARKOV_CFG.format(out=out))
    return path, out


class TestConfigLoading:
    def test_static_roundtrip(self, static_cfg):
        path, _ = static_cfg
        cfg = load_config(path)
        assert cfg.is_static
        assert cfg.harq.snr == pytest.approx(10.0)
        assert cfg.channel.gains == (2.0,)
        assert cfg.solver.omega_caps == (8,)
        assert cfg.sim.slots == 1500

    def test_markov_roundtrip(self, markov_cfg):
        path, _ = markov_cfg
        cfg = load_config(path)
        assert not cfg.is_static
        assert cfg.channel.gains == (2.0, 1.0)
        assert cfg.solver.omega_caps == (3, 3)

    def test_both_channel_kinds_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        both = "gain = 2\ngains = 2 1\ntransition = 0.8 0.2 ; 0.2 0.8"
        path.write_text(STATIC_CFG.format(out=tmp_path).replace("gain = 2", both))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_error_names_section_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(STATIC_CFG.format(out=tmp_path).replace("rate = 4", "rate = four"))
        with pytest.raises(ConfigError, match=r"\[harq\] rate"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_integral_numbers_load_in_any_float_spelling(self, tmp_path):
        path = tmp_path / "spelled.cfg"
        text = STATIC_CFG.format(out=tmp_path)
        text = text.replace("r_max = 8", "r_max = 8.0").replace("slots = 1500", "slots = 1.5e3")
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.solver.omega_caps == (8,)
        assert cfg.sim.slots == 1500

    @pytest.mark.parametrize(
        "spelling, seed",
        [("9007199254740993", 2**53 + 1), ("20.0", 20), ("1.5e3", 1500)],
        ids=["above-2**53", "point-zero", "exponent"],
    )
    def test_integer_key_loads_exactly(self, tmp_path, spelling, seed):
        # an integer literal is read as an int, not rounded through a float
        path = tmp_path / "seed.cfg"
        path.write_text(STATIC_CFG.format(out=tmp_path).replace("seed = 11", f"seed = {spelling}"))
        assert load_config(path).sim.seed == seed

    def test_fractional_integer_key_is_rejected(self, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text(STATIC_CFG.format(out=tmp_path).replace("seed = 11", "seed = 2.5"))
        with pytest.raises(ConfigError, match=r"\[sim\] seed: must be an integer, got '2.5'"):
            load_config(path)


class TestConfigErrors:
    """Malformed input ends `simulate` in a config error (exit 2) that names
    the key or the file, never in a traceback."""

    @staticmethod
    def simulate(tmp_path, line, replacement):
        """Exit code of `simulate` on STATIC_CFG with `line` replaced, and the file."""
        text = STATIC_CFG.format(out=tmp_path / "out")
        assert line in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(line, replacement, 1))
        return main(["simulate", "--config", str(path), "--policy", "psi"]), path

    @pytest.mark.parametrize(
        "line, replacement, message",
        [
            ("slots = 1500", "slots = 0", "[sim] slots must be at least 1"),
            ("replicates = 3", "replicates = 0", "[sim] replicates must be at least 1"),
            ("seed = 11", "seed = -1", "[sim] seed must be at least 0"),
            ("slots = 1500", "slots = 2.5", "[sim] slots: must be an integer, got '2.5'"),
            ("r_max = 8", "r_max = 1", "r_max must be at least 2"),
            ("slots = 1500", "slots = 5%", "[sim] slots: cannot parse '5%'"),
            ("r_max = 8", "r_max = 8\nomega_caps = 3",
             "[solver] omega_caps: a constant-gain link is capped by r_max alone"),
            ("snr_db = 10", "snr_db = 4000",
             "[harq]: snr_db = 4000.0 gives no finite positive linear SNR 10 ** (snr_db / 10)"),
            ("q_max = 10", "q_max = 10\ntol = inf", "[solver] tol must be finite and at least 0, got inf"),
            ("q_max = 10", "q_max = 10\ntol = nan", "[solver] tol must be finite and at least 0, got nan"),
            ("q_max = 10", "q_max = 10\ntol = -1e-9",
             "[solver] tol must be finite and at least 0, got -1e-09"),
            ("q_max = 10", "q_max = 10\nmax_iters = 0", "[solver] max_iters must be at least 1, got 0"),
            ("q_max = 10", "q_max = 10\nmax_iters = -5", "[solver] max_iters must be at least 1, got -5"),
            ("Q_v = 1", "Q_v = 1\nSigma0 = 1", "[system]: Sigma0 must be 2 x 2, got (1, 1)"),
        ],
        ids=[
            "zero-slots", "zero-replicates", "negative-seed", "fractional-slots", "r_max-1",
            "percent-sign", "omega_caps-on-constant-gain", "snr_db-overflow", "tol-inf", "tol-nan",
            "tol-negative", "max_iters-0", "max_iters-negative", "Sigma0-1x1",
        ],
    )
    def test_bad_value(self, tmp_path, capsys, line, replacement, message):
        assert self.simulate(tmp_path, line, replacement)[0] == 2
        assert f"config error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, replacement, detail",
        [
            ("seed = 11", "seed = 11\nseed = 12", "option 'seed' in section 'sim' already exists"),
            ("[output]", "[sim]\nslots = 5\n[output]", "section 'sim' already exists"),
            ("\n[system]", "x = 1\n[system]", "File contains no section headers."),
        ],
        ids=["repeated-key", "repeated-section", "no-section-header"],
    )
    def test_unparsable_file(self, tmp_path, capsys, line, replacement, detail):
        code, path = self.simulate(tmp_path, line, replacement)
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot parse config file {path}: " in err
        assert detail in err

    def test_negative_seed_option(self, static_cfg, capsys):
        path, _ = static_cfg
        argv = ["simulate", "--config", str(path), "--policy", "psi", "--seed", "-1"]
        assert main(argv) == 2
        assert "config error: --seed: seed must be at least 0" in capsys.readouterr().err

    def test_fractional_omega_cap(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        text = MARKOV_CFG.format(out=tmp_path)
        path.write_text(text.replace("omega_caps = 3 3", "omega_caps = 2.5 3"))
        assert main(["solve", "--config", str(path)]) == 2
        assert "config error: [solver] omega_caps: must be an integer, got '2.5'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ("stability", "solve", "highsnr"))
    @pytest.mark.parametrize(
        "caps, message",
        [
            ("0 0", "got (0, 0)"),
            ("3 -1", "got (3, -1)"),
            ("4 4 4", "got (4, 4, 4)"),
            ("4", "got (4,)"),
        ],
        ids=["zero-caps", "negative-cap", "three-caps", "one-cap"],
    )
    def test_bad_omega_caps(self, tmp_path, capsys, command, caps, message):
        # stability used to die in a traceback on caps of 0, and to give a
        # verdict for three caps on a two-state channel
        out = tmp_path / "out"
        path = tmp_path / "bad.cfg"
        text = MARKOV_CFG.format(out=out)
        path.write_text(text.replace("omega_caps = 3 3", f"omega_caps = {caps}"))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [solver] omega_caps: need a cap of at least 1 per channel state, {message}\n"
        )
        assert not out.exists()

    def test_r_max_below_two_stops_highsnr(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(STATIC_CFG.format(out=tmp_path).replace("r_max = 8", "r_max = 1"))
        assert main(["highsnr", "--config", str(path)]) == 2
        assert "config error: r_max must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--policy", "psi", "--compare", "psi"],
             "duplicate comparison labels: ['psi', 'psi']"),
            (["highsnr", "--theta-max", "0"], "--theta-max must be at least 1"),
            (["stability", "--grid-steps", "0"], "--grid-steps must be at least 1"),
            (["stability", "--grid-steps", "-1"], "--grid-steps must be at least 1"),
            (["stability", "--rho-sq", "2", "-1"],
             "--rho-sq values must be finite and nonnegative, got [2.0, -1.0]"),
            (["stability", "--rho-sq", "nan"],
             "--rho-sq values must be finite and nonnegative, got [nan]"),
            (["stability", "--rho-sq", "inf"],
             "--rho-sq values must be finite and nonnegative, got [inf]"),
        ],
        ids=[
            "duplicate-label", "theta-max-0", "grid-steps-0", "grid-steps-negative",
            "rho-sq-negative", "rho-sq-nan", "rho-sq-inf",
        ],
    )
    def test_bad_option(self, markov_cfg, capsys, argv, message):
        path, out = markov_cfg
        assert main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        # not even a header-only region grid
        assert not (out / "stability_region.csv").exists()

    @pytest.mark.parametrize("snr_db", [["1e308"], ["8.5", "1e308"]], ids=["alone", "after-a-cell"])
    def test_sweep_snr_beyond_float_range(self, static_cfg, capsys, snr_db):
        path, out = static_cfg
        assert main(["sweep", "--config", str(path), "--snr-db", *snr_db]) == 2
        assert capsys.readouterr().err == (
            "error: snr_db = 1e+308 gives no finite positive linear SNR 10 ** (snr_db / 10)\n"
        )
        assert not (out / "sweep.csv").exists()

    def test_sweep_checks_every_snr_before_it_solves(self, tmp_path, capsys):
        # 50 sweeps are too few for the 8.5 dB cells, but no cell is solved
        # while an SNR is refused.
        path = default_static_with(tmp_path, "budget_50.cfg", max_iters=50)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--snr-db", "8.5", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: snr_db = 1e+308 gives no finite positive linear SNR 10 ** (snr_db / 10)\n"
        )
        assert not (out / "sweep.csv").exists()

    def test_policy_files_with_one_basename(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        text = (out / "policy_static_mse.txt").read_text()
        copies = [out / name / "policy.txt" for name in ("a", "b")]
        for copy in copies:
            copy.parent.mkdir()
            copy.write_text(text)
        argv = ["simulate", "--config", str(path), "--policy", str(copies[0])]
        assert main([*argv, "--compare", str(copies[1])]) == 2
        assert capsys.readouterr().err == (
            "config error: duplicate comparison labels: ['policy', 'policy']\n"
        )

    def test_policy_cost_mode_other_than_mse_or_delay(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy = out / "policy_static_mse.txt"
        edited = out / "banana.txt"
        text = policy.read_text()
        assert "\ncost_mode = mse\n" in text
        edited.write_text(text.replace("\ncost_mode = mse\n", "\ncost_mode = banana\n"))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--policy", str(edited)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {edited}: cannot parse 'cost_mode' header 'banana'\n"
        )

    @pytest.mark.parametrize("command", ("stability", "solve", "highsnr", "sweep"))
    def test_seed_is_a_simulate_option_only(self, static_cfg, command):
        path, _ = static_cfg
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(path), "--seed", "3"])
        assert info.value.code == 2


class TestCliStability:
    def test_static(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["stability", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "stable: product < 1" in text
        assert "monotone decreasing: " in text and "at budget boundary: " in text
        assert (out / "stability.txt").exists()

    def test_markov_with_region(self, markov_cfg, capsys):
        path, out = markov_cfg
        assert main(["stability", "--config", str(path), "--grid-steps", "11"]) == 0
        assert "stable: product < 1" in capsys.readouterr().out
        grid = (out / "stability_region.csv").read_text().strip().splitlines()
        assert grid[0] == "lambda1,lambda2,rho_sq,stable"
        assert len(grid) == 1 + 4 * 11 * 11
        # the emitted grid carries the region nesting: faster-growing
        # processes leave strictly fewer stable cells
        counts = {}
        for line in grid[1:]:
            _, _, rho_sq, stable = line.split(",")
            counts[rho_sq] = counts.get(rho_sq, 0) + int(stable)
        ordered = [counts[key] for key in sorted(counts, key=float)]
        assert ordered == sorted(ordered, reverse=True)
        assert ordered[0] > ordered[-1] > 0

    def test_region_grid_matches_per_cell_check(self, markov_cfg):
        path, out = markov_cfg
        steps, rho_sq = 17, [1.5, 4.0]
        argv = ["stability", "--config", str(path), "--grid-steps", str(steps), "--rho-sq"]
        assert main(argv + [str(r) for r in rho_sq]) == 0
        pi = load_config(str(path)).channel.pi
        grid = np.linspace(0.0, 1.0, steps).tolist()
        expected = ["lambda1,lambda2,rho_sq,stable"] + [
            f"{l1!r},{l2!r},{r!r},{int(check_stability_markov(pi, [l1, l2], r).stable)}"
            for r in rho_sq for l1 in grid for l2 in grid
        ]
        lines = (out / "stability_region.csv").read_text().splitlines()
        assert lines == expected
        assert {line[-1] for line in lines[1:]} == {"0", "1"}

    def test_snr_override_drives_product_to_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "strong.cfg"
        path.write_text(STATIC_CFG.format(out=out).replace("snr_db = 10", "snr_db = 120"))
        assert main(["stability", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "Lambda0 = 0.000000e+00" in text
        assert "product = 0.000000e+00" in text

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "absent.cfg"
        assert main(["stability", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("command", ("stability", "solve"))
    def test_r_max_below_two_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        path = tmp_path / "short.cfg"
        path.write_text(STATIC_CFG.format(out=out).replace("r_max = 8", "r_max = 1"))
        assert main([command, "--config", str(path)]) == 2
        assert "config error: r_max must be at least 2" in capsys.readouterr().err


class TestCliSolveAndSimulate:
    def test_solve_writes_policy(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        assert "switching structure: pass" in capsys.readouterr().out
        policy = load_policy(out / "policy_static_mse.txt")
        assert (policy.grid.caps, policy.grid.q_max, policy.gains) == ((8,), 10, (2.0,))
        assert policy.grid.states[0] == ((1,), 1, 0)

    def test_solve_delay_mode(self, static_cfg):
        path, out = static_cfg
        assert main(["solve", "--config", str(path), "--cost", "delay"]) == 0
        policy = load_policy(out / "policy_static_delay.txt")
        assert policy.cost_mode == "delay"

    def test_roundtrip_solve_then_simulate(self, markov_cfg):
        path, out = markov_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_markov_mse.txt"
        original = load_policy(policy_path)
        code = main([
            "simulate", "--config", str(path),
            "--policy", str(policy_path), "--compare", "myopic", "psi",
        ])
        assert code == 0
        reloaded = load_policy(policy_path)
        np.testing.assert_array_equal(original.actions, reloaded.actions)
        summary = (out / "comparison.csv").read_text()
        assert "policy_markov_mse" in summary and "myopic" in summary and "psi" in summary

    def test_simulate_rejects_an_invalid_action(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_static_mse.txt"
        text = policy_path.read_text()
        assert "\n1|1|0 = 0\n" in text
        policy_path.write_text(text.replace("\n1|1|0 = 0\n", "\n1|1|0 = 7\n"))
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        assert "action must be 0 or 1, got '7'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, replacement",
        [("iterations = ", "iterations = many"), ("zeta = ", "zeta = abc"), ("omega_caps = ", "")],
    )
    def test_simulate_rejects_a_bad_header(self, static_cfg, capsys, line, replacement):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_static_mse.txt"
        lines = policy_path.read_text().splitlines(keepends=True)
        lines = [replacement + "\n" if row.startswith(line) else row for row in lines]
        policy_path.write_text("".join(lines))
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {policy_path}: " in err
        assert f"{line.split()[0]!r} header" in err

    def test_simulate_rejects_a_static_table_on_a_markov_link(
        self, static_cfg, markov_cfg, capsys
    ):
        static_path, static_out = static_cfg
        markov_path, _ = markov_cfg
        assert main(["solve", "--config", str(static_path)]) == 0
        policy_path = static_out / "policy_static_mse.txt"
        assert main(["simulate", "--config", str(markov_path), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: table was solved for 1 gain states, channel has 2" in err
        assert "Traceback" not in err

    def test_simulate_rejects_a_table_solved_for_other_gains(self, markov_cfg, tmp_path, capsys):
        path, out = markov_cfg
        assert main(["solve", "--config", str(path)]) == 0
        other = tmp_path / "other_gains.cfg"
        other.write_text(path.read_text().replace("gains = 2 1", "gains = 5 0.2"))
        policy_path = out / "policy_markov_mse.txt"
        assert main(["simulate", "--config", str(other), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert (
            "config error: table was solved for gains (2.0, 1.0), channel has (5.0, 0.2)" in err
        )
        assert not (out / "comparison.csv").exists()

    def test_simulate_rejects_a_static_table_solved_for_another_gain(
        self, static_cfg, tmp_path, capsys
    ):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        other = tmp_path / "weak.cfg"
        other.write_text(path.read_text().replace("gain = 2", "gain = 0.5"))
        policy_path = out / "policy_static_mse.txt"
        assert main(["simulate", "--config", str(other), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: table was solved for gains (2.0,), channel has (0.5,)" in err
        assert not (out / "comparison.csv").exists()

    def test_simulate_rejects_a_table_with_a_missing_state(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_static_mse.txt"
        text = policy_path.read_text()
        assert "\n1|1|0 = 0\n" in text
        policy_path.write_text(text.replace("\n1|1|0 = 0\n", "\n"))
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {policy_path}:12: expected state '1|1|0', found '1|2|0'\n" in err

    def test_simulate_rejects_a_table_out_of_solver_order(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_static_mse.txt"
        lines = policy_path.read_text().splitlines(keepends=True)
        assert lines[11:13] == ["1|1|0 = 0\n", "1|2|0 = 0\n"]
        lines[11:13] = lines[12], lines[11]
        policy_path.write_text("".join(lines))
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {policy_path}:12: expected state '1|1|0', found '1|2|0'\n" in err

    @pytest.mark.parametrize(
        "grid, states",
        [
            ("omega_caps = 8\nq_max = 1000000000000", 8 * 10**12 - 28),
            ("omega_caps = 1000000\nq_max = 1000000", 500000500000),
        ],
        ids=["q_max-1e12", "cap-1e6"],
    )
    def test_simulate_refuses_a_table_declaring_a_huge_grid(self, static_cfg, capsys, grid, states):
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "policy_static_mse.txt"
        head = policy_path.read_text().split("[actions]\n")[0]
        assert "\nomega_caps = 8\nq_max = 10\n" in head
        policy_path.write_text(head.replace("omega_caps = 8\nq_max = 10", grid) + "[actions]\n1|1|0 = 0\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {policy_path}: 1 action lines for the {states} grid states\n"
        )

    def test_simulate_rejects_a_label_with_a_comma(self, static_cfg, capsys):
        # comparison.csv separates its fields by commas, so a label may not hold one.
        path, out = static_cfg
        assert main(["solve", "--config", str(path)]) == 0
        policy_path = out / "opt,v2.txt"
        policy_path.write_text((out / "policy_static_mse.txt").read_text())
        assert main(["simulate", "--config", str(path), "--policy", str(policy_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: comparison labels must not hold a comma: ['opt,v2']\n"
        )
        assert not (out / "comparison.csv").exists()

    def test_simulate_missing_policy_file(self, static_cfg, tmp_path, capsys):
        path, _ = static_cfg
        missing = tmp_path / "missing.txt"
        assert main(["simulate", "--config", str(path), "--policy", str(missing)]) == 2
        assert f"config error: cannot read policy file {missing}" in capsys.readouterr().err

    def test_simulate_trace_deterministic(self, static_cfg):
        path, out = static_cfg
        assert main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        first = (out / "trace_psi_rep0.csv").read_bytes()
        assert main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        assert (out / "trace_psi_rep0.csv").read_bytes() == first

    def test_simulate_runs_each_replicate_once(self, static_cfg, monkeypatch):
        # the replicate-0 trace file comes from the evaluation itself
        import harqest.cli
        import harqest.simulator

        calls = []
        original = harqest.simulator.run

        def counting_run(*args, **kwargs):
            calls.append(kwargs.get("replicate", 0))
            return original(*args, **kwargs)

        monkeypatch.setattr(harqest.simulator, "run", counting_run)
        monkeypatch.setattr(harqest.cli, "run", counting_run, raising=False)
        path, out = static_cfg
        assert main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        assert sorted(calls) == [0, 1, 2]
        assert (out / "trace_psi_rep0.csv").exists()

    def test_simulate_divergence_exit_code(self, tmp_path):
        # a dead link grows the age every slot, overflowing the cost ladder
        out = tmp_path / "out"
        path = tmp_path / "dead.cfg"
        path.write_text(STATIC_CFG.format(out=out).replace("snr_db = 10", "snr_db = -90"))
        code = main(["simulate", "--config", str(path), "--policy", "no-retx"])
        assert code == 4

    def test_simulate_rejects_an_initial_channel_out_of_range(self, tmp_path, capsys):
        # the default fading link has gain indices 0 and 1
        default = Path(__file__).resolve().parent.parent / "configs" / "default_markov.cfg"
        text = default.read_text().replace("seed = 1\n", "seed = 1\ninitial_channel = 5\n")
        assert "initial_channel = 5" in text
        path = tmp_path / "markov.cfg"
        path.write_text(text.replace("directory = out", f"directory = {tmp_path / 'out'}"))
        assert main(["simulate", "--config", str(path), "--policy", "psi"]) == 2
        assert "config error: [sim] initial_channel: must lie in 0 .. 1, got 5" in (
            capsys.readouterr().err
        )

    def test_seed_override_changes_trace(self, static_cfg):
        path, out = static_cfg
        assert main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        base = (out / "trace_psi_rep0.csv").read_bytes()
        assert main(["simulate", "--config", str(path), "--policy", "psi", "--seed", "99"]) == 0
        assert (out / "trace_psi_rep0.csv").read_bytes() != base


class TestCliHighSnrAndSweep:
    def test_highsnr_static(self, static_cfg, capsys):
        path, out = static_cfg
        assert main(["highsnr", "--config", str(path), "--theta-max", "6"]) == 0
        text = capsys.readouterr().out
        # with fresh transmissions this reliable, retry a few times before
        # falling back to the guaranteed retransmission
        assert "theta_star = 4" in text
        assert (out / "highsnr.txt").exists()

    def test_highsnr_markov(self, markov_cfg, capsys):
        path, out = markov_cfg
        assert main(["highsnr", "--config", str(path), "--theta-max", "5"]) == 0
        assert "theta_star = (" in capsys.readouterr().out

    def test_sweep(self, static_cfg, capsys):
        path, out = static_cfg
        assert main([
            "sweep", "--config", str(path), "--snr-db", "10", "15", "--schemes", "cc",
        ]) == 0
        text = capsys.readouterr().out
        assert "all pass" in text
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "snr_db,scheme,zeta,iterations,switching"
        assert len(lines) == 3


def default_static_with(tmp_path, name, **values):
    """configs/default_static.cfg with the given [harq], [channel] and [solver] values."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "default_static.cfg").read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    path = tmp_path / name
    path.write_text(text)
    return path


class TestPeriodicOptimalChain:
    """A link whose fresh packets always fail and whose retransmissions
    deliver makes the optimal chain periodic. Undamped RVI cycled there: it
    returned the never-delivering all-fresh table (exact cost 480.07 on the
    6-state grid), or ran out of its 100000 sweeps on the 21-state grid."""

    def solve(self, tmp_path, **values):
        path = default_static_with(tmp_path, "periodic.cfg", scheme="ir", **values)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(path)
        ladder = build_cost_ladder(cfg.system, solve_steady_state(cfg.system), cfg.solver.q_max + 2)
        mdp = build_markov_mdp(cfg.harq, cfg.channel, ladder, cfg.solver.omega_caps, cfg.solver.q_max)
        return load_policy(out / "policy_static_mse.txt"), mdp

    def test_weak_gain_table_retransmits(self, tmp_path):
        policy, mdp = self.solve(tmp_path, gain=0.5, r_max=3, q_max=3)
        assert mdp.grid.n == 6
        assert policy.converged and policy.iterations < 100
        # states (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3): retransmit at ages 2 and 3
        assert policy.actions.tolist() == [0, 1, 1, 0, 0, 0]
        exact = policy_average_cost(mdp.core, policy.actions)
        assert exact == pytest.approx(281.74066626, rel=1e-9)
        assert abs(policy.zeta - exact) <= policy.span
        assert policy_iteration(mdp.core, policy.actions)[1] >= exact * (1.0 - 1e-9)

    def test_strong_gain_solve_converges(self, tmp_path):
        policy, mdp = self.solve(tmp_path, gain=1, snr_db=6.5, r_max=3, q_max=8)
        assert mdp.grid.n == 21
        assert policy.converged and policy.iterations < 100
        assert abs(policy.zeta - policy_average_cost(mdp.core, policy.actions)) <= policy.span


COMMANDS = ("stability", "solve", "simulate", "highsnr", "sweep")

# argvs the parser refuses or answers with help: one exit code, stdout and
# stderr each, compared with the reference parser's.
REFUSED_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"],
    *([command, "-h"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    ["simulate", "--config", "x"],
    ["solve", "--config", "x", "extra"],
    ["solve", "--config", "x", "--bogus", "1"],
    ["solve", "--config", "x", "--cost", "banana"],
    ["stability", "--config", "x", "--grid-steps", "two"],
    ["solve", "--config", "x", "--seed", "3"],
    # a command named past the first argument is reached through the listing parser
    ["-x", "solve", "--config", "x"],
    ["--", "solve", "--config", "x"],
    ["bogus", "solve", "--config", "x"],
]

VALID_ARGVS = [
    ["stability", "--config", "c"],
    ["stability", "--config", "c", "--out", "o", "--rho-sq", "2", "3.5", "--grid-steps", "7"],
    ["solve", "--config", "c", "--cost", "delay"],
    ["simulate", "--config", "c", "--policy", "myopic"],
    ["simulate", "--policy", "p.txt", "--config", "c", "--compare", "psi", "no-retx", "--seed", "4"],
    ["highsnr", "--config", "c", "--theta-max", "3"],
    ["sweep", "--config", "c", "--snr-db", "8.5", "--schemes", "ir"],
]


def _outcome(call, argv):
    """(exit code, stdout, stderr, result) of `call(argv)`; the exit code is
    None when it returns."""
    out, err = io.StringIO(), io.StringIO()
    code = result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


@pytest.fixture
def recorded(monkeypatch):
    """The namespaces `main` hands its handlers, each handler replaced by a recorder."""
    seen = []
    for command in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(vars(args)) or 0)
    return seen


class TestParserParity:
    @pytest.mark.parametrize("argv", REFUSED_ARGVS, ids=" ".join)
    def test_refused_or_help_as_the_reference_parser(self, argv, recorded):
        got = _outcome(main, argv)
        expected = _outcome(lambda a: build_parser().parse_args(a), argv)
        assert got[:3] == expected[:3]
        assert got[0] in (0, 2)
        assert not recorded

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_valid_call_parses_as_the_reference_parser(self, argv, recorded):
        code, out, err, rc = _outcome(main, argv)
        assert (code, out, err, rc) == (None, "", "", 0)
        assert recorded == [vars(build_parser().parse_args(argv))]

    def test_listing_names_every_command(self):
        code, out, _, _ = _outcome(main, ["-h"])
        assert code == 0
        assert "{stability,solve,simulate,highsnr,sweep}" in out
        assert all(f"    {command} " in out for command in COMMANDS)

    @pytest.mark.parametrize("argv, parsers", [
        (["solve", "--config", "c"], 1),
        (["solve", "--config", "c", "extra"], 7),
        (["-h"], 6),
    ], ids=["command", "leftover", "listing"])
    def test_builds_the_parsers_it_needs(self, monkeypatch, recorded, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _outcome(main, argv)
        assert len(built) == parsers
        assert built[0] == ("harqest" if argv[0] == "-h" else "harqest solve")
