import re
import time
import tracemalloc

import numpy as np
import pytest

from harqest import (
    ConfigError,
    build_markov_mdp,
    load_policy,
    save_policy,
    solve_rvi_markov,
    static_channel,
)

# The header of a valid two-gain policy file, up to its action lines.
HEADER = (
    "kind = markov\ncost_mode = mse\nzeta = 1.0\nspan = 0.0\niterations = 1\n"
    "converged = true\nomega_caps = 1,1\nq_max = 2\ngains = 2.0,1.0\n[actions]\n"
)
# A valid two-gain file: HEADER, then its grid in solver order; the key
# 1,1|2|0 is on line 19.
TWO_GAIN = HEADER + "".join(
    f"{key} = 0\n"
    for key in (
        "0,1|1|0", "0,1|1|1", "0,1|2|0", "0,1|2|1", "1,0|1|0",
        "1,0|1|1", "1,0|2|0", "1,0|2|1", "1,1|2|0", "1,1|2|1",
    )
)
# Two valid one-state files: a constant-gain table with attempts capped at
# 2, and the smallest grid.
FILES = {
    "static": (
        "kind = markov\ncost_mode = mse\nzeta = 1.0\nspan = 0.0\niterations = 1\n"
        "converged = true\nomega_caps = 2\nq_max = 2\ngains = 2.0\n[actions]\n"
        "1|1|0 = 0\n1|2|0 = 0\n2|2|0 = 1\n"
    ),
    "markov": (
        "kind = markov\ncost_mode = mse\nzeta = 1.0\nspan = 0.0\niterations = 1\n"
        "converged = false\nomega_caps = 1\nq_max = 1\ngains = 2.0\n[actions]\n1|1|0 = 0\n"
    ),
}
# One-line files whose headers declare grids of 10**12 and about 2 * 10**18
# states; the line is each grid's first state. With the state count of each.
HUGE = {
    "q_max-1e12": (
        HEADER.replace("omega_caps = 1,1\nq_max = 2\ngains = 2.0,1.0", "omega_caps = 1\nq_max = "
                       "1000000000000\ngains = 2.0") + "1|1|0 = 0\n",
        10**12,
    ),
    "caps-1e6": (
        HEADER.replace("omega_caps = 1,1\nq_max = 2", "omega_caps = 1000000,1000000\nq_max = 2000000")
        + "0,1|1|0 = 0\n",
        2000006000002000000,
    ),
}


@pytest.fixture(scope="module")
def static_policy(cc_model, ref_ladder):
    mdp = build_markov_mdp(cc_model, static_channel(2.0), ref_ladder, (6,), 8, "mse")
    return solve_rvi_markov(mdp)


@pytest.fixture(scope="module")
def markov_policy(cc_model, ref_channel, ref_ladder):
    return solve_rvi_markov(build_markov_mdp(cc_model, ref_channel, ref_ladder, (2, 2), 6, "mse"))


class TestRoundTrip:
    def test_static_lossless(self, static_policy, tmp_path):
        path = tmp_path / "static.policy"
        save_policy(static_policy, path)
        loaded = load_policy(path)
        assert loaded.grid.states == static_policy.grid.states
        np.testing.assert_array_equal(loaded.actions, static_policy.actions)
        assert loaded.zeta == static_policy.zeta
        assert loaded.span == static_policy.span
        assert loaded.iterations == static_policy.iterations
        assert loaded.cost_mode == static_policy.cost_mode
        assert (loaded.grid.caps, loaded.grid.q_max, loaded.gains) == ((6,), 8, (2.0,))

    def test_markov_lossless(self, markov_policy, tmp_path):
        path = tmp_path / "markov.policy"
        save_policy(markov_policy, path)
        loaded = load_policy(path)
        assert loaded.grid.states == markov_policy.grid.states
        np.testing.assert_array_equal(loaded.actions, markov_policy.actions)
        assert (loaded.grid.caps, loaded.gains) == ((2, 2), (2.0, 1.0))

    def test_re_export_byte_identical(self, static_policy, markov_policy, tmp_path):
        for name, policy in (("s", static_policy), ("m", markov_policy)):
            first = tmp_path / f"{name}1.policy"
            second = tmp_path / f"{name}2.policy"
            save_policy(policy, first)
            save_policy(load_policy(first), second)
            assert first.read_bytes() == second.read_bytes()


class TestLoadErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text("kind = markov\n[actions]\n1|1|0 = 0\n")
        with pytest.raises(ConfigError):
            load_policy(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text(
            "kind = fancy\ncost_mode = mse\nzeta = 1.0\nspan = 0.0\niterations = 1\n"
            "converged = true\nq_max = 2\n[actions]\n1|1|0 = 0\n"
        )
        with pytest.raises(ConfigError):
            load_policy(path)

    def test_static_layout_is_an_unknown_kind(self, tmp_path):
        # Files of the retired (r, q) layout must be solved again.
        path = tmp_path / "old.policy"
        path.write_text(FILES["static"].replace("kind = markov", "kind = static"))
        with pytest.raises(ConfigError, match="unknown policy kind 'static'"):
            load_policy(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text("kind static\n")
        with pytest.raises(ConfigError):
            load_policy(path)

    @pytest.mark.parametrize("value", ["7", "-1", "2", "0.5", "one", ""])
    def test_action_other_than_0_or_1(self, tmp_path, value):
        path = tmp_path / "broken.policy"
        path.write_text(HEADER + f"1,1|2|0 = {value}\n")
        with pytest.raises(ConfigError, match="action must be 0 or 1"):
            load_policy(path)

    @pytest.mark.parametrize("second", ["1,1", "1, 1", "01,1"])
    def test_duplicate_state(self, tmp_path, second):
        # `second` spells the attempt counts (1, 1) of the first line's state;
        # that line is already not the grid's first state, so loading stops there.
        path = tmp_path / "broken.policy"
        path.write_text(HEADER + f"1,1|2|0 = 0\n{second}|2|0 = 1\n")
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}:11: expected state '0,1|1|0', found '1,1|2|0'"

    def test_bad_state_key(self, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text(HEADER + "1|1 = 0\n")
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}:11: expected state '0,1|1|0', found '1|1'"

    @pytest.mark.parametrize("spelling", ["1, 1|2|0", "01,1|2|0"])
    def test_key_spelled_another_way(self, tmp_path, spelling):
        # Only the key save_policy writes names a state.
        path = tmp_path / "broken.policy"
        path.write_text(TWO_GAIN.replace("1,1|2|0 =", f"{spelling} ="))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}:19: expected state '1,1|2|0', found {spelling!r}"

    def test_gains_count_must_match_the_caps(self, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text(TWO_GAIN.replace("gains = 2.0,1.0", "gains = 2.0"))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}: 1 gains for 2 omega caps"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read policy file"):
            load_policy(tmp_path / "missing.txt")

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("static", "iterations", "many"),
            ("static", "zeta", "abc"),
            ("static", "span", "wide"),
            ("static", "converged", "yes"),
            ("static", "converged", "True"),
            ("static", "omega_caps", "two"),
            ("static", "q_max", "2.5"),
            ("static", "cost_mode", "banana"),
            ("markov", "cost_mode", "MSE"),
            ("markov", "omega_caps", "1,x"),
            ("markov", "gains", "2.0;1.0"),
        ],
    )
    def test_header_that_does_not_parse(self, tmp_path, kind, key, value):
        path = tmp_path / "broken.policy"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", FILES[kind], flags=re.M))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}: cannot parse {key!r} header {value!r}"

    @pytest.mark.parametrize(
        "kind, key", [("static", "omega_caps"), ("markov", "omega_caps"), ("markov", "gains")]
    )
    def test_missing_kind_specific_header(self, tmp_path, kind, key):
        path = tmp_path / "broken.policy"
        path.write_text(re.sub(rf"^{key} = .*\n", "", FILES[kind], flags=re.M))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}: missing {key!r} header"

    @pytest.mark.parametrize(
        "kind, old, new, message",
        [
            pytest.param(
                "static", "1|2|0 = 0\n", "",
                ":12: expected state '1|2|0', found '2|2|0'", id="static-missing",
            ),
            pytest.param(
                "static", "q_max = 2", "q_max = 3",
                ":13: expected state '1|3|0', found '2|2|0'", id="static-q_max-large",
            ),
            pytest.param(
                "markov", "1|1|0 = 0\n", "",
                ": 0 action lines for the 1 grid states", id="markov-none",
            ),
            pytest.param(
                "static", "2|2|0 = 1\n", "2|2|0 = 1\n2|2|0 = 1\n",
                ": 4 action lines for the 3 grid states", id="static-extra-line",
            ),
            pytest.param(
                "static", "2|2|0 = 1", "2|1|0 = 1",
                ":13: expected state '2|2|0', found '2|1|0'", id="static-q-below-r",
            ),
            pytest.param(
                "static", "2|2|0 = 1", "3|3|0 = 1",
                ":13: expected state '2|2|0', found '3|3|0'", id="static-r-above-r_max",
            ),
            pytest.param(
                "static", "2|2|0 = 1", "0|2|0 = 1",
                ":13: expected state '2|2|0', found '0|2|0'", id="static-r-zero",
            ),
            pytest.param(
                "markov", "1|1|0", "1|1|1",
                ":11: expected state '1|1|0', found '1|1|1'", id="markov-xi-out-of-range",
            ),
            pytest.param(
                "markov", "1|1|0", "2|2|0",
                ":11: expected state '1|1|0', found '2|2|0'", id="markov-omega-above-cap",
            ),
            pytest.param(
                "static", "q_max = 2", "q_max = 1",
                ": q_max must be at least sum(omega_caps) = 2", id="static-q_max-small",
            ),
            pytest.param(
                "markov", "omega_caps = 1", "omega_caps = 0",
                ": every omega cap must be at least 1", id="markov-zero-cap",
            ),
        ],
    )
    def test_states_must_cover_the_declared_grid(self, tmp_path, kind, old, new, message):
        path = tmp_path / "broken.policy"
        assert old in FILES[kind]
        path.write_text(FILES[kind].replace(old, new))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("name", HUGE)
    def test_huge_grid_is_refused_before_it_is_built(self, tmp_path, name):
        # The headers' state count is compared with the action lines before
        # any grid is built: these files used to take seconds and gigabytes.
        text, states = HUGE[name]
        path = tmp_path / "huge.policy"
        path.write_text(text)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ConfigError) as info:
                load_policy(path)
            seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}: 1 action lines for the {states} grid states"
        assert seconds < 0.5
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", ["static", "markov"])
    def test_valid_files_load(self, tmp_path, kind):
        path = tmp_path / "valid.policy"
        path.write_text(FILES[kind])
        again = tmp_path / "again.policy"
        save_policy(load_policy(path), again)
        assert again.read_text() == "# transmission-control policy\n" + FILES[kind]
