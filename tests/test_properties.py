"""Invariants of policy files, of the kernel and its assembly, of the
first-passage evaluation, of the worst-error scan, of the high-SNR reduced
chain, of common random numbers in the simulator, of the simulator against
its reference loop and of the solver's optimality, checked on generated
tables, grids, chains and links.

Examples are derived from a fixed seed, so every run checks the same cases.
"""

import tempfile
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    assert_matches_reference,
    expanded_error_prob,
    high_snr_zeta_static,
    kernel_row_error,
    reference_assemble,
    reference_run,
    threshold_table_cost,
)

from harqest import (
    ConfigError,
    HarqModel,
    LinkErrors,
    MarkovChannel,
    Policy,
    PolicySpec,
    SimConfig,
    build_markov_mdp,
    first_passage_cost,
    gth_stationary,
    high_snr_markov,
    load_policy,
    policy_average_cost,
    policy_iteration,
    run,
    save_policy,
    solve_rvi_markov,
    worst_retransmission_error_markov,
)
from harqest.mdp_markov import Grid, assemble_markov_mdp
from harqest.simulator import TransitionMachine

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

solve_fields = st.fixed_dictionaries({
    "zeta": st.floats(allow_nan=False),
    "span": st.floats(min_value=0.0, allow_nan=False),
    "iterations": st.integers(0, 10**6),
    "converged": st.booleans(),
    "cost_mode": st.sampled_from(["mse", "delay"]),
})


@st.composite
def grid_shapes(draw):
    """(caps, q_max): caps of 1..4 on 1..3 gain states, q_max up to sum(caps) + 4."""
    b = draw(st.integers(1, 3))
    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=b, max_size=b)))
    return caps, draw(st.integers(sum(caps), sum(caps) + 4))


@PROPERTY
@given(grid_shapes())
def test_grid_numbers_its_labels_in_solver_order(shape):
    caps, q_max = shape
    b = len(caps)
    grid = Grid(caps, q_max)
    omegas = [o for o in product(*[range(c + 1) for c in caps]) if sum(o) >= 1]
    labels = tuple((o, q, xi) for o in omegas for q in range(sum(o), q_max + 1) for xi in range(b))
    assert grid.states == labels
    assert grid.n == len(labels) == Grid.count(caps, q_max)
    assert [grid.number(*label) for label in labels] == list(range(len(labels)))
    assert grid.number(grid.omegas[grid.block], grid.q, grid.xi).tolist() == list(range(len(labels)))
    per_state = zip(grid.omegas[grid.block].tolist(), grid.q.tolist(), grid.xi.tolist())
    assert [(tuple(omega), q, xi) for omega, q, xi in per_state] == list(labels)
    for k, omega in enumerate(omegas):
        for i in range(b):
            bumped = omega[:i] + (omega[i] + 1,) + omega[i + 1:]
            assert grid.bump[k, i] == (omegas.index(bumped) if omega[i] < caps[i] else -1)


@PROPERTY
@given(grid_shapes(), st.data())
def test_table_read_is_the_label_lookup_at_clamped_counts_and_age(ref_ladder, shape, data):
    caps, q_max = shape
    b = len(caps)
    grid = Grid(caps, q_max)
    actions = data.draw(st.lists(st.integers(0, 1), min_size=grid.n, max_size=grid.n))
    gains = (2.0, 1.0, 0.5)[:b]
    table = Policy(actions=np.array(actions, dtype=np.int8), grid=grid, gains=gains, zeta=0.0,
                   span=0.0, iterations=0, converged=True)
    ch = MarkovChannel(gains=gains, pi=np.full((b, b), 1.0 / b))
    harq = HarqModel.from_db("cc", 10.0, 100, 4.0)
    act = TransitionMachine(harq, ch, ref_ladder, PolicySpec(kind="table", table=table))._act
    lookup = dict(zip(grid.states, actions))
    assert [act(*label) for label in grid.states] == actions
    rounds = st.tuples(*[st.integers(0, c + 2) for c in caps]).filter(any)
    for counts in data.draw(st.lists(rounds, min_size=1, max_size=20)):
        q = data.draw(st.integers(sum(counts), max(sum(counts), q_max) + 3))
        xi = data.draw(st.integers(0, b - 1))
        assert act(counts, q, xi) == lookup[(tuple(map(min, counts, caps)), min(q, q_max), xi)]


@st.composite
def markov_policies(draw):
    b = draw(st.integers(1, 3))
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))
    q_max = draw(st.integers(sum(caps), sum(caps) + 3))
    gains = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=b, max_size=b)))
    grid = Grid(caps, q_max)
    actions = draw(st.lists(st.integers(0, 1), min_size=grid.n, max_size=grid.n))
    return Policy(
        actions=np.array(actions, dtype=np.int8), grid=grid, gains=gains, **draw(solve_fields)
    )


@PROPERTY
@given(markov_policies())
def test_policy_file_round_trip_is_byte_identical(policy):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.policy", Path(tmp) / "second.policy"
        save_policy(policy, first)
        loaded = load_policy(first)
        save_policy(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.grid.states == policy.grid.states
    assert loaded.actions.tobytes() == policy.actions.tobytes()
    assert (loaded.zeta, loaded.span, loaded.iterations) == (
        policy.zeta, policy.span, policy.iterations
    )
    assert (loaded.converged, loaded.cost_mode) == (policy.converged, policy.cost_mode)
    assert (loaded.grid.caps, loaded.grid.q_max, loaded.gains) == (
        policy.grid.caps, policy.grid.q_max, policy.gains
    )


@PROPERTY
@given(markov_policies(), st.data())
def test_policy_file_out_of_solver_order_is_refused_at_the_first_swapped_line(policy, data):
    n = policy.grid.n
    assume(n >= 2)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "swapped.policy"
        save_policy(policy, path)
        lines = path.read_text().splitlines(keepends=True)
        first = lines.index("[actions]\n") + 1
        a, b = first + i, first + j
        lines[a], lines[b] = lines[b], lines[a]
        path.write_text("".join(lines))
        with pytest.raises(ConfigError) as info:
            load_policy(path)
    expected, found = lines[b].split(" = ")[0], lines[a].split(" = ")[0]
    assert str(info.value) == f"{path}:{a + 1}: expected state {expected!r}, found {found!r}"


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    cap_choices=st.lists(st.integers(1, 4), min_size=2, max_size=2),
    extra_ages=st.integers(0, 4),
    snr_db=st.floats(-5.0, 20.0),
    scheme=st.sampled_from(["cc", "ir"]),
    cost_mode=st.sampled_from(["mse", "delay"]),
)
def test_available_kernel_rows_sum_to_one(
    ref_ladder, stay, cap_choices, extra_ages, snr_db, scheme, cost_mode
):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    caps = tuple(cap_choices[:b])
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    mdp = build_markov_mdp(harq, ch, ref_ladder, caps, sum(caps) + extra_ages, cost_mode)
    assert kernel_row_error(mdp.core) <= 1e-12


@PROPERTY
@given(
    gains=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3),
    cap_choices=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    snr_db=st.floats(-5.0, 20.0),
    scheme=st.sampled_from(["cc", "ir"]),
)
def test_link_kernel_equals_the_expanded_reference(ref_ladder, gains, cap_choices, snr_db, scheme):
    # the builder's one error table against errors from expanded histories
    b = len(gains)
    ch = MarkovChannel(gains=tuple(gains), pi=np.full((b, b), 1.0 / b))
    caps = tuple(cap_choices[:b])
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    mdp = build_markov_mdp(harq, ch, ref_ladder, caps, sum(caps))

    def attempt_error(omega, xi):
        return expanded_error_prob(harq, ch.gains, omega, xi)

    expected = reference_assemble(attempt_error, ch, ref_ladder, caps, sum(caps))
    for name in ("idx", "prob"):
        got = getattr(mdp.core, name)[mdp.core.where]
        assert got.tobytes() == getattr(expected.core, name)[expected.core.where].tobytes()
    link = LinkErrors(harq, ch.gains)
    pairs = [
        (omega, xi)
        for omega in product(*[range(c + 1) for c in caps])
        for xi in range(b)
        if omega[xi] < caps[xi]
    ]
    assert repr([link.attempt(*pair) for pair in pairs]) == repr([attempt_error(*pair) for pair in pairs])


@st.composite
def kernel_grids(draw):
    """A 1-3 state chain with random columns, omega caps, q_max, cost mode
    and a table of attempt errors that includes exact 0 and 1."""
    b = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = rng.uniform(0.05, 1.0, size=(b, b))
    pi /= pi.sum(axis=0)
    ch = MarkovChannel(gains=tuple(rng.uniform(0.5, 3.0, size=b)), pi=pi)
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))
    q_max = sum(caps) + draw(st.integers(0, 3))
    errors = {}

    def attempt_error(omega, xi):
        if (omega, xi) not in errors:
            errors[(omega, xi)] = float(rng.choice([0.0, 1.0, rng.uniform()]))
        return errors[(omega, xi)]

    return attempt_error, ch, caps, q_max, draw(st.sampled_from(["mse", "delay"]))


@PROPERTY
@given(grid=kernel_grids())
def test_kernel_equals_per_state_loop(ref_ladder, grid):
    attempt_error, ch, caps, q_max, cost_mode = grid
    calls, expected_calls = [], []

    def recorded(into):
        def error(omega, xi):
            into.append((omega, xi))
            return attempt_error(omega, xi)

        return error

    mdp = assemble_markov_mdp(recorded(calls), ch, ref_ladder, caps, q_max, cost_mode)
    expected = reference_assemble(recorded(expected_calls), ch, ref_ladder, caps, q_max, cost_mode)
    for name in ("idx", "prob", "cost"):
        got, want = getattr(mdp.core, name), getattr(expected.core, name)
        assert got.dtype == want.dtype
        assert got[mdp.core.where].tobytes() == want[expected.core.where].tobytes(), name
    assert mdp.core.available.tobytes() == expected.core.available.tobytes()
    assert mdp.states == expected.states
    assert [mdp.grid.number(*state) for state in expected.states] == list(range(len(expected.states)))
    assert mdp.core.ref == expected.core.ref
    # the builder asks for each (omega, xi) error once, in the reference's order
    assert calls == expected_calls


@st.composite
def chains(draw):
    """Sparse chain (succ, prob, cost) with a cycle through states 1..n-1,
    which then form its one closed class, and stage costs spread over twelve
    decades. State 0 is on the cycle too, unless `transient`: then no row
    leads to it."""
    n = draw(st.integers(2, 14))
    width = draw(st.integers(1, 4))
    transient = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = 1 if transient else 0
    cycle = np.arange(1, n + 1) % n if not transient else np.r_[1, np.arange(1, n) % (n - 1) + 1]
    succ = np.column_stack([cycle, rng.integers(first, n, size=(n, width))])
    prob = rng.uniform(0.05, 1.0, size=succ.shape)
    prob /= prob.sum(axis=1, keepdims=True)
    cost = 10.0 ** rng.uniform(0.0, 12.0, size=n)
    return succ, prob, cost, transient


@PROPERTY
@given(chain=chains())
def test_first_passage_cost_equals_dense_gth(chain):
    succ, prob, cost, transient = chain
    n = len(cost)
    p = np.zeros((n, n))  # column-stochastic, as gth_stationary takes it
    np.add.at(p, (succ, np.arange(n)[:, None]), prob)
    zeta, h = first_passage_cost(succ, prob, cost, 0, succ)
    assert zeta == pytest.approx(float(gth_stationary(p, start=0) @ cost), rel=1e-12)
    # h solves the Poisson equation h = cost - zeta + P h
    residual = cost - zeta + np.einsum("sk,sk->s", prob, h[succ]) - h
    assert np.abs(residual).max() <= 1e-12 * (cost.max() + np.abs(h).max())
    if not transient:
        assert h[0] == 0.0  # the start state is the anchor


@PROPERTY
@given(
    gains=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    budget=st.integers(1, 6),
    index=st.integers(0, 2),
    snr_db=st.floats(0.0, 15.0),
    scheme=st.sampled_from(["cc", "ir"]),
)
def test_worst_error_scan_is_the_first_maximum(gains, budget, index, snr_db, scheme):
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    xi = index % len(gains)
    worst = worst_retransmission_error_markov(LinkErrors(harq, gains), xi, budget)
    histories = [c for c in product(range(budget + 1), repeat=len(gains)) if 1 <= sum(c) <= budget]
    assert len(worst.values) == len(histories)
    assert worst.value == max(worst.values)
    assert worst.argmax_counts == histories[worst.values.index(worst.value)]
    assert worst.at_budget_boundary == (sum(worst.argmax_counts) == budget)
    if len(gains) == 1:
        # the static link's scan: attempts 2..budget + 1 of one gain, exactly
        direct = tuple(LinkErrors(harq, gains).attempt((n,), 0) for n in range(1, budget + 1))
        assert worst.values == direct


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    lambdas=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=2, max_size=2),
    thetas=st.lists(st.integers(1, 8), min_size=2, max_size=2),
)
def test_high_snr_search_costs_each_table_exactly(ref_ladder, stay, lambdas, thetas):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    lam, thetas = tuple(lambdas[:b]), tuple(thetas[:b])
    exact = threshold_table_cost(ch, lam, thetas, ref_ladder)
    zeta = high_snr_markov(ref_ladder, ch, lam, max(thetas)).evaluated[thetas]
    assert zeta == pytest.approx(exact, rel=1e-12, abs=0.0)
    if b == 1 and lam[0] < 1.0:
        # the closed form's denominator cancels like 1 - lambda' as lambda' -> 1
        closed = high_snr_zeta_static(ref_ladder, lam[0], thetas[0])
        assert closed == pytest.approx(exact, rel=1e-12 / (1.0 - lam[0]), abs=0.0)


def small_table(ch, actions) -> Policy:
    """A table over caps of 2 per gain and ages up to 2B + 2 on channel `ch`;
    actions(n) gives its n actions in state order."""
    grid = Grid((2,) * ch.size, 2 * ch.size + 2)
    return Policy(
        actions=np.array(actions(grid.n), dtype=np.int8),
        grid=grid,
        gains=ch.gains,
        zeta=0.0,
        span=0.0,
        iterations=0,
        converged=True,
    )


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 400),
    snr_db=st.floats(2.0, 15.0),
)
def test_all_fresh_table_replays_no_retransmission(ref_ladder, stay, seed, slots, snr_db):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    table = small_table(ch, lambda n: [0] * n)
    harq = HarqModel.from_db("cc", snr_db, 100, 4.0)
    cfg = SimConfig(slots=slots, seed=seed)
    got = run(harq, ch, ref_ladder, PolicySpec(kind="table", table=table), cfg)
    want = run(harq, ch, ref_ladder, PolicySpec(kind="no_retransmission"), cfg)
    for field in fields(got):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.shape == theirs.shape and mine.dtype == theirs.dtype, field.name
            assert mine.tobytes() == theirs.tobytes(), field.name
        else:
            assert mine == theirs, field.name


@PROPERTY
@given(
    snr_db=st.floats(4.0, 12.0),
    scheme=st.sampled_from(["cc", "ir"]),
    seed=st.integers(0, 2**32 - 1),
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    kind=st.sampled_from(["table", "myopic", "no_retransmission", "always_retransmit_psi"]),
    data=st.data(),
)
def test_run_equals_the_reference_loop(ref_ladder, snr_db, scheme, seed, stay, kind, data):
    # the transition machine against the direct per-slot loop; a random
    # table plays both actions, and its lookups clamp counts and ages that
    # pass its caps and q_max
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    if kind == "table":

        def actions(n):
            return data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))

        spec = PolicySpec(kind="table", table=small_table(ch, actions))
    else:
        spec = PolicySpec(kind=kind)
    cfg = SimConfig(
        slots=data.draw(st.integers(1, 600)),
        seed=seed,
        initial_channel=data.draw(st.none() | st.integers(0, b - 1)),
    )
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    expected = reference_run(harq, ch, ref_ladder, spec, cfg)
    assert_matches_reference(run(harq, ch, ref_ladder, spec, cfg), expected)


@st.composite
def solver_instances(draw):
    """A valid link and grid of at most 150 states: a constant gain or a
    two-state chain (sticky or fast), caps 1-4 (2-4 on a constant gain, as a
    config needs), weak to strong gains, 3-16 dB, either scheme and cost mode."""
    b = draw(st.integers(1, 2))
    gains = tuple(draw(st.lists(st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.0]), min_size=b, max_size=b)))
    if b == 1:
        pi = np.array([[1.0]])
    else:
        stay = draw(st.lists(st.sampled_from([0.05, 0.5, 0.8, 0.95, 0.99]), min_size=2, max_size=2))
        pi = np.array([[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]])
    caps = tuple(draw(st.lists(st.integers(2 if b == 1 else 1, 4), min_size=b, max_size=b)))
    q_max = sum(caps) + draw(st.integers(0, 7))
    assume(Grid.count(caps, q_max) <= 150)
    harq = HarqModel.from_db(draw(st.sampled_from(["cc", "ir"])), draw(st.floats(3.0, 16.0)), 100, 4.0)
    return harq, MarkovChannel(gains=gains, pi=pi), caps, q_max, draw(st.sampled_from(["mse", "delay"]))


@PROPERTY
@given(instance=solver_instances())
def test_solve_returns_a_table_policy_iteration_cannot_improve(ref_ladder, instance):
    # A table that is greedy on its own exact relative values is optimal
    # (Puterman, Markov Decision Processes, ch. 8.6).
    harq, ch, caps, q_max, cost_mode = instance
    mdp = build_markov_mdp(harq, ch, ref_ladder, caps, q_max, cost_mode)
    policy = solve_rvi_markov(mdp)  # raises no ConvergenceError
    exact = policy_average_cost(mdp.core, policy.actions)
    improved = policy_iteration(mdp.core, policy.actions)[1]
    assert improved >= exact * (1.0 - 1e-9)
