"""Invariants of the (r, q) relabelling, of policy files and of the kernel,
checked on generated tables and grids.

Examples are derived from a fixed seed, so every run checks the same cases.
"""

import tempfile
from itertools import product
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import kernel_row_error

from harqest import HarqModel, MarkovChannel, Policy, build_markov_mdp, load_policy, save_policy
from harqest.mdp_static import markov_policy, static_policy

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

solve_fields = st.fixed_dictionaries({
    "zeta": st.floats(allow_nan=False),
    "span": st.floats(min_value=0.0, allow_nan=False),
    "iterations": st.integers(0, 10**6),
    "converged": st.booleans(),
    "cost_mode": st.sampled_from(["mse", "delay"]),
})


@st.composite
def static_policies(draw):
    r_max = draw(st.integers(2, 6))
    q_max = draw(st.integers(r_max, r_max + 4))
    states = tuple((r, q) for r in range(1, r_max + 1) for q in range(r, q_max + 1))
    actions = draw(st.lists(st.integers(0, 1), min_size=len(states), max_size=len(states)))
    return Policy(
        actions=np.array(actions, dtype=np.int8),
        states=states,
        kind="static",
        params={"r_max": r_max, "q_max": q_max},
        **draw(solve_fields),
    )


@st.composite
def markov_policies(draw):
    b = draw(st.integers(1, 3))
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))
    q_max = draw(st.integers(sum(caps), sum(caps) + 3))
    gains = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=b, max_size=b)))
    omegas = [o for o in product(*[range(c + 1) for c in caps]) if sum(o) >= 1]
    states = tuple(
        (o, q, xi) for o in omegas for q in range(sum(o), q_max + 1) for xi in range(b)
    )
    actions = draw(st.lists(st.integers(0, 1), min_size=len(states), max_size=len(states)))
    return Policy(
        actions=np.array(actions, dtype=np.int8),
        states=states,
        kind="markov",
        params={"omega_caps": caps, "q_max": q_max, "gains": gains},
        **draw(solve_fields),
    )


@PROPERTY
@given(static_policies())
def test_relabelling_round_trip_is_identity(policy):
    back = static_policy(markov_policy(policy))
    assert back.actions.dtype == policy.actions.dtype
    assert back.actions.tobytes() == policy.actions.tobytes()
    assert back.states == policy.states
    assert (back.zeta, back.span, back.iterations) == (policy.zeta, policy.span, policy.iterations)
    assert (back.converged, back.cost_mode, back.kind) == (
        policy.converged, policy.cost_mode, policy.kind
    )
    assert back.params == policy.params


@PROPERTY
@given(st.one_of(static_policies(), markov_policies()))
def test_policy_file_round_trip_is_byte_identical(policy):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.policy", Path(tmp) / "second.policy"
        save_policy(policy, first)
        loaded = load_policy(first)
        save_policy(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.states == policy.states
    assert loaded.actions.tobytes() == policy.actions.tobytes()
    assert (loaded.zeta, loaded.span, loaded.iterations) == (
        policy.zeta, policy.span, policy.iterations
    )
    assert (loaded.converged, loaded.cost_mode, loaded.kind) == (
        policy.converged, policy.cost_mode, policy.kind
    )
    assert loaded.params == policy.params


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
