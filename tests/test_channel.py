import math

import numpy as np
import pytest
from reference import step, unit_history, update_history

from harqest import MarkovChannel, ModelError, static_channel


class TestMarkovChannelValidation:
    def test_static_is_single_state(self):
        ch = static_channel(2.0)
        assert ch.size == 1
        assert ch.gains == (2.0,)
        np.testing.assert_array_equal(ch.pi, [[1.0]])

    def test_rejects_row_stochastic_orientation(self):
        with pytest.raises(ModelError, match="column-stochastic"):
            MarkovChannel(gains=(2.0, 1.0), pi=[[0.9, 0.1], [0.4, 0.6]])

    def test_rejects_zero_transition(self):
        with pytest.raises(ModelError, match="strictly positive"):
            MarkovChannel(gains=(2.0, 1.0), pi=[[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ModelError):
            MarkovChannel(gains=(2.0, 0.0), pi=[[0.5, 0.5], [0.5, 0.5]])

    def test_stationary(self, ref_channel):
        np.testing.assert_allclose(ref_channel.stationary(), [0.5, 0.5], atol=1e-12)

    def test_stationary_is_a_copy(self, ref_channel):
        ref_channel.stationary()[0] = 7.0
        np.testing.assert_allclose(ref_channel.stationary(), [0.5, 0.5], atol=1e-12)


class TestStep:
    def test_single_state_always_zero(self):
        ch = static_channel(1.0)
        rng = np.random.default_rng(0)
        assert all(step(ch, 0, rng) == 0 for _ in range(100))

    def test_seeded_replay_is_identical(self, ref_channel):
        seq1 = []
        rng = np.random.default_rng(42)
        state = 0
        for _ in range(200):
            state = step(ref_channel, state, rng)
            seq1.append(state)
        rng = np.random.default_rng(42)
        state = 0
        seq2 = []
        for _ in range(200):
            state = step(ref_channel, state, rng)
            seq2.append(state)
        assert seq1 == seq2

    def test_transition_frequencies_within_3_sigma(self, ref_channel):
        # one-step transitions out of state 0; binomial 3-sigma band around 0.8
        n = 1_000_000
        rng = np.random.default_rng(7)
        stays = sum(1 for _ in range(n) if step(ref_channel, 0, rng) == 0)
        p_hat = stays / n
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(p_hat - 0.8) <= 3.0 * sigma

    def test_every_state_reached(self):
        ch = MarkovChannel(
            gains=(3.0, 2.0, 1.0),
            pi=np.array([[0.90, 0.05, 0.05], [0.05, 0.90, 0.05], [0.05, 0.05, 0.90]]),
        )
        rng = np.random.default_rng(3)
        seen = set()
        state = 0
        for _ in range(2_000):
            state = step(ch, state, rng)
            seen.add(state)
        assert seen == {0, 1, 2}


class TestUpdateHistory:
    def test_new_transmission_resets_to_unit(self):
        out = update_history((2, 3, 1), last_action=0, last_index=1)
        assert out == (0, 1, 0)

    def test_retransmission_increments(self):
        out = update_history((1, 0), last_action=1, last_index=1)
        assert out == (1, 1)

    def test_five_step_hand_trace(self):
        # start: unit at index 1; then (action, index) script:
        # retransmit@0 -> (1,1,0); retransmit@2 -> (1,1,1);
        # new@1 -> (0,1,0); retransmit@1 -> (0,2,0); retransmit@0 -> (1,2,0)
        omega = unit_history((3.0, 2.0, 1.0), 1)
        script = [(1, 0), (1, 2), (0, 1), (1, 1), (1, 0)]
        expected = [(1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 2, 0), (1, 2, 0)]
        for (action, index), want in zip(script, expected):
            omega = update_history(omega, action, index)
            assert omega == want

    def test_round_length_equals_total(self):
        # ||omega||_1 after an update matches the consecutive-attempt rule
        omega = unit_history((2.0, 1.0), 0)
        r = 1
        rng = np.random.default_rng(5)
        for _ in range(50):
            action = int(rng.integers(0, 2))
            index = int(rng.integers(0, 2))
            omega = update_history(omega, action, index)
            r = 1 if action == 0 else r + 1
            assert sum(omega) == r
