import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest
from reference import incremented, unit_history, zero_history

from harqest import (
    HarqModel,
    HistoryCounter,
    ModelError,
    block_error_prob,
    conditional_error_prob,
    worst_retransmission_error_markov,
    worst_retransmission_error_static,
)

# Single-attempt error probability at the reference operating point
# (CC, 10 dB, L=100, R=4, gain 2), evaluated independently before the
# module was written: Q(4.5876.../1.44106...) = 7.27617035635667e-4.
LAMBDA_PRIME0_REF = 7.27617035635667e-4


class TestBlockErrorProb:
    def test_high_snr_limit(self):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        assert block_error_prob(model, (1.0,)) < 1e-12

    def test_frozen_reference_value(self, cc_model):
        assert block_error_prob(cc_model, (2.0,)) == pytest.approx(LAMBDA_PRIME0_REF, rel=1e-12)

    def test_single_attempt_scheme_independent(self, cc_model, ir_model):
        # with one attempt the two combining rules coincide
        for g in (0.5, 1.0, 2.0):
            assert block_error_prob(cc_model, (g,)) == pytest.approx(
                block_error_prob(ir_model, (g,)), rel=1e-12
            )

    def test_ir_no_worse_than_cc(self, cc_model, ir_model):
        for gains in [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0, 1.0), (2.0, 1.0, 0.5)]:
            assert block_error_prob(ir_model, gains) <= block_error_prob(cc_model, gains)

    def test_cc_error_nonincreasing_in_added_gain(self, cc_model):
        for base in [(1.0,), (2.0,), (1.0, 1.0), (0.5, 2.0)]:
            before = block_error_prob(cc_model, base)
            for extra in (0.25, 1.0, 2.0):
                assert block_error_prob(cc_model, base + (extra,)) <= before

    def test_order_independence(self, ir_model):
        assert block_error_prob(ir_model, (2.0, 1.0, 0.5)) == block_error_prob(
            ir_model, (0.5, 2.0, 1.0)
        )

    def test_values_in_unit_interval(self, cc_model, ir_model):
        for model in (cc_model, ir_model):
            for gains in [(1e-6,), (0.1,), (1.0, 1e-5), (2.0,) * 5]:
                assert 0.0 <= block_error_prob(model, gains) <= 1.0

    def test_empty_multiset_rejected(self, cc_model):
        with pytest.raises(ValueError):
            block_error_prob(cc_model, ())

    def test_nonpositive_gain_rejected(self, cc_model):
        with pytest.raises(ValueError):
            block_error_prob(cc_model, (1.0, 0.0))


class TestConditionalErrorProb:
    def test_empty_history_is_new_transmission(self, cc_model):
        empty = zero_history((2.0, 1.0))
        assert conditional_error_prob(cc_model, empty, 2.0) == block_error_prob(cc_model, (2.0,))

    def test_retransmission_beats_new_transmission(self, cc_model):
        # g(r+1) < g(1) for r = 1..20 at the reference static point
        g1 = conditional_error_prob(cc_model, zero_history((2.0,)), 2.0)
        for r in range(1, 21):
            history = HistoryCounter(counts=(r,), gains=(2.0,))
            assert conditional_error_prob(cc_model, history, 2.0) < g1

    def test_ratio_composes_block_evaluations(self, cc_model):
        history = HistoryCounter(counts=(1,), gains=(1.0,))
        expected = block_error_prob(cc_model, (1.0, 1.0)) / block_error_prob(cc_model, (1.0,))
        assert conditional_error_prob(cc_model, history, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_underflowed_history_pins_to_zero(self, cc_model):
        history = HistoryCounter(counts=(40,), gains=(50.0,))
        assert block_error_prob(cc_model, history.gain_multiset()) == 0.0
        assert conditional_error_prob(cc_model, history, 50.0) == 0.0

    def test_new_transmission_dominance(self, cc_model, ir_model):
        # fresh transmissions are the least reliable action in every state
        gains = (2.0, 1.0)
        for model in (cc_model, ir_model):
            for current in gains:
                fresh = conditional_error_prob(model, zero_history(gains), current)
                for counts in itertools.product(range(5), repeat=2):
                    if sum(counts) < 1:
                        continue
                    history = HistoryCounter(counts=counts, gains=gains)
                    assert conditional_error_prob(model, history, current) < fresh


class TestWorstRetransmissionStatic:
    def test_reference_point(self, cc_model, ref_system):
        worst = worst_retransmission_error_static(cc_model, 2.0, 20)
        # the ratio is not monotone: the marginal value of one more combined
        # copy shrinks with the round length, so the scan maximum sits at the
        # boundary and the checker must say so
        assert not worst.monotone_decreasing
        assert worst.argmax_attempts == 20
        # the existence condition still holds with an enormous margin
        assert worst.value * ref_system.rho_squared < 1.0

    def test_high_snr_negligible(self):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        assert worst_retransmission_error_static(model, 1.0, 10).value < 1e-12

    def test_exhaustive_scan_oracle(self, cc_model):
        values = {
            r: conditional_error_prob(
                cc_model, HistoryCounter(counts=(r - 1,), gains=(2.0,)), 2.0
            )
            for r in range(2, 6)
        }
        worst = worst_retransmission_error_static(cc_model, 2.0, 5)
        assert worst.value == max(values.values())
        assert worst.argmax_attempts == max(values, key=values.get)

    def test_requires_at_least_two_attempts(self, cc_model):
        with pytest.raises(ValueError):
            worst_retransmission_error_static(cc_model, 2.0, 1)


class TestWorstRetransmissionMarkov:
    def test_single_state_reduces_to_static(self, cc_model):
        static = worst_retransmission_error_static(cc_model, 2.0, 9)
        markov = worst_retransmission_error_markov(cc_model, (2.0,), 0, 8)
        assert markov.value == pytest.approx(static.value, rel=1e-12)

    def test_budget3_enumeration_oracle(self, cc_model):
        gains = (2.0, 1.0)
        best = -1.0
        for counts in itertools.product(range(4), repeat=2):
            if not 1 <= sum(counts) <= 3:
                continue
            history = HistoryCounter(counts=counts, gains=gains)
            best = max(best, conditional_error_prob(cc_model, history, gains[0]))
        out = worst_retransmission_error_markov(cc_model, gains, 0, 3)
        assert out.value == pytest.approx(best, rel=1e-12)

    def test_reference_markov_point(self, cc_model):
        gains = (2.0, 1.0)
        lam1 = worst_retransmission_error_markov(cc_model, gains, 0, 8)
        lam2 = worst_retransmission_error_markov(cc_model, gains, 1, 8)
        # the worst history is a single attempt in the weak gain state
        assert lam1.argmax_counts == (0, 1)
        assert lam2.argmax_counts == (0, 1)
        assert not lam1.at_budget_boundary
        assert not lam2.at_budget_boundary
        assert lam2.value > lam1.value

    def test_boundary_flag(self, cc_model):
        out = worst_retransmission_error_markov(cc_model, (2.0, 1.0), 1, 1)
        assert out.at_budget_boundary


class TestHistoryCounter:
    def test_helpers(self):
        omega = unit_history((2.0, 1.0, 0.5), 1)
        assert omega.counts == (0, 1, 0)
        assert omega.total == 1
        assert not omega.is_empty
        bumped = incremented(omega, 2)
        assert bumped.counts == (0, 1, 1)
        assert bumped.gain_multiset() == (1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistoryCounter(counts=(1,), gains=(1.0, 2.0))
        with pytest.raises(ValueError):
            HistoryCounter(counts=(-1,), gains=(1.0,))
        with pytest.raises(ValueError):
            HistoryCounter(counts=(1,), gains=(0.0,))


class TestModelValidation:
    def test_bad_scheme(self):
        with pytest.raises(ModelError):
            HarqModel(scheme="arq", snr=10.0, blocklength=100, rate=4.0)

    def test_bad_parameters(self):
        with pytest.raises(ModelError):
            HarqModel(scheme="cc", snr=0.0, blocklength=100, rate=4.0)
        with pytest.raises(ModelError):
            HarqModel(scheme="cc", snr=1.0, blocklength=0, rate=4.0)
        with pytest.raises(ModelError):
            HarqModel(scheme="cc", snr=1.0, blocklength=100, rate=0.0)

    def test_db_conversion(self):
        model = HarqModel.from_db("ir", 10.0, 100, 4.0)
        assert model.snr == pytest.approx(10.0)


class TestCacheConcurrency:
    def test_parallel_evaluations_match_serial(self, cc_model):
        gain_sets = [
            tuple(1.0 + 0.25 * ((i + j) % 7) for j in range(1 + i % 4)) for i in range(64)
        ]
        serial = [block_error_prob(cc_model, g) for g in gain_sets]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda g: block_error_prob(cc_model, g), gain_sets * 4))
        assert parallel == serial * 4
