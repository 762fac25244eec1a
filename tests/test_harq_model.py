import dataclasses
import itertools
import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from reference import incremented, unit_history, zero_history

from harqest import (
    HarqModel,
    ModelError,
    block_error_prob,
    conditional_error_prob,
    worst_retransmission_error_markov,
)
from harqest import harq_model

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
        fresh = conditional_error_prob(cc_model, (2.0, 1.0), zero_history((2.0, 1.0)), 0)
        assert fresh == block_error_prob(cc_model, (2.0,))

    def test_retransmission_beats_new_transmission(self, cc_model):
        # g(r+1) < g(1) for r = 1..20 at the reference static point
        g1 = conditional_error_prob(cc_model, (2.0,), zero_history((2.0,)), 0)
        for r in range(1, 21):
            assert conditional_error_prob(cc_model, (2.0,), (r,), 0) < g1

    def test_ratio_composes_block_evaluations(self, cc_model):
        expected = block_error_prob(cc_model, (1.0, 1.0)) / block_error_prob(cc_model, (1.0,))
        got = conditional_error_prob(cc_model, (1.0,), (1,), 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_underflowed_history_pins_to_zero(self, cc_model):
        assert block_error_prob(cc_model, (50.0,) * 40) == 0.0
        assert conditional_error_prob(cc_model, (50.0,), (40,), 0) == 0.0

    def test_new_transmission_dominance(self, cc_model, ir_model):
        # fresh transmissions are the least reliable action in every state
        gains = (2.0, 1.0)
        for model in (cc_model, ir_model):
            for xi in range(len(gains)):
                fresh = conditional_error_prob(model, gains, zero_history(gains), xi)
                for counts in itertools.product(range(5), repeat=2):
                    if sum(counts) < 1:
                        continue
                    assert conditional_error_prob(model, gains, counts, xi) < fresh

    def test_validation(self, cc_model):
        with pytest.raises(ValueError):
            conditional_error_prob(cc_model, (1.0, 2.0), (1,), 0)
        with pytest.raises(ValueError):
            conditional_error_prob(cc_model, (1.0,), (-1,), 0)
        with pytest.raises(ValueError):
            conditional_error_prob(cc_model, (0.0,), (1,), 0)
        with pytest.raises(ValueError):
            conditional_error_prob(cc_model, (0.0,), (0,), 0)
        with pytest.raises(ValueError):
            conditional_error_prob(cc_model, (1.0, 0.0), (1, 0), 1)

    @pytest.mark.parametrize(
        "gains, counts, xi, error, message",
        [
            ((1.0, 2.0), (1,), 0, ValueError, "counts and gains must have the same length"),
            ((1.0, 2.0), (1, -1), 0, ValueError, "counts must be nonnegative"),
            ((2.0, -1.0, 0.5), (1, 2, 1), 0, ValueError, "gains must be positive"),
            ((1.0, 0.0), (1, 0), 1, ValueError, "gains must be positive"),
            ((), (), 0, IndexError, None),
        ],
    )
    def test_validation_messages(self, cc_model, gains, counts, xi, error, message):
        with pytest.raises(error, match=message):
            conditional_error_prob(cc_model, gains, counts, xi)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_keys_match_the_expanded_history(self, b, cc_model, ir_model, monkeypatch):
        # The same block-error keys, in the same order, and the same value
        # bit for bit as expanding counts into a flat gain tuple and sorting
        # it in block_error_prob. Gains repeat to exercise ties.
        keys = []
        block_error = harq_model._block_error

        def recording(model, gains):
            keys.append((model, gains, tuple(type(g) for g in gains)))
            return block_error(model, gains)

        monkeypatch.setattr(harq_model, "_block_error", recording)
        rng = random.Random(b)
        for _ in range(200):
            gains = tuple(rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)) for _ in range(b))
            counts = tuple(rng.choice((0, 0, 1, 2, 4)) for _ in range(b))
            xi = rng.randrange(b)
            for model in (cc_model, ir_model):
                got = conditional_error_prob(model, gains, counts, xi)
                got_keys = keys[:]
                keys.clear()
                expected = expanded_error_prob(model, gains, counts, xi)
                assert repr(got) == repr(expected)
                assert got_keys == keys
                keys.clear()


def expanded_error_prob(model, gains, counts, xi):
    """conditional_error_prob by expanding counts into a flat gain tuple
    that block_error_prob sorts on every call."""
    current = (float(gains[xi]),)
    past = tuple(float(g) for c, g in zip(counts, gains) for _ in range(c))
    if not past:
        return block_error_prob(model, current)
    denominator = block_error_prob(model, past)
    if denominator < 1e-300:
        return 0.0
    return min(block_error_prob(model, past + current) / denominator, 1.0)


def worst_static(model, gain, r_max):
    """The static link's scan: the one-gain chain over attempts 2..r_max."""
    return worst_retransmission_error_markov(model, (gain,), 0, r_max - 1)


def monotone_decreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


class TestWorstRetransmissionStatic:
    def test_reference_point(self, cc_model, ref_system):
        worst = worst_static(cc_model, 2.0, 20)
        # the ratio is not monotone: the marginal value of one more combined
        # copy shrinks with the round length, so the scan maximum sits at the
        # boundary and the checker must say so
        assert not monotone_decreasing(worst.values)
        assert worst.argmax_counts[0] + 1 == 20
        assert worst.at_budget_boundary
        # the existence condition still holds with an enormous margin
        assert worst.value * ref_system.rho_squared < 1.0

    def test_high_snr_negligible(self):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        assert worst_static(model, 1.0, 10).value < 1e-12

    def test_exhaustive_scan_oracle(self, cc_model):
        values = {r: conditional_error_prob(cc_model, (2.0,), (r - 1,), 0) for r in range(2, 6)}
        worst = worst_static(cc_model, 2.0, 5)
        assert worst.value == max(values.values())
        assert worst.argmax_counts[0] + 1 == max(values, key=values.get)

    def test_requires_at_least_two_attempts(self, cc_model):
        with pytest.raises(ValueError):
            worst_static(cc_model, 2.0, 1)


class TestWorstRetransmissionMarkov:
    def test_single_state_reduces_to_static(self, cc_model):
        # attempts 2..9 of the static link are the one-gain histories (1,)..(8,)
        direct = tuple(conditional_error_prob(cc_model, (2.0,), (n,), 0) for n in range(1, 9))
        markov = worst_retransmission_error_markov(cc_model, (2.0,), 0, 8)
        assert markov.values == direct
        assert markov.value == max(direct)

    def test_budget3_enumeration_oracle(self, cc_model):
        gains = (2.0, 1.0)
        best = -1.0
        for counts in itertools.product(range(4), repeat=2):
            if not 1 <= sum(counts) <= 3:
                continue
            best = max(best, conditional_error_prob(cc_model, gains, counts, 0))
        out = worst_retransmission_error_markov(cc_model, gains, 0, 3)
        assert out.value == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("gains", [(2.0,), (2.0, 1.0), (2.0, 1.0, 0.5)], ids=["B1", "B2", "B3"])
    def test_scan_is_the_filtered_product(self, gains):
        # every history with 1 <= sum <= budget, in the order of the full
        # product; at 0 dB nearly every history has its own error
        model = HarqModel.from_db("ir", 0.0, 100, 4.0)
        budget = 5
        histories = [
            c for c in itertools.product(range(budget + 1), repeat=len(gains)) if 1 <= sum(c) <= budget
        ]
        for xi in range(len(gains)):
            worst = worst_retransmission_error_markov(model, gains, xi, budget)
            values = tuple(conditional_error_prob(model, gains, c, xi) for c in histories)
            assert worst.values == values
            assert worst.argmax_counts == histories[values.index(max(values))]
            assert worst.at_budget_boundary == (sum(worst.argmax_counts) == budget)

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


class TestAttemptCounts:
    def test_helpers(self, cc_model):
        gains = (2.0, 1.0, 0.5)
        omega = unit_history(gains, 1)
        assert omega == (0, 1, 0)
        assert sum(omega) == 1
        bumped = incremented(omega, 2)
        assert bumped == (0, 1, 1)
        # the round (0, 1, 1) buffered one attempt under gain 1.0 and one under 0.5
        past = block_error_prob(cc_model, (1.0, 0.5))
        expected = block_error_prob(cc_model, (1.0, 0.5, 2.0)) / past
        assert conditional_error_prob(cc_model, gains, bumped, 0) == expected


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

    def test_hash_is_the_hash_of_the_fields(self):
        model = HarqModel.from_db("cc", 10.0, 100, 4.0)
        assert hash(model) == hash(("cc", model.snr, 100, 4.0))
        other = dataclasses.replace(model, scheme="ir")
        assert hash(other) == hash(("ir", model.snr, 100, 4.0))
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and hash(copy) == hash(model)

    @pytest.mark.parametrize("snr_db", [1e308, 4000.0, float("inf"), -4000.0, float("nan")])
    def test_db_out_of_float_range(self, snr_db):
        with pytest.raises(ModelError, match=r"^snr_db = .* gives no finite positive linear SNR"):
            HarqModel.from_db("cc", snr_db, 100, 4.0)


class TestCacheConcurrency:
    def test_parallel_evaluations_match_serial(self, cc_model):
        gain_sets = [
            tuple(1.0 + 0.25 * ((i + j) % 7) for j in range(1 + i % 4)) for i in range(64)
        ]
        serial = [block_error_prob(cc_model, g) for g in gain_sets]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda g: block_error_prob(cc_model, g), gain_sets * 4))
        assert parallel == serial * 4
