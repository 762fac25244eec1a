import dataclasses
import itertools
import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from reference import expanded_error_prob, incremented, unit_history, zero_history

from harqest import (
    HarqModel,
    LinkErrors,
    ModelError,
    block_error_prob,
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
        fresh = LinkErrors(cc_model, (2.0, 1.0)).attempt(zero_history((2.0, 1.0)), 0)
        assert fresh == block_error_prob(cc_model, (2.0,))

    def test_retransmission_beats_new_transmission(self, cc_model):
        # g(r+1) < g(1) for r = 1..20 at the reference static point
        link = LinkErrors(cc_model, (2.0,))
        g1 = link.attempt(zero_history((2.0,)), 0)
        for r in range(1, 21):
            assert link.attempt((r,), 0) < g1

    def test_ratio_composes_block_evaluations(self, cc_model):
        expected = block_error_prob(cc_model, (1.0, 1.0)) / block_error_prob(cc_model, (1.0,))
        got = LinkErrors(cc_model, (1.0,)).attempt((1,), 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_underflowed_history_pins_to_zero(self, cc_model):
        assert block_error_prob(cc_model, (50.0,) * 40) == 0.0
        assert LinkErrors(cc_model, (50.0,)).attempt((40,), 0) == 0.0

    def test_new_transmission_dominance(self, cc_model, ir_model):
        # fresh transmissions are the least reliable action in every state
        gains = (2.0, 1.0)
        for model in (cc_model, ir_model):
            link = LinkErrors(model, gains)
            for xi in range(len(gains)):
                fresh = link.attempt(zero_history(gains), xi)
                for counts in itertools.product(range(5), repeat=2):
                    if sum(counts) < 1:
                        continue
                    assert link.attempt(counts, xi) < fresh

    def test_validation(self, cc_model):
        with pytest.raises(ValueError):
            LinkErrors(cc_model, (1.0, 2.0)).attempt((1,), 0)
        with pytest.raises(ValueError):
            LinkErrors(cc_model, (1.0,)).attempt((-1,), 0)
        with pytest.raises(ValueError):
            LinkErrors(cc_model, (0.0,)).attempt((1,), 0)
        with pytest.raises(ValueError):
            LinkErrors(cc_model, (0.0,)).attempt((0,), 0)
        with pytest.raises(ValueError):
            LinkErrors(cc_model, (1.0, 0.0)).attempt((1, 0), 1)

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
            LinkErrors(cc_model, gains).attempt(counts, xi)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_keys_match_the_expanded_history(self, b, cc_model, ir_model, monkeypatch):
        # The same value bit for bit as expanding counts into a flat gain
        # tuple and sorting it in block_error_prob, from one block evaluation
        # per counts vector the attempt needs; asked again, the table
        # evaluates nothing. Gains repeat to exercise ties.
        evaluated = spy_on_block_error(monkeypatch)
        rng = random.Random(b)
        for _ in range(200):
            gains = tuple(rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)) for _ in range(b))
            counts = tuple(rng.choice((0, 0, 1, 2, 4)) for _ in range(b))
            xi = rng.randrange(b)
            for model in (cc_model, ir_model):
                link = LinkErrors(model, gains)
                got = link.attempt(counts, xi)
                # a round all but decoded needs no numerator
                needed = 1 if sum(counts) == 0 else 1 + (link.block(counts) >= 1e-300)
                assert len(evaluated) == needed
                evaluated.clear()
                assert link.attempt(counts, xi) == got and not evaluated
                assert repr(got) == repr(expanded_error_prob(model, gains, counts, xi))
                evaluated.clear()


def spy_on_block_error(monkeypatch) -> list:
    """Record the gain tuple of every block-error evaluation."""
    evaluated = []
    block_error = harq_model._block_error

    def recording(model, gains):
        evaluated.append(gains)
        return block_error(model, gains)

    monkeypatch.setattr(harq_model, "_block_error", recording)
    return evaluated


# B = 1..3 with ties; gain 50 at 10 dB leaves a round all but decoded after
# two attempts, so its retransmission errors are pinned to 0.
TABLE_GAINS = [(2.0,), (1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 50.0, 1.0)]


class TestLinkErrors:
    @pytest.mark.parametrize("gains", TABLE_GAINS, ids=str)
    @pytest.mark.parametrize("scheme", ["cc", "ir"])
    def test_shared_table_equals_the_expanded_history(self, scheme, gains):
        model = HarqModel.from_db(scheme, 10.0, 100, 4.0)
        link = LinkErrors(model, gains)
        histories = list(itertools.product(range(9), repeat=len(gains)))
        histories = [c for c in histories if sum(c) <= 8]
        for counts in histories:
            for xi in range(len(gains)):
                got = link.attempt(counts, xi)
                assert repr(got) == repr(expanded_error_prob(model, gains, counts, xi))
        if 50.0 in gains:
            pinned = [c for c in histories if sum(c) and link.block(c) < 1e-300]
            assert pinned and all(link.attempt(c, 0) == 0.0 for c in pinned)

    @pytest.mark.parametrize("gains", TABLE_GAINS, ids=str)
    def test_each_counts_vector_is_evaluated_once(self, cc_model, gains, monkeypatch):
        evaluated = spy_on_block_error(monkeypatch)
        link = LinkErrors(cc_model, gains)
        histories = [c for c in itertools.product(range(5), repeat=len(gains)) if sum(c) <= 4]
        needed = set()
        for _ in range(2):
            for counts in histories:
                for xi in range(len(gains)):
                    link.attempt(counts, xi)
                    bumped = incremented(counts, xi)
                    if sum(counts) == 0:
                        needed.add(bumped)
                    else:  # a pinned round needs no numerator
                        needed.add(counts)
                        if link.block(counts) >= 1e-300:
                            needed.add(bumped)
        assert len(evaluated) == len(needed)
        order = sorted(range(len(gains)), key=gains.__getitem__)
        expanded = {tuple(gains[i] for i in order for _ in range(c[i])) for c in needed}
        assert set(evaluated) == expanded


def worst_static(model, gain, r_max):
    """The static link's scan: the one-gain chain over attempts 2..r_max."""
    return worst_retransmission_error_markov(LinkErrors(model, (gain,)), 0, r_max - 1)


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
        link = LinkErrors(cc_model, (2.0,))
        values = {r: link.attempt((r - 1,), 0) for r in range(2, 6)}
        worst = worst_static(cc_model, 2.0, 5)
        assert worst.value == max(values.values())
        assert worst.argmax_counts[0] + 1 == max(values, key=values.get)

    def test_requires_at_least_two_attempts(self, cc_model):
        with pytest.raises(ValueError):
            worst_static(cc_model, 2.0, 1)


class TestWorstRetransmissionMarkov:
    def test_single_state_reduces_to_static(self, cc_model):
        # attempts 2..9 of the static link are the one-gain histories (1,)..(8,)
        link = LinkErrors(cc_model, (2.0,))
        direct = tuple(link.attempt((n,), 0) for n in range(1, 9))
        markov = worst_retransmission_error_markov(link, 0, 8)
        assert markov.values == direct
        assert markov.value == max(direct)

    def test_budget3_enumeration_oracle(self, cc_model):
        link = LinkErrors(cc_model, (2.0, 1.0))
        best = -1.0
        for counts in itertools.product(range(4), repeat=2):
            if not 1 <= sum(counts) <= 3:
                continue
            best = max(best, link.attempt(counts, 0))
        out = worst_retransmission_error_markov(link, 0, 3)
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
            worst = worst_retransmission_error_markov(LinkErrors(model, gains), xi, budget)
            values = tuple(expanded_error_prob(model, gains, c, xi) for c in histories)
            assert worst.values == values
            assert worst.argmax_counts == histories[values.index(max(values))]
            assert worst.at_budget_boundary == (sum(worst.argmax_counts) == budget)

    def test_reference_markov_point(self, cc_model):
        link = LinkErrors(cc_model, (2.0, 1.0))
        lam1 = worst_retransmission_error_markov(link, 0, 8)
        lam2 = worst_retransmission_error_markov(link, 1, 8)
        # the worst history is a single attempt in the weak gain state
        assert lam1.argmax_counts == (0, 1)
        assert lam2.argmax_counts == (0, 1)
        assert not lam1.at_budget_boundary
        assert not lam2.at_budget_boundary
        assert lam2.value > lam1.value

    def test_boundary_flag(self, cc_model):
        out = worst_retransmission_error_markov(LinkErrors(cc_model, (2.0, 1.0)), 1, 1)
        assert out.at_budget_boundary

    @pytest.mark.parametrize("scheme", ["cc", "ir"])
    def test_shared_table_scans_like_fresh_tables(self, scheme):
        # stability scans every gain index on one table; a table per index
        # must give the same values, argmax and boundary flag
        model = HarqModel.from_db(scheme, 5.0, 100, 4.0)
        gains = (2.0, 1.0, 0.5)
        shared = LinkErrors(model, gains)
        for xi in range(len(gains)):
            got = worst_retransmission_error_markov(shared, xi, 6)
            fresh = worst_retransmission_error_markov(LinkErrors(model, gains), xi, 6)
            assert repr(got.values) == repr(fresh.values)
            assert (got.value, got.argmax_counts, got.at_budget_boundary) == (
                fresh.value, fresh.argmax_counts, fresh.at_budget_boundary
            )


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
        assert LinkErrors(cc_model, gains).attempt(bumped, 0) == expected


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
