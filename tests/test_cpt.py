"""CPT evaluation: weighting, values, decision weights, regret."""

import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest

from cpt_games.cpt import (
    CptPreferences,
    Lottery,
    _block_cumulative,
    cpt_regret,
    cpt_value,
    cpt_values,
    decision_weights,
    eut_preferences,
    evaluate_weight,
    identity_value,
    identity_weighting,
    piecewise_power_value,
    preferences_from_dict,
    preferences_to_dict,
    prelec_weighting,
    tabulated_weighting,
)


@pytest.fixture
def prelec_prefs():
    w = prelec_weighting(0.5)
    return CptPreferences(identity_value(0.0), w, w)


def prelec_oracle(p: str, gamma_inv_power: int = 2) -> float:
    """Arbitrary-precision evaluation of exp(-(-ln p)^0.5)."""
    getcontext().prec = 50
    x = Decimal(p)
    inner = (-x.ln()).sqrt()
    return float((-inner).exp())


class TestEvaluateWeight:
    def test_prelec_half_matches_reported_value(self):
        assert evaluate_weight(prelec_weighting(0.5), 0.5) == pytest.approx(0.435, abs=1e-3)

    def test_identity_passthrough(self):
        assert evaluate_weight(identity_weighting(), 0.37) == 0.37

    def test_prelec_quarter_matches_high_precision_oracle(self):
        expected = prelec_oracle("0.25")
        assert evaluate_weight(prelec_weighting(0.5), 0.25) == pytest.approx(expected, abs=1e-12)

    def test_endpoints_exact(self):
        for w in (identity_weighting(), prelec_weighting(0.5), prelec_weighting(2.0)):
            assert evaluate_weight(w, 0.0) == 0.0
            assert evaluate_weight(w, 1.0) == 1.0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 0.4107])
    def test_prelec_clamps_outside_the_unit_interval(self, gamma):
        # a probability one ulp-scale above 1 weighs 1, as the tabulated
        # kind clamps it, so the weight stays monotone at the domain's edge
        tab = tabulated_weighting([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        for w in (prelec_weighting(gamma), tab):
            assert w(1.0 + 1e-12) == 1.0 and w(2.0) == 1.0
            assert w(-1e-12) == 0.0
            p = np.array([-1e-12, 0.0, 0.25, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0])
            out = w(p)
            assert out[0] == out[1] == 0.0 and out[4] == out[5] == out[6] == 1.0
            assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            evaluate_weight(identity_weighting(), p)

    def test_prelec_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            prelec_weighting(0.0)

    def test_tabulated_interpolates(self):
        w = tabulated_weighting([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        assert evaluate_weight(w, 0.25) == pytest.approx(0.15)
        assert evaluate_weight(w, 0.75) == pytest.approx(0.65)

    def test_tabulated_equality_and_hash_follow_the_grid(self):
        points = [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]
        a, b = tabulated_weighting(points), tabulated_weighting(points)
        assert a == b and hash(a) == hash(b)
        assert a != tabulated_weighting([(0.0, 0.0), (0.5, 0.4), (1.0, 1.0)])
        p = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(a(p), np.interp(p, [0.0, 0.5, 1.0], [0.0, 0.3, 1.0]))
        assert "_ps" not in repr(a)

    def test_tabulated_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            tabulated_weighting([(0.0, 0.0), (0.5, 0.5)])  # endpoint not pinned
        with pytest.raises(ValueError):
            tabulated_weighting([(0.0, 0.0), (0.6, 0.5), (0.5, 0.6), (1.0, 1.0)])
        with pytest.raises(ValueError):
            tabulated_weighting([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)])  # flat segment


class TestValueFunction:
    def test_zero_at_reference(self):
        v = piecewise_power_value(2.0, 0.9, 0.8, 2.0)
        assert v(2.0) == 0.0
        assert identity_value(5.0)(5.0) == 0.0

    def test_piecewise_shape(self):
        v = piecewise_power_value(0.0, 0.5, 0.5, 2.0)
        assert v(4.0) == pytest.approx(2.0)
        assert v(-4.0) == pytest.approx(-4.0)  # loss aversion doubles the power

    @pytest.mark.parametrize(
        "v", [piecewise_power_value(0.0, 0.7, 0.8, 2.0), identity_value(0.5)]
    )
    def test_scalar_is_valued_like_a_one_element_array(self, v):
        xs = np.random.default_rng(3).uniform(-3.0, 3.0, 20_000)
        assert [v(x) for x in xs.tolist()] == [v(np.array([x]))[0] for x in xs.tolist()]
        assert [v(x) for x in xs] == v(xs).tolist()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            piecewise_power_value(0.0, 1.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            piecewise_power_value(0.0, 0.5, 0.5, 0.5)

    def test_large_reference_is_accepted_and_increasing(self):
        # at 1e16 the floats are 2 apart, so r - 1 and r + 1 round to r; the
        # neighbouring floats r - 2 and r + 2 are still valued in order
        r = 1e16
        lo, hi = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
        assert (lo, hi) == (r - 2.0, r + 2.0)
        for v in (piecewise_power_value(r, 0.5, 0.5, 2.0), identity_value(r)):
            assert v(lo) < v(r) == 0.0 < v(hi)


class TestLottery:
    def test_small_mass_deviation_normalized_in_evaluation(self):
        # entries are stored as given; the evaluation treats the vector as a
        # distribution, so a certain outcome keeps its exact value
        lot = Lottery([0.5, 0.5 + 5e-10], [1.0, 1.0])
        prefs = CptPreferences(
            identity_value(0.0), prelec_weighting(0.5), prelec_weighting(0.5)
        )
        assert cpt_value(lot, prefs) == 1.0

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            Lottery([0.5, 0.6], [1.0, 2.0])

    def test_zero_probability_and_duplicates_allowed(self):
        lot = Lottery([0.0, 0.5, 0.5], [3.0, 3.0, 1.0])
        assert len(lot) == 3

    def test_owns_its_outcomes(self, prelec_prefs):
        z = np.array([1.0, 2.0])
        lot = Lottery([0.5, 0.5], z)
        before = cpt_value(lot, prelec_prefs)
        assert z.flags.writeable and not lot.outcomes.flags.writeable
        z[0] = 3.0
        assert cpt_value(lot, prelec_prefs) == before
        assert lot.outcomes.tolist() == [1.0, 2.0]


class TestDecisionWeights:
    def test_two_gains_prelec(self, prelec_prefs):
        pi, split = decision_weights(Lottery([0.5, 0.5], [2.0, 1.0]), prelec_prefs)
        assert split == 2
        assert pi[0] == pytest.approx(0.435, abs=1e-3)
        assert pi[1] == pytest.approx(0.565, abs=1e-3)

    def test_identity_weights_equal_sorted_probabilities(self):
        lot = Lottery([0.3, 0.2, 0.5], [1.0, -4.0, 2.0])
        pi, split = decision_weights(lot, eut_preferences())
        # best to worst, ties in their original order
        order = np.argsort(-lot.outcomes, kind="stable")
        assert np.array_equal(pi, lot.probs[order])
        assert split == 2

    def test_single_certain_gain(self, prelec_prefs):
        pi, split = decision_weights(Lottery([1.0], [3.0]), prelec_prefs)
        assert split == 1
        assert pi[0] == 1.0

    def test_all_weights_nonnegative(self, prelec_prefs):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = rng.integers(1, 7)
            p = rng.dirichlet(np.ones(k))
            z = rng.normal(size=k)
            pi, _ = decision_weights(Lottery(p, z), prelec_prefs)
            assert np.all(pi >= 0.0)


class TestCptValue:
    def test_half_half_top_row(self, prelec_prefs, beta):
        lot = Lottery([0.5, 0.5], [2.0 * beta, 0.0])
        assert cpt_value(lot, prelec_prefs) == pytest.approx(2.0, abs=2e-3)

    def test_uniform_top_row(self, prelec_prefs, beta):
        lot = Lottery([0.25] * 4, [2.0 * beta, beta + 1.0, 0.0, 1.0])
        assert cpt_value(lot, prelec_prefs) == pytest.approx(1.985, abs=2e-3)

    def test_eut_mode_is_expectation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = rng.integers(1, 8)
            p = rng.dirichlet(np.ones(k))
            z = rng.normal(size=k)
            lot = Lottery(p, z)
            assert cpt_value(lot, eut_preferences()) == pytest.approx(
                float(p @ z), abs=1e-12
            )

    def test_losses_use_loss_weighting(self):
        prefs = CptPreferences(identity_value(0.0), identity_weighting(), prelec_weighting(0.5))
        lot = Lottery([0.5, 0.5], [-1.0, -3.0])
        w = prelec_weighting(0.5)
        # worst outcome weighted w(-from bottom): pi(-3) = w(0.5), pi(-1) = 1 - w(0.5)
        expected = -3.0 * w(0.5) + -1.0 * (1.0 - w(0.5))
        assert cpt_value(lot, prefs) == pytest.approx(expected, abs=1e-12)

    def test_full_mass_cumulative_is_exactly_one(self):
        # running block sums reach 0.9999999999999999 here although the
        # exactly rounded mass is 1.0; Prelec's slope at 1 turns that ulp
        # into a value error of 3e-8
        probs = [0.01922898478928853, 0.20209778718534505, 0.47282849227177554, 0.30584473575359084]
        outcomes = [0.9817, 0.9205, 0.8365, -0.0903]
        reference, gamma = -0.2037, 0.4107
        p = np.array(probs)
        cum = _block_cumulative(p, np.array(outcomes), math.fsum(probs))
        assert cum[-1] == 1.0

        def w(x):
            return 0.0 if x == 0.0 else math.exp(-((-math.log(x)) ** gamma))

        # every outcome is a gain and they are already sorted best first
        tops = [math.fsum(probs[:j]) / math.fsum(probs) for j in range(len(probs) + 1)]
        expected = sum(
            (z - reference) * (w(tops[j + 1]) - w(tops[j])) for j, z in enumerate(outcomes)
        )
        prefs = CptPreferences(identity_value(reference), prelec_weighting(gamma), identity_weighting())
        assert abs(cpt_value(Lottery(probs, outcomes), prefs) - expected) <= 1e-12

    @pytest.mark.parametrize(
        "outcomes", [[3.0, 2.0, -1.0, -3.0], [3.0, 3.0, -3.0, -3.0]]  # tied blocks as well
    )
    def test_zero_end_boundaries_raise_no_warning(self, prelec_prefs, outcomes):
        # the best gain and the worst loss have probability 0: Prelec weighs a
        # zero boundary, whose log(0) must not warn
        lot = Lottery([0.0, 0.3, 0.7, 0.0], outcomes)

        def w(x):
            return math.exp(-math.sqrt(-math.log(x)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cpt_value(lot, prelec_prefs)
            pi, split = decision_weights(lot, prelec_prefs)
        assert split == 2 and pi[0] == 0.0 and pi[-1] == 0.0
        assert value == pytest.approx(outcomes[1] * w(0.3) + outcomes[2] * w(0.7), abs=1e-12)


class TestCptValues:
    def test_all_loss_bottom_cumulative_is_pinned(self):
        # running sums from the bottom reach 0.9999999999999999 against the
        # forward total 1.0; pinned to 1.0 the value matches the scalar path
        probs = np.array([[0.1, 0.2, 0.3, 0.4]])
        z = np.array([-1.0, -2.0, -3.0, -4.0])
        assert np.cumsum(probs[0][::-1])[-1] < np.cumsum(probs[0])[-1] == 1.0
        w = prelec_weighting(0.5)
        prefs = CptPreferences(identity_value(0.0), w, w)
        scalar = cpt_value(Lottery(probs[0], z), prefs)
        assert abs(cpt_values(probs, z, prefs)[0] - scalar) <= 1e-15

    @pytest.mark.parametrize(
        "probs, z",
        [
            (np.array([0.5, 0.5]), np.array([1.0, 2.0])),
            (np.array([[0.5, 0.5]]), np.array([1.0])),
            (np.array([[0.7, 0.7]]), np.array([1.0, 2.0])),
            (np.array([[1.5, -0.5]]), np.array([1.0, 2.0])),
            (np.array([[np.nan, 1.0]]), np.array([1.0, 2.0])),
        ],
    )
    def test_rejects_bad_input(self, prelec_prefs, probs, z):
        with pytest.raises(ValueError):
            cpt_values(probs, z, prelec_prefs)


class TestCptRegret:
    def test_identical_outcomes_zero(self, prelec_prefs):
        assert cpt_regret([0.5, 0.5], [1.0, 2.0], [1.0, 2.0], prelec_prefs) == 0.0

    def test_uniform_counterfactual_bottom_row(self, prelec_prefs, beta, mu_unif):
        # derived from the reported values 1.99 and 1.985
        top = [2.0 * beta, beta + 1.0, 0.0, 1.0]
        regret = cpt_regret(mu_unif, [1.99] * 4, top, prelec_prefs)
        assert regret == pytest.approx(0.005, abs=3e-3)

    def test_odd_counterfactual_bottom_row(self, prelec_prefs, beta, mu_odd):
        # derived from the reported values 1.99 and 2
        top = [2.0 * beta, beta + 1.0, 0.0, 1.0]
        regret = cpt_regret(mu_odd, [1.99] * 4, top, prelec_prefs)
        assert regret == pytest.approx(-0.01, abs=3e-3)


class TestSerialization:
    def test_roundtrip_prelec(self, prelec_prefs):
        doc = preferences_to_dict(prelec_prefs)
        assert set(doc) == {"reference", "value", "weight_gain", "weight_loss"}
        back = preferences_from_dict(doc)
        assert back == prelec_prefs

    def test_roundtrip_piecewise_tabulated(self):
        prefs = CptPreferences(
            piecewise_power_value(1.5, 0.9, 0.7, 2.25),
            tabulated_weighting([(0.0, 0.0), (0.4, 0.5), (1.0, 1.0)]),
            identity_weighting(),
        )
        assert preferences_from_dict(preferences_to_dict(prefs)) == prefs
