"""Mediated games: pushforwards, signal assessments, mediator construction."""

import itertools
import math
import re

import numpy as np
import pytest

from cpt_games.games import JointDistribution, ProductDistribution, marginal, product_join
from cpt_games.equilibrium import (
    DEFAULT_TOL,
    _conditionals,
    _region_margin,
    check_correlated_eq,
    check_mediated_eq,
)
from cpt_games import mediated
from cpt_games.harness import canonical_replay_instance, random_game
from cpt_games.mediated import (
    WITNESS_MIX_TOL,
    InvalidWitnessError,
    MediatedGame,
    RandomizedStrategyProfile,
    UnsupportedSignalError,
    construct_mediator,
    identity_mediated_game,
    induced_action_distribution,
    obedient_profile,
    reduce_convex_witness,
    signal_assessment,
    verify_mediated_nash,
)
from conftest import opp
from cpt_games.scripted import (
    EVEN_MIX,
    ODD_MIX,
    counterexample_game,
    counterexample_game_3p,
    even_cycle_distribution,
    odd_cycle_distribution,
)


def star_witnesses(mu_star):
    w = {(0, 0): [(0.5, ODD_MIX), (0.5, EVEN_MIX)]}
    for c in range(4):
        w[(1, c)] = [(1.0, np.array([1.0, 0.0]))]
    return w


def test_massless_mediator_rejected(game):
    with pytest.raises(ValueError, match="no mass"):
        MediatedGame(game, game.actions, JointDistribution(np.zeros(game.shape)))


class TestPushforward:
    def test_identity_obedience_reproduces_mediator(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        eta = induced_action_distribution(mg, obedient_profile(mg))
        assert np.abs(eta.weights - mu_o.weights).max() < 1e-15

    def test_signal_blind_players_give_product(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = RandomizedStrategyProfile(
            (
                np.tile([0.3, 0.7], (2, 1)),
                np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)),
            )
        )
        eta = induced_action_distribution(mg, sigma)
        expected = product_join(ProductDistribution([[0.3, 0.7], [0.1, 0.2, 0.3, 0.4]]))
        assert np.abs(eta.weights - expected.weights).max() < 1e-12

    def test_constructed_mediator_reproduces_target(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        eta = induced_action_distribution(mg, sigma)
        assert np.abs(eta.weights - mu_star.weights).max() < 1e-9


class TestSignalAssessment:
    def test_identity_mediator_gives_conditional(self, game, mu_o, mu_odd):
        mg = identity_mediated_game(game, mu_o)
        pi = signal_assessment(mg, obedient_profile(mg), 0, 0)
        assert np.allclose(pi.flat(), mu_odd)

    def test_signal_blind_opponents_make_it_constant(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = RandomizedStrategyProfile(
            (np.eye(2), np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)))
        )
        pi = signal_assessment(mg, sigma, 0, 0)
        assert np.allclose(pi.flat(), [0.1, 0.2, 0.3, 0.4])

    def test_constructed_mediator_recovers_witness_points(self, game, mu_star, mu_odd, mu_even):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        # row player's signals: (action 0, witness index m)
        assert np.allclose(signal_assessment(mg, sigma, 0, 0).flat(), mu_odd, atol=1e-12)
        assert np.allclose(signal_assessment(mg, sigma, 0, 1).flat(), mu_even, atol=1e-12)

    def test_unsupported_signal_errors(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        with pytest.raises(UnsupportedSignalError):
            signal_assessment(mg, obedient_profile(mg), 0, 1)


class TestVerifyMediatedNash:
    def test_identity_obedient_member_iff_correlated(self, game, mu_o, mu_star):
        mg_o = identity_mediated_game(game, mu_o)
        assert verify_mediated_nash(mg_o, obedient_profile(mg_o)).member
        mg_s = identity_mediated_game(game, mu_star)
        cert = verify_mediated_nash(mg_s, obedient_profile(mg_s))
        assert not cert.member
        assert cert.witness["player"] == 0

    def test_constant_nash_mix_is_member_for_any_mediator(self, game, mu_o, mu_star):
        # bottom row against uniform columns is a CPT Nash profile
        sigma = RandomizedStrategyProfile(
            (np.tile([0.0, 1.0], (2, 1)), np.tile([0.25] * 4, (4, 1)))
        )
        for psi in (mu_o, mu_star):
            mg = identity_mediated_game(game, psi)
            assert verify_mediated_nash(mg, sigma).member

    def test_constructed_mediator_is_mediated_nash(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        assert verify_mediated_nash(mg, sigma).member


class TestConstructMediator:
    def test_trivial_witnesses_reproduce_correlated_member(self, game, mu_o, mu_odd):
        # each supported conditional is its own single witness point
        witnesses = {
            (0, 0): [(1.0, mu_odd)],
            (1, 0): [(1.0, np.array([1.0, 0.0]))],
            (1, 2): [(1.0, np.array([1.0, 0.0]))],
        }
        mg, sigma = construct_mediator(game, mu_o, witnesses)
        eta = induced_action_distribution(mg, sigma)
        assert np.abs(eta.weights - mu_o.weights).max() < 1e-12
        assert verify_mediated_nash(mg, sigma).member

    def test_signal_marginals_factor_into_witness_weights(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        psi_row = mg.signal_marginal(0)
        # row marginal 1.0 on action 0, split half/half over the two witnesses
        assert psi_row[0] == pytest.approx(0.5, abs=1e-12)
        assert psi_row[1] == pytest.approx(0.5, abs=1e-12)

    def test_inconsistent_witnesses_rejected(self, game, mu_star, mu_odd):
        bad = star_witnesses(mu_star)
        bad[(0, 0)] = [(0.9, ODD_MIX), (0.1, EVEN_MIX)]  # mixes to the wrong point
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_star, bad)

    def test_missing_witness_rejected(self, game, mu_star):
        bad = star_witnesses(mu_star)
        del bad[(1, 2)]
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_star, bad)

    def test_negative_witness_entry_rejected(self, game, mu_star):
        # the two points mix to the top row's conditional exactly, but each
        # has an entry of -1e-3
        shift = 1e-3 * np.array([1.0, -1.0, 0.0, 0.0])
        bad = star_witnesses(mu_star)
        bad[(0, 0)] = [(0.5, ODD_MIX + shift), (0.5, EVEN_MIX - shift)]
        with pytest.raises(
            InvalidWitnessError,
            match=r"^witness point 0 for player 0 action 0 has a negative entry$",
        ):
            construct_mediator(game, mu_star, bad)

    def test_witness_mass_off_the_support_rejected(self, game, mu_star):
        # mu_star's bottom row is empty, so each column's conditional is the
        # point mass on the top row; the list mixes to it within
        # WITNESS_MIX_TOL, but its second point puts 0.005 on the bottom row
        bad = star_witnesses(mu_star)
        bad[(1, 2)] = [(1 - 1e-4, np.array([1.0, 0.0])), (1e-4, np.array([0.995, 0.005]))]
        with pytest.raises(
            InvalidWitnessError,
            match=r"^witness point 1 for player 1 action 2 puts mass off the support "
            r"of the conditional$",
        ):
            construct_mediator(game, mu_star, bad)
        bad[(1, 2)] = [(1 - 1e-4, np.array([1.0, 0.0])), (1e-4, np.array([1.0, 0.0]))]
        construct_mediator(game, mu_star, bad)

    def test_off_region_witness_rejected(self, game, mu_o, mu_odd, mu_unif):
        # the uniform mix is not in the top row's acceptance region, so a
        # "witness" placing mass on it must fail the post-hoc check
        witnesses = {
            (0, 0): [(1.0, mu_odd)],
            (1, 0): [(1.0, np.array([1.0, 0.0]))],
            (1, 2): [(1.0, np.array([1.0, 0.0]))],
        }
        mu_bad = JointDistribution(np.array([[0.25, 0.25, 0.25, 0.25], [0, 0, 0, 0.0]]))
        witnesses[(0, 0)] = [(1.0, mu_unif)]
        witnesses[(1, 1)] = [(1.0, np.array([1.0, 0.0]))]
        witnesses[(1, 3)] = [(1.0, np.array([1.0, 0.0]))]
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_bad, witnesses)


class TestReduceConvexWitness:
    def test_reduces_redundant_combination(self):
        rng = np.random.default_rng(2)
        pts = rng.dirichlet(np.ones(3), size=6)
        theta = rng.dirichlet(np.ones(6))
        target = pts.T @ theta
        red_pts, red_theta = reduce_convex_witness(pts, theta, 4)
        assert red_theta.size <= 4
        assert np.abs(red_pts.T @ red_theta - target).max() < 1e-9
        assert red_theta.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(red_theta >= 0.0)

    def test_keeps_small_combinations(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        theta = np.array([0.25, 0.75])
        red_pts, red_theta = reduce_convex_witness(pts, theta, 2)
        assert np.allclose(red_theta, theta)


class TestObedienceEquivalence:
    def test_matches_correlated_check_on_random_distributions(self, game):
        rng = np.random.default_rng(77)
        from cpt_games.harness import random_distribution

        for _ in range(100):
            psi = random_distribution(rng, (2, 4))
            mg = identity_mediated_game(game, psi)
            med = verify_mediated_nash(mg, obedient_profile(mg))
            corr = check_correlated_eq(game, psi)
            assert med.member == corr.member

    def test_matches_correlated_check_on_random_games(self):
        rng = np.random.default_rng(123)
        from cpt_games.harness import random_distribution, random_game

        for _ in range(4):
            g = random_game(rng, (2, 3))
            for _ in range(50):
                psi = random_distribution(rng, (2, 3))
                mg = identity_mediated_game(g, psi)
                med = verify_mediated_nash(mg, obedient_profile(mg))
                corr = check_correlated_eq(g, psi)
                assert med.member == corr.member
                if not med.member:
                    assert med.margin == pytest.approx(corr.margin, abs=1e-12)


def reference_construct_mediator(game, mu, witnesses, check=True):
    """Frozen copy of the entry-by-entry construction and its post-hoc check."""
    n = game.n
    margs = [marginal(mu, i) for i in range(n)]
    n_idx = [game.num_opponent_profiles(i) for i in range(n)]
    thetas = [dict() for _ in range(n)]
    zetas = [dict() for _ in range(n)]
    for i, a_i, target in _conditionals(mu, range(n)):
        if (i, a_i) not in witnesses:
            raise InvalidWitnessError(f"missing witness for player {i} action {a_i}")
        pairs = witnesses[(i, a_i)]
        th = np.array([w for w, _ in pairs], dtype=float)
        zs = np.array([np.asarray(z, dtype=float).ravel() for _, z in pairs])
        if np.any(th < -1e-12) or abs(th.sum() - 1.0) > 1e-9:
            raise InvalidWitnessError(
                f"weights for player {i} action {a_i} are not a distribution"
            )
        th = np.clip(th, 0.0, None)
        th = th / th.sum()
        if th.size > n_idx[i]:
            zs, th = reduce_convex_witness(zs, th, n_idx[i])
        if th.size > n_idx[i]:
            raise InvalidWitnessError(
                f"witness for player {i} action {a_i} needs more than "
                f"{n_idx[i]} points after reduction"
            )
        if np.max(np.abs(zs.T @ th - target.flat())) > WITNESS_MIX_TOL:
            raise InvalidWitnessError(
                f"witness mixture for player {i} action {a_i} misses the conditional"
            )
        if th.size < n_idx[i]:
            pad = n_idx[i] - th.size
            th = np.concatenate([th, np.zeros(pad)])
            zs = np.vstack([zs, np.repeat(zs[-1:], pad, axis=0)])
        thetas[i][a_i] = th
        zetas[i][a_i] = zs

    signal_labels = tuple(
        tuple(f"{a}#{m}" for a in game.actions[i] for m in range(1, n_idx[i] + 1))
        for i in range(n)
    )
    signal_shape = tuple(game.num_actions(i) * n_idx[i] for i in range(n))
    psi = np.zeros(signal_shape)
    for a in itertools.product(*[range(s) for s in game.shape]):
        p_a = mu.weights[a]
        if p_a <= 0.0:
            continue
        conds = []
        flat_opp = []
        for i in range(n):
            opp = tuple(a[j] for j in range(n) if j != i)
            flat_opp.append(int(np.ravel_multi_index(opp, game.opponent_shape(i))))
            conds.append(mu.weights[a] / margs[i][a[i]])
        denom = math.prod(conds)
        for ms in itertools.product(*[range(n_idx[i]) for i in range(n)]):
            num = p_a
            for i in range(n):
                num *= thetas[i][a[i]][ms[i]] * zetas[i][a[i]][ms[i], flat_opp[i]]
            if num == 0.0:
                continue
            psi[tuple(a[i] * n_idx[i] + ms[i] for i in range(n))] = num / denom

    mg = MediatedGame(game, signal_labels, JointDistribution(psi))
    maps = []
    for i in range(n):
        m = np.zeros((signal_shape[i], game.num_actions(i)))
        for a_i in range(game.num_actions(i)):
            for mi in range(n_idx[i]):
                m[a_i * n_idx[i] + mi, a_i] = 1.0
        maps.append(m)
    sigma = RandomizedStrategyProfile(tuple(maps))
    if not check:
        return mg, sigma

    eta = induced_action_distribution(mg, sigma)
    if np.max(np.abs(eta.weights - mu.weights)) > 1e-9:
        raise InvalidWitnessError("pushforward of the constructed mediator misses mu")
    for i in range(n):
        psi_i = mg.signal_marginal(i)
        for a_i in range(game.num_actions(i)):
            if margs[i][a_i] <= 0.0:
                continue
            for mi in range(n_idx[i]):
                b_i = a_i * n_idx[i] + mi
                if abs(psi_i[b_i] - margs[i][a_i] * thetas[i][a_i][mi]) > 1e-9:
                    raise InvalidWitnessError(
                        f"signal marginal of player {i} misses its witness weight"
                    )
                if psi_i[b_i] <= 0.0:
                    continue
                pi = signal_assessment(mg, sigma, i, b_i)
                if _region_margin(game, i, a_i, pi) < -DEFAULT_TOL:
                    raise InvalidWitnessError(
                        f"witness point {mi} for player {i} action {a_i} "
                        "is outside the acceptance region"
                    )
    return mg, sigma


OUTSIDE = "witness point # for player # action # is outside the acceptance region"


def _outcome(build, game, mu, witnesses):
    """The built mediator, or the failed check (the message without its numbers)."""
    try:
        return build(game, mu, witnesses)
    except InvalidWitnessError as e:
        return re.sub(r"\d+", "#", str(e))


def hull_witnesses(game, mu, resolution):
    """``check_mediated_eq``'s per-action hull combinations, as witness lists."""
    cert = check_mediated_eq(game, mu, resolution=resolution)
    assert cert.member
    out = {}
    for key, hull in cert.witness["per_action"].items():
        i, a_i = map(int, key.split(":"))
        out[(i, a_i)] = [(t, np.array(z)) for t, z in zip(hull["theta"], hull["points"])]
    return out


def witness_variants(witnesses):
    """The lists as given, each split into three equal copies, and each collapsed to its mix."""
    yield witnesses
    yield {k: [(t / 3.0, z) for t, z in v] * 3 for k, v in witnesses.items()}
    yield {k: [(1.0, sum(t * z for t, z in v))] for k, v in witnesses.items()}


def perturbed_witnesses(rng, mu, n):
    """Random lists of 1 to 2d + 2 points whose mix is each conditional.

    Points move off the conditional along zero-sum directions on its
    support, scaled to stay in the simplex; most leave the acceptance region.
    """
    out = {}
    for i, a_i, pi in _conditionals(mu, range(n)):
        c = pi.flat()
        m = int(rng.integers(1, 2 * c.size + 3))
        theta = rng.dirichlet(np.ones(m))
        d = rng.normal(size=(m, c.size)) * (c > 0)
        d[:, c > 0] -= d[:, c > 0].mean(axis=1, keepdims=True)
        d -= theta @ d
        d[:, c == 0] = 0.0
        scale = float(rng.choice([0.0, 1e-3, 0.05]))
        neg = d < 0
        if neg.any():
            scale = min(scale, 0.9 * float(np.min(np.broadcast_to(c, d.shape)[neg] / -d[neg])))
        out[(i, a_i)] = [(float(t), z) for t, z in zip(theta, c + scale * d)]
    return out


def _sparse_distribution(rng, shape):
    w = rng.dirichlet(np.full(int(np.prod(shape)), 0.3))
    w[w < 0.05] = 0.0
    return JointDistribution.from_flat(w / w.sum(), shape)


def _member_cases():
    """Games, member distributions and hull witnesses, 2 and 3 players."""
    game = counterexample_game()
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        mu = JointDistribution(lam * odd_cycle_distribution() + (1 - lam) * even_cycle_distribution())
        yield game, mu, hull_witnesses(game, mu, 24)
    game3 = counterexample_game_3p()
    w3 = np.zeros((2, 4, 4))
    w3[0, np.arange(4), np.arange(4)] = 0.25  # the cycle average, columns agreeing
    mu3 = JointDistribution(w3)
    yield game3, mu3, hull_witnesses(game3, mu3, None)
    rng = np.random.default_rng(11)
    for shape in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]:
        for g in range(4):
            game = random_game(rng, shape, eut=g % 2 == 1)
            for _ in range(10):
                mu = _sparse_distribution(rng, shape)
                if check_mediated_eq(game, mu, resolution=6).member:
                    yield game, mu, hull_witnesses(game, mu, 6)


class TestConstructionMatchesReference:
    """Profile-block construction against the frozen entry-by-entry one."""

    def assert_same(self, game, mu, witnesses, check=True):
        got = _outcome(construct_mediator, game, mu, witnesses)
        want = _outcome(
            lambda *args: reference_construct_mediator(*args, check=check), game, mu, witnesses
        )
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return got
        (mg, sigma), (ref_mg, ref_sigma) = got, want
        assert np.array_equal(mg.mediator.weights, ref_mg.mediator.weights)
        assert mg.signals == ref_mg.signals
        assert all(np.array_equal(m, r) for m, r in zip(sigma.maps, ref_sigma.maps))
        return "built"

    def test_canonical_instance(self):
        game, mu, mg, sigma, _ = canonical_replay_instance()
        ref_mg, ref_sigma = reference_construct_mediator(game, mu, star_witnesses(mu))
        assert np.array_equal(mg.mediator.weights, ref_mg.mediator.weights)
        assert mg.signals == ref_mg.signals
        assert all(np.array_equal(m, r) for m, r in zip(sigma.maps, ref_sigma.maps))

    def test_hand_built_witnesses(self, game, mu_o, mu_star, mu_odd, mu_unif):
        trivial = {
            (0, 0): [(1.0, mu_odd)],
            (1, 0): [(1.0, np.array([1.0, 0.0]))],
            (1, 2): [(1.0, np.array([1.0, 0.0]))],
        }
        assert self.assert_same(game, mu_o, trivial) == "built"
        assert self.assert_same(game, mu_star, star_witnesses(mu_star)) == "built"
        bad = star_witnesses(mu_star)
        bad[(0, 0)] = [(0.9, ODD_MIX), (0.1, EVEN_MIX)]
        assert "misses the conditional" in self.assert_same(game, mu_star, bad)
        missing = star_witnesses(mu_star)
        del missing[(1, 2)]
        assert "missing witness" in self.assert_same(game, mu_star, missing)
        mu_bad = JointDistribution(np.array([[0.25, 0.25, 0.25, 0.25], [0, 0, 0, 0.0]]))
        off_region = {(0, 0): [(1.0, mu_unif)]}
        off_region.update({(1, c): [(1.0, np.array([1.0, 0.0]))] for c in range(4)})
        assert "outside the acceptance region" in self.assert_same(game, mu_bad, off_region)

    def test_marginal_and_region_tolerance_edges(self, game, mu_star, mu_odd, mu_unif):
        # witness points that leak 1e-7 of mass onto the empty bottom row,
        # in opposite directions: the pushforward is exact, the signal
        # marginals are off by 5e-8
        leak = star_witnesses(mu_star)
        leak[(1, 0)] = [(0.5, np.array([1 - 1e-7, 1e-7])), (0.5, np.array([1 + 1e-7, -1e-7]))]
        assert "signal marginal" in self.assert_same(game, mu_star, leak)
        # a top-row conditional between the odd mix and the uniform mix,
        # just outside (-1e-8) or within (-1e-10) the region tolerance 1e-9
        for target, verdict in ((-1e-8, OUTSIDE), (-1e-10, "built")):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                t = 0.5 * (lo + hi)
                x = (1 - t) * mu_odd + t * mu_unif
                lo, hi = (t, hi) if _region_margin(game, 0, 0, opp(0, x)) > target else (lo, t)
            assert _region_margin(game, 0, 0, opp(0, x)) == pytest.approx(target, abs=1e-12)
            mu = JointDistribution(np.vstack([x, np.zeros(4)]))
            witnesses = {(0, 0): [(1.0, x)]}
            witnesses.update({(1, c): [(1.0, np.array([1.0, 0.0]))] for c in range(4)})
            assert self.assert_same(game, mu, witnesses) == verdict

    def test_hull_witnesses_of_members(self):
        seen = {"built": 0, "rejected": 0, "built_3p": 0, "reduced": 0, "padded": 0}
        for game, mu, witnesses in _member_cases():
            for variant in witness_variants(witnesses):
                verdict = self.assert_same(game, mu, variant)
                seen["built" if verdict == "built" else "rejected"] += 1
                lengths = [
                    (len(v), game.num_opponent_profiles(i)) for (i, _), v in variant.items()
                ]
                if verdict == "built":
                    seen["built_3p"] += game.n == 3
                    seen["reduced"] += any(m > n_idx for m, n_idx in lengths)
                    seen["padded"] += any(m < n_idx for m, n_idx in lengths)
        assert seen["built_3p"] and seen["reduced"] and seen["padded"] and seen["rejected"], seen

    @pytest.mark.parametrize("check", [True, False])
    def test_perturbed_witnesses(self, check, monkeypatch):
        # without the post-hoc checks every witness set builds, so psi is
        # compared also where the points leave the acceptance region
        if not check:
            monkeypatch.setattr(mediated, "_check_construction", lambda *args: None)
        rng = np.random.default_rng(5)
        seen = {"built": 0, "rejected": 0}
        for shape in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 2, 2)]:
            for g in range(2):
                game = random_game(rng, shape, eut=g == 1)
                for _ in range(8):
                    mu = _sparse_distribution(rng, shape)
                    witnesses = perturbed_witnesses(rng, mu, game.n)
                    verdict = self.assert_same(game, mu, witnesses, check)
                    seen["built" if verdict == "built" else "rejected"] += 1
        assert seen["rejected" if check else "built"] == 96, seen
