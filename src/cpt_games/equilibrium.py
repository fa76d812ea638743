"""Equilibrium membership checks for games with CPT preferences.

Three membership notions are decided here:

* correlated: after being told her action by a mediator drawing from the
  joint distribution, no player gains CPT value by deviating;
* Nash: a product distribution where every supported action of every
  player attains the maximal CPT value against the others' mix;
* mediated: every supported conditional lies in the convex hull of the
  per-action acceptance region, decided through a sampled inner
  approximation of the region plus a linear feasibility check over the
  sample's candidate extreme points.

The acceptance region of (player, action) is the set of opponent mixes
against which that action is weakly preferred to every deviation.  The
exact region is not polyhedral under CPT, so ``sample_region`` enumerates
a simplex grid; a target that itself passes the exact region test is
always added as its own hull witness, which keeps every correlated member
a mediated member at the same tolerance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .cpt import cpt_value, cpt_values
from .games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    conditional,
    induced_lottery,
    marginal,
    player_rows,
    simplex_grid,
)
from .simplex import hull_residual

DEFAULT_TOL = 1e-9
DEFAULT_HULL_TOL = 1e-6
DEFAULT_GRID = 24
# each game's cut regions, {(i, a_i, resolution, tol): points}: neither key
# nor value refers to the game, so its regions go with it
_REGIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# each game's valued grids, {(i, resolution): (grid, values, row max)}, freed
# with the game by the same rule
_GRID_VALUES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_HULL_TOL",
    "DEFAULT_GRID",
    "Certificate",
    "action_values",
    "best_reaction",
    "region_membership",
    "check_correlated_eq",
    "check_nash",
    "simplex_grid",
    "sample_region",
    "hull_membership",
    "check_mediated_eq",
    "mediated_hull_distance",
    "default_grid_resolution",
]


def _json_margin(x: float) -> float | str:
    """``x`` for strict JSON: a value that is not finite is written as a string, "-inf"."""
    return x if np.isfinite(x) else str(float(x))


@dataclass(frozen=True)
class Certificate:
    """Outcome of a membership check.

    ``margin`` is the minimum slack of the binding inequality, measured in
    CPT-value units for region checks and as the negated sup-norm
    reconstruction residual for hull checks.  ``witness`` identifies either
    the most violated inequality or the convex combination certifying hull
    membership.  ``meta`` carries check parameters such as the grid
    resolution attached to sampled non-member verdicts.  ``to_dict`` is
    strict JSON: its margin goes through ``_json_margin``.
    """

    member: bool
    margin: float
    witness: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "member" if self.member else "non-member"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "margin": _json_margin(self.margin),
            "witness": self.witness,
            "meta": self.meta,
        }


def action_values(game: Game, i: int, pi: OpponentDistribution) -> np.ndarray:
    """CPT value of every action of player i against the opponent mix."""
    return np.array(
        [
            cpt_value(induced_lottery(game, i, pi, a), game.prefs[i])
            for a in range(game.num_actions(i))
        ]
    )


def best_reaction(game: Game, i: int, pi: OpponentDistribution) -> int:
    """Action with maximal CPT value; ties go to the lowest action index."""
    return int(np.argmax(action_values(game, i, pi)))


def region_membership(
    game: Game,
    i: int,
    a_i: int,
    dev: int,
    pi: OpponentDistribution,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Is ``a_i`` weakly preferred to ``dev`` against ``pi``?

    Returns (member, margin) with margin = V(a_i) - V(dev); membership
    means margin >= -tol.
    """
    values = action_values(game, i, pi)
    margin = float(values[a_i] - values[dev])
    return margin >= -tol, margin


def _region_margin(game: Game, i: int, a_i: int, pi: OpponentDistribution) -> float:
    """Worst slack of keeping a_i over all deviations (negative = violated)."""
    values = action_values(game, i, pi)
    return float(values[a_i] - values.max())


def _conditionals(mu: JointDistribution, players):
    """(i, a_i, conditional of mu given a_i) for every supported action."""
    for i in players:
        m = marginal(mu, i)
        for a_i in range(len(m)):
            if m[a_i] > 0.0:
                yield i, a_i, conditional(mu, i, a_i, m)


def _violation(player: int, action: int, deviation: int | None, **event) -> dict:
    """Witness of the most violated inequality."""
    return {
        "kind": "violation", "player": player, **event, "action": action, "deviation": deviation
    }


def _deviation_certificate(game: Game, cases, check: str, tol: float, clamp: bool) -> Certificate:
    """Certificate of the least slack V(a) - V(d) over pure deviations d != a.

    A case is (i, pi, supported actions of i, witness keys of the event):
    the assessment pi is what the conditioning event (a recommended action,
    the opponents' product mix, a received signal) tells player i, and the
    keys (``{}`` or ``{"signal": b}``) name that event in the witness.  A
    violation witness names where the least slack is first attained.
    ``clamp`` caps the margin at 0, a best action's margin against the top
    value; a scan with no deviation has margin 0.
    """
    worst, where = np.inf, None
    for i, pi, supported, event in cases:
        # Python floats: for a few actions a plain loop costs less than NumPy calls
        values = action_values(game, i, pi).tolist()
        for a in supported:
            for d, v in enumerate(values):
                if d != a and values[a] - v < worst:
                    worst, where = values[a] - v, (i, int(a), d, event)
    if where is None:
        worst = 0.0
    elif clamp:
        worst = min(worst, 0.0)
    member = worst >= -tol
    witness = {"kind": "none"} if member else _violation(*where[:3], **where[3])
    return Certificate(member, worst, witness, {"check": check, "tol": tol})


def check_correlated_eq(
    game: Game, mu: JointDistribution, tol: float = DEFAULT_TOL
) -> Certificate:
    """Membership of a joint distribution in the correlated-equilibrium set."""
    if mu.shape != game.shape:
        raise ValueError("distribution shape does not match the game")
    cases = ((i, pi, [a_i], {}) for i, a_i, pi in _conditionals(mu, range(game.n)))
    return _deviation_certificate(game, cases, "correlated", tol, clamp=False)


def check_nash(
    game: Game, mu: ProductDistribution, tol: float = DEFAULT_TOL
) -> Certificate:
    """Membership of a product distribution in the CPT Nash set.

    Every supported action of every player must attain the maximum CPT
    value against the others' mix; because the averaged value of a mixed
    deviation is linear in its weights, checking pure deviations suffices.
    """
    if not isinstance(mu, ProductDistribution):
        raise TypeError("check_nash requires a product-form distribution")
    if tuple(len(f) for f in mu.factors) != game.shape:
        raise ValueError("distribution shape does not match the game")
    cases = (
        (i, mu.opponent_mix(i), np.flatnonzero(f > 0.0), {}) for i, f in enumerate(mu.factors)
    )
    return _deviation_certificate(game, cases, "nash", tol, clamp=True)


def default_grid_resolution(game: Game, i: int) -> int:
    """Default sampling resolution, scaled down with opponent-space size.

    Grid cardinality is C(resolution + d - 1, d - 1); the defaults keep it
    in the low thousands so checks stay interactive.
    """
    d = game.num_opponent_profiles(i)
    if d <= 4:
        return DEFAULT_GRID
    if d <= 8:
        return 6
    return 2


def sample_region(
    game: Game, i: int, a_i: int, resolution: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Grid points of the opponent simplex where ``a_i`` is weakly best.

    Returns the flat opponent-profile vectors (denominator ``resolution``)
    whose worst deviation slack is >= -tol, in deterministic grid order.
    Each action's value on the whole grid is one ``cpt_values`` call, made
    once per (game, player, resolution) and shared by every action and
    tolerance.
    """
    kept = _GRID_VALUES.setdefault(game, {})
    key = (i, resolution)
    if key not in kept:
        grid = simplex_grid(game.num_opponent_profiles(i), resolution)
        outcomes = player_rows(game.payoffs[i], i)
        values = np.column_stack([cpt_values(grid, z, game.prefs[i]) for z in outcomes])
        kept[key] = grid, values, values.max(axis=1)
    grid, values, top = kept[key]
    return grid[values[:, a_i] - top >= -tol]


def _extreme_candidates(points: np.ndarray, resolution: int) -> np.ndarray:
    """The points of a grid region that may be extreme points of its hull.

    A lattice point c is dropped when c + e_j - e_k and c - e_j + e_k are
    both in the region for some pair j < k: c is their midpoint, so it is
    not an extreme point, and the convex hull of the kept points is the
    hull of the whole region.  Points are looked up by mixed-radix keys of
    their first d - 1 lattice coordinates (Python integers where int64
    would overflow).  The kept points stay in their given order.
    """
    n, d = points.shape
    lattice = np.rint(points * resolution).astype(np.int64)
    big = (resolution + 1) ** (d - 1) > np.iinfo(np.int64).max
    weight = np.array(
        [(resolution + 1) ** (d - 2 - j) for j in range(d - 1)] + [0],
        dtype=object if big else np.int64,
    )
    keys = lattice @ weight
    table = np.sort(keys)

    def present(q):
        pos = np.minimum(np.searchsorted(table, q), n - 1)
        return table[pos] == q

    j, k = np.triu_indices(d, 1)
    row, pair = np.nonzero((lattice[:, j] > 0) & (lattice[:, k] > 0))
    step = (weight[j] - weight[k])[pair]
    mid = present(keys[row] + step) & present(keys[row] - step)
    dropped = np.zeros(n, dtype=bool)
    dropped[row[mid]] = True
    return points[~dropped]


def hull_membership(
    target: OpponentDistribution | np.ndarray,
    points: np.ndarray,
    tol: float = DEFAULT_HULL_TOL,
) -> Certificate:
    """Can ``target`` be written as a convex combination of ``points``?

    Solved as a linear feasibility problem minimizing the sup-norm
    reconstruction error; the witness holds the combination weights and the
    points used.  An empty point list is an immediate non-member.
    """
    y = target.flat() if isinstance(target, OpponentDistribution) else np.asarray(target, float)
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return Certificate(False, -np.inf, {"kind": "hull", "theta": [], "points": []})
    residual, theta = hull_residual(pts, y)
    member = residual <= tol
    used = theta > 1e-12
    witness = {
        "kind": "hull",
        "theta": theta[used].tolist(),
        "points": pts[used].tolist(),
    }
    return Certificate(member, -residual, witness, {"check": "hull", "tol": tol})


def _hull_check_one(
    game: Game,
    i: int,
    a_i: int,
    pi: OpponentDistribution,
    resolution: int,
    tol: float,
    region_cache: dict | weakref.WeakKeyDictionary,
) -> tuple[Certificate, int]:
    """Hull membership of one conditional against its acceptance region.

    The region is cut to its candidate extreme points once and stored in
    ``region_cache[game]`` under (player, action, resolution, tolerance).
    Returns the certificate and the number of region points in the hull LP.
    """
    # a conditional that passes the exact region test certifies itself
    if _region_margin(game, i, a_i, pi) >= -tol:
        return Certificate(
            True, 0.0, {"kind": "hull", "theta": [1.0], "points": [pi.flat().tolist()]}
        ), 0
    regions = region_cache.setdefault(game, {})
    key = (i, a_i, resolution, tol)
    points = regions.get(key)
    if points is None:
        points = _extreme_candidates(sample_region(game, i, a_i, resolution, tol), resolution)
        regions[key] = points
    return hull_membership(pi, points, tol), len(points)


def _hull_checks(game, mu, players, resolution, tol, region_cache=_REGIONS):
    """(i, a_i, certificate, LP points) for every supported conditional."""
    if resolution is not None and resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    res = [
        resolution if resolution is not None else default_grid_resolution(game, i)
        for i in range(game.n)
    ]
    for i, a_i, pi in _conditionals(mu, players):
        yield i, a_i, *_hull_check_one(game, i, a_i, pi, res[i], tol, region_cache)


def check_mediated_eq(
    game: Game,
    mu: JointDistribution,
    resolution: int | None = None,
    tol: float = DEFAULT_HULL_TOL,
    region_cache: dict | None = None,
) -> Certificate:
    """Grid-approximated membership in the mediated-equilibrium set.

    Every supported conditional of every player must lie in the convex
    hull of its sampled acceptance region.  Membership verdicts are sound
    up to the region tolerance; non-membership is relative to the grid
    resolution recorded in ``meta``, which also counts the region points
    handed to hull LPs (``lp_points``).  Sampled regions live as long as
    their game; a ``region_cache`` dict maps each game to its regions in
    the caller's hands instead.  A resolution below 1 raises ``ValueError``.
    """
    if mu.shape != game.shape:
        raise ValueError("distribution shape does not match the game")
    worst, worst_key, hulls, lp_points = np.inf, None, {}, 0
    cache = _REGIONS if region_cache is None else region_cache
    for i, a_i, cert, used in _hull_checks(game, mu, range(game.n), resolution, tol, cache):
        lp_points += used
        hulls[f"{i}:{a_i}"] = cert.witness
        if cert.margin < worst:
            worst, worst_key = cert.margin, (i, a_i)
    member = worst >= -tol
    witness = {"kind": "mediated", "per_action": hulls}
    if not member:
        witness = _violation(*worst_key, None)
    return Certificate(
        member,
        worst,
        witness,
        {
            "check": "mediated",
            "tol": tol,
            "resolution": resolution if resolution is not None else "default",
            "lp_points": lp_points,
        },
    )


def mediated_hull_distance(
    game: Game,
    mu: JointDistribution,
    resolution: int | None = None,
    tol: float = DEFAULT_HULL_TOL,
    players: list[int] | None = None,
) -> float:
    """Largest sup-norm hull residual over the supported conditionals.

    Zero for members of the sampled mediated set.  Restricting ``players``
    measures the per-player hull distance used by convergence diagnostics.
    It samples only the regions its game does not yet keep.
    """
    players = players if players is not None else range(game.n)
    checks = _hull_checks(game, mu, players, resolution, tol)
    # 0.0 first: a self-certified conditional's -margin is -0.0
    return max([0.0] + [-cert.margin for _, _, cert, _ in checks])
