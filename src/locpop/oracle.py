"""Brute-force verification of the closed forms by discretization.

Everything here re-derives results from first principles on grids: the
market-equilibrium oracle checks the defining utility inequalities at
every grid consumer for every candidate split, the deviation oracle
maximizes over a location grid, the welfare optimum oracle exhaustively
searches the (x1, x2, s1) box, and the region scan decides every market
equilibrium of every grid cell, one array row of cells at a time, by the
same arithmetic as the scalar Nash decision. These routines certify the
closed forms within principled grid tolerances; they are the provenance
for the frozen expected values in the test suite.

:func:`verify_suites` runs the seven cross-check suites of ``locpop
verify`` and yields one ``(suite, ok, detail)`` record per suite; the
command line only prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .behaviors import (
    NE_TOL,
    BehaviorKind,
    _check_deviation_args,
    _deviation_values,
    _supremum,
    best_deviation,
    nash_diameter_bounds_check,
    pessimistic_nash_interval,
)
from .model import (
    _SLOT_KINDS,
    EquilibriumProfile,
    GameParams,
    Kind,
    Locations,
    MarketOutcome,
    _condition_gaps,
    _equilibria_array,
    _is_market_equilibrium_array,
    distinct_shares,
    enumerate_market_equilibria,
    mirror_profile,
)
from .welfare import OptimumPoint, social_optimum

__all__ = [
    "GridSpec",
    "oracle_market_equilibria",
    "oracle_best_deviation",
    "oracle_social_optimum",
    "oracle_ne_region_scan",
    "oracle_consumer_welfare",
    "verify_suites",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolutions for the brute-force routines.

    n_locations is the location / deviation axis and n_shares the
    candidate-split axis. The market-equilibrium oracle samples one
    consumer at the midpoint of each of the n_shares - 1 share cells, so
    the cut at candidate j, counting from 0, has exactly j consumers on
    its left and every cut inside (0, 1) has a consumer half a cell
    either side.

    The grid-only arrays of the market-equilibrium oracle are built once
    per instance, on first use, and are read-only; equality and hashing
    see only the two resolutions.
    """

    n_locations: int = 2001
    n_shares: int = 2001

    def __post_init__(self):
        for name in ("n_locations", "n_shares"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")

    @cached_property
    def _share_grid(self):
        """(consumers, candidates, sign) of :func:`_passing_shares`: the
        share-cell midpoints, the candidate splits s1 and 2 s1 - 1."""
        n = self.n_shares - 1
        consumers = (np.arange(n) + 0.5) / n
        candidates = np.linspace(0.0, 1.0, self.n_shares)
        sign = 2.0 * candidates - 1.0
        for array in (consumers, candidates, sign):
            array.flags.writeable = False
        return consumers, candidates, sign


def oracle_market_equilibria(params: GameParams, loc: Locations, grid: GridSpec) -> list:
    """Approximate equilibrium splits by checking the definition pointwise.

    For each candidate s1 on the share grid, every consumer left of the
    cut must weakly prefer firm 1 and every consumer right of it must
    weakly prefer firm 2, the consumers sitting at the share-cell
    midpoints. The slack (:func:`_share_slack`) is 1e-9 plus (1 + a)
    times the share-grid spacing: an exact equilibrium displaced by up to
    half a grid step perturbs the tested utility margins by at most that
    much, so the grid split nearest each true equilibrium passes. Maximal
    runs of passing candidates are collapsed to their midpoints, returned
    as Python floats in increasing order.
    """
    return _run_midpoints(*_passing_shares(params, loc, grid))


def _share_slack(a: float, grid: GridSpec) -> float:
    """Slack of the pointwise test of :func:`oracle_market_equilibria`."""
    return 1e-9 + (1.0 + a) * (1.0 / (grid.n_shares - 1))


def _passing_shares(params: GameParams, loc: Locations, grid: GridSpec):
    """The share grid of :func:`oracle_market_equilibria` and its mask of
    candidates passing the pointwise test.

    Only the utility margins depend on the instance; the grid arrays come
    from ``grid``, built once. Candidate j has consumers 0..j-1 on its
    left, so the prefix minimum and the suffix maximum of the margins are
    indexed by candidate. The prefix minimum carries a leading +inf and
    the suffix maximum a trailing -inf, so the cut at 0 (no consumer on
    its left) and the cut at 1 (none on its right) read a sentinel that
    passes that side's test.
    """
    a = params.a
    consumers, candidates, sign = grid._share_grid
    # advantage of firm 1 at share s1: a*(2 s1 - 1) + margin(v)
    margin = np.abs(consumers - loc.x2) - np.abs(consumers - loc.x1)
    # prefix_min[j]: least margin left of cut j; suffix_max[j]: greatest right of it
    prefix_min = np.empty(grid.n_shares)
    prefix_min[0] = np.inf
    np.minimum.accumulate(margin, out=prefix_min[1:])
    suffix_max = np.empty(grid.n_shares)
    suffix_max[-1] = -np.inf
    np.maximum.accumulate(margin[::-1], out=suffix_max[-2::-1])

    slack = _share_slack(a, grid)
    shift = a * sign
    return candidates, (shift + prefix_min >= -slack) & (shift + suffix_max <= slack)


def _run_midpoints(values, mask) -> list:
    """Midpoint of ``values`` over each maximal run of ``mask``, in order.

    A run starts where the ``False``-padded mask turns on and ends one
    place before it turns off.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return (0.5 * (values[edges[0::2]] + values[edges[1::2] - 1])).tolist()


def oracle_best_deviation(
    params: GameParams,
    behavior: BehaviorKind,
    deviator: int,
    x_other: float,
    grid: GridSpec,
):
    """Exhaustive deviation search: (location, payoff) at the grid argmax.

    The payoff map is piecewise Lipschitz in the deviation location
    (constant up to max(1/(1-a), 1/(2a)) across pieces), so the grid
    maximum trails the true supremum by at most that constant times the
    grid spacing.
    """
    _check_deviation_args(deviator, x_other)
    xs = np.linspace(0.0, 1.0, grid.n_locations)
    values = _deviation_values(params.a, behavior, xs, x_other)
    best = int(np.argmax(values))  # the first maximum, as a scan keeping strict gains
    return float(xs[best]), float(values[best])


def _segment_distance(endpoint_lo, endpoint_hi, x):
    """Vectorized integral of |t - x| over [endpoint_lo, endpoint_hi]."""
    mid = 0.5 * (endpoint_lo + endpoint_hi)
    length = endpoint_hi - endpoint_lo
    inside = 0.5 * ((x - endpoint_lo) ** 2 + (endpoint_hi - x) ** 2)
    return np.where(
        x <= endpoint_lo,
        (mid - x) * length,
        np.where(x >= endpoint_hi, (x - mid) * length, inside),
    )


def oracle_social_optimum(params: GameParams, grid: GridSpec) -> OptimumPoint:
    """Grid argmax of consumer welfare over the full (x1, x2, s1) box.

    The welfare separates into a popularity term in s1 and one distance
    integral per firm, so for each candidate split the best x1 and x2
    can be minimized independently; the search is effectively
    n_shares * n_locations instead of cubic. Ties resolve to the
    smallest grid location, which reports the idle firm at 0 in the
    concentrated regime.
    """
    xs = np.linspace(0.0, 1.0, grid.n_locations)
    ss = np.linspace(0.0, 1.0, grid.n_shares)
    s_col = ss[:, None]
    left = _segment_distance(np.zeros_like(s_col), s_col, xs[None, :])
    right = _segment_distance(s_col, np.ones_like(s_col), xs[None, :])
    i1 = np.argmin(left, axis=1)
    i2 = np.argmin(right, axis=1)
    popularity = params.a * (ss * ss + (1.0 - ss) ** 2)
    welfare = (
        params.theta
        + popularity
        - left[np.arange(len(ss)), i1]
        - right[np.arange(len(ss)), i2]
    )
    k = int(np.argmax(welfare))
    return OptimumPoint(float(xs[i1[k]]), float(xs[i2[k]]), float(ss[k]), float(welfare[k]))


def _region_scan(params: GameParams, behavior: BehaviorKind, n_locations: int):
    """Every profile on the n_locations x n_locations grid with x1 <= x2 and
    its Nash verdict, one grid row of x1 at a time.

    Yields ``(x1, x2, kind, s1, is_ne)`` per row: the float x1 and arrays
    with one entry per market equilibrium, cells in increasing x2 and each
    cell's splits in the order of :func:`enumerate_market_equilibria`.
    ``is_ne`` is :func:`is_nash`'s verdict by its own arithmetic: each
    firm's share against the supremum of its best deviation, read from one
    array of suprema over the grid values of the opponent. Raises
    ValueError where ``is_nash`` would: a split that fails the
    market-equilibrium test.
    """
    a = params.a
    xs = np.linspace(0.0, 1.0, n_locations)
    suprema = np.array([_supremum(a, behavior, x)[1] for x in xs.tolist()])
    for i, x1 in enumerate(xs.tolist()):
        shares, unique = _equilibria_array(a, x1, xs[i:])
        order = np.argsort(shares, axis=1, kind="stable")
        shares = np.take_along_axis(shares, order, axis=1)
        cell, rank = np.nonzero(~np.isnan(shares))
        x2, s1 = xs[i:][cell], shares[cell, rank]
        kind = _SLOT_KINDS[order[cell, rank]]
        kind[unique[cell]] = Kind.UNIQUE
        if not _is_market_equilibrium_array(a, x1, x2, s1).all():
            raise ValueError("profile outcome is not a market equilibrium for its locations")
        # firm 1 deviates against x2 from x1, firm 2 against x1 from x2
        is_ne = ~(s1 < suprema[i:][cell] - NE_TOL) & ~(1.0 - s1 < suprema[i] - NE_TOL)
        yield x1, x2, kind, s1, is_ne


def oracle_ne_region_scan(params: GameParams, behavior: BehaviorKind, grid: GridSpec) -> list:
    """All Nash equilibria on an n_locations x n_locations location grid.

    Every cell with x1 <= x2 is enumerated and each market equilibrium
    kept iff the Nash decision accepts it, in enumeration order. Feeds
    the figure emitters and the diameter-bound checks.
    """
    return [
        EquilibriumProfile(Locations(x1, x2), MarketOutcome(kind, s1))
        for x1, x2s, kinds, s1s, is_ne in _region_scan(params, behavior, grid.n_locations)
        for x2, kind, s1 in zip(x2s[is_ne].tolist(), kinds[is_ne], s1s[is_ne].tolist())
    ]


def oracle_consumer_welfare(
    params: GameParams, x1: float, x2: float, s1: float, n_consumers: int = 100_000
) -> float:
    """Riemann-sum welfare with n_consumers midpoint samples per segment."""
    for name, value in (("x1", x1), ("x2", x2), ("s1", s1)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if n_consumers < 1:
        raise ValueError(f"n_consumers must be at least 1, got {n_consumers}")
    a, theta = params.a, params.theta
    total = 0.0
    for lo, hi, x, share in ((0.0, s1, x1, s1), (s1, 1.0, x2, 1.0 - s1)):
        if hi <= lo:
            continue
        width = (hi - lo) / n_consumers
        t = lo + (np.arange(n_consumers) + 0.5) * width
        total += float(np.sum(theta + a * share - np.abs(t - x)) * width)
    return total


# ---------------------------------------------------------------------------
# verify suites: each returns (ok, detail) for verify_suites to yield

_REGION_GRID = GridSpec(n_locations=101)


def _market_equilibria_suite(rng, grid: GridSpec, instances: int):
    """Closed-form splits against the passing shares of the
    market-equilibrium oracle on ``instances`` random (a, x1, x2).

    Firm 1's advantage at a cut s, f(s) = a (2s - 1) + |s - x2| - |s - x1|,
    is piecewise linear, with slope 2 - 2a in magnitude strictly inside
    (x1, x2) and 2a outside, and vanishes at every interior split. Both
    distances below follow from it:

    - the grid share nearest a split always passes, so every split needs
      a passing share within one spacing;
    - with a consumer half a cell either side of the cut, a passing share
      has |f| <= slack + spacing, so it lies within
      (slack + spacing) / |slope| of a split on its linear piece; one more
      spacing is kept as margin.

    The second test is skipped near an existence boundary, where a
    condition gap within slack + 2 spacings lets the adjacent branch pass
    the pointwise test too.
    """
    spacing = 1.0 / (grid.n_shares - 1)
    mismatches = 0
    for _ in range(instances):
        a = float(rng.uniform(0.02, 0.98))
        x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2))
        params = GameParams(a)
        loc = Locations(float(x1), float(x2))
        closed = np.array(distinct_shares(enumerate_market_equilibria(params, loc)))
        candidates, mask = _passing_shares(params, loc, grid)
        distance = np.abs(candidates[mask][:, None] - closed)
        ok = (distance <= spacing).any(axis=0).all()
        slack = _share_slack(a, grid)
        if ok and min(map(abs, _condition_gaps(a, loc.x1, loc.x2))) > slack + 2.0 * spacing:
            slope = np.where((loc.x1 < closed) & (closed < loc.x2), 2.0 - 2.0 * a, 2.0 * a)
            ok = (distance <= (slack + spacing) / slope + spacing).any(axis=1).all()
        mismatches += not ok
    return mismatches == 0, f"{instances} random instances, {mismatches} mismatches"


def _best_deviation_suite(rng, grid: GridSpec, instances: int):
    """Closed-form best deviations against the deviation oracle, within its
    Lipschitz bound, on ``instances`` random (a, x_other), behaviors in turn."""
    mismatches = 0
    behaviors = list(BehaviorKind)
    for k in range(instances):
        a = float(rng.uniform(0.05, 0.95))
        x_other = float(rng.uniform(0.0, 1.0))
        behavior = behaviors[k % 3]
        params = GameParams(a)
        analytic = best_deviation(params, behavior, 1, x_other).payoff
        _, grid_best = oracle_best_deviation(params, behavior, 1, x_other, grid)
        lipschitz = max(1.0 / (1.0 - a), 1.0 / (2.0 * a))
        tol = 2.0 * lipschitz / (grid.n_locations - 1) + 1e-6
        if grid_best > analytic + 1e-6 or analytic - grid_best > tol:
            mismatches += 1
    return mismatches == 0, f"{instances} random instances, {mismatches} mismatches"


def _social_optimum_suite(theta: float):
    """Closed-form optimal welfare against the welfare-optimum oracle."""
    worst_gap = 0.0
    for a in np.arange(1, 20) * 0.05:
        params = GameParams(float(a), theta)
        closed = social_optimum(params)[0].welfare
        found = oracle_social_optimum(params, GridSpec(n_locations=201, n_shares=201))
        worst_gap = max(worst_gap, abs(found.welfare - closed))
    return worst_gap <= 1e-3, f"max |grid - closed| welfare gap {worst_gap:.2e}"


def _pessimistic_region_suite(theta: float):
    """The pessimistic region scan against :func:`pessimistic_nash_interval`
    and the diameter bounds at three externality levels.

    Returns ``(ok, detail, half_profiles)``: the third item is the scan's
    NE profiles at a = 0.5, which :func:`_mirror_symmetry_suite` reflects.
    """
    xs = np.linspace(0.0, 1.0, _REGION_GRID.n_locations)
    disagreements = 0
    half_profiles = []
    for a in (0.2, 0.5, 0.8):
        params = GameParams(a, theta)
        # lo depends on x2 only and hi on x1 only: one interval per grid value
        intervals = [pessimistic_nash_interval(params, Locations(x, x)) for x in xs.tolist()]
        lo = np.array([interval.lo for interval in intervals])
        hi = np.array([interval.hi for interval in intervals])
        # clamped, lo is firm 1's supremum against x2 and hi 1 - firm 2's against x1
        suprema = np.array([_supremum(a, BehaviorKind.PESSIMISTIC, x)[1] for x in xs.tolist()])
        for bound, supremum in ((np.maximum(lo, 0.0), suprema),
                                (np.minimum(hi, 1.0), 1.0 - suprema)):
            disagreements += int(np.count_nonzero(np.abs(bound - supremum) > 1e-12))
        lo, hi = lo - NE_TOL, hi + NE_TOL
        scan = _region_scan(params, BehaviorKind.PESSIMISTIC, _REGION_GRID.n_locations)
        for i, (x1, x2s, kinds, s1s, is_ne) in enumerate(scan):
            # NashInterval.contains, one row of cells at a time
            inside = (lo[np.searchsorted(xs, x2s)] <= s1s) & (s1s <= hi[i])
            disagreements += int(np.count_nonzero(inside != is_ne))
            for x2, kind, s1 in zip(x2s[is_ne].tolist(), kinds[is_ne], s1s[is_ne].tolist()):
                profile = EquilibriumProfile(Locations(x1, x2), MarketOutcome(kind, s1))
                if not nash_diameter_bounds_check(params, profile):
                    disagreements += 1
                if a == 0.5:
                    half_profiles.append(profile)
    detail = f"3 externality levels on a 101x101 grid, {disagreements} disagreements"
    return disagreements == 0, detail, half_profiles


def _mirror_symmetry_suite(half_profiles):
    """The NE profiles map onto themselves under x -> 1 - x."""
    mirrored = {(round(p.x1, 9), round(p.x2, 9), round(p.s1, 9)) for p in half_profiles}
    reflected = {
        (round(q.x1, 9), round(q.x2, 9), round(q.s1, 9))
        for q in map(mirror_profile, half_profiles)
    }
    return mirrored == reflected, f"{len(mirrored)} pessimistic NE profiles at a=0.5"


def _neutral_region_suite(theta: float):
    """Neutral NE only at the centre for a = 0.3 <= 1/2."""
    profiles = oracle_ne_region_scan(GameParams(0.3, theta), BehaviorKind.NEUTRAL, _REGION_GRID)
    cells = {(p.x1, p.x2) for p in profiles}
    return cells == {(0.5, 0.5)}, f"NE cells at a=0.3: {sorted(cells)}"


def _optimistic_region_suite(theta: float):
    """No optimistic NE."""
    params = GameParams(0.3, theta)
    hits = len(oracle_ne_region_scan(params, BehaviorKind.OPTIMISTIC, _REGION_GRID))
    return hits == 0, f"{hits} optimistic NE found at a=0.3"


def verify_suites(theta: float, seed: int, instances: int, grid: GridSpec):
    """Run the cross-check suites of ``locpop verify`` one at a time, in order.

    Yields ``(suite, ok, detail)`` as each suite finishes. The two random
    suites draw from one ``default_rng(seed)``: ``instances`` market
    instances with the oracles at ``grid``, then max(60, instances // 5)
    deviations. The other suites use fixed grids at intrinsic utility
    ``theta``, which is checked before any suite runs.
    """
    GameParams(0.5, theta)  # raises on a bad theta
    rng = np.random.default_rng(seed)
    yield ("market-equilibria", *_market_equilibria_suite(rng, grid, instances))
    yield ("best-deviation", *_best_deviation_suite(rng, grid, max(60, instances // 5)))
    yield ("social-optimum", *_social_optimum_suite(theta))
    ok, detail, half_profiles = _pessimistic_region_suite(theta)
    yield "pessimistic-region", ok, detail
    yield ("mirror-symmetry", *_mirror_symmetry_suite(half_profiles))
    yield ("neutral-region", *_neutral_region_suite(theta))
    yield ("optimistic-region", *_optimistic_region_suite(theta))
