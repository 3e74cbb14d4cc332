"""Instance-at-a-time reference for the two random suites of ``locpop verify``.

These are the market-equilibria and best-deviation suites of
``oracle.verify_suites`` as they were before the market suite ran in
blocks of instances, kept with their arithmetic unchanged as a test
oracle: each scales its instances one at a time from a row of unit draws,
as ``Generator.uniform`` scales one draw, and gives one mismatch flag per
instance. The market reference draws in
:func:`loop_market_instances`, which also keeps each instance's passing
shares, and flags in :func:`loop_market_flags`; the deviation reference
draws in :func:`loop_deviation_instances`, which also keeps each
instance's oracle maximum, and flags in :func:`loop_deviation_flags`. So a
test can flag one draw against several closed forms. The closed-form
splits and best deviation suprema are looked up in the ``oracle``
namespace, as ``oracle._equilibria_array`` (called with one instance's
floats) and ``oracle._supremum``, the names the suites read: a test that
patches them there patches the reference too.
"""

import numpy as np

from locpop import oracle
from locpop.behaviors import BehaviorKind
from locpop.model import SHARE_TOL, GameParams, Locations, _condition_gaps, _merge_close
from locpop.oracle import _share_slack, oracle_best_deviation


def loop_passing_shares(params, loc, grid):
    """The share grid and the mask of passing candidates of one instance."""
    a = params.a
    consumers, candidates, sign = grid._share_grid
    consumers, sign = consumers[1:-1], sign[:-1]  # unpadded
    margin = np.abs(consumers - loc.x2) - np.abs(consumers - loc.x1)
    prefix_min = np.empty(grid.n_shares)
    prefix_min[0] = np.inf
    np.minimum.accumulate(margin, out=prefix_min[1:])
    suffix_max = np.empty(grid.n_shares)
    suffix_max[-1] = -np.inf
    np.maximum.accumulate(margin[::-1], out=suffix_max[-2::-1])
    slack = _share_slack(a, grid)
    shift = a * sign
    return candidates, (shift + prefix_min >= -slack) & (shift + suffix_max <= slack)


def uniform(u, low, high):
    """One unit draw ``u`` scaled into [low, high), as ``Generator.uniform``
    scales it."""
    return low + (high - low) * u


def loop_market_instances(units, grid):
    """The market suite's instances, one per row of the unit draws ``units``
    (a sequence of 3-float rows): each one's params, locations and the
    share-grid candidates that pass at them, none of which reads the
    closed-form splits."""
    drawn = []
    for u_a, u_1, u_2 in units:
        a = uniform(float(u_a), 0.02, 0.98)
        x1, x2 = sorted((uniform(float(u_1), 0.0, 1.0), uniform(float(u_2), 0.0, 1.0)))
        params = GameParams(a)
        loc = Locations(float(x1), float(x2))
        candidates, mask = loop_passing_shares(params, loc, grid)
        drawn.append((params, loc, candidates[mask]))
    return drawn


def loop_market_flags(drawn, grid):
    """One mismatch flag per instance of :func:`loop_market_instances`."""
    spacing = 1.0 / (grid.n_shares - 1)
    flags = []
    for params, loc, passing in drawn:
        a = params.a
        shares = oracle._equilibria_array(a, loc.x1, loc.x2)[0]
        closed = np.array(_merge_close(shares[~np.isnan(shares)].tolist(), SHARE_TOL))
        distance = np.abs(passing[:, None] - closed)
        ok = (distance <= spacing).any(axis=0).all()
        slack = _share_slack(a, grid)
        if ok and min(map(abs, _condition_gaps(a, loc.x1, loc.x2))) > slack + 2.0 * spacing:
            slope = np.where((loc.x1 < closed) & (closed < loc.x2), 2.0 - 2.0 * a, 2.0 * a)
            ok = (distance <= (slack + spacing) / slope + spacing).any(axis=1).all()
        flags.append(not ok)
    return flags


def loop_deviation_instances(units, grid):
    """The best-deviation suite's instances, one per row of the unit draws
    ``units`` (a sequence of 2-float rows): each one's a, behavior and
    opponent location, with the deviation oracle's maximum and its
    Lipschitz tolerance, none of which reads the closed-form suprema."""
    drawn = []
    behaviors = list(BehaviorKind)
    for k, (u_a, u_x) in enumerate(units):
        a = uniform(float(u_a), 0.05, 0.95)
        x_other = uniform(float(u_x), 0.0, 1.0)
        behavior = behaviors[k % 3]
        _, grid_best = oracle_best_deviation(GameParams(a), behavior, x_other, grid)
        lipschitz = max(1.0 / (1.0 - a), 1.0 / (2.0 * a))
        tol = 2.0 * lipschitz / (grid.n_locations - 1) + 1e-6
        drawn.append((a, behavior, x_other, grid_best, tol))
    return drawn


def loop_deviation_flags(drawn):
    """One mismatch flag per instance of :func:`loop_deviation_instances`."""
    flags = []
    for a, behavior, x_other, grid_best, tol in drawn:
        analytic = oracle._supremum(a, behavior, x_other)[1]
        flags.append(grid_best > analytic + 1e-6 or analytic - grid_best > tol)
    return flags
