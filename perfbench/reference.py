"""Expected answers for the ``queries`` workload, computed without locpop.

The closed forms are frozen copies of the library at the commit that
defined this benchmark, written with the same arithmetic so boundary
decisions (band edge, kind II/IV conditions, tolerance comparisons)
come out identically on the same float inputs.

The neutral and optimistic best deviation, which that library finds by
a grid search plus one local refinement, is bracketed here. Its exact
supremum is the upper end: the deviation payoff is piecewise linear in
the deviation location (convex per piece for the optimistic max), so
the supremum is the largest value at a breakpoint or just beside one.
The lower end is the maximum over the library's 4001-point grid and
candidate points, which its refinement can only improve on. The grid
can miss the supremum by far more than 1e-6 when the best piece lies
away from the grid's best point (neutral, a = 0.04296, opponent at
0.53273: 1.8e-4), so an exact best response and the grid search must
both pass.

Kinds are the lowercase labels of ``locpop.Kind``; behaviors are the
values of ``locpop.BehaviorKind``.
"""

import math

NE_TOL = 1e-9
SHARE_TOL = 1e-12
LIBRARY_GRID = 4001  # points of the library's deviation grid search
BEST_NE_BREAKPOINT = (2.0 - math.sqrt(2.0)) / 2.0

_KIND_RANK = {kind: rank for rank, kind in enumerate(("unique", "i", "ii", "iii", "iv", "v"))}

# Offset used to evaluate one-sided limits at a breakpoint. Shares have
# slope at most 1 / (2 min(a, 1 - a)) <= 25 in the location for the
# workload's a range, so a limit is off by at most 2.5e-9.
_LIMIT_STEP = 1e-10


def _clip_unit(value):
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


def equilibria(a, x1, x2):
    """(kind, s1) pairs of the market equilibria at x1 <= x2, sorted by s1."""
    gap = x2 - x1
    if gap > a:
        return (("unique", _clip_unit((x1 + x2 - a) / (2.0 * (1.0 - a)))),)
    one_minus_2a = 1.0 - 2.0 * a
    has_ii = a <= x2 - one_minus_2a * x1
    has_iv = x1 - one_minus_2a * x2 <= a
    found = [("i", 0.0), ("v", 1.0)]
    if has_ii:
        found.append(("ii", _clip_unit(0.5 - gap / (2.0 * a))))
    if has_iv:
        found.append(("iv", _clip_unit(0.5 + gap / (2.0 * a))))
    if has_ii and has_iv:
        found.append(("iii", _clip_unit((x1 + x2 - a) / (2.0 * (1.0 - a)))))
    found.sort(key=lambda item: (item[1], _KIND_RANK[item[0]]))
    return tuple(found)


def equilibrium_count(a, x1, x2):
    """(count, sorted tight conditions) at x1 <= x2."""
    gap = x2 - x1
    if gap > a:
        return 1, ()
    one_minus_2a = 1.0 - 2.0 * a
    ii_rhs = x2 - one_minus_2a * x1
    iv_lhs = x1 - one_minus_2a * x2
    has_ii = a <= ii_rhs
    has_iv = iv_lhs <= a
    tight = [name for name, hit in (("band", gap == a), ("ii", ii_rhs == a), ("iv", iv_lhs == a)) if hit]
    return 2 + has_ii + has_iv + (has_ii and has_iv), tuple(sorted(tight))


def is_market_equilibrium(a, x1, x2, s1):
    if s1 == 0.0 or s1 == 1.0:
        return x2 - x1 <= a
    d = a * (2.0 * s1 - 1.0) + abs(s1 - x2) - abs(s1 - x1)
    return abs(d) <= SHARE_TOL


def deviation_value(a, behavior, x_dev, x_other):
    """Behavior-aggregated share of a firm at x_dev against x_other."""
    if x_dev <= x_other:
        shares = [s for _, s in equilibria(a, x_dev, x_other)]
    else:
        shares = [1.0 - s for _, s in equilibria(a, x_other, x_dev)]
    if behavior == "pessimistic":
        return min(shares)
    if behavior == "optimistic":
        return max(shares)
    return sum(shares) / len(shares)


def deviation_kinds(a, x_dev, x_other):
    """Kinds of the equilibria a deviation to x_dev is evaluated over."""
    lo, hi = min(x_dev, x_other), max(x_dev, x_other)
    return tuple(kind for kind, _ in equilibria(a, lo, hi))


def pessimistic_best_payoff(a, x_other):
    """Supremum of the pessimistic deviation payoff against x_other."""
    if x_other <= 0.5:
        return 0.0 if x_other + a >= 1.0 else 1.0 - x_other / (1.0 - a)
    return 0.0 if x_other - a <= 0.0 else 1.0 - (1.0 - x_other) / (1.0 - a)


def _breakpoints(a, x_other):
    points = [0.0, 1.0, x_other, x_other - a, x_other + a, 0.5]
    if a != 0.5:
        points.append(a + (1.0 - 2.0 * a) * x_other)
        points.append((x_other - a) / (1.0 - 2.0 * a))
    return sorted({p for p in points if 0.0 <= p <= 1.0})


def searched_best_payoff(a, behavior, x_other, exclude=None):
    """Supremum over deviations x != exclude of the neutral/optimistic payoff."""
    points = _breakpoints(a, x_other)
    if exclude is not None:
        points = sorted(set(points) | {exclude})
    probes = []
    for left, right in zip(points, points[1:]):
        if right - left > 2.0 * _LIMIT_STEP:
            probes += [left + _LIMIT_STEP, right - _LIMIT_STEP]
        else:
            probes.append(0.5 * (left + right))
    probes += [p for p in points if p != exclude]
    return max(deviation_value(a, behavior, x, x_other) for x in probes)


def grid_best_payoff(a, behavior, x_other):
    """Largest payoff on the library's uniform deviation grid and candidates."""
    probes = [i / (LIBRARY_GRID - 1) for i in range(LIBRARY_GRID)] + _breakpoints(a, x_other)
    return max(deviation_value(a, behavior, x, x_other) for x in probes)


def is_nash(a, behavior, x1, x2, s1):
    """Nash verdict for the profile (x1 <= x2, split s1) under ``behavior``."""
    for own_share, own_x, opp_x in ((s1, x1, x2), (1.0 - s1, x2, x1)):
        if behavior == "pessimistic":
            best = pessimistic_best_payoff(a, opp_x)
        else:
            best = searched_best_payoff(a, behavior, opp_x, exclude=own_x)
        if own_share < best - NE_TOL:
            return False
    return True


def _abs_distance_integral(alpha, beta, x):
    if x <= alpha:
        return 0.5 * (beta * beta - alpha * alpha) - x * (beta - alpha)
    if x >= beta:
        return x * (beta - alpha) - 0.5 * (beta * beta - alpha * alpha)
    return 0.5 * ((x - alpha) ** 2 + (beta - x) ** 2)


def consumer_welfare(a, theta, x1, x2, s1):
    popularity = a * (s1 * s1 + (1.0 - s1) * (1.0 - s1))
    travel = _abs_distance_integral(0.0, s1, x1) + _abs_distance_integral(s1, 1.0, x2)
    return theta + popularity - travel


def _optimum_welfare(a, theta):
    return theta - (0.125 - a / 2.0) if a <= 0.25 else theta - (0.25 - a)


def pessimistic_poa(a, theta):
    return _optimum_welfare(a, theta) / (theta - (1.0 - a) ** 2 / 4.0)


def pessimistic_pos(a, theta):
    if a > 0.5:
        return 1.0
    if a <= BEST_NE_BREAKPOINT:
        denom = theta - (1.0 - 4.0 * a + 2.0 * a * a) / 4.0
    else:
        denom = theta - (1.0 - 4.0 * a + 2.0 * a * a) * (1.0 - 2.0 * a + 2.0 * a * a) / (
            4.0 * (1.0 - a) ** 2
        )
    return _optimum_welfare(a, theta) / denom
