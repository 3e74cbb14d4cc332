"""Exact reference for the neutral and optimistic best deviation.

This is the generic breakpoint search the library's closed forms replaced,
kept with its arithmetic unchanged as a test oracle. The payoff against an opponent at y is
piecewise affine (neutral) or piecewise convex (optimistic) in the
deviation location, with pieces cut at 0, 1, y, y +- a, the kind II/IV
existence boundaries a + (1 - 2a) y and, unless a = 1/2, (y - a) / (1 - 2a).
Its candidates are the value attained at each breakpoint and the two
one-sided limits of each piece, read from the kinds at the piece's
midpoint. Breakpoints closer than 2e-12 merge.
"""

from locpop.behaviors import _aggregate, _deviation_value
from locpop.model import Kind, _clip_unit, _equilibria, _merge_close

# Own-location exclusion radius. Breakpoints closer than twice it merge,
# so at most one ever falls within it of the deviator's own location.
SAME_POINT = 1e-12


def split_share(kind, a, x1, x2):
    """Firm 1's share in the ``kind`` split at x1 <= x2, whether or not it
    exists, by the arithmetic ``_equilibria`` inlines."""
    if kind is Kind.I:
        return 0.0
    if kind is Kind.V:
        return 1.0
    if kind is Kind.II:
        return _clip_unit(0.5 - (x2 - x1) / (2.0 * a))
    if kind is Kind.IV:
        return _clip_unit(0.5 + (x2 - x1) / (2.0 * a))
    return _clip_unit((x1 + x2 - a) / (2.0 * (1.0 - a)))


def raw_breakpoints(a, x_other):
    """The breakpoints in [0, 1] of the payoff against x_other, unmerged."""
    points = [0.0, 1.0, x_other, x_other - a, x_other + a, a + (1.0 - 2.0 * a) * x_other]
    if a != 0.5:
        points.append((x_other - a) / (1.0 - 2.0 * a))
    return [p for p in points if 0.0 <= p <= 1.0]


def breakpoints(a, x_other):
    """Sorted breakpoints, those closer than 2e-12 merged."""
    return _merge_close(raw_breakpoints(a, x_other), 2.0 * SAME_POINT)


def piece_limits(a, behavior, x_other, left, right):
    """One-sided limits of the payoff at both ends of the open piece (left, right)."""
    mid = 0.5 * (left + right)
    if mid <= x_other:
        kinds = [kind for kind, _ in _equilibria(a, mid, x_other)]
        shares = ([split_share(k, a, x, x_other) for k in kinds] for x in (left, right))
    else:
        kinds = [kind for kind, _ in _equilibria(a, x_other, mid)]
        shares = ([1.0 - split_share(k, a, x_other, x) for k in kinds] for x in (left, right))
    return tuple(_aggregate(behavior, end) for end in shares)


def candidates(a, behavior, x_other):
    """Every (payoff, location, attained) candidate, best first; ties keep
    attained values, then smaller locations, first."""
    points = breakpoints(a, x_other)
    found = [(_deviation_value(a, behavior, p, x_other), p, True) for p in points]
    for left, right in zip(points, points[1:]):
        at_left, at_right = piece_limits(a, behavior, x_other, left, right)
        found += [(at_left, left, False), (at_right, right, False)]
    found.sort(key=lambda candidate: -candidate[0])
    return found


def supremum(a, behavior, x_other, own_location=None):
    """(location, payoff) of the best deviation, the value attained at
    ``own_location`` (None: no exclusion) left out."""
    return next(
        (location, payoff) for payoff, location, attained in candidates(a, behavior, x_other)
        if not (attained and own_location is not None
                and abs(location - own_location) <= SAME_POINT)
    )
