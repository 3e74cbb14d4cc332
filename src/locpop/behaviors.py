"""Firm behavior under equilibrium multiplicity and Nash analysis.

A firm weighing a deviation cannot know which market equilibrium the
consumers will land on afterwards, so its evaluation of the deviation
depends on its attitude: a pessimistic firm assumes the equilibrium that
minimizes its own share, an optimistic one the equilibrium that maximizes
it, and a neutral one averages over all equilibria with equal weight (one
weight per kind, even when two kinds happen to carry the same share).

A profile is a Nash equilibrium when neither firm's behavior-evaluated
best deviation beats its on-path share. Every best deviation has a
closed form: a pessimist jumps just outside the opponent's band, an
optimist takes the whole market from the band's left end on, and a
neutral firm's mean share is piecewise affine between a few explicit
points, so its supremum is the largest of their one-sided values. The
reported location is where the supremum is attained or approached; for
neutral and optimistic firms ties go to the smallest location. For
pessimists the NE set is an explicit share interval.
"""

from __future__ import annotations

import enum

from .model import (
    _III,
    _UNIQUE,
    EquilibriumProfile,
    Locations,
    MarketOutcome,
    GameParams,
    _Record,
    _equilibria,
    _merge_close,
    _set_field,
    enumerate_market_equilibria,
    is_market_equilibrium,
)

__all__ = [
    "NE_TOL",
    "BehaviorKind",
    "NoEquilibriumError",
    "DeviationReport",
    "NashInterval",
    "deviation_payoff",
    "best_deviation",
    "is_nash",
    "pessimistic_nash_interval",
    "neutral_nash",
    "symmetric_pessimistic_nash_set",
    "nash_region_a_half",
    "nash_diameter_bounds_check",
]

# Weak-inequality slack for Nash decisions. Best deviations are exact
# suprema; this absorbs floating-point rounding on ties such as a profile
# on a band edge or with a tight kind II/IV condition.
NE_TOL = 1e-9

# Values of the symmetric NE set no more than this apart are one share
# (:func:`symmetric_pessimistic_nash_set`).
_SYMMETRIC_GAP = 1e-12


class BehaviorKind(enum.Enum):
    """Attitude toward the multiplicity of market equilibria."""

    PESSIMISTIC = "pessimistic"
    NEUTRAL = "neutral"
    OPTIMISTIC = "optimistic"


# The members as module names, read by the per-call code, for the reason
# given at model.Kind's: about 130 ns a ``BehaviorKind.NEUTRAL`` on CPython
# <= 3.11, against 2-10 ns for a module global
_PESSIMISTIC, _NEUTRAL, _OPTIMISTIC = (
    BehaviorKind.PESSIMISTIC, BehaviorKind.NEUTRAL, BehaviorKind.OPTIMISTIC)


class NoEquilibriumError(Exception):
    """Raised when a computation needs a Nash equilibrium that does not exist."""


class DeviationReport(_Record):
    """Evaluation of one deviation.

    For :func:`deviation_payoff` results, ``payoff`` is exactly the
    min / mean / max of the deviator's share over ``outcomes_considered``
    according to the active behavior; for best deviations it is the
    supremum, which the aggregate at ``location`` may only approach.
    """

    __slots__ = ("deviator", "location", "payoff", "outcomes_considered")

    def __init__(self, deviator: int, location: float, payoff: float,
                 outcomes_considered: tuple):
        _set_field(self, "deviator", deviator)
        _set_field(self, "location", location)
        _set_field(self, "payoff", payoff)
        _set_field(self, "outcomes_considered", outcomes_considered)


class NashInterval(_Record):
    """Interval of firm-1 shares supportable as pessimistic NE.

    Raw bounds are kept as computed (they may leave [0, 1]); clamping
    happens only at query time so tests can inspect the raw values.
    Empty iff lo > hi. :meth:`contains` widens both bounds by ``NE_TOL``,
    the slack of :func:`is_nash`, and takes no other.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        _set_field(self, "lo", lo)
        _set_field(self, "hi", hi)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, s1: float) -> bool:
        return _interval_ok(self.lo, self.hi, s1)

    def clamped(self):
        """Intersection with [0, 1], or None when empty."""
        lo = max(self.lo, 0.0)
        hi = min(self.hi, 1.0)
        if lo > hi:
            return None
        return (lo, hi)

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "empty": self.is_empty}


def _nash_ok(share, supremum):
    """The Nash test of one firm: its share reaches the supremum of its best
    deviation, with the slack ``NE_TOL``. A Python bool for floats, a boolean
    array for arrays (broadcast together)."""
    return share >= supremum - NE_TOL


def _interval_ok(lo, hi, s1):
    """:meth:`NashInterval.contains`'s test of firm 1's share s1 against the
    bounds lo and hi: a Python bool for floats, a boolean array for arrays
    (broadcast together)."""
    return (lo - NE_TOL <= s1) & (s1 <= hi + NE_TOL)


def _behavior_error(behavior) -> ValueError:
    """The error of a behavior dispatch given anything but a
    :class:`BehaviorKind` member."""
    return ValueError(f"behavior must be a BehaviorKind member, got {behavior!r}")


def _aggregate(behavior: BehaviorKind, shares) -> float:
    if behavior is _PESSIMISTIC:
        return min(shares)
    if behavior is _OPTIMISTIC:
        return max(shares)
    if behavior is not _NEUTRAL:
        raise _behavior_error(behavior)
    # a plain left-to-right sum, as oracle._deviation_values takes it: sum() of
    # floats is compensated from CPython 3.12 on
    rest = iter(shares)
    total = next(rest)
    for share in rest:
        total += share
    return total / len(shares)


def _deviation_splits(a: float, x_dev: float, x_other: float):
    """``(splits, own)``: the ``_equilibria`` of the firms at x_dev and
    x_other, in location order, and the deviating firm's share in each, s1
    where x_dev <= x_other and 1 - s1 where it lies right of x_other."""
    if x_dev <= x_other:
        splits = _equilibria(a, x_dev, x_other)
        return splits, [s for _, s in splits]
    splits = _equilibria(a, x_other, x_dev)
    return splits, [1.0 - s for _, s in splits]


def _deviation_value(a: float, behavior: BehaviorKind, x_dev: float, x_other: float) -> float:
    """Behavior-aggregated share of a firm locating at x_dev against x_other."""
    return _aggregate(behavior, _deviation_splits(a, x_dev, x_other)[1])


def _check_deviation_args(deviator: int, x_other: float, x_dev: float = 0.0):
    # the int 1 or 2 only: True == 1 and 2.0 == 2, but a report echoes the deviator
    if type(deviator) is not int or deviator not in (1, 2):
        raise ValueError(f"deviator must be firm 1 or 2, got {deviator}")
    if not (0.0 <= x_dev <= 1.0 and 0.0 <= x_other <= 1.0):
        raise ValueError("deviation and opponent locations must lie in [0, 1]")


def _report(deviator: int, location: float, payoff: float, splits):
    """The :class:`DeviationReport` of ``deviator`` at ``location``, its
    outcomes the ``splits`` (:func:`_deviation_splits`) there."""
    outcomes = tuple(MarketOutcome(kind, s1) for kind, s1 in splits)
    return DeviationReport(deviator, location, payoff, outcomes)


def deviation_payoff(
    params: GameParams,
    behavior: BehaviorKind,
    deviator: int,
    x_dev: float,
    x_other: float,
) -> DeviationReport:
    """Evaluate the deviation of ``deviator`` to ``x_dev`` against ``x_other``.

    Enumerates the market equilibria at the deviated location pair,
    extracts the deviator's share in each, and aggregates by min
    (pessimistic), max (optimistic) or the arithmetic mean over the
    enumerated kinds (neutral).
    """
    _check_deviation_args(deviator, x_other, x_dev)
    splits, own = _deviation_splits(params.a, x_dev, x_other)
    return _report(deviator, x_dev, _aggregate(behavior, own), splits)


def _neutral_candidates(a: float, y: float):
    """(location, payoff) candidates of a neutral deviator at x <= y.

    On the band [max(0, y - a), y] kinds I and V always hold, kind IV up
    to min(y, a + (1 - 2a) y) and kind II on one side of
    c = (y - a) / (1 - 2a). The mean is 1/2 at co-location and at most
    1/2 wherever IV fails, rises to (y - a) / (1 - a) towards the band
    from the unique split, falls across the I, IV, V piece and rises
    across the five-split piece, so each piece's best end is a candidate.
    """
    low = max(0.0, y - a)
    iv_end = min(y, a + (1.0 - 2.0 * a) * y)
    if a == 0.5:
        c = float("inf") if y >= 0.5 else float("-inf")
    else:
        c = (y - a) / (1.0 - 2.0 * a)
    cut = min(max(c, low), iv_end)
    # kind II holds left of the cut for a <= 1/2, right of it for a > 1/2
    five, four = ((low, cut), (cut, iv_end)) if a <= 0.5 else ((cut, iv_end), (low, cut))
    found = [(y, 0.5)]
    if y > a:
        found.append((low, (y - a) / (1.0 - a)))
    if four[0] < four[1]:
        found.append((four[0], (1.5 + (y - four[0]) / (2.0 * a)) / 3.0))
    if five[0] < five[1]:
        found.append((five[1], (2.0 + (five[1] + y - a) / (2.0 * (1.0 - a))) / 5.0))
    return found


def _supremum(a: float, behavior: BehaviorKind, x_other: float):
    """(location, payoff) of the best deviation against x_other, in closed
    form: the supremum over [0, 1] and the smallest location where it is
    attained or approached.

    Pessimistic: any deviation within ``a`` of the opponent admits a
    zero-share equilibrium, so a pessimist only gains by jumping outside
    that band, and the closest admissible point on the far side of the
    market is best. Against x_other <= 1/2 that is x_other + a with value
    ``1 - x_other / (1 - a)`` (a supremum, approached from the right of
    the reported location); mirrored for x_other >= 1/2. When the band
    covers the whole interval every deviation is worth 0. The supremum is
    not the pessimistic aggregate at the reported location itself, where
    a zero-share split always exists.

    Optimistic: the whole market, from the left end of the band on.
    Neutral: the first largest of the candidates of both sides, the side
    right of x_other being the mirror image (x -> 1 - x) of the left one.
    Anything but a :class:`BehaviorKind` member raises ValueError.
    """
    if behavior is _PESSIMISTIC:
        if x_other <= 0.5:
            if x_other + a >= 1.0:
                return min(x_other + a, 1.0), 0.0
            return x_other + a, 1.0 - x_other / (1.0 - a)
        if x_other - a <= 0.0:
            return max(x_other - a, 0.0), 0.0
        return x_other - a, 1.0 - (1.0 - x_other) / (1.0 - a)
    if behavior is _OPTIMISTIC:
        return max(0.0, x_other - a), 1.0
    if behavior is not _NEUTRAL:
        raise _behavior_error(behavior)
    mirrored = [(1.0 - x, payoff) for x, payoff in _neutral_candidates(a, 1.0 - x_other)]
    return max(sorted(_neutral_candidates(a, x_other) + mirrored), key=lambda c: c[1])


def best_deviation(
    params: GameParams,
    behavior: BehaviorKind,
    deviator: int,
    x_other: float,
) -> DeviationReport:
    """Best deviation against an opponent at ``x_other``, for any behavior.

    The payoff is the supremum over [0, 1] and the location the smallest
    where it is attained or approached from one side (it can be the
    deviator's own location: staying put never beats the limit beside it).
    Both are in closed form; :func:`_supremum` derives them for each
    behavior. Where the supremum is only approached, the payoff is not the
    aggregate over ``outcomes_considered`` at the location.
    """
    _check_deviation_args(deviator, x_other)
    location, payoff = _supremum(params.a, behavior, x_other)
    return _report(deviator, location, payoff, _deviation_splits(params.a, location, x_other)[0])


def is_nash(
    params: GameParams,
    behavior: BehaviorKind,
    profile: EquilibriumProfile,
) -> bool:
    """Decide whether a profile is a Nash equilibrium under ``behavior``.

    The profile's outcome must be a market equilibrium for its locations
    (ValueError otherwise). Each firm's on-path share is compared against
    its best deviation payoff, the supremum of :func:`best_deviation`,
    with weak-inequality slack ``NE_TOL``; the slack is fixed, so every
    characterization that promises agreement with this decision uses the
    same one. Staying put is no deviation, but
    its value never exceeds the limit beside it, so it changes no
    supremum and needs no exclusion.
    """
    loc = profile.locations
    if not is_market_equilibrium(params, loc, profile.s1):
        raise ValueError("profile outcome is not a market equilibrium for its locations")
    return (_nash_ok(profile.s1, _supremum(params.a, behavior, loc.x2)[1])
            and _nash_ok(profile.s2, _supremum(params.a, behavior, loc.x1)[1]))


def pessimistic_nash_interval(params: GameParams, loc: Locations) -> NashInterval:
    """Shares supportable as pessimistic NE at ``loc``.

    A market equilibrium (s1, 1-s1) at (x1, x2) is a pessimistic NE iff
    s1 lies in this interval. The lower bound is firm 1's best deviation
    value, the upper bound the complement of firm 2's:

    * lo = (1 - x2 - a) / (1 - a)  if x2 <= 1/2, else (x2 - a) / (1 - a)
    * hi = x1 / (1 - a)            if x1 <= 1/2, else (1 - x1) / (1 - a)
    """
    a = params.a
    lo = (1.0 - loc.x2 - a) / (1.0 - a) if loc.x2 <= 0.5 else (loc.x2 - a) / (1.0 - a)
    hi = loc.x1 / (1.0 - a) if loc.x1 <= 0.5 else (1.0 - loc.x1) / (1.0 - a)
    return NashInterval(lo, hi)


def neutral_nash(params: GameParams):
    """The unique neutral NE, or None when a > 1/2.

    For a <= 1/2 both firms co-locate at the center and split the market
    evenly (minimal differentiation); for larger externalities a firm
    always gains on average by stepping away, so no NE exists.
    """
    if params.a > 0.5:
        return None
    return EquilibriumProfile(Locations(0.5, 0.5), MarketOutcome(_III, 0.5))


def _symmetric_thresholds(a: float):
    """The x1 from which the symmetric pessimistic NE set holds 1/2, the
    tails 1/2 +- (1 - 2 x1)/(2 a), and {0, 1}: (1 - a)/2, (1 - a^2)/2 and
    1 - a, each moved down by the NE-decision slack ``NE_TOL`` mapped
    through the constraint algebra (factor 1 - a for the outer two,
    a (1 - a) for the middle one)."""
    return ((1.0 - a) / 2.0 - NE_TOL * (1.0 - a),
            (1.0 - a * a) / 2.0 - NE_TOL * a * (1.0 - a),
            1.0 - a - NE_TOL * (1.0 - a))


def symmetric_pessimistic_nash_set(params: GameParams, x1: float):
    """Shares s1 making (x1, 1 - x1, s1, 1 - s1) a pessimistic NE.

    Requires x1 <= 1/2. The set grows as the firms approach the center:

    * empty below (1 - a)/2 (locations too far apart),
    * {1/2} from (1 - a)/2,
    * additionally 1/2 +- (1 - 2 x1)/(2 a) from (1 - a^2)/2,
    * additionally {0, 1} from 1 - a.

    Returns the sorted tuple of distinct values, merged within
    ``_SYMMETRIC_GAP`` where parts meet (at x1 = 1/2 the tails are 1/2).
    The NE-decision slack ``NE_TOL`` is mapped through the constraint
    algebra onto each threshold (:func:`_symmetric_thresholds`), so the set
    is the one :func:`is_nash` accepts at every x1 farther than 1e-16 from
    the three moved thresholds; within rounding of one of them the two may
    decide differently. The slack is not a parameter: another value would
    break that agreement. The closed form stays rather than reading
    :func:`is_nash`, which makes the symmetric figure's rows several times
    slower.
    """
    if not 0.0 <= x1 <= 0.5:
        raise ValueError(f"symmetric analysis needs x1 in [0, 1/2], got {x1}")
    a = params.a
    center, tails, ends = _symmetric_thresholds(a)
    values: list = []
    if x1 >= center:
        values.append(0.5)
    if x1 >= tails:
        delta = (1.0 - 2.0 * x1) / (2.0 * a)
        values.extend([0.5 - delta, 0.5 + delta])
    if x1 >= ends:
        values.extend([0.0, 1.0])
    return tuple(_merge_close(values, _SYMMETRIC_GAP))


def nash_region_a_half(x1: float, x2: float) -> set:
    """Kinds forming a pessimistic NE at (x1, x2) when a = 1/2.

    The market splits at (x1, x2) that :func:`is_nash` accepts, by kind,
    so the map is exact up to the slack ``NE_TOL`` of that decision and
    names only splits that exist at the point. A UNIQUE split (the gap
    rounds one ulp past a) is read as kind III, whose share it has. The
    paper's explicit membership inequalities are checked against this
    map in the acceptance suite. The region is non-convex even for fixed
    x1 (kind IV pockets below the diagonal detach from the rest).
    """
    params, loc = GameParams(0.5), Locations(x1, x2)  # Locations checks the order
    return {_III if o.kind is _UNIQUE else o.kind
            for o in enumerate_market_equilibria(params, loc)
            if is_nash(params, _PESSIMISTIC, EquilibriumProfile(loc, o))}


_DIAMETER_TOL = 1e-12  # rounding slack of both diameter bounds


def _diameter_ok(a: float, x1, x2, s1):
    """:func:`nash_diameter_bounds_check`'s test at x1 <= x2 and firm 1's
    share s1: a Python bool for floats, a boolean array for arrays
    (broadcast together)."""
    return (x2 - x1 <= a + _DIAMETER_TOL) & (
        abs((1.0 - s1) - s1) <= a / (1.0 - a) + _DIAMETER_TOL)


def nash_diameter_bounds_check(params: GameParams, profile: EquilibriumProfile) -> bool:
    """Diameter bounds every pessimistic NE satisfies.

    Locations differ by at most ``a`` and shares by at most
    ``a / (1 - a)``; both vanish as the externality does. Both bounds
    carry the fixed rounding slack ``_DIAMETER_TOL`` (1e-12).
    """
    return _diameter_ok(params.a, profile.x1, profile.x2, profile.s1)
