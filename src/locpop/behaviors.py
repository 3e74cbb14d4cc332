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
from dataclasses import dataclass

import numpy as np

from .model import (
    EquilibriumProfile,
    Kind,
    Locations,
    MarketOutcome,
    GameParams,
    _equilibria,
    _equilibria_array,
    _merge_close,
    distinct_shares,
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
    "best_deviation_pessimistic",
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


class BehaviorKind(enum.Enum):
    """Attitude toward the multiplicity of market equilibria."""

    PESSIMISTIC = "pessimistic"
    NEUTRAL = "neutral"
    OPTIMISTIC = "optimistic"


class NoEquilibriumError(Exception):
    """Raised when a computation needs a Nash equilibrium that does not exist."""


@dataclass(frozen=True)
class DeviationReport:
    """Evaluation of one deviation.

    For :func:`deviation_payoff` results, ``payoff`` is exactly the
    min / mean / max of the deviator's share over ``outcomes_considered``
    according to the active behavior; for best deviations it is the
    supremum, which the aggregate at ``location`` may only approach.
    ``coincident_shares`` flags boundary instances where two kinds carry
    the same share within 1e-12 (the neutral mean still counts each once).
    """

    deviator: int
    location: float
    payoff: float
    outcomes_considered: tuple
    coincident_shares: bool = False


@dataclass(frozen=True)
class NashInterval:
    """Interval of firm-1 shares supportable as pessimistic NE.

    Raw bounds are kept as computed (they may leave [0, 1]); clamping
    happens only at query time so tests can inspect the raw values.
    Empty iff lo > hi. :meth:`contains` widens both bounds by ``NE_TOL``,
    the slack of :func:`is_nash`, and takes no other.
    """

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, s1: float) -> bool:
        return self.lo - NE_TOL <= s1 <= self.hi + NE_TOL

    def clamped(self):
        """Intersection with [0, 1], or None when empty."""
        lo = max(self.lo, 0.0)
        hi = min(self.hi, 1.0)
        if lo > hi:
            return None
        return (lo, hi)

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "empty": self.is_empty}


def _aggregate(behavior: BehaviorKind, shares) -> float:
    if behavior is BehaviorKind.PESSIMISTIC:
        return min(shares)
    if behavior is BehaviorKind.OPTIMISTIC:
        return max(shares)
    # a plain left-to-right sum, as _deviation_values takes it: sum() of
    # floats is compensated from CPython 3.12 on
    rest = iter(shares)
    total = next(rest)
    for share in rest:
        total += share
    return total / len(shares)


def _deviation_value(a: float, behavior: BehaviorKind, x_dev: float, x_other: float) -> float:
    """Behavior-aggregated share of a firm locating at x_dev against x_other."""
    if x_dev <= x_other:
        shares = [s for _, s in _equilibria(a, x_dev, x_other)]
    else:
        shares = [1.0 - s for _, s in _equilibria(a, x_other, x_dev)]
    return _aggregate(behavior, shares)


def _deviation_values(a: float, behavior: BehaviorKind, x_dev, x_other: float):
    """Array form of :func:`_deviation_value` over the deviation locations
    ``x_dev``, bit for bit: the neutral mean is summed left to right in
    enumeration order, as ``_aggregate`` does. The minimum and maximum do
    not depend on slot order, so only the neutral mean sorts the slots."""
    left = x_dev <= x_other
    shares, _ = _equilibria_array(
        a, np.where(left, x_dev, x_other), np.where(left, x_other, x_dev))
    if behavior is BehaviorKind.NEUTRAL:
        shares = np.take_along_axis(shares, np.argsort(shares, axis=-1, kind="stable"), axis=-1)
    own = np.where(left[..., None], shares, 1.0 - shares)
    if behavior is BehaviorKind.PESSIMISTIC:
        return np.nanmin(own, axis=-1)
    if behavior is BehaviorKind.OPTIMISTIC:
        return np.nanmax(own, axis=-1)
    present = ~np.isnan(own)  # a prefix of the sorted slots
    total = own[..., 0]
    for slot in range(1, 5):
        total = total + np.where(present[..., slot], own[..., slot], 0.0)
    return total / present.sum(axis=-1)


def _check_deviation_args(deviator: int, x_other: float, x_dev: float = 0.0):
    if deviator not in (1, 2):
        raise ValueError(f"deviator must be firm 1 or 2, got {deviator}")
    if not (0.0 <= x_dev <= 1.0 and 0.0 <= x_other <= 1.0):
        raise ValueError("deviation and opponent locations must lie in [0, 1]")


def _report(params: GameParams, deviator: int, location: float, x_other: float, payoff: float):
    loc = Locations.from_unordered(location, x_other)
    outcomes = tuple(enumerate_market_equilibria(params, loc))
    return DeviationReport(
        deviator=deviator,
        location=location,
        payoff=payoff,
        outcomes_considered=outcomes,
        coincident_shares=len(distinct_shares(outcomes)) < len(outcomes),
    )


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
    payoff = _deviation_value(params.a, behavior, x_dev, x_other)
    return _report(params, deviator, x_dev, x_other, payoff)


def best_deviation_pessimistic(
    params: GameParams, deviator: int, x_other: float
) -> DeviationReport:
    """Best pessimistic deviation against an opponent at ``x_other``.

    Any deviation within ``a`` of the opponent admits a zero-share
    equilibrium, so a pessimist only gains by jumping outside that band,
    and the closest admissible point on the far side of the market is
    best. Against x_other <= 1/2 that is x_other + a with value
    ``1 - x_other / (1 - a)`` (a supremum, approached from the right of
    the reported location); mirrored for x_other >= 1/2. When the band
    covers the whole interval every deviation is worth 0.

    The reported payoff is that supremum, so it is not the pessimistic
    aggregate over ``outcomes_considered`` at the reported location
    itself (which always contains a zero-share outcome).
    """
    return best_deviation(params, BehaviorKind.PESSIMISTIC, deviator, x_other)


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

    Pessimistic: see :func:`best_deviation_pessimistic`. Optimistic: the
    whole market, from the left end of the band on. Neutral: the first
    largest of the candidates of both sides, the side right of x_other
    being the mirror image (x -> 1 - x) of the left one.
    """
    if behavior is BehaviorKind.PESSIMISTIC:
        if x_other <= 0.5:
            if x_other + a >= 1.0:
                return min(x_other + a, 1.0), 0.0
            return x_other + a, 1.0 - x_other / (1.0 - a)
        if x_other - a <= 0.0:
            return max(x_other - a, 0.0), 0.0
        return x_other - a, 1.0 - (1.0 - x_other) / (1.0 - a)
    if behavior is BehaviorKind.OPTIMISTIC:
        return max(0.0, x_other - a), 1.0
    mirrored = [(1.0 - x, payoff) for x, payoff in _neutral_candidates(a, 1.0 - x_other)]
    return max(sorted(_neutral_candidates(a, x_other) + mirrored), key=lambda c: c[1])


def best_deviation(
    params: GameParams,
    behavior: BehaviorKind,
    deviator: int,
    x_other: float,
) -> DeviationReport:
    """Best deviation against an opponent at ``x_other``, for any behavior.

    The payoff is the supremum over [0, 1] and the location is where it
    is attained or approached from one side (it can be the deviator's own
    location: staying put never beats the limit beside it). Pessimistic:
    see :func:`best_deviation_pessimistic`. Neutral and optimistic: in
    closed form, ties going to the smallest location.
    """
    _check_deviation_args(deviator, x_other)
    location, payoff = _supremum(params.a, behavior, x_other)
    return _report(params, deviator, location, x_other, payoff)


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
    for own_share, opp_x in ((profile.s1, loc.x2), (profile.s2, loc.x1)):
        if own_share < _supremum(params.a, behavior, opp_x)[1] - NE_TOL:
            return False
    return True


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
    return EquilibriumProfile(Locations(0.5, 0.5), MarketOutcome(Kind.III, 0.5))


def symmetric_pessimistic_nash_set(params: GameParams, x1: float):
    """Shares s1 making (x1, 1 - x1, s1, 1 - s1) a pessimistic NE.

    Requires x1 <= 1/2. The set grows as the firms approach the center:

    * empty below (1 - a)/2 (locations too far apart),
    * {1/2} from (1 - a)/2,
    * additionally 1/2 +- (1 - 2 x1)/(2 a) from (1 - a^2)/2,
    * additionally {0, 1} from 1 - a.

    Returns the sorted tuple of distinct values (union at overlapping
    region boundaries). The NE-decision slack ``NE_TOL`` is mapped
    through the constraint algebra onto each threshold (factor 1 - a for
    the outer regions, a (1 - a) for the middle one) so the
    characterization agrees with :func:`is_nash` decision-for-decision,
    including at region boundaries that are not floating-point
    representable. The slack is not a parameter: another value would
    break that agreement.
    """
    if not 0.0 <= x1 <= 0.5:
        raise ValueError(f"symmetric analysis needs x1 in [0, 1/2], got {x1}")
    a = params.a
    values: list = []
    if x1 >= (1.0 - a) / 2.0 - NE_TOL * (1.0 - a):
        values.append(0.5)
    if x1 >= (1.0 - a * a) / 2.0 - NE_TOL * a * (1.0 - a):
        delta = (1.0 - 2.0 * x1) / (2.0 * a)
        values.extend([0.5 - delta, 0.5 + delta])
    if x1 >= 1.0 - a - NE_TOL * (1.0 - a):
        values.extend([0.0, 1.0])
    return tuple(_merge_close(values, 1e-12))


def nash_region_a_half(x1: float, x2: float) -> set:
    """Kinds forming a pessimistic NE at (x1, x2) when a = 1/2.

    Implements the explicit membership inequalities of the a = 1/2 NE
    map, with the weak-inequality slack ``NE_TOL`` of the NE decision so
    grid scans agree exactly; the slack is not a parameter, as another
    value would break that agreement. The region is non-convex even for
    fixed x1 (kind IV pockets below the diagonal detach from the rest).
    """
    if not 0.0 <= x1 <= x2 <= 1.0:
        raise ValueError(f"need 0 <= x1 <= x2 <= 1, got ({x1}, {x2})")
    tol = NE_TOL
    kinds: set = set()
    if abs(x2 - 0.5) <= tol:
        kinds.add(Kind.I)
    if (x1 <= 0.5 + tol and 0.5 - tol <= x2 <= (3.0 + 2.0 * x1) / 6.0 + tol) or (
        0.5 - tol <= x1 <= 0.75 + tol and x2 <= (3.0 + 2.0 * x1) / 6.0 + tol
    ):
        kinds.add(Kind.II)
    if x1 <= 0.5 + tol and 0.5 - tol <= x2 <= (1.0 + 2.0 * x1) / 2.0 + tol:
        kinds.add(Kind.III)
    if 0.25 - tol <= x1 <= 0.5 + tol and x2 <= (-1.0 + 6.0 * x1) / 2.0 + tol:
        kinds.add(Kind.IV)
    if abs(x1 - 0.5) <= tol:
        kinds.add(Kind.V)
    return kinds


_DIAMETER_TOL = 1e-12  # rounding slack of both diameter bounds


def nash_diameter_bounds_check(params: GameParams, profile: EquilibriumProfile) -> bool:
    """Diameter bounds every pessimistic NE satisfies.

    Locations differ by at most ``a`` and shares by at most
    ``a / (1 - a)``; both vanish as the externality does. Both bounds
    carry the fixed rounding slack ``_DIAMETER_TOL`` (1e-12).
    """
    a = params.a
    if profile.locations.gap > a + _DIAMETER_TOL:
        return False
    return abs(profile.s2 - profile.s1) <= a / (1.0 - a) + _DIAMETER_TOL
