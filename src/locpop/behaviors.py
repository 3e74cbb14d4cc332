"""Firm behavior under equilibrium multiplicity and Nash analysis.

A firm weighing a deviation cannot know which market equilibrium the
consumers will land on afterwards, so its evaluation of the deviation
depends on its attitude: a pessimistic firm assumes the equilibrium that
minimizes its own share, an optimistic one the equilibrium that maximizes
it, and a neutral one averages over all equilibria with equal weight (one
weight per kind, even when two kinds happen to carry the same share).

A profile is a Nash equilibrium when neither firm's behavior-evaluated
best deviation beats its on-path share. For pessimistic firms the best
deviation has a closed form and the NE set is an explicit share interval;
for neutral and optimistic firms the payoff is piecewise affine (convex)
between closed-form breakpoints, so the best deviation is the exact
supremum over the values at and the one-sided limits beside them.
"""

from __future__ import annotations

import enum
import functools
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
    _split_share,
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

    def as_dict(self) -> dict:
        return {
            "deviator": self.deviator,
            "location": self.location,
            "payoff": self.payoff,
            "coincident_shares": self.coincident_shares,
            "outcomes_considered": [o.as_dict() for o in self.outcomes_considered],
        }


@dataclass(frozen=True)
class NashInterval:
    """Interval of firm-1 shares supportable as pessimistic NE.

    Raw bounds are kept as computed (they may leave [0, 1]); clamping
    happens only at query time so tests can inspect the raw values.
    Empty iff lo > hi.
    """

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, s1: float, tol: float = NE_TOL) -> bool:
        return self.lo - tol <= s1 <= self.hi + tol

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
    enumeration order, as ``_aggregate`` does."""
    left = x_dev <= x_other
    shares, _ = _equilibria_array(
        a, np.where(left, x_dev, x_other), np.where(left, x_other, x_dev))
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


# Own-location exclusion radius. Breakpoints closer than twice it merge,
# so at most one ever falls within it of the deviator's own location.
_SAME_POINT = 1e-12


def _breakpoints(a: float, x_other: float) -> list:
    """Sorted breakpoints in [0, 1] of the deviation payoff against x_other:
    0, 1, x_other, the band edges x_other +- a and the kind II/IV existence
    boundaries a + (1 - 2a) x_other and, unless a = 1/2 (where that
    condition ignores the deviation), (x_other - a) / (1 - 2a)."""
    points = [0.0, 1.0, x_other, x_other - a, x_other + a, a + (1.0 - 2.0 * a) * x_other]
    if a != 0.5:
        points.append((x_other - a) / (1.0 - 2.0 * a))
    return _merge_close((p for p in points if 0.0 <= p <= 1.0), 2.0 * _SAME_POINT)


def _piece_limits(a: float, behavior: BehaviorKind, x_other: float, left: float, right: float):
    """One-sided limits of the payoff at both ends of the open piece (left, right).

    No split appears, vanishes or clips inside a piece, so the kinds at
    its midpoint hold throughout and each share is affine in the
    deviation location: the limits are those kinds' formulas at the ends.
    """
    mid = 0.5 * (left + right)
    if mid <= x_other:
        kinds = [kind for kind, _ in _equilibria(a, mid, x_other)]
        shares = ([_split_share(k, a, x, x_other) for k in kinds] for x in (left, right))
    else:
        kinds = [kind for kind, _ in _equilibria(a, x_other, mid)]
        shares = ([1.0 - _split_share(k, a, x_other, x) for k in kinds] for x in (left, right))
    return tuple(_aggregate(behavior, end) for end in shares)


@functools.lru_cache(maxsize=65536)
def _cached_best_deviation(a: float, behavior: BehaviorKind, x_other: float):
    """The two best (payoff, location, attained) candidates against x_other.

    Candidates are the payoff attained at each breakpoint and the
    one-sided limits beside it; ties keep attained values, then smaller
    locations, first. Excluding the own location drops at most one
    attained value, so two entries answer every lookup. The cache serves
    repeated opponents: ``nash-check`` asks for each one twice (through
    ``is_nash`` and ``best_deviation``), and a region scan asks once per
    grid value (:func:`_supremum_table`), so scans at one ``a`` share them.
    """
    points = _breakpoints(a, x_other)
    candidates = [(_deviation_value(a, behavior, p, x_other), p, True) for p in points]
    for left, right in zip(points, points[1:]):
        at_left, at_right = _piece_limits(a, behavior, x_other, left, right)
        candidates += [(at_left, left, False), (at_right, right, False)]
    candidates.sort(key=lambda candidate: -candidate[0])
    return tuple(candidates[:2])


def _supremum(a: float, behavior: BehaviorKind, x_other: float, own_location):
    """(location, payoff) of the best deviation against x_other, the value
    attained at ``own_location`` (None: no exclusion) left out.

    Pessimistic: the closed form of :func:`best_deviation_pessimistic`,
    which no exclusion changes. Neutral/optimistic: the cached candidates.
    """
    if behavior is BehaviorKind.PESSIMISTIC:
        if x_other <= 0.5:
            if x_other + a >= 1.0:
                return min(x_other + a, 1.0), 0.0
            return x_other + a, 1.0 - x_other / (1.0 - a)
        if x_other - a <= 0.0:
            return max(x_other - a, 0.0), 0.0
        return x_other - a, 1.0 - (1.0 - x_other) / (1.0 - a)
    (payoff, location, attained), runner_up = _cached_best_deviation(a, behavior, x_other)
    if attained and own_location is not None and abs(location - own_location) <= _SAME_POINT:
        payoff, location, _ = runner_up
    return location, payoff


def _supremum_table(a: float, behavior: BehaviorKind, x_other):
    """:func:`_supremum` against every opponent location of the array
    ``x_other``, as three arrays for :func:`_excluded_supremum`: the best
    payoff, the location where it is attained (NaN when only approached,
    as always for pessimists) and the runner-up payoff."""
    if behavior is BehaviorKind.PESSIMISTIC:
        payoff = np.where(
            x_other <= 0.5,
            np.where(x_other + a >= 1.0, 0.0, 1.0 - x_other / (1.0 - a)),
            np.where(x_other - a <= 0.0, 0.0, 1.0 - (1.0 - x_other) / (1.0 - a)),
        )
        return payoff, np.full_like(payoff, np.nan), payoff
    tops = [_cached_best_deviation(a, behavior, x) for x in x_other.tolist()]
    return (
        np.array([best[0] for best, _ in tops]),
        np.array([best[1] if best[2] else np.nan for best, _ in tops]),
        np.array([runner_up[0] for _, runner_up in tops]),
    )


def _excluded_supremum(table, index, own_location):
    """Array form of :func:`_supremum`'s payoff against the opponents
    ``index`` selects from a :func:`_supremum_table`, with the value attained
    at ``own_location`` left out."""
    payoff, attained_at, runner_up = (column[index] for column in table)
    return np.where(np.abs(attained_at - own_location) <= _SAME_POINT, runner_up, payoff)


def best_deviation(
    params: GameParams,
    behavior: BehaviorKind,
    deviator: int,
    x_other: float,
    *,
    own_location: float | None = None,
) -> DeviationReport:
    """Best deviation against an opponent at ``x_other``, for any behavior.

    As in :func:`best_deviation_pessimistic`, which answers the
    pessimistic case, the payoff is the supremum over [0, 1] and the
    location the breakpoint where it is attained or approached from.
    Neutral payoffs are affine and optimistic ones convex between
    breakpoints, so the supremum is the largest value at or beside one.

    ``own_location`` is the deviator's current location: staying put is
    not a deviation, so the value attained there is dropped (the limits
    beside it stay). It cannot change a pessimistic supremum.
    """
    _check_deviation_args(deviator, x_other)
    location, payoff = _supremum(params.a, behavior, x_other, own_location)
    return _report(params, deviator, location, x_other, payoff)


def is_nash(
    params: GameParams,
    behavior: BehaviorKind,
    profile: EquilibriumProfile,
    *,
    tol: float = NE_TOL,
) -> bool:
    """Decide whether a profile is a Nash equilibrium under ``behavior``.

    The profile's outcome must be a market equilibrium for its locations
    (ValueError otherwise). Each firm's on-path share is compared against
    its best deviation payoff, the supremum of :func:`best_deviation`
    with the firm's own location excluded, with weak-inequality slack
    ``tol``.
    """
    loc = profile.locations
    if not is_market_equilibrium(params, loc, profile.s1):
        raise ValueError("profile outcome is not a market equilibrium for its locations")
    for own_share, own_x, opp_x in ((profile.s1, loc.x1, loc.x2), (profile.s2, loc.x2, loc.x1)):
        if own_share < _supremum(params.a, behavior, opp_x, own_x)[1] - tol:
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


def symmetric_pessimistic_nash_set(params: GameParams, x1: float, tol: float = NE_TOL):
    """Shares s1 making (x1, 1 - x1, s1, 1 - s1) a pessimistic NE.

    Requires x1 <= 1/2. The set grows as the firms approach the center:

    * empty below (1 - a)/2 (locations too far apart),
    * {1/2} from (1 - a)/2,
    * additionally 1/2 +- (1 - 2 x1)/(2 a) from (1 - a^2)/2,
    * additionally {0, 1} from 1 - a.

    Returns the sorted tuple of distinct values (union at overlapping
    region boundaries). The NE-decision slack ``tol`` is mapped through
    the constraint algebra onto each threshold (factor 1 - a for the
    outer regions, a (1 - a) for the middle one) so the characterization
    agrees with :func:`is_nash` decision-for-decision, including at
    region boundaries that are not floating-point representable.
    """
    if not 0.0 <= x1 <= 0.5:
        raise ValueError(f"symmetric analysis needs x1 in [0, 1/2], got {x1}")
    a = params.a
    values: list = []
    if x1 >= (1.0 - a) / 2.0 - tol * (1.0 - a):
        values.append(0.5)
    if x1 >= (1.0 - a * a) / 2.0 - tol * a * (1.0 - a):
        delta = (1.0 - 2.0 * x1) / (2.0 * a)
        values.extend([0.5 - delta, 0.5 + delta])
    if x1 >= 1.0 - a - tol * (1.0 - a):
        values.extend([0.0, 1.0])
    return tuple(_merge_close(values, 1e-12))


def nash_region_a_half(x1: float, x2: float, tol: float = NE_TOL) -> set:
    """Kinds forming a pessimistic NE at (x1, x2) when a = 1/2.

    Implements the explicit membership inequalities of the a = 1/2 NE
    map, with the same weak-inequality slack used by the NE decision so
    grid scans agree exactly. The region is non-convex even for fixed
    x1 (kind IV pockets below the diagonal detach from the rest).
    """
    if not 0.0 <= x1 <= x2 <= 1.0:
        raise ValueError(f"need 0 <= x1 <= x2 <= 1, got ({x1}, {x2})")
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


def nash_diameter_bounds_check(
    params: GameParams, profile: EquilibriumProfile, tol: float = 1e-12
) -> bool:
    """Diameter bounds every pessimistic NE satisfies.

    Locations differ by at most ``a`` and shares by at most
    ``a / (1 - a)``; both vanish as the externality does.
    """
    a = params.a
    if profile.locations.gap > a + tol:
        return False
    return abs(profile.s2 - profile.s1) <= a / (1.0 - a) + tol
