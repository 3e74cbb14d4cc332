"""Consumer surplus, welfare optima, and efficiency ratios.

Welfare here is the consumers' side only: total firm profit is constant
(shares sum to one), so every comparison between outcomes reduces to the
integral of consumer utilities over [0, 1]. Welfare values are plain
floats.

The price of anarchy (PoA) divides the optimal welfare by the welfare of
the worst Nash equilibrium, the price of stability (PoS) by the best.
Both are the ratio of the welfares :func:`consumer_welfare` gives at two
profiles known in closed form, the optimum and the extremal equilibrium;
the brute-force grid routines in :mod:`locpop.oracle` serve as the
independent check, never the reverse. Optimistic firms admit no NE, and
neutral firms none beyond a = 1/2, so those requests raise
:class:`NoEquilibriumError`.
"""

from __future__ import annotations

import math

from .behaviors import (
    _NEUTRAL,
    _OPTIMISTIC,
    _PESSIMISTIC,
    BehaviorKind,
    NoEquilibriumError,
    _behavior_error,
    neutral_nash,
)
from .model import (
    _I,
    _III,
    _IV,
    _UNIQUE,
    EquilibriumProfile,
    GameParams,
    Locations,
    MarketOutcome,
    _Record,
    _condition_gaps,
    _set_field,
)

__all__ = [
    "BEST_NE_BREAKPOINT",
    "OptimumPoint",
    "ProfileWelfare",
    "RatioReport",
    "consumer_welfare",
    "social_optimum",
    "worst_ne_pessimistic",
    "best_ne_pessimistic",
    "poa",
    "pos",
    "poa_minimizer_pessimistic",
]

# Externality level where the two interior best-NE regimes exchange
# optimality; both closed forms give welfare exactly theta there.
BEST_NE_BREAKPOINT = (2.0 - math.sqrt(2.0)) / 2.0


class OptimumPoint(_Record):
    """An unconstrained welfare maximizer (no equilibrium requirement)."""

    __slots__ = ("x1", "x2", "s1", "welfare")

    def __init__(self, x1: float, x2: float, s1: float, welfare: float):
        _set_field(self, "x1", x1)
        _set_field(self, "x2", x2)
        _set_field(self, "s1", s1)
        _set_field(self, "welfare", welfare)

    def as_dict(self) -> dict:
        return {"x1": self.x1, "x2": self.x2, "s1": self.s1, "welfare": self.welfare}


class ProfileWelfare(_Record):
    """An equilibrium profile together with its consumer welfare."""

    __slots__ = ("profile", "welfare")

    def __init__(self, profile: EquilibriumProfile, welfare: float):
        _set_field(self, "profile", profile)
        _set_field(self, "welfare", welfare)


class RatioReport(_Record):
    """One efficiency ratio: the optimum over an extremal NE welfare."""

    __slots__ = ("value", "optimum", "extremal_ne")

    def __init__(self, value: float, optimum: OptimumPoint, extremal_ne: ProfileWelfare):
        _set_field(self, "value", value)
        _set_field(self, "optimum", optimum)
        _set_field(self, "extremal_ne", extremal_ne)


def _abs_distance_integral(alpha: float, beta: float, x: float) -> float:
    """Exact integral of |t - x| over [alpha, beta] (alpha <= beta)."""
    if x <= alpha:
        return 0.5 * (beta * beta - alpha * alpha) - x * (beta - alpha)
    if x >= beta:
        return x * (beta - alpha) - 0.5 * (beta * beta - alpha * alpha)
    return 0.5 * ((x - alpha) ** 2 + (beta - x) ** 2)


def consumer_welfare(params: GameParams, x1: float, x2: float, s1: float) -> float:
    """Total consumer utility at locations (x1, x2) and split s1.

    Consumers on [0, s1) buy from the firm at x1, the rest from the firm
    at x2, so

        W = theta + a s1^2 + a (1 - s1)^2
            - int_0^s1 |t - x1| dt - int_s1^1 |t - x2| dt.

    The distance integrals use the exact piecewise-quadratic
    antiderivative, split at the firm location when it falls inside the
    integration range. The locations need not be ordered and s1 need not
    lie between them (tail splits place it outside).
    """
    _check_point(x1, x2, s1)
    travel = _abs_distance_integral(0.0, s1, x1) + _abs_distance_integral(s1, 1.0, x2)
    return _welfare_sum(params, s1, travel)


def _check_point(x1: float, x2: float, s1: float):
    """Raise ValueError unless the locations and the split lie in [0, 1]."""
    for name, value in (("x1", x1), ("x2", x2), ("s1", s1)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _welfare_sum(params: GameParams, s1, travel):
    """The welfare at split s1 given the consumers' ``travel``: theta plus
    the popularity term a s1^2 + a (1 - s1)^2 minus travel, for floats or
    arrays."""
    return params.theta + params.a * (s1 * s1 + (1.0 - s1) * (1.0 - s1)) - travel


def social_optimum(params: GameParams):
    """Unconstrained welfare maximizers, as a tuple of OptimumPoint.

    Below a = 1/4 the planner spreads the firms at the quartiles and
    splits demand evenly: welfare theta - 1/8 + a/2. Above, popularity
    dominates and everyone buys from a single central firm: welfare
    theta - 1/4 + a, with the idle firm's position immaterial (reported
    canonically at 0; the mirror with s1 = 1 is equally optimal). At
    a = 1/4 both configurations tie and both are returned. Welfare is
    evaluated via :func:`consumer_welfare` at each returned profile.
    """
    profiles = []
    if params.a <= 0.25:
        profiles.append((0.25, 0.75, 0.5))
    if params.a >= 0.25:
        profiles.append((0.0, 0.5, 0.0))
    return tuple(OptimumPoint(*p, consumer_welfare(params, *p)) for p in profiles)


def worst_ne_pessimistic(params: GameParams) -> ProfileWelfare:
    """The pessimistic NE minimizing consumer welfare.

    Both firms co-locate at (1 - a)/2 and split evenly; the welfare is
    theta - (1 - a)^2 / 4 (computed here by direct evaluation).
    """
    x = (1.0 - params.a) / 2.0
    profile = EquilibriumProfile(Locations(x, x), MarketOutcome(_IV, 0.5))
    return ProfileWelfare(profile, consumer_welfare(params, x, x, 0.5))


def _near(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def best_ne_pessimistic(params: GameParams) -> ProfileWelfare:
    """The pessimistic NE maximizing consumer welfare.

    Three regimes in a:

    * a <= (2 - sqrt(2))/2: maximal in-band spread around the center,
      ((1-a)/2, (1+a)/2) with an even split; welfare
      theta - (1 - 4a + 2a^2)/4.
    * up to 1/2: (1/2 - a, 1/2) with the interior split
      (1 - 2a)/(2(1 - a)); welfare
      theta - (1 - 6a + 12a^2 - 12a^3 + 4a^4)/(4 (1-a)^2).
    * beyond 1/2: (0, 1/2) with s1 = 0, which is the social optimum
      itself; welfare theta - 1/4 + a.

    Welfare is evaluated via :func:`consumer_welfare` at the stated
    profile. Adjacent regime formulas agree at the breakpoints; when a
    falls on one this is checked, and RuntimeError raised if not.
    """
    a = params.a

    def interior(x1, x2, s1):
        # the interior split is kind III in the band; where the gap rounds
        # above a, the enumeration lists it alone, as UNIQUE
        kind = _UNIQUE if _condition_gaps(a, x1, x2)[0] > 0.0 else _III
        return EquilibriumProfile(Locations(x1, x2), MarketOutcome(kind, s1))

    def branch_low():
        return interior((1.0 - a) / 2.0, (1.0 + a) / 2.0, 0.5)

    def branch_mid():
        return interior(0.5 - a, 0.5, (1.0 - 2.0 * a) / (2.0 * (1.0 - a)))

    def branch_high():
        return EquilibriumProfile(Locations(0.0, 0.5), MarketOutcome(_I, 0.0))

    if a <= BEST_NE_BREAKPOINT:
        profile = branch_low()
        neighbor = branch_mid() if _near(a, BEST_NE_BREAKPOINT) else None
    elif a <= 0.5:
        profile = branch_mid()
        neighbor = branch_high() if _near(a, 0.5) else None
    else:
        profile = branch_high()
        neighbor = None
    welfare = consumer_welfare(params, profile.x1, profile.x2, profile.s1)
    if neighbor is not None:
        other = consumer_welfare(params, neighbor.x1, neighbor.x2, neighbor.s1)
        if not abs(other - welfare) <= 1e-9:
            raise RuntimeError("best-NE regimes disagree at a breakpoint")
    return ProfileWelfare(profile, welfare)


def _extremal_ne(params: GameParams, behavior: BehaviorKind, pessimistic_ne) -> ProfileWelfare:
    """The extremal NE under ``behavior``: ``pessimistic_ne(params)``, or the
    unique neutral one. Raises NoEquilibriumError when there is none, and
    ValueError for anything but a :class:`BehaviorKind` member."""
    if behavior is _OPTIMISTIC:
        raise NoEquilibriumError("no equilibrium exists for optimistic firms")
    if behavior is _PESSIMISTIC:
        return pessimistic_ne(params)
    if behavior is not _NEUTRAL:
        raise _behavior_error(behavior)
    profile = neutral_nash(params)
    if profile is None:
        raise NoEquilibriumError("no equilibrium exists for neutral firms with a > 1/2")
    return ProfileWelfare(profile, consumer_welfare(params, profile.x1, profile.x2, profile.s1))


def _ratio(params: GameParams, extremal_ne: ProfileWelfare) -> RatioReport:
    optimum = social_optimum(params)[0]
    return RatioReport(optimum.welfare / extremal_ne.welfare, optimum, extremal_ne)


def poa(params: GameParams, behavior: BehaviorKind) -> RatioReport:
    """Price of anarchy: optimal welfare over the worst NE welfare.

    Neutral firms have a unique NE, so their PoA equals their PoS:
    [theta - (1/8 - a/2)] / [theta - (1/4 - a/2)] up to a = 1/4 and
    [theta - (1/4 - a)] / [theta - (1/4 - a/2)] beyond. Pessimistic
    firms divide the optimum by theta - (1 - a)^2 / 4.
    """
    return _ratio(params, _extremal_ne(params, behavior, worst_ne_pessimistic))


def pos(params: GameParams, behavior: BehaviorKind) -> RatioReport:
    """Price of stability: optimal welfare over the best NE welfare.

    Neutral firms: identical to :func:`poa`. Pessimistic firms follow
    the three best-NE regimes and the ratio is exactly 1 for a > 1/2,
    where the best NE coincides with the social optimum.
    """
    return _ratio(params, _extremal_ne(params, behavior, best_ne_pessimistic))


def _poa_slope(a: float, u: float) -> float:
    """A value with the sign of the pessimistic PoA's slope dPoA/da at
    a <= 1/4, where u = 1/theta: ``2 a^2 + (8 theta - 1) a - 1`` divided by
    theta, so no term overflows at any finite theta."""
    return 2.0 * a * a * u + (8.0 - u) * a - u


def poa_minimizer_pessimistic(theta: float) -> float:
    """Externality level minimizing the pessimistic price of anarchy.

    Up to a = 1/4 the PoA is (theta - 1/8 + a/2) / (theta - (1 - a)^2 / 4),
    whose slope has the sign of 2 a^2 + (8 theta - 1) a - 1; the minimizer
    is that quadratic's root in (0, 1/4), ``(1 - 8 theta + sqrt(64 theta^2 -
    16 theta + 9)) / 4``. It is evaluated as the equal ``2 u / (sqrt(64 -
    16 u + 9 u^2) + 8 - u)`` with u = 1/theta: the first form subtracts two
    terms near 8 theta and loses its digits as theta grows (0.0 at theta =
    1e8), and 64 theta^2 overflows from theta of about 1.3e154 on; the
    second adds positive terms of at most 16. Local minimality is checked
    by the sign of that slope (:func:`_poa_slope`) a relative 1e-6 either
    side, which raises RuntimeError on failure and resolves at every
    finite theta >= 1. At theta = 1 this is (sqrt(57) - 7)/4, about 0.137,
    with PoA about 1.159.
    """
    GameParams(0.5, theta)  # raises on a bad theta
    u = 1.0 / theta
    a_star = 2.0 * u / (math.sqrt(64.0 - 16.0 * u + 9.0 * u * u) + 8.0 - u)
    if not _poa_slope(a_star * (1.0 - 1e-6), u) < 0.0:
        raise RuntimeError("PoA closed form is not a local minimum (left)")
    if not _poa_slope(a_star * (1.0 + 1e-6), u) > 0.0:
        raise RuntimeError("PoA closed form is not a local minimum (right)")
    return a_star
