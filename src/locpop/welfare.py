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
from dataclasses import dataclass

import numpy as np

from .behaviors import BehaviorKind, NoEquilibriumError, neutral_nash
from .model import (
    EquilibriumProfile,
    GameParams,
    Kind,
    Locations,
    MarketOutcome,
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


@dataclass(frozen=True)
class OptimumPoint:
    """An unconstrained welfare maximizer (no equilibrium requirement)."""

    x1: float
    x2: float
    s1: float
    welfare: float

    def as_dict(self) -> dict:
        return {"x1": self.x1, "x2": self.x2, "s1": self.s1, "welfare": self.welfare}


@dataclass(frozen=True)
class ProfileWelfare:
    """An equilibrium profile together with its consumer welfare."""

    profile: EquilibriumProfile
    welfare: float

    def as_dict(self) -> dict:
        return {**self.profile.as_dict(), "welfare": self.welfare}


@dataclass(frozen=True)
class RatioReport:
    """One efficiency ratio: the optimum over an extremal NE welfare."""

    value: float
    optimum: OptimumPoint
    extremal_ne: ProfileWelfare

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "optimum": self.optimum.as_dict(),
            "extremal_ne": self.extremal_ne.as_dict(),
        }


def _abs_distance_integral(alpha: float, beta: float, x: float) -> float:
    """Exact integral of |t - x| over [alpha, beta] (alpha <= beta)."""
    if x <= alpha:
        return 0.5 * (beta * beta - alpha * alpha) - x * (beta - alpha)
    if x >= beta:
        return x * (beta - alpha) - 0.5 * (beta * beta - alpha * alpha)
    return 0.5 * ((x - alpha) ** 2 + (beta - x) ** 2)


def _abs_distance_integral_array(alpha, beta, x):
    """Array form of :func:`_abs_distance_integral`, bit for bit. Squares
    use ``np.float_power``, which calls the C library's ``pow`` as Python's
    ``** 2`` does; numpy's ``** 2`` and ``np.square`` multiply instead, and
    differ from it in about one value of 1,150."""
    outer = 0.5 * (beta * beta - alpha * alpha)
    return np.where(
        x <= alpha,
        outer - x * (beta - alpha),
        np.where(
            x >= beta,
            x * (beta - alpha) - outer,
            0.5 * (np.float_power(x - alpha, 2.0) + np.float_power(beta - x, 2.0)),
        ),
    )


def _consumer_welfare_array(params: GameParams, x1, x2, s1):
    """Array form of :func:`consumer_welfare`, bit for bit, for inputs
    already known to lie in [0, 1]."""
    a = params.a
    popularity = a * (s1 * s1 + (1.0 - s1) * (1.0 - s1))
    travel = _abs_distance_integral_array(0.0, s1, x1) + _abs_distance_integral_array(s1, 1.0, x2)
    return params.theta + popularity - travel


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
    for name, value in (("x1", x1), ("x2", x2), ("s1", s1)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    a = params.a
    popularity = a * (s1 * s1 + (1.0 - s1) * (1.0 - s1))
    travel = _abs_distance_integral(0.0, s1, x1) + _abs_distance_integral(s1, 1.0, x2)
    return params.theta + popularity - travel


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
    profile = EquilibriumProfile(Locations(x, x), MarketOutcome(Kind.IV, 0.5))
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

    def branch_low():
        loc = Locations((1.0 - a) / 2.0, (1.0 + a) / 2.0)
        return EquilibriumProfile(loc, MarketOutcome(Kind.III, 0.5))

    def branch_mid():
        s1 = (1.0 - 2.0 * a) / (2.0 * (1.0 - a))
        loc = Locations(0.5 - a, 0.5)
        return EquilibriumProfile(loc, MarketOutcome(Kind.III, s1))

    def branch_high():
        return EquilibriumProfile(Locations(0.0, 0.5), MarketOutcome(Kind.I, 0.0))

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
    unique neutral one. Raises NoEquilibriumError when there is none."""
    if behavior is BehaviorKind.OPTIMISTIC:
        raise NoEquilibriumError("no equilibrium exists for optimistic firms")
    if behavior is BehaviorKind.PESSIMISTIC:
        return pessimistic_ne(params)
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


def poa_minimizer_pessimistic(theta: float) -> float:
    """Externality level minimizing the pessimistic price of anarchy.

    Closed form ``(1 - 8 theta + sqrt(64 theta^2 - 16 theta + 9)) / 4``;
    local minimality is checked by a finite-difference sign test, which
    raises RuntimeError on failure. At theta = 1 this is
    (sqrt(57) - 7)/4, about 0.137, with PoA about 1.159.
    """
    if not (math.isfinite(theta) and theta >= 1.0):
        raise ValueError(f"theta must be finite and >= 1, got {theta}")
    a_star = (1.0 - 8.0 * theta + math.sqrt(64.0 * theta * theta - 16.0 * theta + 9.0)) / 4.0
    h = min(1e-4, a_star / 2.0)

    def ratio(a):
        return poa(GameParams(a, theta), BehaviorKind.PESSIMISTIC).value

    center = ratio(a_star)
    if not ratio(a_star - h) >= center:
        raise RuntimeError("PoA closed form is not a local minimum (left)")
    if not ratio(a_star + h) >= center:
        raise RuntimeError("PoA closed form is not a local minimum (right)")
    return a_star
