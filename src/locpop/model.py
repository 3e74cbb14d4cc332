"""Domain model for a two-firm location game with popularity effects.

Two firms sit at positions x1 <= x2 on the unit interval. A consumer at
position v who buys from a firm located at x holding market share s gets
utility ``theta + a*s - |v - x|``: distance to the product hurts,
popularity helps. Because utilities depend on the shares themselves, the
demand split is a fixed point of the consumers' choices. This module
enumerates those fixed points (market equilibria) in closed form and
verifies arbitrary splits against the defining inequalities.

When the firms are farther apart than ``a``, the split is unique and the
indifferent consumer sits strictly between them. When they are within
``a`` of each other, the popularity feedback amplifies small advantages
and up to five splits coexist; they are labelled I..V from "firm 2 takes
everything" to "firm 1 takes everything".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SHARE_TOL",
    "Kind",
    "GameParams",
    "Locations",
    "ConsumerPosition",
    "MarketOutcome",
    "EquilibriumProfile",
    "EquilibriumCount",
    "consumer_utility",
    "enumerate_market_equilibria",
    "is_market_equilibrium",
    "market_equilibrium_count",
    "distinct_shares",
    "mirror_locations",
    "mirror_outcome",
    "mirror_profile",
]

# Absolute tolerance for comparing market shares. Shares involve divisions,
# so exact equality is too strict; existence conditions are affine in the
# inputs and are compared exactly.
SHARE_TOL = 1e-12


class Kind(enum.Enum):
    """Taxonomy of market splits.

    UNIQUE is the single interior split when the location gap exceeds
    ``a``. The remaining labels apply when the gap is at most ``a``:

    * I:   firm 2 covers the whole market (s1 = 0), always possible.
    * II:  every consumer left of x1 is indifferent, the rest prefer firm 2.
    * III: a single interior consumer between x1 and x2 is indifferent.
    * IV:  every consumer right of x2 is indifferent, the rest prefer firm 1.
    * V:   firm 1 covers the whole market (s1 = 1), always possible.
    """

    UNIQUE = "unique"
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"


_KIND_RANK = {kind: rank for rank, kind in enumerate(Kind)}


@dataclass(frozen=True)
class GameParams:
    """Model constants.

    Parameters
    ----------
    a : float
        Relative magnitude of the popularity externality, in (0, 1).
    theta : float
        Intrinsic utility of buying at all, at least 1 so demand stays
        inelastic. Welfare values shift by theta; shares do not depend
        on it.
    """

    a: float
    theta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie strictly inside (0, 1), got {self.a}")
        if not (math.isfinite(self.theta) and self.theta >= 1.0):
            raise ValueError(f"theta must be finite and >= 1, got {self.theta}")


@dataclass(frozen=True)
class Locations:
    """Ordered firm positions on [0, 1] with x1 <= x2.

    ``from_unordered`` sorts its arguments and records whether it had to
    swap them, so callers can map shares back to the original firms.
    """

    x1: float
    x2: float
    swapped: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.x1 <= self.x2 <= 1.0:
            raise ValueError(
                f"locations must satisfy 0 <= x1 <= x2 <= 1, got ({self.x1}, {self.x2})"
            )

    @classmethod
    def from_unordered(cls, first: float, second: float) -> "Locations":
        if first > second:
            return cls(second, first, swapped=True)
        return cls(first, second)

    @property
    def gap(self) -> float:
        return self.x2 - self.x1


@dataclass(frozen=True)
class ConsumerPosition:
    """A consumer's ideal characteristic, a point of [0, 1]."""

    v: float

    def __post_init__(self):
        if not 0.0 <= self.v <= 1.0:
            raise ValueError(f"consumer position must lie in [0, 1], got {self.v}")


@dataclass(frozen=True)
class MarketOutcome:
    """One market equilibrium: its kind and firm 1's share.

    Firm 2's share is always the complement and is derived, never stored.
    """

    kind: Kind
    s1: float

    def __post_init__(self):
        if not 0.0 <= self.s1 <= 1.0:
            raise ValueError(f"s1 must lie in [0, 1], got {self.s1}")
        if self.kind is Kind.I and self.s1 != 0.0:
            raise ValueError("kind I outcomes must carry s1 = 0")
        if self.kind is Kind.V and self.s1 != 1.0:
            raise ValueError("kind V outcomes must carry s1 = 1")

    @property
    def s2(self) -> float:
        return 1.0 - self.s1

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "s1": self.s1, "s2": self.s2}


@dataclass(frozen=True)
class EquilibriumProfile:
    """A location pair together with a supporting market equilibrium."""

    locations: Locations
    outcome: MarketOutcome

    @property
    def x1(self) -> float:
        return self.locations.x1

    @property
    def x2(self) -> float:
        return self.locations.x2

    @property
    def s1(self) -> float:
        return self.outcome.s1

    @property
    def s2(self) -> float:
        return self.outcome.s2

    def as_dict(self) -> dict:
        return {"x1": self.x1, "x2": self.x2, **self.outcome.as_dict()}


@dataclass(frozen=True)
class EquilibriumCount:
    """Number of market equilibria plus which existence conditions were tight.

    ``tight`` may contain:

    * ``"band"``: the location gap equals ``a`` exactly,
    * ``"ii"``:   the kind II condition holds with equality,
    * ``"iv"``:   the kind IV condition holds with equality.

    Tight conditions are exactly the configurations where distinct kinds
    can carry numerically coincident shares.
    """

    count: int
    tight: frozenset

    def __int__(self) -> int:
        return self.count


def consumer_utility(params: GameParams, v, x: float, s: float) -> float:
    """Utility of buying from a firm at ``x`` with share ``s``.

    ``v`` may be a plain float or a :class:`ConsumerPosition`. Returns
    ``theta + a*s - |v - x|`` exactly; raises ValueError when any input
    leaves its admissible range.
    """
    pos = v.v if isinstance(v, ConsumerPosition) else float(v)
    if not 0.0 <= pos <= 1.0:
        raise ValueError(f"consumer position must lie in [0, 1], got {pos}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"firm location must lie in [0, 1], got {x}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"market share must lie in [0, 1], got {s}")
    return params.theta + params.a * s - abs(pos - x)


def _clip_unit(value: float) -> float:
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


def _equilibria(a: float, x1: float, x2: float):
    """Closed-form equilibrium list as (kind, s1) tuples, sorted by s1.

    Internal lean path shared by the public API and the hot loops in the
    deviation searches; assumes x1 <= x2 and a in (0, 1). The kind II/IV
    tests inline :func:`_condition_gaps` for speed.
    """
    gap = x2 - x1
    if gap > a:
        return ((Kind.UNIQUE, _clip_unit((x1 + x2 - a) / (2.0 * (1.0 - a)))),)

    one_minus_2a = 1.0 - 2.0 * a
    has_ii = a <= x2 - one_minus_2a * x1
    has_iv = x1 - one_minus_2a * x2 <= a
    found = [(Kind.I, 0.0), (Kind.V, 1.0)]
    if has_ii:
        found.append((Kind.II, _clip_unit(0.5 - gap / (2.0 * a))))
    if has_iv:
        found.append((Kind.IV, _clip_unit(0.5 + gap / (2.0 * a))))
    if has_ii and has_iv:
        found.append((Kind.III, _clip_unit((x1 + x2 - a) / (2.0 * (1.0 - a)))))
    # kind order is the share order only in exact arithmetic: at a = 0.5 and
    # (0.08, 0.5), III = 0.07999999999999996 falls below II = 0.08000000000000002
    found.sort(key=lambda item: (item[1], _KIND_RANK[item[0]]))
    return tuple(found)


def _equilibria_array(a: float, x1, x2):
    """Array form of :func:`_equilibria` over locations x1 <= x2 (arrays or
    floats, broadcast together): ``(shares, unique)``.

    ``shares`` has a trailing axis of five slots holding firm 1's share in
    kinds I..V in that order, NaN where a kind is absent; where ``unique``
    (the gap exceeds ``a``) the UNIQUE split sits alone in the III slot.
    The arithmetic is the scalar function's, so every share agrees bit for
    bit, and a stable argsort along the slots reproduces its (share, kind)
    order, ties and the a = 1/2 inversion of II and III included.
    """
    gap = np.subtract(x2, x1)
    unique = gap > a
    one_minus_2a = 1.0 - 2.0 * a
    has_ii = ~unique & (a <= x2 - one_minus_2a * x1)
    has_iv = ~unique & (x1 - one_minus_2a * x2 <= a)
    interior = (np.add(x1, x2) - a) / (2.0 * (1.0 - a))
    shares = np.stack([
        np.where(unique, np.nan, 0.0),
        np.where(has_ii, _clip_unit_array(0.5 - gap / (2.0 * a)), np.nan),
        np.where(unique | (has_ii & has_iv), _clip_unit_array(interior), np.nan),
        np.where(has_iv, _clip_unit_array(0.5 + gap / (2.0 * a)), np.nan),
        np.where(unique, np.nan, 1.0),
    ], axis=-1)
    return shares, unique


def _clip_unit_array(values):
    # _clip_unit's own comparisons, so the two agree on every input
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))


# Kind held by each slot of _equilibria_array (where unique, III is UNIQUE).
_SLOT_KINDS = np.array([Kind.I, Kind.II, Kind.III, Kind.IV, Kind.V], dtype=object)


def _condition_gaps(a: float, x1: float, x2: float):
    """Signed slack of the existence conditions at x1 <= x2, zero where one
    is tight: ``x2 - x1 - a`` (the band: gap within a at <= 0),
    ``x2 - (1 - 2a) x1 - a`` (kind II exists at >= 0) and
    ``x1 - (1 - 2a) x2 - a`` (kind IV exists at <= 0)."""
    one_minus_2a = 1.0 - 2.0 * a
    return x2 - x1 - a, x2 - one_minus_2a * x1 - a, x1 - one_minus_2a * x2 - a


def enumerate_market_equilibria(params: GameParams, loc: Locations) -> list:
    """All market equilibria at ``loc``, ordered by increasing s1.

    When the gap exceeds ``a`` the list is the singleton UNIQUE outcome
    with ``s1 = (x1 + x2 - a) / (2 (1 - a))``. Otherwise kinds I and V
    are always present, kind II requires ``a <= x2 - (1 - 2a) x1``,
    kind IV requires ``x1 - (1 - 2a) x2 <= a``, and kind III requires
    both. The list always has length 1, 3 or 5.

    Kinds whose shares coincide numerically at condition boundaries are
    kept as distinct entries; use :func:`distinct_shares` for the
    deduplicated view.
    """
    return [MarketOutcome(kind, s1) for kind, s1 in _equilibria(params.a, loc.x1, loc.x2)]


def is_market_equilibrium(params: GameParams, loc: Locations, s1: float) -> bool:
    """Check the defining inequalities of a market split at the cut s1.

    The utility advantage of firm 1 over firm 2 at consumer position v,
    ``d(v) = a (2 s1 - 1) + |v - x2| - |v - x1|``, is continuous and
    non-increasing in v. The split is an equilibrium iff everyone left of
    the cut weakly prefers firm 1 and everyone from the cut on weakly
    prefers firm 2, which reduces to a sign condition on d at the cut:
    d(0) <= 0 for s1 = 0, d(1) >= 0 for s1 = 1, and d(s1) = 0 (within
    SHARE_TOL) for interior cuts. No sampling is involved. An edge cut
    also passes the interior test: a UNIQUE split within rounding of an
    edge (gap just above ``a``) is stored as the edge itself.
    """
    if not 0.0 <= s1 <= 1.0:
        raise ValueError(f"s1 must lie in [0, 1], got {s1}")
    a = params.a
    if (s1 == 0.0 or s1 == 1.0) and loc.x2 - loc.x1 <= a:
        return True
    d = a * (2.0 * s1 - 1.0) + abs(s1 - loc.x2) - abs(s1 - loc.x1)
    return abs(d) <= SHARE_TOL


def _is_market_equilibrium_array(a: float, x1, x2, s1):
    """Array form of :func:`is_market_equilibrium`'s test at x1 <= x2, for
    cuts s1 already known to lie in [0, 1]."""
    edge = ((s1 == 0.0) | (s1 == 1.0)) & (np.subtract(x2, x1) <= a)
    d = a * (2.0 * s1 - 1.0) + np.abs(s1 - x2) - np.abs(s1 - x1)
    return edge | (np.abs(d) <= SHARE_TOL)


def market_equilibrium_count(params: GameParams, loc: Locations) -> EquilibriumCount:
    """Count market equilibria (1, 3 or 5) and report tight conditions."""
    a, x1, x2 = params.a, loc.x1, loc.x2
    count = len(_equilibria(a, x1, x2))
    tight = frozenset()
    if count > 1:
        gaps = _condition_gaps(a, x1, x2)
        if 0.0 in gaps:  # rare, so name the tight conditions only then
            tight = frozenset(
                name for name, gap in zip(("band", "ii", "iv"), gaps) if gap == 0.0)
    return EquilibriumCount(count, tight)


def distinct_shares(outcomes, tol: float = SHARE_TOL) -> list:
    """Deduplicate outcome shares that coincide within ``tol``.

    Returns the sorted representative s1 values, one per cluster. The
    enumeration order already sorts by s1, but arbitrary outcome
    collections are accepted.
    """
    return _merge_close((o.s1 for o in outcomes), tol)


def _merge_close(values, tol: float) -> list:
    """The sorted ``values``, each kept only if more than ``tol`` above the
    last one kept."""
    kept: list = []
    for v in sorted(values):
        if not kept or v - kept[-1] > tol:
            kept.append(v)
    return kept


def mirror_locations(loc: Locations) -> Locations:
    """Reflect a location pair through the midpoint of the interval."""
    return Locations(1.0 - loc.x2, 1.0 - loc.x1)


_MIRROR_KIND = {
    Kind.UNIQUE: Kind.UNIQUE,
    Kind.I: Kind.V,
    Kind.II: Kind.IV,
    Kind.III: Kind.III,
    Kind.IV: Kind.II,
    Kind.V: Kind.I,
}


def mirror_outcome(outcome: MarketOutcome) -> MarketOutcome:
    """Outcome of the reflected instance: shares swap roles, kinds flip."""
    return MarketOutcome(_MIRROR_KIND[outcome.kind], 1.0 - outcome.s1)


def mirror_profile(profile: EquilibriumProfile) -> EquilibriumProfile:
    return EquilibriumProfile(
        mirror_locations(profile.locations), mirror_outcome(profile.outcome)
    )
