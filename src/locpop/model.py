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
from operator import itemgetter

__all__ = [
    "SHARE_TOL",
    "Kind",
    "GameParams",
    "Locations",
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


# The members as module names, read by the per-call code: on CPython <= 3.11
# EnumType defines __getattr__, which puts every read of ``Kind.I`` through
# the slow attribute hook, about 130 ns against 2-10 ns for a module global
# (3.10.13 and 3.11.7, 2 cores; 21-36 ns on 3.12.1 and 3.13.0)
_UNIQUE, _I, _II, _III, _IV, _V = Kind.UNIQUE, Kind.I, Kind.II, Kind.III, Kind.IV, Kind.V


# Sets a field of a record once, in its __init__ (_Record forbids assignment)
_set_field = object.__setattr__


class _Record:
    """Base of the package's immutable value records.

    A record lists its fields in ``__slots__`` (``"__dict__"`` aside, which
    a record holding cached values adds; a subclass's fields follow its
    bases') and sets each once in its own ``__init__``, through
    ``_set_field``; assigning or deleting an attribute afterwards raises
    AttributeError. Records of the same exact type are equal when their
    fields are, and hash by their fields; any other type compares as
    ``NotImplemented``. The repr is ``Name(field=value, ...)``, and pickling
    and copying rebuild a record from its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in vars(klass).get("__slots__", ()) if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class GameParams(_Record):
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

    __slots__ = ("a", "theta")

    def __init__(self, a: float, theta: float = 1.0):
        if not 0.0 < a < 1.0:
            raise ValueError(f"a must lie strictly inside (0, 1), got {a}")
        if not (math.isfinite(theta) and theta >= 1.0):
            raise ValueError(f"theta must be finite and >= 1, got {theta}")
        _set_field(self, "a", a)
        _set_field(self, "theta", theta)


class Locations(_Record):
    """Ordered firm positions on [0, 1] with x1 <= x2.

    ``from_unordered`` sorts its two arguments.
    """

    __slots__ = ("x1", "x2")

    def __init__(self, x1: float, x2: float):
        if not 0.0 <= x1 <= x2 <= 1.0:
            raise ValueError(f"locations must satisfy 0 <= x1 <= x2 <= 1, got ({x1}, {x2})")
        _set_field(self, "x1", x1)
        _set_field(self, "x2", x2)

    @classmethod
    def from_unordered(cls, first: float, second: float) -> "Locations":
        return cls(second, first) if first > second else cls(first, second)

    @property
    def gap(self) -> float:
        return self.x2 - self.x1


class MarketOutcome(_Record):
    """One market equilibrium: its kind and firm 1's share.

    Firm 2's share is always the complement and is derived, never stored.
    """

    __slots__ = ("kind", "s1")

    def __init__(self, kind: Kind, s1: float):
        if not 0.0 <= s1 <= 1.0:
            raise ValueError(f"s1 must lie in [0, 1], got {s1}")
        if kind is _I and s1 != 0.0:
            raise ValueError("kind I outcomes must carry s1 = 0")
        if kind is _V and s1 != 1.0:
            raise ValueError("kind V outcomes must carry s1 = 1")
        _set_field(self, "kind", kind)
        _set_field(self, "s1", s1)

    @property
    def s2(self) -> float:
        return 1.0 - self.s1

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "s1": self.s1, "s2": self.s2}


class EquilibriumProfile(_Record):
    """A location pair together with a supporting market equilibrium."""

    __slots__ = ("locations", "outcome")

    def __init__(self, locations: Locations, outcome: MarketOutcome):
        _set_field(self, "locations", locations)
        _set_field(self, "outcome", outcome)

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


class EquilibriumCount(_Record):
    """Number of market equilibria plus which existence conditions were tight.

    ``tight`` may contain:

    * ``"band"``: the location gap equals ``a`` exactly,
    * ``"ii"``:   the kind II condition holds with equality,
    * ``"iv"``:   the kind IV condition holds with equality.

    Tight conditions are exactly the configurations where distinct kinds
    can carry numerically coincident shares.
    """

    __slots__ = ("count", "tight")

    def __init__(self, count: int, tight: frozenset):
        _set_field(self, "count", count)
        _set_field(self, "tight", tight)


def consumer_utility(params: GameParams, v: float, x: float, s: float) -> float:
    """Utility of a consumer at ``v`` buying from a firm at ``x`` with share
    ``s``.

    Returns ``theta + a*s - |v - x|`` exactly; raises ValueError when any
    input leaves its admissible range.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"consumer position must lie in [0, 1], got {v}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"firm location must lie in [0, 1], got {x}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"market share must lie in [0, 1], got {s}")
    return params.theta + params.a * s - abs(v - x)


def _clip_unit(value: float) -> float:
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


def _condition_gaps(a: float, x1: float, x2: float):
    """Signed slack of the existence conditions at x1 <= x2 (floats or
    arrays, broadcast together), zero where one is tight: ``x2 - x1 - a``
    (the band: gap within a at <= 0), ``x2 - (1 - 2a) x1 - a`` (kind II
    exists at >= 0) and ``x1 - (1 - 2a) x2 - a`` (kind IV exists at <= 0).

    Both enumerations decide existence by these signs (band > 0, ii >= 0,
    iv <= 0). With gradual underflow the double ``t - a`` is zero only
    when t equals a and otherwise has the sign of the exact difference, so
    each sign test decides as the comparison ``t > a``, ``a <= t`` or
    ``t <= a`` on the same rounded t."""
    one_minus_2a = 1.0 - 2.0 * a
    return x2 - x1 - a, x2 - one_minus_2a * x1 - a, x1 - one_minus_2a * x2 - a


def _split_shares(a: float, x1: float, x2: float):
    """Firm 1's unclipped shares in kind II, kind IV and the interior split
    (III, or UNIQUE beyond the band) at x1 <= x2, floats or arrays."""
    t = (x2 - x1) / (2.0 * a)  # one t for both: II <= IV, as t >= 0
    return 0.5 - t, 0.5 + t, (x1 + x2 - a) / (2.0 * (1.0 - a))


def _equilibria(a: float, x1: float, x2: float):
    """Closed-form equilibrium list as (kind, s1) tuples, sorted by s1.

    Internal lean path shared by the public API and the deviation
    searches; assumes x1 <= x2 and a in (0, 1). Existence is read from the
    signs of :func:`_condition_gaps` and shares from :func:`_split_shares`,
    the arithmetic ``oracle._equilibria_array`` runs too.
    """
    band, ii, iv = _condition_gaps(a, x1, x2)
    low, high, interior = _split_shares(a, x1, x2)
    if band > 0.0:
        return ((_UNIQUE, _clip_unit(interior)),)
    has_ii, has_iv = ii >= 0.0, iv <= 0.0
    found = [(_I, 0.0)]
    if has_ii:
        found.append((_II, _clip_unit(low)))
    if has_ii and has_iv:
        found.append((_III, _clip_unit(interior)))
    if has_iv:
        found.append((_IV, _clip_unit(high)))
    found.append((_V, 1.0))
    # kind order is the share order only in exact arithmetic: at a = 0.5 and
    # (0.08, 0.5), III = 0.07999999999999996 falls below II = 0.08000000000000002;
    # found is in kind order, so a stable sort by share breaks ties by kind
    found.sort(key=itemgetter(1))
    return tuple(found)


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
    return _is_split(params.a, loc.x1, loc.x2, s1)


def _is_split(a: float, x1, x2, s1):
    """:func:`is_market_equilibrium`'s test at x1 <= x2 for cuts s1 already
    known to lie in [0, 1]: a Python bool for floats, a boolean array for
    arrays (broadcast together)."""
    edge = ((s1 == 0.0) | (s1 == 1.0)) & (x2 - x1 <= a)
    return edge | (abs(a * (2.0 * s1 - 1.0) + abs(s1 - x2) - abs(s1 - x1)) <= SHARE_TOL)


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


def distinct_shares(outcomes) -> list:
    """Deduplicate outcome shares that coincide within ``SHARE_TOL``.

    Returns the sorted representative s1 values, one per cluster. The
    enumeration order already sorts by s1, but arbitrary outcome
    collections are accepted.
    """
    return _merge_close((o.s1 for o in outcomes), SHARE_TOL)


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
