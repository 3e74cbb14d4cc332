"""Seeded stream of single public-API calls for the ``queries`` workload.

Every block of eleven queries holds each kind below exactly once, in a
seeded order, so each run sees the same mix: nine fast closed-form calls
(82%) and two slow calls (18%) that run the neutral/optimistic deviation
search cold, because every call brings a new opponent location. A fixed
mix keeps ``query_p50_us`` inside the latency band of one fast kind and
``query_p99_us`` inside the band of the slow kinds, instead of letting
them follow each seed's random draw of kinds. For the same reason ``a``,
on which the cost of a search depends, is spread evenly over
U(0.02, 0.98) within each kind (a golden-ratio sequence from a seeded
start) instead of being drawn independently; locations are drawn
independently, x1 <= x2 sorted from two U(0, 1) draws.

A query is ``(kind, args)`` with plain floats and strings. ``call``
turns it into one library call and ``correct`` checks its result
against ``reference``.
"""

import random

import reference

FAST_KINDS = (
    "enumerate_market_equilibria",
    "market_equilibrium_count",
    "is_market_equilibrium",
    "deviation_payoff",
    "consumer_welfare",
    "best_deviation_pessimistic",
    "is_nash_pessimistic",
    "poa_pessimistic",
    "pos_pessimistic",
)
SLOW_KINDS = ("best_deviation_searched", "is_nash_searched")
KINDS = FAST_KINDS + SLOW_KINDS

THETA = 1.0
FLOAT_TOL = 1e-6
SEARCHED = ("neutral", "optimistic")
GOLDEN = (5 ** 0.5 - 1) / 2


def stream(seed, unit, count):
    """The first ``count`` queries of unit ``unit`` of the run seeded ``seed``."""
    rng = random.Random(f"locpop-queries/{seed}/{unit}")
    start = rng.random()
    out = []
    while len(out) < count:
        a = 0.02 + 0.96 * ((start + GOLDEN * (len(out) // len(KINDS))) % 1.0)
        block = list(KINDS)
        rng.shuffle(block)
        out.extend(_draw(rng, kind, a) for kind in block)
    return out[:count]


def _draw(rng, kind, a):
    x1, x2 = sorted((rng.random(), rng.random()))
    outcome = rng.choice(reference.equilibria(a, x1, x2))
    if kind in ("enumerate_market_equilibria", "market_equilibrium_count"):
        return kind, (a, x1, x2)
    if kind == "is_market_equilibrium":
        s1 = outcome[1] if rng.random() < 0.5 else rng.random()
        return kind, (a, x1, x2, s1)
    if kind == "deviation_payoff":
        behavior = rng.choice(("pessimistic",) + SEARCHED)
        return kind, (a, behavior, rng.choice((1, 2)), x1, x2)
    if kind == "consumer_welfare":
        return kind, (a, x1, x2, outcome[1])
    if kind == "best_deviation_pessimistic":
        return kind, (a, "pessimistic", rng.choice((1, 2)), x1)
    if kind == "best_deviation_searched":
        return kind, (a, rng.choice(SEARCHED), rng.choice((1, 2)), x1)
    if kind == "is_nash_pessimistic":
        return kind, (a, "pessimistic", x1, x2) + outcome
    if kind == "is_nash_searched":
        return kind, (a, rng.choice(SEARCHED), x1, x2) + outcome
    return kind, (a,)  # poa_pessimistic, pos_pessimistic


def call(lib, query):
    """Run one query against the library namespace ``lib``; returns its raw result."""
    kind, args = query
    if kind in ("enumerate_market_equilibria", "market_equilibrium_count"):
        a, x1, x2 = args
        return getattr(lib, kind)(lib.GameParams(a, THETA), lib.Locations(x1, x2))
    if kind == "is_market_equilibrium":
        a, x1, x2, s1 = args
        return lib.is_market_equilibrium(lib.GameParams(a, THETA), lib.Locations(x1, x2), s1)
    if kind == "deviation_payoff":
        a, behavior, deviator, x_dev, x_other = args
        return lib.deviation_payoff(
            lib.GameParams(a, THETA), lib.BehaviorKind(behavior), deviator, x_dev, x_other
        )
    if kind == "consumer_welfare":
        a, x1, x2, s1 = args
        return lib.consumer_welfare(lib.GameParams(a, THETA), x1, x2, s1)
    if kind.startswith("best_deviation"):
        a, behavior, deviator, x_other = args
        return lib.best_deviation(
            lib.GameParams(a, THETA), lib.BehaviorKind(behavior), deviator, x_other
        )
    if kind.startswith("is_nash"):
        a, behavior, x1, x2, outcome_kind, s1 = args
        profile = lib.EquilibriumProfile(
            lib.Locations(x1, x2), lib.MarketOutcome(lib.Kind(outcome_kind), s1)
        )
        return lib.is_nash(lib.GameParams(a, THETA), lib.BehaviorKind(behavior), profile)
    ratio = lib.poa if kind == "poa_pessimistic" else lib.pos
    return ratio(lib.GameParams(args[0], THETA), lib.BehaviorKind.PESSIMISTIC)


def correct(query, result):
    """Whether ``result`` answers ``query``: exact on kinds, counts and
    verdicts, within FLOAT_TOL on floats.

    A searched best deviation passes when its payoff is within FLOAT_TOL
    of the exact supremum, or, failing that, no worse than the library's
    grid search and not above the supremum (see reference.py).
    """
    kind, args = query
    got = answer(kind, result)
    if kind != "best_deviation_searched":
        return _matches(got, expected(query))
    a, behavior, _, x_other = args
    supremum = reference.searched_best_payoff(a, behavior, x_other)
    if not isinstance(got, float) or got > supremum + FLOAT_TOL:
        return False
    return got >= supremum - FLOAT_TOL or got >= reference.grid_best_payoff(a, behavior, x_other) - FLOAT_TOL


def answer(kind, result):
    """The comparable part of a library result."""
    if kind == "enumerate_market_equilibria":
        return tuple((o.kind.value, o.s1) for o in result)
    if kind == "market_equilibrium_count":
        return result.count, tuple(sorted(result.tight))
    if kind == "deviation_payoff":
        return result.payoff, tuple(o.kind.value for o in result.outcomes_considered)
    if kind.startswith("best_deviation"):
        return result.payoff
    if kind in ("poa_pessimistic", "pos_pessimistic"):
        return result.value
    return result  # bools and floats


def expected(query):
    kind, args = query
    ref = reference
    if kind == "enumerate_market_equilibria":
        return ref.equilibria(*args)
    if kind == "market_equilibrium_count":
        return ref.equilibrium_count(*args)
    if kind == "is_market_equilibrium":
        return ref.is_market_equilibrium(*args)
    if kind == "deviation_payoff":
        a, behavior, _, x_dev, x_other = args
        return ref.deviation_value(a, behavior, x_dev, x_other), ref.deviation_kinds(a, x_dev, x_other)
    if kind == "consumer_welfare":
        return ref.consumer_welfare(args[0], THETA, *args[1:])
    if kind == "best_deviation_pessimistic":
        return ref.pessimistic_best_payoff(args[0], args[3])
    if kind.startswith("is_nash"):
        a, behavior, x1, x2, _, s1 = args
        return ref.is_nash(a, behavior, x1, x2, s1)
    if kind == "poa_pessimistic":
        return ref.pessimistic_poa(args[0], THETA)
    return ref.pessimistic_pos(args[0], THETA)


def _matches(got, want):
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= FLOAT_TOL
    if isinstance(want, (tuple, list)):
        return (
            isinstance(got, (tuple, list))
            and len(got) == len(want)
            and all(_matches(g, w) for g, w in zip(got, want))
        )
    return got == want
