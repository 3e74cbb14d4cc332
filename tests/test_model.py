"""Tests for the market-equilibrium model and its closed forms."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from locpop import (
    ConsumerPosition,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    MarketOutcome,
    consumer_utility,
    distinct_shares,
    enumerate_market_equilibria,
    is_market_equilibrium,
    market_equilibrium_count,
    mirror_locations,
    mirror_outcome,
    oracle_market_equilibria,
)
from locpop.model import _SLOT_KINDS, _equilibria, _equilibria_array

externalities = st.floats(min_value=0.01, max_value=0.99)
positions = st.floats(min_value=0.0, max_value=1.0)


def make_locations(p, q):
    return Locations(min(p, q), max(p, q))


# ---------------------------------------------------------------------------
# domain types


def test_params_validation():
    with pytest.raises(ValueError):
        GameParams(0.0)
    with pytest.raises(ValueError):
        GameParams(1.0)
    with pytest.raises(ValueError):
        GameParams(0.5, theta=0.5)
    for theta in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            GameParams(0.5, theta=theta)
    assert GameParams(0.5).theta == 1.0


def test_locations_ordering():
    with pytest.raises(ValueError):
        Locations(0.7, 0.3)
    with pytest.raises(ValueError):
        Locations(-0.1, 0.5)
    loc = Locations.from_unordered(0.7, 0.3)
    assert (loc.x1, loc.x2, loc.swapped) == (0.3, 0.7, True)
    assert not Locations.from_unordered(0.3, 0.7).swapped
    assert Locations(0.4, 0.4).gap == 0.0  # coincident locations are legal


def test_outcome_invariants():
    out = MarketOutcome(Kind.III, 0.25)
    assert out.s1 + out.s2 == 1.0
    with pytest.raises(ValueError):
        MarketOutcome(Kind.I, 0.1)
    with pytest.raises(ValueError):
        MarketOutcome(Kind.V, 0.9)
    with pytest.raises(ValueError):
        MarketOutcome(Kind.II, 1.5)
    assert out.as_dict() == {"kind": "iii", "s1": 0.25, "s2": 0.75}


# ---------------------------------------------------------------------------
# consumer utility


@pytest.mark.parametrize("theta", [1.0, 2.5])
def test_utility_indifferent_consumer(theta):
    # at shares (1/6, 5/6) the consumer at 1/6 nets theta - 1/12 from firm 1
    params = GameParams(0.5, theta)
    u = consumer_utility(params, 1 / 6, 1 / 3, 1 / 6)
    assert u == pytest.approx(theta - 1 / 12, abs=1e-12)
    # and the same from firm 2
    u2 = consumer_utility(params, 1 / 6, 2 / 3, 5 / 6)
    assert u2 == pytest.approx(theta - 1 / 12, abs=1e-12)


def test_utility_zero_distance_zero_share():
    params = GameParams(0.37, 1.8)
    assert consumer_utility(params, 0.42, 0.42, 0.0) == params.theta


def test_utility_direct_evaluation():
    params = GameParams(0.3, 1.0)
    assert consumer_utility(params, 0.9, 0.2, 0.5) == pytest.approx(0.45, abs=1e-12)
    assert consumer_utility(params, ConsumerPosition(0.9), 0.2, 0.5) == pytest.approx(0.45)


def test_utility_domain_errors():
    params = GameParams(0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 0.5, 0.5, 1.1)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_five_splits():
    params = GameParams(0.5)
    loc = Locations(1 / 3, 2 / 3)
    outcomes = enumerate_market_equilibria(params, loc)
    kinds = [o.kind for o in outcomes]
    assert kinds == [Kind.I, Kind.II, Kind.III, Kind.IV, Kind.V]
    expected = [0.0, 1 / 6, 0.5, 5 / 6, 1.0]
    for out, want in zip(outcomes, expected):
        assert out.s1 == pytest.approx(want, abs=1e-12)


def test_enumerate_unique_when_far_apart():
    params = GameParams(0.3)
    outcomes = enumerate_market_equilibria(params, Locations(0.2, 0.8))
    assert [o.kind for o in outcomes] == [Kind.UNIQUE]
    assert outcomes[0].s1 == pytest.approx(0.5, abs=1e-12)


def test_enumerate_three_splits():
    # the tail-split on one side survives while the other side's fails
    params = GameParams(0.6)
    outcomes = enumerate_market_equilibria(params, Locations(0.0, 0.5))
    assert [o.kind for o in outcomes] == [Kind.I, Kind.IV, Kind.V]
    assert outcomes[1].s1 == pytest.approx(11 / 12, abs=1e-12)
    # independent check: every reported split passes the definition on a grid
    clusters = oracle_market_equilibria(params, Locations(0.0, 0.5), GridSpec())
    for out in outcomes:
        assert min(abs(c - out.s1) for c in clusters) < 2e-3


def test_enumerate_coincident_locations():
    params = GameParams(0.4)
    outcomes = enumerate_market_equilibria(params, Locations(0.3, 0.3))
    assert [o.kind for o in outcomes] == [Kind.I, Kind.IV, Kind.V]
    assert outcomes[1].s1 == 0.5
    # at the center all five kinds coexist, three of them carrying 1/2
    center = enumerate_market_equilibria(params, Locations(0.5, 0.5))
    assert len(center) == 5
    assert distinct_shares(center) == [0.0, 0.5, 1.0]


# ---------------------------------------------------------------------------
# verification of arbitrary splits


def test_is_market_equilibrium_examples():
    params = GameParams(0.5)
    loc = Locations(1 / 3, 2 / 3)
    assert is_market_equilibrium(params, loc, 1 / 6)
    assert not is_market_equilibrium(params, loc, 0.25)
    assert is_market_equilibrium(GameParams(0.2), Locations(0.5, 0.5), 0.5)
    with pytest.raises(ValueError):
        is_market_equilibrium(params, loc, 1.5)


def test_count_examples():
    assert market_equilibrium_count(GameParams(0.5), Locations(1 / 3, 2 / 3)).count == 5
    assert market_equilibrium_count(GameParams(0.1), Locations(0.1, 0.9)).count == 1
    assert market_equilibrium_count(GameParams(0.6), Locations(0.0, 0.5)).count == 3


def test_count_reports_tight_conditions():
    # at the center both tail-split conditions bind exactly
    report = market_equilibrium_count(GameParams(0.5), Locations(0.5, 0.5))
    assert report.count == 5
    assert report.tight == frozenset({"ii", "iv"})
    # gap exactly equal to the externality
    report = market_equilibrium_count(GameParams(0.5), Locations(0.25, 0.75))
    assert "band" in report.tight
    assert int(report) == report.count


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
@example(a=0.02, p=0.98, q=1.0)  # the UNIQUE share rounds to 1.0
def test_enumerated_splits_satisfy_definition(a, p, q):
    params = GameParams(a)
    loc = make_locations(p, q)
    for out in enumerate_market_equilibria(params, loc):
        assert is_market_equilibrium(params, loc, out.s1)


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_count_law_and_coupling(a, p, q):
    params = GameParams(a)
    loc = make_locations(p, q)
    outcomes = enumerate_market_equilibria(params, loc)
    report = market_equilibrium_count(params, loc)
    assert report.count == len(outcomes)
    assert report.count in (1, 3, 5)
    kinds = {o.kind for o in outcomes}
    if loc.gap > a:
        assert report.count == 1 and kinds == {Kind.UNIQUE}
    else:
        assert {Kind.I, Kind.V} <= kinds
        has_ii, has_iv, has_iii = Kind.II in kinds, Kind.IV in kinds, Kind.III in kinds
        assert has_ii or has_iv
        assert (has_ii and has_iv) == has_iii


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
@example(a=0.5, p=0.08, q=0.5)  # III rounds below II here: kind order is not share order
def test_enumeration_sorted_by_share(a, p, q):
    outcomes = enumerate_market_equilibria(GameParams(a), make_locations(p, q))
    shares = [o.s1 for o in outcomes]
    assert shares == sorted(shares)


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(st.sampled_from([0.25, 0.5]), externalities),
    p=st.one_of(st.sampled_from([0.0, 0.08, 0.5, 1.0]), positions),
    q=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), positions),
)
@example(a=0.5, p=0.08, q=0.5)
def test_equilibria_array_matches_scalar(a, p, q):
    x1, x2 = min(p, q), max(p, q)
    # the cell alone, and inside a row of cells as a region scan passes it
    for x2s, at in ((x2, ()), (np.array([x1, x2, 1.0]), 1)):
        shares, unique = _equilibria_array(a, x1, x2s)
        shares, unique = shares[at], unique[at]
        order = np.argsort(shares, kind="stable")
        found = [
            (Kind.UNIQUE if unique else _SLOT_KINDS[slot], repr(float(shares[slot])))
            for slot in order if not np.isnan(shares[slot])
        ]
        assert found == [(kind, repr(s1)) for kind, s1 in _equilibria(a, x1, x2)]


def _existence_margin(a, loc):
    """Distance of the instance from every existence-condition boundary."""
    one_minus_2a = 1.0 - 2.0 * a
    return min(
        abs(loc.gap - a),
        abs(loc.x2 - one_minus_2a * loc.x1 - a),
        abs(loc.x1 - one_minus_2a * loc.x2 - a),
    )


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_mirror_symmetry_of_shares(a, p, q):
    # reflection flips the split set; exact condition ties are excluded
    # because rounding the reflected instance can land across a boundary
    # (existence comparisons are deliberately tolerance-free)
    params = GameParams(a)
    loc = make_locations(p, q)
    assume(_existence_margin(a, loc) > 1e-9)
    assume(_existence_margin(a, mirror_locations(loc)) > 1e-9)
    direct = distinct_shares(enumerate_market_equilibria(params, loc), tol=1e-9)
    reflected = distinct_shares(
        enumerate_market_equilibria(params, mirror_locations(loc)), tol=1e-9
    )
    assert len(direct) == len(reflected)
    for s, s_m in zip(direct, reversed(reflected)):
        assert abs(s - (1.0 - s_m)) < 1e-9


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_mirror_symmetry_of_kinds(a, p, q):
    # away from exact condition ties the kind lists reflect one-to-one
    params = GameParams(a)
    loc = make_locations(p, q)
    assume(_existence_margin(a, loc) > 1e-9)
    assume(_existence_margin(a, mirror_locations(loc)) > 1e-9)
    direct = enumerate_market_equilibria(params, loc)
    reflected = enumerate_market_equilibria(params, mirror_locations(loc))
    assert len(direct) == len(reflected)
    mirrored = sorted(
        ((o.kind, o.s1) for o in map(mirror_outcome, reflected)),
        key=lambda item: (item[1], item[0].value),
    )
    for (kind_m, s_m), out in zip(mirrored, direct):
        assert kind_m is out.kind
        assert abs(s_m - out.s1) < 1e-12


def test_interior_share_monotone_in_locations():
    params = GameParams(0.2)
    base = enumerate_market_equilibria(params, Locations(0.1, 0.8))[0].s1
    right = enumerate_market_equilibria(params, Locations(0.15, 0.8))[0].s1
    up = enumerate_market_equilibria(params, Locations(0.1, 0.85))[0].s1
    assert right > base and up > base


def test_interior_share_tends_to_midpoint():
    loc = Locations(0.2, 0.7)
    s = enumerate_market_equilibria(GameParams(1e-6), loc)[0].s1
    assert s == pytest.approx(0.45, abs=1e-5)


def test_distinct_shares_tolerance():
    outs = [MarketOutcome(Kind.I, 0.0), MarketOutcome(Kind.II, 0.0), MarketOutcome(Kind.V, 1.0)]
    assert distinct_shares(outs) == [0.0, 1.0]
