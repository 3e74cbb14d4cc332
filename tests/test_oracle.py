"""Tests for the brute-force grid oracles against the closed forms."""

import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locpop import (
    BehaviorKind,
    GameParams,
    GridSpec,
    Locations,
    best_deviation_pessimistic,
    consumer_welfare,
    distinct_shares,
    enumerate_market_equilibria,
    mirror_locations,
    nash_region_a_half,
    oracle_best_deviation,
    oracle_consumer_welfare,
    oracle_market_equilibria,
    oracle_ne_region_scan,
    oracle_social_optimum,
    oracle,
    social_optimum,
)
from locpop.behaviors import _deviation_value, _deviation_values
from locpop.oracle import _run_midpoints


def test_gridspec_validation():
    for name in ("n_locations", "n_shares"):
        with pytest.raises(ValueError, match=f"{name} must be at least 2"):
            GridSpec(**{name: 1})
    defaults = GridSpec()
    assert astuple(defaults) == (defaults.n_locations, defaults.n_shares) == (2001, 2001)


def test_oracle_finds_all_five_splits():
    clusters = oracle_market_equilibria(GameParams(0.5), Locations(1 / 3, 2 / 3), GridSpec())
    assert len(clusters) == 5
    for want, got in zip([0.0, 1 / 6, 0.5, 5 / 6, 1.0], clusters):
        assert abs(got - want) <= 2.0 / 2001


def test_oracle_unique_split():
    clusters = oracle_market_equilibria(GameParams(0.1), Locations(0.1, 0.9), GridSpec())
    assert len(clusters) == 1
    assert clusters[0] == pytest.approx(0.5, abs=2.0 / 2001)


def existence_margin(a, loc):
    one_minus_2a = 1.0 - 2.0 * a
    return min(
        abs(loc.gap - a),
        abs(loc.x2 - one_minus_2a * loc.x1 - a),
        abs(loc.x1 - one_minus_2a * loc.x2 - a),
    )


def test_oracle_agrees_with_enumeration_on_random_instances():
    rng = np.random.default_rng(7)
    grid = GridSpec(n_shares=2001)
    spacing = 1.0 / (grid.n_shares - 1)
    for _ in range(300):
        a = float(rng.uniform(0.05, 0.95))
        x1, x2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        params = GameParams(a)
        loc = Locations(float(x1), float(x2))
        closed = distinct_shares(enumerate_market_equilibria(params, loc))
        clusters = oracle_market_equilibria(params, loc, grid)
        slack = 1e-9 + (1.0 + a) * spacing
        ctol = 2.0 * spacing + slack / (2.0 * min(a, 1.0 - a))
        # every exact split produces a nearby cluster, unconditionally
        assert all(any(abs(c - s) <= ctol for c in clusters) for s in closed), (a, x1, x2)
        # the converse only holds away from existence boundaries: within
        # the oracle's slack of one, near-splits of the adjacent branch
        # legitimately pass the pointwise check
        if existence_margin(a, loc) > slack:
            assert all(any(abs(c - s) <= ctol for s in closed) for c in clusters), (a, x1, x2)


def test_oracle_mirror_alignment():
    params = GameParams(0.45)
    loc = Locations(0.2, 0.55)
    grid = GridSpec()
    direct = oracle_market_equilibria(params, loc, grid)
    reflected = oracle_market_equilibria(params, mirror_locations(loc), grid)
    assert len(direct) == len(reflected)
    for s, s_m in zip(direct, reversed(reflected)):
        assert abs(s - (1.0 - s_m)) <= 2.0 / 2001


def run_midpoints_reference(values, mask):
    """The flag-by-flag loop that collapsed the oracle's runs of passing shares."""
    clusters = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            clusters.append(0.5 * (values[start] + values[i - 1]))
            start = None
    if start is not None:
        clusters.append(0.5 * (values[start] + values[-1]))
    return clusters


@pytest.mark.parametrize("mask", [
    [False] * 7,
    [True] * 7,
    [True, True, False, False, True, False, False],
    [False, False, True, False, False, True, True],
    [True, False] * 3 + [True],
    [False, True] * 3 + [False],
    [True],
    [False, False],
])
def test_run_midpoints_is_the_flag_loop(mask):
    values = np.linspace(0.0, 1.0, len(mask)) ** 2
    found = _run_midpoints(values, np.array(mask))
    assert all(type(v) is float for v in found)
    assert found == run_midpoints_reference(values, mask)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=0.02, max_value=0.98),
       p=st.floats(min_value=0.0, max_value=1.0),
       q=st.floats(min_value=0.0, max_value=1.0))
def test_oracle_market_equilibria_runs_are_the_flag_loop(a, p, q):
    masks = []

    def spy(values, mask):
        masks.append((values, mask))
        return _run_midpoints(values, mask)

    with mock.patch.object(oracle, "_run_midpoints", spy):
        found = oracle_market_equilibria(GameParams(a), Locations(*sorted((p, q))), GridSpec())
    [(values, mask)] = masks
    assert found == run_midpoints_reference(values, mask.tolist())


def passing_shares_reference(a, x1, x2, n_shares):
    """The pointwise test of the oracle, one candidate and consumer at a time,
    with one consumer at the midpoint of each share cell."""
    consumers = [(i + 0.5) / (n_shares - 1) for i in range(n_shares - 1)]
    slack = 1e-9 + (1.0 + a) * (1.0 / (n_shares - 1))
    mask = []
    for s1 in np.linspace(0.0, 1.0, n_shares).tolist():
        shift = a * (2.0 * s1 - 1.0)
        advantage = [(v, shift + (abs(v - x2) - abs(v - x1))) for v in consumers]
        mask.append(all(d >= -slack for v, d in advantage if v < s1)
                    and all(d <= slack for v, d in advantage if v >= s1))
    return mask


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.02, max_value=0.98),
       p=st.floats(min_value=0.0, max_value=1.0),
       q=st.floats(min_value=0.0, max_value=1.0),
       # odd sizes put a candidate at 1/2, between the two middle consumers
       n_shares=st.integers(1, 30).map(lambda k: 2 * k + 1))
@example(a=0.5, p=1 / 3, q=2 / 3, n_shares=61)
@example(a=0.25, p=0.0, q=1.0, n_shares=3)
def test_passing_shares_is_the_pointwise_test(a, p, q, n_shares):
    x1, x2 = sorted((p, q))
    grid = GridSpec(n_shares=n_shares)
    candidates, mask = oracle._passing_shares(GameParams(a), Locations(x1, x2), grid)
    assert candidates.tolist() == np.linspace(0.0, 1.0, n_shares).tolist()
    assert mask.tolist() == passing_shares_reference(a, x1, x2, n_shares)


def test_gridspec_arrays_are_shared_and_read_only():
    grid, twin = GridSpec(n_shares=41), GridSpec(n_shares=41)
    oracle_market_equilibria(GameParams(0.3), Locations(0.2, 0.7), grid)
    assert grid == twin and hash(grid) == hash(twin)
    assert len({grid, twin}) == 1
    arrays = grid._share_grid
    assert grid._share_grid is arrays  # built once per instance
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_oracle_best_deviation_matches_closed_form():
    params = GameParams(0.3)
    loc, payoff = oracle_best_deviation(
        params, BehaviorKind.PESSIMISTIC, 1, 0.4, GridSpec(n_locations=2001)
    )
    closed = best_deviation_pessimistic(params, 1, 0.4)
    assert payoff <= closed.payoff + 1e-12
    assert closed.payoff - payoff <= 2.0 / 2000 / (1 - 0.3)
    assert loc == pytest.approx(closed.location, abs=1e-3)


def test_oracle_best_deviation_optimist_saturates():
    _, payoff = oracle_best_deviation(
        GameParams(0.4), BehaviorKind.OPTIMISTIC, 1, 0.5, GridSpec(n_locations=801)
    )
    assert payoff == 1.0


def test_oracle_best_deviation_neutral_center_exceeds_half():
    # certifies the neutral instability beyond a = 1/2
    _, payoff = oracle_best_deviation(
        GameParams(0.6), BehaviorKind.NEUTRAL, 1, 0.5, GridSpec(n_locations=2001)
    )
    assert payoff > 0.5 + 1e-3


@settings(max_examples=80, deadline=None)
@given(
    a=st.one_of(st.sampled_from([0.25, 0.5]), st.floats(min_value=0.01, max_value=0.99)),
    x_other=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    behavior=st.sampled_from(list(BehaviorKind)),
    n_locations=st.sampled_from([2, 41, 2001]),
)
# deviating to 0.08 meets III below II; at 0.55 rounding puts IV below III,
# and summed in kind order instead of share order the mean differs there
@example(a=0.5, x_other=0.5, behavior=BehaviorKind.NEUTRAL, n_locations=2001)
@example(a=0.25, x_other=0.525, behavior=BehaviorKind.NEUTRAL, n_locations=41)
def test_oracle_best_deviation_is_the_pointwise_loop(a, x_other, behavior, n_locations):
    xs = np.linspace(0.0, 1.0, n_locations)
    values = [_deviation_value(a, behavior, x, x_other) for x in xs.tolist()]
    best_x, best_v = 0.0, -1.0
    for x, v in zip(xs.tolist(), values):
        if v > best_v:
            best_x, best_v = x, v
    # bit for bit: the neutral mean must be summed in enumeration order
    assert list(map(repr, _deviation_values(a, behavior, xs, x_other).tolist())) == list(
        map(repr, values))
    found = oracle_best_deviation(
        GameParams(a), behavior, 1, x_other, GridSpec(n_locations=n_locations))
    assert repr(found) == repr((best_x, best_v))


def test_oracle_social_optimum_both_regimes():
    grid = GridSpec(n_locations=201, n_shares=201)
    found = oracle_social_optimum(GameParams(0.1), grid)
    assert found.welfare == pytest.approx(0.925, abs=1e-3)
    assert (found.x1, found.x2, found.s1) == (
        pytest.approx(0.25, abs=0.01),
        pytest.approx(0.75, abs=0.01),
        pytest.approx(0.5, abs=0.01),
    )
    found = oracle_social_optimum(GameParams(0.5), grid)
    assert found.welfare == pytest.approx(1.25, abs=1e-3)
    assert found.x2 == pytest.approx(0.5, abs=0.01) or found.x1 == pytest.approx(0.5, abs=0.01)
    assert found.s1 in (pytest.approx(0.0, abs=0.01), pytest.approx(1.0, abs=0.01))


def test_oracle_social_optimum_cutoff_degeneracy():
    params = GameParams(0.25)
    found = oracle_social_optimum(params, GridSpec(n_locations=201, n_shares=201))
    assert found.welfare == pytest.approx(1.0, abs=1e-3)
    # both closed-form optima achieve the same grid-level welfare
    for opt in social_optimum(params):
        assert consumer_welfare(params, opt.x1, opt.x2, opt.s1) == pytest.approx(
            found.welfare, abs=1e-3
        )


def test_region_scan_neutral_single_cell():
    profiles = oracle_ne_region_scan(
        GameParams(0.3), BehaviorKind.NEUTRAL, GridSpec(n_locations=41)
    )
    assert {(p.x1, p.x2) for p in profiles} == {(0.5, 0.5)}
    assert all(p.s1 == pytest.approx(0.5, abs=1e-12) for p in profiles)


def test_region_scan_optimistic_empty():
    profiles = oracle_ne_region_scan(
        GameParams(0.3), BehaviorKind.OPTIMISTIC, GridSpec(n_locations=41)
    )
    assert profiles == []


def test_region_scan_pessimistic_matches_explicit_map():
    from locpop import Kind

    params = GameParams(0.5)
    profiles = oracle_ne_region_scan(params, BehaviorKind.PESSIMISTIC, GridSpec(n_locations=41))
    scanned = {}
    for p in profiles:
        # an NE can only carry the UNIQUE kind when the gap rounds one ulp
        # past the boundary gap == a, where that split is the kind III one
        # (the share formulas coincide); normalize the label
        kind = Kind.III if p.outcome.kind is Kind.UNIQUE else p.outcome.kind
        scanned.setdefault((p.x1, p.x2), set()).add(kind)
    xs = np.linspace(0.0, 1.0, 41)
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            expected = nash_region_a_half(float(x1), float(x2))
            assert scanned.get((float(x1), float(x2)), set()) == expected, (x1, x2)


def test_riemann_welfare_agreement():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = GameParams(float(rng.uniform(0.02, 0.98)), float(rng.uniform(1.0, 3.0)))
        x1, x2, s1 = (float(v) for v in rng.uniform(0.0, 1.0, size=3))
        exact = consumer_welfare(params, x1, x2, s1)
        sampled = oracle_consumer_welfare(params, x1, x2, s1)
        assert exact == pytest.approx(sampled, abs=1e-5)


@pytest.mark.parametrize("point, n_consumers, message", [
    ((-0.1, 0.5, 0.5), 100, "x1 must lie in [0, 1], got -0.1"),
    ((0.5, 1.2, 0.5), 100, "x2 must lie in [0, 1], got 1.2"),
    ((0.2, 0.6, 1.5), 100, "s1 must lie in [0, 1], got 1.5"),
    ((0.2, 0.6, 0.5), 0, "n_consumers must be at least 1, got 0"),
    ((0.2, 0.6, 0.5), -5, "n_consumers must be at least 1, got -5"),
])
def test_riemann_welfare_rejects_bad_input(point, n_consumers, message):
    params = GameParams(0.3)
    if n_consumers > 0:  # the same message as the closed form
        with pytest.raises(ValueError, match=re.escape(message)):
            consumer_welfare(params, *point)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_consumer_welfare(params, *point, n_consumers=n_consumers)
