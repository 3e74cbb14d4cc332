"""Tests for consumer welfare, optima, and the efficiency ratios."""

import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locpop import (
    BEST_NE_BREAKPOINT,
    BehaviorKind,
    GameParams,
    GridSpec,
    SHARE_TOL,
    NoEquilibriumError,
    best_ne_pessimistic,
    consumer_welfare,
    enumerate_market_equilibria,
    is_market_equilibrium,
    is_nash,
    oracle_consumer_welfare,
    oracle_ne_region_scan,
    poa,
    poa_minimizer_pessimistic,
    pos,
    social_optimum,
    worst_ne_pessimistic,
)
from locpop.oracle import _abs_distance_integral_array, _consumer_welfare_array
from locpop.welfare import _abs_distance_integral

externalities = st.floats(min_value=0.01, max_value=0.99)
unit = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# consumer welfare


@pytest.mark.parametrize("a,theta", [(0.1, 1.0), (0.5, 1.0), (0.3, 2.0)])
def test_welfare_quartile_configuration(a, theta):
    w = consumer_welfare(GameParams(a, theta), 0.25, 0.75, 0.5)
    assert w == pytest.approx(theta - 0.125 + a / 2.0, abs=1e-12)


@pytest.mark.parametrize("x1", [0.0, 0.3, 0.9])
def test_welfare_single_firm_serves_everyone(x1):
    params = GameParams(0.4, 1.5)
    w = consumer_welfare(params, x1, 0.5, 0.0)
    assert w == pytest.approx(1.5 - 0.25 + 0.4, abs=1e-12)  # idle firm is irrelevant
    # mirror configuration: firm 1 central, s1 = 1, firm 2 idle
    w = consumer_welfare(params, 0.5, x1, 1.0)
    assert w == pytest.approx(1.5 - 0.25 + 0.4, abs=1e-12)


def test_welfare_coincident_locations_value():
    # frozen from the exact antiderivative and confirmed by the Riemann oracle
    params = GameParams(0.4, 1.0)
    w = consumer_welfare(params, 0.3, 0.3, 0.5)
    assert w == pytest.approx(0.91, abs=1e-12)
    assert w == pytest.approx(oracle_consumer_welfare(params, 0.3, 0.3, 0.5), abs=1e-6)


def test_welfare_split_outside_location_span():
    # tail splits put the cut outside [x1, x2]; the integrals must still split
    params = GameParams(0.6, 1.0)
    w = consumer_welfare(params, 0.0, 0.5, 11 / 12)
    assert w == pytest.approx(oracle_consumer_welfare(params, 0.0, 0.5, 11 / 12), abs=1e-6)


def test_welfare_domain_errors():
    with pytest.raises(ValueError):
        consumer_welfare(GameParams(0.5), 1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        consumer_welfare(GameParams(0.5), 0.5, 0.5, -0.1)


@settings(max_examples=200, deadline=None)
@given(a=externalities, theta=st.floats(min_value=1.0, max_value=5.0),
       x1=unit, x2=unit, s1=unit)
def test_welfare_bounds(a, theta, x1, x2, s1):
    params = GameParams(a, theta)
    w = consumer_welfare(params, x1, x2, s1)
    assert w <= theta + a + 1e-12
    assert w >= theta + a * (s1 * s1 + (1 - s1) ** 2) - 1.0 - 1e-12


@st.composite
def welfare_points(draw):
    """(x1, x2, s1), the locations often on an end of their segment."""
    s1 = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit))
    ends = st.sampled_from([0.0, s1, 1.0])
    return draw(st.one_of(ends, unit)), draw(st.one_of(ends, unit)), s1


def assert_welfare_array_is_scalar(params, points):
    x1, x2, s1 = (np.array(column) for column in zip(*points))
    got = _consumer_welfare_array(params, x1, x2, s1).tolist()
    assert list(map(repr, got)) == [repr(consumer_welfare(params, *p)) for p in points]


@settings(max_examples=200, deadline=None)
@given(a=externalities, theta=st.floats(min_value=1.0, max_value=5.0),
       points=st.lists(welfare_points(), min_size=1, max_size=20))
def test_welfare_array_matches_scalar_at_segment_ends(a, theta, points):
    assert_welfare_array_is_scalar(GameParams(a, theta), points)


def test_welfare_array_matches_scalar_in_bulk():
    # numpy's ** 2 and np.square round differently from Python's ** 2 in
    # about one of 1,150 values; 20,000 points catch that
    rng = np.random.default_rng(5)
    params = GameParams(0.37, 1.3)
    assert_welfare_array_is_scalar(params, rng.uniform(0.0, 1.0, size=(20_000, 3)).tolist())
    # the distance integrals over the (n, 1) x (1, n) outer products of
    # GridSpec._optimum_grid, whose cells lie below, on the ends of and
    # strictly inside each segment
    xs = np.linspace(0.0, 1.0, 41)
    s_col = xs[:, None]
    for alpha, beta, segment in ((0.0, s_col, lambda s: (0.0, s)),
                                 (s_col, 1.0, lambda s: (s, 1.0))):
        got = _abs_distance_integral_array(alpha, beta, xs[None, :])
        want = np.array([[_abs_distance_integral(*segment(s), x) for x in xs.tolist()]
                         for s in xs.tolist()])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# social optimum


def test_social_optimum_spread_regime():
    (opt,) = social_optimum(GameParams(0.1))
    assert (opt.x1, opt.x2, opt.s1) == (0.25, 0.75, 0.5)
    assert opt.welfare == pytest.approx(0.925, abs=1e-12)


def test_social_optimum_concentrated_regime():
    (opt,) = social_optimum(GameParams(0.5, 2.0))
    assert (opt.x2, opt.s1) == (0.5, 0.0)
    assert opt.welfare == pytest.approx(2.25, abs=1e-12)


def test_social_optimum_cutoff_reports_both():
    optima = social_optimum(GameParams(0.25))
    assert len(optima) == 2
    assert optima[0].welfare == pytest.approx(optima[1].welfare, abs=1e-12)
    for opt in optima:
        assert opt.welfare == pytest.approx(
            consumer_welfare(GameParams(0.25), opt.x1, opt.x2, opt.s1), abs=1e-12
        )


# ---------------------------------------------------------------------------
# extremal equilibria


def test_worst_ne():
    report = worst_ne_pessimistic(GameParams(0.5))
    assert (report.profile.x1, report.profile.x2, report.profile.s1) == (0.25, 0.25, 0.5)
    assert report.welfare == pytest.approx(0.9375, abs=1e-12)
    assert worst_ne_pessimistic(GameParams(0.9)).welfare == pytest.approx(0.9975, abs=1e-12)


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_worst_ne_is_valid_equilibrium(a):
    params = GameParams(a)
    report = worst_ne_pessimistic(params)
    profile = report.profile
    assert is_market_equilibrium(params, profile.locations, profile.s1)
    assert is_nash(params, BehaviorKind.PESSIMISTIC, profile)
    assert report.welfare == pytest.approx(
        consumer_welfare(params, profile.x1, profile.x2, profile.s1), abs=1e-15
    )
    assert report.welfare == pytest.approx(params.theta - (1 - a) ** 2 / 4.0, abs=1e-12)


def test_best_ne_branch_values():
    high = best_ne_pessimistic(GameParams(0.6))
    assert (high.profile.x1, high.profile.x2, high.profile.s1) == (0.0, 0.5, 0.0)
    assert high.welfare == pytest.approx(1.35, abs=1e-12)

    low = best_ne_pessimistic(GameParams(0.2))
    assert (low.profile.x1, low.profile.x2) == (pytest.approx(0.4), pytest.approx(0.6))
    assert low.welfare == pytest.approx(0.93, abs=1e-12)

    mid = best_ne_pessimistic(GameParams(0.4))
    assert (mid.profile.x1, mid.profile.x2) == (pytest.approx(0.1), pytest.approx(0.5))
    assert mid.profile.s1 == pytest.approx(0.2 / 1.2, abs=1e-12)
    quartic = 1 - 6 * 0.4 + 12 * 0.16 - 12 * 0.064 + 4 * 0.0256
    assert mid.welfare == pytest.approx(1 - quartic / (4 * 0.36), abs=1e-12)


@pytest.mark.parametrize("a", [0.05, 0.2, BEST_NE_BREAKPOINT, 0.35, 0.45, 0.5, 0.6, 0.9])
def test_best_ne_is_valid_equilibrium(a):
    """The best NE is a pessimistic NE, and its outcome one the enumeration
    lists at its locations, kind for kind: at 0.05 and at the breakpoint the
    gap rounds above a, where the interior split is the UNIQUE one."""
    params = GameParams(a)
    report = best_ne_pessimistic(params)
    profile = report.profile
    assert is_market_equilibrium(params, profile.locations, profile.s1)
    assert is_nash(params, BehaviorKind.PESSIMISTIC, profile)
    assert any(o.kind is profile.outcome.kind and abs(o.s1 - profile.s1) <= SHARE_TOL
               for o in enumerate_market_equilibria(params, profile.locations))


def test_best_ne_continuity_at_breakpoints():
    for boundary in (BEST_NE_BREAKPOINT, 0.5):
        below = best_ne_pessimistic(GameParams(boundary - 1e-12)).welfare
        above = best_ne_pessimistic(GameParams(boundary + 1e-12)).welfare
        assert below == pytest.approx(above, abs=1e-9)


@pytest.mark.parametrize("a", [0.2, 0.45, 0.8])
def test_extremal_ne_bound_scanned_welfares(a):
    params = GameParams(a)
    worst = worst_ne_pessimistic(params).welfare
    best = best_ne_pessimistic(params).welfare
    profiles = oracle_ne_region_scan(
        params, BehaviorKind.PESSIMISTIC, GridSpec(n_locations=101)
    )
    assert profiles
    welfares = [consumer_welfare(params, p.x1, p.x2, p.s1) for p in profiles]
    assert min(welfares) >= worst - 1e-6
    assert max(welfares) <= best + 1e-6


# ---------------------------------------------------------------------------
# efficiency ratios


def test_poa_neutral_minimum():
    report = poa(GameParams(0.25), BehaviorKind.NEUTRAL)
    assert report.value == pytest.approx(8 / 7, abs=1e-12)
    assert report.optimum.welfare == pytest.approx(1.0, abs=1e-12)


def test_poa_requires_equilibria():
    with pytest.raises(NoEquilibriumError):
        poa(GameParams(0.3), BehaviorKind.OPTIMISTIC)
    with pytest.raises(NoEquilibriumError):
        poa(GameParams(0.51), BehaviorKind.NEUTRAL)
    with pytest.raises(NoEquilibriumError):
        pos(GameParams(0.7), BehaviorKind.NEUTRAL)


def test_poa_flattens_for_large_theta():
    assert poa(GameParams(0.25, 1e9), BehaviorKind.NEUTRAL).value == pytest.approx(1.0)
    assert poa(GameParams(0.25, 1e9), BehaviorKind.PESSIMISTIC).value == pytest.approx(1.0)


def test_pos_pessimistic_cases():
    # exact: the best NE is the optimal profile, both welfares one evaluation
    for theta in (1.0, 1.5, 3.0):
        for a in [0.51, 0.7, *(np.arange(501, 1000) * 0.001)]:
            assert pos(GameParams(float(a), theta), BehaviorKind.PESSIMISTIC).value == 1.0
    report = pos(GameParams(0.25), BehaviorKind.PESSIMISTIC)
    assert report.value == pytest.approx(1 / 0.96875, abs=1e-12)


def _closed_optimum(a, theta):
    return theta - (0.125 - a / 2.0) if a <= 0.25 else theta - (0.25 - a)


def _closed_poa_pessimistic(a, theta):
    return _closed_optimum(a, theta) / (theta - (1.0 - a) ** 2 / 4.0)


def _closed_ratio_neutral(a, theta):
    return _closed_optimum(a, theta) / (theta - (0.25 - a / 2.0))


def _closed_pos_pessimistic(a, theta):
    if a > 0.5:
        return 1.0
    if a <= BEST_NE_BREAKPOINT:
        denom = theta - (1.0 - 4.0 * a + 2.0 * a * a) / 4.0
    else:
        denom = theta - (1.0 - 4.0 * a + 2.0 * a * a) * (1.0 - 2.0 * a + 2.0 * a * a) / (
            4.0 * (1.0 - a) ** 2
        )
    return _closed_optimum(a, theta) / denom


@pytest.mark.parametrize("theta", [1.0, 1.5, 3.0])
def test_ratios_match_closed_forms(theta):
    for a in np.arange(1, 200) * 0.005:
        a = float(a)
        params = GameParams(a, theta)
        for opt in social_optimum(params):
            assert opt.welfare == pytest.approx(_closed_optimum(a, theta), rel=1e-12)
        pessimistic = BehaviorKind.PESSIMISTIC
        assert poa(params, pessimistic).value == pytest.approx(
            _closed_poa_pessimistic(a, theta), rel=1e-12
        )
        assert pos(params, pessimistic).value == pytest.approx(
            _closed_pos_pessimistic(a, theta), rel=1e-12
        )
        if a <= 0.5:
            for ratio in (poa, pos):
                assert ratio(params, BehaviorKind.NEUTRAL).value == pytest.approx(
                    _closed_ratio_neutral(a, theta), rel=1e-12
                )


def test_pos_neutral_equals_poa():
    for a in (0.1, 0.3, 0.5):
        params = GameParams(a)
        assert pos(params, BehaviorKind.NEUTRAL).value == poa(params, BehaviorKind.NEUTRAL).value


def test_ratio_reports_are_consistent():
    for a in np.arange(1, 20) * 0.05:
        params = GameParams(float(a))
        for ratio in (poa, pos):
            report = ratio(params, BehaviorKind.PESSIMISTIC)
            assert report.value >= 1.0 - 1e-9
            implied = report.optimum.welfare / report.extremal_ne.welfare
            assert report.value == pytest.approx(implied, rel=1e-9)
        if a <= 0.5:
            report = poa(params, BehaviorKind.NEUTRAL)
            implied = report.optimum.welfare / report.extremal_ne.welfare
            assert report.value == pytest.approx(implied, rel=1e-9)


def test_poa_at_least_pos():
    for a in np.arange(1, 100) * 0.01:
        params = GameParams(float(a))
        assert (
            poa(params, BehaviorKind.PESSIMISTIC).value
            >= pos(params, BehaviorKind.PESSIMISTIC).value - 1e-12
        )


def test_neutral_ratio_v_shape():
    grid = np.arange(1, 100) * 0.005  # 0.005 .. 0.495
    values = [poa(GameParams(float(a)), BehaviorKind.NEUTRAL).value for a in grid]
    diffs = np.diff(values)
    split = np.searchsorted(grid, 0.25)
    assert np.all(diffs[: split - 1] < 0)
    assert np.all(diffs[split:] > 0)


def test_pos_pessimistic_continuity():
    for boundary in (0.25, BEST_NE_BREAKPOINT, 0.5):
        lo = pos(GameParams(boundary - 1e-10), BehaviorKind.PESSIMISTIC).value
        hi = pos(GameParams(boundary + 1e-10), BehaviorKind.PESSIMISTIC).value
        assert lo == pytest.approx(hi, abs=1e-9)


def test_poa_minimizer_closed_form():
    a_star = poa_minimizer_pessimistic(1.0)
    assert a_star == pytest.approx((math.sqrt(57) - 7) / 4, abs=1e-15)
    assert poa(GameParams(a_star), BehaviorKind.PESSIMISTIC).value == pytest.approx(
        1.159, abs=1e-3
    )
    # frozen from the closed form; the function checks local minimality itself
    assert poa_minimizer_pessimistic(10.0) == pytest.approx(0.012654173971673283, abs=1e-15)
    with pytest.raises(ValueError):
        poa_minimizer_pessimistic(0.5)


def minimizer_root(theta):
    """The root of 2 a^2 + (8 theta - 1) a - 1 = 0 in (0, 1), to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(theta)
        return 2 / ((64 * t * t - 16 * t + 9).sqrt() + 8 * t - 1)


@pytest.mark.parametrize("theta", [1e6, 1e8, 1e12])
def test_poa_minimizer_at_large_theta(theta):
    # the form that subtracts near-equal terms gave 0.0 at theta = 1e8
    root = minimizer_root(theta)
    a_star = poa_minimizer_pessimistic(theta)
    assert abs(Decimal(a_star) - root) <= 2 * Decimal(math.ulp(float(root))), (a_star, root)


# the finite-difference check raised at the first three (left, left, right),
# where the PoA values it compared differed by an ulp or less; from about
# 1.3e154 on, 64 theta^2 overflowed and a* came out 0.0
@pytest.mark.parametrize("theta", [24517.70354455098, 25100.063922007535, 54748.38088963801,
                                   1e154, 1e300, sys.float_info.max])
def test_poa_minimizer_at_every_finite_theta(theta):
    a_star = poa_minimizer_pessimistic(theta)
    assert 0.0 < a_star < 1.0
    root = minimizer_root(theta)
    assert abs(Decimal(a_star) - root) <= 2 * Decimal(math.ulp(float(root))), (a_star, root)


def test_poa_minimizer_at_log_uniform_theta():
    rng = random.Random(0)
    for _ in range(600):
        theta = math.exp(rng.uniform(0.0, math.log(1e15)))
        a_star = poa_minimizer_pessimistic(theta)
        root = minimizer_root(theta)
        assert abs(Decimal(a_star) - root) <= 2 * Decimal(math.ulp(float(root))), (theta, a_star)


def test_poa_minimizer_is_global_on_grid():
    a_star = poa_minimizer_pessimistic(1.0)
    floor = poa(GameParams(a_star), BehaviorKind.PESSIMISTIC).value
    for a in np.arange(1, 200) * 0.005:
        assert poa(GameParams(float(a)), BehaviorKind.PESSIMISTIC).value >= floor - 1e-12


def test_regime_checks_survive_optimized_mode(monkeypatch):
    from locpop import welfare

    # these consistency checks are explicit raises, not asserts, so they
    # still run under python -O
    monkeypatch.setattr(welfare, "consumer_welfare", lambda params, x1, x2, s1: x1)
    with pytest.raises(RuntimeError, match="breakpoint"):
        best_ne_pessimistic(GameParams(BEST_NE_BREAKPOINT))
    for slope, side in ((1.0, "left"), (-1.0, "right")):
        monkeypatch.setattr(welfare, "_poa_slope", lambda a, u, slope=slope: slope)
        with pytest.raises(RuntimeError, match=f"local minimum \\({side}\\)"):
            poa_minimizer_pessimistic(1.0)
