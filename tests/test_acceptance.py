"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; the grid resolutions
and runtime budgets are part of the criteria.
"""

import time

import numpy as np
import pytest

from locpop import (
    BehaviorKind,
    EquilibriumProfile,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    NE_TOL,
    consumer_welfare,
    enumerate_market_equilibria,
    is_nash,
    market_equilibrium_count,
    nash_region_a_half,
    oracle_consumer_welfare,
    oracle_ne_region_scan,
    oracle_social_optimum,
    pessimistic_nash_interval,
    poa,
    poa_minimizer_pessimistic,
    pos,
    social_optimum,
    symmetric_pessimistic_nash_set,
)


def _report(number, description, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number:02d} PASS  {description}{suffix}")


def test_criterion_01_five_split_reproduction():
    params = GameParams(0.5)
    loc = Locations(1 / 3, 2 / 3)
    outcomes = enumerate_market_equilibria(params, loc)  # warm-up
    start = time.perf_counter()
    outcomes = enumerate_market_equilibria(params, loc)
    elapsed = time.perf_counter() - start
    assert [o.kind for o in outcomes] == [Kind.I, Kind.II, Kind.III, Kind.IV, Kind.V]
    for out, want in zip(outcomes, (0.0, 1 / 6, 0.5, 5 / 6, 1.0)):
        assert abs(out.s1 - want) <= 1e-12
    assert elapsed < 1e-3
    _report(1, f"five-split example reproduced in {elapsed * 1e6:.0f}us")


def test_criterion_02_count_law():
    rng = np.random.default_rng(0)
    a_draw = rng.uniform(1e-6, 1 - 1e-6, size=100_000)
    x_draw = np.sort(rng.uniform(0.0, 1.0, size=(100_000, 2)), axis=1)
    start = time.perf_counter()
    for a, (x1, x2) in zip(a_draw.tolist(), x_draw.tolist()):
        params = GameParams(a)
        loc = Locations(x1, x2)
        count = market_equilibrium_count(params, loc).count
        assert count in (1, 3, 5)
        assert (count == 1) == (x2 - x1 > a)
        kinds = {o.kind for o in enumerate_market_equilibria(params, loc)}
        assert count == len(kinds)
        if count > 1:
            has_ii, has_iv = Kind.II in kinds, Kind.IV in kinds
            assert has_ii or has_iv
            assert (has_ii and has_iv) == (Kind.III in kinds)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "count in {1,3,5} with existence coupling on 1e5 instances", elapsed)


def test_criterion_03_optimistic_nonexistence():
    start = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 101)
    checked = 0
    for a in (0.1, 0.5, 0.9):
        params = GameParams(a)
        for i, x1 in enumerate(xs):
            for x2 in xs[i:]:
                loc = Locations(float(x1), float(x2))
                for outcome in enumerate_market_equilibria(params, loc):
                    assert not is_nash(
                        params, BehaviorKind.OPTIMISTIC, EquilibriumProfile(loc, outcome)
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"no optimistic NE among {checked} profiles on 3 grids", elapsed)


def test_criterion_04_neutral_characterization():
    start = time.perf_counter()
    center = EquilibriumProfile(Locations(0.5, 0.5),
                                enumerate_market_equilibria(GameParams(0.5), Locations(0.5, 0.5))[2])
    assert center.s1 == pytest.approx(0.5, abs=1e-12)
    for a in (0.1, 0.25, 0.5):
        assert is_nash(GameParams(a), BehaviorKind.NEUTRAL, center)
    for a in (0.51, 0.75):
        assert not is_nash(GameParams(a), BehaviorKind.NEUTRAL, center)
    profiles = oracle_ne_region_scan(
        GameParams(0.3), BehaviorKind.NEUTRAL, GridSpec(n_locations=201)
    )
    cells = {(p.x1, p.x2) for p in profiles}
    assert cells == {(0.5, 0.5)}
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, "neutral NE iff a <= 1/2 at the center; lone NE cell in the scan", elapsed)


@pytest.fixture(scope="module")
def pessimistic_scan():
    """Criterion 5 scan, shared with the bounds criterion."""
    xs = np.linspace(0.0, 1.0, 101)
    found = {}
    disagreements = 0
    start = time.perf_counter()
    for a in (0.2, 0.5, 0.8):
        params = GameParams(a)
        equilibria = []
        for i, x1 in enumerate(xs):
            for x2 in xs[i:]:
                loc = Locations(float(x1), float(x2))
                interval = pessimistic_nash_interval(params, loc)
                for outcome in enumerate_market_equilibria(params, loc):
                    profile = EquilibriumProfile(loc, outcome)
                    by_deviation = is_nash(params, BehaviorKind.PESSIMISTIC, profile)
                    if by_deviation != interval.contains(outcome.s1):
                        disagreements += 1
                    if by_deviation:
                        equilibria.append(profile)
        found[a] = equilibria
    return found, disagreements, time.perf_counter() - start


def test_criterion_05_pessimistic_equivalence(pessimistic_scan):
    found, disagreements, elapsed = pessimistic_scan
    assert disagreements == 0
    assert all(found[a] for a in (0.2, 0.5, 0.8))
    assert elapsed < 60.0
    total = sum(len(v) for v in found.values())
    _report(5, f"deviation test == share interval on {total} NE profiles", elapsed)


def test_criterion_06_diameter_bounds(pessimistic_scan):
    found, _, _ = pessimistic_scan
    for a, profiles in found.items():
        for p in profiles:
            assert p.x2 - p.x1 <= a + 1e-12
            assert abs(p.s1 - p.s2) <= a / (1.0 - a) + 1e-12
    _report(6, "every scanned pessimistic NE satisfies both diameter bounds")


def test_criterion_07_symmetric_regions():
    disagreements = 0
    for a in (0.3, 0.5, 0.7):
        params = GameParams(a)
        for x1 in np.linspace(0.0, 0.5, 500):
            loc = Locations(float(x1), 1.0 - float(x1))
            by_nash = sorted(
                {
                    round(o.s1, 12)
                    for o in enumerate_market_equilibria(params, loc)
                    if is_nash(params, BehaviorKind.PESSIMISTIC, EquilibriumProfile(loc, o))
                }
            )
            by_formula = list(symmetric_pessimistic_nash_set(params, float(x1)))
            if len(by_nash) != len(by_formula) or any(
                abs(u - v) > 1e-9 for u, v in zip(by_formula, by_nash)
            ):
                disagreements += 1
    assert disagreements == 0
    _report(7, "symmetric NE regions match the Nash decision on 3x500 points")


def paper_region_a_half(x1, x2):
    """The paper's explicit a = 1/2 NE map: the kinds forming a pessimistic
    NE at 0 <= x1 <= x2 <= 1, by their membership inequalities, each
    widened by the slack ``NE_TOL`` of the Nash decision."""
    tol = NE_TOL
    kinds = set()
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


def test_criterion_08_region_map_at_a_half():
    xs = np.linspace(0.0, 1.0, 201).tolist()
    disagreements = 0
    start = time.perf_counter()
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            if paper_region_a_half(x1, x2) != nash_region_a_half(x1, x2):
                disagreements += 1
    assert disagreements == 0

    # non-convexity witness: fixed x1, membership in-out-in along x2
    column = [(x2, bool(nash_region_a_half(0.3, x2))) for x2 in (0.35, 0.45, 0.6)]
    assert [m for _, m in column] == [True, False, True]
    elapsed = time.perf_counter() - start
    _report(8, "the paper's a=1/2 NE map matches the Nash decision; region is non-convex",
            elapsed)


def test_criterion_09_social_optimum_oracle():
    grid = GridSpec(n_locations=201, n_shares=201)
    for a in np.arange(1, 20) * 0.05:
        params = GameParams(float(a))
        closed = social_optimum(params)[0].welfare
        assert abs(oracle_social_optimum(params, grid).welfare - closed) <= 1e-3
    spread, concentrated = social_optimum(GameParams(0.25))
    assert abs(spread.welfare - concentrated.welfare) <= 1e-12
    _report(9, "grid optimum within 1e-3 of closed form; exact tie at a = 1/4")


def test_criterion_10_efficiency_numbers():
    neutral_grid = np.arange(1, 101) * 0.005
    neutral_vals = {
        float(a): poa(GameParams(float(a)), BehaviorKind.NEUTRAL).value
        for a in neutral_grid
    }
    assert abs(neutral_vals[0.25] - 8.0 / 7.0) <= 1e-9
    assert min(neutral_vals, key=neutral_vals.get) == 0.25

    a_star = poa_minimizer_pessimistic(1.0)
    assert abs(a_star - 0.137) <= 5e-4
    assert abs(poa(GameParams(a_star), BehaviorKind.PESSIMISTIC).value - 1.159) <= 1e-3

    for a in np.arange(101, 200) * 0.005:
        assert pos(GameParams(float(a)), BehaviorKind.PESSIMISTIC).value == 1.0
    _report(10, "neutral minimum 8/7 at a=1/4; pessimistic PoA~1.159 at a*; PoS=1 beyond 1/2")


def test_criterion_11_welfare_against_riemann_sum():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        params = GameParams(float(rng.uniform(1e-3, 1 - 1e-3)), float(rng.uniform(1.0, 4.0)))
        x1, x2, s1 = (float(v) for v in rng.uniform(0.0, 1.0, size=3))
        exact = consumer_welfare(params, x1, x2, s1)
        sampled = oracle_consumer_welfare(params, x1, x2, s1)
        assert abs(exact - sampled) <= 1e-5
    elapsed = time.perf_counter() - start
    _report(11, "closed-form welfare within 1e-5 of 1e5-point Riemann sums", elapsed)


def test_criterion_12_best_ne_welfare_audit():
    import sympy

    from locpop import best_ne_pessimistic

    # the two published forms of the mid-regime welfare deficit are one
    # polynomial: (1-4a+2a^2)(1-2a+2a^2) == 1-6a+12a^2-12a^3+4a^4
    a = sympy.symbols("a")
    product_form = sympy.expand((1 - 4 * a + 2 * a**2) * (1 - 2 * a + 2 * a**2))
    quartic_form = 1 - 6 * a + 12 * a**2 - 12 * a**3 + 4 * a**4
    assert sympy.simplify(product_form - quartic_form) == 0

    for av in np.arange(1, 100) * 0.01:
        params = GameParams(float(av))
        report = best_ne_pessimistic(params)
        profile = report.profile
        direct = consumer_welfare(params, profile.x1, profile.x2, profile.s1)
        assert abs(report.welfare - direct) <= 1e-12
        if av <= (2 - np.sqrt(2)) / 2:
            closed = params.theta - (1 - 4 * av + 2 * av * av) / 4.0
        elif av <= 0.5:
            closed = params.theta - (1 - 4 * av + 2 * av**2) * (1 - 2 * av + 2 * av**2) / (
                4 * (1 - av) ** 2
            )
        else:
            closed = params.theta - 0.25 + av
        assert abs(report.welfare - closed) <= 1e-12
    _report(12, "denominator forms algebraically identical; best-NE welfare re-derived")
