"""Tests for the brute-force grid oracles against the closed forms."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locpop import (
    BehaviorKind,
    EquilibriumProfile,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    MarketOutcome,
    best_deviation,
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
from locpop.behaviors import _deviation_value
from locpop.cli import CHUNK_ROWS, _region_rows
from locpop.model import _condition_gaps
from locpop.oracle import (
    _OPTIMUM_GRID,
    _abs_distance_integral_array,
    _deviation_values,
    _region_scan,
    _run_midpoints,
)
from locpop.welfare import OptimumPoint

from region_reference import region_rows
from suite_loops import loop_passing_shares
from table_blocks import REGION_TYPES, assert_same_columns, block_rows


def test_gridspec_validation():
    for name in ("n_locations", "n_shares"):
        with pytest.raises(ValueError, match=f"{name} must be at least 2"):
            GridSpec(**{name: 1})
    defaults = GridSpec()
    assert (defaults.n_locations, defaults.n_shares) == (2001, 2001)


@pytest.mark.parametrize("value", [41.5, 41.0, "41"])
@pytest.mark.parametrize("name", ["n_locations", "n_shares"])
def test_gridspec_rejects_sizes_that_are_not_integers(name, value):
    with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        GridSpec(**{name: value})
    # any integer type is a size
    assert GridSpec(**{name: np.int64(41)}) == GridSpec(**{name: 41})


def test_oracle_finds_all_five_splits():
    clusters = oracle_market_equilibria(GameParams(0.5), Locations(1 / 3, 2 / 3), GridSpec())
    assert len(clusters) == 5
    for want, got in zip([0.0, 1 / 6, 0.5, 5 / 6, 1.0], clusters):
        assert abs(got - want) <= 2.0 / 2001


def test_oracle_unique_split():
    clusters = oracle_market_equilibria(GameParams(0.1), Locations(0.1, 0.9), GridSpec())
    assert len(clusters) == 1
    assert clusters[0] == pytest.approx(0.5, abs=2.0 / 2001)


def test_oracle_agrees_with_enumeration_on_random_instances():
    rng = np.random.default_rng(7)
    grid = GridSpec(n_shares=2001)
    spacing = 1.0 / (grid.n_shares - 1)
    for _ in range(300):
        a = float(rng.uniform(0.05, 0.95))
        x1, x2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        params = GameParams(a)
        loc = Locations(x1, x2)  # np.float64 through the scalar API
        closed = distinct_shares(enumerate_market_equilibria(params, loc))
        clusters = oracle_market_equilibria(params, loc, grid)
        slack = 1e-9 + (1.0 + a) * spacing
        ctol = 2.0 * spacing + slack / (2.0 * min(a, 1.0 - a))
        # every exact split produces a nearby cluster, unconditionally
        assert all(any(abs(c - s) <= ctol for c in clusters) for s in closed), (a, x1, x2)
        # the converse only holds away from existence boundaries: within
        # the oracle's slack of one, near-splits of the adjacent branch
        # legitimately pass the pointwise check
        if min(map(abs, _condition_gaps(a, loc.x1, loc.x2))) > slack:
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
@given(instances=st.lists(st.tuples(st.floats(min_value=0.02, max_value=0.98),
                                    st.floats(min_value=0.0, max_value=1.0),
                                    st.floats(min_value=0.0, max_value=1.0)),
                          min_size=1, max_size=4),
       # odd sizes put a candidate at 1/2, between the two middle consumers
       n_shares=st.integers(1, 30).map(lambda k: 2 * k + 1))
@example(instances=[(0.5, 1 / 3, 2 / 3)], n_shares=61)
@example(instances=[(0.25, 0.0, 1.0), (0.5, 1 / 3, 2 / 3)], n_shares=3)
def test_passing_shares_is_the_pointwise_test(instances, n_shares):
    """A block of instances, one row each, and its first instance as floats,
    at the cut band and at an infinite one, which decides every row by the
    running extrema."""
    instances = [(a, *sorted((p, q))) for a, p, q in instances]
    expected = [passing_shares_reference(*instance, n_shares) for instance in instances]
    grid = GridSpec(n_shares=n_shares)
    for band in (oracle._CUT_BAND, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_CUT_BAND", band)
            candidates, mask, cells = oracle._passing_shares(
                *map(np.array, zip(*instances)), grid)
            assert candidates.tolist() == np.linspace(0.0, 1.0, n_shares).tolist()
            assert mask.tolist() == expected, band
            assert cells.tolist() == np.flatnonzero(expected).tolist(), band
            _, mask, cells = oracle._passing_shares(*instances[0], grid)
            assert mask.tolist() == expected[:1], band
            assert cells.tolist() == np.flatnonzero(expected[0]).tolist(), band


# In each instance one cut's neighbour sum passes within a few units in the
# last place of the slack, where a running extremum over the flat margins
# beyond the locations, off by rounding, fails it
@pytest.mark.parametrize("a, x1, x2, cuts", [
    (0.3, 0.5, 0.740650001, [200]), (0.5, 0.3, 0.700750001, [200, 1800]),
])
def test_a_cut_at_the_slack_is_decided_by_the_running_extrema(a, x1, x2, cuts, monkeypatch):
    grid = GridSpec()
    _, expected = loop_passing_shares(GameParams(a), Locations(x1, x2), grid)
    _, mask, cells = oracle._passing_shares(a, x1, x2, grid)
    assert mask[0].tolist() == expected.tolist()
    assert cells.tolist() == np.flatnonzero(expected).tolist()
    # in a block, between two rows the band leaves to the neighbour test,
    # whose passing cells are kept as found
    block = [(0.4, 0.1, 0.9), (a, x1, x2), (0.2, 0.3, 0.35)]
    expected_block = np.array([loop_passing_shares(GameParams(p), Locations(q, r), grid)[1]
                               for p, q, r in block])
    _, mask, cells = oracle._passing_shares(*map(np.array, zip(*block)), grid)
    assert mask.tolist() == expected_block.tolist()
    assert cells.tolist() == np.flatnonzero(expected_block).tolist()
    monkeypatch.setattr(oracle, "_CUT_BAND", -math.inf)  # no row reaches the running extrema
    _, neighbours, cells = oracle._passing_shares(a, x1, x2, grid)
    assert np.flatnonzero(neighbours[0] != expected).tolist() == cuts
    assert cells.tolist() == np.flatnonzero(neighbours).tolist()


def test_passing_shares_blocks_through_held_work_arrays():
    """Blocks of shrinking row counts through one set of work arrays, as the
    market suite runs them: a full block, then partial ones, the second with
    a row that the cut band sends to the running extrema and the last with
    the five splits, 0 and 1 among them, which read the margins' sentinels.
    Each block's mask and cells are those of freshly allocated arrays, the
    mask is the work arrays', and the sentinels stay in place."""
    grid = GridSpec()
    a, p, q = np.random.default_rng(3).random((3, 6))
    a, x1, x2 = 0.02 + (0.98 - 0.02) * a, np.minimum(p, q), np.maximum(p, q)
    a[4], x1[4], x2[4] = 0.3, 0.5, 0.740650001  # a cut at the slack
    a[5], x1[5], x2[5] = 0.5, 1 / 3, 2 / 3  # five splits
    work = oracle._share_work(4, grid)
    for block in (slice(0, 4), slice(3, 6), slice(5, 6)):
        _, fresh, fresh_cells = oracle._passing_shares(a[block], x1[block], x2[block], grid)
        _, mask, cells = oracle._passing_shares(a[block], x1[block], x2[block], grid, work)
        assert np.shares_memory(mask, work[5])
        assert mask.tolist() == fresh.tolist()
        assert cells.tolist() == fresh_cells.tolist()
    assert mask[0, [0, -1]].all()  # the five-split row passes both end cuts
    assert (work[0][:, 0] == np.inf).all() and (work[0][:, -1] == -np.inf).all()


# rows of n_shares + 1 columns: widths 3 and 4, the padding column beside one
# or two consumers; the five-split and both-ends instances pass cuts in every row
@pytest.mark.parametrize("n_shares", [2, 3])
def test_passing_shares_on_padded_rows(n_shares):
    """One instance alone, then blocks of 4, 3 and 1 instances through one set
    of work arrays: each mask is (instances, n_shares), its cells are
    ``np.flatnonzero(mask)`` in the n_shares stride, each row is the
    instance loop's, and the padding column's sums are NaN, so it never
    passes."""
    grid = GridSpec(n_shares=n_shares)
    a = np.array([0.5, 0.25, 0.3, 0.9, 0.5, 0.02, 0.25, 0.7])
    x1 = np.array([1 / 3, 0.0, 0.1, 0.4, 0.5, 0.0, 0.0, 0.2])
    x2 = np.array([2 / 3, 1.0, 0.8, 0.45, 0.5, 1.0, 1.0, 0.3])
    expected = np.array([loop_passing_shares(GameParams(p), Locations(q, r), grid)[1]
                         for p, q, r in zip(a, x1, x2)])
    assert expected[4:].any(axis=1).all()  # the partial block passes cells past its first row
    _, mask, cells = oracle._passing_shares(a[0], x1[0], x2[0], grid)
    assert mask.tolist() == expected[:1].tolist()
    assert cells.tolist() == np.flatnonzero(expected[0]).tolist()
    work = oracle._share_work(4, grid)
    for block in (slice(0, 4), slice(4, 7), slice(7, 8)):
        _, mask, cells = oracle._passing_shares(a[block], x1[block], x2[block], grid, work)
        rows = len(a[block])
        assert mask.shape == (rows, n_shares)
        assert mask.tolist() == expected[block].tolist()
        assert cells.tolist() == np.flatnonzero(mask).tolist()
        left, right, padded = (array[:rows, -1] for array in work[3:6])
        assert np.isnan(left).all() and np.isnan(right).all() and not padded.any()


UNIT = 2.0 ** -53
unit_location = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=100, deadline=None)
@given(locations=st.one_of(st.tuples(unit_location, unit_location),
                           unit_location.map(lambda x: (x, x))),
       n_shares=st.sampled_from([2, 3, 7, 2001, 4001]))
@example(locations=(0.0, 1.0), n_shares=4001)
@example(locations=(0.0, 0.0), n_shares=2001)
@example(locations=(1.0, 1.0), n_shares=2001)
def test_running_extrema_lie_within_6u_of_the_neighbour_margins(locations, n_shares):
    """The bound ``_passing_shares`` rests on: over x1 <= x2 the running
    minimum left of a cut lies at most 6u below the margin of the consumer
    next to it, and the running maximum right of it at most 6u above."""
    x1, x2 = sorted(locations)
    grid = GridSpec(n_shares=n_shares)
    margin = oracle._cut_margins(x1, x2, grid, oracle._share_work(1, grid))[0]
    left, right = margin[:-1], margin[1:]  # per cut, with the sentinels
    prefix_min = np.minimum.accumulate(left)
    suffix_max = np.maximum.accumulate(right[::-1])[::-1]
    below = left[1:] - prefix_min[1:]  # cut 0 has no consumer on its left
    above = suffix_max[:-1] - right[:-1]  # nor the last cut one on its right
    assert ((0.0 <= below) & (below <= 6 * UNIT)).all()
    assert ((0.0 <= above) & (above <= 6 * UNIT)).all()
    assert oracle._CUT_BAND >= 16 * UNIT  # twice the 8u a neighbour sum may differ by


def test_gridspec_arrays_are_shared_and_read_only():
    for n in (2, 41, 2001):
        grid, twin = GridSpec(n_locations=n, n_shares=41), GridSpec(n_locations=n, n_shares=41)
        oracle_market_equilibria(GameParams(0.3), Locations(0.2, 0.7), grid)
        oracle_best_deviation(GameParams(0.3), BehaviorKind.NEUTRAL, 0.4, grid)
        assert grid == twin and hash(grid) == hash(twin)
        assert len({grid, twin}) == 1
        arrays = grid._share_grid
        assert grid._share_grid is arrays  # built once per instance
        locations = grid._location_grid
        assert grid._location_grid is locations
        assert locations.tobytes() == np.linspace(0.0, 1.0, n).tobytes()  # bit for bit
        for array in (*arrays, locations):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_oracle_best_deviation_matches_closed_form():
    params = GameParams(0.3)
    loc, payoff = oracle_best_deviation(
        params, BehaviorKind.PESSIMISTIC, 0.4, GridSpec(n_locations=2001)
    )
    closed = best_deviation(params, BehaviorKind.PESSIMISTIC, 1, 0.4)
    assert payoff <= closed.payoff + 1e-12
    assert closed.payoff - payoff <= 2.0 / 2000 / (1 - 0.3)
    assert loc == pytest.approx(closed.location, abs=1e-3)


def test_oracle_best_deviation_optimist_saturates():
    _, payoff = oracle_best_deviation(
        GameParams(0.4), BehaviorKind.OPTIMISTIC, 0.5, GridSpec(n_locations=801)
    )
    assert payoff == 1.0


def test_oracle_best_deviation_neutral_center_exceeds_half():
    # certifies the neutral instability beyond a = 1/2
    _, payoff = oracle_best_deviation(
        GameParams(0.6), BehaviorKind.NEUTRAL, 0.5, GridSpec(n_locations=2001)
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
        GameParams(a), behavior, x_other, GridSpec(n_locations=n_locations))
    assert repr(found) == repr((best_x, best_v))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.one_of(st.sampled_from([0.25, 0.5]),
                            st.floats(min_value=0.01, max_value=0.99)),
                  st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                            st.floats(min_value=0.0, max_value=1.0))),
        min_size=1, max_size=5, unique=True),
    behavior=st.sampled_from(list(BehaviorKind)),
    n_locations=st.sampled_from([2, 41, 2001]),
)
# the two cells of the pointwise loop's examples where share order is not kind order
@example(rows=[(0.5, 0.5), (0.25, 0.525)], behavior=BehaviorKind.NEUTRAL, n_locations=41)
def test_deviation_values_of_a_block_are_its_rows(rows, behavior, n_locations):
    """``a`` and ``x_other`` as columns against a row of locations, as the
    best-deviation suite passes a block of instances: each row, and its
    first maximum, is the one-instance call's, bit for bit."""
    xs = np.linspace(0.0, 1.0, n_locations)
    a, x_other = np.array(rows).T
    block = _deviation_values(a[:, None], behavior, xs, x_other[:, None])
    assert block.shape == (len(rows), n_locations)
    index, value = oracle._best_deviations(a, behavior, xs, x_other)
    for k, (a_k, x) in enumerate(rows):
        row = _deviation_values(a_k, behavior, xs, x)
        assert block[k].view(np.int64).tolist() == row.view(np.int64).tolist()
        best = int(np.argmax(row))
        assert (index[k], value[k].view(np.int64)) == (best, row[best].view(np.int64))


@pytest.mark.parametrize("behavior", list(BehaviorKind))
def test_best_deviations_of_a_block_are_the_oracle(behavior):
    """One instance, a full block of two and, through the suite's blocking
    at 2001 locations, a full block and a partial one of one instance: each
    instance's best location and value are ``oracle_best_deviation``'s, bit
    for bit."""
    grid = GridSpec()
    xs = grid._location_grid
    a = np.array([0.5, 0.25, 0.3, 0.9, 0.05, 0.7, 0.45, 0.6, 0.15])
    x_other = np.array([0.5, 0.525, 0.0, 1.0, 0.3, 0.8, 0.6, 0.1, 0.95])
    expected = [oracle_best_deviation(GameParams(p), behavior, x, grid)
                for p, x in zip(a.tolist(), x_other.tolist())]
    for block in (slice(0, 1), slice(0, 2), slice(2, 4)):
        index, value = oracle._best_deviations(a[block], behavior, xs, x_other[block])
        found = list(zip(xs[index].tolist(), value.tolist()))
        assert list(map(repr, found)) == list(map(repr, expected[block]))
    # the suite runs instance k as behavior k % 3, here 3 of the 9 in two blocks
    members = np.arange(list(BehaviorKind).index(behavior), len(a), 3)
    maxima = oracle._deviation_maxima(a, x_other, grid)[members]
    assert list(map(repr, maxima.tolist())) == [repr(expected[k][1]) for k in members]


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


def segment_distance_reference(endpoint_lo, endpoint_hi, x):
    """The optimum oracle's own integral of |t - x| over [endpoint_lo,
    endpoint_hi], from before it read the welfare integral's array form:
    the same exact integral, rounded differently (21-36% of the table
    cells differ by ulps)."""
    mid = 0.5 * (endpoint_lo + endpoint_hi)
    length = endpoint_hi - endpoint_lo
    inside = 0.5 * ((x - endpoint_lo) ** 2 + (endpoint_hi - x) ** 2)
    return np.where(
        x <= endpoint_lo,
        (mid - x) * length,
        np.where(x >= endpoint_hi, (x - mid) * length, inside),
    )


def per_call_social_optimum(params, grid, distance=_abs_distance_integral_array):
    """``oracle_social_optimum`` as it was before its grid part was kept
    per ``GridSpec``: every table built on each call, each distance
    integral by ``distance(lo, hi, x)``."""
    xs = np.linspace(0.0, 1.0, grid.n_locations)
    ss = np.linspace(0.0, 1.0, grid.n_shares)
    s_col = ss[:, None]
    left = distance(0.0, s_col, xs[None, :])
    right = distance(s_col, 1.0, xs[None, :])
    i1 = np.argmin(left, axis=1)
    i2 = np.argmin(right, axis=1)
    popularity = params.a * (ss * ss + (1.0 - ss) ** 2)
    welfare = (
        params.theta
        + popularity
        - left[np.arange(len(ss)), i1]
        - right[np.arange(len(ss)), i2]
    )
    k = int(np.argmax(welfare))
    return OptimumPoint(float(xs[i1[k]]), float(xs[i2[k]]), float(ss[k]), float(welfare[k]))


@pytest.mark.parametrize("grid", [GridSpec(201, 201), GridSpec(51, 401), GridSpec(401, 51)],
                         ids=str)
def test_oracle_social_optimum_is_the_per_call_computation(grid):
    for theta in (1.0, 1.5, 3.0):
        for a in np.arange(1, 20) * 0.05:
            params = GameParams(float(a), theta)
            expected = per_call_social_optimum(params, grid)
            found = oracle_social_optimum(params, grid)
            assert ((found.x1, found.x2, found.s1, found.welfare)  # field for field, with ==
                    == (expected.x1, expected.x2, expected.s1, expected.welfare))
            assert repr(found) == repr(expected)


def test_oracle_social_optimum_points_are_those_of_the_old_integral():
    """The verify suite's optimum points (x1, x2, s1) are the ones the
    oracle's former distance integral picks, though table cells differ by
    ulps; the welfares differ by at most a few ulps."""
    for theta in (1.0, 1.5, 3.0):
        for a in np.arange(1, 20) * 0.05:
            params = GameParams(float(a), theta)
            old = per_call_social_optimum(params, _OPTIMUM_GRID, segment_distance_reference)
            found = oracle_social_optimum(params, _OPTIMUM_GRID)
            assert (found.x1, found.x2, found.s1) == (old.x1, old.x2, old.s1)
            assert found.welfare == pytest.approx(old.welfare, rel=4 * np.finfo(float).eps)


def test_oracle_social_optimum_grid_is_built_once_and_read_only():
    grid = GridSpec(n_locations=31, n_shares=21)
    oracle_social_optimum(GameParams(0.3), grid)
    arrays = grid._optimum_grid
    oracle_social_optimum(GameParams(0.7, 2.0), grid)
    assert grid._optimum_grid is arrays
    assert [array.shape for array in arrays] == [(31,), (21,), (21,), (21,), (21,), (21,)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # another instance with the same resolutions is equal but builds its own
    other = GridSpec(n_locations=31, n_shares=21)
    assert other == grid and other._optimum_grid is not arrays
    # verify's suite reads one module-level grid
    oracle._social_optimum_suite(1.0)
    assert "_optimum_grid" in vars(oracle._OPTIMUM_GRID)
    assert oracle._OPTIMUM_GRID == GridSpec(201, 201)


def test_oracle_social_optimum_cutoff_degeneracy():
    params = GameParams(0.25)
    found = oracle_social_optimum(params, GridSpec(n_locations=201, n_shares=201))
    assert found.welfare == pytest.approx(1.0, abs=1e-3)
    # both closed-form optima achieve the same grid-level welfare
    for opt in social_optimum(params):
        assert consumer_welfare(params, opt.x1, opt.x2, opt.s1) == pytest.approx(
            found.welfare, abs=1e-3
        )


# the suite's gate is 1e-3 plus the rounding of the two welfare sums at the
# size of theta: at 1e13 and 1e15 the gap is one ulp of theta (1.95e-3 and
# 0.125), and a closed form moved by 2e-3 still fails where an ulp is small
@pytest.mark.parametrize("theta, moved, ok", [
    (1.0, 0.0, True), (1e11, 0.0, True), (1e13, 0.0, True), (1e15, 0.0, True),
    (1.0, 2e-3, False), (1e11, 2e-3, False),
])
def test_social_optimum_suite_allows_rounding_at_theta(theta, moved, ok, monkeypatch):
    exact = oracle.social_optimum
    monkeypatch.setattr(oracle, "social_optimum", lambda params: tuple(
        OptimumPoint(point.x1, point.x2, point.s1, point.welfare + moved)
        for point in exact(params)))
    assert oracle._social_optimum_suite(theta)[0] is ok


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


PROFILE_TYPES = (float, float, Kind, float)  # profile_fields


def profile_fields(profiles):
    """(x1, x2, kind, s1) of each profile, once every profile is known to be
    made of exactly the classes its ``repr`` names."""
    assert {(type(p), type(p.locations), type(p.outcome)) for p in profiles} <= {
        (EquilibriumProfile, Locations, MarketOutcome)}
    return [(p.locations.x1, p.locations.x2, p.outcome.kind, p.outcome.s1) for p in profiles]


def assert_scan_is_the_reference(a, behavior, n_locations):
    """The region table and the NE profiles of the block scan are the
    cell-by-cell reference's, bit for bit and type for type, as the CSV and
    JSON writers see them."""
    params = GameParams(a)
    rows = block_rows(_region_rows(params, behavior, n_locations))
    expected = region_rows(a, behavior, n_locations)
    assert_same_columns(rows, expected, REGION_TYPES)
    profiles = oracle_ne_region_scan(params, behavior, GridSpec(n_locations=n_locations))
    assert_same_columns(profile_fields(profiles), [
        (x1, x2, Kind(kind), s1) for _, x1, x2, kind, s1, is_ne, _ in expected if is_ne],
        PROFILE_TYPES)


# With _SCAN_BLOCK_CELLS = 4096 a block holds max(1, 4096 // n) rows: 2, 3
# and 41 fit in one block, 101 and 201 end on a shorter one
@pytest.mark.parametrize("n_locations", [2, 3, 41, 101, 201])
@pytest.mark.parametrize("behavior", list(BehaviorKind), ids=lambda b: b.value)
@pytest.mark.parametrize("a", [0.2, 0.25, 0.5, 0.8])
def test_block_scan_matches_row_scan(a, behavior, n_locations):
    assert_scan_is_the_reference(a, behavior, n_locations)


# 128 points fill 16 blocks of 8 rows exactly; 41 points at 16 cells a
# block take one grid row per block, as any grid of more than
# _SCAN_BLOCK_CELLS // 2 points does; 201 points at 32768 cells take two
# blocks of up to 163 rows, each cut into many table blocks
@pytest.mark.parametrize("n_locations, cells", [(41, 1024), (41, 16), (128, 1024), (201, 1024),
                                                (201, 4096), (201, 32768)])
def test_block_scan_blocks(n_locations, cells, monkeypatch):
    monkeypatch.setattr(oracle, "_SCAN_BLOCK_CELLS", cells)
    rows = max(1, cells // n_locations)
    xs = np.linspace(0.0, 1.0, n_locations)
    params = GameParams(0.5)
    blocks = list(_region_scan(params, BehaviorKind.PESSIMISTIC, n_locations))
    assert len(blocks) == -(-n_locations // rows)
    for k, (i, *_) in enumerate(blocks):
        assert np.unique(xs[i]).tolist() == xs[k * rows:(k + 1) * rows].tolist()
    # each scan block is cut into table blocks of 1 to CHUNK_ROWS rows, which
    # all pass that scan block's one s1 list and one welfare list
    tables = _region_rows(params, BehaviorKind.PESSIMISTIC, n_locations)
    for i, *_ in blocks:
        held, shared = 0, None
        while held < len(i):
            (_, a_codes), *_, (s1, _), _, (welfare, _) = next(tables)
            assert 0 < len(a_codes) <= CHUNK_ROWS
            held += len(a_codes)
            shared = shared or (s1, welfare)
            assert s1 is shared[0] and welfare is shared[1]
        assert held == len(i)
    assert next(tables, None) is None
    # the table blocks code x1 and x2 over the grid from each block's first
    # x1; the table and the NE profiles are the reference's
    assert_scan_is_the_reference(0.5, BehaviorKind.PESSIMISTIC, n_locations)


def test_block_scan_raises_on_a_failing_split(monkeypatch):
    exact = oracle._is_split

    def failing(a, x1, x2, s1):  # rejects the splits of the cells in rows x1 > 0.6
        return exact(a, x1, x2, s1) & ~(x1 > 0.6)

    monkeypatch.setattr(oracle, "_is_split", failing)
    params = GameParams(0.5)
    for reader in (lambda: list(_region_rows(params, BehaviorKind.PESSIMISTIC, 101)),
                   lambda: oracle_ne_region_scan(params, BehaviorKind.NEUTRAL, GridSpec(101))):
        with pytest.raises(ValueError, match="not a market equilibrium for its locations"):
            reader()
    # blocks of rows x1 <= 0.6 pass: the scan fails part way through
    blocks = _region_scan(params, BehaviorKind.PESSIMISTIC, 101)
    assert oracle._unit_grid(101)[next(blocks)[0]].max() < 0.6


def test_riemann_welfare_agreement():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = GameParams(float(rng.uniform(0.02, 0.98)), float(rng.uniform(1.0, 3.0)))
        x1, x2, s1 = (float(v) for v in rng.uniform(0.0, 1.0, size=3))
        exact = consumer_welfare(params, x1, x2, s1)
        sampled = oracle_consumer_welfare(params, x1, x2, s1)
        assert exact == pytest.approx(sampled, abs=1e-5)


@pytest.mark.parametrize("point, message", [
    ((-0.1, 0.5, 0.5), "x1 must lie in [0, 1], got -0.1"),
    ((0.5, 1.2, 0.5), "x2 must lie in [0, 1], got 1.2"),
    ((0.2, 0.6, 1.5), "s1 must lie in [0, 1], got 1.5"),
])
def test_riemann_welfare_rejects_bad_input(point, message):
    params = GameParams(0.3)
    # the same message as the closed form
    for welfare in (consumer_welfare, oracle_consumer_welfare):
        with pytest.raises(ValueError, match=re.escape(message)):
            welfare(params, *point)
