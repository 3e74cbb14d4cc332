"""Tests for deviation payoffs and Nash decisions under the three behaviors."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from locpop import (
    BehaviorKind,
    EquilibriumProfile,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    MarketOutcome,
    best_deviation,
    best_deviation_pessimistic,
    deviation_payoff,
    enumerate_market_equilibria,
    is_nash,
    nash_diameter_bounds_check,
    nash_region_a_half,
    neutral_nash,
    oracle_best_deviation,
    pessimistic_nash_interval,
    symmetric_pessimistic_nash_set,
)
from locpop.behaviors import _aggregate, _supremum

import breakpoint_search as search

externalities = st.floats(min_value=0.01, max_value=0.99)
positions = st.floats(min_value=0.0, max_value=1.0)

CENTER = EquilibriumProfile(Locations(0.5, 0.5), MarketOutcome(Kind.III, 0.5))


def profiles_at(params, x1, x2):
    loc = Locations(x1, x2)
    return [EquilibriumProfile(loc, o) for o in enumerate_market_equilibria(params, loc)]


# ---------------------------------------------------------------------------
# deviation payoffs


def test_pessimist_gets_zero_inside_band():
    params = GameParams(0.5)
    for x_dev in (0.2, 0.5, 0.7, 1.0):
        rep = deviation_payoff(params, BehaviorKind.PESSIMISTIC, 1, x_dev, 0.5)
        assert rep.payoff == 0.0


def test_neutral_mean_over_three_splits():
    rep = deviation_payoff(GameParams(0.6), BehaviorKind.NEUTRAL, 1, 0.0, 0.5)
    assert rep.payoff == pytest.approx(23 / 36, abs=1e-12)
    assert len(rep.outcomes_considered) == 3


def test_optimist_colocating_gets_everything():
    for a in (0.1, 0.5, 0.9):
        rep = deviation_payoff(GameParams(a), BehaviorKind.OPTIMISTIC, 1, 0.3, 0.3)
        assert rep.payoff == 1.0


def test_deviation_report_flags_coincident_shares():
    rep = deviation_payoff(GameParams(0.5), BehaviorKind.NEUTRAL, 1, 0.5, 0.5)
    assert rep.coincident_shares
    assert len(rep.outcomes_considered) == 5


def test_deviation_payoff_validation():
    params = GameParams(0.5)
    with pytest.raises(ValueError):
        deviation_payoff(params, BehaviorKind.NEUTRAL, 3, 0.5, 0.5)
    with pytest.raises(ValueError):
        deviation_payoff(params, BehaviorKind.NEUTRAL, 1, 1.5, 0.5)


@settings(max_examples=200, deadline=None)
@given(a=externalities, x_dev=positions, x_other=positions)
def test_behavior_ordering(a, x_dev, x_other):
    params = GameParams(a)
    values = {
        b: deviation_payoff(params, b, 1, x_dev, x_other).payoff for b in BehaviorKind
    }
    # the 1e-15 slack covers rounding in the mean of up to five shares
    assert values[BehaviorKind.PESSIMISTIC] <= values[BehaviorKind.NEUTRAL] + 1e-15
    assert values[BehaviorKind.NEUTRAL] <= values[BehaviorKind.OPTIMISTIC] + 1e-15


def test_deviator_on_the_right_gets_complement_shares():
    # deviating past the opponent, the deviator holds the second slot
    rep = deviation_payoff(GameParams(0.5), BehaviorKind.PESSIMISTIC, 1, 0.8, 0.2)
    assert rep.payoff == pytest.approx(0.5, abs=1e-12)  # unique split at (0.2, 0.8)
    rep = deviation_payoff(GameParams(0.6), BehaviorKind.NEUTRAL, 2, 0.0, 0.5)
    assert rep.payoff == pytest.approx(23 / 36, abs=1e-12)  # same move, firm 2 label


@settings(max_examples=100, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_neutral_mean_shortcut_with_five_splits(a, p, q):
    params = GameParams(a)
    loc = Locations(min(p, q), max(p, q))
    outcomes = enumerate_market_equilibria(params, loc)
    if len(outcomes) != 5:
        return
    by_kind = {o.kind: o.s1 for o in outcomes}
    assert by_kind[Kind.I] + by_kind[Kind.V] == pytest.approx(1.0, abs=1e-12)
    assert by_kind[Kind.II] + by_kind[Kind.IV] == pytest.approx(1.0, abs=1e-12)
    rep = deviation_payoff(params, BehaviorKind.NEUTRAL, 1, loc.x1, loc.x2)
    assert rep.payoff == pytest.approx((2.0 + by_kind[Kind.III]) / 5.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(first=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
       fraction=st.floats(min_value=0.3, max_value=0.45),
       rest=st.lists(positions, max_size=2))
@example(first=0.5, fraction=0.4, rest=[])
def test_neutral_mean_is_a_left_to_right_sum(first, fraction, rest):
    # each tiny share is below half an ulp of the first, so a left-to-right
    # sum drops both while an exact one (math.fsum), like CPython 3.12's
    # compensated sum(), keeps their total
    tiny = math.ulp(first) * fraction
    shares = [first, tiny, tiny, *rest]
    fold = shares[0]
    for share in shares[1:]:
        fold += share
    n = len(shares)
    assume(fold / n != math.fsum(shares) / n)
    assert _aggregate(BehaviorKind.NEUTRAL, shares) == fold / n


# ---------------------------------------------------------------------------
# pessimistic best deviation


def test_best_deviation_pessimistic_center_opponent():
    rep = best_deviation_pessimistic(GameParams(0.5), 1, 0.5)
    assert rep.payoff == 0.0
    assert rep.location == 1.0


def test_best_deviation_pessimistic_formula_and_grid():
    params = GameParams(0.3)
    rep = best_deviation_pessimistic(params, 1, 0.4)
    assert rep.location == pytest.approx(0.7, abs=1e-12)
    assert rep.payoff == pytest.approx(1 - 0.4 / 0.7, abs=1e-12)
    # grid search takes the min over splits at every deviation point
    loc, payoff = oracle_best_deviation(
        params, BehaviorKind.PESSIMISTIC, 1, 0.4, GridSpec(n_locations=10001)
    )
    assert payoff <= rep.payoff + 1e-9
    assert rep.payoff - payoff <= 2.0 / 10000 / (1 - params.a)
    assert abs(loc - rep.location) < 2e-4


def test_best_deviation_pessimistic_band_covers_market():
    rep = best_deviation_pessimistic(GameParams(0.7), 1, 0.4)
    assert rep.payoff == 0.0
    _, payoff = oracle_best_deviation(
        GameParams(0.7), BehaviorKind.PESSIMISTIC, 1, 0.4, GridSpec(n_locations=2001)
    )
    assert payoff == 0.0


def test_best_deviation_pessimistic_mirror_branch():
    params = GameParams(0.3)
    rep = best_deviation_pessimistic(params, 2, 0.6)
    assert rep.location == pytest.approx(0.3, abs=1e-12)
    assert rep.payoff == pytest.approx(1 - 0.4 / 0.7, abs=1e-12)


def test_best_deviation_generic_dispatch():
    params = GameParams(0.4)
    assert best_deviation(params, BehaviorKind.OPTIMISTIC, 1, 0.5).payoff == 1.0
    pess = best_deviation(params, BehaviorKind.PESSIMISTIC, 1, 0.2)
    assert pess.payoff == pytest.approx(1 - 0.2 / 0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# neutral and optimistic best deviation (closed forms, against the search)


def test_best_deviation_neutral_supremum_beside_band_edge():
    # approached from the right of x_other + a = 0.775 on the unique split,
    # where the deviator holds 1 - (x_other + x - a) / (2 (1 - a)) -> 3/4
    rep = best_deviation(GameParams(0.7), BehaviorKind.NEUTRAL, 1, 0.075)
    assert rep.payoff == pytest.approx(0.75, abs=1e-12)
    assert rep.location == pytest.approx(0.775, abs=1e-12)


def test_best_deviation_neutral_supremum_beside_kind_boundary():
    # approached from the left of the kind IV boundary c = (x - a) / (1 - 2a),
    # where kinds I, II, V hold and the mean tends to
    # (3/2 + (2x - 1) / (2 (1 - 2a))) / 3; the value attained at c is lower
    a, x = 0.042960144605441675, 0.5327278660623584
    rep = best_deviation(GameParams(a), BehaviorKind.NEUTRAL, 1, x)
    assert rep.location == pytest.approx((x - a) / (1.0 - 2.0 * a), abs=1e-12)
    assert rep.payoff == pytest.approx((1.5 + (2 * x - 1) / (2 * (1 - 2 * a))) / 3, abs=1e-12)
    at_boundary = deviation_payoff(GameParams(a), BehaviorKind.NEUTRAL, 1, rep.location, x)
    assert at_boundary.payoff < rep.payoff - 1e-2


def test_best_deviation_keeps_the_half_breakpoint_at_a_half():
    # at a = 1/2 the kind II/IV boundary a + (1 - 2a) x_other is 1/2 for
    # every opponent; for x_other = 0.2 the mean is (1.7 - x)/3 left of it,
    # (3.3 - x)/5 right of it and 1.3 - x beyond the band edge 0.7
    params = GameParams(0.5)
    for x_other in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert 0.5 in search.breakpoints(0.5, x_other)
    rep = best_deviation(params, BehaviorKind.NEUTRAL, 1, 0.2)
    assert (rep.location, rep.payoff) == (pytest.approx(0.7), pytest.approx(0.6, abs=1e-12))
    assert deviation_payoff(params, BehaviorKind.NEUTRAL, 1, 0.5, 0.2).payoff == pytest.approx(
        0.56, abs=1e-12
    )
    mirrored = best_deviation(params, BehaviorKind.NEUTRAL, 2, 0.8)
    assert (mirrored.location, mirrored.payoff) == (
        pytest.approx(0.3),
        pytest.approx(0.6, abs=1e-12),
    )


biased_externalities = st.one_of(st.sampled_from([0.25, 0.5]), externalities)
biased_positions = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), positions)


@settings(max_examples=60, deadline=None)
@given(
    a=biased_externalities,
    x_other=biased_positions,
    behavior=st.sampled_from([BehaviorKind.NEUTRAL, BehaviorKind.OPTIMISTIC]),
)
def test_best_deviation_brackets_the_grid_maximum(a, x_other, behavior):
    params = GameParams(a)
    grid = GridSpec(n_locations=2001)
    _, grid_best = oracle_best_deviation(params, behavior, 1, x_other, grid)
    spacing = 1.0 / (grid.n_locations - 1)
    payoff = best_deviation(params, behavior, 1, x_other).payoff
    assert payoff >= grid_best - 1e-12
    assert payoff <= grid_best + max(1.0 / (1.0 - a), 1.0 / (2.0 * a)) * spacing + 1e-9


def test_own_location_exclusion_is_shared_by_is_nash_and_nash_check(capsys):
    import json

    from locpop.cli import main

    # optimistic, a = 0.1, firms at 0 and 0.05 with firm 2 serving everyone:
    # firm 1's best move (share 1) is at its own location, which is no
    # deviation, but the supremum is also approached from the right of it,
    # so the report stays there; the search, which left the own location
    # out, reported co-locating at 0.05 instead
    params = GameParams(0.1)
    profile = EquilibriumProfile(Locations(0.0, 0.05), MarketOutcome(Kind.I, 0.0))
    best = best_deviation(params, BehaviorKind.OPTIMISTIC, 1, 0.05)
    assert (best.location, best.payoff) == (0.0, 1.0)
    assert search.supremum(0.1, BehaviorKind.OPTIMISTIC, 0.05, own_location=0.0) == (0.05, 1.0)
    assert not is_nash(params, BehaviorKind.OPTIMISTIC, profile)

    code = main(["nash-check", "--a", "0.1", "--x1", "0", "--x2", "0.05", "--s1", "0",
                 "--behavior", "optimistic"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["is_nash"] is False
    assert doc["binding_deviation"] == {"deviator": 1, "location": 0.0, "payoff": 1.0}


reference_externalities = st.one_of(st.sampled_from([0.25, 1 / 3, 0.5]), externalities)
searched_behaviors = st.sampled_from([BehaviorKind.NEUTRAL, BehaviorKind.OPTIMISTIC])


def assume_separated_breakpoints(a, *opponents):
    # the search merges breakpoints closer than 2e-12 and can drop the
    # value at one of them, so it is exact only where they stay apart
    for x_other in opponents:
        points = sorted(search.raw_breakpoints(a, x_other))
        assume(all(q == p or q - p > 1e-9 for p, q in zip(points, points[1:])))


@settings(max_examples=300, deadline=None)
@given(a=reference_externalities, x_other=biased_positions, behavior=searched_behaviors)
@example(a=0.7, x_other=0.075, behavior=BehaviorKind.NEUTRAL)
@example(a=0.042960144605441675, x_other=0.5327278660623584, behavior=BehaviorKind.NEUTRAL)
def test_supremum_is_the_breakpoint_search(a, x_other, behavior):
    assume_separated_breakpoints(a, x_other)
    location, payoff = _supremum(a, behavior, x_other)
    _, searched = search.supremum(a, behavior, x_other)
    assert payoff == pytest.approx(searched, abs=1e-12)
    assert any(
        abs(value - payoff) <= 1e-12 and abs(at - location) <= 1e-12
        for value, at, _ in search.candidates(a, behavior, x_other)
    )
    if behavior is BehaviorKind.OPTIMISTIC:
        assert payoff == searched == 1.0


@settings(max_examples=150, deadline=None)
@given(a=reference_externalities, p=biased_positions, q=biased_positions,
       behavior=searched_behaviors)
@example(a=0.02, p=1.0, q=0.98, behavior=BehaviorKind.NEUTRAL)
def test_is_nash_reads_the_excluded_supremum(a, p, q, behavior):
    # the value attained at a breakpoint always equals or trails a
    # one-sided limit beside it, so the search's verdict, which left the
    # own location out, is the verdict of the unexcluded closed form
    from locpop import NE_TOL

    assume_separated_breakpoints(a, p, q)
    params = GameParams(a)
    for profile in profiles_at(params, min(p, q), max(p, q)):
        verdict = all(
            own >= search.supremum(a, behavior, opp, own_location=own_x)[1] - NE_TOL
            for own, own_x, opp in ((profile.s1, profile.x1, profile.x2),
                                    (profile.s2, profile.x2, profile.x1))
        )
        assert is_nash(params, behavior, profile) == verdict


# ---------------------------------------------------------------------------
# Nash decisions


def test_neutral_accepts_center():
    assert is_nash(GameParams(0.4), BehaviorKind.NEUTRAL, CENTER)


def test_optimistic_never_settles():
    params = GameParams(0.4)
    for profile in profiles_at(params, 0.3, 0.6) + [CENTER]:
        assert not is_nash(params, BehaviorKind.OPTIMISTIC, profile)


def test_pessimistic_interval_membership():
    params = GameParams(0.3)
    profile = EquilibriumProfile(Locations(0.4, 0.6), MarketOutcome(Kind.III, 0.5))
    assert is_nash(params, BehaviorKind.PESSIMISTIC, profile)
    interval = pessimistic_nash_interval(params, Locations(0.4, 0.6))
    assert interval.lo == pytest.approx(3 / 7, abs=1e-9)
    assert interval.hi == pytest.approx(4 / 7, abs=1e-9)


def test_is_nash_rejects_invalid_profile():
    bogus = EquilibriumProfile(Locations(0.4, 0.6), MarketOutcome(Kind.III, 0.9))
    with pytest.raises(ValueError):
        is_nash(GameParams(0.3), BehaviorKind.PESSIMISTIC, bogus)


def test_interval_examples():
    mid = pessimistic_nash_interval(GameParams(0.3), Locations(0.5, 0.5))
    assert (mid.lo, mid.hi) == (pytest.approx(2 / 7), pytest.approx(5 / 7))
    edge = pessimistic_nash_interval(GameParams(0.5), Locations(0.5, 1.0))
    assert (edge.lo, edge.hi) == (pytest.approx(1.0), pytest.approx(1.0))
    assert edge.contains(1.0)
    far = pessimistic_nash_interval(GameParams(0.2), Locations(0.1, 0.9))
    assert far.is_empty and far.clamped() is None
    assert mid.clamped() == (mid.lo, mid.hi)


@settings(max_examples=150, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_pessimistic_equivalence(a, p, q):
    params = GameParams(a)
    loc = Locations(min(p, q), max(p, q))
    interval = pessimistic_nash_interval(params, loc)
    for profile in profiles_at(params, loc.x1, loc.x2):
        assert is_nash(params, BehaviorKind.PESSIMISTIC, profile) == interval.contains(
            profile.s1
        )


@settings(max_examples=150, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_pessimistic_mirror_invariance(a, p, q):
    from hypothesis import assume

    from locpop import mirror_locations, mirror_profile

    # stay off exact existence ties: reflecting those can cross a branch
    loc = Locations(min(p, q), max(p, q))
    for candidate in (loc, mirror_locations(loc)):
        one_minus_2a = 1.0 - 2.0 * a
        assume(abs(candidate.gap - a) > 1e-9)
        assume(abs(candidate.x2 - one_minus_2a * candidate.x1 - a) > 1e-9)
        assume(abs(candidate.x1 - one_minus_2a * candidate.x2 - a) > 1e-9)
    params = GameParams(a)
    for profile in profiles_at(params, min(p, q), max(p, q)):
        direct = is_nash(params, BehaviorKind.PESSIMISTIC, profile)
        reflected = is_nash(params, BehaviorKind.PESSIMISTIC, mirror_profile(profile))
        assert direct == reflected


def test_neutral_decision_matches_dense_reference():
    # cross-check the closed-form supremum against a plain dense-grid
    # supremum with the own-location exclusion inlined
    import numpy as np

    from locpop.behaviors import _deviation_value

    rng = np.random.default_rng(5)
    params = GameParams(0.35)
    xs_ref = np.linspace(0.0, 1.0, 20001)
    checked = 0
    for _ in range(8):
        p, q = np.sort(rng.uniform(0.0, 1.0, size=2))
        loc = Locations(float(p), float(q))
        for out in enumerate_market_equilibria(params, loc):
            profile = EquilibriumProfile(loc, out)
            fast = is_nash(params, BehaviorKind.NEUTRAL, profile)
            reference, borderline = True, False
            for own, own_x, opp in ((out.s1, loc.x1, loc.x2), (out.s2, loc.x2, loc.x1)):
                sup = max(
                    _deviation_value(params.a, BehaviorKind.NEUTRAL, float(x), opp)
                    for x in xs_ref
                    if abs(float(x) - own_x) > 1e-12
                )
                if abs(own - sup) < 2e-3:  # beyond the reference resolution
                    borderline = True
                    break
                if own < sup:
                    reference = False
            if not borderline:
                assert fast == reference, (loc, out)
                checked += 1
    assert checked >= 10


def test_neutral_mirror_invariance_spot_checks():
    from locpop import mirror_profile

    params = GameParams(0.3, 1.0)
    for x1, x2 in ((0.5, 0.5), (0.45, 0.55), (0.3, 0.5)):
        for profile in profiles_at(params, x1, x2):
            assert is_nash(params, BehaviorKind.NEUTRAL, profile) == is_nash(
                params, BehaviorKind.NEUTRAL, mirror_profile(profile)
            )


# ---------------------------------------------------------------------------
# explicit characterizations


def test_neutral_nash_threshold():
    low = neutral_nash(GameParams(0.25))
    assert (low.x1, low.x2, low.s1) == (0.5, 0.5, 0.5)
    assert neutral_nash(GameParams(0.5)) is not None  # boundary included
    assert neutral_nash(GameParams(0.75)) is None
    assert is_nash(GameParams(0.25), BehaviorKind.NEUTRAL, low)


def test_symmetric_set_examples():
    assert symmetric_pessimistic_nash_set(GameParams(0.5), 0.3) == (0.5,)
    assert symmetric_pessimistic_nash_set(GameParams(0.5), 0.5) == (0.0, 0.5, 1.0)
    assert symmetric_pessimistic_nash_set(GameParams(0.2), 0.45) == (0.5,)
    assert symmetric_pessimistic_nash_set(GameParams(0.3), 0.1) == ()
    with pytest.raises(ValueError):
        symmetric_pessimistic_nash_set(GameParams(0.3), 0.7)


def test_symmetric_set_region_two_carries_tails():
    # (1 - a^2)/2 = 0.375 < 0.4 < 1/2, so the off-center shares appear
    values = symmetric_pessimistic_nash_set(GameParams(0.5), 0.4)
    assert values == (
        pytest.approx(0.3, abs=1e-12),
        pytest.approx(0.5),
        pytest.approx(0.7, abs=1e-12),
    )


def test_symmetric_set_matches_nash_decision():
    for a in (0.3, 0.5, 0.7):
        params = GameParams(a)
        for k in range(0, 101):
            x1 = 0.5 * k / 100
            loc = Locations(x1, 1.0 - x1)
            interval = pessimistic_nash_interval(params, loc)
            via_scan = sorted(
                {
                    round(o.s1, 12)
                    for o in enumerate_market_equilibria(params, loc)
                    if interval.contains(o.s1)
                }
            )
            via_formula = [round(v, 12) for v in symmetric_pessimistic_nash_set(params, x1)]
            assert via_formula == pytest.approx(via_scan, abs=1e-9), (a, x1)


def test_region_a_half_examples():
    assert nash_region_a_half(0.3, 0.5) == {Kind.I, Kind.II, Kind.III}
    assert nash_region_a_half(0.5, 0.9) == {Kind.III, Kind.IV, Kind.V}
    assert nash_region_a_half(0.1, 0.9) == set()
    with pytest.raises(ValueError):
        nash_region_a_half(0.9, 0.1)


def test_region_a_half_matches_interval_scan():
    params = GameParams(0.5)
    for i in range(0, 41):
        for j in range(i, 41):
            x1, x2 = i / 40, j / 40
            loc = Locations(x1, x2)
            interval = pessimistic_nash_interval(params, loc)
            scanned = {
                o.kind
                for o in enumerate_market_equilibria(params, loc)
                if interval.contains(o.s1)
            }
            assert scanned == nash_region_a_half(x1, x2), (x1, x2)


def test_diameter_bounds():
    params = GameParams(0.3)
    good = EquilibriumProfile(Locations(0.4, 0.6), MarketOutcome(Kind.III, 0.5))
    assert nash_diameter_bounds_check(params, good)
    wide = EquilibriumProfile(Locations(0.1, 0.9), MarketOutcome(Kind.UNIQUE, 0.5))
    assert not nash_diameter_bounds_check(params, wide)
    extreme = EquilibriumProfile(Locations(0.5, 0.5), MarketOutcome(Kind.V, 1.0))
    assert nash_diameter_bounds_check(GameParams(0.5), extreme)  # a/(1-a) = 1


@settings(max_examples=60, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_optimist_always_has_a_winning_deviation(a, p, q):
    params = GameParams(a)
    for profile in profiles_at(params, min(p, q), max(p, q)):
        trailing_share = min(profile.s1, profile.s2)
        opponent = profile.x1 if profile.s2 <= profile.s1 else profile.x2
        rep = deviation_payoff(params, BehaviorKind.OPTIMISTIC, 1, opponent, opponent)
        assert rep.payoff == 1.0 > trailing_share
