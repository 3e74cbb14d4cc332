"""Tests for deviation payoffs and Nash decisions under the three behaviors."""

import math
from unittest.mock import Mock, patch

import numpy as np
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
    NE_TOL,
    NashInterval,
    best_deviation,
    deviation_payoff,
    distinct_shares,
    enumerate_market_equilibria,
    is_nash,
    nash_diameter_bounds_check,
    nash_region_a_half,
    neutral_nash,
    oracle_best_deviation,
    oracle_ne_region_scan,
    pessimistic_nash_interval,
    poa,
    pos,
    symmetric_pessimistic_nash_set,
)
from locpop import behaviors, model
from locpop.behaviors import _aggregate, _diameter_ok, _interval_ok, _nash_ok, _supremum

import breakpoint_search as search
from test_acceptance import paper_region_a_half

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
    # the report keeps every kind; distinct_shares shows which coincide
    rep = deviation_payoff(GameParams(0.5), BehaviorKind.NEUTRAL, 1, 0.5, 0.5)
    assert len(distinct_shares(rep.outcomes_considered)) < len(rep.outcomes_considered)
    assert len(rep.outcomes_considered) == 5


def test_deviation_payoff_validation():
    params = GameParams(0.5)
    with pytest.raises(ValueError):
        deviation_payoff(params, BehaviorKind.NEUTRAL, 3, 0.5, 0.5)
    with pytest.raises(ValueError):
        deviation_payoff(params, BehaviorKind.NEUTRAL, 1, 1.5, 0.5)
    # the int 1 or 2 only: these compare equal to 1 or 2, but a report would echo them
    for deviator in (True, 1.0, 2.0):
        message = f"^deviator must be firm 1 or 2, got {deviator}$"
        with pytest.raises(ValueError, match=message):
            deviation_payoff(params, BehaviorKind.PESSIMISTIC, deviator, 0.4, 0.6)
        with pytest.raises(ValueError, match=message):
            best_deviation(params, BehaviorKind.PESSIMISTIC, deviator, 0.4)


def test_deviation_payoff_enumerates_the_splits_once():
    """One ``_equilibria`` call, at the locations in order, gives both the
    payoff and the outcomes of a report, with the deviator left of, right
    of or at the opponent."""
    params, spy = GameParams(0.5), Mock(wraps=model._equilibria)
    for x_dev, x_other in ((0.4, 0.6), (0.6, 0.4), (0.5, 0.5), (0.1, 0.9)):
        loc = Locations.from_unordered(x_dev, x_other)
        outcomes = tuple(enumerate_market_equilibria(params, loc))
        own = [o.s1 if x_dev <= x_other else o.s2 for o in outcomes]
        # the spy stands in both modules that call it
        with patch.object(model, "_equilibria", spy), patch.object(behaviors, "_equilibria", spy):
            for behavior in BehaviorKind:
                spy.reset_mock()
                rep = deviation_payoff(params, behavior, 2, x_dev, x_other)
                spy.assert_called_once_with(0.5, loc.x1, loc.x2)
                assert rep.outcomes_considered == outcomes
                assert rep.payoff == _aggregate(behavior, own)


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
    rep = best_deviation(GameParams(0.5), BehaviorKind.PESSIMISTIC, 1, 0.5)
    assert rep.payoff == 0.0
    assert rep.location == 1.0


def test_best_deviation_pessimistic_formula_and_grid():
    params = GameParams(0.3)
    rep = best_deviation(params, BehaviorKind.PESSIMISTIC, 1, 0.4)
    assert rep.location == pytest.approx(0.7, abs=1e-12)
    assert rep.payoff == pytest.approx(1 - 0.4 / 0.7, abs=1e-12)
    # grid search takes the min over splits at every deviation point
    loc, payoff = oracle_best_deviation(
        params, BehaviorKind.PESSIMISTIC, 0.4, GridSpec(n_locations=10001)
    )
    assert payoff <= rep.payoff + 1e-9
    assert rep.payoff - payoff <= 2.0 / 10000 / (1 - params.a)
    assert abs(loc - rep.location) < 2e-4


def test_best_deviation_pessimistic_band_covers_market():
    rep = best_deviation(GameParams(0.7), BehaviorKind.PESSIMISTIC, 1, 0.4)
    assert rep.payoff == 0.0
    _, payoff = oracle_best_deviation(
        GameParams(0.7), BehaviorKind.PESSIMISTIC, 0.4, GridSpec(n_locations=2001)
    )
    assert payoff == 0.0


def test_best_deviation_pessimistic_mirror_branch():
    params = GameParams(0.3)
    rep = best_deviation(params, BehaviorKind.PESSIMISTIC, 2, 0.6)
    assert rep.location == pytest.approx(0.3, abs=1e-12)
    assert rep.payoff == pytest.approx(1 - 0.4 / 0.7, abs=1e-12)


def test_best_deviation_generic_dispatch():
    params = GameParams(0.4)
    assert best_deviation(params, BehaviorKind.OPTIMISTIC, 1, 0.5).payoff == 1.0
    pess = best_deviation(params, BehaviorKind.PESSIMISTIC, 1, 0.2)
    assert pess.payoff == pytest.approx(1 - 0.2 / 0.6, abs=1e-12)


@pytest.mark.parametrize("behavior", ["pessimistic", "optimistic", None])
def test_behavior_must_be_a_member(behavior):
    # a value, or any other non-member, fell through to the neutral branch:
    # best_deviation(a = 0.3, "pessimistic", against 0.4) paid 0.5833, not 0.4286
    params = GameParams(0.3)
    calls = [
        lambda: best_deviation(params, behavior, 1, 0.4),
        lambda: deviation_payoff(params, behavior, 1, 0.2, 0.4),
        lambda: is_nash(params, behavior, CENTER),
        lambda: poa(params, behavior),
        lambda: pos(params, behavior),
        lambda: oracle_best_deviation(params, behavior, 0.4, GridSpec(n_locations=11)),
        lambda: oracle_ne_region_scan(params, behavior, GridSpec(n_locations=11)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="behavior must be a BehaviorKind member"):
            call()


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
    _, grid_best = oracle_best_deviation(params, behavior, x_other, grid)
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
        # each firm's supremum depends on the location pair only
        sups = [
            max(
                _deviation_value(params.a, BehaviorKind.NEUTRAL, float(x), opp)
                for x in xs_ref
                if abs(float(x) - own_x) > 1e-12
            )
            for own_x, opp in ((loc.x1, loc.x2), (loc.x2, loc.x1))
        ]
        for out in enumerate_market_equilibria(params, loc):
            profile = EquilibriumProfile(loc, out)
            fast = is_nash(params, BehaviorKind.NEUTRAL, profile)
            reference, borderline = True, False
            for own, sup in zip((out.s1, out.s2), sups):
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


def symmetric_edges(a):
    """The three thresholds of :func:`symmetric_pessimistic_nash_set` in x1,
    each moved by its mapped ``NE_TOL``, as that function computes them."""
    return ((1.0 - a) / 2.0 - NE_TOL * (1.0 - a),
            (1.0 - a * a) / 2.0 - NE_TOL * a * (1.0 - a),
            1.0 - a - NE_TOL * (1.0 - a))


@st.composite
def symmetric_points(draw):
    """(a, x1) with x1 in [0, 1/2], often within a few ulps or a small
    offset of one of the edges."""
    a = draw(biased_externalities)
    x1 = draw(st.one_of(st.floats(min_value=0.0, max_value=0.5), st.sampled_from(
        [e + step for e in symmetric_edges(a) for step in (-1e-15, -2e-16, 0.0, 2e-16, 1e-15)])))
    ulps = draw(st.integers(min_value=-4, max_value=4))
    for _ in range(abs(ulps)):
        x1 = math.nextafter(x1, math.copysign(math.inf, ulps))
    assume(0.0 <= x1 <= 0.5)
    return a, x1


@settings(max_examples=300, deadline=None)
@given(point=symmetric_points())
def test_symmetric_set_is_the_nash_decision_off_its_edges(point):
    # agreement holds wherever x1 is more than 1e-16 from every edge; within
    # rounding of an edge the closed form and is_nash may decide differently
    a, x1 = point
    assume(all(abs(x1 - edge) > 1e-16 for edge in symmetric_edges(a)))
    params = GameParams(a)
    by_nash = distinct_shares(
        [p.outcome for p in profiles_at(params, x1, 1.0 - x1)
         if is_nash(params, BehaviorKind.PESSIMISTIC, p)])
    assert list(symmetric_pessimistic_nash_set(params, x1)) == pytest.approx(by_nash, abs=1e-12)


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


def a_half_splits(x1, x2):
    """Kinds of the market splits at (x1, x2) when a = 1/2, UNIQUE read as III."""
    return {Kind.III if o.kind is Kind.UNIQUE else o.kind
            for o in enumerate_market_equilibria(GameParams(0.5), Locations(x1, x2))}


@st.composite
def near(draw, value):
    """``value``, or a neighbour one ulp, 5e-10, 1e-9 or 2e-9 away."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    step = draw(st.sampled_from([0.0, "ulp", 5e-10, 1e-9, 2e-9]))
    return math.nextafter(value, sign * math.inf) if step == "ulp" else value + sign * step


# the slanted boundary lines of the a = 1/2 map, x2 as a function of x1
A_HALF_LINES = (lambda x1: (3.0 + 2.0 * x1) / 6.0, lambda x1: (1.0 + 2.0 * x1) / 2.0,
                lambda x1: (-1.0 + 6.0 * x1) / 2.0)
near_quarters = st.sampled_from([0.25, 0.5, 0.75]).flatmap(near)


@st.composite
def a_half_points(draw):
    """0 <= x1 <= x2 <= 1, coordinates often on or next to 1/4, 1/2 or 3/4
    and x2 often on or next to a slanted boundary line through x1."""
    x1 = draw(st.one_of(positions, near_quarters))
    on_line = st.sampled_from(A_HALF_LINES).flatmap(lambda line: near(line(x1)))
    x2 = draw(st.one_of(positions, near_quarters, on_line))
    x1, x2 = (min(max(x, 0.0), 1.0) for x in (x1, x2))
    return min(x1, x2), max(x1, x2)


@settings(max_examples=300, deadline=None)
@given(a_half_points())
@example((0.3, 0.49999999999999994))  # splits I, IV and V only
@example((0.5000000000000001, 2 / 3))  # splits I, II and V only
def test_region_a_half_names_only_existing_splits(point):
    assert nash_region_a_half(*point) <= a_half_splits(*point)


# the boundary lines of the paper's a = 1/2 map, as (p, q, c) for p x1 + q x2 = c
A_HALF_BOUNDARIES = ((1.0, 0.0, 0.25), (1.0, 0.0, 0.5), (1.0, 0.0, 0.75), (0.0, 1.0, 0.5),
                     (-1.0 / 3.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (-3.0, 1.0, -0.5))


@settings(max_examples=300, deadline=None)
@given(u=positions, v=positions)
def test_region_a_half_is_the_paper_map_off_its_boundaries(u, v):
    x1, x2 = min(u, v), max(u, v)
    assume(all(abs(p * x1 + q * x2 - c) > 1e-8 * math.hypot(p, q)
               for p, q, c in A_HALF_BOUNDARIES))
    assert nash_region_a_half(x1, x2) == paper_region_a_half(x1, x2)


def test_diameter_bounds():
    params = GameParams(0.3)
    good = EquilibriumProfile(Locations(0.4, 0.6), MarketOutcome(Kind.III, 0.5))
    assert nash_diameter_bounds_check(params, good)
    wide = EquilibriumProfile(Locations(0.1, 0.9), MarketOutcome(Kind.UNIQUE, 0.5))
    assert not nash_diameter_bounds_check(params, wide)
    extreme = EquilibriumProfile(Locations(0.5, 0.5), MarketOutcome(Kind.V, 1.0))
    assert nash_diameter_bounds_check(GameParams(0.5), extreme)  # a/(1-a) = 1


# points on or next to each bound: x2 - x1 = a and |1 - 2 s1| = a / (1 - a)
@st.composite
def diameter_points(draw, a):
    x1 = draw(positions)
    x2 = draw(st.one_of(positions, st.just(x1 + a),
                        st.just(x1 + a + 1e-12), st.just(x1 + a + 2e-12)))
    s1 = draw(st.one_of(positions, *(st.just(0.5 - sign * 0.5 * a / (1.0 - a) + nudge)
                                     for sign in (1.0, -1.0) for nudge in (0.0, 5e-13, 1e-12))))
    x1, x2 = min(x1, x2), min(max(x1, x2), 1.0)
    return x1, x2, min(max(s1, 0.0), 1.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), a=externalities)
@example(data=None, a=0.5)
def test_diameter_test_is_one_arithmetic_for_floats_and_arrays(data, a):
    if data is None:  # a = 1/2: both bounds met with equality at the edges
        points = [(0.25, 0.75, 0.0), (0.25, 0.75, 1.0), (0.2, 0.7 + 1e-12, 0.5)]
    else:
        points = data.draw(st.lists(diameter_points(a), min_size=1, max_size=20))
    verdicts = [_diameter_ok(a, *point) for point in points]
    assert all(type(verdict) is bool for verdict in verdicts)
    x1, x2, s1 = map(np.array, zip(*points))
    assert _diameter_ok(a, x1, x2, s1).tolist() == verdicts
    for (p1, p2, ps), verdict in zip(points, verdicts):
        profile = EquilibriumProfile(Locations(p1, p2), MarketOutcome(Kind.III, ps))
        assert nash_diameter_bounds_check(GameParams(a), profile) is verdict


def ulps(value, steps):
    """``value`` moved ``steps`` ulps up, or down for negative steps."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


ULP_STEPS = range(-3, 4)


@settings(max_examples=100, deadline=None)
@given(supremum=positions, a=externalities, p=positions, q=positions, data=st.data())
@example(supremum=0.0, a=0.5, p=0.25, q=0.75, data=None)
@example(supremum=1.0, a=0.5, p=0.5, q=0.5, data=None)
def test_nash_test_is_one_arithmetic_for_floats_and_arrays(supremum, a, p, q, data):
    # shares at the threshold supremum - NE_TOL and a few ulps either side
    shares = [ulps(supremum - NE_TOL, k) for k in ULP_STEPS]
    verdicts = [_nash_ok(share, supremum) for share in shares]
    assert all(type(verdict) is bool for verdict in verdicts)
    assert verdicts == [k >= 0 for k in ULP_STEPS]
    assert _nash_ok(np.array(shares), supremum).tolist() == verdicts
    assert _nash_ok(np.array(shares), np.full(len(shares), supremum)).tolist() == verdicts
    # is_nash against suprema whose threshold lies a few ulps either side of
    # a firm's share, the other firm's supremum 0 (it never binds)
    params = GameParams(a)
    profiles = profiles_at(params, min(p, q), max(p, q))
    profile = profiles[0] if data is None else data.draw(st.sampled_from(profiles))
    for firm, own in ((1, profile.s1), (2, profile.s2)):
        suprema = [ulps(own + NE_TOL, k) for k in ULP_STEPS]
        verdicts = [_nash_ok(own, value) for value in suprema]
        assert _nash_ok(own, np.array(suprema)).tolist() == verdicts
        for value, verdict in zip(suprema, verdicts):
            # is_nash asks for firm 1's supremum first, firm 2's second
            values = iter((value, 0.0) if firm == 1 else (0.0, value))
            with patch.object(behaviors, "_supremum", lambda a, b, x: (x, next(values))):
                assert is_nash(params, BehaviorKind.PESSIMISTIC, profile) is verdict


@settings(max_examples=100, deadline=None)
@given(bounds=st.lists(st.floats(min_value=-1.0, max_value=2.0), min_size=2, max_size=2))
@example(bounds=[0.0, 1.0])
@example(bounds=[0.5, 0.5])
def test_interval_test_is_one_arithmetic_for_floats_and_arrays(bounds):
    lo, hi = sorted(bounds)
    # shares at each widened bound and a few ulps either side: in from lo -
    # NE_TOL up, and up to hi + NE_TOL
    shares = [ulps(lo - NE_TOL, k) for k in ULP_STEPS] + [ulps(hi + NE_TOL, k) for k in ULP_STEPS]
    verdicts = [_interval_ok(lo, hi, share) for share in shares]
    assert all(type(verdict) is bool for verdict in verdicts)
    assert verdicts == [k >= 0 for k in ULP_STEPS] + [k <= 0 for k in ULP_STEPS]
    assert _interval_ok(lo, hi, np.array(shares)).tolist() == verdicts
    size = len(shares)
    assert _interval_ok(np.full(size, lo), np.full(size, hi), np.array(shares)).tolist() == verdicts
    interval = NashInterval(lo, hi)
    assert [interval.contains(share) for share in shares] == verdicts


@settings(max_examples=60, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_optimist_always_has_a_winning_deviation(a, p, q):
    params = GameParams(a)
    for profile in profiles_at(params, min(p, q), max(p, q)):
        trailing_share = min(profile.s1, profile.s2)
        opponent = profile.x1 if profile.s2 <= profile.s1 else profile.x2
        rep = deviation_payoff(params, BehaviorKind.OPTIMISTIC, 1, opponent, opponent)
        assert rep.payoff == 1.0 > trailing_share
