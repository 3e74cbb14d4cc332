"""Tests for the market-equilibrium model and its closed forms."""

import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from locpop import (
    DeviationReport,
    EquilibriumCount,
    EquilibriumProfile,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    MarketOutcome,
    NashInterval,
    OptimumPoint,
    ProfileWelfare,
    RatioReport,
    consumer_utility,
    distinct_shares,
    enumerate_market_equilibria,
    is_market_equilibrium,
    market_equilibrium_count,
    mirror_locations,
    mirror_outcome,
    oracle_market_equilibria,
)
from locpop.model import (
    _clip_unit,
    _condition_gaps,
    _equilibria,
    _merge_close,
    _split_shares,
)
from locpop.oracle import _SLOT_KINDS, _clip_unit_array, _equilibria_array, _share_order

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
    assert (loc.x1, loc.x2) == (0.3, 0.7)
    assert Locations.from_unordered(0.3, 0.7) == loc
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


_LOC, _OUTCOME = Locations(0.2, 0.7), MarketOutcome(Kind.III, 0.4)
_PROFILE, _OPTIMUM = EquilibriumProfile(_LOC, _OUTCOME), OptimumPoint(0.25, 0.75, 0.5, 0.9)
# one record of each of the eleven record types, by its fields in order
RECORDS = [
    (GameParams, {"a": 0.3, "theta": 1.5}),
    (Locations, {"x1": 0.2, "x2": 0.7}),
    (MarketOutcome, {"kind": Kind.III, "s1": 0.4}),
    (EquilibriumProfile, {"locations": _LOC, "outcome": _OUTCOME}),
    (EquilibriumCount, {"count": 5, "tight": frozenset({"band", "ii"})}),
    (DeviationReport, {"deviator": 2, "location": 0.25, "payoff": 0.5,
                       "outcomes_considered": (MarketOutcome(Kind.I, 0.0), _OUTCOME)}),
    (NashInterval, {"lo": 0.2, "hi": 0.6}),
    (OptimumPoint, {"x1": 0.25, "x2": 0.75, "s1": 0.5, "welfare": 0.9}),
    (ProfileWelfare, {"profile": _PROFILE, "welfare": 0.9}),
    (RatioReport, {"value": 1.1, "optimum": _OPTIMUM,
                   "extremal_ne": ProfileWelfare(_PROFILE, 0.9)}),
    (GridSpec, {"n_locations": 31, "n_shares": 21}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    """Every record: built by position or keyword, equal and hashed by its
    fields, equal to no tuple and no record of another type, shown in the
    ``Name(field=value, ...)`` format, immutable, and rebuilt by pickle and
    copy."""
    record, values = cls(**fields), tuple(fields.values())
    assert tuple(getattr(record, name) for name in fields) == values
    same = cls(*values)
    assert same == record and not same != record and hash(same) == hash(record)
    assert hash(record) == hash(values)
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*values)
    for unequal in (values, list(values), other):
        assert record != unequal and unequal != record and not record == unequal
    if cls is not GridSpec:
        assert not hasattr(record, "__dict__")
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    for back in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(back) is cls and back == record and repr(back) == repr(record)


def test_records_of_two_types_with_the_same_values_differ():
    assert GameParams(0.3, 1.5) != NashInterval(0.3, 1.5)
    assert GameParams(0.3, 1.5).__eq__(NashInterval(0.3, 1.5)) is NotImplemented
    assert repr(GameParams(0.5)) == "GameParams(a=0.5, theta=1.0)"


def test_records_take_keywords_and_defaults():
    assert GameParams(a=0.3) == GameParams(0.3, 1.0)
    assert GridSpec(n_locations=101) == GridSpec(101, 2001)
    assert GridSpec(n_shares=11) == GridSpec(2001, 11)
    assert MarketOutcome(s1=0.0, kind=Kind.I) == MarketOutcome(Kind.I, 0.0)


def test_grid_spec_copies_by_its_resolutions_alone():
    grid = GridSpec(31, 21)
    grid._optimum_grid  # builds the cached arrays
    for back in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
        assert back == grid and "_optimum_grid" not in vars(back)


@pytest.mark.parametrize("build, message", [
    (lambda: GameParams(1.0), "a must lie strictly inside (0, 1), got 1.0"),
    (lambda: GameParams(0.0), "a must lie strictly inside (0, 1), got 0.0"),
    (lambda: GameParams(0.5, 0.5), "theta must be finite and >= 1, got 0.5"),
    (lambda: GameParams(0.5, math.inf), "theta must be finite and >= 1, got inf"),
    (lambda: Locations(0.9, 0.1), "locations must satisfy 0 <= x1 <= x2 <= 1, got (0.9, 0.1)"),
    (lambda: Locations(-0.1, 0.5), "locations must satisfy 0 <= x1 <= x2 <= 1, got (-0.1, 0.5)"),
    (lambda: MarketOutcome(Kind.II, 1.5), "s1 must lie in [0, 1], got 1.5"),
    (lambda: MarketOutcome(Kind.I, 0.1), "kind I outcomes must carry s1 = 0"),
    (lambda: MarketOutcome(Kind.V, 0.9), "kind V outcomes must carry s1 = 1"),
    (lambda: GridSpec(1), "n_locations must be at least 2, got 1"),
    (lambda: GridSpec(n_shares=0), "n_shares must be at least 2, got 0"),
], ids=range(11))
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


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


def test_utility_domain_errors():
    params = GameParams(0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        consumer_utility(params, 0.5, 0.5, 1.1)
    # a position is a float, not text to be parsed, as are x and s
    with pytest.raises(TypeError):
        consumer_utility(params, "0.5", 0.5, 0.5)


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
    # the cell alone, inside a row of cells as a region scan passes it, and
    # inside a block of rows, a column of a against a row of locations, as
    # the best-deviation suite passes it
    for a_s, x2s, at in ((a, x2, ()), (a, np.array([x1, x2, 1.0]), 1),
                         (np.array([[0.25], [a]]), np.array([x1, x2, 1.0]), (1, 1))):
        shares, unique = _equilibria_array(a_s, x1, x2s)
        shares, unique = np.moveaxis(shares, 0, -1)[at], unique[at]
        order = np.argsort(shares, kind="stable")
        found = [
            (Kind.UNIQUE if unique else _SLOT_KINDS[slot], repr(float(shares[slot])))
            for slot in order if not np.isnan(shares[slot])
        ]
        assert found == [(kind, repr(s1)) for kind, s1 in _equilibria(a, x1, x2)]


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
CLIP_SPECIALS = [-0.0, 0.0, math.nan, -math.nan, NAN_PAYLOAD, 1.0, -1.0, 2.0, math.inf,
                 -math.inf, 5e-324, -5e-324, math.nextafter(1.0, 2.0),
                 math.nextafter(1.0, 0.0), 0.5]


def test_clip_unit_array_is_clip_unit_bit_for_bit():
    """Signed zeros, NaN payloads, infinities and the neighbours of 0 and 1,
    as one cell and in rows long enough for every vector width and tail."""
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

    for value in CLIP_SPECIALS:
        expected = bits(_clip_unit(value))
        out = np.empty(())
        assert bits(_clip_unit_array(value, out)) == expected, value
        for n in range(1, 34):
            out = np.empty(n)
            assert bits(_clip_unit_array(np.full(n, value), out)) == [expected] * n, (value, n)
    mixed = np.array(CLIP_SPECIALS * 3)
    assert bits(_clip_unit_array(mixed, np.empty_like(mixed))) == bits(
        [_clip_unit(v) for v in mixed.tolist()])


def keyed_sort_reference(a, x1, x2):
    """``_equilibria`` as it sorted its splits before they were listed in
    kind order: found as I, V, II, IV, III and sorted by a (share, kind
    rank) key, as ``repr``-ed pairs so -0.0 and 0.0 stay apart."""
    band, ii, iv = _condition_gaps(a, x1, x2)
    low, high, interior = _split_shares(a, x1, x2)
    if band > 0.0:
        found = [(Kind.UNIQUE, _clip_unit(interior))]
    else:
        found = [(Kind.I, 0.0), (Kind.V, 1.0)]
        if ii >= 0.0:
            found.append((Kind.II, _clip_unit(low)))
        if iv <= 0.0:
            found.append((Kind.IV, _clip_unit(high)))
        if ii >= 0.0 and iv <= 0.0:
            found.append((Kind.III, _clip_unit(interior)))
    rank = {kind: r for r, kind in enumerate(Kind)}
    found.sort(key=lambda item: (item[1], rank[item[0]]))
    return [(kind, repr(s1)) for kind, s1 in found]


@st.composite
def boundary_heavy(draw):
    """(a, x1, x2) with x1 <= x2, mostly with the band, kind II or kind IV
    condition tight before x2 is moved up to three ulps either way."""
    a = draw(st.one_of(st.sampled_from([0.25, 0.3, 0.5, 1.0 - 0.7]), externalities))
    p = draw(st.one_of(st.sampled_from([0.0, 0.08, 0.3, 0.5, 0.7, 1.0]), positions))
    q = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), positions))
    tie = draw(st.sampled_from(["band", "ii", "iv", "none"]))
    if tie == "band":
        q = p + a
    elif tie == "ii":
        q = (1.0 - 2.0 * a) * p + a
    elif tie == "iv":
        p = (1.0 - 2.0 * a) * q + a
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        q = math.nextafter(q, 2.0 if ulps > 0 else -1.0)
    assume(0.0 <= p <= 1.0 and 0.0 <= q <= 1.0)
    return a, min(p, q), max(p, q)


@settings(max_examples=300, deadline=None)
@given(instance=boundary_heavy())
@example(instance=(0.5, 0.08, 0.5))  # III rounds below II
@example(instance=(0.5, 0.5, 0.5))   # II, III and IV all at one half
def test_equilibria_order_matches_keyed_sort(instance):
    a, x1, x2 = instance
    found = [(kind, repr(s1)) for kind, s1 in _equilibria(a, x1, x2)]
    assert found == keyed_sort_reference(a, x1, x2)


def share_order(shares):
    """``_share_order`` of a copy of ``shares``, carrying the slot codes:
    ``(ordered, slots)``, the shares and the slot each came from. The
    order without the codes must be the same, bit for bit."""
    ordered = shares.copy()
    slots = np.empty(shares.shape, dtype=np.intp)
    slots.T[...] = np.arange(5)
    _share_order(ordered, slots)
    alone = shares.copy()
    _share_order(alone)
    assert alone.view(np.int64).tolist() == ordered.view(np.int64).tolist()
    return ordered, slots


def stable_argsort_reference(shares):
    """The present slots of one cell of ``_equilibria_array`` as
    (slot, repr(share)), in the order of a stable argsort of its slots."""
    return [(int(slot), repr(float(shares[slot])))
            for slot in np.argsort(shares, kind="stable") if not np.isnan(shares[slot])]


@settings(max_examples=200, deadline=None)
@given(instance=boundary_heavy())
@example(instance=(0.5, 0.08, 0.5))     # III rounds below II
@example(instance=(0.25, 0.525, 0.55))  # IV rounds below III
@example(instance=(0.5, 0.5, 0.5))      # II, III and IV all at one half
def test_share_order_is_a_stable_argsort(instance):
    """The cell as floats, then a row of deviations against each firm, as
    _deviation_values passes them: a grid, both locations, the band edges
    around each, each one ulp either way."""
    a, x1, x2 = instance
    shares, _ = _equilibria_array(a, x1, x2)
    ordered, slots = share_order(shares)
    present = ~np.isnan(ordered)
    found = list(zip(slots[present].tolist(), map(repr, ordered[present].tolist())))
    assert found == stable_argsort_reference(shares)
    edges = [x1, x2, x1 - a, x1 + a, x2 - a, x2 + a]
    edges += [math.nextafter(x, to) for x in edges for to in (-1.0, 2.0)]
    xs = np.concatenate([np.linspace(0.0, 1.0, 41), np.clip(edges, 0.0, 1.0)])
    for x_other in (x1, x2):
        shares, _ = _equilibria_array(a, np.minimum(xs, x_other), np.maximum(xs, x_other))
        ordered, slots = share_order(shares)
        for cell in range(len(xs)):
            present = ~np.isnan(ordered[:, cell])
            found = list(zip(slots[present, cell].tolist(),
                             map(repr, ordered[present, cell].tolist())))
            assert found == stable_argsort_reference(shares[:, cell]), xs[cell]


def _paper_kinds(a, x1, x2):
    """Kinds at x1 <= x2 by the paper's comparisons, written out here."""
    if x2 - x1 > a:
        return {Kind.UNIQUE}
    has_ii = a <= x2 - (1.0 - 2.0 * a) * x1
    has_iv = x1 - (1.0 - 2.0 * a) * x2 <= a
    kinds = {Kind.I, Kind.V}
    if has_ii:
        kinds.add(Kind.II)
    if has_iv:
        kinds.add(Kind.IV)
    if has_ii and has_iv:
        kinds.add(Kind.III)
    return kinds


@pytest.mark.parametrize("a, x1, x2", [
    (0.25, 0.25, 0.5),      # band: the gap equals a
    (1.0 - 0.7, 0.7, 1.0),  # band: a is the float gap 1.0 - 0.7
    (0.3, 0.7, 1.0),        # the float gap 1.0 - 0.7 lies just above a = 0.3
    (0.5, 0.3, 0.5),        # kind II: x2 = a at a = 1/2
    (0.5, 0.5, 0.7),        # kind IV: x1 = a at a = 1/2
    (0.5, 0.5, 0.5),        # both
])
def test_existence_at_ties_and_one_ulp_beside(a, x1, x2):
    """Both enumerations decide each condition as the paper's comparison
    does, at the tie and one ulp to either side of each location."""
    for p in (math.nextafter(x1, -1.0), x1, math.nextafter(x1, 2.0)):
        for q in (math.nextafter(x2, -1.0), x2, math.nextafter(x2, 2.0)):
            if not 0.0 <= p <= q <= 1.0:
                continue
            expected = _paper_kinds(a, p, q)
            assert {kind for kind, _ in _equilibria(a, p, q)} == expected, (p, q)
            found = [(kind, repr(s1)) for kind, s1 in _equilibria(a, p, q)]
            assert found == keyed_sort_reference(a, p, q), (p, q)
            shares, unique = _equilibria_array(a, p, np.array([q]))
            slots = np.flatnonzero(~np.isnan(shares[:, 0]))
            found = {Kind.UNIQUE if unique[0] else _SLOT_KINDS[slot] for slot in slots}
            assert found == expected, (p, q)


@settings(max_examples=300, deadline=None)
@given(a=externalities, p=positions, q=positions)
def test_mirror_symmetry_of_shares(a, p, q):
    # reflection flips the split set; exact condition ties are excluded
    # because rounding the reflected instance can land across a boundary
    # (existence comparisons are deliberately tolerance-free)
    params = GameParams(a)
    loc = make_locations(p, q)
    for at in (loc, mirror_locations(loc)):
        assume(min(map(abs, _condition_gaps(a, at.x1, at.x2))) > 1e-9)
    direct = _merge_close((o.s1 for o in enumerate_market_equilibria(params, loc)), 1e-9)
    reflected = _merge_close(
        (o.s1 for o in enumerate_market_equilibria(params, mirror_locations(loc))), 1e-9
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
    for at in (loc, mirror_locations(loc)):
        assume(min(map(abs, _condition_gaps(a, at.x1, at.x2))) > 1e-9)
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
