"""The numpy layer: array forms of the closed forms, the region scan,
brute-force oracles that re-derive the closed forms on grids, and the
cross-check suites of ``locpop verify``. ``model``, ``behaviors`` and
``welfare`` import no numpy; every numpy code path of the package is here.

- *Array forms of the closed forms*: the split enumeration, the deviation
  aggregates and consumer welfare over arrays of locations, bit for bit
  with their scalar forms. They read the condition gaps, split shares
  and split test of :mod:`locpop.model`, so each piece of arithmetic is
  written once; only the selection differs, masks and slots instead of
  branches.
- *Region scan*: :func:`_region_scan` decides every market equilibrium
  of every grid cell, one block of grid rows at a time, by the same
  arithmetic as the scalar Nash decision. The figure emitters and the
  region suites read it.
- *Brute-force oracles*: the market-equilibrium oracle checks the
  defining utility inequalities at every grid consumer for every
  candidate split, the deviation oracle maximizes over a location grid,
  and the welfare optimum oracle exhaustively searches the (x1, x2, s1)
  box. They certify the closed forms within principled grid tolerances
  and are the provenance for the frozen expected values in the test
  suite.
- *Verify suites*: :func:`verify_suites` runs the seven cross-check
  suites and yields one ``(suite, ok, detail)`` record per suite; the
  command line only prints them. The two random suites take their
  instances as arrays of unit draws, which :func:`verify_suites` draws
  from one stdlib ``random.Random(seed)``, so a run loads no
  ``numpy.random``; each flags each instance as a mismatch or not.
  The market-equilibria suite takes every instance's closed splits from
  one :func:`_equilibria_array` call, runs the pointwise test on blocks of
  instances that all fill one set of work arrays, deciding each cut from
  its two neighbouring consumers and taking running extrema only for a
  row with a sum within ``_CUT_BAND`` of the slack, and meets only the
  passing shares with the closed splits. Each instance is one
  C-contiguous row of n_shares + 1 columns, whose padding column never
  passes, so the test runs on whole rows and never on column slices.
  The best-deviation suite reads the closed-form supremum,
  :func:`behaviors._supremum`, and runs the deviation oracle's row-wise
  path, :func:`_best_deviations`, on blocks of instances of one behavior,
  every grid location per instance, with the block's ``a``, location and
  ``x_other`` flattened into three arrays of one length, not broadcast as
  columns against a row. numpy runs an operation on a column slice or
  against a (rows, 1) column markedly slower than on whole operands of
  one shape (see ``_SUITE_BLOCK_CELLS``). ``_supremum`` and
  ``_best_deviations``, looked up in this module, are where a test
  injects a fault into the closed forms the random suites check.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cached_property

import numpy as np

from . import _ORACLE_EXPORTS
from .behaviors import (
    _NEUTRAL,
    _OPTIMISTIC,
    _PESSIMISTIC,
    BehaviorKind,
    _behavior_error,
    _check_deviation_args,
    _diameter_ok,
    _interval_ok,
    _nash_ok,
    _supremum,
    pessimistic_nash_interval,
)
from .model import (
    EquilibriumProfile,
    GameParams,
    Kind,
    Locations,
    MarketOutcome,
    _Record,
    _condition_gaps,
    _is_split,
    _set_field,
    _split_shares,
)
from .welfare import OptimumPoint, _check_point, _welfare_sum, social_optimum

__all__ = _ORACLE_EXPORTS  # written once, in the package, which loads this module on first use


# ---------------------------------------------------------------------------
# array forms of the closed forms: the scalar arithmetic of model, behaviors and
# welfare over arrays, bit for bit, for the scans and grid searches below


def _equilibria_array(a, x1, x2):
    """Array form of ``model._equilibria`` over externalities ``a`` and
    locations x1 <= x2 (arrays or floats, broadcast together):
    ``(shares, unique)``.

    ``shares`` is slot-major, shape ``(5, *broadcast)``: row k holds firm
    1's share in kind k of I..V, NaN where that kind is absent, so a
    reduction over the slots runs elementwise on contiguous rows. Where
    ``unique`` (the gap exceeds ``a``) the UNIQUE split sits alone in the
    III row. Existence and shares come from the helpers the scalar
    function reads, so every decision and share agrees bit for bit; only
    the selection differs, masks and slots instead of branches. The slots
    are one array, allocated once and filled in place: I and V are set to
    0.0 and 1.0, II, III and IV clipped into their rows, and each absent
    kind then overwritten with NaN. :func:`_share_order` puts the slots in
    its (share, kind) order, ties and the a = 1/2 inversion of II and III
    included.
    """
    band, ii, iv = _condition_gaps(a, x1, x2)
    # numpy bools even for floats, so ~ negates them
    unique = np.greater(band, 0.0)
    lacks_ii = ~np.greater_equal(ii, 0.0)
    lacks_iv = ~np.less_equal(iv, 0.0)
    # not held with the slots: a block's peak memory decides whether the
    # heap it frees is handed back and faulted in again on the next block
    del band, ii, iv
    low, high, interior = _split_shares(a, x1, x2)
    shares = np.empty((5, *unique.shape))
    shares[0] = 0.0
    shares[4] = 1.0
    for row, value in ((1, low), (2, interior), (3, high)):
        _clip_unit_array(value, shares[row, ...])  # [row, ...] is a view even for one cell
    np.copyto(shares[0::4], np.nan, where=unique)
    np.copyto(shares[1, ...], np.nan, where=unique | lacks_ii)
    np.copyto(shares[2, ...], np.nan, where=~unique & (lacks_ii | lacks_iv))
    np.copyto(shares[3, ...], np.nan, where=unique | lacks_iv)
    return shares, unique


def _clip_unit_array(values, out):
    """``model._clip_unit`` of ``values`` into ``out``, bit for bit, signed
    zeros and NaN included: numpy's maximum and minimum propagate a NaN and,
    where the two operands compare equal, return the second, so -0.0 stays
    -0.0 as the scalar comparisons leave it."""
    np.maximum(0.0, values, out=out)
    return np.minimum(out, 1.0, out=out)


def _share_order(shares, *carried):
    """Put the slots of :func:`_equilibria_array` in the order of
    ``model._equilibria``, by share with ties by kind, in place, and each
    array of ``carried``, shaped like ``shares``, through the same
    exchanges: the region scan passes the slot codes, to learn the slot
    each share came from. Absent (NaN) slots stay where they are.

    Only II, III and IV can leave kind order: I (0) and V (1) bound every
    clipped share, and III exists only with both II and IV. II <= IV
    always: they are 0.5 - t and 0.5 + t for one t >= 0
    (``model._split_shares``), rounding is monotone and so is the clip. So
    two compare-exchanges of neighbours, II/III then III/IV, sort them:

    - III < II: the first swap gives III, II, IV, and II <= IV leaves it;
    - II <= III <= IV: neither swaps;
    - II <= III, IV < III: the second swap gives II, IV, III, in order as
      II <= IV.

    Each swaps only where the later share is strictly below, so ties keep
    kind order, as a stable sort does, and a NaN, which never compares
    below or above, never moves. At a = 1/2 and (0.08, 0.5) III rounds
    below II, and at a = 1/4 and (0.525, 0.55) IV below III, so neither
    exchange can go.
    """
    for lo, hi in ((1, 2), (2, 3)):
        swap = shares[hi] < shares[lo]
        for array in (shares, *carried):
            first = array[lo, ...].copy()  # [lo, ...] is a view even for one cell
            np.copyto(array[lo, ...], array[hi, ...], where=swap)
            np.copyto(array[hi, ...], first, where=swap)


# The kind of each slot code: the five slots of _equilibria_array (where
# unique, III is UNIQUE), then UNIQUE at 5, so that the kind column of
# _region_scan is one array of codes
_SLOT_KINDS = np.array([Kind.I, Kind.II, Kind.III, Kind.IV, Kind.V, Kind.UNIQUE], dtype=object)
# the value of each slot code's kind, for the kind column of a table
_SLOT_VALUES = tuple(kind.value for kind in _SLOT_KINDS)


def _float_codes(values):
    """``(distinct, codes)`` of a float64 array: its distinct values as a
    list of Python floats, and an integer array holding for each entry the
    index of its value among them. Values are told apart by their bits
    (``np.unique`` over the int64 view), so -0.0 and 0.0 stay apart, as do
    NaNs of different payloads, and ``distinct[codes[k]]`` is entry k bit
    for bit."""
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), codes


def _deviation_values(a, behavior: BehaviorKind, x_dev, x_other):
    """Array form of ``behaviors._deviation_value`` over the deviation locations
    ``x_dev``, bit for bit, with ``a``, ``x_dev`` and ``x_other`` broadcast
    together: a row of locations against columns of ``a`` and ``x_other``
    gives one row of values per instance. The slots of
    :func:`_equilibria_array` lead, so the minimum and maximum reduce
    elementwise over five rows, and the neutral mean adds the rows left to
    right in the share order of :func:`_share_order`, as
    ``behaviors._aggregate`` sums the enumeration; an absent slot adds an
    exact 0.0. Only the neutral mean orders the slots: the minimum and
    maximum do not depend on their order. The slot array becomes the
    deviator's own shares in place, 1 - s where it deviates to the right."""
    left = x_dev <= x_other
    own, _ = _equilibria_array(
        a, np.where(left, x_dev, x_other), np.where(left, x_other, x_dev))
    if behavior is _NEUTRAL:
        _share_order(own)
    np.subtract(1.0, own, out=own, where=~left)
    # fmin / fmax skip NaN, and every cell has a present slot
    if behavior is _PESSIMISTIC:
        return np.fmin.reduce(own, axis=0)
    if behavior is _OPTIMISTIC:
        return np.fmax.reduce(own, axis=0)
    if behavior is not _NEUTRAL:
        raise _behavior_error(behavior)
    absent = np.isnan(own)
    np.copyto(own, 0.0, where=absent)
    total = own[0] + own[1]
    for slot in range(2, 5):
        total += own[slot]
    # present slots counted in uint8, exact and faster than a bool sum's int64
    return total / (5 - absent.sum(axis=0, dtype=np.uint8))


def _best_deviations(a, behavior: BehaviorKind, xs, x_other):
    """The first maximum over the locations ``xs`` of each instance's
    deviation values: ``(index, value)`` arrays, one entry per instance.
    ``a`` and ``x_other`` are floats or 1-D arrays of one length, one entry
    per instance; each instance is one row of :func:`_deviation_values`,
    and every location is evaluated. The instances' ``a`` and ``x_other``,
    each repeated once per location, and the locations, tiled once per
    instance, are three flat arrays of one length, so every operation of
    :func:`_deviation_values` runs on whole contiguous operands of one
    shape, where a column broadcast against a row runs slower."""
    rows = np.size(a)
    flat = np.empty((3, rows, len(xs)))
    flat[0], flat[1], flat[2] = np.reshape(a, (-1, 1)), xs, np.reshape(x_other, (-1, 1))
    values = _deviation_values(flat[0].ravel(), behavior, flat[1].ravel(), flat[2].ravel())
    values = values.reshape(rows, len(xs))
    best = np.argmax(values, axis=1)  # the first maximum, as a scan keeping strict gains
    return best, values[np.arange(len(best)), best]


def _abs_distance_integral_array(alpha, beta, x):
    """Array form of ``welfare._abs_distance_integral``, bit for bit. Squares
    use ``np.float_power``, which calls the C library's ``pow`` as Python's
    ``** 2`` does; numpy's ``** 2`` and ``np.square`` multiply instead, and
    differ from it in about one value of 1,150. The squares, the costly
    part, are taken only for the cells strictly inside (alpha, beta), where
    the scalar form takes them."""
    outer = 0.5 * (beta * beta - alpha * alpha)
    result = x * (beta - alpha)
    left = x <= alpha
    np.subtract(result, outer, out=result, where=~left)
    np.subtract(outer, result, out=result, where=left)
    inside = (alpha < x) & (x < beta)
    result[inside] = 0.5 * (np.float_power(np.broadcast_to(x - alpha, result.shape)[inside], 2.0)
                            + np.float_power(np.broadcast_to(beta - x, result.shape)[inside], 2.0))
    return result


def _consumer_welfare_array(params: GameParams, x1, x2, s1):
    """Array form of ``welfare.consumer_welfare``, bit for bit, for inputs
    already known to lie in [0, 1]."""
    travel = _abs_distance_integral_array(0.0, s1, x1) + _abs_distance_integral_array(s1, 1.0, x2)
    return _welfare_sum(params, s1, travel)


def _unit_grid(n: int):
    """The n equally spaced points of [0, 1], both ends included: every
    location and share grid of this module."""
    return np.linspace(0.0, 1.0, n)


def _size(name: str, value, minimum: int) -> int:
    """``value`` as an int, or TypeError unless it is an integer and
    ValueError if it is below ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


class GridSpec(_Record):
    """Resolutions for the brute-force routines.

    n_locations is the location / deviation axis and n_shares the
    candidate-split axis. The market-equilibrium oracle samples one
    consumer at the midpoint of each of the n_shares - 1 share cells, so
    the cut at candidate j, counting from 0, has exactly j consumers on
    its left and every cut inside (0, 1) has a consumer half a cell
    either side.

    The grid-only arrays of the market-equilibrium, deviation and
    social-optimum oracles are built once per instance, on first use, and
    are read-only, kept in the instance ``__dict__``; equality, hashing
    and the repr see only the two resolutions.
    """

    __slots__ = ("n_locations", "n_shares", "__dict__")

    def __init__(self, n_locations: int = 2001, n_shares: int = 2001):
        _size("n_locations", n_locations, 2)
        _size("n_shares", n_shares, 2)
        _set_field(self, "n_locations", n_locations)
        _set_field(self, "n_shares", n_shares)

    @cached_property
    def _location_grid(self):
        """The n_locations locations of :func:`oracle_best_deviation` and
        :func:`oracle_social_optimum`."""
        return _read_only(_unit_grid(self.n_locations))[0]

    @cached_property
    def _share_grid(self):
        """(consumers, candidates, sign) of :func:`_cut_margins` and
        :func:`_passing_shares`: the share-cell midpoints, the candidate
        splits s1 and 2 s1 - 1. The consumers and signs are rows of the
        padded width n_shares + 1 of :func:`_share_work`: the consumers sit
        in columns 1 to n_shares - 1, between two zeros that the margins'
        sentinels replace, and the signs in columns 0 to n_shares - 1,
        before a NaN, so the padding column's sums are NaN and never pass."""
        n = self.n_shares - 1
        consumers = np.zeros(n + 2)
        consumers[1:-1] = (np.arange(n) + 0.5) / n
        candidates = _unit_grid(self.n_shares)
        sign = np.append(2.0 * candidates - 1.0, np.nan)
        return _read_only(consumers, candidates, sign)

    @cached_property
    def _optimum_grid(self):
        """(xs, ss, i1, i2, left, right) of :func:`oracle_social_optimum`:
        the location and share grids, and for each share s1 the index of the
        x1 minimizing the distance integral over [0, s1] and of the x2
        minimizing it over [s1, 1], with those two minima."""
        xs = self._location_grid
        ss = _unit_grid(self.n_shares)
        s_col = ss[:, None]
        rows = np.arange(self.n_shares)
        left = _abs_distance_integral_array(0.0, s_col, xs[None, :])
        i1 = np.argmin(left, axis=1)
        left = left[rows, i1]
        right = _abs_distance_integral_array(s_col, 1.0, xs[None, :])
        i2 = np.argmin(right, axis=1)
        right = right[rows, i2]
        return _read_only(xs, ss, i1, i2, left, right)


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def oracle_market_equilibria(params: GameParams, loc: Locations, grid: GridSpec) -> list:
    """Approximate equilibrium splits by checking the definition pointwise.

    For each candidate s1 on the share grid, every consumer left of the
    cut must weakly prefer firm 1 and every consumer right of it must
    weakly prefer firm 2, the consumers sitting at the share-cell
    midpoints. The slack (:func:`_share_slack`) is 1e-9 plus (1 + a)
    times the share-grid spacing: an exact equilibrium displaced by up to
    half a grid step perturbs the tested utility margins by at most that
    much, so the grid split nearest each true equilibrium passes. Maximal
    runs of passing candidates are collapsed to their midpoints, returned
    as Python floats in increasing order.
    """
    candidates, mask, _ = _passing_shares(params.a, loc.x1, loc.x2, grid)
    return _run_midpoints(candidates, mask[0])


def _share_slack(a, grid: GridSpec):
    """Slack of the pointwise test of :func:`oracle_market_equilibria`."""
    return 1e-9 + (1.0 + a) * (1.0 / (grid.n_shares - 1))


# Distance from the slack within which a cut's neighbour test is re-decided
# by the running extrema: about 90u (u = 2**-53), where the neighbour test
# is exact beyond 8u (see _passing_shares)
_CUT_BAND = 1e-14


def _share_work(rows: int, grid: GridSpec):
    """Work arrays of :func:`_passing_shares` for blocks of up to ``rows``
    instances at ``grid``: ``(margin, far, shift, left, right, mask,
    upper)``, one C-contiguous row of the padded width n_shares + 1 per
    instance. A block of fewer instances fills their leading rows, which
    are then contiguous too."""
    shape = (rows, grid.n_shares + 1)
    margin, far, shift, left, right = (np.empty(shape) for _ in range(5))
    mask, upper = (np.empty(shape, dtype=bool) for _ in range(2))
    return margin, far, shift, left, right, mask, upper


def _cut_margins(x1, x2, grid: GridSpec, work):
    """Firm 1's utility margins |v - x2| - |v - x1| at the consumers v of
    :func:`_passing_shares`, one row per instance, between a leading +inf
    and a trailing -inf: column k + 1 holds consumer k, so cut j has
    column j on its left and column j + 1 on its right. Written over whole
    padded rows into the leading rows of ``work``'s margins
    (:func:`_share_work`), with its far distances |v - x2| as temporary;
    the sentinels are set last."""
    consumers = grid._share_grid[0]
    x1, x2 = (np.reshape(v, (-1, 1)) for v in (x1, x2))
    margin, far = (array[:len(x1)] for array in work[:2])
    np.abs(np.subtract(consumers, x2, out=far), out=far)
    np.abs(np.subtract(consumers, x1, out=margin), out=margin)
    np.subtract(far, margin, out=margin)
    margin[:, 0] = np.inf
    margin[:, -1] = -np.inf
    return margin


def _passing_shares(a, x1, x2, grid: GridSpec, work=None):
    """The share grid of :func:`oracle_market_equilibria` and, for a block
    of instances, the mask of candidates passing its pointwise test and the
    flat indices of its passing cells, ``np.flatnonzero(mask)``:
    ``(candidates, mask, cells)``.

    ``a``, ``x1`` and ``x2`` (x1 <= x2) are floats or 1-D arrays of one
    length, one entry per instance; the mask has one row per instance.
    Only the utility margins (:func:`_cut_margins`) depend on the
    instance; the grid arrays come from ``grid``, built once. Every block
    array is written into the leading rows of ``work``
    (:func:`_share_work`), so a caller running many blocks allocates them
    once; when None they are allocated for this block. The mask is then a
    view of ``work``'s, overwritten by the next block. The test at
    cut j, with shift = a (2 s1 - 1), is ``shift + min(m[:j]) >= -slack``
    and ``shift + max(m[j:]) <= slack`` over the consumers' margins m; the
    sentinels let the cut at 0 (no consumer on its left) and the cut at 1
    (none on its right) pass that side.

    Each cut is decided from its two neighbouring consumers instead,
    ``shift + m[j-1] >= -slack`` and ``shift + m[j] <= slack``, and the
    running extrema are taken only for a row where that could differ:

    - the exact margin M(v) is non-increasing in v for x1 <= x2;
    - every computed margin lies within 3u of M (u = 2**-53), as
      consumers and locations lie in [0, 1];
    - so the running minimum left of cut j lies in [m[j-1] - 6u, m[j-1]]
      and the running maximum right of it in [m[j], m[j] + 6u];
    - each sum adds |shift| <= a < 1 to |m| <= 1, so it lies below 2 in
      magnitude and rounds by at most u: a neighbour sum and its
      running-extremum sum differ by at most 8u, and the running-extremum
      sum lies on the failing side of the neighbour sum. A cut failing a
      neighbour test fails, and one passing both farther than 8u from the
      slack passes.

    The neighbour sums run over whole padded rows: the left sums add the
    margins column for column, and the right sums the margins one element
    on in the flat view, so the padding column's right neighbour is the
    next row's leading sentinel. Its NaN sign makes both its sums NaN,
    and it never passes; the cells found in the padded stride are then
    moved to the n_shares stride of the mask, one column per row less.

    Among the passing cuts, read through their flat indices, any neighbour
    sum within ``_CUT_BAND`` (about 90u) of its bound sends its row to the
    running extrema, which recompute that row's mask and passing cells. So
    the mask is the running-extremum test's bit for bit.
    """
    candidates, sign = grid._share_grid[1:]
    n = grid.n_shares
    a = np.reshape(a, (-1, 1))
    if work is None:
        work = _share_work(len(a), grid)
    margin = _cut_margins(x1, x2, grid, work)
    shift, left, right, padded, upper = (array[:len(a)] for array in work[2:])
    slack = _share_slack(a, grid)
    np.multiply(a, sign, out=shift)
    np.add(shift, margin, out=left)
    flat = right.reshape(-1)
    np.add(shift.reshape(-1)[:-1], margin.reshape(-1)[1:], out=flat[:-1])
    flat[-1] = np.nan  # the last padding column has no next row
    np.greater_equal(left, -slack, out=padded)
    padded &= np.less_equal(right, slack, out=upper)
    cells = np.flatnonzero(padded)
    rows = cells // (n + 1)
    bound = slack[rows, 0]
    near = (left.reshape(-1)[cells] + bound <= _CUT_BAND) | (bound - flat[cells] <= _CUT_BAND)
    cells -= rows  # to the n_shares stride
    mask = padded[:, :n]
    if near.any():
        redo = np.unique(rows[near])
        margin, shift, slack = margin[redo], shift[redo, :n], slack[redo]
        prefix_min = np.minimum.accumulate(margin[:, :-1], axis=1)
        suffix_max = np.maximum.accumulate(margin[:, :0:-1], axis=1)[:, ::-1]
        mask[redo] = (shift + prefix_min >= -slack) & (shift + suffix_max <= slack)
        row, column = np.nonzero(mask[redo])
        cells = np.sort(np.concatenate([cells[~np.isin(rows, redo)],
                                        redo[row] * n + column]))
    return candidates, mask, cells


def _run_midpoints(values, mask) -> list:
    """Midpoint of ``values`` over each maximal run of ``mask``, in order.

    A run starts where the ``False``-padded mask turns on and ends one
    place before it turns off.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return (0.5 * (values[edges[0::2]] + values[edges[1::2] - 1])).tolist()


def oracle_best_deviation(params: GameParams, behavior: BehaviorKind, x_other: float,
                          grid: GridSpec):
    """Exhaustive deviation search against an opponent at ``x_other``:
    (location, payoff) at the grid argmax. Either firm deviating gets the
    same, as the firms differ only in their labels.

    The payoff map is piecewise Lipschitz in the deviation location
    (constant up to max(1/(1-a), 1/(2a)) across pieces), so the grid
    maximum trails the true supremum by at most that constant times the
    grid spacing.
    """
    _check_deviation_args(1, x_other)  # firm 1 stands for either
    xs = grid._location_grid
    [best], [value] = _best_deviations(params.a, behavior, xs, x_other)
    return float(xs[best]), float(value)


def oracle_social_optimum(params: GameParams, grid: GridSpec) -> OptimumPoint:
    """Grid argmax of consumer welfare over the full (x1, x2, s1) box.

    The welfare separates into a popularity term in s1 and one distance
    integral per firm, so for each candidate split the best x1 and x2
    can be minimized independently; the search is effectively
    n_shares * n_locations instead of cubic. Ties resolve to the
    smallest grid location, which reports the idle firm at 0 in the
    concentrated regime. Only the popularity term depends on ``params``;
    the minimized distance integrals come from ``grid``, built once.
    """
    xs, ss, i1, i2, left, right = grid._optimum_grid
    # theta + popularity - left - right, subtracted in that order
    welfare = _welfare_sum(params, ss, left) - right
    k = int(np.argmax(welfare))
    return OptimumPoint(float(xs[i1[k]]), float(xs[i2[k]]), float(ss[k]), float(welfare[k]))


# Location cells per block of the region scan: enough that numpy's per-call
# cost is spread over thousands of cells, few enough that a block's arrays
# stay small beside the interpreter; the region table writes a block in
# pieces of at most CHUNK_ROWS rows, so only the arrays grow with it. The
# benchmark's `figures` and `verify` workloads (medians of 4 runs of 10 s,
# 2 cores), for 1024 / 2048 / 4096 / 8192 cells: `figures` wall 0.149 /
# 0.137 / 0.131 / 0.129 s and peak RSS 37.78 / 38.29 / 38.94 / 38.88 MB;
# `verify` wall 0.159 / 0.150 / 0.153 / 0.145 s and peak RSS 37.30 / 37.27
# / 37.65 / 37.96 MB
_SCAN_BLOCK_CELLS = 4096


def _suprema(a: float, behavior: BehaviorKind, xs):
    """The supremum of the best deviation against each opponent location of
    the array ``xs``, as an array."""
    return np.array([_supremum(a, behavior, x)[1] for x in xs.tolist()])


def _region_scan(params: GameParams, behavior: BehaviorKind, n_locations: int):
    """Every profile on the n_locations x n_locations grid with x1 <= x2 and
    its Nash verdict, one block of consecutive grid rows of x1 at a time.

    A block has max(1, ``_SCAN_BLOCK_CELLS`` // n_locations) rows, so its
    size does not grow with the grid, and the arrays of its cells' five
    share slots are dropped before it is yielded. Yields
    ``(i, j, kind, s1, is_ne)`` per block: arrays with one entry per market
    equilibrium, cells in increasing x1 then x2 and each cell's splits in
    the order of :func:`enumerate_market_equilibria`. ``i`` and ``j`` index
    x1 and x2 in :func:`_unit_grid`. ``kind`` holds slot codes, indices
    into ``_SLOT_KINDS`` (5 for UNIQUE), so no enum member is read per
    split.
    ``is_ne`` is :func:`is_nash`'s verdict by its own test, ``_nash_ok``:
    each firm's share against the supremum of its best deviation, read from
    the table of :func:`_suprema` over the grid. Raises ValueError where
    ``is_nash`` would: a split that fails the market-equilibrium test.
    """
    a = params.a
    xs = _unit_grid(n_locations)
    suprema = _suprema(a, behavior, xs)
    index = np.arange(n_locations)
    rows = max(1, _SCAN_BLOCK_CELLS // n_locations)
    for first in range(0, n_locations, rows):
        # the cells (i, j), j >= i, of rows first.., in row-major order
        i, j = np.nonzero(index[first:first + rows, None] <= index)
        i += first
        shares, unique = _equilibria_array(a, xs[i], xs[j])
        slots = np.empty(shares.shape, dtype=np.intp)
        slots.T[...] = np.arange(5)  # slots[k] = k
        _share_order(shares, slots)
        # through the transposed view, cells stay in order and splits in share order
        cell, slot = np.nonzero(~np.isnan(shares.T))
        i, j, s1 = i[cell], j[cell], shares[slot, cell]
        kind = np.where(unique[cell], 5, slots[slot, cell])
        del shares, slots, unique, cell, slot  # not held while the block is read
        if not _is_split(a, xs[i], xs[j], s1).all():
            raise ValueError("profile outcome is not a market equilibrium for its locations")
        # firm 1 deviates against x2 from x1, firm 2 against x1 from x2
        is_ne = _nash_ok(s1, suprema[j]) & _nash_ok(1.0 - s1, suprema[i])
        yield i, j, kind, s1, is_ne


def oracle_ne_region_scan(params: GameParams, behavior: BehaviorKind, grid: GridSpec) -> list:
    """All Nash equilibria on an n_locations x n_locations location grid.

    Every cell with x1 <= x2 is enumerated and each market equilibrium
    kept iff the Nash decision accepts it, in enumeration order, as
    profiles. The neutral and optimistic region suites read this list;
    the figure emitters and the pessimistic-region suite, with its
    diameter-bound checks, read :func:`_region_scan` directly.
    """
    xs = grid._location_grid
    return [
        EquilibriumProfile(Locations(x1, x2), MarketOutcome(kind, s1))
        for i, j, kinds, s1s, is_ne in _region_scan(params, behavior, grid.n_locations)
        for x1, x2, kind, s1 in zip(xs[i[is_ne]].tolist(), xs[j[is_ne]].tolist(),
                                    _SLOT_KINDS[kinds[is_ne]], s1s[is_ne].tolist())
    ]


def oracle_consumer_welfare(params: GameParams, x1: float, x2: float, s1: float) -> float:
    """Riemann-sum welfare with 100,000 midpoint samples per segment."""
    _check_point(x1, x2, s1)
    n_consumers = 100_000
    a, theta = params.a, params.theta
    total = 0.0
    for lo, hi, x, share in ((0.0, s1, x1, s1), (s1, 1.0, x2, 1.0 - s1)):
        if hi <= lo:
            continue
        width = (hi - lo) / n_consumers
        t = lo + (np.arange(n_consumers) + 0.5) * width
        total += float(np.sum(theta + a * share - np.abs(t - x)) * width)
    return total


# ---------------------------------------------------------------------------
# verify suites: each returns (ok, detail) for verify_suites to yield

_REGION_GRID = GridSpec(n_locations=101)
_OPTIMUM_GRID = GridSpec(n_locations=201, n_shares=201)


# Cells per block of instances in the two random suites: share-grid cells in
# the market-equilibria suite, 8 instances at the default 2001 shares, each
# held as one padded row of 2002 columns (:func:`_share_work`), and a quarter
# as many location-grid cells in the best-deviation suite, 2 instances at the
# default 2001 locations, flattened into arrays of 4,002 cells
# (:func:`_best_deviations`). One instance is too small to spread numpy's
# per-call cost. Both layouts hand numpy whole contiguous operands of one
# shape: an add on 8 x 2002 blocks takes 6.6 us on whole rows, 14.5 us on the
# column slices [:, 1:] and 10.5 us on [:, 1:-1], and 11.2 us against a
# (rows, 1) column where same-shape operands take 7.4 us (2 cores, CPython
# 3.11, numpy 2.4). In-process, medians of 6 alternating processes, the padded
# rows take the market suite from 22.2 to 18.7 ms cold and 18.1 to 13.5 ms
# warm, and the flattened instances the best-deviation suite from 13.4 to
# 11.7 ms cold and 12.9 to 11.8 ms warm.
# A block that frees more heap at its end than glibc keeps has it handed back
# to the system and faulted in again on the next block; where that starts
# depends on the heap's history, down to the length of the source path. The
# market suite fills one set of work arrays for all its blocks, so its block
# size no longer decides that: with arrays allocated per block and no
# numpy.random import growing the heap first, its runs faulted 1,930 to 4,479
# pages. The best-deviation suite allocates per block: 8,192 cells faulted
# 5,000 to 5,800 pages per run at 3 of 10 source path lengths, and 16,384
# flattened cells 627 to 6,131 at every length, where 4,096 cells never fault
# more than 23; the temporaries of model._condition_gaps and
# model._split_shares grow with the block. In a verify run, seeds 1-3 at 6
# source path lengths, the padded rows take the market suite's minor faults
# from 385-412 to 354-376 and the flattened inputs best-deviation's from 3-5
# to 4-6; social-optimum, which next grows the heap past the market suite's
# high-water mark, from 106-135 to 141-166, and a whole run's from 574-618 to
# 584-621 (median 605 and 606). Measured before the padding, in perfbench's
# verify worker, seeds 1-3, 2 cores, for market blocks of 8,192 / 16,384 /
# 32,768 cells: the market suite's minor faults per run 366-386 / 347-374 /
# 656-693 and its median time 34.5 / 27.1 / 29.6 ms; the whole verify unit,
# median of 20 alternating fresh processes, 98.9 / 91.1 / 97.1 ms, against
# 106.2 ms (and 391-404 faults) with numpy's generator and per-block arrays
# at 8,192 cells
_SUITE_BLOCK_CELLS = 16384


def _uniform(units, low, high):
    """The unit draws ``units`` scaled into [low, high) column by column,
    ``low + (high - low) * units``: numpy's ``Generator.uniform`` arithmetic,
    so a generator's ``random(shape)`` scaled here is its ``uniform`` draw
    bit for bit."""
    low, high = np.array(low), np.array(high)
    return low + (high - low) * units


def _market_equilibria_suite(units, grid: GridSpec):
    """Closed-form splits against the passing shares of the
    market-equilibrium oracle on one random (a, x1, x2) per row of the
    unit draws ``units``, shape (instances, 3), scaled as a in [0.02, 0.98)
    and two locations in [0, 1); see :func:`_market_mismatches`."""
    draws = _uniform(units, [0.02, 0.0, 0.0], [0.98, 1.0, 1.0])
    x1, x2 = np.sort(draws[:, 1:], axis=1).T
    mismatches = int(np.count_nonzero(_market_mismatches(draws[:, 0], x1, x2, grid)))
    return mismatches == 0, f"{len(units)} random instances, {mismatches} mismatches"


def _market_mismatches(a, x1, x2, grid: GridSpec):
    """Per instance (a, x1, x2), whether its closed-form splits disagree with
    the passing shares of the market-equilibrium oracle, as a bool array.

    Firm 1's advantage at a cut s, f(s) = a (2s - 1) + |s - x2| - |s - x1|,
    is piecewise linear, with slope 2 - 2a in magnitude strictly inside
    (x1, x2) and 2a outside, and vanishes at every interior split. Both
    distances below follow from it:

    - the grid share nearest a split always passes, so every split needs
      a passing share within one spacing;
    - with a consumer half a cell either side of the cut, a passing share
      has |f| <= slack + spacing, so it lies within
      (slack + spacing) / |slope| of a split on its linear piece; one more
      spacing is kept as margin.

    The second test is skipped near an existence boundary, where a
    condition gap within slack + 2 spacings lets the adjacent branch pass
    the pointwise test too.

    Every instance's splits come from one :func:`_equilibria_array` call,
    one slot per kind, NaN where absent; coincident shares stay apart, which
    changes no flag, as every test is per slot or any over the slots.
    Instances run through :func:`_passing_shares` in blocks of
    ``_SUITE_BLOCK_CELLS`` share-grid cells, all filling one set of work
    arrays (:func:`_share_work`). Only the passing (instance, share) pairs,
    whose flat indices each block hands back, meet the instance's splits.
    """
    spacing = 1.0 / (grid.n_shares - 1)
    closed = _equilibria_array(a, x1, x2)[0].T
    rows = max(1, _SUITE_BLOCK_CELLS // grid.n_shares)
    work = _share_work(min(rows, len(a)), grid)
    passing = [np.empty(0, dtype=np.intp)]  # flat indices into (instance, candidate)
    for first in range(0, len(a), rows):
        block = slice(first, first + rows)
        _, _, cells = _passing_shares(a[block], x1[block], x2[block], grid, work)
        passing.append(cells + first * grid.n_shares)
    # freed first: the pairs' arrays below then reuse its heap pages, where
    # fresh ones would be faulted in
    del work
    instance, candidate = np.divmod(np.concatenate(passing), grid.n_shares)
    # one (pair, slot) array gathers each pair's splits and turns them into
    # distances in place; the reaches are gathered only after the covered test
    distance = closed[instance]
    np.subtract(grid._share_grid[1][candidate, None], distance, out=distance)
    np.abs(distance, out=distance)
    covered = np.zeros(closed.shape, dtype=bool)
    np.logical_or.at(covered, instance, distance <= spacing)
    missed = ~(covered | np.isnan(closed)).all(axis=1)
    slack = _share_slack(a, grid)
    slope = np.where((x1[:, None] < closed) & (closed < x2[:, None]),
                     2.0 - 2.0 * a[:, None], 2.0 * a[:, None])
    reach = (slack[:, None] + spacing) / slope + spacing
    within = np.less_equal(distance, np.take(reach, instance, axis=0))
    stray = np.bincount(instance[~within.any(axis=1)], minlength=len(a))
    far = np.abs(_condition_gaps(a, x1, x2)).min(axis=0) > slack + 2.0 * spacing
    return missed | (far & (stray > 0))


def _best_deviation_suite(units, grid: GridSpec):
    """Closed-form best deviations against the deviation oracle on one
    random (a, x_other) per row of the unit draws ``units``, shape
    (instances, 2), scaled into [0.05, 0.95) and [0, 1); see
    :func:`_deviation_mismatches`."""
    a, x_other = _uniform(units, [0.05, 0.0], [0.95, 1.0]).T
    mismatches = int(np.count_nonzero(_deviation_mismatches(a, x_other, grid)))
    return mismatches == 0, f"{len(units)} random instances, {mismatches} mismatches"


def _deviation_mismatches(a, x_other, grid: GridSpec):
    """Per instance (a, x_other), behaviors in turn, whether the supremum of
    the closed-form best deviation (:func:`_supremum`, as the region scan
    reads it) and the deviation oracle's maximum (:func:`_deviation_maxima`)
    disagree beyond its Lipschitz bound, as a bool array."""
    behaviors = list(BehaviorKind)
    grid_best = _deviation_maxima(a, x_other, grid)
    analytic = np.array([_supremum(a_k, behaviors[k % 3], x)[1]
                         for k, (a_k, x) in enumerate(zip(a.tolist(), x_other.tolist()))])
    lipschitz = np.maximum(1.0 / (1.0 - a), 1.0 / (2.0 * a))
    tol = 2.0 * lipschitz / (grid.n_locations - 1) + 1e-6
    return (grid_best > analytic + 1e-6) | (analytic - grid_best > tol)


def _deviation_maxima(a, x_other, grid: GridSpec):
    """The deviation oracle's maximum for each instance (a, x_other),
    behaviors in turn, as ``oracle_best_deviation`` finds it.

    The instances of one behavior (index k % 3) run together through
    :func:`_best_deviations`, one row of the location grid per instance, in
    blocks of a quarter of ``_SUITE_BLOCK_CELLS`` location cells: max(1,
    ``_SUITE_BLOCK_CELLS`` // (4 n_locations)) instances per block.
    """
    xs = grid._location_grid
    maxima = np.empty(len(a))
    rows = max(1, _SUITE_BLOCK_CELLS // (4 * grid.n_locations))
    for k, behavior in enumerate(BehaviorKind):
        members = np.arange(k, len(a), 3)
        for first in range(0, len(members), rows):
            block = members[first:first + rows]
            maxima[block] = _best_deviations(a[block], behavior, xs, x_other[block])[1]
    return maxima


def _social_optimum_suite(theta: float):
    """Closed-form optimal welfare against the welfare-optimum oracle.

    The grid optimum lies within 1e-3 of the closed form. The two welfares
    also carry the rounding of their sums at the size of theta: the closed
    ``theta + popularity - travel`` rounds twice and the grid's ``theta +
    popularity - left - right`` three times. Each result lies below
    2 theta, so each rounding is at most half an ulp of 2 theta, which is
    ``math.ulp(theta)``: five ulps in all (at theta = 1e13 one ulp is
    1.95e-3, and the gap is one ulp).
    """
    worst_gap = 0.0
    for a in np.arange(1, 20) * 0.05:
        params = GameParams(float(a), theta)
        closed = social_optimum(params)[0].welfare
        found = oracle_social_optimum(params, _OPTIMUM_GRID)
        worst_gap = max(worst_gap, abs(found.welfare - closed))
    ok = worst_gap <= 1e-3 + 5 * math.ulp(theta)
    return ok, f"max |grid - closed| welfare gap {worst_gap:.2e}"


def _pessimistic_region_suite(theta: float):
    """The pessimistic region scan against :func:`pessimistic_nash_interval`
    and the diameter bounds at three externality levels.

    Returns ``(ok, detail, half_ne)``: the third item is the scan's NE at
    a = 0.5 as arrays ``(x1, x2, s1)``, which :func:`_mirror_symmetry_suite`
    reflects.
    """
    xs = _REGION_GRID._location_grid
    disagreements = 0
    half_ne = []
    for a in (0.2, 0.5, 0.8):
        params = GameParams(a, theta)
        # lo depends on x2 only and hi on x1 only: one interval per grid value
        intervals = [pessimistic_nash_interval(params, Locations(x, x)) for x in xs.tolist()]
        lo, hi = np.array([(interval.lo, interval.hi) for interval in intervals]).T
        # clamped, lo is firm 1's supremum against x2 and hi 1 - firm 2's against x1
        suprema = _suprema(a, _PESSIMISTIC, xs)
        for bound, supremum in ((np.maximum(lo, 0.0), suprema),
                                (np.minimum(hi, 1.0), 1.0 - suprema)):
            disagreements += int(np.count_nonzero(np.abs(bound - supremum) > 1e-12))
        for i, j, _, s1, is_ne in _region_scan(params, _PESSIMISTIC, _REGION_GRID.n_locations):
            inside = _interval_ok(lo[j], hi[i], s1)
            disagreements += int(np.count_nonzero(inside != is_ne))
            ne = (xs[i[is_ne]], xs[j[is_ne]], s1[is_ne])
            disagreements += int(np.count_nonzero(~_diameter_ok(a, *ne)))
            if a == 0.5:
                half_ne.append(ne)
    detail = f"3 externality levels on a 101x101 grid, {disagreements} disagreements"
    return disagreements == 0, detail, tuple(map(np.concatenate, zip(*half_ne)))


def _mirror_symmetry_suite(half_ne):
    """The NE profiles ``(x1, x2, s1)``, as arrays, map onto themselves
    under x -> 1 - x, compared after rounding to 9 places."""
    x1, x2, s1 = half_ne

    def rounded(column):
        # each distinct value rounded once; coded by bits, every entry gets
        # its own round(v, 9). A coding by value, merging -0.0 with 0.0,
        # would give the same sets: tuples that differ only in the sign of
        # a zero compare and hash equal
        distinct, codes = _float_codes(column)
        return map([round(v, 9) for v in distinct].__getitem__, codes.tolist())

    mirrored = set(zip(*map(rounded, (x1, x2, s1))))
    reflected = set(zip(*map(rounded, (1.0 - x2, 1.0 - x1, 1.0 - s1))))
    return mirrored == reflected, f"{len(mirrored)} pessimistic NE profiles at a=0.5"


def _neutral_region_suite(theta: float):
    """Neutral NE only at the centre for a = 0.3 <= 1/2."""
    profiles = oracle_ne_region_scan(GameParams(0.3, theta), _NEUTRAL, _REGION_GRID)
    cells = {(p.x1, p.x2) for p in profiles}
    return cells == {(0.5, 0.5)}, f"NE cells at a=0.3: {sorted(cells)}"


def _optimistic_region_suite(theta: float):
    """No optimistic NE."""
    params = GameParams(0.3, theta)
    hits = len(oracle_ne_region_scan(params, _OPTIMISTIC, _REGION_GRID))
    return hits == 0, f"{hits} optimistic NE found at a=0.3"


def verify_suites(theta: float, seed: int, instances: int, grid: GridSpec):
    """Run the cross-check suites of ``locpop verify`` one at a time, in order.

    Yields ``(suite, ok, detail)`` as each suite finishes. The two random
    suites draw their instances from one stdlib ``random.Random(seed)``, in
    turn: ``instances`` market instances, three unit draws each, with the
    oracles at ``grid``, then max(60, instances // 5) deviations, two each.
    The other suites use fixed grids at intrinsic utility ``theta``. It,
    ``seed`` (a non-negative integer) and ``instances`` are checked before
    any suite runs.
    """
    GameParams(0.5, theta)  # raises on a bad theta
    seed = _size("seed", seed, 0)
    instances = _size("instances", instances, 0)
    draw = random.Random(seed).random

    def units(rows, columns):
        return np.array([draw() for _ in range(rows * columns)]).reshape(rows, columns)

    yield ("market-equilibria", *_market_equilibria_suite(units(instances, 3), grid))
    yield ("best-deviation", *_best_deviation_suite(units(max(60, instances // 5), 2), grid))
    yield ("social-optimum", *_social_optimum_suite(theta))
    ok, detail, half_ne = _pessimistic_region_suite(theta)
    yield "pessimistic-region", ok, detail
    yield ("mirror-symmetry", *_mirror_symmetry_suite(half_ne))
    yield ("neutral-region", *_neutral_region_suite(theta))
    yield ("optimistic-region", *_optimistic_region_suite(theta))
