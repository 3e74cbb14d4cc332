"""Command-line front end: single computations, sweeps, figure data, verify.

Subcommands
-----------
market-eq         enumerate market equilibria at one location pair
nash-check        Nash verdict for one profile, with the binding deviation
nash-region       (x1, x2) scan at fixed a: every outcome with its NE flag
symmetric-region  NE shares along the symmetric diagonal x2 = 1 - x1
welfare           consumer welfare at one (x1, x2, s1)
social-opt        unconstrained welfare maximizer(s)
poa-curve         price of anarchy over an a-grid (or a single --a)
pos-curve         price of stability over an a-grid (or a single --a)
figures           emit all figure datasets into a directory
verify            run the oracle cross-check suites; nonzero exit on failure

Output is JSON (one document) or CSV (schema-versioned header); floats
are formatted to 12 significant digits so identical invocations are
byte-identical. Files are written atomically. Tables, CSV or the rows
of a JSON document, are streamed in blocks of rows as they are computed,
so no table is ever held whole. A block holds columns, and a column may be
coded: its distinct values and one index per row. Both formats render a
block column by column (:func:`_table_chunks`): each distinct value of a
coded column is converted once, its text followed by the separator that
comes after it in a row. The block's texts are laid into one flat list in
row order, a column at a time, and joined once; no row is a string of its
own. Every column of a block holds the same number of rows, or the block
raises ValueError.
A column also reuses its texts while the next block passes the same value
list object, so a list that a table shares across blocks is converted
once per table; a value list is never mutated after its block is yielded.
The region table codes all seven columns, and most of its 305k floats
repeat; ``a``, ``x1``, ``x2``, ``kind`` and ``is_ne`` are coded over lists
made once per table, and ``s1`` and ``welfare`` over lists made once per
scan block, which all the table blocks cut from that scan block share, so
they are converted per scan block. The symmetric table codes all three:
``a`` over the levels, ``x1`` over a window of the diagonal that every
level shares, and ``s1`` over 1/2, 0, 1 and each point's pair 1/2 -+ d.
Both formats need each column of a table to keep one type, and no header
name or field to need CSV quoting.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from bisect import bisect_left
from functools import lru_cache, partial
from itertools import islice
from operator import itemgetter

from .behaviors import (
    _NEUTRAL,
    _PESSIMISTIC,
    NE_TOL,
    BehaviorKind,
    NoEquilibriumError,
    _symmetric_thresholds,
    best_deviation,
    is_nash,
    neutral_nash,
    pessimistic_nash_interval,
    symmetric_pessimistic_nash_set,
)
from .model import EquilibriumProfile, GameParams, Locations, enumerate_market_equilibria
from .welfare import consumer_welfare, poa, pos, social_optimum

A_GRID_STEP = 0.005  # default sweep: 0.005 .. 0.995
REGION_GRID_DEFAULT = 201
REGION_GRID_MAX = 2001
GRID_MAX = 10**6  # verify and symmetric-region build an array per grid
REGION_HEADER = ("a", "x1", "x2", "kind", "s1", "is_ne", "welfare")
SYMMETRIC_HEADER = ("a", "x1", "s1")
CHUNK_ROWS = 2048  # rows formatted per piece of a streamed table


# the text of every float in every output: 12 significant digits
_fmt = "%.12g".__mod__


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_doc(payload: dict) -> str:
    return json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"


def _row_blocks(rows):
    """``rows`` (tuples) as blocks (:func:`_table_chunks`) of at most
    ``CHUNK_ROWS`` rows with every column uncoded; rows are taken only as
    each block is made. A small table is one block."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield [(column, None) for column in zip(*chunk)]


def _table_chunks(head, blocks, texts, frame, separator="", tail="", empty=None):
    """The text of a table document in pieces: ``head``, then one piece per
    block of ``blocks``, joined by ``separator``, then ``tail``; ``empty``
    (default ``head``) alone if there is no row.

    A block is a sequence of columns, each a pair ``(values, codes)``. With
    ``codes`` None the column holds one value per row; otherwise it is
    coded: row k holds ``values[codes[k]]``. ``texts[c](values)`` converts
    the values of column c, so a coded column converts each of its distinct
    values once however many rows repeat it. With ``frame`` = (opening,
    fields, between, closing), a row is its texts joined by ``fields``, and a
    block's piece its rows joined by ``between``, after ``opening`` and
    before ``closing``. To get there with one join per block, each text
    carries the separator that follows it: ``fields``, or ``between`` for
    the last column. Column c's texts fill slots c, c + width, ... of one
    flat list, a coded column's picked in C by ``itemgetter``; the last
    slot drops its ``between``, and the list is joined once. Every column
    of a block must hold the same number of rows: else the assignment to
    its slots raises ValueError. Blocks are taken from ``blocks`` only as
    each piece is formatted, so the memory held does not grow with the
    table.

    A column keeps the texts of its last value list, separators included,
    and reuses them while the next block passes that very list object
    (compared with ``is``, not by value), so a list that several blocks
    share is converted once per run of blocks. Precondition: a value list
    is never mutated after its block is yielded. Also, for both formats:
    each column of one table keeps one type, and no header name or field
    needs CSV quoting (no comma, quote or line break).
    """
    opening, fields, between, closing = frame
    width = len(texts)
    suffixes = [fields] * (width - 1) + [between]
    lead = None
    last = [(None, None)] * width  # per column: its last value list and their texts
    for block in blocks:
        for c, (convert, suffix, (values, codes)) in enumerate(
                zip(texts, suffixes, block, strict=True)):
            if values is not last[c][0]:
                last[c] = None, None  # frees the old texts before the new are made
                last[c] = values, [text + suffix for text in convert(values)]
            column = last[c][1]
            if codes is not None:  # itemgetter returns a bare item for one index, raises for none
                column = (itemgetter(*codes)(column) if len(codes) > 1
                          else [column[k] for k in codes])
            if c == 0:
                flat = [None] * (len(column) * width)
            flat[c::width] = column  # raises ValueError if the lengths differ
        if flat:
            if lead is None:
                yield head
                lead = ""
            flat[0] = lead + opening + flat[0]
            flat[-1] = flat[-1].removesuffix(between) + closing
            yield "".join(flat)
            lead = separator
    if lead is None:
        yield head if empty is None else empty
    elif tail:
        yield tail


def _csv_texts(values):
    """A CSV column's fields: :func:`_fmt` for floats, ``str`` for any other
    type."""
    return list(map(_fmt if values and isinstance(values[0], float) else str, values))


def _csv_chunks(header, blocks):
    """The CSV document of ``blocks`` under ``header``, in pieces
    (:func:`_table_chunks`): the schema and header lines, then the rows."""
    return _table_chunks("# schema=1\n" + ",".join(header) + "\n", blocks,
                         [_csv_texts] * len(header), ("", ",", "\n", "\n"))


def _json_texts(key, values):
    """A JSON column's fields, each ``key`` and its value's text. Floats are
    rounded to the digits of :func:`_round_floats` and printed by ``repr``,
    as ``json`` prints them; infinities and NaN raise, as with
    ``allow_nan=False``. Any other value is encoded by ``json``."""
    if values and isinstance(values[0], float):
        if not all(map(math.isfinite, values)):
            raise ValueError("Out of range float values are not JSON compliant")
        values = map(repr, map(float, map(_fmt, values)))
    else:
        values = map(json.dumps, values)
    return list(map(key.__add__, values))


def _json_chunks(header, blocks, meta):
    """:func:`_json_doc` of ``meta`` followed by the key ``"rows"``, the
    list of the rows of ``blocks`` keyed by ``header``, in pieces
    (:func:`_table_chunks`) that join to the bytes of the document built
    whole: each row an object at the depth of the document."""
    empty = _json_doc({**meta, "rows": []})
    texts = [partial(_json_texts, f"      {json.dumps(k)}: ") for k in header]
    head = empty[:-len("]\n}\n")] + "\n"  # up to '"rows": [' and its line break
    return _table_chunks(head, blocks, texts, ("    {\n", ",\n", "\n    },\n    {\n", "\n    }"),
                         ",\n", "\n  ]\n}\n", empty)


def _atomic_write(path: str, chunks):
    """Write the text ``chunks`` to ``path`` through a temporary file in
    its directory, which replaces ``path`` only once every chunk is
    written: if producing or writing a chunk fails, ``path`` keeps its old
    bytes and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, header, blocks, payload=None, **meta):
    """Write a result in ``args.format`` to ``args.out`` or stdout.

    CSV: the rows of ``blocks`` (:func:`_table_chunks`) under ``header``
    (:func:`_csv_chunks`). JSON: one document, ``payload`` when given, else
    the ``meta`` keys and the rows keyed by ``header``
    (:func:`_json_chunks`). Rows are written block by block as they are
    generated, so memory does not depend on the table size. ``--out`` is
    replaced atomically; stdout keeps the chunks written before a failure,
    so every input check must run before this call.
    """
    if args.format == "csv":
        chunks = _csv_chunks(header, blocks)
    elif payload is not None:
        chunks = (_json_doc(payload),)
    else:
        chunks = _json_chunks(header, blocks, meta)
    if getattr(args, "out", None):
        _atomic_write(args.out, chunks)
    elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # unbuffered stdout (PYTHONUNBUFFERED, -u): one raw write can end
        # short without raising, so write the rest until it is all out or fails
        sys.stdout.flush()
        for chunk in chunks:
            data = memoryview(chunk.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[sys.stdout.buffer.write(data):]
    else:
        sys.stdout.writelines(chunks)


def _params(args) -> GameParams:
    return GameParams(args.a, args.theta)


def _behavior(args) -> BehaviorKind:
    return BehaviorKind(args.behavior)


def _a_grid(behavior: BehaviorKind) -> list:
    """The default a-sweep, cut for neutral firms to the levels with an NE."""
    # bit for bit the floats of np.arange(1, 200) * A_GRID_STEP
    grid = [k * A_GRID_STEP for k in range(1, 200)]
    if behavior is _NEUTRAL:
        grid = [a for a in grid if neutral_nash(GameParams(a)) is not None]
    return grid


# ---------------------------------------------------------------------------
# subcommands


def _cmd_market_eq(args) -> int:
    params = _params(args)
    loc = Locations.from_unordered(args.x1, args.x2)
    outcomes = enumerate_market_equilibria(params, loc)
    rows = [(o.kind.value, o.s1, o.s2) for o in outcomes]
    _emit(args, ("kind", "s1", "s2"), _row_blocks(rows), {
        "a": params.a, "theta": params.theta,
        "x1": loc.x1, "x2": loc.x2,
        "count": len(outcomes),
        "outcomes": [o.as_dict() for o in outcomes],
    })
    return 0


def _cmd_nash_check(args) -> int:
    params = _params(args)
    behavior = _behavior(args)
    # --s1 is the share of the firm at --x1; sorting the locations would
    # silently hand it to the other firm
    if args.x1 > args.x2:
        raise ValueError(
            f"nash-check needs --x1 <= --x2, got x1={args.x1} > x2={args.x2}; "
            "swap the locations and pass 1 - s1 as --s1"
        )
    loc = Locations(args.x1, args.x2)
    outcome = next((o for o in enumerate_market_equilibria(params, loc)
                    if abs(o.s1 - args.s1) <= 1e-9), None)
    if outcome is None:
        raise ValueError(
            f"s1={args.s1} is not a market equilibrium at ({loc.x1}, {loc.x2})"
        )
    profile = EquilibriumProfile(loc, outcome)
    verdict = is_nash(params, behavior, profile)
    rep1 = best_deviation(params, behavior, 1, loc.x2)
    rep2 = best_deviation(params, behavior, 2, loc.x1)
    # gains equal in exact arithmetic can round either way: within NE_TOL
    # of firm 2's, firm 1's gain binds
    binding = rep1 if rep1.payoff - profile.s1 >= rep2.payoff - profile.s2 - NE_TOL else rep2
    payload = {
        "a": params.a, "theta": params.theta, "behavior": behavior.value,
        "x1": loc.x1, "x2": loc.x2, "s1": outcome.s1, "kind": outcome.kind.value,
        "is_nash": verdict,
        "binding_deviation": {
            "deviator": binding.deviator,
            "location": binding.location,
            "payoff": binding.payoff,
        },
    }
    if behavior is _PESSIMISTIC:
        payload["support_interval"] = pessimistic_nash_interval(params, loc).as_dict()
    header = ("a", "theta", "behavior", "x1", "x2", "s1", "kind", "is_nash",
              "deviator", "deviation_location", "deviation_payoff")
    row = (params.a, params.theta, behavior.value, loc.x1, loc.x2, outcome.s1,
           outcome.kind.value, int(verdict), binding.deviator,
           binding.location, binding.payoff)
    _emit(args, header, _row_blocks([row]), payload)
    return 0


def _region_rows(params, behavior, n_locations):
    """REGION_HEADER blocks (:func:`_table_chunks`) of the region scan: each
    block of the scan is cut into table blocks of at most ``CHUNK_ROWS``
    rows, in order, so no list of every row is built and no Python list or
    text grows with the scan block. ``a`` is one value; ``x1`` and ``x2``
    are coded by the scan's grid indices over the grid, ``kind`` by slot
    code over the kinds' values, ``is_ne`` over 0 and 1, and ``s1`` and
    ``welfare`` over their distinct bit patterns in the scan block.

    The value lists of ``a``, ``x1``, ``x2``, ``kind`` and ``is_ne`` are
    made once per table and shared by every block, so
    :func:`_table_chunks` converts each of them once per table. ``welfare``
    and the codes of ``s1`` and ``welfare`` are computed once per scan
    block, and its table blocks share one list of distinct ``s1`` values
    and one of ``welfare`` values, so each is converted once per scan
    block."""
    from .oracle import (
        _SLOT_VALUES,
        _consumer_welfare_array,
        _float_codes,
        _region_scan,
        _unit_grid,
    )

    xs = _unit_grid(n_locations)
    grid, a, verdicts = xs.tolist(), [params.a], [0, 1]
    for i, j, kind, s1, is_ne in _region_scan(params, behavior, n_locations):
        welfare, welfare_codes = _float_codes(_consumer_welfare_array(params, xs[i], xs[j], s1))
        s1, s1_codes = _float_codes(s1)
        for first in range(0, len(i), CHUNK_ROWS):
            rows = slice(first, first + CHUNK_ROWS)
            codes = s1_codes[rows].tolist()
            yield ((a, [0] * len(codes)), (grid, i[rows].tolist()), (grid, j[rows].tolist()),
                   (_SLOT_VALUES, kind[rows].tolist()), (s1, codes),
                   (verdicts, is_ne[rows].astype(int).tolist()),
                   (welfare, welfare_codes[rows].tolist()))


def _cmd_nash_region(args) -> int:
    params = _params(args)
    behavior = _behavior(args)
    blocks = _region_rows(params, behavior, args.grid_locations)
    _emit(args, REGION_HEADER, blocks, behavior=behavior.value, theta=params.theta)
    return 0


def _diagonal(n_points):
    """The diagonal grid's point function: index k to the float of
    np.linspace(0.0, 0.5, n_points)[k], bit for bit (k * step, and 0.5
    last)."""
    last = n_points - 1
    step = 0.5 / last
    return lambda k: 0.5 if k == last else k * step


def _symmetric_rows(a_values, n_points):
    """SYMMETRIC_HEADER blocks (:func:`_table_chunks`) along the diagonal,
    level by level of ``a_values``.

    A level's thresholds (:func:`_symmetric_thresholds`) start three ranges
    of the diagonal's points below x1 = 1/2, each at the first point at or
    past its threshold. A point's rows are its range's pattern: 1/2; then
    1/2 - d, 1/2, 1/2 + d; then 0, 1/2 - d, 1/2, 1/2 + d, 1; with
    d = (1 - 2 x1)/(2 a). The diagonal is cut into windows of
    ``CHUNK_ROWS // 5`` points, from index 0 on. A block is the points of
    one range inside one window, so it holds at most ``CHUNK_ROWS`` rows
    and no level is held whole; each level ends with one block for
    x1 = 1/2, whose rows are :func:`symmetric_pessimistic_nash_set`'s
    (there d = 0, and the tails merge into 1/2).

    The patterns are that function's sets: below 1/2, 1 - 2 x1 is at least
    1/(n_points - 1), so each gap between neighbouring values of a pattern
    is far wider than the merge tolerance ``_SYMMETRIC_GAP`` up to
    ``GRID_MAX`` points, and no value merges into another (the tests check
    this at 2, 3 and ``GRID_MAX`` points).

    Every column is coded: ``a`` by level over ``a_values``, which must be
    a list; ``x1`` over its window's points, x1 = 1/2 too; and ``s1`` over
    1/2, 0 and 1, then the block's lows and highs. Consecutive blocks in
    one window share its list, and ``a_values`` is shared by the whole
    table, so :func:`_table_chunks` converts ``a_values`` once and each
    window once per run of blocks in it: once per table when the diagonal
    fits one window, as at the figure's 201 points. Only one window is held
    at a time, so memory does not grow with ``n_points``."""
    point = _diagonal(n_points)
    half = n_points - 1  # the index of x1 = 1/2
    size = CHUNK_ROWS // 5  # points per window: five shares per point fill a block
    window = lru_cache(maxsize=1)(
        lambda first: list(map(point, range(first, min(n_points, first + size)))))
    for level, a in enumerate(a_values):
        two_a = 2.0 * a
        # the starts rise: the tails' threshold passes the ends' only for a
        # within 1e-8 of 1, where both lie below 1e-8, and so below every
        # diagonal point but 0 up to GRID_MAX points
        starts = [bisect_left(range(half), t, key=point) for t in _symmetric_thresholds(a)]
        # a point's s1 codes in each range: 1/2, 0 and 1 are codes 0, 1 and
        # 2, and its low and high take the slots beside 1/2's
        for pattern, start, end in zip(([0], [0] * 3, [1, 0, 0, 0, 2]), starts,
                                       [*starts[1:], half]):
            if start == end:
                continue
            width = len(pattern)
            for first in range(start - start % size, end, size):  # the windows the range meets
                xs = window(first)
                lo, hi = max(start, first) - first, min(end, first + size) - first
                run = hi - lo
                s1, s1_codes, x1_codes = [0.5, 0.0, 1.0], pattern * run, [0] * (width * run)
                if width > 1:
                    deltas = [(1.0 - 2.0 * x1) / two_a for x1 in xs[lo:hi]]
                    s1 += [0.5 - d for d in deltas]
                    s1 += [0.5 + d for d in deltas]
                    s1_codes[width // 2 - 1::width] = range(3, 3 + run)
                    s1_codes[width // 2 + 1::width] = range(3 + run, 3 + 2 * run)
                for i in range(width):
                    x1_codes[i::width] = range(lo, hi)
                yield (a_values, [level] * len(s1_codes)), (xs, x1_codes), (s1, s1_codes)
        first = half - half % size
        shares = symmetric_pessimistic_nash_set(GameParams(a), 0.5)
        yield ((a_values, [level] * len(shares)), (window(first), [half - first] * len(shares)),
               (list(shares), None))


def _cmd_symmetric_region(args) -> int:
    # the symmetric set does not depend on theta, so the command takes none
    blocks = _symmetric_rows([GameParams(args.a).a], args.grid_locations)
    _emit(args, SYMMETRIC_HEADER, blocks)
    return 0


def _cmd_welfare(args) -> int:
    params = _params(args)
    w = consumer_welfare(params, args.x1, args.x2, args.s1)
    payload = {"a": params.a, "theta": params.theta, "x1": args.x1,
               "x2": args.x2, "s1": args.s1, "welfare": w}
    _emit(args, tuple(payload), _row_blocks([tuple(payload.values())]), payload)
    return 0


def _cmd_social_opt(args) -> int:
    params = _params(args)
    optima = social_optimum(params)
    header = ("a", "theta", "x1", "x2", "s1", "welfare")
    rows = [(params.a, params.theta, o.x1, o.x2, o.s1, o.welfare) for o in optima]
    _emit(args, header, _row_blocks(rows), {"a": params.a, "theta": params.theta,
                                            "optima": [o.as_dict() for o in optima]})
    return 0


def _ratio_header(label):
    return ("a", "theta", "behavior", label,
            "opt_x1", "opt_x2", "opt_s1", "opt_welfare",
            "ne_x1", "ne_x2", "ne_s1", "ne_welfare")


def _ratio_rows(behavior, theta, ratio_fn, a_values):
    """The ratio table's blocks, every ratio computed before the first."""
    rows = []
    for a in a_values:
        report = ratio_fn(GameParams(a, theta), behavior)
        opt, ne = report.optimum, report.extremal_ne
        rows.append((a, theta, behavior.value, report.value, opt.x1, opt.x2, opt.s1,
                     opt.welfare, ne.profile.x1, ne.profile.x2, ne.profile.s1, ne.welfare))
    return _row_blocks(rows)


def _cmd_ratio_curve(args, ratio_fn, label) -> int:
    behavior = _behavior(args)
    # the ratio raises for optimists, and for neutral a > 1/2 on request
    a_values = [args.a] if args.a is not None else _a_grid(behavior)
    blocks = _ratio_rows(behavior, args.theta, ratio_fn, a_values)
    _emit(args, _ratio_header(label), blocks)
    return 0


def _figure_tables(theta):
    """(file name, header, blocks) of each figure dataset, one at a time;
    the symmetric and region blocks are generated as their table is written."""
    pessimistic = _PESSIMISTIC
    yield "symmetric_equilibria.csv", SYMMETRIC_HEADER, _symmetric_rows(_a_grid(pessimistic), 201)
    yield "nash_region_a_half.csv", REGION_HEADER, _region_rows(
        GameParams(0.5, theta), pessimistic, REGION_GRID_DEFAULT)
    for name, behavior, ratio_fn in (
        ("neutral_efficiency.csv", _NEUTRAL, poa),
        ("pessimistic_poa.csv", pessimistic, poa),
        ("pessimistic_pos.csv", pessimistic, pos),
    ):
        yield name, _ratio_header("value"), _ratio_rows(
            behavior, theta, ratio_fn, _a_grid(behavior))


def _cmd_figures(args) -> int:
    GameParams(0.5, args.theta)  # tables stream: reject theta before the first write
    outdir = args.out or "figures"
    for name, header, blocks in _figure_tables(args.theta):
        path = os.path.join(outdir, name)
        _atomic_write(path, _csv_chunks(header, blocks))
        print(path)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import GridSpec, verify_suites

    # the flags given; GridSpec holds the defaults
    sizes = {"n_locations": args.grid_locations, "n_shares": args.grid_shares}
    grid = GridSpec(**{name: n for name, n in sizes.items() if n is not None})
    failures = []
    for suite, ok, detail in verify_suites(args.theta, args.seed, args.instances, grid):
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {suite}: {detail}")
        if not ok:
            failures.append(suite)
    if failures:
        print(f"verification FAILED: {', '.join(failures)}")
        return 1
    print("all verification suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _bounded(minimum, maximum=None):
    """argparse type: an integer no smaller than ``minimum`` and, when
    ``maximum`` is given, no larger."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return integer


def _add_common(sub, *, needs_locations=False, needs_share=False, needs_behavior=False,
                needs_a=True, needs_theta=True):
    if needs_a:
        sub.add_argument("--a", type=float, required=True, help="externality magnitude in (0,1)")
    if needs_theta:
        sub.add_argument("--theta", type=float, default=1.0, help="intrinsic utility (default 1)")
    if needs_locations:
        sub.add_argument("--x1", type=float, required=True)
        sub.add_argument("--x2", type=float, required=True)
    if needs_share:
        sub.add_argument("--s1", type=float, required=True)
    if needs_behavior:
        sub.add_argument("--behavior", required=True,
                         choices=[b.value for b in BehaviorKind])
    sub.add_argument("--out", help="write output to this path (atomic)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locpop",
        description="Equilibria, welfare and efficiency ratios for a two-firm "
                    "location game with popularity externalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("market-eq", help="enumerate market equilibria")
    _add_common(s, needs_locations=True)
    s.set_defaults(func=_cmd_market_eq)

    s = subs.add_parser("nash-check", help="Nash verdict for one profile")
    _add_common(s, needs_locations=True, needs_share=True, needs_behavior=True)
    s.set_defaults(func=_cmd_nash_check)

    s = subs.add_parser("nash-region", help="NE scan over the location grid")
    _add_common(s, needs_behavior=True)
    # the scan is O(n^2) in time and output size; both formats stream, so
    # memory does not grow with n
    s.add_argument("--grid-locations", type=_bounded(2, REGION_GRID_MAX),
                   default=REGION_GRID_DEFAULT)
    s.set_defaults(func=_cmd_nash_region, format="csv")

    s = subs.add_parser("symmetric-region", help="NE shares along x2 = 1 - x1")
    _add_common(s, needs_theta=False)
    s.add_argument("--grid-locations", type=_bounded(2, GRID_MAX), default=501)
    s.set_defaults(func=_cmd_symmetric_region, format="csv")

    s = subs.add_parser("welfare", help="consumer welfare at one point")
    _add_common(s, needs_locations=True, needs_share=True)
    s.set_defaults(func=_cmd_welfare)

    s = subs.add_parser("social-opt", help="unconstrained welfare optimum")
    _add_common(s)
    s.set_defaults(func=_cmd_social_opt)

    for name, fn, label in (("poa-curve", poa, "poa"), ("pos-curve", pos, "pos")):
        s = subs.add_parser(name, help=f"{label} over an a-grid")
        _add_common(s, needs_behavior=True, needs_a=False)
        s.add_argument("--a", type=float, default=None,
                       help="single externality level instead of the grid")
        s.set_defaults(func=lambda args, fn=fn, label=label:
                       _cmd_ratio_curve(args, fn, label), format="csv")

    s = subs.add_parser("figures", help="emit all figure datasets")
    s.add_argument("--theta", type=float, default=1.0)
    s.add_argument("--out", help="output directory (default: figures)")
    s.set_defaults(func=_cmd_figures)

    s = subs.add_parser("verify", help="oracle cross-check suites")
    s.add_argument("--theta", type=float, default=1.0)
    s.add_argument("--seed", type=_bounded(0), default=0)
    s.add_argument("--instances", type=_bounded(0), default=1000)
    s.add_argument("--grid-locations", type=_bounded(2, GRID_MAX))
    s.add_argument("--grid-shares", type=_bounded(2, GRID_MAX))
    s.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # run() ends a closed pipe quietly
    except (NoEquilibriumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``locpop verify | head -1``): point
        # stdout at devnull so the interpreter's final flush cannot raise too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
