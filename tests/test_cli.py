"""Tests for the command-line interface."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from itertools import cycle, groupby, islice, repeat
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locpop import (
    BehaviorKind,
    GameParams,
    GridSpec,
    Kind,
    Locations,
    NashInterval,
    behaviors,
    best_deviation,
    cli,
    enumerate_market_equilibria,
    neutral_nash,
    oracle,
    symmetric_pessimistic_nash_set,
    verify_suites,
)
from locpop.cli import (
    CHUNK_ROWS,
    _csv_chunks,
    _fmt,
    _json_chunks,
    _json_doc,
    _region_rows,
    _row_blocks,
    build_parser,
    main,
)

import golden_outputs
from region_reference import region_rows, unit_grid
from suite_loops import (
    loop_deviation_flags,
    loop_deviation_instances,
    loop_market_flags,
    loop_market_instances,
    uniform,
)
from table_blocks import REGION_TYPES, assert_same_columns, block_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


def test_market_eq_json(capsys):
    code, out, _ = run_cli(
        capsys, "market-eq", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    kinds = [o["kind"] for o in doc["outcomes"]]
    assert kinds == ["i", "ii", "iii", "iv", "v"]
    shares = [o["s1"] for o in doc["outcomes"]]
    assert shares == pytest.approx([0.0, 1 / 6, 0.5, 5 / 6, 1.0], abs=1e-5)
    for o in doc["outcomes"]:
        assert o["s1"] + o["s2"] == pytest.approx(1.0, abs=1e-11)


def test_market_eq_csv_matches_json(capsys):
    args = ("market-eq", "--a", "0.4", "--x1", "0.2", "--x2", "0.5")
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    doc = json.loads(out_json)
    rows = parse_csv(out_csv)
    assert len(rows) == doc["count"]
    for row, outcome in zip(rows, doc["outcomes"]):
        assert row["kind"] == outcome["kind"]
        assert float(row["s1"]) == pytest.approx(outcome["s1"], abs=1e-11)
        assert float(row["s2"]) == pytest.approx(outcome["s2"], abs=1e-11)


def test_market_eq_accepts_unordered_locations(capsys):
    code, out, _ = run_cli(
        capsys, "market-eq", "--a", "0.3", "--x1", "0.8", "--x2", "0.2",
    )
    assert code == 0
    assert json.loads(out)["x1"] == 0.2


def test_nash_check_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.4", "--x2", "0.6",
        "--s1", "0.5", "--behavior", "pessimistic",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_nash"] is True
    assert doc["binding_deviation"]["payoff"] <= 0.5
    assert doc["support_interval"]["lo"] == pytest.approx(3 / 7, abs=1e-9)
    assert doc["support_interval"]["hi"] == pytest.approx(4 / 7, abs=1e-9)
    assert doc["support_interval"]["empty"] is False

    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.5", "--x2", "0.5",
        "--s1", "0.5", "--behavior", "optimistic",
    )
    doc = json.loads(out)
    assert doc["is_nash"] is False
    assert doc["binding_deviation"]["payoff"] == 1.0


def test_nash_check_ties_go_to_firm_one(capsys):
    # neutral, a = 0.1, every split on a 41-point grid: where the two firms'
    # gains agree within 1e-9 (equal in exact arithmetic, rounded apart),
    # firm 1's deviation binds whichever gain rounded higher
    params = GameParams(0.1)
    xs = np.linspace(0.0, 1.0, 41).tolist()
    ties = 0
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            gain2 = best_deviation(params, BehaviorKind.NEUTRAL, 2, x1).payoff
            gain1 = best_deviation(params, BehaviorKind.NEUTRAL, 1, x2).payoff
            for outcome in enumerate_market_equilibria(params, Locations(x1, x2)):
                if abs((gain1 - outcome.s1) - (gain2 - outcome.s2)) > 1e-9:
                    continue
                ties += 1
                code, out, _ = run_cli(
                    capsys, "nash-check", "--a", "0.1", "--x1", repr(x1), "--x2", repr(x2),
                    "--s1", repr(outcome.s1), "--behavior", "neutral",
                )
                assert code == 0
                assert json.loads(out)["binding_deviation"]["deviator"] == 1, (x1, x2, outcome)
    assert ties == 333


def test_nash_check_rejects_non_equilibrium_share(capsys):
    code, _, err = run_cli(
        capsys, "nash-check", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667",
        "--s1", "0.25", "--behavior", "neutral",
    )
    assert code == 2
    assert "not a market equilibrium" in err


def test_nash_check_refuses_swapped_locations(capsys):
    # firm 1 at 0.6 holds 0.642857142857 and firm 2 at 0.2 holds the rest;
    # sorting the locations would read --s1 as the share of the firm at 0.2
    for s1 in ("0.642857142857", "0.357142857143"):
        code, out, err = run_cli(
            capsys, "nash-check", "--a", "0.3", "--x1", "0.6", "--x2", "0.2",
            "--s1", s1, "--behavior", "pessimistic",
        )
        assert code == 2 and out == ""
        assert "nash-check needs --x1 <= --x2, got x1=0.6 > x2=0.2" in err
    code, out, _ = run_cli(
        capsys, "nash-check", "--a", "0.3", "--x1", "0.2", "--x2", "0.6",
        "--s1", "0.357142857143", "--behavior", "pessimistic",
    )
    assert code == 0
    assert json.loads(out)["s1"] == pytest.approx(5 / 14, abs=1e-12)


def test_welfare_and_social_opt(capsys):
    code, out, _ = run_cli(
        capsys, "welfare", "--a", "0.4", "--x1", "0.3", "--x2", "0.3", "--s1", "0.5",
    )
    assert code == 0
    assert json.loads(out)["welfare"] == pytest.approx(0.91, abs=1e-9)

    code, out, _ = run_cli(capsys, "social-opt", "--a", "0.25")
    doc = json.loads(out)
    assert len(doc["optima"]) == 2
    assert doc["optima"][0]["welfare"] == pytest.approx(1.0)


def test_poa_curve_neutral_minimum(capsys):
    code, out, _ = run_cli(
        capsys, "poa-curve", "--behavior", "neutral", "--theta", "1", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert max(float(r["a"]) for r in rows) == pytest.approx(0.5)
    best = min(rows, key=lambda r: float(r["poa"]))
    assert float(best["a"]) == pytest.approx(0.25)
    assert float(best["poa"]) == pytest.approx(8 / 7, abs=1e-9)


def test_pos_curve_pessimistic_saturates(capsys):
    code, out, _ = run_cli(
        capsys, "pos-curve", "--behavior", "pessimistic", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    tail = [r for r in rows if float(r["a"]) > 0.5]
    assert tail and all(float(r["pos"]) == 1.0 for r in tail)


def test_curves_refuse_optimistic(capsys):
    for argv in (("poa-curve",), ("pos-curve",), ("poa-curve", "--a", "0.25"),
                 ("pos-curve", "--a", "0.25")):
        code, out, err = run_cli(capsys, *argv, "--behavior", "optimistic")
        assert code == 1
        assert out == ""
        assert err == "error: no equilibrium exists for optimistic firms\n"


def test_single_point_curve_and_neutral_cutoff(capsys):
    code, out, _ = run_cli(
        capsys, "poa-curve", "--behavior", "neutral", "--a", "0.25", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["poa"] == pytest.approx(8 / 7)

    code, _, err = run_cli(capsys, "pos-curve", "--behavior", "neutral", "--a", "0.75")
    assert code == 1
    assert "no equilibrium exists" in err


def test_flag_errors_exit_two(capsys):
    assert run_cli(capsys, "market-eq", "--a", "1.5", "--x1", "0.1", "--x2", "0.2")[0] == 2
    assert run_cli(capsys, "market-eq", "--a", "0.5", "--x1", "0.1")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    code, out, err = run_cli(capsys, "welfare", "--a", "0.4", "--theta", "inf",
                             "--x1", "0.3", "--x2", "0.3", "--s1", "0.5")
    assert code == 2 and out == "" and "finite" in err
    for argv in (
        ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations", "0"),
        ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations", "1"),
        ("symmetric-region", "--a", "0.5", "--grid-locations", "0"),
        ("symmetric-region", "--a", "0.5", "--grid-locations", "1"),
        ("verify", "--grid-locations", "0"),
        ("verify", "--grid-locations", "1"),
        ("verify", "--grid-shares", "0"),
        ("verify", "--instances", "-5"),
        ("verify", "--seed", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "at least" in err
    # consumers sit at the share-cell midpoints: no grid of their own
    code, out, err = run_cli(capsys, "verify", "--grid-consumers", "1000")
    assert code == 2 and out == "" and "unrecognized arguments: --grid-consumers" in err
    # the symmetric set does not depend on theta: no flag for it
    code, out, err = run_cli(capsys, "symmetric-region", "--a", "0.5", "--theta", "1")
    assert code == 2 and out == "" and "unrecognized arguments: --theta 1" in err
    region = ("nash-region", "--a", "0.5", "--behavior", "pessimistic", "--grid-locations")
    code, out, err = run_cli(capsys, *region, "2002")
    assert code == 2 and out == "" and "must be at most 2001" in err
    assert build_parser().parse_args([*region, "2001"]).grid_locations == 2001
    # the grids of verify and symmetric-region: parsed only, so no array
    # of that size is built
    parser = build_parser()
    for argv, dest in ((("verify", "--grid-locations"), "grid_locations"),
                       (("verify", "--grid-shares"), "grid_shares"),
                       (("symmetric-region", "--a", "0.5", "--grid-locations"), "grid_locations")):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "1000001"])
        assert exc.value.code == 2
        assert "must be at most 1000000" in capsys.readouterr().err
        assert getattr(parser.parse_args([*argv, "1000000"]), dest) == 10**6


def test_json_output_is_strict():
    with pytest.raises(ValueError):
        _json_doc({"welfare": float("nan")})
    with pytest.raises(ValueError):
        "".join(_json_chunks(("welfare",), _row_blocks([(0.5,), (float("nan"),)]), {}))
    # inf, -inf and nan in a float and in an np.float64 column, in the first
    # row, a later row and the first row of a later chunk: each raises, as the
    # whole document does under json.dumps(allow_nan=False)
    header, good = ("float", "float64"), (0.5, np.float64(0.25))
    for value in ("inf", "-inf", "nan"):
        for column, make in enumerate((float, np.float64)):
            bad = tuple(make(value) if k == column else v for k, v in enumerate(good))
            for at in (0, 1, CHUNK_ROWS):
                rows = [good] * at + [bad, good]
                with pytest.raises(ValueError):
                    json_doc_reference(header, rows, {})
                with pytest.raises(ValueError):
                    "".join(_json_chunks(header, _row_blocks(rows), {}))


def test_outputs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        code = main([
            "nash-region", "--a", "0.5", "--behavior", "pessimistic",
            "--grid-locations", "21", "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_nash_region_rows(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main([
        "nash-region", "--a", "0.3", "--behavior", "pessimistic",
        "--grid-locations", "21", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    rows = parse_csv(out.read_text())
    assert {r["kind"] for r in rows} >= {"unique", "i", "v"}
    ne_rows = [r for r in rows if r["is_ne"] == "1"]
    assert ne_rows
    for r in ne_rows:
        assert float(r["x2"]) - float(r["x1"]) <= 0.3 + 1e-9


# the table of `locpop nash-region` is the stdlib reference's, which
# test_oracle also holds the block scan's table and NE profiles to at every
# grid it tests
@pytest.mark.parametrize("a, behavior, n_locations", [
    *[(a, behavior, 41) for a in (0.2, 0.25, 0.5, 0.8) for behavior in BehaviorKind],
    (0.5, BehaviorKind.PESSIMISTIC, 201),
])
def test_region_rows_match_scalar_reference(a, behavior, n_locations):
    rows = block_rows(_region_rows(GameParams(a), behavior, n_locations))
    # bit for bit and type for type, as the CSV and JSON writers see them
    assert_same_columns(rows, region_rows(a, behavior, n_locations), REGION_TYPES)
    if n_locations == 201:
        # III rounds below II on these cells at a = 1/2: their splits, in
        # share order, are not in kind order
        rank = {kind.value: r for r, kind in enumerate(Kind)}
        cells = [[rank[row[3]] for row in cell] for _, cell in groupby(rows, itemgetter(1, 2))]
        assert sum(ranks != sorted(ranks) for ranks in cells) == 45


def assert_same_document(got, want):
    """``got == want`` exactly. A difference fails with the lengths and a
    short window at the first differing offset, not with pytest's diff of
    two documents that can run to megabytes and take minutes to build."""
    if got == want:
        return
    at = len(os.path.commonprefix([got, want]))
    window = slice(max(at - 40, 0), at + 40)
    pytest.fail(f"documents differ: lengths {len(got)} and {len(want)}, first at offset "
                f"{at}:\n  got  {got[window]!r}\n  want {want[window]!r}", pytrace=False)


def csv_doc_reference(header, rows):
    """The CSV document as ``csv.writer`` with ``_fmt`` per float writes it."""
    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def json_doc_reference(header, rows, meta):
    """The JSON row document as it was built whole before it streamed."""
    return _json_doc({**meta, "rows": [dict(zip(header, r)) for r in rows]})


# the reference document of cli._<format>_chunks, from its arguments with rows for blocks
DOC_REFERENCES = {"csv": csv_doc_reference, "json": json_doc_reference}


def csv_doc(header, rows):
    return "".join(_csv_chunks(header, _row_blocks(rows)))


TABLE_ARGV = [
    *[("nash-region", "--a", a, "--behavior", behavior.value, "--grid-locations", "41")
      for a in ("0.3", "0.5") for behavior in BehaviorKind],
    ("symmetric-region", "--a", "0.5", "--grid-locations", "101"),
    ("poa-curve", "--behavior", "pessimistic"),
    ("pos-curve", "--behavior", "neutral", "--theta", "1.5"),
]


def assert_reference_document(argv, monkeypatch, capsys, tmp_path):
    """The document of ``argv`` is its format's reference document, built from
    the rows the writer was given, on stdout and in its ``--out`` file."""
    fmt = "json" if argv[-1] == "json" else "csv"
    name = f"_{fmt}_chunks"
    writer, tables = getattr(cli, name), []

    def recording(header, blocks, *meta):
        blocks = list(blocks)
        tables.append((header, block_rows(blocks), *meta))
        return writer(header, blocks, *meta)

    monkeypatch.setattr(cli, name, recording)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    [(header, rows, *meta)] = tables
    assert rows
    assert_same_document(out, DOC_REFERENCES[fmt](header, rows, *meta))
    path = tmp_path / f"table.{fmt}"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert_same_document(path.read_text(), out)


# the tables in CSV, their default, and the single-point commands, whose JSON
# is a document of their own
@pytest.mark.parametrize("argv", [
    *TABLE_ARGV,
    ("nash-check", "--a", "0.3", "--x1", "0.4", "--x2", "0.6", "--s1", "0.5",
     "--behavior", "pessimistic", "--format", "csv"),
    ("market-eq", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667", "--format", "csv"),
    ("social-opt", "--a", "0.25", "--format", "csv"),
    ("welfare", "--a", "0.4", "--x1", "0.3", "--x2", "0.3", "--s1", "0.5", "--format", "csv"),
], ids=" ".join)
def test_csv_doc_is_the_csv_writer(argv, monkeypatch, capsys, tmp_path):
    assert_reference_document(argv, monkeypatch, capsys, tmp_path)


@pytest.mark.parametrize("argv", TABLE_ARGV, ids=" ".join)
def test_json_rows_are_the_whole_document(argv, monkeypatch, capsys, tmp_path):
    assert_reference_document((*argv, "--format", "json"), monkeypatch, capsys, tmp_path)


EDGE_HEADER = ("float", "float64", "int", "bool", "str")
EDGE_ROWS = [
    (0.1 + 0.2, np.float64(1 / 3), 7, True, "unique"),
    (1e16, np.float64(-0.0), -3, False, "iv"),
    (123456789012345.0, np.float64(2.5e-300), 10**20, True, "v"),
    (float("inf"), np.float64("nan"), 0, False, ""),
]


def test_csv_doc_edge_tables():
    assert_same_document(csv_doc(("a", "b"), []), "# schema=1\na,b\n")
    assert_same_document(csv_doc_reference(("a", "b"), []), "# schema=1\na,b\n")
    reference = csv_doc_reference(EDGE_HEADER, EDGE_ROWS)
    assert_same_document(csv_doc(EDGE_HEADER, EDGE_ROWS), reference)
    assert_same_document(csv_doc(EDGE_HEADER, iter(EDGE_ROWS)), reference)


# row counts one short of, at and one past a whole number of pieces, for one,
# two and four pieces
CHUNK_BOUNDARY_ROWS = [
    CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
    2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1, 4 * CHUNK_ROWS + 1,
]


JSON_ROWS = [
    (0.1 + 0.2, np.float64(1 / 3), 7, True, "unique"),
    (1e16, np.float64(-0.0), -3, False, 'a "quote", a \\ and a\nbreak'),
    (123456789012345.0, np.float64(2.5e-300), 10**20, True, "caf\u00e9"),
]


# (format, row count, meta) to the reference document, built by the first
# of the two row sources to run and taken by the other
CHUNK_REFERENCES = {}


# the rows each format cycles through: CSV writes infinities and NaN, which
# JSON rejects; JSON escapes quotes, backslashes and line breaks
@pytest.mark.parametrize("fmt, cycled, meta", [
    ("csv", EDGE_ROWS, ()), ("json", JSON_ROWS, ({},)),
    ("json", JSON_ROWS, ({"behavior": "pessimistic", "theta": 1.0},)),
], ids=["csv", "json no meta", "json meta"])
@pytest.mark.parametrize("source", ["list", "generator"])
@pytest.mark.parametrize("n_rows", [0, 1, 2, *CHUNK_BOUNDARY_ROWS])
def test_chunks_at_chunk_boundaries(n_rows, source, fmt, cycled, meta):
    rows = list(islice(cycle(cycled), n_rows))
    chunks = list(getattr(cli, f"_{fmt}_chunks")(EDGE_HEADER, _row_blocks(
        rows if source == "list" else (r for r in rows)), *meta))
    key = fmt, n_rows, repr(meta)
    if key in CHUNK_REFERENCES:
        reference = CHUNK_REFERENCES.pop(key)
    else:
        reference = CHUNK_REFERENCES[key] = DOC_REFERENCES[fmt](EDGE_HEADER, rows, *meta)
    assert_same_document("".join(chunks), reference)
    if not rows:
        assert chunks == [reference]
        return
    # the head alone, then full chunks of rows and a shorter last one; in
    # JSON, the closing alone after them
    full, rest = divmod(n_rows, CHUNK_ROWS)
    sizes = [CHUNK_ROWS] * full + [rest] * (rest > 0)
    if fmt == "csv":
        assert chunks[0] == "# schema=1\n" + ",".join(EDGE_HEADER) + "\n"
        assert [piece.count("\n") for piece in chunks[1:]] == sizes
    else:  # up to '"rows": [' and its line break; each row ends its object
        assert chunks[0] == reference[:reference.index("    {\n")]
        assert [piece.count("\n    }") for piece in chunks[1:-1]] == sizes
        assert chunks[-1] == "\n  ]\n}\n"


def test_json_chunks_encode_header_keys():
    # keys are json-encoded into each field, a "%" among them included
    header = ("100%", 'a "key"', "café", "%s")
    rows = [(0.1, 1, "x", False), (2.5e-300, -2, "%d", True)]
    assert_same_document("".join(_json_chunks(header, _row_blocks(rows), {})),
                         json_doc_reference(header, rows, {}))


# A streaming writer holds about one block of rows however long the table
# (about 1.4 MB traced here at 3 and at 12 blocks of CHUNK_ROWS rows); one
# that joins the whole document first grows with it (1.7 MB at 3 blocks,
# 3.1 MB at 12)
def test_csv_memory_stays_bounded(tmp_path, monkeypatch):
    row = (0.5, 0.123456789, 0.876543211, "unique", 0.0411522633, 1, 0.882363809524)
    peaks = {}
    with open(os.devnull, "w") as stdout:
        for chunks in (3, 12):
            path = tmp_path / f"table{chunks}.csv"
            for name, out in (("--out", str(path)), ("stdout", None)):
                monkeypatch.setattr(sys, "stdout", stdout)
                tracemalloc.start()
                try:
                    cli._emit(argparse.Namespace(format="csv", out=out), cli.REGION_HEADER,
                              _row_blocks(repeat(row, chunks * CHUNK_ROWS)))
                    peaks[name, chunks] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                    monkeypatch.undo()
            with path.open() as handle:
                assert sum(1 for _ in handle) == chunks * CHUNK_ROWS + 2
    for name in ("--out", "stdout"):
        assert peaks[name, 12] <= peaks[name, 3] + 128 * 2**10, peaks
        assert peaks[name, 12] < 4 * 2**20, peaks


# 20,000 rows make a 3.6 MB document: built whole, with a dict per row, it
# peaked near 40 MB; streamed, near the encoding of one chunk of rows
def test_json_memory_stays_bounded(tmp_path):
    n_rows = 20_000
    row = (0.5, 0.123456789, 0.876543211, "unique", 0.0411522633, 1, 0.882363809524)
    path = tmp_path / "table.json"
    tracemalloc.start()
    try:
        cli._emit(argparse.Namespace(format="json", out=str(path)), cli.REGION_HEADER,
                  _row_blocks(repeat(row, n_rows)), behavior="pessimistic", theta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
    assert len(json.loads(path.read_text())["rows"]) == n_rows


def test_failed_table_leaves_out_untouched(tmp_path, monkeypatch, capsys):
    path = tmp_path / "symmetric.csv"
    path.write_bytes(b"old bytes\n")
    partial = []

    def failing_rows(a_values, n_points):
        for i in range(3 * CHUNK_ROWS + 5):
            yield a_values[0], i / n_points, 0.5
        # three blocks have reached the temporary file by now
        partial.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
        raise ValueError("a row failed mid-stream")

    monkeypatch.setattr(cli, "_symmetric_rows", lambda *args: _row_blocks(failing_rows(*args)))
    code, out, err = run_cli(capsys, "symmetric-region", "--a", "0.5", "--out", str(path))
    assert code == 2 and out == "" and err == "error: a row failed mid-stream\n"
    assert len(partial) == 1 and partial[0] > 0
    assert path.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_symmetric_region_rows(capsys):
    code, out, _ = run_cli(
        capsys, "symmetric-region", "--a", "0.5", "--grid-locations", "11",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    by_x1 = {}
    for r in rows:
        by_x1.setdefault(float(r["x1"]), []).append(float(r["s1"]))
    assert by_x1[0.5] == [0.0, 0.5, 1.0]
    assert 0.1 not in by_x1  # beyond reach below (1-a)/2


def symmetric_reference(a_values, n_points):
    """The symmetric rows point by point, through the public closed form."""
    xs = np.linspace(0.0, 0.5, n_points).tolist()
    return [(a, x1, s1) for a in a_values for x1 in xs
            for s1 in symmetric_pessimistic_nash_set(GameParams(a), x1)]


def symmetric_block_rows(a_values, n_points):
    """The rows of ``cli._symmetric_rows``, whose blocks must keep its rule:
    each block holds one level and 1 to ``CHUNK_ROWS`` rows, and each level
    ends with a block of x1 = 1/2 alone."""
    blocks = [block_rows([block]) for block in cli._symmetric_rows(a_values, n_points)]
    ends = [{row[1] for row in rows} == {0.5} for rows in blocks]
    assert sum(ends) == len(a_values) and ends[-1]
    levels = iter(a_values)
    a = next(levels)
    for rows, level_ends in zip(blocks, ends):
        assert 0 < len(rows) <= CHUNK_ROWS
        assert {row[0] for row in rows} == {a}
        if level_ends:
            a = next(levels, None)
    return [row for rows in blocks for row in rows]


def assert_symmetric_rows_exact(a_values, n_points):
    rows = symmetric_block_rows(a_values, n_points)
    assert_same_columns(rows, symmetric_reference(a_values, n_points), (float, float, float))


# (a, n_points, threshold): the threshold of _symmetric_thresholds(a), 0 for
# 1/2, 1 for the tails, 2 for {0, 1}, lies exactly on a diagonal point
SYMMETRIC_EDGES = [
    (0.24999999849999996, 5, 0), (0.89499999979, 201, 0),
    (0.7071067808936543, 3, 1), (0.9082951061375426, 201, 1), (0.975448614716379, 2001, 1),
    (0.74999999975, 3, 2), (0.4999999994999999, 3, 2), (0.9474999999475, 201, 2),
    (0.98424999998425, 2001, 2),
]


@pytest.mark.parametrize("a, n_points, threshold", SYMMETRIC_EDGES)
def test_symmetric_edge_cases_sit_on_the_diagonal(a, n_points, threshold):
    edge = behaviors._symmetric_thresholds(a)[threshold]
    assert edge in np.linspace(0.0, 0.5, n_points).tolist()
    assert_symmetric_rows_exact([a], n_points)


unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


# a level at 2001 points can fill several blocks of each range
@settings(max_examples=60, deadline=None)
@given(a_values=st.lists(unit_open, min_size=1, max_size=3),
       n_points=st.integers(min_value=2, max_value=2001))
@example(a_values=[0.005, 0.5, 0.995], n_points=2001)
@example(a_values=[a for a, _, _ in SYMMETRIC_EDGES if a > 0.9], n_points=2001)
# the second level's tails threshold lies above its ends threshold, as only
# within 1e-8 of a = 1
@example(a_values=[0.9999999999999999, 0.9999999925669992], n_points=2001)
def test_symmetric_rows_are_the_closed_form_bit_for_bit(a_values, n_points):
    assert_symmetric_rows_exact(a_values, n_points)


# the largest float below 1, the level whose pattern gap was the smallest
# found over many grids and levels (3.3e-7), and three more down to 1e-300
@pytest.mark.parametrize("n_points", [2, 3, cli.GRID_MAX])
def test_symmetric_patterns_do_not_merge_below_one_half(n_points):
    """``cli._symmetric_rows`` writes each point below x1 = 1/2 as its
    range's whole pattern of 1, 3 or 5 shares, with no merge test: each gap
    between neighbouring values of a pattern must be wider than the
    ``_merge_close`` tolerance of ``symmetric_pessimistic_nash_set``, in the
    float arithmetic of both, and the ranges must come in threshold order."""
    x1 = np.linspace(0.0, 0.5, n_points)[:-1]
    for a in (math.nextafter(1.0, 0.0), 0.9999996663067081, 0.5, 0.25, 1e-300):
        thresholds = behaviors._symmetric_thresholds(a)
        assert 0.0 < min(thresholds)  # x1 = 0 lies below all three
        center, tails, ends = np.searchsorted(x1, thresholds)
        assert center <= tails <= ends
        d = (1.0 - 2.0 * x1[tails:]) / (2.0 * a)
        low, high = 0.5 - d, 0.5 + d
        gaps = [0.5 - low, high - 0.5, (low - 0.0)[ends - tails:], (1.0 - high)[ends - tails:]]
        assert all(np.all(gap > behaviors._SYMMETRIC_GAP) for gap in gaps), a


# one column's values that a coding by value would confuse: the two zeros,
# two NaN objects of different payloads, a float and an np.float64 of one
# value, and both infinities
CODED_VALUES = [
    0.0, -0.0, float("nan"), struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0],
    0.1 + 0.2, np.float64(0.1 + 0.2), math.inf, -math.inf,
]


def coded_blocks(rows, cut):
    """``rows`` (value, value) as blocks cut before row ``cut`` (one block
    at either end): the first column coded by bits through
    ``oracle._float_codes``, as the region rows code theirs, the second
    plain."""
    for part in (rows[:cut], rows[cut:]):
        if part:
            values = [value for value, _ in part]
            distinct, codes = oracle._float_codes(np.array(values))
            yield (distinct, codes.tolist()), (values, None)


def test_coded_columns_are_exact():
    """A coded column writes each row's value as a plain one does, in one
    block and across a block boundary, in CSV; in JSON it raises wherever
    the document built whole raises, and is that document elsewhere."""
    header = ("coded", "plain")
    finite = [v for v in CODED_VALUES if math.isfinite(v)]
    tables = [CODED_VALUES, finite, *([*finite, v] for v in CODED_VALUES if not math.isfinite(v))]
    for values in tables:
        rows = [(v, v) for v in values * 2]
        for cut in range(len(rows) + 1):
            blocks = list(coded_blocks(rows, cut))
            assert_same_document("".join(_csv_chunks(header, blocks)),
                                 csv_doc_reference(header, rows))
            try:
                whole = json_doc_reference(header, rows, {})
            except ValueError:
                with pytest.raises(ValueError):
                    "".join(_json_chunks(header, blocks, {}))
            else:
                assert_same_document("".join(_json_chunks(header, blocks, {})), whole)


def test_table_chunks_reuse_the_texts_of_one_list():
    """A column converts a value list once while consecutive blocks pass
    that very list; an equal but new list is converted again, and so is
    the first list when it comes back after another."""
    converted = []

    def texts(values):
        converted.append(values)
        return list(map(str, values))

    shared, equal = [1, 2], [1, 2]
    blocks = [[(shared, [0, 1])], [(shared, [1, 1])], [(equal, [0])], [(shared, None)]]
    text = "".join(cli._table_chunks("h\n", blocks, [texts], ("", ",", "\n", "\n")))
    assert text == "h\n1\n2\n2\n2\n1\n1\n2\n"
    assert len(converted) == 3
    assert converted[0] is shared and converted[1] is equal and converted[2] is shared


# (head, frame, separator, tail) of each format's table document
TABLE_FRAMES = {
    "csv": ("h\n", ("", ",", "\n", "\n"), "", ""),
    "json": ("[\n", ("    {\n", ",\n", "\n    },\n    {\n", "\n    }"), ",\n", "\n]\n"),
}


def keyed_texts(key):
    """A column's converter: each value's ``str`` after ``key``."""
    return lambda values: [key + str(value) for value in values]


@pytest.mark.parametrize("fmt", sorted(TABLE_FRAMES))
@pytest.mark.parametrize("coded", [(True, True, True), (False, False, False),
                                   (True, False, True)], ids=["coded", "uncoded", "mixed"])
@pytest.mark.parametrize("sizes", [[0], [1], [2], [CHUNK_ROWS], [2, 0, 1, CHUNK_ROWS, 1]],
                         ids=["0", "1", "2", "CHUNK_ROWS", "several"])
def test_table_chunks_match_a_per_row_join(sizes, coded, fmt):
    """``cli._table_chunks`` gives the pieces of a plain per-row join: each
    row its fields joined by ``fields``, each block its rows joined by
    ``between``, blocks with rows joined by ``separator``. Coded columns of
    0 and 1 rows take the paths that ``itemgetter`` cannot."""
    head, frame, separator, tail = TABLE_FRAMES[fmt]
    opening, fields, between, closing = frame
    blocks, pieces, start = [], [], 0
    for n_rows in sizes:
        block, rows = [], [[] for _ in range(n_rows)]
        for c, is_coded in enumerate(coded):
            distinct = [10 * c + k for k in range(5)]
            codes = [(start + i) * (c + 3) % 5 for i in range(n_rows)]
            block.append((distinct, codes) if is_coded else ([distinct[k] for k in codes], None))
            for row, k in zip(rows, codes):
                row.append(f"k{c}={distinct[k]}")
        blocks.append(block)
        if rows:
            lead = separator if pieces else ""
            pieces.append(lead + opening + between.join(map(fields.join, rows)) + closing)
        start += n_rows
    expected = [head, *pieces, tail] if pieces and tail else [head, *pieces]
    texts = [keyed_texts(f"k{c}=") for c in range(len(coded))]
    assert list(cli._table_chunks(head, blocks, texts, frame, separator, tail)) == expected


@pytest.mark.parametrize("block", [
    [([1, 2], None), ([3], None)],
    [([1], None), ([3, 4], None)],
    [([1, 2], [0, 1, 1]), ([3], [0, 0]), ([4], None)],
    [([1], [0]), ([3], [0]), ([4, 5], [])],
], ids=["shorter", "longer", "coded", "empty codes"])
def test_table_chunks_reject_columns_of_unequal_length(block):
    """A block whose columns hold different numbers of rows raises, where a
    row-wise zip would stop at the shortest column and drop rows."""
    texts = [keyed_texts("")] * len(block)
    with pytest.raises(ValueError):
        "".join(cli._table_chunks("h\n", [block], texts, ("", ",", "\n", "\n")))


def spy_conversions(monkeypatch):
    """The value lists that ``cli._csv_texts`` and ``cli._json_texts``
    convert from now on, in call order, each as a list."""
    converted = []
    csv_texts, json_texts = cli._csv_texts, cli._json_texts
    monkeypatch.setattr(cli, "_csv_texts",
                        lambda values: converted.append(list(values)) or csv_texts(values))
    monkeypatch.setattr(cli, "_json_texts", lambda key, values:
                        converted.append(list(values)) or json_texts(key, values))
    return converted


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_region_table_converts_its_shared_columns_once(fmt, monkeypatch, capsys):
    """``nash-region`` converts ``a``, ``x1``, ``x2``, ``kind`` and
    ``is_ne`` once per table, ``x1`` and ``x2`` over the whole grid, and
    ``s1`` and ``welfare`` once per scan block, not once per table block:
    at 201 points 11 scan blocks make 36 table blocks, and the table
    converts 24,085 values."""
    params = GameParams(0.5)
    xs = oracle._unit_grid(201)
    per_scan_block = [
        [oracle._float_codes(s1)[0],
         oracle._float_codes(oracle._consumer_welfare_array(params, xs[i], xs[j], s1))[0]]
        for i, j, _, s1, _ in oracle._region_scan(params, BehaviorKind.PESSIMISTIC, 201)]
    assert len(per_scan_block) == 11
    assert sum(1 for _ in _region_rows(params, BehaviorKind.PESSIMISTIC, 201)) == 36
    converted = spy_conversions(monkeypatch)
    code, _, _ = run_cli(capsys, "nash-region", "--a", "0.5", "--behavior", "pessimistic",
                         "--format", fmt)
    assert code == 0
    grid = np.linspace(0.0, 1.0, 201).tolist()
    (s1, welfare), *rest = per_scan_block
    assert converted == [[0.5], grid, grid, list(oracle._SLOT_VALUES), s1, [0, 1], welfare,
                         *(values for pair in rest for values in pair)]
    assert sum(map(len, converted)) == 24_085


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_symmetric_figure_converts_each_level_and_point_once(fmt, monkeypatch):
    """The figure's symmetric table converts its 199 levels and its 201
    diagonal points once each, x1 = 1/2 among them, and only ``s1`` once
    per block."""
    [(name, header, blocks)] = islice(cli._figure_tables(1.0), 1)
    assert name == "symmetric_equilibria.csv"
    a_values = cli._a_grid(BehaviorKind.PESSIMISTIC)
    s1 = [values for _, _, (values, _) in cli._symmetric_rows(a_values, 201)]
    converted = spy_conversions(monkeypatch)
    "".join(_csv_chunks(header, blocks) if fmt == "csv" else _json_chunks(header, blocks, {}))
    assert converted == [a_values, np.linspace(0.0, 0.5, 201).tolist(), *s1]


def test_figures_writes_datasets(tmp_path, capsys):
    code = main(["figures", "--out", str(tmp_path / "figs")])
    out = capsys.readouterr().out
    assert code == 0
    # figure data is frozen: the benchmark's figures gate pins the same digests
    names = [line.rsplit("/", 1)[-1] for line in out.splitlines()]
    figures = [(name, (tmp_path / "figs" / name).read_bytes()) for name in names]
    assert golden_outputs.figure_mismatches(figures) == []


def test_outputs_match_the_golden_manifest():
    # tables in both formats, verify's stdout and the single-point commands,
    # byte for byte; see golden_outputs.py to regenerate after an intended change
    assert golden_outputs.mismatches() == []


# stdout of the small run below, recorded before the suites moved into oracle
VERIFY_SMALL_RUN = """\
ok   market-equilibria: 40 random instances, 0 mismatches
ok   best-deviation: 60 random instances, 0 mismatches
ok   social-optimum: max |grid - closed| welfare gap 2.22e-16
ok   pessimistic-region: 3 externality levels on a 101x101 grid, 0 disagreements
ok   mirror-symmetry: 2676 pessimistic NE profiles at a=0.5
ok   neutral-region: NE cells at a=0.3: [(0.5, 0.5)]
ok   optimistic-region: 0 optimistic NE found at a=0.3
all verification suites passed
"""


VERIFY_SEED_3 = """\
ok   market-equilibria: 1000 random instances, 0 mismatches
ok   best-deviation: 200 random instances, 0 mismatches
ok   social-optimum: max |grid - closed| welfare gap 2.22e-16
ok   pessimistic-region: 3 externality levels on a 101x101 grid, 0 disagreements
ok   mirror-symmetry: 2676 pessimistic NE profiles at a=0.5
ok   neutral-region: NE cells at a=0.3: [(0.5, 0.5)]
ok   optimistic-region: 0 optimistic NE found at a=0.3
all verification suites passed
"""


def test_verify_default_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3")
    assert code == 0
    assert out == VERIFY_SEED_3


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--instances", "40", "--grid-locations", "401",
        "--grid-shares", "501", "--seed", "3",
    )
    assert code == 0
    assert out == VERIFY_SMALL_RUN


@pytest.mark.parametrize("instances, error, message", [
    (-3, ValueError, "instances must be at least 0, got -3"),
    (2.5, TypeError, "instances must be an integer, got 2.5"),
])
def test_verify_suites_rejects_a_bad_instance_count(instances, error, message, monkeypatch):
    calls = caught(monkeypatch, "_market_mismatches")
    with pytest.raises(error, match=message):
        next(verify_suites(1.0, 0, instances, GridSpec(5, 5)))
    assert calls == []  # before any suite runs


# random.Random would take each of these: None as OS entropy, -1 as 1, and
# 1.5 and "3" by their hash or bytes
@pytest.mark.parametrize("seed, error, message", [
    (None, TypeError, "seed must be an integer, got None"),
    (-1, ValueError, "seed must be at least 0, got -1"),
    (1.5, TypeError, "seed must be an integer, got 1.5"),
    ("3", TypeError, "seed must be an integer, got '3'"),
])
def test_verify_suites_rejects_a_bad_seed(seed, error, message, monkeypatch):
    calls = caught(monkeypatch, "_market_mismatches")
    with pytest.raises(error, match=message):
        next(verify_suites(1.0, seed, 5, GridSpec(5, 5)))
    assert calls == []  # before any suite runs


def test_verify_suites_yields_the_benchmarked_suites_in_order():
    records = list(verify_suites(1.0, 0, 0, GridSpec(2, 2)))
    assert tuple(s for s, _, _ in records) == golden_outputs.perfbench_literal("VERIFY_SUITES")
    assert all(isinstance(ok, bool) and isinstance(detail, str) for _, ok, detail in records)


# Instances near an existence boundary, drawn at the default grid: 902, 906
# and 907 each draw one whose kind IV condition misses by just over the share
# slack; the others draw, as their last instance, one with a >= 0.958 and a
# II or IV condition missing by about 1e-3, where the slope 2a or 2 - 2a is
# shallow and the passing shares reach far from the split.
@pytest.mark.parametrize("seed, instances", [
    pytest.param(seed, instances, id=str(seed)) for seed, instances in (
        (902, 1000), (906, 1000), (907, 1000), (86, 685), (97, 354), (693, 871),
        (718, 637), (808, 79), (866, 429), (1071, 744), (1229, 56), (1303, 140),
        (1607, 179), (1619, 154), (1950, 653),
    )
])
def test_market_equilibria_suite_skips_near_boundary(seed, instances):
    ok, detail = oracle._market_equilibria_suite(
        np.random.default_rng(seed).random((instances, 3)), GridSpec())
    assert ok is True
    assert detail == f"{instances} random instances, 0 mismatches"


def test_market_equilibria_suite_catches_a_moved_share(monkeypatch):
    exact = oracle._equilibria_array

    def moved(a, x1, x2):  # kind II, the second slot, moved
        shares, unique = exact(a, x1, x2)
        shares[1] += 0.002
        return shares, unique

    monkeypatch.setattr(oracle, "_equilibria_array", moved)
    ok, detail = oracle._market_equilibria_suite(np.random.default_rng(0).random((100, 3)),
                                                 GridSpec())
    assert ok is False
    assert detail == "100 random instances, 42 mismatches"


@pytest.mark.parametrize("shift, mismatches", [(-1e-3, 258), (1e-3, 259)],
                         ids=["-0.001", "0.001"])
def test_market_equilibria_suite_catches_moved_interior_splits(shift, mismatches, monkeypatch):
    exact = oracle._equilibria_array

    def moved(a, x1, x2):  # every kind but I and V, the end slots, moved
        shares, unique = exact(a, x1, x2)
        shares[1:4] += shift
        return shares, unique

    monkeypatch.setattr(oracle, "_equilibria_array", moved)
    ok, detail = oracle._market_equilibria_suite(np.random.default_rng(0).random((300, 3)),
                                                 GridSpec())
    assert ok is False
    assert detail == f"300 random instances, {mismatches} mismatches"


# the last case drew 6 mismatches when consumers had a grid of their own
# (10,000 of them against 4001 shares)
@pytest.mark.parametrize("n_shares, seed, instances", [
    (201, 0, 100), (501, 0, 100), (1201, 1, 100), (4001, 1, 1000),
])
def test_market_equilibria_suite_at_other_grids(n_shares, seed, instances):
    ok, detail = oracle._market_equilibria_suite(
        np.random.default_rng(seed).random((instances, 3)), GridSpec(n_shares=n_shares))
    assert ok is True
    assert detail == f"{instances} random instances, 0 mismatches"


def caught(monkeypatch, name):
    """The (arguments, flags) of every call to ``oracle.<name>`` from now on."""
    calls = []
    original = getattr(oracle, name)

    def spy(*args):
        flags = original(*args)
        calls.append((args, flags))
        return flags

    monkeypatch.setattr(oracle, name, spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 3, 902, 1607])
def test_random_suites_draw_as_one_call_per_instance(seed, monkeypatch):
    """The batched draws of both random suites in ``verify_suites``, from one
    ``random.Random(seed)`` in turn, are the doubles of per-instance calls:
    a and two sorted locations per market instance, then a and x_other per
    deviation. At seed 0 the first instance of each suite is pinned as
    literals, so that a change of the stream itself shows on any Python."""
    markets = caught(monkeypatch, "_market_mismatches")
    deviations = caught(monkeypatch, "_deviation_mismatches")
    list(islice(verify_suites(1.0, seed, 1001, GridSpec(2, 2)), 2))
    draw = random.Random(seed).random
    expected = [(uniform(draw(), 0.02, 0.98),
                 *sorted((uniform(draw(), 0.0, 1.0), uniform(draw(), 0.0, 1.0))))
                for _ in range(1001)]
    [((a, x1, x2, _), _)] = markets
    assert list(zip(a.tolist(), x1.tolist(), x2.tolist())) == expected
    if seed == 0:  # draws 0.8444218515250481, 0.7579544029403025, 0.420571580830845
        assert expected[0] == (0.8306449774640462, 0.420571580830845, 0.7579544029403025)
    expected = [(uniform(draw(), 0.05, 0.95), uniform(draw(), 0.0, 1.0)) for _ in range(200)]
    [((a, x_other, _), _)] = deviations
    assert list(zip(a.tolist(), x_other.tolist())) == expected
    if seed == 0:  # draws 3004 and 3005, 0.1287153958011863 and 0.9339906610332942
        assert expected[0] == (0.16584385622106768, 0.9339906610332942)


SUITE_GRIDS = [GridSpec(2, 2), GridSpec(3, 7), GridSpec(n_shares=201), GridSpec(),
               GridSpec(n_shares=4001)]


# a block holds max(1, 16384 // n_shares) instances, each a padded row of
# n_shares + 1 columns: 1001 instances end on a partial block at 201, 2001
# and 4001 shares (blocks of 81, 8 and 4, rows of 202, 2002 and 4002) and
# fit one block at 2 and 7 shares (8,192 and 2,340); shifted interior splits
# make the flags differ from instance to instance (at 1e-3, 865 of 1001 are
# flagged at 2001 shares; at 1e-2, 201 shares flag some too)
@pytest.mark.parametrize("grid", SUITE_GRIDS, ids=lambda g: f"{g.n_locations}x{g.n_shares}")
@pytest.mark.parametrize("instances", [0, 1, 7, 1001])
def test_market_equilibria_suite_matches_the_instance_loop(grid, instances, monkeypatch):
    blocks = assert_market_suite_is_the_loop(
        grid, instances, (0.0, -1e-3, 1e-3, -2e-3, 2e-3, 1e-2), monkeypatch)
    assert sum(blocks) == instances
    if instances == 1001:
        assert (blocks[-1] < blocks[0]) == (grid.n_shares in (201, 2001, 4001)), blocks


# at an infinite band every block decides each of its rows by the running extrema
@pytest.mark.parametrize("grid", [GridSpec(), GridSpec(3, 7)],
                         ids=lambda g: f"{g.n_locations}x{g.n_shares}")
def test_market_equilibria_suite_on_the_running_extrema_is_the_instance_loop(grid, monkeypatch):
    monkeypatch.setattr(oracle, "_CUT_BAND", math.inf)
    assert_market_suite_is_the_loop(grid, 1001, (0.0, 1e-3), monkeypatch)


def assert_market_suite_is_the_loop(grid, instances, shifts, monkeypatch):
    """The market suite's flags and detail at ``grid`` are the instance
    loop's, with the interior splits moved by each of ``shifts`` in turn.
    Returns the instance count of each block of the last run."""
    exact = oracle._equilibria_array
    shift = 0.0

    def moved(a, x1, x2):  # every kind but I and V moved, kept in [0, 1]
        shares, unique = exact(a, x1, x2)
        shares[1:4] = np.clip(shares[1:4] + shift, 0.0, 1.0)
        return shares, unique

    monkeypatch.setattr(oracle, "_equilibria_array", moved)
    blocks = caught(monkeypatch, "_passing_shares")
    calls = caught(monkeypatch, "_market_mismatches")
    # the draws and their passing shares do not depend on the shift
    units = np.random.default_rng(7).random((instances, 3))
    drawn = loop_market_instances(units, grid)
    for shift in shifts:
        calls.clear()
        blocks.clear()
        _, detail = oracle._market_equilibria_suite(units, grid)
        [(_, flags)] = calls
        expected = loop_market_flags(drawn, grid)
        assert flags.tolist() == expected, shift
        assert detail == f"{instances} random instances, {sum(expected)} mismatches"
    return [len(args[0]) for args, _ in blocks]


# the suite reads only n_locations of its grid. A block holds max(1, 16384 //
# (4 n_locations)) instances, flattened into arrays of instances x
# n_locations cells: 1, 7 and 1001 instances leave some behavior a partial
# block at 2, 3 and 2001 locations (blocks of 2,048, 1,365 and 2); at 8193
# locations each instance is a block alone
@pytest.mark.parametrize("grid", [*SUITE_GRIDS[:3], GridSpec(n_locations=8193)],
                         ids=lambda g: f"{g.n_locations}x{g.n_shares}")
@pytest.mark.parametrize("instances", [0, 1, 7, 1001])
def test_best_deviation_suite_matches_the_instance_loop(grid, instances, monkeypatch):
    exact = oracle._supremum
    raise_by = 0.0

    def raised(a, behavior, x_other):
        location, payoff = exact(a, behavior, x_other)
        return location, payoff + raise_by

    monkeypatch.setattr(oracle, "_supremum", raised)
    calls = caught(monkeypatch, "_deviation_mismatches")
    maxima = caught(monkeypatch, "_deviation_maxima")
    # the draws and their oracle maxima do not depend on the raise
    units = np.random.default_rng(7).random((instances, 2))
    drawn = loop_deviation_instances(units, grid)
    grid_best = np.array([best for _, _, _, best, _ in drawn], dtype=np.float64)
    for raise_by in (0.0, 3e-3):
        calls.clear()
        maxima.clear()
        _, detail = oracle._best_deviation_suite(units, grid)
        [(_, flags)] = calls
        [(_, found)] = maxima
        assert found.view(np.int64).tolist() == grid_best.view(np.int64).tolist()
        expected = loop_deviation_flags(drawn)
        assert flags.tolist() == expected, raise_by
        assert detail == f"{instances} random instances, {sum(expected)} mismatches"


@pytest.mark.parametrize("argv", [
    ("verify", "--theta", "0.5", "--instances", "5"),
    ("verify", "--theta", "inf"),
    ("figures", "--theta", "nan"),
    ("figures", "--theta", "0.5"),
])
def test_bad_theta_exits_two_before_any_work(argv, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    if argv[0] == "figures":
        argv = (*argv, "--out", str(out_dir))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "theta must be finite and >= 1" in err
    assert not out_dir.exists()


# no outcome on the 101-point grid lies within 5e-3 above hi, so a bound
# widened by less than that leaves every grid verdict unchanged; the suite
# also compares each clamped bound with the pessimistic supremum it equals
@pytest.mark.parametrize("shift, disagreements", [(-1e-3, 606), (1e-3, 241), (1e-2, 280)],
                         ids=["-0.001", "0.001", "0.01"])
def test_pessimistic_region_suite_catches_a_moved_bound(shift, disagreements, monkeypatch):
    exact = oracle.pessimistic_nash_interval

    def moved(params, loc):
        interval = exact(params, loc)
        return NashInterval(interval.lo, interval.hi + shift)

    monkeypatch.setattr(oracle, "pessimistic_nash_interval", moved)
    ok, detail, _ = oracle._pessimistic_region_suite(1.0)
    assert ok is False
    assert detail == f"3 externality levels on a 101x101 grid, {disagreements} disagreements"


# the diameter bounds as one array test per block: a narrower slack must
# reject NE profiles that meet a bound, and the counts are those of the
# per-profile nash_diameter_bounds_check loop the suite ran before; the
# bounds are necessary conditions only, so a wider slack goes unseen
@pytest.mark.parametrize("tol, disagreements", [(-1e-3, 203), (-1e-2, 229), (1e-2, 0)],
                         ids=["narrowed 0.001", "narrowed 0.01", "widened 0.01"])
def test_pessimistic_region_suite_checks_the_diameter_bounds(tol, disagreements, monkeypatch):
    monkeypatch.setattr(behaviors, "_DIAMETER_TOL", tol)
    ok, detail, _ = oracle._pessimistic_region_suite(1.0)
    assert ok is (disagreements == 0)
    assert detail == f"3 externality levels on a 101x101 grid, {disagreements} disagreements"


def cli_env(unbuffered):
    """The environment of a CLI child: this process's, with ``src`` on the
    path and ``PYTHONUNBUFFERED`` set if and only if ``unbuffered``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return {**env, "PYTHONPATH": src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}


# stdout is a pipe: unbuffered, _emit writes raw and retries short writes;
# the pinned 78,759-byte table is more than a 64 KiB pipe buffer holds
@pytest.mark.parametrize("unbuffered", [False, True], ids=lambda value: f"unbuffered={value}")
def test_module_entrypoint_smoke(unbuffered):
    table = "nash-region --a 0.5 --behavior pessimistic --grid-locations 41 --format csv"
    market, region = [subprocess.run(
        [sys.executable, "-m", "locpop.cli", *argv.split()], capture_output=True, timeout=120,
        env=cli_env(unbuffered)) for argv in ("market-eq --a 0.5 --x1 0.3 --x2 0.9", table)]
    assert [(proc.returncode, proc.stderr) for proc in (market, region)] == [(0, b"")] * 2
    assert json.loads(market.stdout)["count"] == 1
    assert len(region.stdout) > 64 * 2**10
    pinned = json.loads(golden_outputs.MANIFEST.read_text())[table]
    assert hashlib.sha256(region.stdout).hexdigest() == pinned


@pytest.mark.parametrize("argv, unbuffered", [
    # buffered: the 1.9 MB document fills the pipe, so a write fails
    (("nash-region", "--a", "0.5", "--behavior", "pessimistic"), False),
    # unbuffered: one raw write of the document ends short, so it is retried
    (("nash-region", "--a", "0.5", "--behavior", "pessimistic"), True),
    # unbuffered: each suite's line is written as it is printed
    (("verify", "--seed", "1", "--instances", "20"), True),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else f"unbuffered={value}")
def test_closed_stdout_pipe_exits_without_traceback(argv, unbuffered):
    proc = subprocess.Popen(
        [sys.executable, "-c", "from locpop.cli import run; run()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does after its line
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "", err  # neither a traceback nor an error line


@pytest.mark.parametrize("target, argv", [
    ("file", ("figures", "--out", "{target}")),
    ("directory", ("nash-region", "--a", "0.5", "--behavior", "pessimistic",
                   "--out", "{target}")),
    ("file", ("market-eq", "--a", "0.3", "--x1", "0.2", "--x2", "0.4",
              "--out", "{target}/x.json")),
], ids=["figures into a file", "nash-region onto a directory", "market-eq below a file"])
def test_failed_write_exits_one(target, argv, tmp_path):
    path = tmp_path / "taken"
    if target == "file":
        path.write_text("")
    else:
        path.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", "from locpop.cli import run; run()",
         *(arg.format(target=path) for arg in argv)],
        capture_output=True, text=True, timeout=120, env=cli_env(False),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.tmp"))


# 9001 points at a = 0.3 split the tails' range into two blocks, the second
# coding x1 over points that start past the range's first; 41, 101 and 128
# points are region grids of the tests
@pytest.mark.parametrize("n_points", [2, 3, 7, 41, 101, 128, 201, 501, 1000, 2999, 9001])
def test_parameter_grids_are_numpys_bit_for_bit(n_points):
    """The a-sweep, the diagonal's points and the ``x1`` of the symmetric
    rows are the floats of ``np.arange(1, 200) * A_GRID_STEP`` and
    ``np.linspace(0, 0.5, n)``, bit for bit, and the region reference's grid
    those of ``np.linspace(0, 1, n)``; the 12-digit outputs alone would not
    show a one-ulp move."""
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    assert bits(unit_grid(n_points)) == bits(np.linspace(0.0, 1.0, n_points))

    arange = np.arange(1, 200) * cli.A_GRID_STEP
    assert bits(cli._a_grid(BehaviorKind.PESSIMISTIC)) == bits(arange)
    neutral = [a for a in arange.tolist() if neutral_nash(GameParams(a)) is not None]
    assert bits(cli._a_grid(BehaviorKind.NEUTRAL)) == bits(neutral)
    linspace = np.linspace(0.0, 0.5, n_points)
    assert bits(list(map(cli._diagonal(n_points), range(n_points)))) == bits(linspace)
    # every point from the first at or past the lowest threshold has rows
    first = int(np.searchsorted(linspace, behaviors._symmetric_thresholds(0.3)[0]))
    x1 = [x for x, _ in groupby(row[1] for row in symmetric_block_rows([0.3], n_points))]
    assert bits(x1) == bits(linspace[first:])


@pytest.mark.parametrize("flags, grid", [
    ((), GridSpec(2001, 2001)),
    (("--grid-locations", "401"), GridSpec(401, 2001)),
    (("--grid-shares", "3"), GridSpec(2001, 3)),
    (("--grid-locations", "5", "--grid-shares", "7"), GridSpec(5, 7)),
])
def test_verify_grid_flags(flags, grid, monkeypatch, capsys):
    """``verify`` hands the suites GridSpec() with no grid flag, and each
    given flag in place of its GridSpec default."""
    grids = []
    monkeypatch.setattr(oracle, "verify_suites",
                        lambda theta, seed, instances, g: grids.append(g) or [])
    assert run_cli(capsys, "verify", *flags)[0] == 0
    assert grids == [grid]
