"""Rows of the table blocks that ``locpop.cli`` writes.

A block is a sequence of columns, each ``(values, codes)``: one value per
row when ``codes`` is None, else row k holds ``values[codes[k]]``
(``cli._table_chunks``). Tests compare tables row by row, so they read
blocks through :func:`block_rows`, and compare rows with a reference
through :func:`assert_same_columns`.
"""

from operator import itemgetter

import numpy as np

REGION_TYPES = (float, float, float, str, float, int, float)  # cli.REGION_HEADER


def block_rows(blocks):
    """The rows of ``blocks`` as tuples, each field the very object its
    column holds for the row, so types and float bits carry over."""
    rows = []
    for block in blocks:
        columns = [list(values) if codes is None else [values[c] for c in codes]
                   for values, codes in block]
        assert len(set(map(len, columns))) == 1, "every column holds one field per row"
        rows.extend(zip(*columns))
    return rows


def assert_same_columns(rows, expected, types):
    """``rows`` equal ``expected`` as strictly as their ``repr``s would: the
    same number of rows, each column of the Python type in ``types`` in
    both, floats bit for bit (so -0.0 is not 0.0) and other fields by value."""
    assert len(rows) == len(expected)
    if not rows:
        return
    assert set(map(len, rows)) | set(map(len, expected)) == {len(types)}
    for i, kind in enumerate(types):
        # itemgetter, not zip(*rows), which would make an iterator per row
        column, want = list(map(itemgetter(i), rows)), list(map(itemgetter(i), expected))
        assert set(map(type, column)) == set(map(type, want)) == {kind}
        if kind is float:
            assert np.array_equal(np.array(column).view(np.int64), np.array(want).view(np.int64))
        else:
            assert column == want
