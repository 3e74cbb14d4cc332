"""Rows of the table blocks that ``locpop.cli`` writes.

A block is a sequence of columns, each ``(values, codes)``: one value per
row when ``codes`` is None, else row k holds ``values[codes[k]]``
(``cli._table_chunks``). Tests compare tables row by row, so they read
blocks through :func:`block_rows`.
"""


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
