"""Cell-by-cell reference of the region scan, on the stdlib alone.

``oracle._region_scan`` decides every market split of every cell of the
location grid with arrays: masks, slots and a sort of the slots. This
module builds the same table one cell at a time from the scalar rules that
the scan is pinned to bit for bit: the splits of ``model._equilibria``, one
table of ``behaviors._supremum`` per behavior, ``behaviors._nash_ok`` for
each firm and ``welfare.consumer_welfare``. A cell's splits and welfare do
not depend on the behavior, so :func:`region_reference` makes them once per
(a, n), and :func:`region_rows` adds the verdicts of one behavior.

Tier-1 compares the scan's rows and NE profiles with it, and
``scalar_corpus.py`` writes the figure ``nash_region_a_half.csv`` from it
with numpy blocked.
"""

from functools import lru_cache

from locpop.behaviors import _nash_ok, _supremum
from locpop.model import GameParams, _equilibria
from locpop.welfare import consumer_welfare


def unit_grid(n):
    """The floats of ``np.linspace(0.0, 1.0, n)``, bit for bit: k * (1 / (n - 1)),
    with 1.0 last."""
    step = 1.0 / (n - 1)
    return [k * step for k in range(n - 1)] + [1.0]


# a test module's cases at one level and every grid stay cached
@lru_cache(maxsize=8)
def region_reference(a, n):
    """``(xs, splits)`` of the n x n grid at level a: the grid, and
    ``(i, j, kind, s1, welfare)`` of each split of each cell (x1, x2) =
    (xs[i], xs[j]) with i <= j, cells in increasing x1 then x2 and each
    cell's splits in enumeration order. No behavior is read."""
    params = GameParams(a)
    xs = unit_grid(n)
    return xs, [(i, j, kind, s1, consumer_welfare(params, x1, x2, s1))
                for i, x1 in enumerate(xs) for j, x2 in enumerate(xs[i:], i)
                for kind, s1 in _equilibria(a, x1, x2)]


def region_rows(a, behavior, n):
    """The ``cli.REGION_HEADER`` rows of the region table: the splits of
    :func:`region_reference` and the Nash verdict (0 or 1) of each."""
    xs, splits = region_reference(a, n)
    suprema = [_supremum(a, behavior, x)[1] for x in xs]
    # firm 1 deviates against x2, firm 2 against x1
    return [(a, xs[i], xs[j], kind.value, s1,
             int(_nash_ok(s1, suprema[j]) and _nash_ok(1.0 - s1, suprema[i])), welfare)
            for i, j, kind, s1, welfare in splits]
