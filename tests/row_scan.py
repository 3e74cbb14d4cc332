"""Row-at-a-time reference for the NE region scan.

This is ``oracle._region_scan`` as it was before it scanned in blocks of
grid rows, kept with its arithmetic unchanged as a test oracle, together
with its two readers of that time: the region rows of ``locpop
nash-region`` and the NE profiles of ``oracle_ne_region_scan`` (as the
fields of each), which both read one list of its rows, so a test scans
once for the two. It still orders each cell's splits by a stable argsort
of its slots, where the scan now uses ``oracle._share_order``. Each row yields the float x1 and
arrays over the market equilibria of its cells.
"""

from itertools import repeat

import numpy as np

from locpop.behaviors import NE_TOL, _supremum
from locpop.model import Kind, _is_split
from locpop.oracle import _SLOT_KINDS, _consumer_welfare_array, _equilibria_array


def row_region_scan(params, behavior, n_locations):
    a = params.a
    xs = np.linspace(0.0, 1.0, n_locations)
    suprema = np.array([_supremum(a, behavior, x)[1] for x in xs.tolist()])
    for i, x1 in enumerate(xs.tolist()):
        shares, unique = _equilibria_array(a, x1, xs[i:])
        shares = np.moveaxis(shares, 0, -1)  # one cell per row, its slots along it
        order = np.argsort(shares, axis=1, kind="stable")
        shares = np.take_along_axis(shares, order, axis=1)
        cell, rank = np.nonzero(~np.isnan(shares))
        x2, s1 = xs[i:][cell], shares[cell, rank]
        kind = _SLOT_KINDS[order[cell, rank]]
        kind[unique[cell]] = Kind.UNIQUE
        if not _is_split(a, x1, x2, s1).all():
            raise ValueError("profile outcome is not a market equilibrium for its locations")
        is_ne = ~(s1 < suprema[i:][cell] - NE_TOL) & ~(1.0 - s1 < suprema[i] - NE_TOL)
        yield x1, x2, kind, s1, is_ne


def row_region_rows(params, scan):
    """REGION_HEADER rows, as ``cli._region_rows`` made them row by row from
    the rows of ``row_region_scan``."""
    rows = []
    for x1, x2, kind, s1, is_ne in scan:
        welfare = _consumer_welfare_array(params, x1, x2, s1)
        rows.extend(zip(repeat(params.a), repeat(x1), x2.tolist(), [k.value for k in kind],
                        s1.tolist(), is_ne.astype(int).tolist(), welfare.tolist()))
    return rows


def row_ne_fields(scan):
    """(x1, x2, kind, s1) of each NE profile, in the order in which
    ``oracle_ne_region_scan`` listed them row by row, from the rows of
    ``row_region_scan``."""
    return [
        (x1, x2, kind, s1)
        for x1, x2s, kinds, s1s, is_ne in scan
        for x2, kind, s1 in zip(x2s[is_ne].tolist(), kinds[is_ne], s1s[is_ne].tolist())
    ]
