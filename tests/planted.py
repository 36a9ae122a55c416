"""Crossing sets with rows a test plants itself."""

import numpy as np

from fourierknot import TYPE_I, CrossingSet


def crossing_set(knot, records, method="analytic"):
    """The CrossingSet whose rows are the given Crossing records, in their order."""
    records = list(records)

    def column(values, dtype=np.int64):
        return np.array(list(values), dtype=dtype)

    indices = [c.indices for c in records]
    return CrossingSet(
        knot,
        column((c.t1 for c in records), np.float64),
        column((c.t2 for c in records), np.float64),
        column(c.sign for c in records),
        column((c.over == "t1" for c in records), bool),
        column(-1 if ix is None else int(ix.kind != TYPE_I) for ix in indices),
        column(-1 if ix is None else ix.k for ix in indices),
        column(-1 if ix is None else ix.j for ix in indices),
        method,
    )
