"""Test-side references for the crossing-set writers, built from Crossing records.

One Crossing record per row, each float through format(x, ".17g") (what
fmt_float was written as), the CSV through the csv module: the writers
CrossingSet.to_json, CrossingSet.to_csv and the ``crossings --format text``
rows ran this way before they read the columns.  Tests compare the package
with these byte for byte, so neither side checks itself.  ``family`` lists
one closed-form family off the crossing table's columns.
"""

import csv
import io
import math

import numpy as np

from fourierknot.crossings import TYPE_I, _crossing_table
from fourierknot.series import reduce_angles


def fmt_float(x):
    return format(float(x), ".17g")


def to_json(crossing_set):
    rows = []
    for c in crossing_set.crossings:
        ix = c.indices
        kind, k, j = (f'"{ix.kind}"', ix.k, ix.j) if ix is not None else ("null",) * 3
        rows.append(
            f'{{"kind":{kind},"k":{k},"j":{j},'
            f'"t1":{fmt_float(c.t1)},"t2":{fmt_float(c.t2)},'
            f'"sign":{c.sign},"over":"{c.over}",'
            f'"x":{fmt_float(c.position[0])},"y":{fmt_float(c.position[1])}}}'
        )
    return "[" + ",".join(rows) + "]"


def to_csv(crossing_set):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "k", "j", "t1", "t2", "sign", "over", "x", "y"])
    for c in crossing_set.crossings:
        ix = (c.indices.kind, c.indices.k, c.indices.j) if c.indices is not None else ("",) * 3
        w.writerow([*ix, fmt_float(c.t1), fmt_float(c.t2), c.sign, c.over,
                    fmt_float(c.position[0]), fmt_float(c.position[1])])
    return buf.getvalue()


def to_text(crossing_set, degrees=False):
    """What ``crossings --format text [--degrees]`` prints for the set."""

    def angle(value):
        return fmt_float(math.degrees(value)) if degrees else fmt_float(value)

    rows = [f"{len(crossing_set)} crossings ({crossing_set.method})"]
    for c in crossing_set.crossings:
        ix = c.indices.key() if c.indices else "-"
        rows.append(f"  {ix:10s} t1={angle(c.t1)} t2={angle(c.t2)} sign={c.sign:+d} over={c.over}")
    return "\n".join(rows) + "\n"


def family(params, kind):
    """The crossing table's rows of one kind as (CrossingIndices, t1, t2), in table order.

    Each time is reduced mod 2*pi on its own, so t1 keeps the formula's -k shift and may exceed t2.
    """
    table = _crossing_table(params)
    rows = np.flatnonzero((np.arange(len(table.k)) < table.n_type1) == (kind == TYPE_I))
    t1, t2 = (reduce_angles(column[rows]).tolist() for column in (table.t1, table.t2))
    return list(zip((table.indices[row] for row in rows.tolist()), t1, t2))
