"""Report how far the outputs of two checkouts differ, from two standing-check dumps.

    python3 tools/standing_check.py --dump A    # in the first checkout
    python3 tools/standing_check.py --dump B    # in the second
    python3 tools/output_diff.py A B

It prints, for the records behind the nine standing digests:

* the FitResult fields added or removed, and per penalty kind of the 1,600
  study path fits and per shared field how many of that kind's fits differ
  in any bit, with the largest absolute change and the largest change
  relative to max |A value| of that fit; a kind none of whose fits differs
  takes one line;
* the largest |d beta| over the fits, absolute and relative to the fit's
  ||beta||_inf, and the support, sign, ``converged`` and
  ``coordinatewise_global`` flips;
* per CLI digest, the runs whose exit code or standard output changed;
  the changed standard-output lines grouped by their first word, with per
  group the count and the largest relative change of their numbers; and per
  CSV column how many cells changed and the largest relative change,
  listing every change of a ``selected`` cell;
* the study rows that differ, per row field with the largest relative
  change, and the study means per method and metric, A -> B, over all four
  standing seeds;

and last a summary: ``no differences``, or one line per kind of difference.
It exits 0 when there are none and 1 otherwise. Two dumps of one commit
must diff to ``no differences``.

The protocol for a change that moves output on purpose:

1. The change is named, with the records it expects to move, before
   anything is measured.
2. Dump the standing check at the parent and at the change, and report this
   tool's output in ``CHANGES.md``: what moved, by how much, and that
   nothing else moved.
3. Re-record the standing lines (``ROADMAP.md``) from the change's own
   commit. ``perfbench/reference.json`` is re-recorded only in a change to
   the benchmark itself, never by the change that moves the output.

The checks stay as strict as they are: a moved line is re-recorded, never
loosened, skipped or re-seeded. The same holds for the benchmark's
deterministic work counters. Precedent: when ``solver._penalty_sum`` moved
from ``penalty_value`` to the pure-float ``scalar_value`` (b47cf28,
``BENCH_21.json``), ``penalty.value_calls`` fell by exactly 2 per
coordinate-descent fit, because other code did the same work with the same
output, and that fall was named in advance.
"""

from __future__ import annotations

import ast
import csv
import io
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from standing_check import field_value, read_dump  # noqa: E402
from l1concave.simulate import METRIC_NAMES  # noqa: E402


def _change(a, b) -> tuple[float, float]:
    """Largest |b - a|, and that change over max |a|; NaN against NaN is no
    change, a changed shape or NaN against a number is an infinite one."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return math.inf, math.inf
    if a.size == 0:
        return 0.0, 0.0
    both_nan = np.isnan(a) & np.isnan(b)
    d = np.where(both_nan, 0.0, np.abs(b - a))
    big = float(np.nan_to_num(d, nan=math.inf).max())
    scale = float(np.nanmax(np.abs(a))) if not np.all(np.isnan(a)) else 0.0
    return big, (big / scale if scale > 0.0 else (0.0 if big == 0.0 else math.inf))


def _g(x: float) -> str:
    return format(x, ".3g")


def _fit_dicts(paths) -> list[dict]:
    """Every fit of every path as {field: (kind, hex)}, in path order."""
    return [{name: (kind, hex_bytes) for name, kind, hex_bytes in fit}
            for path in paths for fit in path]


def _field_change(pairs, name) -> tuple[int, float, float]:
    """Over the (A, B) fit pairs: how many differ in field name, and the
    largest absolute and relative change."""
    count, big, rel = 0, 0.0, 0.0
    for a, b in pairs:
        if a[name] == b[name]:
            continue
        count += 1
        va, vb = field_value(*a[name]), field_value(*b[name])
        if a[name][0] == "penalty":
            va, vb = (va[1:], vb[1:]) if va[0] == vb[0] else (0.0, math.inf)
        d, r = _change(va, vb)
        big, rel = max(big, d), max(rel, r)
    return count, big, rel


def diff_fits(pa, pb, lines, found):
    fa, fb = _fit_dicts(pa), _fit_dicts(pb)
    names_a = list(fa[0]) if fa else []
    names_b = list(fb[0]) if fb else []
    added = [f for f in names_b if f not in names_a]
    removed = [f for f in names_a if f not in names_b]
    lines.append(f"fields: added {', '.join(added) or 'none'}; "
                 f"removed {', '.join(removed) or 'none'}")
    if added:
        found.append(f"fields added: {', '.join(added)}")
    if removed:
        found.append(f"fields removed: {', '.join(removed)}")
    shape_a, shape_b = [len(p) for p in pa], [len(p) for p in pb]
    lines.append(f"fits: {len(fa)} in {len(pa)} paths (A), {len(fb)} in {len(pb)} paths (B)")
    if shape_a != shape_b:
        found.append("the paths or their lengths differ; fits compared in order")
    pairs = list(zip(fa, fb))
    shared = [f for f in names_a if f in names_b]
    groups: dict[str, list] = {}  # penalty kind of the A fit -> its (A, B) pairs
    for a, b in pairs:
        kind = field_value(*a["penalty"])[0] if "penalty" in a else "?"
        groups.setdefault(kind, []).append((a, b))
    stats = dict.fromkeys(shared, (0, 0.0, 0.0))  # field -> (fits differ, max abs, max rel)
    lines.append(f"  {'kind':<6} {'field':<22} {'fits differ':>14} {'max abs':>10} {'max rel':>10}")
    for kind, group in groups.items():
        rows = {name: _field_change(group, name) for name in shared}
        for name, (count, big, rel) in rows.items():
            total, big0, rel0 = stats[name]
            stats[name] = total + count, max(big0, big), max(rel0, rel)
        if not any(count for count, _, _ in rows.values()):
            lines.append(f"  {kind:<6} no field differs in its {len(group)} fits")
            continue
        lines.extend(f"  {kind:<6} {name:<22} {f'{count} of {len(group)}':>14} {_g(big):>10} "
                     f"{_g(rel):>10}" for name, (count, big, rel) in rows.items())
    for name, (count, _, _) in stats.items():
        if count:
            found.append(f"fits: {name} differs in {count} of {len(pairs)}")
    if "beta" not in stats:
        return
    support = sign = 0
    for a, b in pairs:
        ba, bb = field_value(*a["beta"]), field_value(*b["beta"])
        if ba.shape == bb.shape:  # else the field table shows an infinite change
            support += int(np.count_nonzero((ba != 0.0) != (bb != 0.0)))
            sign += int(np.count_nonzero(ba * bb < 0.0))
    _, big, rel = stats["beta"]
    flags = [f"{flag} {stats.get(flag, (0,))[0]} fits"
             for flag in ("converged", "coordinatewise_global")]
    lines.append(f"beta: largest |d beta| {_g(big)}, relative to ||beta||_inf {_g(rel)}")
    lines.append(f"flips: support {support} coefficients, sign {sign} coefficients, "
                 f"{', '.join(flags)}")
    if support:
        found.append(f"fits: {support} coefficients enter or leave the support")
    if sign:
        found.append(f"fits: {sign} coefficients flip sign")


def _cells(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _cell_change(a, b) -> float:
    """The relative change of a CSV cell or study-row value; infinite for text."""
    try:
        return _change(float(a), float(b))[1]
    except ValueError:
        return math.inf


def _line_changes(a: str, b: str, groups: dict):
    """Adds each changed line of the outputs a and b, paired in order, to
    groups: first word -> [lines, largest relative change of a token]."""
    la, lb = a.splitlines(), b.splitlines()
    la += [""] * (len(lb) - len(la))
    lb += [""] * (len(la) - len(lb))
    for x, y in zip(la, lb):
        if x == y:
            continue
        ta, tb = x.split(), y.split()
        stat = groups.setdefault((ta or tb or [""])[0], [0, 0.0])
        stat[0] += 1
        rel = max((_cell_change(u, v) for u, v in zip(ta, tb) if u != v), default=0.0)
        stat[1] = max(stat[1], rel if len(ta) == len(tb) else math.inf)


def diff_cli(ca, cb, lines, found):
    for command in sorted(set(ca) | set(cb)):
        ra = {run["tag"]: run for run in ca.get(command, [])}
        rb = {run["tag"]: run for run in cb.get(command, [])}
        tags = [t for t in ra if t in rb]
        lines.append(f"{command}: {len(ra)} runs (A), {len(rb)} runs (B)")
        only = len(ra) + len(rb) - 2 * len(tags)
        if only:
            found.append(f"{command}: {only} runs in only one dump")
        exits = [t for t in tags if ra[t]["exit"] != rb[t]["exit"]]
        stdout = sum(ra[t]["stdout"] != rb[t]["stdout"] for t in tags)
        lines.append(f"  exit code changed in {len(exits)} runs, standard output in {stdout}")
        lines.extend(f"    {t!r}: exit {ra[t]['exit']} -> {rb[t]['exit']}" for t in exits)
        groups: dict[str, list] = {}
        for t in tags:
            _line_changes(ra[t]["stdout"], rb[t]["stdout"], groups)
        lines.extend(f"  stdout lines {word!r}: {count} changed, max rel {_g(rel)}"
                     for word, (count, rel) in sorted(groups.items()))
        if exits:
            found.append(f"{command}: exit code changed in {len(exits)} of {len(tags)} runs")
        if stdout:
            found.append(f"{command}: standard output changed in {stdout} of {len(tags)} runs")
        columns: dict[str, list] = {}  # column -> [cells, changed, max rel]
        selected, reshaped = [], 0
        for t in tags:
            (ha, rows_a), (hb, rows_b) = _cells(ra[t]["csv"]), _cells(rb[t]["csv"])
            if ha != hb or len(rows_a) != len(rows_b):
                reshaped += 1
                continue
            for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
                for col, a, b in zip(ha, row_a, row_b):
                    stat = columns.setdefault(col, [0, 0, 0.0])
                    stat[0] += 1
                    if a != b:
                        stat[1] += 1
                        stat[2] = max(stat[2], _cell_change(a, b))
                        if col == "selected":
                            selected.append(f"    {t!r} row {i}: selected {a} -> {b}")
        if reshaped:
            lines.append(f"  CSV header or row count changed in {reshaped} runs")
            found.append(f"{command}: CSV header or row count changed in {reshaped} runs")
        for col, (cells, changed, rel) in columns.items():
            lines.append(f"  column {col:<24} {changed:>6} of {cells:<6} cells changed, "
                         f"max rel {_g(rel)}")
            if changed:
                found.append(f"{command}: column {col} changed in {changed} of {cells} cells")
        lines.extend(selected)


class _NanInf(ast.NodeTransformer):
    """Turns the names nan and inf of a float's repr into constants."""

    def visit_Name(self, node):
        return ast.Constant(float(node.id)) if node.id in ("nan", "inf") else node


def _rows(text: str) -> list[dict]:
    """The study rows from their repr."""
    return ast.literal_eval(_NanInf().visit(ast.parse(text, mode="eval")))


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def diff_study(sa, sb, lines, found):
    rows_a, rows_b, differ, total, unpaired = [], [], 0, 0, 0
    fields: dict[str, list] = {}  # row field -> [rows where it changed, max rel change]
    for seed in sorted(set(sa) | set(sb)):
        if seed not in sa or seed not in sb:
            found.append(f"study seed {seed} in only one dump")
            continue
        a, b = _rows(sa[seed]), _rows(sb[seed])
        rows_a += a
        rows_b += b
        total += max(len(a), len(b))
        unpaired += abs(len(a) - len(b))
        for ra, rb in zip(a, b):
            changed = (set(ra) ^ set(rb)) | {k for k in ra.keys() & rb.keys()
                                             if not _same(ra[k], rb[k])}
            differ += bool(changed)
            for k in sorted(changed):
                stat = fields.setdefault(k, [0, 0.0])
                stat[0] += 1
                stat[1] = max(stat[1], _cell_change(ra[k], rb[k]) if k in ra and k in rb
                              else math.inf)
    lines.append(f"study: {differ + unpaired} of {total} rows differ")
    if unpaired:
        found.append(f"study: the row counts differ ({len(rows_a)} against {len(rows_b)})")
    for k, (count, rel) in fields.items():
        lines.append(f"  row field {k}: changed in {count} rows, max rel {_g(rel)}")
        found.append(f"study: {k} changed in {count} of {total} rows")
    methods = list(dict.fromkeys(row["method"] for row in rows_a + rows_b))
    lines.append(f"  {'method':<10} {'metric':<6} {'A mean':>22} {'B mean':>22} {'rel':>9}")
    for m in methods:
        for metric in METRIC_NAMES:
            ma, mb = (float(np.mean([row[metric] for row in rows if row["method"] == m]))
                      for rows in (rows_a, rows_b))
            lines.append(f"  {m:<10} {metric:<6} {ma!r:>22} {mb!r:>22} "
                         f"{_g(_change(ma, mb)[1]):>9}")


def diff(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """The report lines and the summary (one line per kind of difference)
    for two dumps as read_dump returns them."""
    lines, found = [], []
    diff_fits(a["fits"], b["fits"], lines, found)
    diff_cli(a["cli"], b["cli"], lines, found)
    diff_study(a["study"], b["study"], lines, found)
    return lines, found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: output_diff.py A B  (two standing_check.py --dump directories)",
              file=sys.stderr)
        return 2
    lines, found = diff(read_dump(args[0]), read_dump(args[1]))
    print("\n".join(lines))
    print("summary:")
    print("\n".join(f"  {f}" for f in found) if found else "  no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
