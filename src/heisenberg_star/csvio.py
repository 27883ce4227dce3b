"""CSV and state-dump writers.

All files are UTF-8 with Unix newlines and a mandatory header row.
Floats are printed with 12 significant digits, so a rerun with the same
configuration reproduces the bytes exactly.
"""

from __future__ import annotations

import numpy as np

from .spectrum import GroundScanRow, LevelTable

# Lines of a state dump formatted at once: large enough to amortize the
# formatting call, small enough that no whole dump is held as text.
DUMP_LINES = 4096


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_ground_scan(path, rows: list[GroundScanRow]) -> None:
    with _open_w(path) as fh:
        fh.write("J_over_gt,EG_over_gt,lG\n")
        for row in rows:
            fh.write(f"{fmt(row.J_over_gt)},{fmt(row.EG_over_gt)},{row.lG}\n")


def write_transitions(path, edges) -> None:
    """Plateau edges (ratio, l_from, l_to) of a ground scan."""
    with _open_w(path) as fh:
        fh.write("J_over_gt,l_from,l_to\n")
        for ratio, l_from, l_to in edges:
            fh.write(f"{fmt(ratio)},{l_from},{l_to}\n")


def write_level_table(path, table: LevelTable) -> None:
    with _open_w(path) as fh:
        fh.write("l,E1b,degeneracy\n")
        for row in table.rows:
            fh.write(f"{row.l},{fmt(row.energy)},{row.degeneracy}\n")


def write_timeseries(path, times, columns: dict[str, np.ndarray]) -> None:
    """Time series CSV: header ``t,value`` or ``t,value_<name>,...``.

    A single unnamed column keeps the plain ``value`` header; several
    columns are suffixed with their observable names.
    """
    names = list(columns.keys())
    with _open_w(path) as fh:
        if len(names) == 1:
            fh.write("t,value\n")
        else:
            fh.write("t," + ",".join(f"value_{n}" for n in names) + "\n")
        cols = [np.asarray(columns[n]) for n in names]
        for k, t in enumerate(times):
            fh.write(fmt(t) + "," + ",".join(fmt(c[k]) for c in cols) + "\n")


def write_state_dump(path, header: tuple[int, int, int], amps: np.ndarray) -> None:
    """Plain-text amplitudes of a single-sector state.

    ``header`` is the sector's ``(N, two_S, two_m)`` and ``amps`` its
    amplitudes in sector order. Header line ``N two_S two_m dim``, then
    one ``index re im`` line per basis state. Each chunk of DUMP_LINES
    lines is formatted by one ``%`` operation; ``%.12g`` prints what
    :func:`fmt` prints.
    """
    N, two_S, two_m = header
    with _open_w(path) as fh:
        fh.write(f"{N} {two_S} {two_m} {amps.size}\n")
        for start in range(0, amps.size, DUMP_LINES):
            part = amps[start:start + DUMP_LINES]
            rows = np.column_stack((np.arange(start, start + part.size), part.real, part.imag))
            fh.write(("%d %.12g %.12g\n" * part.size) % tuple(rows.ravel().tolist()))


def write_meta(path, entries: dict) -> None:
    """Sidecar with the effective configuration, one key = value per line."""
    with _open_w(path) as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")
