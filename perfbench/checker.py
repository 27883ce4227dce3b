"""Per-unit output checker.

Every unit must satisfy invariants that hold for every seed: the ring
anchors E1b(N/2) = N/4 and E1b(N/2 - 1) = N/4 - 2, the first-transition
law S / (2 sqrt(N)), the closed-form sub-ground energy, the propagation
drift bounds, and the initial values and ranges of the time series.
Units of the default seed are also compared number by number with the
reference outputs in ``reference/``, written at the parent commit.

Each check returns a list of messages; an empty list means the unit passed.
The checker reads files only and imports nothing from the package under test.
"""

from __future__ import annotations

import csv
import math
import os

TOL = 1e-9
REF_TOL = 1e-8
NORM_DRIFT_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-9


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def read_meta(path) -> dict[str, str]:
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            meta[key] = value.rstrip("\n")
    return meta


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def check_level_table(path, n) -> list[str]:
    header, rows = read_csv(path)
    errors = []
    if header != ["l", "E1b", "degeneracy"]:
        return [f"{path}: header {header}"]
    ls = [int(r[0]) for r in rows]
    energies = {int(r[0]): r[1] for r in rows}
    if ls != list(range(n // 2 + 1)):
        errors.append(f"{path}: rows l = {ls}, want 0..{n // 2}")
    if any(b[1] <= a[1] for a, b in zip(rows, rows[1:])):
        errors.append(f"{path}: E1b not strictly increasing")
    if not _close(energies.get(n // 2, math.nan), n / 4):
        errors.append(f"{path}: E1b(N/2) = {energies.get(n // 2)}, want {n / 4}")
    if not _close(energies.get(n // 2 - 1, math.nan), n / 4 - 2):
        errors.append(f"{path}: E1b(N/2-1) = {energies.get(n // 2 - 1)}, want {n / 4 - 2}")
    if sum((2 * int(l) + 1) * int(d) for l, _, d in rows) != 2 ** n:
        errors.append(f"{path}: multiplet count differs from 2^N")
    return errors


def check_ground_scan(path, n, two_s, step) -> list[str]:
    edges_path = path[:-4] + ".transitions.csv"
    _, rows = read_csv(path)
    _, edges = read_csv(edges_path)
    if not rows or not edges:
        return [f"{path}: empty scan or no transitions"]
    law = (two_s / 2) / (2 * math.sqrt(n))
    first = edges[0][0]
    if not law - 1e-12 <= first <= law + step + 1e-12:
        return [f"{edges_path}: first transition {first}, want within one step above {law}"]
    return []


def sub_ground_energy(two_l, two_s, j, g, e1b) -> float:
    """Closed-form lowest star level on the bottom ring multiplet l."""
    l, s = two_l / 2, two_s / 2
    return j * e1b - g * (s * (l + 1) if two_s <= two_l else l * (s + 1))


def check_subground(path, table_path, two_s, two_l, j, g) -> list[str]:
    errors = []
    meta = read_meta(path + ".meta")
    _, table = read_csv(table_path)
    e1b = {int(r[0]): r[1] for r in table}[two_l // 2]
    want = sub_ground_energy(two_l, two_s, j, g, e1b)
    if not _close(float(meta["energy"]), want):
        errors.append(f"{path}.meta: energy {meta['energy']}, want {want!r}")
    if not _close(float(meta["E1b"]), e1b):
        errors.append(f"{path}.meta: E1b {meta['E1b']}, table has {e1b!r}")
    with open(path, encoding="utf-8") as fh:
        dim = int(fh.readline().split()[3])
        norm2 = 0.0
        count = 0
        for line in fh:
            _, re_, im = line.split()
            norm2 += float(re_) ** 2 + float(im) ** 2
            count += 1
    if count != dim or not _close(norm2, 1.0):
        errors.append(f"{path}: {count} amplitudes of dim {dim}, norm^2 {norm2!r}")
    return errors


def check_drift(meta_path) -> list[str]:
    meta = read_meta(meta_path)
    errors = []
    if not float(meta["norm_drift"]) <= NORM_DRIFT_MAX:
        errors.append(f"{meta_path}: norm_drift {meta['norm_drift']} > {NORM_DRIFT_MAX}")
    if not float(meta["energy_drift"]) <= ENERGY_DRIFT_MAX:
        errors.append(f"{meta_path}: energy_drift {meta['energy_drift']} > {ENERGY_DRIFT_MAX}")
    return errors


def check_series(path, params, columns) -> list[str]:
    """``columns`` maps a header name to (value at t=0, bound on |value|)."""
    header, rows = read_csv(path)
    errors = check_drift(path + ".meta")
    if header != ["t", *columns]:
        return errors + [f"{path}: header {header}, want {['t', *columns]}"]
    if len(rows) != params["samples"] or rows[0][0] != 0.0 \
            or not _close(rows[-1][0], params["tmax"]):
        errors.append(f"{path}: grid of {len(rows)} rows from {rows[0][0]} to {rows[-1][0]}")
    for k, (name, (at_zero, bound)) in enumerate(columns.items(), 1):
        values = [r[k] for r in rows]
        if not _close(values[0], at_zero):
            errors.append(f"{path}: {name} at t=0 is {values[0]!r}, want {at_zero}")
        worst = max(abs(v) for v in values)
        if worst > bound + TOL:
            errors.append(f"{path}: |{name}| reaches {worst!r} > {bound}")
    return errors


def check_coherent(path, p) -> list[str]:
    """A coherent run with ``--with-l2``: Sz of the spin-1/2 centre and the ring's L^2."""
    l2 = (p["n"] / 2) * (p["n"] / 2 + 1)
    return check_series(path, p, {"value_Sz": (1.0, 1.0), "value_L2": (l2, l2)})


def compare_reference(unit_dir, ref_dir) -> list[str]:
    """Every reference CSV equals the unit's at REF_TOL; sub-ground energies too."""
    errors = []
    for name in sorted(os.listdir(ref_dir)):
        ref, got = os.path.join(ref_dir, name), os.path.join(unit_dir, name)
        if name.endswith(".csv"):
            ref_header, ref_rows = read_csv(ref)
            header, rows = read_csv(got)
            if header != ref_header or len(rows) != len(ref_rows) \
                    or any(len(a) != len(b) for a, b in zip(rows, ref_rows)):
                errors.append(f"{name}: shape differs from the reference")
                continue
            worst = max((abs(x - y) for a, b in zip(rows, ref_rows) for x, y in zip(a, b)),
                        default=0.0)
            if worst > REF_TOL:
                errors.append(f"{name}: differs from the reference by {worst!r}")
        elif name.endswith(".txt.meta"):
            ref_meta, meta = read_meta(ref), read_meta(got)
            for key in ("energy", "E1b"):
                if not _close(float(meta[key]), float(ref_meta[key]), REF_TOL):
                    errors.append(f"{name}: {key} {meta[key]}, reference {ref_meta[key]}")
    return errors


def check_unit(unit, unit_dir, ref_dir=None) -> list[str]:
    """All checks of one unit whose outputs sit in ``unit_dir``."""
    errors = []
    for cmd in unit.commands:
        path, p = os.path.join(unit_dir, cmd.out), cmd.params
        try:
            if cmd.name == "level-table":
                errors += check_level_table(path, p["n"])
            elif cmd.name == "ground-scan":
                errors += check_ground_scan(path, p["n"], p["two_s"], p["step"])
            elif cmd.name == "subground":
                table = os.path.join(unit_dir, "level_table.csv")
                errors += check_subground(path, table, p["two_s"], p["two_l"], p["j"], p["g"])
            elif cmd.name == "coherent":
                errors += check_coherent(path, p)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{cmd.name}: unreadable output: {exc!r}")
    if ref_dir is not None:
        try:
            errors += compare_reference(unit_dir, ref_dir)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"reference comparison failed: {exc!r}")
    return errors
