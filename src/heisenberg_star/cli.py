"""Command line front end.

Subcommands map one-to-one onto the library experiments:

* ``ground-scan``: ground energy and ring quantum number over a J/gt grid
* ``level-table``: per-l bottom energies of the ring
* ``neel``: staggered-magnetization quench time series
* ``coherent``: driven coherent-state run
* ``subground``: dump one closed-form eigenstate
* ``verify``: quick self-check suites

Every run writes its effective configuration to ``<output>.meta``.
Options may also come from a ``key = value`` config file; explicit
flags win over the file, the file wins over built-in defaults. Exit
codes: 0 success, 2 bad parameters or usage, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from . import csvio
from .core import make_params
from .dynamics import coherent_experiment, neel_experiment
from .errors import ConvergenceError, ParameterError, StarError
from .spectrum import (
    bath_subground_state,
    ground_scan,
    level_table,
    scan_transitions,
    sub_ground_energy,
)
from .states import subground_state
from .verify import run_suite

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_SOLVER = 3


def _default_threads() -> int:
    env = os.environ.get("STAR_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError(f"STAR_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def _parse_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, config: dict[str, str], key: str, default, cast):
    """CLI flag beats config file beats default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ParameterError(
                f"config value for {key} is not valid: {config[key]!r}")
    return default


def _parse_ratio_range(text: str) -> list[float]:
    """start:stop:step grid, inclusive of stop up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"expected numbers in start:stop:step, got {text!r}")
    if step <= 0:
        raise ParameterError("ratio step must be positive")
    if stop < start:
        raise ParameterError("ratio stop must be >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _meta_common(args_ns, extra: dict) -> dict:
    entries = {"version": __version__, "command": args_ns.command}
    entries.update(extra)
    return entries


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: STAR_THREADS or all cores)")
    p.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-star",
        description="Spectrum and dynamics of a central spin on a Heisenberg ring",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground-scan", help="ground level along a J/gt grid")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--two-s", type=int, default=None, dest="two_s")
    p.add_argument("--ratio", default=None, help="J/gt grid as start:stop:step")

    p = sub.add_parser("level-table", help="per-l ring bottom energies")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("neel", help="staggered magnetization after a quench")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--two-s", type=int, default=None, dest="two_s")
    p.add_argument("--j-over-gt", type=float, default=None, dest="j_over_gt")
    p.add_argument("--gt", type=float, default=None, help="collective coupling")
    p.add_argument("--central", default=None, choices=["polarized", "uniform"])
    p.add_argument("--tmax", type=float, default=None, help="grid end in gt units")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--with-sz", action="store_true", dest="with_sz",
                   help="also record the central polarization")

    p = sub.add_parser("coherent", help="driven run from a coherent ring state")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--two-s", type=int, default=None, dest="two_s")
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--jp", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--tmax-gt", type=float, default=None, dest="tmax_gt")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--with-l2", action="store_true", dest="with_l2",
                   help="also record the ring angular momentum squared")

    p = sub.add_parser("subground", help="dump one closed-form eigenstate")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--two-s", type=int, default=None, dest="two_s")
    p.add_argument("--two-l", type=int, default=None, dest="two_l")
    p.add_argument("--two-m", type=int, default=None, dest="two_m")
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--g", type=float, default=None)

    p = sub.add_parser("verify", help="run self-check suites")
    _add_common(p)
    p.add_argument("--suite", default=None,
                   choices=["identities", "spectrum", "subground",
                            "dynamics-oracle", "all"])
    p.add_argument("--n", type=int, default=None)
    return parser


def cmd_ground_scan(args, config) -> int:
    n = _resolve(args, config, "n", 16, int)
    two_s = _resolve(args, config, "two_s", 2, int)
    ratio = _resolve(args, config, "ratio", "0:1.2:0.005", str)
    out = _resolve(args, config, "out", "ground_scan.csv", str)
    threads = _resolve(args, config, "threads", _default_threads(), int)
    grid = _parse_ratio_range(ratio)
    rows = ground_scan(n, two_s, grid, threads=threads)
    csvio.write_ground_scan(out, rows)
    edges = scan_transitions(rows)
    trans_path = _with_suffix(out, ".transitions.csv")
    csvio.write_transitions(trans_path, edges)
    csvio.write_meta(out + ".meta", _meta_common(args, {
        "n": n, "two_s": two_s, "ratio": ratio, "threads": threads,
        "out": out, "transitions": trans_path,
    }))
    print(f"wrote {out} ({len(rows)} rows) and {trans_path} ({len(edges)} edges)")
    return EXIT_OK


def _with_suffix(path: str, suffix: str) -> str:
    stem = path[:-4] if path.endswith(".csv") else path
    return stem + suffix


def cmd_level_table(args, config) -> int:
    n = _resolve(args, config, "n", 16, int)
    out = _resolve(args, config, "out", "level_table.csv", str)
    threads = _resolve(args, config, "threads", _default_threads(), int)
    table = level_table(n, threads=threads)
    csvio.write_level_table(out, table)
    csvio.write_meta(out + ".meta", _meta_common(args, {
        "n": n, "threads": threads, "out": out,
    }))
    print(f"wrote {out} ({len(table.rows)} rows)")
    return EXIT_OK


def cmd_neel(args, config) -> int:
    n = _resolve(args, config, "n", 12, int)
    two_s = _resolve(args, config, "two_s", 3, int)
    j_over_gt = _resolve(args, config, "j_over_gt", 1.0, float)
    gt = _resolve(args, config, "gt", 1.0, float)
    central = _resolve(args, config, "central", "polarized", str)
    tmax = _resolve(args, config, "tmax", 40.0, float)
    samples = _resolve(args, config, "samples", 400, int)
    out = _resolve(args, config, "out", "neel.csv", str)
    threads = _resolve(args, config, "threads", _default_threads(), int)
    if central not in ("polarized", "uniform"):
        raise ParameterError(f"unknown central state {central!r}")
    if samples < 2:
        raise ParameterError("need at least two samples")
    g = gt / math.sqrt(n)
    params = make_params(n, two_s, J=j_over_gt * gt, g=g)
    grid = np.linspace(0.0, tmax, samples)
    observables = ("Sz", "ms") if args.with_sz else ("ms",)
    series = neel_experiment(params, central, grid, observables=observables,
                             threads=threads)
    columns = {name: series[name].values for name in observables}
    csvio.write_timeseries(out, grid, columns)
    ms_meta = series["ms"].meta
    csvio.write_meta(out + ".meta", _meta_common(args, {
        "n": n, "two_s": two_s, "j_over_gt": j_over_gt, "gt": gt,
        "central": central, "tmax": tmax, "samples": samples,
        "threads": threads, "out": out,
        "norm_drift": f"{ms_meta['norm_drift']:.3e}",
        "energy_drift": f"{ms_meta['energy_drift']:.3e}",
    }))
    print(f"wrote {out} ({samples} rows)")
    return EXIT_OK


def cmd_coherent(args, config) -> int:
    n = _resolve(args, config, "n", 14, int)
    two_s = _resolve(args, config, "two_s", 1, int)
    j = _resolve(args, config, "j", 1.0, float)
    jp = _resolve(args, config, "jp", None, lambda s: float(s))
    g = _resolve(args, config, "g", 1.0, float)
    omega = _resolve(args, config, "omega", 1.0, float)
    theta = _resolve(args, config, "theta", math.pi / 2, float)
    phi = _resolve(args, config, "phi", 0.0, float)
    tmax_gt = _resolve(args, config, "tmax_gt", 100.0, float)
    samples = _resolve(args, config, "samples", 2000, int)
    out = _resolve(args, config, "out", "coherent.csv", str)
    threads = _resolve(args, config, "threads", _default_threads(), int)
    if samples < 2:
        raise ParameterError("need at least two samples")
    params = make_params(n, two_s, J=j, Jp=jp, g=g, omega=omega)
    grid = np.linspace(0.0, tmax_gt, samples)
    observables = ("Sz", "L2") if args.with_l2 else ("Sz",)
    series = coherent_experiment(params, theta, phi, grid,
                                 observables=observables, threads=threads)
    columns = {name: series[name].values for name in observables}
    csvio.write_timeseries(out, grid, columns)
    sz_meta = series["Sz"].meta
    csvio.write_meta(out + ".meta", _meta_common(args, {
        "n": n, "two_s": two_s, "j": j, "jp": params.Jp, "g": g,
        "omega": omega, "theta": theta, "phi": phi, "tmax_gt": tmax_gt,
        "samples": samples, "threads": threads, "out": out,
        "norm_drift": f"{sz_meta['norm_drift']:.3e}",
        "energy_drift": f"{sz_meta['energy_drift']:.3e}",
        "block_dim_max": max(sz_meta["block_dims"]),
    }))
    print(f"wrote {out} ({samples} rows)")
    return EXIT_OK


def cmd_subground(args, config) -> int:
    n = _resolve(args, config, "n", 8, int)
    two_s = _resolve(args, config, "two_s", 2, int)
    two_l = _resolve(args, config, "two_l", n, int)
    default_m = abs(two_l - two_s)
    two_m = _resolve(args, config, "two_m", default_m, int)
    j = _resolve(args, config, "j", 1.0, float)
    g = _resolve(args, config, "g", 1.0, float)
    out = _resolve(args, config, "out", "subground_state.txt", str)
    e1b, seed = bath_subground_state(n, two_l)
    psi = subground_state(n, two_s, two_l, two_m, seed=seed)
    csvio.write_state_dump(out, psi)
    energy = sub_ground_energy(two_l, two_s, j, g, e1b)
    csvio.write_meta(out + ".meta", _meta_common(args, {
        "n": n, "two_s": two_s, "two_l": two_l, "two_m": two_m,
        "j": j, "g": g, "out": out,
        "energy": csvio.fmt(energy), "E1b": csvio.fmt(e1b),
    }))
    print(f"wrote {out} (dim {psi.dim}), energy {csvio.fmt(energy)}")
    return EXIT_OK


def cmd_verify(args, config) -> int:
    suite = _resolve(args, config, "suite", "all", str)
    n = _resolve(args, config, "n", None, int)
    threads = _resolve(args, config, "threads", _default_threads(), int)
    try:
        results = run_suite(suite, n=n, threads=threads)
    except KeyError:
        raise ParameterError(f"unknown suite {suite!r}")
    failed = 0
    for result in results:
        flag = "PASS" if result.passed else "FAIL"
        print(f"{flag} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECKS_FAILED


COMMANDS = {
    "ground-scan": cmd_ground_scan,
    "level-table": cmd_level_table,
    "neel": cmd_neel,
    "coherent": cmd_coherent,
    "subground": cmd_subground,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _parse_config_file(args.config) if args.config else {}
        return COMMANDS[args.command](args, config)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except StarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
