"""Command line front end.

Subcommands map one-to-one onto the library experiments:

* ``ground-scan``: ground energy and ring quantum number over a J/gt grid
* ``level-table``: per-l bottom energies of the ring
* ``neel``: staggered-magnetization quench time series
* ``coherent``: driven coherent-state run
* ``subground``: dump one closed-form eigenstate
* ``verify``: quick self-check suites

Every command but ``verify`` writes a file and its effective
configuration to ``<output>.meta``.
Options may also come from a ``key = value`` config file; explicit
flags win over the file, the file wins over built-in defaults. Exit
codes: 0 success, 1 failed verify checks, 2 bad parameters, usage or a
file that cannot be opened, 3 solver failure.
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
    bethe_levels,
    ground_scan,
    level_table,
    scan_transitions,
    sub_ground_energy,
)
from .states import subground_amplitudes, subground_layout

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_SOLVER = 3

# Largest --ratio grid or --samples count; a mistyped step would otherwise
# try to allocate the grid before anything is checked.
GRID_POINTS_MAX = 10**6


def _thread_count(text: str) -> int:
    """A worker thread count, an integer >= 1: the type of ``--threads``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _threads(args) -> int:
    """``--threads`` or config ``threads``, else STAR_THREADS, else all cores."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("STAR_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return _thread_count(env)
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"STAR_THREADS {exc}")


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


def _apply_config(parser: argparse.ArgumentParser, command: str,
                  config: dict[str, str]) -> None:
    """Make the config values ``command`` takes its option defaults.

    argparse converts string defaults with the option's type, so flags
    still win. A key another command takes is ignored, so one file may
    serve several commands; a key no command takes is refused as a typo.
    A switch refuses a value: "false" would be truthy.
    """
    (commands,) = (a for a in parser._actions if a.dest == "command")
    known = {a.dest for p in commands.choices.values() for a in p._actions}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ParameterError(f"unknown config key {', '.join(unknown)}: no command takes it")
    for action in commands.choices[command]._actions:
        if action.dest not in config:
            continue
        if action.nargs == 0:
            raise ParameterError(
                f"config key {action.dest} is a switch; give it on the command line")
        action.default = config[action.dest]


def _parse_ratio_range(text: str) -> list[float]:
    """start:stop:step grid, inclusive of stop up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"expected numbers in start:stop:step, got {text!r}")
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ParameterError(f"start:stop:step must be finite, got {text!r}")
    if step <= 0:
        raise ParameterError("ratio step must be positive")
    if stop < start:
        raise ParameterError("ratio stop must be >= start")
    span = (stop - start) / step + 1e-9
    if not span < GRID_POINTS_MAX:
        raise ParameterError(f"ratio grid {text!r} has more than {GRID_POINTS_MAX} points")
    count = math.floor(span) + 1
    return [start + i * step for i in range(count)]


def _write_meta(args, **results) -> None:
    """Sidecar of every option, overridden or extended by ``results``."""
    csvio.write_meta(args.out + ".meta",
                     {"version": __version__, **vars(args), **results})


def _command(sub, name: str, help: str, out: str | None,
             threads: str = "worker threads; unset means STAR_THREADS, else all cores",
             ) -> argparse.ArgumentParser:
    """A subcommand with --config, --threads and, if it writes a file, --out."""
    p = sub.add_parser(name, help=help,
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", help="key = value file of option defaults")
    p.add_argument("--threads", type=_thread_count, help=threads)
    if out is not None:
        p.add_argument("--out", default=out, help="output file path")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-star",
        description="Spectrum and dynamics of a central spin on a Heisenberg ring",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ground-scan", "ground level along a J/gt grid", "ground_scan.csv",
                 threads="only recorded in the sidecar; this command runs one thread")
    p.add_argument("--n", type=int, default=16, help="ring sites N")
    p.add_argument("--two-s", type=int, default=2, help="twice the central spin S")
    p.add_argument("--ratio", default="0:1.2:0.005", help="J/gt grid as start:stop:step")

    p = _command(sub, "level-table", "per-l ring bottom energies", "level_table.csv")
    p.add_argument("--n", type=int, default=16, help="ring sites N")

    p = _command(sub, "neel", "staggered magnetization after a quench", "neel.csv")
    p.add_argument("--n", type=int, default=12, help="ring sites N")
    p.add_argument("--two-s", type=int, default=3, help="twice the central spin S")
    p.add_argument("--j-over-gt", type=float, default=1.0, help="ring coupling J / gt")
    p.add_argument("--central", default="polarized", choices=["polarized", "uniform"],
                   help="central spin state")
    p.add_argument("--tmax", type=float, default=40.0, help="grid end in gt units")
    p.add_argument("--samples", type=int, default=400, help="time grid points")
    p.add_argument("--with-sz", action="store_true",
                   help="also record the central polarization")

    p = _command(sub, "coherent", "driven run from a coherent ring state", "coherent.csv")
    p.add_argument("--n", type=int, default=14, help="ring sites N")
    p.add_argument("--two-s", type=int, default=1, help="twice the central spin S")
    p.add_argument("--j", type=float, default=1.0, help="ring xy coupling J")
    p.add_argument("--jp", type=float, help="ring zz coupling Jp; unset means --j")
    p.add_argument("--g", type=float, default=1.0, help="central-ring coupling g")
    p.add_argument("--omega", type=float, default=1.0, help="field on the central spin")
    p.add_argument("--theta", type=float, default=math.pi / 2, help="coherent polar angle")
    p.add_argument("--phi", type=float, default=0.0, help="coherent azimuth")
    p.add_argument("--tmax-gt", type=float, default=100.0, help="grid end in g t units")
    p.add_argument("--samples", type=int, default=2000, help="time grid points")
    p.add_argument("--with-l2", action="store_true",
                   help="also record the ring angular momentum squared")

    p = _command(sub, "subground", "dump one closed-form eigenstate", "subground_state.txt",
                 threads="only recorded in the sidecar; this command runs one thread")
    p.add_argument("--n", type=int, default=8, help="ring sites N")
    p.add_argument("--two-s", type=int, default=2, help="twice the central spin S")
    p.add_argument("--two-l", type=int, help="twice the ring spin l; unset means N")
    p.add_argument("--two-m", type=int, help="twice the level m; unset means |2l - 2S|")
    p.add_argument("--j", type=float, default=1.0, help="ring coupling J")
    p.add_argument("--g", type=float, default=1.0, help="central-ring coupling g")

    p = _command(sub, "verify", "run self-check suites", None)
    p.add_argument("--suite", default="all", help="suite to run",
                   choices=["identities", "spectrum", "subground", "dynamics-oracle", "all"])
    p.add_argument("--n", type=int, help="ring sites N; unset means each suite's own")
    return parser


def cmd_ground_scan(args) -> int:
    threads = _threads(args)
    grid = _parse_ratio_range(args.ratio)
    make_params(args.n, args.two_s, J=0.0)  # checks N and the central spin before solving
    rows = ground_scan(bethe_levels(args.n), args.two_s, grid)
    csvio.write_ground_scan(args.out, rows)
    edges = scan_transitions(rows)
    trans_path = args.out.removesuffix(".csv") + ".transitions.csv"
    csvio.write_transitions(trans_path, edges)
    _write_meta(args, threads=threads, transitions=trans_path)
    print(f"wrote {args.out} ({len(rows)} rows) and {trans_path} ({len(edges)} edges)")
    return EXIT_OK


def cmd_level_table(args) -> int:
    threads = _threads(args)
    table = level_table(args.n, threads=threads)
    csvio.write_level_table(args.out, table)
    _write_meta(args, threads=threads,
                block_dim_max=max(row.block_dim for row in table.rows))
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def _write_experiment(args, tmax: float, experiment, **results) -> int:
    """Run ``experiment(grid, threads)`` on ``args.samples`` points of
    [0, tmax]; write its columns and a sidecar with its drifts, the
    number of blocks on each propagation route, the largest block, and
    the run's products of H with a state and Krylov bases."""
    threads = _threads(args)
    if args.samples < 2:
        raise ParameterError("need at least two samples")
    if args.samples > GRID_POINTS_MAX:
        raise ParameterError(f"--samples {args.samples} exceeds {GRID_POINTS_MAX}")
    if not math.isfinite(tmax):
        raise ParameterError("time grid must be finite")
    grid = np.linspace(0.0, tmax, args.samples)
    values, meta = experiment(grid, threads)
    csvio.write_timeseries(args.out, grid, values)
    routes = meta["routes"]
    results.update(norm_drift=f"{meta['norm_drift']:.3e}",
                   energy_drift=f"{meta['energy_drift']:.3e}",
                   spectral_blocks=routes.count("spectral"),
                   krylov_blocks=routes.count("krylov"),
                   block_dim_max=max(meta["block_dims"]),
                   h_products=meta["h_products"], krylov_bases=meta["krylov_bases"])
    _write_meta(args, threads=threads, **results)
    print(f"wrote {args.out} ({args.samples} rows)")
    return EXIT_OK


def cmd_neel(args) -> int:
    make_params(args.n, args.two_s, J=0.0)  # checks N before sqrt(N) is taken
    # on a gt t grid the run depends on J / gt and N only, so gt = 1
    params = make_params(args.n, args.two_s, J=args.j_over_gt, g=1.0 / math.sqrt(args.n))
    observables = ("Sz", "ms") if args.with_sz else ("ms",)
    return _write_experiment(args, args.tmax, lambda grid, threads: neel_experiment(
        params, args.central, grid, observables, threads))


def cmd_coherent(args) -> int:
    params = make_params(args.n, args.two_s, J=args.j, Jp=args.jp, g=args.g,
                         omega=args.omega)
    observables = ("Sz", "L2") if args.with_l2 else ("Sz",)
    return _write_experiment(args, args.tmax_gt, lambda grid, threads: coherent_experiment(
        params, args.theta, args.phi, grid, observables, threads), jp=params.Jp)


def cmd_subground(args) -> int:
    make_params(args.n, args.two_s, J=args.j, g=args.g)  # checks the model before solving
    two_l = args.n if args.two_l is None else args.two_l
    two_m = abs(two_l - args.two_s) if args.two_m is None else args.two_m
    # refuses a bad (l, m), and a sector beyond the cap or int64 keys, before any solve
    subground_layout(args.n, args.two_s, two_l, two_m)
    row, seed = bath_subground_state(args.n, two_l)
    amps = subground_amplitudes(args.n, args.two_s, two_l, two_m, seed=seed)
    csvio.write_state_dump(args.out, (args.n, args.two_s, two_m), amps)
    energy = sub_ground_energy(two_l, args.two_s, args.j, args.g, row.energy)
    _write_meta(args, two_l=two_l, two_m=two_m, energy=csvio.fmt(energy),
                E1b=csvio.fmt(row.energy), block_dim=row.block_dim)
    print(f"wrote {args.out} (dim {amps.size}), energy {csvio.fmt(energy)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    try:
        results = run_suite(args.suite, n=args.n, threads=_threads(args))
    except KeyError:
        raise ParameterError(f"unknown suite {args.suite!r}")
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
        if args.config:
            _apply_config(parser, args.command, _parse_config_file(args.config))
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (StarError, OSError) as exc:  # OSError: a missing --config, or a directory --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
