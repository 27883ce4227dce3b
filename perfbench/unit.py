"""Child process of the benchmark: one ``heisenberg-star`` command.

Usage: ``python3 unit.py REPORT TRACE ARGV...`` runs the CLI on ARGV in
this fresh process, as ``heisenberg-star ARGV...`` would, and writes a JSON
report to REPORT: the monotonic clock reading once the package is
imported and the arguments parsed, the wall time of the command after
that, its exit code, and, when TRACE is 1, the layer spans.

``python3 unit.py --probe`` prints the package location and the library
versions instead; the benchmark runs it once before timing anything, which
also leaves the bytecode caches warm.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        import numpy
        import scipy

        import heisenberg_star.cli

        print(json.dumps({"package": heisenberg_star.cli.__file__,
                          "python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}))
        return 0
    report_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]

    from heisenberg_star import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli.build_parser().parse_args(cli_argv)
    ready = time.monotonic()
    start = time.perf_counter()
    code = cli.main(cli_argv)
    wall = time.perf_counter() - start
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "wall_s": wall, "exit": code,
                   "spans": tracer.spans if tracer else []}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
