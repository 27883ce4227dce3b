"""Seeded input generator: the CLI argv of every benchmark unit.

A unit is what one CLI user does for one result: one to three
``heisenberg-star`` commands, each run in its own fresh process. The
program sees nothing but the generated argv, and the same seed always
gives the same argv.

The free physical inputs are drawn from their bands in strata, offset by
the seed: a continuous input ``k`` of unit ``i`` sits at ``frac(u_k + i
a_k)`` of its band (a Weyl sequence), with ``u_k`` uniform from the seed
and ``a_k`` a fixed irrational step, and a discrete input cycles through
its options from a seeded start. Any few consecutive units then cover
each band, so the median of a run depends little on the seed, and the
run-to-run spread measures the machine rather than the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 2205
THREADS = 1

# Problem and grid sizes; the driven grid keeps a step of 0.05 gt.
RING = 16            # spectrum ring length
DYN_RING = 14        # dynamics ring length
ANISO_TMAX, ANISO_SAMPLES = 10.0, 201
SCAN_RATIO = "0:1.2:0.005"
SCAN_STEP = 0.005


@dataclass
class Command:
    """One CLI invocation and what the checker needs to know about it."""

    name: str                      # subcommand
    argv: list[str]                # full argv after the program name
    out: str                       # main output file, relative to the unit dir
    params: dict = field(default_factory=dict)


@dataclass
class Unit:
    workload: str
    seed: int
    index: int
    commands: list[Command]


# one irrational step per input, so the inputs do not move in lockstep
_STEPS = (math.sqrt(2) - 1, (math.sqrt(5) - 1) / 2, math.sqrt(3) - 1,
          math.sqrt(7) - 2, math.sqrt(11) - 3)


class Draw:
    """Stratified draws of the free inputs of unit ``index`` under ``seed``."""

    def __init__(self, workload: str, seed: int, index: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.index = index
        self.k = 0

    def _next(self) -> float:
        step = _STEPS[self.k]
        self.k += 1
        return (self.rng.random() + self.index * step) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._next()

    def choice(self, options):
        self.k += 1
        return options[(self.rng.randrange(len(options)) + self.index) % len(options)]


def _f(x: float) -> str:
    return f"{x:.6f}"


def _spectrum(draw: Draw) -> list[Command]:
    two_s = draw.choice((1, 2, 3, 4))
    two_l = draw.choice((4, 6, 8))
    n = str(RING)
    common = ["--threads", str(THREADS)]
    return [
        Command("level-table", ["level-table", "--n", n, "--out", "level_table.csv", *common],
                "level_table.csv", {"n": RING}),
        Command("ground-scan", ["ground-scan", "--n", n, "--two-s", str(two_s),
                                "--ratio", SCAN_RATIO, "--out", "ground_scan.csv", *common],
                "ground_scan.csv", {"n": RING, "two_s": two_s, "step": SCAN_STEP}),
        Command("subground", ["subground", "--n", n, "--two-s", str(two_s),
                              "--two-l", str(two_l), "--out", "subground.txt", *common],
                "subground.txt",
                {"n": RING, "two_s": two_s, "two_l": two_l, "j": 1.0, "g": 1.0}),
    ]


def _driven_aniso(draw: Draw) -> list[Command]:
    theta = _f(draw.uniform(math.pi / 3, 2 * math.pi / 3))
    phi = _f(draw.uniform(0.0, 2 * math.pi))
    j = draw.uniform(0.5, 1.5)
    omega = _f(draw.uniform(0.8, 1.2))
    jp = j * draw.uniform(0.7, 0.9)
    argv = ["coherent", "--n", str(DYN_RING), "--theta", theta, "--phi", phi,
            "--j", _f(j), "--jp", _f(jp), "--omega", omega,
            "--tmax-gt", str(ANISO_TMAX), "--samples", str(ANISO_SAMPLES), "--with-l2",
            "--out", "coherent.csv", "--threads", str(THREADS)]
    return [Command("coherent", argv, "coherent.csv",
                    {"n": DYN_RING, "tmax": ANISO_TMAX, "samples": ANISO_SAMPLES})]


WORKLOADS = {
    "spectrum": _spectrum,
    "driven-aniso": _driven_aniso,
}


def unit(workload: str, seed: int, index: int) -> Unit:
    """The ``index``-th unit of a workload under a seed."""
    return Unit(workload, seed, index, WORKLOADS[workload](Draw(workload, seed, index)))
