"""Acceptance gate: one test per release criterion, stated tolerances.

Each test prints a single PASS line with its measured margin once its
assertions hold, so a verbose run reads as a checklist. Expensive
artifacts (the N = 16 level table, the N = 12 quench family, the
N = 14 driven runs) are computed once per session in module fixtures
and shared. Every propagation fixture also records its norm and energy
diagnostics in a registry that the propagator criterion re-checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from heisenberg_star.core import (
    StateVector,
    enumerate_sector,
    make_params,
)
from heisenberg_star.dynamics import (
    coherent_experiment,
    evolve,
    first_crossing,
    neel_experiment,
)
from heisenberg_star.spectrum import (
    bethe_levels,
    degeneracy,
    ground_scan,
    level_table,
    scan_transitions,
    state_count,
    sub_ground_energy,
    transition_point,
)
from heisenberg_star.states import (
    bath_multiplet,
    coherent_coefficients,
    subground_coefficients,
    subground_squared_norm,
    subground_state,
)
from heisenberg_star.verify import reference_hamiltonian, reference_operator, restrict

# Unitarity and energy bounds every production run must respect.
NORM_DRIFT_BOUND = 1e-10
ENERGY_DRIFT_BOUND = 1e-9

# (label, meta) for every experiment run by the fixtures below.
PRODUCTION_DIAGNOSTICS = []


def _record(label, meta):
    PRODUCTION_DIAGNOSTICS.append((label, meta))
    assert meta["norm_drift"] <= NORM_DRIFT_BOUND, label
    assert meta["energy_drift"] <= ENERGY_DRIFT_BOUND, label


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def table16():
    return level_table(16, threads=4)


@pytest.fixture(scope="module")
def table12():
    return level_table(12, threads=2)


@pytest.fixture(scope="module")
def table8():
    return level_table(8)


@pytest.fixture(scope="module")
def neel10_runs():
    """N = 10, S = 1 quench at three ring couplings, shared time grid."""
    N, two_S = 10, 2
    gt = math.sqrt(N)
    grid = np.linspace(0.0, 40.0, 201)
    runs = {}
    for ratio in (0.0, 0.7, 2.0):
        params = make_params(N, two_S, J=ratio * gt, g=1.0)
        values, meta = neel_experiment(params, "polarized", grid,
                                       observables=("Sz", "ms"), threads=2)
        _record(f"neel10 J/gt={ratio}", meta)
        runs[ratio] = values
    return grid, runs


@pytest.fixture(scope="module")
def neel12_runs():
    """N = 12 quench family: ratios, central preparations, central spins."""
    N = 12
    gt = math.sqrt(N)
    grid = np.linspace(0.0, 10.0, 201)
    runs = {}
    cases = [(3, kind, r) for kind in ("polarized", "uniform")
             for r in (0.5, 1.0, 2.0, 4.0)]
    cases += [(1, "polarized", 0.5), (2, "polarized", 0.5)]
    for two_S, kind, ratio in cases:
        params = make_params(N, two_S, J=ratio * gt, g=1.0)
        values, meta = neel_experiment(params, kind, grid, threads=2)
        _record(f"neel12 two_S={two_S} {kind} J/gt={ratio}", meta)
        runs[(two_S, kind, ratio)] = values["ms"]
    return grid, runs


COHERENT_GRID = np.linspace(0.0, 55.0, 1101)
REVIVAL_WINDOW = (0.8 * 14 * math.pi, 1.2 * 14 * math.pi)


@pytest.fixture(scope="module")
def coherent_runs():
    """N = 14 driven runs from the equatorial ring state, spin 1/2 centre."""
    runs = {}
    for key, (J, Jp) in {
        "J0": (0.0, 0.0),
        "J1": (1.0, 1.0),
        "J5": (5.0, 5.0),
        "aniso": (1.0, 0.8),
    }.items():
        params = make_params(14, 1, J=J, Jp=Jp, g=1.0, omega=1.0)
        obs = ("Sz", "L2") if key == "aniso" else ("Sz",)
        values, meta = coherent_experiment(params, math.pi / 2, 0.0, COHERENT_GRID,
                                           observables=obs, threads=2)
        _record(f"coherent {key}", meta)
        runs[key] = values
    return runs


def longest_quiet_window(times, values, level):
    """Length of the longest contiguous stretch with |value| <= level."""
    best, start = 0.0, None
    for t, v in zip(times, values):
        if abs(v) <= level:
            if start is None:
                start = t
            best = max(best, t - start)
        else:
            start = None
    return best


# ------------------------------------------------------------------ criteria


def test_criterion_01_degeneracy_identity():
    t0 = time.perf_counter()
    for N in (4, 8, 12, 16):
        total = sum((2 * l + 1) * degeneracy(N, l) for l in range(N // 2 + 1))
        assert total == 2**N
    print(f"PASS criterion 1: multiplet counting exact for N in {{4,8,12,16}}"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_02_state_counting():
    t0 = time.perf_counter()
    for N, two_S in ((8, 1), (8, 4), (16, 4), (16, 14)):
        assert state_count(N, two_S) == (two_S + 1) * 2**N
    print(f"PASS criterion 2: level counting exact for the four pairs"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_03_bath_anchors(table8, table12, table16):
    t0 = time.perf_counter()
    worst = 0.0
    for table in (table8, table12, table16):
        N = table.N
        worst = max(worst, abs(table.energy(N) - N / 4.0))
        worst = max(worst, abs(table.energy(N - 2) - (N / 4.0 - 2.0)))
    assert worst <= 1e-9
    energies = [row.energy for row in table12.rows]
    assert all(a < b for a, b in zip(energies, energies[1:]))
    print(f"PASS criterion 3: anchors within {worst:.1e}, N=12 ordering strict"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_04_ground_scan_plateaus():
    t0 = time.perf_counter()
    N, step = 16, 0.005
    sqrt_n = math.sqrt(N)
    levels = bethe_levels(N)
    delta10 = levels[1] - levels[0]
    scans = {}
    for two_S in range(2, 15, 2):
        S = two_S / 2.0
        # weight of the l = 1 line fixes the last crossing; pad past it
        w1 = 2.0 * S if two_S <= 2 else S + 1.0
        stop = w1 / (sqrt_n * delta10) + 0.1
        grid = np.arange(0.0, stop, step)
        scans[two_S] = ground_scan(levels, two_S, grid)

    worst_edge = worst_slope1 = worst_slope2 = worst_offset = 0.0
    points7, segments7 = {}, {}
    for two_S, rows in scans.items():
        # (a) first plateau ends at S / (2 sqrt(N)), within one grid step
        edges = scan_transitions(rows)
        ratio, l_from, l_to = edges[0]
        assert l_from == 8
        err = abs(ratio - transition_point(N, two_S))
        worst_edge = max(worst_edge, err)
        assert err <= step + 1e-12
        # (b) plateau slopes from consecutive same-label rows
        segments7[two_S] = 0
        for a, b in zip(rows, rows[1:]):
            if a.lG == b.lG and a.lG in (8, 7):
                slope = (b.EG_over_gt - a.EG_over_gt) / (b.J_over_gt - a.J_over_gt)
                if a.lG == 8:
                    worst_slope1 = max(worst_slope1, abs(slope - 4.0))
                else:
                    worst_slope2 = max(worst_slope2, abs(slope - 2.0))
                    segments7[two_S] += 1
        points7[two_S] = sum(1 for r in rows if r.lG == 7)
        # (d) monotone quantum number ending at zero
        ls = [r.lG for r in rows]
        assert all(x >= y for x, y in zip(ls, ls[1:]))
        assert ls[0] == 8 and ls[-1] == 0
    assert worst_slope1 <= 1e-9
    # The lG = 7 window spans [S/8, S/7.825]: width 0.0028 S, with the
    # exact-tie grid point at S/8 kept on the first plateau by the
    # larger-l convention. The 0.005 grid therefore shows the second
    # plateau from S = 2 up and resolves a two-point slope from S = 4 up;
    # the slope claim is checked on every resolved stretch.
    for two_S in range(4, 15, 2):
        assert points7[two_S] >= 1
    for two_S in range(8, 15, 2):
        assert segments7[two_S] >= 1
    assert worst_slope2 <= 1e-9
    # (c) adjacent-S offset on the shared stretch of the first plateau
    probe = 10  # ratio 0.05, before the earliest transition at 0.125
    for two_S in range(2, 13, 2):
        lo = scans[two_S][probe]
        hi = scans[two_S + 2][probe]
        assert lo.lG == hi.lG == 8
        err = abs((lo.EG_over_gt - hi.EG_over_gt) - (N / 2 + 1) / sqrt_n)
        worst_offset = max(worst_offset, err)
    assert worst_offset <= 1e-9
    print(f"PASS criterion 4: edges within {worst_edge:.4f} (step {step}),"
          f" slopes within {max(worst_slope1, worst_slope2):.1e}"
          f" ({sum(segments7.values())} second-plateau stretches),"
          f" offsets within {worst_offset:.1e}, lG monotone to 0"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_05_subground_eigenvectors(table8):
    t0 = time.perf_counter()
    N, J, g = 8, 0.85, 1.1
    worst_r = worst_j2 = worst_l2 = 0.0
    checked = 0
    for two_S in (2, 3, 4):
        # the star, L^2 and S.L of the Kronecker reference
        full_H = reference_hamiltonian(N, two_S, J, J, g, 0.0)
        full_L2 = reference_operator(N, two_S, "L2")
        full_SL = reference_hamiltonian(N, two_S, 0.0, 0.0, 1.0, 0.0)
        for two_l in range(0, N + 1, 2):
            mult = bath_multiplet(N, two_l)
            two_j = abs(two_l - two_S)
            energy = sub_ground_energy(two_l, two_S, J, g, table8.energy(two_l))
            for two_m in range(-two_j, two_j + 1, 2):
                st = subground_state(N, two_S, two_l, two_m, multiplet=mult)
                sec, amps = st.require_single()
                H = restrict(full_H, sec.keys)
                worst_r = max(worst_r, float(np.linalg.norm(
                    H @ amps - energy * amps)))
                S = two_S / 2.0
                L2 = restrict(full_L2, sec.keys)
                SL = restrict(full_SL, sec.keys)
                l2 = float(np.vdot(amps, L2 @ amps).real)
                j2 = S * (S + 1.0) + l2 \
                    + 2.0 * float(np.vdot(amps, SL @ amps).real)
                j = two_j / 2.0
                l = two_l / 2.0
                worst_j2 = max(worst_j2, abs(j2 - j * (j + 1.0)))
                worst_l2 = max(worst_l2, abs(l2 - l * (l + 1.0)))
                checked += 1
    assert worst_r <= 1e-8
    assert worst_j2 <= 1e-8
    assert worst_l2 <= 1e-8
    # highest-weight norm identity, exact rational arithmetic
    for two_S in range(1, 13):
        start = two_S + (two_S % 2)
        for two_l in range(max(start, 2), 13, 2):
            assert subground_squared_norm(two_S, two_l) \
                == Fraction(math.comb(two_l + 1, two_S))
            co = subground_coefficients(two_S, two_l, two_l - two_S)
            assert len(co) == two_S + 1
    print(f"PASS criterion 5: {checked} states, residual {worst_r:.1e},"
          f" momentum labels within {max(worst_j2, worst_l2):.1e},"
          f" norm identity exact ({time.perf_counter() - t0:.2f}s)")


def test_criterion_06_central_motion_ignores_ring_coupling(neel10_runs):
    t0 = time.perf_counter()
    grid, runs = neel10_runs
    ratios = sorted(runs)
    worst_sz, best_ms = 0.0, math.inf
    for i in range(len(ratios)):
        for k in range(i + 1, len(ratios)):
            a, b = runs[ratios[i]], runs[ratios[k]]
            worst_sz = max(worst_sz, float(np.max(np.abs(a["Sz"] - b["Sz"]))))
            best_ms = min(best_ms, float(np.max(np.abs(a["ms"] - b["ms"]))))
    assert worst_sz <= 1e-8
    assert best_ms > 0.05
    print(f"PASS criterion 6: central polarization matches to {worst_sz:.1e}"
          f" while the staggered signal differs by {best_ms:.2f}"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_07_propagator_oracle(neel10_runs, neel12_runs, coherent_runs):
    t0 = time.perf_counter()
    params = make_params(6, 2, J=0.8, g=1.0)
    sectors = [enumerate_sector(6, 2, m) for m in range(-8, 9, 2)]
    rng = np.random.default_rng(909)
    state = StateVector.from_blocks([
        (s, rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim))
        for s in sectors
    ])
    full_H = reference_hamiltonian(6, 2, params.J, params.Jp, params.g, 0.0)
    hams = [restrict(full_H, s.keys) for s in sectors]
    gt_grid = np.linspace(0.0, 20.0, 21)
    t_abs = gt_grid / params.gt
    props = [scipy.linalg.expm(-1j * h.toarray() * (t_abs[1] - t_abs[0])) for h in hams]
    reference = [state.block(i).copy() for i in range(state.n_blocks)]
    worst = 0.0
    outs = list(evolve(lambda block, dense: restrict(full_H, block.keys), state, t_abs))
    for step, out in enumerate(outs):
        if step > 0:
            reference = [p @ r for p, r in zip(props, reference)]
        for i in range(out.n_blocks):
            worst = max(worst, float(np.max(np.abs(out.block(i) - reference[i]))))
    assert worst <= 1e-9
    # every production run in this module stayed unitary and on shell
    assert PRODUCTION_DIAGNOSTICS
    for label, meta in PRODUCTION_DIAGNOSTICS:
        assert meta["norm_drift"] <= NORM_DRIFT_BOUND, label
        assert meta["energy_drift"] <= ENERGY_DRIFT_BOUND, label
    print(f"PASS criterion 7: amplitude error {worst:.1e} vs dense exponential,"
          f" {len(PRODUCTION_DIAGNOSTICS)} production runs within drift bounds"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_08_quench_orderings(neel12_runs):
    t0 = time.perf_counter()
    grid, runs = neel12_runs
    th = {key: first_crossing(grid, values, 0.25) for key, values in runs.items()}
    for v in th.values():
        assert math.isfinite(v)
    # faster rings pull the staggered signal down sooner
    assert th[(3, "polarized", 0.5)] > th[(3, "polarized", 1.0)] \
        > th[(3, "polarized", 2.0)]
    # a spread-out centre beats a polarized one at weak ring coupling
    assert th[(3, "uniform", 0.5)] < th[(3, "polarized", 0.5)]
    # and the preparation stops mattering as the ring takes over
    gaps = [th[(3, "polarized", r)] - th[(3, "uniform", r)]
            for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # heavier central spins dent the bath faster
    assert th[(1, "polarized", 0.5)] > th[(2, "polarized", 0.5)] \
        > th[(3, "polarized", 0.5)]
    print(f"PASS criterion 8: half-value orderings hold"
          f" (gaps {', '.join(f'{g:.3f}' for g in gaps)})"
          f" ({time.perf_counter() - t0:.2f}s)")


def test_criterion_09_collapse_and_revival(coherent_runs):
    t0 = time.perf_counter()
    sz = {k: coherent_runs[k]["Sz"] for k in ("J0", "J1", "J5")}
    # ring-coupling invariance of the driven central spin
    worst = max(
        float(np.max(np.abs(sz["J0"] - sz["J1"]))),
        float(np.max(np.abs(sz["J0"] - sz["J5"]))),
        float(np.max(np.abs(sz["J1"] - sz["J5"]))),
    )
    assert worst <= 1e-8
    # collapse: a sustained quiet stretch strictly inside (5, 30)
    mask = (COHERENT_GRID > 5.0) & (COHERENT_GRID < 30.0)
    quiet = longest_quiet_window(COHERENT_GRID[mask], sz["J1"][mask], 0.1)
    assert quiet >= 2.0
    # revival inside the window around 14 pi
    wmask = (COHERENT_GRID >= REVIVAL_WINDOW[0]) & (COHERENT_GRID <= REVIVAL_WINDOW[1])
    revival = float(np.max(sz["J1"][wmask]))
    assert revival >= 0.3
    # the driving state, its Dicke weights spread over every ring
    # configuration, really is an eigenstate of the reference ring
    N = 14
    n_up = np.bitwise_count(np.arange(1 << N))
    x = coherent_coefficients(N, math.pi / 2, 0.0)[n_up] / np.sqrt(
        [math.comb(N, n) for n in n_up])
    r = reference_hamiltonian(N, 0, 1.0, 1.0, 0.0, 0.0) @ x - (N / 4.0) * x
    total = float(np.vdot(r, r).real)
    assert math.sqrt(total) <= 1e-10
    print(f"PASS criterion 9: runs agree to {worst:.1e}, quiet window"
          f" {quiet:.1f}, revival {revival:.3f}, eigenstate residual"
          f" {math.sqrt(total):.1e} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_10_anisotropy_fragility(coherent_runs):
    t0 = time.perf_counter()
    l2 = coherent_runs["aniso"]["L2"]
    mask = COHERENT_GRID <= 50.0
    drift = float(np.max(np.abs(l2[mask] - l2[0])))
    assert drift > 1.0
    wmask = (COHERENT_GRID >= REVIVAL_WINDOW[0]) & (COHERENT_GRID <= REVIVAL_WINDOW[1])
    iso = float(np.max(coherent_runs["J1"]["Sz"][wmask]))
    aniso = float(np.max(coherent_runs["aniso"]["Sz"][wmask]))
    assert aniso <= 0.7 * iso
    print(f"PASS criterion 10: momentum drift {drift:.2f}, revival"
          f" {aniso:.3f} vs isotropic {iso:.3f}"
          f" ({100 * (1 - aniso / iso):.0f}% drop)"
          f" ({time.perf_counter() - t0:.2f}s)")
