"""Static spectrum of the star: ring level structure and closed forms.

The only numerical work here is the lowest level of the isotropic ring
in each magnetization block, found two ways:

* :func:`bethe_levels` takes every level from the Bethe ansatz of the
  XXX ring: one small Newton solve per block, certified by its residual
  and by the strict increase of the levels with l, at any even N. The
  ground scan uses it.
* :func:`level_table` and :func:`bath_subground_state` solve each block
  by exact diagonalization on its Marshall-rotated dihedral orbit
  block, which holds the level exactly (see
  :func:`bath_subground_state`) and is about 2N times smaller; at
  l = 0 the spin flip folds that block once more, to 257 states at
  N = 16. One numpy Lanczos with full reorthogonalization solves every
  block, from a fixed positive start vector, and certifies its pair by
  the true residual. ``subground`` needs the eigenvector, and the
  level table is the Bethe levels' oracle.

Everything else is arithmetic on top of those numbers:

* each ring block ``l_m = l`` has a nondegenerate bottom level with
  total ring angular momentum ``l`` and energy ``E1b(l)``, strictly
  increasing with ``l`` (ferromagnetic states cost the most); that
  strict increase is what certifies the angular momentum,
* attaching the central spin shifts a ring multiplet ``(l, E_b)`` by a
  closed-form amount depending only on quantum numbers, so the star
  spectrum and its per-``l`` sub-ground energies need no further
  diagonalization.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import OrbitBlock, StateVector, _flip_block, enumerate_bath_sector, orbit_block
from .errors import ConvergenceError, ParameterError, StarError
from .operators import CSR, SparseOperator, build_bath_ring

# A pair is accepted when its true residual |A v - lam v| is at most
# LANCZOS_TOL; the Krylov basis holds at most LANCZOS_PRODUCTS vectors,
# one matrix-vector product each. It grows by LANCZOS_CHUNK vectors at a
# time, and the Ritz estimate is checked every LANCZOS_CHECK steps.
LANCZOS_TOL = 1e-10
LANCZOS_PRODUCTS = 500
LANCZOS_CHUNK = 32
LANCZOS_CHECK = 8

# Bethe roots are accepted when the largest residual of the scaled Bethe
# equations is at most BETHE_TOL; Newton stops after a step no larger than
# BETHE_STEP_TOL (quadratic convergence leaves the next iterate at rounding
# level) and gives up after BETHE_NEWTON_STEPS steps.
BETHE_TOL = 1e-12
BETHE_STEP_TOL = 1e-9
BETHE_NEWTON_STEPS = 50


def _check_ring_length(N: int) -> None:
    if N % 2 != 0 or N < 2:
        raise ParameterError(f"N must be even and >= 2, got {N}")


def degeneracy(N: int, l: int) -> int:
    """Number of ring multiplets with total angular momentum l.

    Counted as the difference of two binomials: states with
    magnetization l minus states with magnetization l + 1. Exact
    integer arithmetic.
    """
    _check_ring_length(N)
    if l < 0 or l > N // 2:
        return 0
    first = math.comb(N, l + N // 2)
    second = math.comb(N, l + 1 + N // 2) if l + 1 + N // 2 <= N else 0
    return first - second


def _real_matrix(op: SparseOperator) -> CSR:
    """The CSR of ``op`` in float64; StarError if its imaginary part is nonzero."""
    mat = op.matrix
    if np.iscomplexobj(mat.data):
        if mat.data.imag.any():
            raise StarError(f"operator on {op.tag} has a nonzero imaginary part;"
                            " the ring solver takes real symmetric matrices only")
        mat = CSR(mat.indptr, mat.indices, mat.data.real)
    return mat


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate ``vec`` so its first entry of largest magnitude is real and > 0.

    Entries within a relative 1e-8 of the largest count as largest, so
    rounding cannot choose between entries symmetry makes equal.
    """
    mags = np.abs(vec)
    pivot = vec[np.flatnonzero(mags >= (1.0 - 1e-8) * mags.max())[0]]
    return vec * (abs(pivot) / pivot)


def lowest_eigenpair(op: SparseOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric operator, by Lanczos with full
    reorthogonalization.

    The start vector 1 + frac(i phi) (phi the golden ratio) is fixed and
    positive. Every block the package solves is Marshall-rotated, so its
    bottom is a positive Perron vector, which a positive start cannot be
    orthogonal to. Each new vector is orthogonalized twice against the
    whole basis. Every LANCZOS_CHECK steps the tridiagonal is diagonalized
    and the iteration stops once the Ritz estimate beta_m |s_m| of the
    lowest pair is at rounding level, or on breakdown, or when the basis
    spans the space or holds LANCZOS_PRODUCTS vectors. The pair is then
    certified by its true residual, else ConvergenceError carries it.

    The vector's phase is fixed: its first entry of largest magnitude, up
    to rounding, is real and positive. A complex matrix with a nonzero
    imaginary part is refused; one stored complex with a zero imaginary
    part gives the same bits as its real storage.
    """
    mat = _real_matrix(op)
    n = op.dim
    cap = min(n, LANCZOS_PRODUCTS)
    eps = np.finfo(float).eps
    basis = np.empty((min(cap, LANCZOS_CHUNK), n))
    basis[0] = 1.0 + np.modf(np.arange(n) * ((math.sqrt(5.0) - 1.0) / 2.0))[0]
    basis[0] /= np.linalg.norm(basis[0])
    alpha, beta, scale = [], [], 0.0
    for j in range(cap):
        w = mat @ basis[j]
        alpha.append(float(basis[j] @ w))
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        b = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha[-1]) + b + (beta[-1] if beta else 0.0))
        if b <= eps * scale or (j + 1) % LANCZOS_CHECK == 0 or j + 1 == cap:
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            s = np.linalg.eigh(tri)[1][:, 0]
            if b * abs(s[-1]) <= eps * scale or j + 1 == cap:
                break
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(LANCZOS_CHUNK, cap - j - 1), n))])
        beta.append(b)
        basis[j + 1] = w / b
    vec = basis[:len(alpha)].T @ s
    vec /= np.linalg.norm(vec)
    w = mat @ vec
    energy = float(vec @ w)
    residual = float(np.linalg.norm(w - energy * vec))
    if residual > LANCZOS_TOL:
        raise ConvergenceError(f"Lanczos did not reach tol={LANCZOS_TOL} with"
                               f" {len(alpha)} Krylov vectors (residual {residual:.3e})",
                               residual=residual)
    return energy, _fix_phase(vec)


def _ring_block(N: int, two_l: int) -> SparseOperator:
    """The Marshall-rotated ring H(-1, 1) on the dihedral orbit block of
    ring block ``l_m = l``, folded by the spin flip at l = 0."""
    block = orbit_block(enumerate_bath_sector(N, (N + two_l) // 2))
    if two_l == 0:
        block = _flip_block(block)
    return build_bath_ring(block, -1.0, 1.0)


@dataclass(frozen=True)
class LevelRow:
    """One solved ring level: the bottom energy of ring block l, its
    multiplet count, and the dimension of the block it was solved on.
    Built by :func:`_ring_level` only."""

    two_l: int
    energy: float
    degeneracy: int
    block_dim: int

    @property
    def l(self) -> int:
        return self.two_l // 2


def _ring_level(N: int, two_l: int) -> tuple[LevelRow, np.ndarray, OrbitBlock]:
    """Solve the bottom level of ring block ``l_m = l`` once: its row, its
    amplitudes on the block solved, and that block."""
    op = _ring_block(N, two_l)
    energy, x = lowest_eigenpair(op)
    row = LevelRow(two_l=two_l, energy=energy, degeneracy=degeneracy(N, two_l // 2),
                   block_dim=op.dim)
    return row, x, op.sector


def _check_increase(two_l: int, lower: float, upper: float) -> None:
    """StarError unless E1b(l + 1) = ``upper`` lies more than 1e-9 above
    E1b(l) = ``lower``."""
    if upper <= lower + 1e-9:
        raise StarError(f"ring level ordering violated at l={two_l // 2 + 1}:"
                        f" {upper} after {lower}")


def bath_subground_state(N: int, two_l: int) -> tuple[LevelRow, StateVector]:
    """Bottom level of the ring block ``l_m = l`` at unit coupling.

    N is even, so the ring is bipartite, and the diagonal sign
    M = (-1)^(up spins on odd sites) maps the ring H(J, Jp) to H(-J, Jp),
    whose hops are all nonpositive. By Perron-Frobenius the bottom of
    each block of H(-J, Jp) is nondegenerate and positive, so it is
    invariant under the ring's rotations and reflections: it lies in the
    dihedral orbit block (:func:`core.orbit_block`), about 2N times
    smaller than the block. At l = 0 the block is half filled, and the
    spin flip P, which inverts every bit, maps it onto itself and
    commutes with H(-J, Jp) and the dihedral group; P of the bottom is
    again a positive bottom, so by nondegeneracy the bottom is flip
    even, and it lies in the block whose orbits also merge each state
    with its complement (:func:`core._flip_block`), about half as large.
    The level is solved there and expanded back onto the sector,
    v_s = M_s x[label[s]] / sqrt(size[label[s]]), with the phase fixed
    after the expansion.

    Returns the level's row, the one :func:`level_table` reports, and the
    eigenvector, after certifying that the vector carries ring angular
    momentum exactly ``l`` by the strict gap E1b(l) < E1b(l + 1), with
    block l + 1 solved the same way.
    The isotropic ring commutes with L, and the bottom is nondegenerate,
    so it has one total spin L >= l. Were L > l, then L+ of it would be
    a level of the same energy in block l + 1, and E1b(l + 1) <= E1b(l).
    The top block l = N/2 holds one state and needs no certificate.
    """
    if two_l % 2 != 0 or two_l < 0 or two_l > N:
        raise ParameterError(f"two_l={two_l} invalid for N={N}")
    row, x, block = _ring_level(N, two_l)
    if two_l < N:
        _check_increase(two_l, row.energy, _ring_level(N, two_l + 2)[0].energy)
    sector = block.sector
    odd_sites = sum(1 << a for a in range(0, N, 2))  # sites 1, 3, ...
    marshall = (-1.0) ** np.bitwise_count(sector.bits & odd_sites)
    vec = _fix_phase(marshall * x[block.label] / np.sqrt(block.size[block.label]))
    return row, StateVector.single(sector, vec)


@dataclass(frozen=True)
class LevelTable:
    """Per-l bottom energies of the ring at unit coupling.

    Construction checks the strict increase of the energies with l, which
    certifies that the bottom of block l has angular momentum l (see
    :func:`bath_subground_state`), and the multiplet counting identity
    sum_l (2l + 1) d_{N,l} = 2^N.
    """

    N: int
    rows: tuple[LevelRow, ...]

    def energy(self, two_l: int) -> float:
        for row in self.rows:
            if row.two_l == two_l:
                return row.energy
        raise KeyError(f"no row for two_l={two_l}")

    def __post_init__(self):
        for a, b in zip(self.rows, self.rows[1:]):
            _check_increase(a.two_l, a.energy, b.energy)
        total = sum((row.two_l + 1) * row.degeneracy for row in self.rows)
        if total != 2 ** self.N:
            raise StarError(
                f"multiplet counting failed: {total} != 2^{self.N}"
            )


def level_table(N: int, threads: int = 1) -> LevelTable:
    """Solve each ring block l = 0 .. N/2 once and tabulate its row; the
    table's ordering check certifies every row, so no block is solved twice."""
    _check_ring_length(N)
    two_ls = list(range(0, N + 1, 2))

    def solve(two_l):
        return _ring_level(N, two_l)[0]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(solve, two_ls))
    else:
        rows = [solve(t) for t in two_ls]
    return LevelTable(N=N, rows=tuple(rows))


def _bethe_bottom(N: int, M: int) -> tuple[float, float]:
    """Energy and equation residual of the Bethe state with M magnons and
    Bethe numbers I_j = -(M - 1)/2 .. (M - 1)/2; see :func:`bethe_levels`."""
    I = np.arange(M) - (M - 1) / 2.0
    lam = 0.5 * np.tan(np.pi * I / N)

    def equations(lam):
        diff = lam[:, None] - lam[None, :]
        return np.arctan(2.0 * lam) - (np.pi * I + np.arctan(diff).sum(axis=1)) / N, diff

    converged = False
    for _ in range(BETHE_NEWTON_STEPS):
        residual, diff = equations(lam)
        kernel = 1.0 / (1.0 + diff * diff)
        jacobian = kernel / N
        jacobian[np.diag_indices(M)] = (2.0 / (1.0 + 4.0 * lam * lam)
                                        - (kernel.sum(axis=1) - 1.0) / N)
        step = np.linalg.solve(jacobian, residual)
        lam = lam - step
        converged = bool(np.all(np.abs(step) <= BETHE_STEP_TOL))
        if converged:
            break
    worst = float(np.abs(equations(lam)[0]).max(initial=0.0))
    ordered = bool(np.all(np.diff(lam) > 0.0))
    if not (converged and ordered and worst <= BETHE_TOL):
        raise ConvergenceError(f"Bethe roots for N={N}, M={M} are not certified:"
                               f" Newton converged within {BETHE_NEWTON_STEPS} steps:"
                               f" {converged}, ordered like the I_j: {ordered},"
                               f" residual {worst:.3e}", residual=worst)
    return N / 4.0 - float(np.sum(0.5 / (lam * lam + 0.25))), worst


def bethe_levels(N: int) -> np.ndarray:
    """E1b(l) for l = 0 .. N/2 at unit coupling, from the Bethe ansatz.

    The bottom of ring block ``l_m = l`` is the Bethe state of
    M = N/2 - l magnons whose Bethe numbers are I_j = -(M - 1)/2, ...,
    (M - 1)/2 (Griffiths 1964). Its real rapidities solve

        arctan(2 lam_j) = (pi I_j + sum_k arctan(lam_j - lam_k)) / N,

    the Bethe equations divided by 2N, by Newton with the analytic
    Jacobian from lam_j = tan(pi I_j / N) / 2 (Karbach and Mueller 1997),
    and the level is E1b(l) = N/4 - sum_j (1/2) / (lam_j^2 + 1/4). M = 0
    gives N/4 and M = 1 (lam = 0) gives N/4 - 2, both exactly. N = 2
    counts its one bond twice, as the ring builder does.

    ConvergenceError, carrying the largest residual, unless every solve
    converges within BETHE_NEWTON_STEPS, its residual is at most
    BETHE_TOL, its roots are strictly ordered like the I_j, and the
    energies strictly increase with l (the certificate of the angular
    momentum, see :func:`bath_subground_state`). Exact diagonalization
    (:func:`level_table`) is the oracle of these numbers up to N = 22.
    """
    _check_ring_length(N)
    solved = [_bethe_bottom(N, N // 2 - l) for l in range(N // 2 + 1)]
    energies = np.array([energy for energy, _ in solved])
    worst = max(residual for _, residual in solved)
    if not np.all(np.diff(energies) > 0.0):
        raise ConvergenceError(f"Bethe levels for N={N} do not increase strictly with l"
                               f" (largest residual {worst:.3e})", residual=worst)
    return energies


def single_magnon_energy(N: int, k_index: int) -> float:
    """One flipped spin on the ferromagnetic ring: N/4 - (1 - cos k).

    ``k_index`` labels the allowed momentum k = 2 pi k_index / N. The
    band minimum sits at k = pi (k_index = N/2) and equals N/4 - 2,
    which is also the bottom of the ring block one step below maximal
    magnetization.
    """
    k = 2.0 * math.pi * k_index / N
    return N / 4.0 - (1.0 - math.cos(k))


def star_energy(two_l: int, two_s: int, two_S: int, J: float, g: float,
                E_b: float) -> float:
    """Energy of the star level grown from a ring multiplet (l, E_b).

    ``two_s`` is the doubled offset of the total angular momentum from
    the larger of l and S: j = l + s for S <= l, j = S + s for l < S.
    """
    l = two_l / 2.0
    s = two_s / 2.0
    S = two_S / 2.0
    if two_S <= two_l:
        if abs(two_s) > two_S or (two_s - two_S) % 2 != 0:
            raise ParameterError(f"two_s={two_s} invalid for branch S <= l")
        shift = s * s + s * (2.0 * l + 1.0) - S * (S + 1.0)
    else:
        if abs(two_s) > two_l or (two_s - two_l) % 2 != 0:
            raise ParameterError(f"two_s={two_s} invalid for branch l < S")
        shift = s * s + s * (2.0 * S + 1.0) - l * (l + 1.0)
    return J * E_b + 0.5 * g * shift


def sub_ground_energy(two_l: int, two_S: int, J: float, g: float,
                      E1b: float) -> float:
    """Lowest star level built on the bottom ring multiplet of given l.

    The minimum over the ladder offset lands at s = -min(S, l):

        S <= l:  J E1b - g S (l + 1)
        l < S:   J E1b - g l (S + 1)

    with degeneracy 2 |l - S| + 1. ``J`` may be an array, giving one
    energy per entry.
    """
    l = two_l / 2.0
    S = two_S / 2.0
    if two_S <= two_l:
        return J * E1b - g * (S * (l + 1.0))
    return J * E1b - g * (l * (S + 1.0))


@dataclass(frozen=True)
class GroundScanRow:
    J_over_gt: float
    EG_over_gt: float
    lG: int


def ground_scan(levels, two_S: int, ratio_grid) -> list[GroundScanRow]:
    """Ground energy and its ring quantum number along a J/gt grid.

    Arithmetic on the ring levels ``levels[l]`` = E1b(l), l = 0 .. N/2
    (:func:`bethe_levels`, or the energies of a :func:`level_table`), so
    N = 2 (len(levels) - 1). Energies are reported in units of the
    collective coupling gt = g sqrt(N). Ties between l values are broken
    toward larger l, matching the ferromagnetic side of each crossing.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size < 2:
        raise ParameterError(f"levels must hold E1b(l) for l = 0 .. N/2, got shape"
                             f" {levels.shape}")
    N = 2 * (levels.size - 1)
    if two_S < 1 or two_S > N:
        raise ParameterError(f"two_S={two_S} outside [1, N={N}]")
    ratios = np.asarray(ratio_grid, dtype=float)
    # descending l, so argmin's first minimum keeps the larger l on ties
    ls = range(N // 2, -1, -1)
    energies = np.array([sub_ground_energy(2 * l, two_S, ratios, 1.0 / math.sqrt(N),
                                           float(levels[l])) for l in ls])
    best = np.argmin(energies, axis=0)
    return [GroundScanRow(J_over_gt=float(ratio), EG_over_gt=float(energies[k, i]),
                          lG=N // 2 - int(k))
            for i, (ratio, k) in enumerate(zip(ratios, best))]


def scan_transitions(rows: list[GroundScanRow]) -> list[tuple[float, int, int]]:
    """Plateau edges of a ground scan: (first ratio of new plateau, from, to)."""
    edges = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.lG != prev.lG:
            edges.append((cur.J_over_gt, prev.lG, cur.lG))
    return edges


def transition_point(N: int, two_S: int) -> float:
    """Crossing of the first two plateaus in J/gt: S / (2 sqrt(N))."""
    return (two_S / 2.0) / (2.0 * math.sqrt(N))


def state_count(N: int, two_S: int) -> int:
    """Total number of star levels counted multiplet by multiplet.

    Exact integer arithmetic; equals (two_S + 1) 2^N, which the
    construction must reproduce. Doubled integers keep half-integer
    central spins exact: 2 (l + s) + 1 = two_l + two_s + 1.
    """
    if two_S < 1 or two_S > N:
        raise ParameterError(f"two_S={two_S} outside [1, N={N}]")
    total = 0
    for two_l in range(0, N + 1, 2):
        d = degeneracy(N, two_l // 2)
        if two_S <= two_l:
            for two_s in range(-two_S, two_S + 1, 2):
                total += d * (two_l + two_s + 1)
        else:
            for two_s in range(-two_l, two_l + 1, 2):
                total += d * (two_S + two_s + 1)
    return total
