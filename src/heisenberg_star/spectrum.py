"""Static spectrum of the star: ring level structure and closed forms.

The only numerical work here is the lowest level of the isotropic ring
in each magnetization block. It is solved on the block's
Marshall-rotated dihedral orbit block, which holds it exactly (see
:func:`bath_subground_state`) and is about 2N times smaller. Up to
DENSE_CUTOFF states numpy diagonalizes the dense block: ``eigh`` for
the pair, ``eigvalsh`` where only the energy is wanted. Above it scipy's
``eigsh`` runs on the real CSR with fixed settings and its pair is
certified by its true residual.
Every orbit block up to N = 16 is dense, so scipy is imported for ring
levels from N = 18 on only. Everything else is arithmetic on top of
those numbers:

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

from .core import StateVector, enumerate_bath_sector, orbit_block
from .errors import ConvergenceError, ParameterError, StarError
from .operators import CSR, SparseOperator, build_bath_ring

# Fixed seed for the Lanczos start vector. A structured start (for
# example the all-ones vector, which is the maximal Dicke state and an
# exact ring eigenstate) can be orthogonal to the target level, so the
# start is pseudorandom but reproducible.
LANCZOS_SEED = 0x5EED5

# Blocks at or below this dimension go straight to the dense solver.
DENSE_CUTOFF = 1024

# A Lanczos pair is accepted when its true residual |A v - lam v| is at
# most LANCZOS_TOL, reached within about LANCZOS_PRODUCTS matrix-vector
# products per attempt.
LANCZOS_TOL = 1e-10
LANCZOS_PRODUCTS = 500


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


def lanczos_lowest(op: SparseOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair by ARPACK's restarted Lanczos (``eigsh``, ``which="SA"``).

    Solves the real CSR in float64 to machine precision with 20 Lanczos
    vectors and about LANCZOS_PRODUCTS matrix-vector products, start and
    restart vectors drawn from LANCZOS_SEED. The pair satisfies
    ``|A v - lam v| <= LANCZOS_TOL``, checked on the pair itself; a
    failure gets one retry from an independent start, a second failure
    raises ConvergenceError with the smallest true residual of a returned
    vector (of the start vector if ARPACK returned none).
    """
    # imported here: blocks up to DENSE_CUTOFF never need scipy
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = op.dim
    mat = _real_matrix(op).tocsr()
    if n == 1:  # eigsh needs more states than requested pairs
        return float(mat.toarray()[0, 0]), np.ones(1)
    ncv = min(n, LANCZOS_PRODUCTS, 20)
    # each implicit restart spends about ncv / 2 further products
    restarts = max(1, (LANCZOS_PRODUCTS - ncv) // (ncv // 2))
    rng = np.random.default_rng(LANCZOS_SEED)
    best = None
    for _ in range(2):
        vec, ritz = rng.standard_normal(n), True
        try:
            vec = eigsh(mat, k=1, which="SA", v0=vec, tol=0, ncv=ncv,
                        maxiter=restarts, rng=rng)[1][:, 0]
        except ArpackNoConvergence:
            ritz = False  # one pair requested: the exception carries no vector
        vec = vec / np.linalg.norm(vec)
        product = mat @ vec
        lam = float(np.vdot(vec, product).real)
        residual = float(np.linalg.norm(product - lam * vec))
        if residual <= LANCZOS_TOL:
            return lam, vec
        if ritz:
            best = residual if best is None else min(best, residual)
    if best is None:
        raise ConvergenceError(f"ARPACK returned no Ritz vector within {LANCZOS_PRODUCTS}"
                               f" matrix-vector products (tol={LANCZOS_TOL})",
                               residual=residual)
    raise ConvergenceError(f"Lanczos did not reach tol={LANCZOS_TOL} within"
                           f" {LANCZOS_PRODUCTS} matrix-vector products"
                           f" (best residual {best:.3e})", residual=best)


def lowest_eigenpair(op: SparseOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair: numpy's dense ``eigh`` up to DENSE_CUTOFF, Lanczos above.

    Both routes return the vector with the same phase (its first entry of
    largest magnitude, up to rounding, is real and positive), so the
    amplitudes do not depend on which solver ran.
    """
    if op.dim <= DENSE_CUTOFF:
        evals, evecs = np.linalg.eigh(_real_matrix(op).toarray())
        energy, vec = float(evals[0]), evecs[:, 0]
    else:
        energy, vec = lanczos_lowest(op)
    return energy, _fix_phase(vec)


def lowest_energy(op: SparseOperator) -> float:
    """Lowest eigenvalue: numpy's dense ``eigvalsh`` up to DENSE_CUTOFF, Lanczos above."""
    if op.dim <= DENSE_CUTOFF:
        return float(np.linalg.eigvalsh(_real_matrix(op).toarray())[0])
    return lanczos_lowest(op)[0]


def _ring_block(N: int, two_l: int) -> SparseOperator:
    """The Marshall-rotated ring H(-1, 1) on the dihedral orbit block of
    ring block ``l_m = l``."""
    return build_bath_ring(orbit_block(enumerate_bath_sector(N, (N + two_l) // 2)), -1.0, 1.0)


def _check_increase(two_l: int, lower: float, upper: float) -> None:
    """StarError unless E1b(l + 1) = ``upper`` lies more than 1e-9 above
    E1b(l) = ``lower``."""
    if upper <= lower + 1e-9:
        raise StarError(f"ring level ordering violated at l={two_l // 2 + 1}:"
                        f" {upper} after {lower}")


def bath_subground_state(N: int, two_l: int) -> tuple[float, StateVector]:
    """Bottom level of the ring block ``l_m = l`` at unit coupling.

    N is even, so the ring is bipartite, and the diagonal sign
    M = (-1)^(up spins on odd sites) maps the ring H(J, Jp) to H(-J, Jp),
    whose hops are all nonpositive. By Perron-Frobenius the bottom of
    each block of H(-J, Jp) is nondegenerate and positive, so it is
    invariant under the ring's rotations and reflections: it lies in the
    dihedral orbit block (:func:`core.orbit_block`), about 2N times
    smaller than the block. The level is solved there and expanded back
    onto the sector, v_s = M_s x[label[s]] / sqrt(size[label[s]]), with
    the phase fixed after the expansion.

    Returns the energy and the eigenvector, after certifying that the
    vector carries ring angular momentum exactly ``l`` by the strict gap
    E1b(l) < E1b(l + 1), with block l + 1 solved for its energy only.
    The isotropic ring commutes with L, and the bottom is nondegenerate,
    so it has one total spin L >= l. Were L > l, then L+ of it would be
    a level of the same energy in block l + 1, and E1b(l + 1) <= E1b(l).
    The top block l = N/2 holds one state and needs no certificate.
    """
    if two_l % 2 != 0 or two_l < 0 or two_l > N:
        raise ParameterError(f"two_l={two_l} invalid for N={N}")
    op = _ring_block(N, two_l)
    energy, x = lowest_eigenpair(op)
    if two_l < N:
        _check_increase(two_l, energy, lowest_energy(_ring_block(N, two_l + 2)))
    block = op.sector
    sector = block.sector
    odd_sites = sum(1 << a for a in range(0, N, 2))  # sites 1, 3, ...
    marshall = (-1.0) ** np.bitwise_count(sector.bits & odd_sites)
    vec = _fix_phase(marshall * x[block.label] / np.sqrt(block.size[block.label]))
    return energy, StateVector.single(sector, vec)


def bath_subground_energy(N: int, l: int) -> float:
    """Energy of the bottom level in ring block ``l_m = l``, unit coupling."""
    energy, _ = bath_subground_state(N, 2 * l)
    return energy


@dataclass(frozen=True)
class LevelRow:
    """Bottom energy of ring block l, its multiplet count, and the
    dimension of the orbit block it was solved on."""

    two_l: int
    energy: float
    degeneracy: int
    block_dim: int

    @property
    def l(self) -> int:
        return self.two_l // 2


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
    """Solve every ring block l = 0 .. N/2 and tabulate the bottom levels."""
    _check_ring_length(N)
    two_ls = list(range(0, N + 1, 2))

    def solve(two_l):
        op = _ring_block(N, two_l)
        energy, _ = lowest_eigenpair(op)
        return LevelRow(two_l=two_l, energy=energy, degeneracy=degeneracy(N, two_l // 2),
                        block_dim=op.dim)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(solve, two_ls))
    else:
        rows = [solve(t) for t in two_ls]
    return LevelTable(N=N, rows=tuple(rows))


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


def sub_ground_degeneracy(two_l: int, two_S: int) -> int:
    return abs(two_l - two_S) + 1


@dataclass(frozen=True)
class GroundScanRow:
    J_over_gt: float
    EG_over_gt: float
    lG: int


def ground_scan(N: int, two_S: int, ratio_grid, table: LevelTable | None = None,
                threads: int = 1) -> list[GroundScanRow]:
    """Ground energy and its ring quantum number along a J/gt grid.

    Energies are reported in units of the collective coupling
    gt = g sqrt(N). Ties between l values are broken toward larger l,
    matching the ferromagnetic side of each crossing.
    """
    if two_S < 1 or two_S > N:
        raise ParameterError(f"two_S={two_S} outside [1, N={N}]")
    if table is None:
        table = level_table(N, threads=threads)
    if table.N != N:
        raise ParameterError(f"level table is for N={table.N}, not N={N}")
    ratios = np.asarray(ratio_grid, dtype=float)
    # descending l, so argmin's first minimum keeps the larger l on ties
    rows = table.rows[::-1]
    energies = np.array([sub_ground_energy(row.two_l, two_S, ratios, 1.0 / math.sqrt(N),
                                           row.energy) for row in rows])
    best = np.argmin(energies, axis=0)
    return [GroundScanRow(J_over_gt=float(ratio), EG_over_gt=float(energies[k, i]),
                          lG=rows[k].two_l // 2)
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
