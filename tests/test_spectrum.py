"""Ring level structure, closed-form star levels, and the ground scan.

The heavy cross-check here rebuilds the complete star spectrum two
independent ways: once from the closed-form shifts applied to every
ring multiplet (extracted by explicit projection onto each total ring
momentum subspace), once by dense diagonalization of every
magnetization sector. The two multisets must coincide level by level.
The ring levels, which the package solves on Marshall-rotated dihedral
orbit blocks, are compared with a dense solve of the full block written
here, and the symmetry that route rests on is checked on that solve.
"""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from heisenberg_star import operators as ops
from heisenberg_star import spectrum
from heisenberg_star.core import (
    OrbitBlock,
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    orbit_block,
)
from heisenberg_star.errors import ConvergenceError, ParameterError, StarError
from heisenberg_star.spectrum import (
    GroundScanRow,
    LevelRow,
    LevelTable,
    bath_subground_state,
    bethe_levels,
    degeneracy,
    ground_scan,
    level_table,
    lowest_eigenpair,
    scan_transitions,
    single_magnon_energy,
    star_energy,
    state_count,
    sub_ground_energy,
    transition_point,
)
from heisenberg_star.verify import reference_hamiltonian, reference_operator, restrict

# ---------------------------------------------------------------- reference


def bath_multiplets(N):
    """Every ring multiplet (l, E_b) at unit coupling, each listed once.

    Works inside the highest-weight block of each l and projects onto
    the exact L^2 eigenspace before diagonalizing, so degenerate ring
    levels with different l never mix.
    """
    out = []
    for l in range(N // 2 + 1):
        sec = enumerate_bath_sector(N, N // 2 + l)
        H = ops.build_bath_ring(sec, 1.0, 1.0).matrix.toarray()
        L2 = restrict(full_ring_l_squared(N), sec.keys).toarray()
        P = np.eye(sec.dim)
        for lp in range(l + 1, N // 2 + 1):
            P = P @ (L2 - lp * (lp + 1) * np.eye(sec.dim)) \
                / (l * (l + 1) - lp * (lp + 1))
        u, s, _ = np.linalg.svd(P)
        cols = u[:, s > 0.5]
        assert cols.shape[1] == degeneracy(N, l)
        sub = cols.conj().T @ H @ cols
        out.extend((l, float(e)) for e in np.linalg.eigvalsh(sub))
    return out


def predicted_star_spectrum(N, two_S, J, g):
    levels = []
    for l, e_b in bath_multiplets(N):
        two_l = 2 * l
        top = min(two_S, two_l)
        for two_s in range(-top, top + 1, 2):
            e = star_energy(two_l, two_s, two_S, J, g, e_b)
            two_j = max(two_l, two_S) + two_s
            levels.extend([e] * (two_j + 1))
    return np.sort(levels)


def dense_star_spectrum(N, two_S, J, g):
    """Every level of the star, from the Kronecker reference on the whole
    product space, ascending."""
    return np.linalg.eigvalsh(reference_hamiltonian(N, two_S, J, J, g, 0.0).toarray())


def reference_star(sector, J, g):
    """The plain star on one sector, from the Kronecker reference, as the
    SparseOperator the solver takes."""
    m = restrict(reference_hamiltonian(sector.N, sector.two_S, J, J, g, 0.0), sector.keys)
    m.sort_indices()
    return ops.SparseOperator(sector, ops.CSR(m.indptr.astype(np.int32),
                                              m.indices.astype(np.int32), m.data))


@functools.lru_cache(maxsize=2)
def full_ring_l_squared(N):
    """L^2 on the 2^N ring states, from the Kronecker reference."""
    return reference_operator(N, 0, "L2")


def ring_l_squared(sector, x):
    """<x|L^2|x> on a ring sector, from the Kronecker reference."""
    L2 = restrict(full_ring_l_squared(sector.N), sector.keys)
    return float(np.vdot(x, L2 @ x).real)


# ------------------------------------------------------------------- tests


class TestDegeneracy:
    def test_small_counts_against_momentum_spectrum(self):
        # N=4: the balanced block carries eigenvalues 0,0,2,2,2,6,
        # i.e. two singlets, three triplet representatives, one l=2
        assert degeneracy(4, 0) == 2
        assert degeneracy(4, 1) == 3
        assert degeneracy(4, 2) == 1

    def test_counted_from_momentum_eigenvalues(self):
        N = 6
        sec = enumerate_bath_sector(N, N // 2)
        vals = np.linalg.eigvalsh(restrict(full_ring_l_squared(N), sec.keys).toarray())
        for l in range(N // 2 + 1):
            hits = int(np.sum(np.abs(vals - l * (l + 1)) < 1e-8))
            assert hits == degeneracy(N, l)

    @pytest.mark.parametrize("N", [2, 4, 8, 12, 16])
    def test_counting_identity(self, N):
        assert sum((2 * l + 1) * degeneracy(N, l) for l in range(N // 2 + 1)) == 2**N

    def test_out_of_range_is_zero(self):
        assert degeneracy(8, 5) == 0
        assert degeneracy(8, -1) == 0

    def test_rejects_odd(self):
        with pytest.raises(ParameterError):
            degeneracy(5, 1)


@functools.lru_cache(maxsize=None)
def ring_block_bottom(N, n_up):
    """The full ring block at n_up up spins, and its lowest eigenvalue by
    numpy's dense eigvalsh."""
    op = ops.build_bath_ring(enumerate_bath_sector(N, n_up), 1.0, 1.0)
    return op, float(np.linalg.eigvalsh(op.matrix.toarray())[0])


class TestLanczos:
    """The ring solver's contract, checked on blocks the package never
    solves (not Marshall-rotated) as well as on its own."""

    @pytest.mark.parametrize("N", range(2, 15, 2))
    def test_matches_dense_on_every_ring_block(self, N):
        for n_up in range(N + 1):
            op, want = ring_block_bottom(N, n_up)
            got, vec = lowest_eigenpair(op)
            assert got == pytest.approx(want, abs=1e-10)
            # residual contract
            r = np.linalg.norm(op.matrix @ vec - got * vec)
            assert r <= 1e-10

    def test_matches_dense_on_star_sector(self):
        sec = enumerate_sector(6, 3, 1)
        op = reference_star(sec, 0.8, 1.1)
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, _ = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-10)

    def test_deterministic(self):
        sec = enumerate_bath_sector(8, 4)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e1, v1 = lowest_eigenpair(op)
        e2, v2 = lowest_eigenpair(op)
        assert e1 == e2
        np.testing.assert_array_equal(v1, v2)

    def test_dimension_one_block(self):
        sec = enumerate_bath_sector(6, 6)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e, v = lowest_eigenpair(op)
        assert e == pytest.approx(6 / 4.0)
        assert v.shape == (1,)

    def test_iteration_budget_enforced(self, monkeypatch):
        # two Krylov vectors cannot hold the bottom of a 252-state block
        monkeypatch.setattr(spectrum, "LANCZOS_PRODUCTS", 2)
        monkeypatch.setattr(spectrum, "LANCZOS_TOL", 1e-13)
        sec = enumerate_bath_sector(10, 5)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="with 2 Krylov vectors") as ei:
            lowest_eigenpair(op)
        assert ei.value.residual is not None and ei.value.residual > 1e-13

    def test_dense_route_agrees_with_lanczos(self):
        # the dense route is numpy's eigvalsh, written here
        sec = enumerate_bath_sector(8, 3)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e_dense = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        e_lan, _ = lowest_eigenpair(op)
        assert e_dense == pytest.approx(e_lan, abs=1e-10)


def pivot(vec):
    """First entry whose magnitude is the largest, up to rounding."""
    mags = np.abs(vec)
    return vec[np.flatnonzero(mags >= (1.0 - 1e-8) * mags.max())[0]]


def twisted_ring(N, n_up):
    """Ring block under a seeded diagonal unitary: same spectrum, complex entries."""
    op = ops.build_bath_ring(enumerate_bath_sector(N, n_up), 1.0, 1.0)
    phases = np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, op.dim))
    m = op.matrix
    data = phases[m.rows] * m.data * phases.conj()[m.indices]
    return ops.SparseOperator(op.sector, ops.CSR(m.indptr, m.indices, data))


def half_filled_ring_above(min_dim):
    """(N, N // 2) of the shortest half-filled ring, N >= 10, with more than min_dim states."""
    return next((N, N // 2) for N in range(10, 20, 2) if math.comb(N, N // 2) > min_dim)


class TestSparseRoute:
    """Lanczos on the CSR is the only route, for blocks of any size."""

    @pytest.mark.parametrize("n_up", [7, 8, 9])
    def test_ring_blocks_above_cutoff_match_dense(self, n_up):
        # 3432 and 3003 states, above the largest orbit block of N = 18
        op, want = ring_block_bottom(14, n_up)
        got, vec = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(op.matrix @ vec - got * vec) <= 1e-10

    def test_star_sector_above_cutoff_matches_dense(self):
        sec = enumerate_sector(12, 1, 1)
        # 1716 states, more than any orbit block below N = 20
        op = reference_star(sec, 0.8, 1.1)
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, _ = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("min_dim", [0, 1024])
    def test_complex_matrix_is_refused(self, min_dim):
        # the solver must not drop the imaginary part of a matrix the
        # package never builds, on a small block or a large one
        cop = twisted_ring(*half_filled_ring_above(min_dim))
        assert cop.dim > min_dim
        assert np.any(cop.matrix.data.imag)
        with pytest.raises(StarError, match="imaginary") as ei:
            lowest_eigenpair(cop)
        assert not isinstance(ei.value, ConvergenceError)

    @pytest.mark.parametrize("min_dim", [0, 1024])
    def test_real_storage_gives_the_same_pair(self, min_dim):
        # builders store float64 CSR; a complex copy of the same matrix, with
        # zero imaginary part, must give the same bits, on a small block or a
        # large one
        op = ops.build_bath_ring(enumerate_bath_sector(*half_filled_ring_above(min_dim)), 1.0, 1.0)
        assert op.dim > min_dim
        assert op.matrix.dtype == np.float64
        m = op.matrix
        cop = ops.SparseOperator(op.sector, ops.CSR(m.indptr, m.indices, m.data.astype(complex)))
        e_complex, v_complex = lowest_eigenpair(cop)
        e_real, v_real = lowest_eigenpair(op)
        assert e_real == e_complex
        np.testing.assert_array_equal(v_real, v_complex)

    @pytest.mark.parametrize("N,n_up", [(8, 4), (8, 5), (14, 7), (14, 9)])
    def test_phase_convention(self, N, n_up):
        op = ops.build_bath_ring(enumerate_bath_sector(N, n_up), 1.0, 1.0)
        _, vec = lowest_eigenpair(op)
        p = pivot(vec)
        assert np.imag(p) == 0.0 and np.real(p) > 0.0

    def test_both_routes_return_the_same_vector(self):
        # Lanczos and a dense eigh written here agree on the vector of every
        # nondegenerate bottom: full ring blocks, the package's orbit blocks
        # and a star sector
        star = reference_star(enumerate_sector(6, 3, 1), 0.8, 1.1)
        blocks = [ops.build_bath_ring(enumerate_bath_sector(N, n_up), 1.0, 1.0)
                  for N, n_up in ((8, 3), (12, 6), (12, 7), (12, 9))]
        blocks += [spectrum._ring_block(16, two_l) for two_l in (0, 2, 6)] + [star]
        for op in blocks:
            evals, evecs = np.linalg.eigh(op.matrix.toarray())
            assert evals[1] - evals[0] > 1e-3
            e, vec = lowest_eigenpair(op)
            assert e == pytest.approx(evals[0], abs=1e-10)
            np.testing.assert_allclose(vec, evecs[:, 0] * np.sign(pivot(evecs[:, 0])),
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("N", [18, 20])
    def test_every_level_matches_scipy_eigsh(self, N):
        # scipy's ARPACK, imported by this test only, is the oracle on the
        # orbit blocks the package solves above N = 16
        for two_l in range(0, N + 1, 2):
            op = spectrum._ring_block(N, two_l)
            got, vec = lowest_eigenpair(op)
            want = (scipy.sparse.linalg.eigsh(op.matrix.tocsr(), k=1, which="SA", tol=0)[0][0]
                    if op.dim > 2 else np.linalg.eigvalsh(op.matrix.toarray())[0])
            assert got == pytest.approx(want, abs=1e-12)
            assert np.linalg.norm(op.matrix @ vec - got * vec) <= 1e-10

    def test_threaded_table_is_identical_on_the_sparse_route(self):
        a = level_table(14, threads=1)
        b = level_table(14, threads=2)
        assert [r.energy for r in a.rows] == [r.energy for r in b.rows]


class TestSolverFailures:
    def test_unreachable_tol_reports_the_returned_vectors_residual(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LANCZOS_PRODUCTS", 60)
        monkeypatch.setattr(spectrum, "LANCZOS_TOL", 1e-30)
        op = ops.build_bath_ring(enumerate_bath_sector(10, 5), 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="did not reach tol") as ei:
            lowest_eigenpair(op)
        # a converged Ritz vector, not the O(1) residual of a start vector
        assert 1e-30 < ei.value.residual <= 1e-12

    @pytest.mark.parametrize("n_up", [0, 1])
    def test_blocks_below_three_states(self, n_up):
        op = ops.build_bath_ring(enumerate_bath_sector(2, n_up), 1.0, 1.0)
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, vec = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.linalg.norm(op.matrix @ vec - got * vec) <= 1e-12


class TestRingLevels:
    def test_four_site_bottom_levels_are_rational(self):
        for two_l, want in ((0, -2.0), (2, -1.0), (4, 1.0)):
            row, _ = bath_subground_state(4, two_l)
            assert row.energy == pytest.approx(want, abs=1e-12)

    def test_eight_site_reference_values(self):
        # independent published diagonalization of the 8-site ring
        want = {
            0: -3.65109340894,
            1: -3.12841906384,
            2: -1.80193773580,
            3: 0.0,
            4: 2.0,
        }
        table = level_table(8)
        for row in table.rows:
            assert row.energy == pytest.approx(want[row.l], abs=1e-8)

    @pytest.mark.parametrize("N", [4, 6, 8, 10])
    def test_top_anchors(self, N):
        table = level_table(N)
        assert table.energy(N) == pytest.approx(N / 4.0, abs=1e-12)
        assert table.energy(N - 2) == pytest.approx(N / 4.0 - 2.0, abs=1e-10)

    def test_state_carries_the_right_momentum(self):
        row, st = bath_subground_state(8, 4)
        sec, _ = st.require_single()
        l2 = ring_l_squared(sec, st.amps)
        assert l2 == pytest.approx(2 * 3.0, abs=1e-8)
        assert row.energy == pytest.approx(-1.80193773580, abs=1e-8)

    @pytest.mark.parametrize("N", [8, 10])
    def test_lowering_norm_gives_l_squared(self, N):
        # <L^2> = |L- x|^2 + l_m (l_m - 1): the lowering bath_multiplet walks
        # down with agrees with the reference's L^2
        rng = np.random.default_rng(N)
        for n_up in range(1, N + 1):
            sec = enumerate_bath_sector(N, n_up)
            below = enumerate_bath_sector(N, n_up - 1)
            x = StateVector.single(
                sec, rng.standard_normal(sec.dim) + 1j * rng.standard_normal(sec.dim))
            lowered = ops.apply_bath_lowering(sec, x.amps, below)
            l_m = n_up - N / 2
            got = float(np.vdot(lowered, lowered).real) + l_m * (l_m - 1)
            want = ring_l_squared(sec, x.amps)
            assert got == pytest.approx(want, abs=1e-12)

    def test_vector_outside_the_multiplet_is_refused(self, monkeypatch):
        # the first excited level of the l_m = 0 orbit block at N = 8 is the
        # l = 2 bottom, above E1b(1), so the strict gap refuses it; the
        # certificate's own solve of block l = 1 is left alone
        solve, solved = spectrum.lowest_eigenpair, []

        def excited(op):
            solved.append(op)
            if len(solved) > 1:
                return solve(op)
            evals, evecs = np.linalg.eigh(op.matrix.toarray())
            return float(evals[1]), evecs[:, 1]

        monkeypatch.setattr(spectrum, "lowest_eigenpair", excited)
        with pytest.raises(StarError, match="ordering violated at l=1"):
            bath_subground_state(8, 0)

    @pytest.mark.parametrize("N", range(2, 15, 2))
    def test_certified_vector_carries_its_momentum(self, N):
        # the oracle is the reference's L^2, which the certificate never uses
        energies = []
        for two_l in range(0, N + 1, 2):
            row, st = bath_subground_state(N, two_l)
            sec, _ = st.require_single()
            l = two_l // 2
            assert ring_l_squared(sec, st.amps) == pytest.approx(
                l * (l + 1), abs=1e-8)
            energies.append(row.energy)
        assert all(a < b for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("N", range(2, 17, 2))
    def test_state_reports_the_row_of_the_level_table(self, N):
        # one solve makes both: the same energy bit for bit, the same
        # multiplet count and the same block dimension
        table = level_table(N)
        for two_l in range(0, N + 1, 2):
            row, _ = bath_subground_state(N, two_l)
            assert row == table.rows[two_l // 2]

    def test_rejects_bad_momentum(self):
        with pytest.raises(ParameterError):
            bath_subground_state(4, 3)
        with pytest.raises(ParameterError):
            bath_subground_state(4, 6)

    def test_threaded_table_is_identical(self):
        a = level_table(8, threads=1)
        b = level_table(8, threads=3)
        assert [r.energy for r in a.rows] == [r.energy for r in b.rows]

    def test_table_validation_catches_misordering(self):
        rows = (
            LevelRow(two_l=0, energy=1.0, degeneracy=2, block_dim=2),
            LevelRow(two_l=2, energy=-1.0, degeneracy=3, block_dim=1),
            LevelRow(two_l=4, energy=2.0, degeneracy=1, block_dim=1),
        )
        with pytest.raises(StarError):
            LevelTable(N=4, rows=rows)

    def test_table_validation_catches_bad_counting(self):
        rows = (
            LevelRow(two_l=0, energy=-2.0, degeneracy=2, block_dim=2),
            LevelRow(two_l=2, energy=-1.0, degeneracy=2, block_dim=1),
            LevelRow(two_l=4, energy=1.0, degeneracy=1, block_dim=1),
        )
        with pytest.raises(StarError):
            LevelTable(N=4, rows=rows)

    def test_energy_lookup_missing_row(self):
        with pytest.raises(KeyError):
            level_table(4).energy(3)

    @pytest.mark.parametrize("N", [-2, 0, 5])
    def test_rejects_a_bad_ring_length_before_solving(self, N, monkeypatch):
        def solve(*args):
            raise AssertionError("solved before N was checked")

        monkeypatch.setattr(spectrum, "_ring_level", solve)
        with pytest.raises(ParameterError, match=f"N must be even and >= 2, got {N}"):
            level_table(N)


@functools.lru_cache(maxsize=None)
def full_sector_bottom(N, two_l):
    """Lowest pair of the full ring block l_m = l by dense eigh, written here:
    the route bath_subground_state took before it solved on orbit blocks."""
    sec = enumerate_bath_sector(N, N // 2 + two_l // 2)
    mat = ops.build_bath_ring(sec, 1.0, 1.0).matrix.toarray()
    evals, evecs = scipy.linalg.eigh(mat, subset_by_index=[0, 0])
    vec = evecs[:, 0]
    return sec, float(evals[0]), vec * np.sign(pivot(vec))


def ring_images(sec, shift, reflect):
    """Position of each state's image under a rotation by ``shift`` sites,
    after the bit reversal a -> N - 1 - a when ``reflect``."""
    N = sec.N
    images = []
    for bits in sec.bits.tolist():
        if reflect:
            bits = sum(1 << (N - 1 - a) for a in range(N) if bits >> a & 1)
        images.append(sum(1 << ((a + shift) % N) for a in range(N) if bits >> a & 1))
    return sec.positions(np.array(images))


class TestOrbitBlockRoute:
    """The ring levels come from Marshall-rotated dihedral orbit blocks; the
    full-block dense solve is the oracle."""

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12, 14])
    def test_matches_the_full_block(self, N):
        # N = 2 keeps its doubled bond on both routes
        for two_l in range(0, N + 1, 2):
            sec, want_e, want_v = full_sector_bottom(N, two_l)
            row, state = bath_subground_state(N, two_l)
            assert [(s.tag, s.keys.tolist()) for s in state.sectors] == [(sec.tag, sec.keys.tolist())]
            assert row.energy == pytest.approx(want_e, abs=1e-10)
            assert np.abs(state.amps - want_v).max() <= 1e-10

    @pytest.mark.parametrize("N", [8, 10, 12, 14])
    def test_bottom_is_even_or_odd_under_translation_and_reflection(self, N):
        # the premise of the route: T v = R v = (-1)^(N/2 - l) v
        for two_l in range(0, N + 1, 2):
            sec, _, v = full_sector_bottom(N, two_l)
            sign = (-1) ** (N // 2 - two_l // 2)
            for shift, reflect in ((1, False), (0, True)):
                image = ring_images(sec, shift, reflect)
                assert np.abs(v[image] - sign * v).max() <= 1e-10

    def test_level_table_solves_only_orbit_blocks(self, monkeypatch):
        solved = []
        solve = spectrum.lowest_eigenpair

        def record(op):
            solved.append(op.sector)
            return solve(op)

        monkeypatch.setattr(spectrum, "lowest_eigenpair", record)
        table = level_table(16)
        assert len(solved) == 9
        assert all(isinstance(block, OrbitBlock) for block in solved)
        # the dimensions the table reports are those of the blocks solved
        assert [block.dim for block in solved] == [row.block_dim for row in table.rows]
        # l = 0 folds to 257 orbits, so the 375 orbits of l = 1 are the most
        assert max(block.dim for block in solved) == 375


def half_filled_states(N):
    """Every N-bit string with N/2 bits set, ascending, enumerated here."""
    return [b for b in range(1 << N) if bin(b).count("1") == N // 2]


def half_filled_ring(N):
    """Isotropic ring H(1, 1) on the half-filled strings, bond by bond, as a
    scipy CSR; for N = 2 the one pair of sites is bonded twice."""
    states = half_filled_states(N)
    index = {b: i for i, b in enumerate(states)}
    entries = []  # (row, col, value), duplicates summed
    for i, b in enumerate(states):
        for a in range(N):
            bond = 1 << a | 1 << (a + 1) % N
            if bin(b & bond).count("1") != 1:
                entries.append((i, i, 0.25))
            else:
                entries += [(i, i, -0.25), (index[b ^ bond], i, 0.5)]
    rows, cols, vals = zip(*entries)
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(len(states),) * 2)


def flip_dihedral_orbits(N):
    """Orbits of the half-filled strings under rotations, reflection and the
    spin flip, counted by walking each orbit."""
    mask = (1 << N) - 1
    seen, orbits = set(), 0
    for start in half_filled_states(N):
        if start in seen:
            continue
        orbits += 1
        stack = [start]
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack += [(b >> 1 | b << (N - 1)) & mask,
                          int(format(b, f"0{N}b")[::-1], 2), b ^ mask]
    return orbits


class TestFlipFold:
    """The l = 0 level is solved on the dihedral orbit block folded by the
    spin flip. Its oracles are written here: an orbit count, and the full
    half-filled block built bond by bond."""

    @pytest.mark.parametrize("N", range(2, 17, 2))
    def test_dimension_is_the_orbit_count_with_the_flip(self, N):
        want = flip_dihedral_orbits(N)
        assert spectrum._ring_block(N, 0).dim == want

    @pytest.mark.parametrize("N", range(2, 17, 2))
    def test_energy_matches_the_dihedral_and_the_full_block(self, N):
        dihedral = ops.build_bath_ring(orbit_block(enumerate_bath_sector(N, N // 2)), -1.0, 1.0)
        got = lowest_eigenpair(spectrum._ring_block(N, 0))[0]
        assert got == pytest.approx(np.linalg.eigvalsh(dihedral.matrix.toarray())[0], abs=1e-12)
        if N <= 14:
            ring = half_filled_ring(N)
            want = (np.linalg.eigvalsh(ring.toarray())[0] if N <= 12 else
                    scipy.sparse.linalg.eigsh(ring, k=1, which="SA", tol=0)[0][0])
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
    def test_state_is_the_full_block_bottom(self, N):
        evals, evecs = np.linalg.eigh(half_filled_ring(N).toarray())
        row, state = bath_subground_state(N, 0)
        (sector,) = state.sectors
        assert sector.bits.tolist() == half_filled_states(N)
        want = evecs[:, 0] * np.sign(np.vdot(evecs[:, 0], state.amps).real)
        assert row.energy == pytest.approx(evals[0], abs=1e-12)
        assert np.abs(state.amps - want).max() <= 1e-10


class TestMagnonBand:
    @pytest.mark.parametrize("N", [4, 6, 8, 12])
    def test_band_minimum_sits_at_the_zone_edge(self, N):
        vals = [single_magnon_energy(N, k) for k in range(N)]
        assert min(vals) == pytest.approx(N / 4.0 - 2.0, abs=1e-12)
        assert vals[N // 2] == pytest.approx(N / 4.0 - 2.0, abs=1e-12)
        assert vals[0] == pytest.approx(N / 4.0, abs=1e-12)

    def test_band_matches_dense_block(self):
        # the one-flip block spectrum is exactly the magnon band
        N = 6
        sec = enumerate_bath_sector(N, N - 1)
        got = np.sort(np.linalg.eigvalsh(
            ops.build_bath_ring(sec, 1.0, 1.0).matrix.toarray()))
        want = np.sort([single_magnon_energy(N, k) for k in range(N)])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestStarLevels:
    @pytest.mark.parametrize("two_S", [1, 3])
    def test_full_spectrum_reconstruction(self, two_S):
        N, J, g = 6, 0.9, 0.7
        got = predicted_star_spectrum(N, two_S, J, g)
        want = dense_star_spectrum(N, two_S, J, g)
        assert got.size == want.size == (two_S + 1) * 2**N
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("two_S", [1, 2, 3])
    def test_reference_star_has_the_closed_form_levels(self, two_S):
        # the reference's whole product space holds exactly the levels of
        # star_energy, each as often as the multiplets state_count counts
        N, J, g = 6, 0.9, 0.7

        def levels(values):
            values = np.sort(values)
            groups = np.split(values, np.flatnonzero(np.diff(values) > 1e-9) + 1)
            return np.array([v.mean() for v in groups]), [v.size for v in groups]

        want = predicted_star_spectrum(N, two_S, J, g)
        assert want.size == state_count(N, two_S)
        got_e, got_n = levels(dense_star_spectrum(N, two_S, J, g))
        want_e, want_n = levels(want)
        assert got_n == want_n
        np.testing.assert_allclose(got_e, want_e, rtol=0, atol=1e-10)

    def test_shift_equals_recoupling_identity(self):
        # the closed form must equal (j(j+1) - l(l+1) - S(S+1)) / 2
        for two_l in range(0, 9, 2):
            for two_S in range(1, 7):
                top = min(two_S, two_l)
                for two_s in range(-top, top + 1, 2):
                    two_j = max(two_l, two_S) + two_s
                    j = two_j / 2.0
                    l = two_l / 2.0
                    S = two_S / 2.0
                    want = 0.5 * (j * (j + 1) - l * (l + 1) - S * (S + 1))
                    got = star_energy(two_l, two_s, two_S, 0.0, 1.0, 0.0)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_offset_validation(self):
        with pytest.raises(ParameterError):
            star_energy(4, 3, 2, 1.0, 1.0, 0.0)  # parity off
        with pytest.raises(ParameterError):
            star_energy(4, -4, 2, 1.0, 1.0, 0.0)  # beyond the ladder
        with pytest.raises(ParameterError):
            star_energy(2, -4, 4, 1.0, 1.0, 0.0)

    def test_sub_ground_is_the_branch_minimum(self):
        for two_l in range(0, 9, 2):
            for two_S in range(1, 7):
                top = min(two_S, two_l)
                best = min(
                    star_energy(two_l, two_s, two_S, 0.7, 1.3, -2.2)
                    for two_s in range(-top, top + 1, 2)
                )
                got = sub_ground_energy(two_l, two_S, 0.7, 1.3, -2.2)
                assert got == pytest.approx(best, abs=1e-12)

    def test_sub_ground_closed_forms(self):
        # S <= l branch: J E1b - g S (l + 1)
        assert sub_ground_energy(4, 2, 0.5, 2.0, -3.0) == pytest.approx(
            0.5 * -3.0 - 2.0 * 1.0 * 3.0)
        # l < S branch: J E1b - g l (S + 1)
        assert sub_ground_energy(2, 4, 0.5, 2.0, -3.0) == pytest.approx(
            0.5 * -3.0 - 2.0 * 1.0 * 3.0)

    def test_sub_ground_matches_dense_ground(self):
        # global ground over l equals the dense ground state energy
        N, two_S, J, g = 6, 2, 0.35, 1.0
        table = level_table(N)
        best = min(
            sub_ground_energy(row.two_l, two_S, J, g, row.energy)
            for row in table.rows
        )
        want = dense_star_spectrum(N, two_S, J, g)[0]
        assert best == pytest.approx(want, abs=1e-9)


def scan_levels(N):
    """The ring levels a ground scan takes: from the Bethe ansatz and from
    the exact-diagonalization level table."""
    return (bethe_levels(N), np.array([row.energy for row in level_table(N).rows]))


class TestGroundScan:
    def test_weak_ring_limit(self):
        N, two_S = 8, 3
        S = two_S / 2.0
        for levels in scan_levels(N):
            rows = ground_scan(levels, two_S, [0.0])
            assert rows[0].lG == N // 2
            assert rows[0].EG_over_gt == pytest.approx(
                -S * (N / 2.0 + 1.0) / math.sqrt(N), abs=1e-12)

    def test_plateau_slopes_are_ring_energies(self):
        N, two_S = 8, 2
        grid = np.arange(0.0, 1.2, 0.002)
        for levels in scan_levels(N):
            rows = ground_scan(levels, two_S, grid)
            for a, b in zip(rows, rows[1:]):
                if a.lG == b.lG:
                    slope = (b.EG_over_gt - a.EG_over_gt) / (b.J_over_gt - a.J_over_gt)
                    assert slope == pytest.approx(levels[a.lG], abs=1e-9)

    def test_rows_match_direct_minimization(self):
        N, two_S = 8, 3
        inv = 1.0 / math.sqrt(N)
        for levels in scan_levels(N):
            for row in ground_scan(levels, two_S, [0.07, 0.33, 0.81]):
                cands = {}
                for l, energy in enumerate(levels):
                    S = two_S / 2.0
                    w = S * (l + 1.0) if two_S <= 2 * l else l * (S + 1.0)
                    cands[l] = row.J_over_gt * energy - w * inv
                best = min(cands.values())
                assert row.EG_over_gt == pytest.approx(best, abs=1e-12)
                assert cands[row.lG] == pytest.approx(best, abs=1e-12)

    def test_tie_breaks_toward_larger_momentum(self):
        # exactly at the first crossing both l values give equal energy
        N, two_S = 4, 1
        r = transition_point(N, two_S)
        for levels in scan_levels(N):
            rows = ground_scan(levels, two_S, [r - 1e-9, r, r + 1e-9])
            assert rows[0].lG == N // 2
            assert rows[1].lG == N // 2
            assert rows[2].lG == N // 2 - 1

    def test_first_edge_near_closed_form(self):
        N, two_S = 8, 2
        step = 0.005
        for levels in scan_levels(N):
            rows = ground_scan(levels, two_S, np.arange(0.0, 0.6, step))
            edges = scan_transitions(rows)
            assert edges, "no plateau edge found"
            ratio, l_from, l_to = edges[0]
            assert (l_from, l_to) == (N // 2, N // 2 - 1)
            assert abs(ratio - transition_point(N, two_S)) <= step + 1e-12

    def test_monotone_quantum_number(self):
        for levels in scan_levels(8):
            ls = [r.lG for r in ground_scan(levels, 2, np.arange(0.0, 4.0, 0.01))]
            assert all(a >= b for a, b in zip(ls, ls[1:]))
            assert ls[-1] == 0

    def test_rejects_bad_central_spin(self):
        for levels in scan_levels(4):
            with pytest.raises(ParameterError):
                ground_scan(levels, 0, [0.1])
            with pytest.raises(ParameterError):
                ground_scan(levels, 5, [0.1])

    @pytest.mark.parametrize("levels", [[], [1.0], [[0.0, 1.0]], 0.5])
    def test_rejects_levels_of_no_ring(self, levels):
        with pytest.raises(ParameterError):
            ground_scan(levels, 1, [0.1])


class TestBetheLevels:
    @pytest.mark.parametrize("N", range(2, 23, 2))
    def test_match_the_level_table(self, N):
        levels = bethe_levels(N)
        assert levels.shape == (N // 2 + 1,)
        np.testing.assert_allclose(levels, [row.energy for row in level_table(N).rows],
                                   rtol=0, atol=1e-12)
        # the empty and the one-magnon (lam = 0) solves are exact
        assert levels[-1] == N / 4.0
        assert levels[-2] == N / 4.0 - 2.0

    @pytest.mark.parametrize("N", [128, 256])
    def test_increase_strictly_and_approach_hulthen(self, N):
        levels = bethe_levels(N)
        assert np.all(np.diff(levels) > 0.0)
        # E0 / N lies below Hulthen's 1/4 - ln 2 by the finite-size term
        # pi^2 / (12 N^2) of the critical chain, to leading order
        below = (0.25 - math.log(2.0)) - levels[0] / N
        assert 0.0 < below < math.pi ** 2 / (6.0 * N * N)

    def test_newton_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(spectrum, "BETHE_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            bethe_levels(16)
        assert err.value.residual is not None and 1e-12 < err.value.residual < 1.0

    def test_residual_above_the_tolerance_is_refused(self, monkeypatch):
        monkeypatch.setattr(spectrum, "BETHE_TOL", -1.0)
        with pytest.raises(ConvergenceError) as err:
            bethe_levels(8)
        assert err.value.residual is not None and err.value.residual >= 0.0

    def test_levels_out_of_order_are_refused(self, monkeypatch):
        solve = spectrum._bethe_bottom

        def reversed_levels(N, M):
            energy, residual = solve(N, M)
            return -energy, residual

        monkeypatch.setattr(spectrum, "_bethe_bottom", reversed_levels)
        with pytest.raises(ConvergenceError, match="increase strictly"):
            bethe_levels(8)

    @pytest.mark.parametrize("N", [0, 3, -2])
    def test_rejects_a_bad_ring_length(self, N):
        with pytest.raises(ParameterError):
            bethe_levels(N)


class TestCountingAndPoints:
    def test_transition_point_value(self):
        assert transition_point(16, 2) == pytest.approx(0.125)
        assert transition_point(16, 1) == pytest.approx(1.0 / 16.0)

    @pytest.mark.parametrize("N,two_S", [(2, 1), (4, 3), (6, 2), (8, 5), (12, 1), (16, 14)])
    def test_state_count_tiles_the_space(self, N, two_S):
        assert state_count(N, two_S) == (two_S + 1) * 2**N

    def test_state_count_validation(self):
        with pytest.raises(ParameterError):
            state_count(8, 0)
        with pytest.raises(ParameterError):
            state_count(8, 9)
