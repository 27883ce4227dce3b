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

from heisenberg_star import operators as ops
from heisenberg_star import spectrum
from heisenberg_star.core import (
    OrbitBlock,
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
)
from heisenberg_star.errors import ConvergenceError, ParameterError, StarError
from heisenberg_star.spectrum import (
    GroundScanRow,
    LevelRow,
    LevelTable,
    bath_subground_energy,
    bath_subground_state,
    degeneracy,
    ground_scan,
    lanczos_lowest,
    level_table,
    lowest_eigenpair,
    scan_transitions,
    single_magnon_energy,
    star_energy,
    state_count,
    sub_ground_degeneracy,
    sub_ground_energy,
    transition_point,
)

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
        L2 = ops.build_L_squared(sec).matrix.toarray()
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
    params = make_params(N, two_S, J=J, g=g)
    vals = []
    for two_m in range(-(two_S + N), two_S + N + 1, 2):
        sec = enumerate_sector(N, two_S, two_m)
        H = ops.build_star_hamiltonian(sec, params)
        vals.extend(np.linalg.eigvalsh(H.matrix.toarray()))
    return np.sort(vals)


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
        vals = np.linalg.eigvalsh(ops.build_L_squared(sec).matrix.toarray())
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


class TestLanczos:
    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_matches_dense_on_every_ring_block(self, N):
        for n_up in range(N + 1):
            sec = enumerate_bath_sector(N, n_up)
            op = ops.build_bath_ring(sec, 1.0, 1.0)
            want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
            got, vec = lanczos_lowest(op)
            assert got == pytest.approx(want, abs=1e-10)
            # residual contract
            r = np.linalg.norm(op.matrix @ vec - got * vec)
            assert r <= 1e-10

    def test_matches_dense_on_star_sector(self):
        sec = enumerate_sector(6, 3, 1)
        op = ops.build_star_hamiltonian(sec, make_params(6, 3, J=0.8, g=1.1))
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, _ = lanczos_lowest(op)
        assert got == pytest.approx(want, abs=1e-10)

    def test_deterministic(self):
        sec = enumerate_bath_sector(8, 4)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e1, v1 = lanczos_lowest(op)
        e2, v2 = lanczos_lowest(op)
        assert e1 == e2
        np.testing.assert_array_equal(v1, v2)

    def test_dimension_one_block(self):
        sec = enumerate_bath_sector(6, 6)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e, v = lanczos_lowest(op)
        assert e == pytest.approx(6 / 4.0)
        assert v.shape == (1,)

    def test_iteration_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LANCZOS_PRODUCTS", 2)
        monkeypatch.setattr(spectrum, "LANCZOS_TOL", 1e-13)
        sec = enumerate_bath_sector(10, 5)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        with pytest.raises(ConvergenceError) as ei:
            lanczos_lowest(op)
        assert ei.value.residual is not None and ei.value.residual > 1e-13

    def test_dense_route_agrees_with_lanczos(self):
        sec = enumerate_bath_sector(8, 3)
        op = ops.build_bath_ring(sec, 1.0, 1.0)
        e_dense, _ = lowest_eigenpair(op)
        e_lan, _ = lanczos_lowest(op)
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
    data = phases[m.rows()] * m.data * phases.conj()[m.indices]
    return ops.SparseOperator(op.sector, ops.CSR(m.indptr, m.indices, data))


class TestSparseRoute:
    @pytest.mark.parametrize("n_up", [7, 8, 9])
    def test_ring_blocks_above_cutoff_match_dense(self, n_up):
        op = ops.build_bath_ring(enumerate_bath_sector(14, n_up), 1.0, 1.0)
        assert op.dim > spectrum.DENSE_CUTOFF
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, vec = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(op.matrix @ vec - got * vec) <= 1e-10

    def test_star_sector_above_cutoff_matches_dense(self):
        sec = enumerate_sector(12, 1, 1)
        op = ops.build_star_hamiltonian(sec, make_params(12, 1, J=0.8, g=1.1))
        assert op.dim > spectrum.DENSE_CUTOFF
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, _ = lowest_eigenpair(op)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("cutoff", [spectrum.DENSE_CUTOFF, 0])
    def test_complex_matrix_is_refused(self, cutoff, monkeypatch):
        # cutoff 0 forces the sparse route; neither route may drop the
        # imaginary part of a matrix the package never builds
        monkeypatch.setattr(spectrum, "DENSE_CUTOFF", cutoff)
        cop = twisted_ring(10, 5)
        assert np.any(cop.matrix.data.imag)
        with pytest.raises(StarError, match="imaginary") as ei:
            lowest_eigenpair(cop)
        assert not isinstance(ei.value, ConvergenceError)

    @pytest.mark.parametrize("cutoff", [spectrum.DENSE_CUTOFF, 0])
    def test_real_storage_gives_the_same_pair(self, cutoff, monkeypatch):
        # builders store float64 CSR; a complex copy of the same matrix, with
        # zero imaginary part, must take the same route to the same bits
        monkeypatch.setattr(spectrum, "DENSE_CUTOFF", cutoff)
        op = ops.build_bath_ring(enumerate_bath_sector(10, 5), 1.0, 1.0)
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

    def test_both_routes_return_the_same_vector(self, monkeypatch):
        op = ops.build_bath_ring(enumerate_bath_sector(12, 6), 1.0, 1.0)
        assert op.dim <= spectrum.DENSE_CUTOFF
        e_dense, v_dense = lowest_eigenpair(op)
        monkeypatch.setattr(spectrum, "DENSE_CUTOFF", 0)
        e_sparse, v_sparse = lowest_eigenpair(op)
        assert e_sparse == pytest.approx(e_dense, abs=1e-10)
        np.testing.assert_allclose(v_sparse, v_dense, atol=1e-8)

    def test_threaded_table_is_identical_on_the_sparse_route(self):
        a = level_table(14, threads=1)
        b = level_table(14, threads=2)
        assert [r.energy for r in a.rows] == [r.energy for r in b.rows]


class TestSolverFailures:
    def test_exhausted_budget_says_no_ritz_vector_came_back(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LANCZOS_PRODUCTS", 2)
        monkeypatch.setattr(spectrum, "LANCZOS_TOL", 1e-13)
        op = ops.build_bath_ring(enumerate_bath_sector(10, 5), 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="no Ritz vector") as ei:
            lanczos_lowest(op)
        assert "best residual" not in str(ei.value)
        assert ei.value.residual > 1e-13

    def test_unreachable_tol_reports_the_returned_vectors_residual(self, monkeypatch):
        monkeypatch.setattr(spectrum, "LANCZOS_PRODUCTS", 60)
        monkeypatch.setattr(spectrum, "LANCZOS_TOL", 1e-30)
        op = ops.build_bath_ring(enumerate_bath_sector(10, 5), 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="best residual") as ei:
            lanczos_lowest(op)
        # a converged Ritz vector, not the O(1) residual of a start vector
        assert 1e-30 < ei.value.residual <= 1e-12

    @pytest.mark.parametrize("n_up", [0, 1])
    def test_blocks_below_three_states(self, n_up):
        op = ops.build_bath_ring(enumerate_bath_sector(2, n_up), 1.0, 1.0)
        want = float(np.linalg.eigvalsh(op.matrix.toarray())[0])
        got, vec = lanczos_lowest(op)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.linalg.norm(op.matrix @ vec - got * vec) <= 1e-12


class TestRingLevels:
    def test_four_site_bottom_levels_are_rational(self):
        assert bath_subground_energy(4, 0) == pytest.approx(-2.0, abs=1e-12)
        assert bath_subground_energy(4, 1) == pytest.approx(-1.0, abs=1e-12)
        assert bath_subground_energy(4, 2) == pytest.approx(1.0, abs=1e-12)

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
        e, st = bath_subground_state(8, 4)
        sec, _ = st.require_single()
        l2 = ops.expectation(ops.build_L_squared(sec), st)
        assert l2 == pytest.approx(2 * 3.0, abs=1e-8)
        assert e == pytest.approx(-1.80193773580, abs=1e-8)

    @pytest.mark.parametrize("N", [8, 10])
    def test_lowering_norm_gives_l_squared(self, N):
        # <L^2> = |L- x|^2 + l_m (l_m - 1): the lowering bath_multiplet walks
        # down with agrees with the L^2 builder
        rng = np.random.default_rng(N)
        for n_up in range(1, N + 1):
            sec = enumerate_bath_sector(N, n_up)
            below = enumerate_bath_sector(N, n_up - 1)
            x = StateVector.single(
                sec, rng.standard_normal(sec.dim) + 1j * rng.standard_normal(sec.dim))
            lowered = ops.apply_bath_lowering(sec, x.amps, below)
            l_m = n_up - N / 2
            got = float(np.vdot(lowered, lowered).real) + l_m * (l_m - 1)
            want = ops.expectation(ops.build_L_squared(sec), x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_vector_outside_the_multiplet_is_refused(self, monkeypatch):
        # the first excited level of the l_m = 0 orbit block at N = 8 is the
        # l = 2 bottom, above E1b(1), so the strict gap refuses it
        def excited(op):
            evals, evecs = np.linalg.eigh(op.matrix.toarray())
            return float(evals[1]), evecs[:, 1]

        monkeypatch.setattr(spectrum, "lowest_eigenpair", excited)
        with pytest.raises(StarError, match="ordering violated at l=1"):
            bath_subground_state(8, 0)

    @pytest.mark.parametrize("N", range(2, 15, 2))
    def test_certified_vector_carries_its_momentum(self, N):
        # the oracle is the L^2 builder, which the certificate never uses
        energies = []
        for two_l in range(0, N + 1, 2):
            energy, st = bath_subground_state(N, two_l)
            sec, _ = st.require_single()
            l = two_l // 2
            assert ops.expectation(ops.build_L_squared(sec), st) == pytest.approx(
                l * (l + 1), abs=1e-8)
            energies.append(energy)
        assert all(a < b for a, b in zip(energies, energies[1:]))

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

        monkeypatch.setattr(spectrum, "bath_subground_state", solve)
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
            got_e, state = bath_subground_state(N, two_l)
            assert [(s.tag, s.keys.tolist()) for s in state.sectors] == [(sec.tag, sec.keys.tolist())]
            assert got_e == pytest.approx(want_e, abs=1e-10)
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
        assert max(block.dim for block in solved) == 440


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

    def test_sub_ground_degeneracy(self):
        assert sub_ground_degeneracy(4, 2) == 3
        assert sub_ground_degeneracy(2, 2) == 1
        assert sub_ground_degeneracy(0, 5) == 6

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


class TestGroundScan:
    def test_weak_ring_limit(self):
        N, two_S = 8, 3
        rows = ground_scan(N, two_S, [0.0])
        S = two_S / 2.0
        assert rows[0].lG == N // 2
        assert rows[0].EG_over_gt == pytest.approx(
            -S * (N / 2.0 + 1.0) / math.sqrt(N), abs=1e-12)

    def test_plateau_slopes_are_ring_energies(self):
        N, two_S = 8, 2
        table = level_table(N)
        grid = np.arange(0.0, 1.2, 0.002)
        rows = ground_scan(N, two_S, grid, table=table)
        for a, b in zip(rows, rows[1:]):
            if a.lG == b.lG:
                slope = (b.EG_over_gt - a.EG_over_gt) / (b.J_over_gt - a.J_over_gt)
                assert slope == pytest.approx(table.energy(2 * a.lG), abs=1e-9)

    def test_rows_match_direct_minimization(self):
        N, two_S = 8, 3
        table = level_table(N)
        inv = 1.0 / math.sqrt(N)
        for row in ground_scan(N, two_S, [0.07, 0.33, 0.81], table=table):
            cands = {}
            for t in table.rows:
                l, S = t.two_l / 2.0, two_S / 2.0
                w = S * (l + 1.0) if two_S <= t.two_l else l * (S + 1.0)
                cands[t.two_l // 2] = row.J_over_gt * t.energy - w * inv
            best = min(cands.values())
            assert row.EG_over_gt == pytest.approx(best, abs=1e-12)
            assert cands[row.lG] == pytest.approx(best, abs=1e-12)

    def test_tie_breaks_toward_larger_momentum(self):
        # exactly at the first crossing both l values give equal energy
        N, two_S = 4, 1
        r = transition_point(N, two_S)
        rows = ground_scan(N, two_S, [r - 1e-9, r, r + 1e-9])
        assert rows[0].lG == N // 2
        assert rows[1].lG == N // 2
        assert rows[2].lG == N // 2 - 1

    def test_first_edge_near_closed_form(self):
        N, two_S = 8, 2
        step = 0.005
        rows = ground_scan(N, two_S, np.arange(0.0, 0.6, step))
        edges = scan_transitions(rows)
        assert edges, "no plateau edge found"
        ratio, l_from, l_to = edges[0]
        assert (l_from, l_to) == (N // 2, N // 2 - 1)
        assert abs(ratio - transition_point(N, two_S)) <= step + 1e-12

    def test_monotone_quantum_number(self):
        rows = ground_scan(8, 2, np.arange(0.0, 4.0, 0.01))
        ls = [r.lG for r in rows]
        assert all(a >= b for a, b in zip(ls, ls[1:]))
        assert ls[-1] == 0

    def test_rejects_bad_central_spin(self):
        with pytest.raises(ParameterError):
            ground_scan(4, 0, [0.1])
        with pytest.raises(ParameterError):
            ground_scan(4, 5, [0.1])

    def test_rejects_a_table_of_another_ring(self):
        with pytest.raises(ParameterError, match="N=8, not N=16"):
            ground_scan(16, 2, [0.3], table=level_table(8))


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
