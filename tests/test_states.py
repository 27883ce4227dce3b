"""Initial states and the closed-form lowest multiplets.

The closed-form states are judged by physics, not by their own
formulas: each assembled vector must be an exact eigenvector of the
star Hamiltonian of ``verify``'s Kronecker reference at the closed-form
energy, for more than one coupling pair, since the coefficients carry
no coupling dependence. The initial states the runs write on star
blocks are judged by the operators assembled on the same blocks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_star import operators as ops
from heisenberg_star import states, verify
from heisenberg_star.core import (
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    orbit_block,
)
from heisenberg_star.errors import ParameterError, StarError
from heisenberg_star.spectrum import bath_subground_state, level_table, sub_ground_energy
from heisenberg_star.states import (
    central_initial,
    coherent_block_state,
    coherent_coefficients,
    neel_block_state,
    subground_amplitudes,
    subground_coefficients,
    subground_squared_norm,
)
from heisenberg_star.verify import (
    coherent_sites,
    neel_sites,
    reference_hamiltonian,
    reference_operator,
    reference_state,
    restrict,
)


def apply_total_lowering(sector, amps, dst):
    """Total lowering S- + L- on a star sector, two_m -> two_m - 2.

    The package never lowers a star state; this is the oracle that checks
    that the closed-form sub-ground states descend their multiplet: the
    Kronecker S- of the central spin plus the reference's one-site S- of
    every ring site, restricted to the two sectors.
    ``tests/test_operators.py`` checks it against dense matrices.
    """
    N, two_S = sector.N, sector.two_S
    total = sparse.kron(verify._spin_matrices(two_S)[1].T, sparse.identity(1 << N)) \
        + sparse.kron(sparse.identity(two_S + 1), sum(verify._ring_sites(N)[2]))
    return restrict(total.tocsr(), sector.keys, dst.keys) @ amps


def orbit_lowering(sector, amps, dst):
    """L- of ``amps`` from a ring sector to the ring sector ``dst`` through
    the multiplet walk's kernel: folded onto the sublattice orbits (Q^T v),
    lowered by ``operators._lowering`` and expanded back (Q y). Exact for
    amplitudes constant on those orbits, as every multiplet level is."""
    src, low = orbit_block(sector, sublattice=True), orbit_block(dst, sublattice=True)
    y = ops._lowering(src, low) @ (np.bincount(src.label, amps) / np.sqrt(src.size))
    return y[low.label] / np.sqrt(low.size[low.label])


def neel_star(N, two_S, central):
    """The alternating-state quench's initial state and its sublattice ring pieces."""
    pieces = ops.ring_pieces(N, 1.0, 1.0, range(N + 1), l_squared=True, sublattice=True)
    return neel_block_state(N, two_S, central, pieces), pieces


def block_expectation(state, pieces, name):
    """<name> of a sublattice star state, from the operators on its blocks."""
    total = 0.0
    for i, block in enumerate(state.sectors):
        x = state.block(i)
        _, (M,) = ops.star_block_operators(block, pieces, 1.0, 0.0, [name], dense=True)
        if isinstance(M, tuple):  # L^2 = A^T A + diag(d)
            A, M = M
            total += float(np.linalg.norm(A @ x) ** 2)
        total += float(np.vdot(x, M * x).real)
    return total


class TestNeel:
    def test_alternating_pattern(self):
        central = central_initial(1, "polarized")
        st_, _ = neel_star(4, 1, central)
        (block,), amps = st_.sectors, st_.amps
        assert block.two_m == 1
        i = int(np.argmax(np.abs(amps)))
        assert (block.central[i], block.bits[i]) == (0, 0b1010)  # sites 2 and 4 up
        assert np.count_nonzero(amps) == 1
        full = reference_state(central, neel_sites(4))
        np.testing.assert_array_equal(amps, full[(block.central << 4) | block.bits])

    def test_staggered_expectation_is_one_half(self):
        for N in (4, 6, 10):
            st_, pieces = neel_star(N, 1, central_initial(1, "uniform"))
            assert block_expectation(st_, pieces, "ms") == pytest.approx(0.5)

    def test_dihedral_rings_are_refused(self):
        # the rotation by one site maps the alternating ring onto its
        # partner, so no dihedral orbit is the state alone
        rings = ops.ring_pieces(8, 1.0, 1.0, range(9))
        with pytest.raises(ParameterError, match="sublattice group"):
            neel_block_state(8, 1, central_initial(1, "polarized"), rings)

    def test_momentum_content(self):
        # a product state of N/2 flips carries <L^2> = N/2
        st_, pieces = neel_star(6, 1, central_initial(1, "polarized"))
        assert block_expectation(st_, pieces, "L2") == pytest.approx(3.0)


class TestCentralInitial:
    def test_polarized(self):
        v = central_initial(3, "polarized")
        np.testing.assert_allclose(v, [1, 0, 0, 0])

    def test_uniform(self):
        v = central_initial(3, "uniform")
        np.testing.assert_allclose(v, np.full(4, 0.5))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            central_initial(3, "sideways")


class TestStarState:
    def test_each_central_level_gets_its_own_sector(self):
        central = central_initial(2, "uniform")
        psi, _ = neel_star(4, 2, central)
        assert [s.two_m for s in psi.sectors] == [2, 0, -2]  # central level ascending
        for c, block in enumerate(psi.sectors):
            amps = psi.block(c)
            at = np.flatnonzero((block.central == c) & (block.bits == 0b1010))
            assert amps[at] == central[c]
            assert np.count_nonzero(amps) == 1

    def test_ring_blocks_keep_their_order_and_zero_terms_are_skipped(self):
        N, theta, phi = 4, 1.1, 0.4
        rings = {n: orbit_block(enumerate_bath_sector(N, n)) for n in range(N + 1)}
        psi = coherent_block_state(N, 1, theta, phi, rings)
        Q = coherent_coefficients(N, theta, phi)
        assert [s.two_m for s in psi.sectors] == [1 + 2 * n - N for n in range(N + 1)]
        for n, block in enumerate(psi.sectors):
            top = block.central == 0
            np.testing.assert_allclose(psi.block(n)[top],
                                       Q[n] * np.sqrt(block.size[top] / math.comb(N, n)),
                                       rtol=0, atol=1e-15)
            assert not psi.block(n)[~top].any()


def dicke_block(N, n):
    """The Dicke state of ring filling n on its orbit block: Q^T of the
    uniform state, sqrt(size_o / C(N, n)) on orbit o."""
    block = orbit_block(enumerate_bath_sector(N, n))
    return np.sqrt(block.size / math.comb(N, n))


class TestDicke:
    def test_uniform_over_configurations(self):
        # the coherent ring on the equator spreads evenly over each filling
        sec = enumerate_bath_sector(4, 2)
        amps = reference_state([1.0], coherent_sites(4, math.pi / 2, 0.0))[sec.keys]
        assert sec.dim == 6
        np.testing.assert_allclose(amps, 0.25, rtol=0, atol=1e-15)

    def test_maximal_momentum(self):
        for N, n in [(4, 2), (6, 1), (6, 5)]:
            pieces = ops.ring_pieces(N, 1.0, 1.0, range(n, n + 1), l_squared=True)
            x = dicke_block(N, n)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
            l = N / 2.0
            # L^2 = L+ L- + Lz (Lz - 1) on the orbit block, from its lowering
            got = np.linalg.norm(pieces[n].lowering.toarray() @ x) ** 2 \
                + (n - l) * (n - l - 1) * (x @ x)
            assert got == pytest.approx(l * (l + 1), abs=1e-12)

    def test_reached_by_lowering_the_polarized_state(self):
        N = 6
        src = enumerate_bath_sector(N, N)
        vec = np.ones(1)
        for n_up in range(N, 3, -1):
            dst = enumerate_bath_sector(N, n_up - 1)
            vec = orbit_lowering(src, vec, dst)
            src = dst
        got = StateVector.from_blocks([(src, vec)])
        overlap = abs(np.sum(got.amps)) / math.sqrt(src.dim)
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestCoherentCoefficients:
    def test_equator_two_sites(self):
        Q = coherent_coefficients(2, math.pi / 2, 0.0)
        np.testing.assert_allclose(Q, [0.5, math.sqrt(0.5), 0.5], atol=1e-15)

    def test_poles(self):
        up = coherent_coefficients(4, 0.0, 0.3)
        np.testing.assert_allclose(np.abs(up), [0, 0, 0, 0, 1], atol=0)
        down = coherent_coefficients(4, math.pi, 0.3)
        np.testing.assert_allclose(np.abs(down), [1, 0, 0, 0, 0], atol=0)

    @pytest.mark.parametrize("N", [2, 6, 14])
    def test_poles_are_the_limits_of_the_formula(self, N):
        # the phase e^{-i N phi} of the north pole included
        for pole, near in ((0.0, 1e-9), (math.pi, math.pi - 1e-9)):
            np.testing.assert_allclose(coherent_coefficients(N, pole, 0.4),
                                       coherent_coefficients(N, near, 0.4), rtol=0, atol=1e-8)

    def test_equator_is_binomial(self):
        N = 14
        Q = coherent_coefficients(N, math.pi / 2, 0.0)
        for n in range(N + 1):
            assert abs(Q[n]) ** 2 == pytest.approx(math.comb(N, n) / 2.0**N)

    def test_azimuthal_phase(self):
        Q = coherent_coefficients(6, 1.1, 0.7)
        for n in range(1, 7):
            rel = np.angle(Q[n]) - np.angle(Q[n - 1])
            rel = (rel + math.pi) % (2 * math.pi) - math.pi
            assert rel == pytest.approx(-0.7, abs=1e-12)

    def test_against_direct_formula(self):
        N, theta, phi = 8, 2.1, -0.4
        Q = coherent_coefficients(N, theta, phi)
        z = 1.0 / math.tan(theta / 2.0)
        for n in range(N + 1):
            want = (z**n / (1 + z * z) ** (N / 2.0)) * math.sqrt(math.comb(N, n)) \
                * np.exp(-1j * n * phi)
            assert Q[n] == pytest.approx(want, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, math.pi - 0.05), st.floats(-math.pi, math.pi),
           st.sampled_from([2, 4, 8, 14]))
    def test_normalized(self, theta, phi, N):
        Q = coherent_coefficients(N, theta, phi)
        assert np.sum(np.abs(Q) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_theta_range(self):
        with pytest.raises(ParameterError):
            coherent_coefficients(4, -0.1, 0.0)
        with pytest.raises(ParameterError):
            coherent_coefficients(4, math.pi + 0.1, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 1.1, math.pi])
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_phi_must_be_finite(self, theta, phi):
        with pytest.raises(ParameterError, match="phi"):
            coherent_coefficients(4, theta, phi)


def coherent_star(N, two_S, theta, phi):
    """The driven run's initial state on orbit blocks, with their ring pieces."""
    pieces = ops.ring_pieces(N, 1.0, 1.0, range(N + 1))
    return coherent_block_state(N, two_S, theta, phi, pieces), pieces


class TestSpinCoherent:
    def test_block_structure(self):
        N = 6
        cs, _ = coherent_star(N, 1, 1.3, 0.2)
        Q = coherent_coefficients(N, 1.3, 0.2)
        assert cs.n_blocks == N + 1
        for n in range(N + 1):
            top = cs.sectors[n].slices[0]
            assert (top.central, top.n_up) == (0, n)
            # each block is the Dicke state weighted by one coefficient
            np.testing.assert_allclose(cs.block(n)[top.start:top.stop],
                                       Q[n] * dicke_block(N, n), atol=1e-13)
        assert cs.norm() == pytest.approx(1.0, abs=1e-12)

    def test_exact_ring_eigenstate(self):
        # every filling must return N/4 times itself under the ring
        N = 8
        cs, pieces = coherent_star(N, 1, 2.0, 1.1)
        for i, block in enumerate(cs.sectors):
            top = block.slices[0]
            x = cs.block(i)[top.start:top.stop]
            r = np.linalg.norm(pieces[top.n_up].ring.tocsr() @ x - (N / 4.0) * x)
            assert r <= 1e-10

    def test_poles_collapse_to_one_block(self):
        up, _ = coherent_star(4, 1, 0.0, 0.0)
        assert up.n_blocks == 1 and up.sectors[0].two_m == 5
        down, _ = coherent_star(4, 1, math.pi, 0.0)
        assert down.n_blocks == 1 and down.sectors[0].two_m == -3


class TestSubgroundCoefficients:
    def test_reference_triplet(self):
        got = subground_coefficients(2, 4, 2)
        want = [(2, 1.0), (0, -math.sqrt(3)), (-2, math.sqrt(6))]
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == pytest.approx(b, abs=1e-14)

    def test_leading_coefficient_is_unity(self):
        for two_S, two_l in [(1, 4), (2, 6), (3, 4), (4, 4)]:
            two_j = abs(two_l - two_S)
            for two_m in range(-two_j, two_j + 1, 2):
                co = subground_coefficients(two_S, two_l, two_m)
                assert co[0][1] == 1.0

    def test_alternating_signs(self):
        signs = [math.copysign(1, a) for _, a in subground_coefficients(3, 4, 1)]
        assert signs == [1, -1, 1, -1]
        signs = [math.copysign(1, a) for _, a in subground_coefficients(4, 6, -2)]
        assert signs == [1, -1, 1, -1, 1]

    def test_neighbor_ratio_recursion(self):
        # the ratio the eigenvalue equation forces on adjacent weights
        for two_S, two_l, two_m in [(2, 4, 0), (2, 4, 2), (3, 6, 1), (4, 6, -2)]:
            S, l, m = two_S / 2, two_l / 2, two_m / 2
            co = dict(subground_coefficients(two_S, two_l, two_m))
            for two_Sm in range(-two_S, two_S, 2):
                Sm = two_Sm / 2
                want = -math.sqrt(
                    (S + Sm + 1) * (l + m - Sm)
                    / ((S - Sm) * (l - m + Sm + 1))
                )
                assert co[two_Sm] / co[two_Sm + 2] == pytest.approx(want, rel=1e-12)

    def test_swapped_branch_mirrors_the_first(self):
        # l < S reuses the same weights with the two spins exchanged
        a = subground_coefficients(2, 4, 2)
        b = subground_coefficients(4, 2, 2)
        for (_, x), (_, y) in zip(a, b):
            assert x == pytest.approx(y, abs=1e-14)

    def test_top_weight_norm_identity(self):
        for two_S in range(1, 7):
            for two_l in range(two_S + (two_S % 2), 13, 2):
                exact = subground_squared_norm(two_S, two_l)
                assert exact == Fraction(math.comb(two_l + 1, two_S))
                co = subground_coefficients(two_S, two_l, two_l - two_S)
                total = sum(a * a for _, a in co)
                assert total == pytest.approx(float(exact), rel=1e-12)

    def test_norm_identity_needs_the_first_branch(self):
        with pytest.raises(ParameterError):
            subground_squared_norm(4, 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            subground_coefficients(2, 4, 3)  # parity
        with pytest.raises(ParameterError):
            subground_coefficients(2, 4, 4)  # beyond the multiplet
        with pytest.raises(ParameterError):
            subground_coefficients(2, 3, 1)  # half-integer ring momentum
        # a spinless centre is trivial but legal
        assert subground_coefficients(0, 4, 2) == [(0, 1.0)]


def total_momentum_squared(sector):
    """Dense (S + L)^2 on a star sector, assembled from the reference's parts."""
    N, two_S = sector.N, sector.two_S
    S = two_S / 2.0
    eye = np.eye(sector.dim)
    L2 = restrict(reference_operator(N, two_S, "L2"), sector.keys).toarray()
    SL = restrict(reference_hamiltonian(N, two_S, 0.0, 0.0, 1.0, 0.0), sector.keys).toarray()
    return S * (S + 1.0) * eye + L2 + 2.0 * SL


def subground(N, two_S, two_l, two_m, seed=None):
    """The sector and amplitudes of the sub-ground state (l, m), lowered from
    ``seed``, the bottom of ring block l, which is solved when not given."""
    if seed is None:
        _, seed = bath_subground_state(N, two_l)
    return (enumerate_sector(N, two_S, two_m),
            subground_amplitudes(N, two_S, two_l, two_m, seed))


class TestSubgroundState:
    @pytest.mark.parametrize("two_S", [1, 2, 3, 4])
    def test_exact_eigenvector_at_two_coupling_pairs(self, two_S):
        N = 4
        table = level_table(N)
        for two_l in range(0, N + 1, 2):
            two_j = abs(two_l - two_S)
            _, seed = bath_subground_state(N, two_l)
            for two_m in range(-two_j, two_j + 1, 2):
                sec, amps = subground(N, two_S, two_l, two_m, seed)
                # one state, two Hamiltonians: coefficients carry no couplings
                for J, g in ((0.85, 1.1), (2.0, 0.3)):
                    H = restrict(reference_hamiltonian(N, two_S, J, J, g, 0.0), sec.keys)
                    e = sub_ground_energy(two_l, two_S, J, g, table.energy(two_l))
                    r = np.linalg.norm(H @ amps - e * amps)
                    assert r <= 1e-8

    def test_total_momentum_labels(self):
        N, two_S, two_l = 6, 2, 4
        two_j = abs(two_l - two_S)
        sec, amps = subground(N, two_S, two_l, two_j)
        J2 = total_momentum_squared(sec)
        j = two_j / 2.0
        got = np.vdot(amps, J2 @ amps).real
        assert got == pytest.approx(j * (j + 1), abs=1e-8)

    def test_states_of_different_origin_are_orthogonal(self):
        # three momenta land in the same magnetization sector
        N, two_S = 6, 2
        built = [subground(N, two_S, two_l, 0)[1] for two_l in (2, 4, 6)]
        for i in range(3):
            for k in range(i + 1, 3):
                ov = abs(np.vdot(built[i], built[k]))
                assert ov < 1e-8

    def test_ladder_descent_within_the_multiplet(self):
        N, two_S, two_l = 6, 2, 6
        two_j = abs(two_l - two_S)
        _, seed = bath_subground_state(N, two_l)
        for two_m in range(two_j, -two_j + 1, -2):
            sec_hi, amps_hi = subground(N, two_S, two_l, two_m, seed)
            sec_lo, amps_lo = subground(N, two_S, two_l, two_m - 2, seed)
            dropped = apply_total_lowering(sec_hi, amps_hi, sec_lo)
            ov = abs(np.vdot(amps_lo, dropped))
            assert ov == pytest.approx(np.linalg.norm(dropped), rel=1e-8)

    def test_validation(self):
        _, seed = bath_subground_state(4, 4)
        with pytest.raises(ParameterError):
            subground_amplitudes(4, 1, 6, 1, seed)  # momentum beyond the ring
        with pytest.raises(ParameterError):
            subground_amplitudes(4, 1, 4, 2, seed)  # parity mismatch with the multiplet
        with pytest.raises(ParameterError):
            subground_amplitudes(4, 1, 4, 7, seed)  # beyond the multiplet
        with pytest.raises(StarError, match="seed of two_l=2"):
            subground_amplitudes(4, 1, 2, 1, seed)  # the seed of another block

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("two_S", [1, 2])
    def test_seed_of_the_next_multiplet_is_refused(self, N, two_S):
        # the normalized L- of the bottom of block l + 1 has l_m = l but L = l + 1:
        # its first rung is 2 (2l + 1), not 2l
        for two_l in range(0, N, 2):
            ring, top = bath_subground_state(N, two_l + 2)[1]
            sector = enumerate_bath_sector(N, (N + two_l) // 2)
            lowered = orbit_lowering(ring, top, sector)
            seed = (sector, lowered / np.linalg.norm(lowered))
            with pytest.raises(StarError, match=f"not in the multiplet l={two_l // 2}"):
                subground_amplitudes(N, two_S, two_l, abs(two_l - two_S), seed)

    @pytest.mark.parametrize("N", range(4, 17, 2))
    @pytest.mark.parametrize("two_S", [1, 2, 3, 4])
    @pytest.mark.parametrize("above", [True, False], ids=["S<=l", "l<S"])
    def test_an_orbit_carries_one_amplitude(self, N, two_S, above):
        # every state of one sublattice orbit in one slice has the same bits,
        # the bottom of the multiplet being the longest walk
        two_l = two_S + two_S % 2 if above else (two_S - 1) // 2 * 2
        two_m = -abs(two_l - two_S)
        amps = subground_amplitudes(N, two_S, two_l, two_m, bath_subground_state(N, two_l)[1])
        for part in states.subground_layout(N, two_S, two_l, two_m):
            block = orbit_block(enumerate_bath_sector(N, part.n_up), sublattice=True)
            got = amps[part.start:part.stop]
            at = block.sector.positions(block.keys)
            assert np.array_equal(got.view(np.int64), got[at][block.label].view(np.int64))

    @pytest.mark.parametrize("N,two_S,two_l", [(8, 1, 2), (8, 3, 0), (10, 2, 6)])
    def test_seed_not_constant_on_the_orbits_is_refused(self, N, two_S, two_l):
        # one unit in the last place on one state of an orbit is not projected away
        ring, level = bath_subground_state(N, two_l)[1]
        block = orbit_block(ring, sublattice=True)
        level = level.copy()
        at = np.flatnonzero(block.size[block.label] > 1)[-1]
        level[at] = np.nextafter(level[at], np.inf)
        with pytest.raises(StarError, match="not constant on the sublattice orbits"):
            subground_amplitudes(N, two_S, two_l, abs(two_l - two_S), (ring, level))

    @pytest.mark.parametrize("N", [2, 6, 12])
    def test_l_zero_seed_is_lowered_once(self, N, monkeypatch):
        # no term of l = 0 needs a lowering; the certificate makes one, to l_m = -1
        lower, lowered = ops._lowering, []

        def record(src, dst):
            lowered.append(dst.two_m)
            return lower(src, dst)

        _, seed = bath_subground_state(N, 0)
        monkeypatch.setattr(states, "_lowering", record)
        amps = subground_amplitudes(N, 2, 0, 0, seed)
        assert lowered == [-2]
        # the one term: central level S_m = 0 times the seed
        sector = enumerate_sector(N, 2, 0)
        assert np.array_equal(amps[sector.central == 1], seed[1])
        assert not amps[sector.central != 1].any()

    @pytest.mark.parametrize("N", range(4, 13, 2))
    def test_rungs_are_met_far_inside_the_tolerance(self, N):
        # every rung of every certified seed, the whole multiplet down, to 1e-12
        for two_l in range(2, N + 1, 2):
            ring, level = bath_subground_state(N, two_l)[1]
            for two_lm in range(two_l - 2, -two_l - 2, -2):
                dst = enumerate_bath_sector(N, (N + two_lm) // 2)
                level = orbit_lowering(ring, level, dst)
                m = (two_lm + 2) // 2
                rung = (two_l // 2 + m) * (two_l // 2 - m + 1)
                nrm = np.linalg.norm(level)
                assert abs(nrm * nrm - rung) <= 1e-12 * rung
                level, ring = level / nrm, dst
