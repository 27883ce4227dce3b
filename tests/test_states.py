"""Initial states and the closed-form lowest multiplets.

The closed-form states are judged by physics, not by their own
formulas: each assembled vector must be an exact eigenvector of the
dense star Hamiltonian at the closed-form energy, for more than one
coupling pair, since the coefficients carry no coupling dependence.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_star import operators as ops
from heisenberg_star import states
from heisenberg_star.core import (
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
)
from heisenberg_star.errors import ParameterError
from heisenberg_star.spectrum import level_table, sub_ground_energy
from heisenberg_star.states import (
    bath_multiplet,
    central_initial,
    coherent_coefficients,
    dicke_state,
    neel_state,
    spin_coherent,
    star_state,
    subground_coefficients,
    subground_squared_norm,
    subground_state,
)


def apply_total_lowering(sector, amps, dst):
    """Total lowering S- + L- on a star sector, two_m -> two_m - 2.

    The package never lowers a star state; this is the oracle that checks
    that the closed-form sub-ground states descend their multiplet.
    ``tests/test_operators.py`` checks it against Kronecker products.
    """
    out = ops.apply_bath_lowering(sector, amps, dst)
    i, j = ops._hop(sector, dst, step=1)
    out[j] += ops._ladder_weight(sector.two_S, sector.central[i] + 1) * amps[i]
    return out


class TestNeel:
    def test_alternating_pattern(self):
        st_ = neel_state(4)
        sec, amps = st_.require_single()
        assert sec.two_m == 0 and sec.is_bath
        i = int(np.argmax(np.abs(amps)))
        assert sec.state(i) == (0, 0b1010)  # sites 2 and 4 up, 1 and 3 down
        assert np.count_nonzero(amps) == 1

    def test_staggered_expectation_is_one_half(self):
        for N in (4, 6, 10):
            st_ = neel_state(N)
            sec, _ = st_.require_single()
            assert ops.expectation(ops.build_staggered(sec), st_) == pytest.approx(0.5)

    def test_momentum_content(self):
        # a product state of N/2 flips carries <L^2> = N/2
        st_ = neel_state(6)
        sec, _ = st_.require_single()
        assert ops.expectation(ops.build_L_squared(sec), st_) == pytest.approx(3.0)


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
        psi = star_state(2, [(c, a, neel_state(4)) for c, a in enumerate(central)])
        assert [s.two_m for s in psi.sectors] == [2, 0, -2]  # central level ascending
        for c, sector in enumerate(psi.sectors):
            block = psi.block(c)
            assert block[sector.index_of(c, 0b1010)] == central[c]
            assert np.count_nonzero(block) == 1

    def test_ring_blocks_keep_their_order_and_zero_terms_are_skipped(self):
        ring = spin_coherent(4, 1.1, 0.4)
        psi = star_state(1, [(0, 1.0, ring), (1, 0.0, ring)])
        assert [s.two_m for s in psi.sectors] == [s.two_m + 1 for s in ring.sectors]
        for b, sector in enumerate(psi.sectors):
            np.testing.assert_array_equal(psi.block(b)[sector.central == 0], ring.block(b))
            assert not psi.block(b)[sector.central == 1].any()


class TestDicke:
    def test_uniform_over_configurations(self):
        st_ = dicke_state(4, 2)
        sec, amps = st_.require_single()
        assert sec.dim == 6
        np.testing.assert_allclose(amps, 1.0 / math.sqrt(6))

    def test_maximal_momentum(self):
        for N, n in [(4, 2), (6, 1), (6, 5)]:
            st_ = dicke_state(N, n)
            sec, _ = st_.require_single()
            l = N / 2.0
            got = ops.expectation(ops.build_L_squared(sec), st_)
            assert got == pytest.approx(l * (l + 1), abs=1e-12)

    def test_reached_by_lowering_the_polarized_state(self):
        N = 6
        src = enumerate_bath_sector(N, N)
        vec = np.ones(1, dtype=complex)
        for n_up in range(N, 3, -1):
            dst = enumerate_bath_sector(N, n_up - 1)
            vec = ops.apply_bath_lowering(src, vec, dst)
            src = dst
        got = StateVector.single(src, vec)
        want = dicke_state(N, 3)
        overlap = abs(np.vdot(got.amps, want.amps))
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


class TestSpinCoherent:
    def test_block_structure(self):
        N = 6
        cs = spin_coherent(N, 1.3, 0.2)
        Q = coherent_coefficients(N, 1.3, 0.2)
        assert cs.n_blocks == N + 1
        for n in range(N + 1):
            block = cs.block(n)
            assert block.size == math.comb(N, n)
            # each block is the Dicke state weighted by one coefficient
            np.testing.assert_allclose(
                block, Q[n] / math.sqrt(math.comb(N, n)), atol=1e-13)
        assert cs.norm() == pytest.approx(1.0, abs=1e-12)

    def test_exact_ring_eigenstate(self):
        # every block must return N/4 times itself under the ring
        N = 8
        cs = spin_coherent(N, 2.0, 1.1)
        for i, sec in enumerate(cs.sectors):
            H = ops.build_bath_ring(sec, 1.0, 1.0)
            x = cs.block(i)
            r = np.linalg.norm(H.matrix @ x - (N / 4.0) * x)
            assert r <= 1e-10

    def test_poles_collapse_to_one_block(self):
        up = spin_coherent(4, 0.0, 0.0)
        assert up.n_blocks == 1 and up.sectors[0].two_m == 4
        down = spin_coherent(4, math.pi, 0.0)
        assert down.n_blocks == 1 and down.sectors[0].two_m == -4


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


class TestBathMultiplet:
    def test_descent_covers_the_ladder(self):
        mult = bath_multiplet(6, 4)
        assert sorted(mult.keys()) == [-4, -2, 0, 2, 4]
        for st_ in mult.values():
            assert st_.norm() == pytest.approx(1.0, abs=1e-12)

    def test_members_share_the_momentum(self):
        l = 2
        mult = bath_multiplet(6, 2 * l)
        for st_ in mult.values():
            sec, _ = st_.require_single()
            got = ops.expectation(ops.build_L_squared(sec), st_)
            assert got == pytest.approx(l * (l + 1), abs=1e-8)

    def test_lowering_connects_neighbors_in_phase(self):
        mult = bath_multiplet(6, 4)
        for two_lm in range(4, -3, -2):
            hi = mult[two_lm]
            lo = mult[two_lm - 2]
            sec_hi, amps_hi = hi.require_single()
            sec_lo, _ = lo.require_single()
            dropped = ops.apply_bath_lowering(sec_hi, amps_hi, sec_lo)
            ov = np.vdot(lo.amps, dropped)
            assert ov.real == pytest.approx(np.linalg.norm(dropped), rel=1e-10)
            assert abs(ov.imag) < 1e-10

    def test_partial_descent(self):
        mult = bath_multiplet(6, 4, two_lm_stop=0)
        assert sorted(mult.keys()) == [0, 2, 4]


def total_momentum_squared(sector):
    """Dense (S + L)^2 on a star sector, assembled from parts."""
    two_S = sector.two_S
    S = two_S / 2.0
    eye = np.eye(sector.dim)
    L2 = ops.build_L_squared(sector).matrix.toarray()
    SL = ops.build_system_bath(sector, 1.0).matrix.toarray()
    return S * (S + 1.0) * eye + L2 + 2.0 * SL


class TestSubgroundState:
    @pytest.mark.parametrize("two_S", [1, 2, 3, 4])
    def test_exact_eigenvector_at_two_coupling_pairs(self, two_S):
        N = 4
        table = level_table(N)
        for two_l in range(0, N + 1, 2):
            two_j = abs(two_l - two_S)
            mult = bath_multiplet(N, two_l)
            for two_m in range(-two_j, two_j + 1, 2):
                st_ = subground_state(N, two_S, two_l, two_m, multiplet=mult)
                sec, amps = st_.require_single()
                # one state, two Hamiltonians: coefficients carry no couplings
                for J, g in ((0.85, 1.1), (2.0, 0.3)):
                    H = ops.build_star_hamiltonian(
                        sec, make_params(N, two_S, J=J, g=g))
                    e = sub_ground_energy(two_l, two_S, J, g, table.energy(two_l))
                    r = np.linalg.norm(H.matrix @ amps - e * amps)
                    assert r <= 1e-8

    def test_total_momentum_labels(self):
        N, two_S, two_l = 6, 2, 4
        two_j = abs(two_l - two_S)
        st_ = subground_state(N, two_S, two_l, two_j)
        sec, amps = st_.require_single()
        J2 = total_momentum_squared(sec)
        j = two_j / 2.0
        got = np.vdot(amps, J2 @ amps).real
        assert got == pytest.approx(j * (j + 1), abs=1e-8)

    def test_states_of_different_origin_are_orthogonal(self):
        # three momenta land in the same magnetization sector
        N, two_S = 6, 2
        built = [subground_state(N, two_S, two_l, 0) for two_l in (2, 4, 6)]
        for i in range(3):
            for k in range(i + 1, 3):
                ov = abs(np.vdot(built[i].amps, built[k].amps))
                assert ov < 1e-8

    def test_ladder_descent_within_the_multiplet(self):
        N, two_S, two_l = 6, 2, 6
        two_j = abs(two_l - two_S)
        for two_m in range(two_j, -two_j + 1, -2):
            hi = subground_state(N, two_S, two_l, two_m)
            lo = subground_state(N, two_S, two_l, two_m - 2)
            sec_hi, amps_hi = hi.require_single()
            sec_lo, _ = lo.require_single()
            dropped = apply_total_lowering(sec_hi, amps_hi, sec_lo)
            ov = abs(np.vdot(lo.amps, dropped))
            assert ov == pytest.approx(np.linalg.norm(dropped), rel=1e-8)

    def test_multiplet_argument_changes_nothing(self):
        N, two_S, two_l, two_m = 6, 3, 4, 1
        a = subground_state(N, two_S, two_l, two_m)
        b = subground_state(N, two_S, two_l, two_m,
                            multiplet=bath_multiplet(N, two_l))
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            subground_state(4, 1, 6, 1)  # momentum beyond the ring
        with pytest.raises(ParameterError):
            subground_state(4, 1, 4, 2)  # parity mismatch with the multiplet
        with pytest.raises(ParameterError):
            subground_state(4, 1, 4, 7)  # beyond the multiplet
