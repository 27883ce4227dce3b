"""Operator builders against a dense Kronecker-product reference.

The reference implementation below assembles every term from explicit
single-site matrices in the full product space and projects onto the
sector basis. It shares no code with the builders (different ladder
route for the squared ring momentum on purpose), so agreement is a real
cross-check, not a tautology.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from heisenberg_star import operators as ops
from heisenberg_star.core import (
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
    orbit_block,
)
from heisenberg_star.errors import ParameterError, SectorMismatch, StarError
from test_states import apply_total_lowering

# ---------------------------------------------------------------- reference


def central_matrices(two_s):
    """(Sz, S+, S-) for one spin two_s/2, rows ordered S_m = S..-S."""
    d = two_s + 1
    s = two_s / 2.0
    m = np.array([s - k for k in range(d)])
    sz = np.diag(m)
    raise_ = np.zeros((d, d))
    for k in range(1, d):
        raise_[k - 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return sz, raise_, raise_.T.copy()


def site_matrix(N, a, kind):
    """Single ring-site operator in the 2^N bit basis."""
    dim = 1 << N
    M = np.zeros((dim, dim))
    for bits in range(dim):
        up = (bits >> a) & 1
        if kind == "z":
            M[bits, bits] = 0.5 if up else -0.5
        elif kind == "+" and not up:
            M[bits | (1 << a), bits] = 1.0
        elif kind == "-" and up:
            M[bits ^ (1 << a), bits] = 1.0
    return M


def ring_matrix(N, J, Jp):
    dim = 1 << N
    H = np.zeros((dim, dim))
    for a in range(N):
        b = (a + 1) % N
        H += 0.5 * J * (site_matrix(N, a, "+") @ site_matrix(N, b, "-")
                        + site_matrix(N, a, "-") @ site_matrix(N, b, "+"))
        H += Jp * site_matrix(N, a, "z") @ site_matrix(N, b, "z")
    return H


def collective_matrices(N):
    dim = 1 << N
    Lz = np.zeros((dim, dim))
    Lp = np.zeros((dim, dim))
    for a in range(N):
        Lz += site_matrix(N, a, "z")
        Lp += site_matrix(N, a, "+")
    return Lz, Lp, Lp.T.copy()


def l_squared_matrix(N):
    # symmetric ladder route, unlike the production builder
    Lz, Lp, Lm = collective_matrices(N)
    return 0.5 * (Lp @ Lm + Lm @ Lp) + Lz @ Lz


def full_star_matrix(N, two_S, J, Jp, g_eff, omega):
    """omega Sz + ring + g_eff S.L in the (two_S+1) * 2^N product space."""
    sz, sp_, sm = central_matrices(two_S)
    eye_c = np.eye(two_S + 1)
    eye_b = np.eye(1 << N)
    Lz, Lp, Lm = collective_matrices(N)
    H = np.kron(eye_c, ring_matrix(N, J, Jp))
    H += g_eff * (0.5 * (np.kron(sp_, Lm) + np.kron(sm, Lp)) + np.kron(sz, Lz))
    H += omega * np.kron(sz, eye_b)
    return H


def project(full, sector):
    """Restrict a full-space matrix to the sector's basis states."""
    idx = [(c << sector.N) | b for c, b in sector.states]
    return full[np.ix_(idx, idx)]


def dense(op):
    return op.matrix.toarray()


# Sparse Kronecker reference for sectors too large for the dense one.
SITE = {"z": np.diag([-0.5, 0.5]), "+": np.array([[0.0, 0.0], [1.0, 0.0]])}
SITE["-"] = SITE["+"].T


def sparse_site(N, a, kind):
    """Single ring-site operator in the 2^N bit basis; bit a is factor N - a."""
    return sparse.kron(sparse.kron(sparse.identity(1 << (N - 1 - a)), SITE[kind]),
                       sparse.identity(1 << a), format="csr")


@functools.lru_cache(maxsize=None)
def sparse_ring_terms(N):
    """Lz, L+, L-, the exchange and Ising bond sums, and the staggered field."""
    z = [sparse_site(N, a, "z") for a in range(N)]
    p = [sparse_site(N, a, "+") for a in range(N)]
    m = [sparse_site(N, a, "-") for a in range(N)]
    bonds = [(a, (a + 1) % N) for a in range(N)]
    exchange = sum(0.5 * (p[a] @ m[b] + m[a] @ p[b]) for a, b in bonds)
    ising = sum(z[a] @ z[b] for a, b in bonds)
    staggered = sum((-1) ** (a + 1) * z[a] for a in range(N)) / N
    return sum(z), sum(p), sum(m), exchange, ising, staggered


def on_ring(two_S, ring_op):
    """Ring operator with the central spin riding along."""
    return sparse.kron(sparse.identity(two_S + 1), ring_op)


def sparse_project(full, src, dst=None):
    """Rows of dst's states, columns of src's states."""
    dst = src if dst is None else dst
    return full.tocsr()[dst.keys][:, src.keys]


def assert_matches(op, ref):
    assert op.matrix.shape == ref.shape
    assert abs(op.matrix.tocsr() - ref).max() <= 1e-12


# ------------------------------------------------------------------- tests


class TestRing:
    def test_two_site_ring_counts_the_bond_twice(self):
        sec = enumerate_bath_sector(2, 1)
        H = dense(ops.build_bath_ring(sec, 1.0, 1.0))
        np.testing.assert_allclose(H, [[-0.5, 1.0], [1.0, -0.5]], atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [-1.5, 0.5], atol=1e-14)

    def test_polarized_diagonal(self):
        sec = enumerate_bath_sector(6, 6)
        H = dense(ops.build_bath_ring(sec, 0.3, 0.8))
        np.testing.assert_allclose(H, [[6 * 0.8 / 4.0]], atol=1e-15)

    @pytest.mark.parametrize("n_up", [0, 1, 2, 3])
    def test_against_reference(self, n_up):
        sec = enumerate_bath_sector(4, n_up)
        H = dense(ops.build_bath_ring(sec, 0.7, 0.3))
        ref = project(ring_matrix(4, 0.7, 0.3), sec)
        np.testing.assert_allclose(H, ref, atol=1e-14)

    def test_transverse_only_has_no_diagonal(self):
        sec = enumerate_bath_sector(4, 2)
        H = dense(ops.build_bath_ring(sec, 1.0, 0.0))
        np.testing.assert_allclose(np.diag(H), 0.0, atol=1e-15)

    def test_longitudinal_only_is_diagonal(self):
        sec = enumerate_bath_sector(4, 2)
        H = dense(ops.build_bath_ring(sec, 0.0, 1.0))
        np.testing.assert_allclose(H - np.diag(np.diag(H)), 0.0, atol=1e-15)


class TestSystemBath:
    def test_three_state_sector_by_hand(self):
        # N=2, two_S=1, two_m=1: states (c=0,|01>), (c=0,|10>), (c=1,|11>)
        sec = enumerate_sector(2, 1, 1)
        assert sec.states == [(0, 0b01), (0, 0b10), (1, 0b11)]
        p = 0.6
        H = dense(ops.build_system_bath(sec, p))
        want = 0.5 * p * np.array([
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, -1.0],
        ])
        np.testing.assert_allclose(H, want, atol=1e-15)

    @pytest.mark.parametrize("two_S,two_m", [(1, 1), (1, -3), (2, 0), (4, 2)])
    def test_against_reference(self, two_S, two_m):
        sec = enumerate_sector(4, two_S, two_m)
        H = dense(ops.build_system_bath(sec, 1.3))
        ref = project(full_star_matrix(4, two_S, 0.0, 0.0, 1.3, 0.0), sec)
        np.testing.assert_allclose(H, ref, atol=1e-13)

    def test_rejects_bath_sector(self):
        with pytest.raises(ParameterError):
            ops.build_system_bath(enumerate_bath_sector(4, 2), 1.0)


class TestDiagonalObservables:
    def test_zeeman_levels(self):
        sec = enumerate_sector(4, 3, 1)
        H = dense(ops.build_zeeman(sec, 2.0))
        for i, (c, _) in enumerate(sec.states):
            assert H[i, i] == pytest.approx(2.0 * (1.5 - c))

    def test_zeeman_rejects_bath_sector(self):
        with pytest.raises(ParameterError):
            ops.build_zeeman(enumerate_bath_sector(4, 2), 1.0)

    def test_staggered_signs(self):
        sec = enumerate_bath_sector(4, 2)
        M = dense(ops.build_staggered(sec))
        # sites 2 and 4 up (bits 0b1010) is the alternating pattern
        assert M[sec.index_of(0, 0b1010), sec.index_of(0, 0b1010)] == pytest.approx(0.5)
        assert M[sec.index_of(0, 0b0101), sec.index_of(0, 0b0101)] == pytest.approx(-0.5)
        # sites 1 and 2 up: contributions cancel pairwise
        assert M[sec.index_of(0, 0b0011), sec.index_of(0, 0b0011)] == pytest.approx(0.0)

    def test_staggered_vanishes_on_polarized(self):
        sec = enumerate_bath_sector(6, 6)
        assert dense(ops.build_staggered(sec))[0, 0] == pytest.approx(0.0)


class TestRingMomentumSquared:
    @pytest.mark.parametrize("n_up", [0, 1, 2])
    def test_bath_sector_against_reference(self, n_up):
        sec = enumerate_bath_sector(4, n_up)
        L2 = dense(ops.build_L_squared(sec))
        ref = project(np.kron(np.eye(1), l_squared_matrix(4)), sec)
        np.testing.assert_allclose(L2, ref, atol=1e-13)

    def test_star_sector_leaves_central_untouched(self):
        sec = enumerate_sector(4, 2, 0)
        L2 = dense(ops.build_L_squared(sec))
        ref = project(np.kron(np.eye(3), l_squared_matrix(4)), sec)
        np.testing.assert_allclose(L2, ref, atol=1e-13)

    def test_spectrum_of_balanced_sector(self):
        # N=4, n_up=2: eigenvalues l(l+1) with multiplicities 2, 3, 1
        sec = enumerate_bath_sector(4, 2)
        vals = np.sort(np.linalg.eigvalsh(dense(ops.build_L_squared(sec))))
        np.testing.assert_allclose(vals, [0, 0, 2, 2, 2, 6], atol=1e-12)

    def test_polarized_is_maximal(self):
        for N in (4, 6):
            sec = enumerate_bath_sector(N, N)
            l = N / 2
            assert dense(ops.build_L_squared(sec))[0, 0] == pytest.approx(l * (l + 1))


class TestAssembledHamiltonians:
    def test_star_against_reference(self):
        params = make_params(4, 2, J=0.9, g=0.7)
        sec = enumerate_sector(4, 2, 0)
        H = dense(ops.build_star_hamiltonian(sec, params))
        ref = project(full_star_matrix(4, 2, 0.9, 0.9, 0.7, 0.0), sec)
        np.testing.assert_allclose(H, ref, atol=1e-13)

    def test_star_rejects_anisotropy_and_field(self):
        sec = enumerate_sector(4, 1, 1)
        with pytest.raises(ParameterError):
            ops.build_star_hamiltonian(sec, make_params(4, 1, J=1.0, Jp=0.5))
        with pytest.raises(ParameterError):
            ops.build_star_hamiltonian(sec, make_params(4, 1, J=1.0, omega=0.3))

    def test_modified_star_against_reference(self):
        # coupling enters with an explicit factor two here
        params = make_params(4, 1, J=1.0, Jp=0.8, g=0.5, omega=0.9)
        sec = enumerate_sector(4, 1, 1)
        H = dense(ops.build_modified_star(sec, params))
        ref = project(full_star_matrix(4, 1, 1.0, 0.8, 2.0 * 0.5, 0.9), sec)
        np.testing.assert_allclose(H, ref, atol=1e-13)

    def test_isotropic_star_commutes_with_ring_momentum(self):
        params = make_params(6, 2, J=0.77, g=1.3)
        sec = enumerate_sector(6, 2, 0)
        H = dense(ops.build_star_hamiltonian(sec, params))
        L2 = dense(ops.build_L_squared(sec))
        assert np.max(np.abs(H @ L2 - L2 @ H)) < 1e-12

    def test_anisotropic_ring_breaks_the_conservation(self):
        params = make_params(6, 2, J=1.0, Jp=0.8, g=1.3)
        sec = enumerate_sector(6, 2, 0)
        H = dense(ops.build_modified_star(sec, params))
        L2 = dense(ops.build_L_squared(sec))
        assert np.max(np.abs(H @ L2 - L2 @ H)) > 1e-3

    @pytest.mark.parametrize("builder", [
        lambda s: ops.build_bath_ring(s, 0.7, 0.3),
        ops.build_L_squared,
        lambda s: ops.build_system_bath(s, 1.1) if not s.is_bath else ops.build_L_squared(s),
    ])
    def test_hermitian(self, builder):
        for sec in (enumerate_sector(6, 2, 0), enumerate_bath_sector(6, 3)):
            A = builder(sec).matrix.tocsr()
            assert abs(A - A.conj().T).max() < 1e-14


class TestCSR:
    def test_scipy_wraps_the_canonical_arrays_without_a_copy(self):
        m = ops.build_star_hamiltonian(enumerate_sector(8, 3, 1),
                                       make_params(8, 3, J=0.9, g=1.1)).matrix
        s = m.tocsr()
        for ours, theirs in ((m.indptr, s.indptr), (m.indices, s.indices), (m.data, s.data)):
            assert np.shares_memory(ours, theirs)
        assert s.has_canonical_format and s.nnz == m.nnz

    def test_product_matches_the_dense_matrix(self):
        m = ops.build_L_squared(enumerate_sector(8, 2, 0)).matrix
        rng = np.random.default_rng(4)
        x = rng.normal(size=(m.shape[0], 3)) + 1j * rng.normal(size=(m.shape[0], 3))
        np.testing.assert_allclose(m @ x, m.toarray() @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m @ x[:, 0], m.toarray() @ x[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["real", "complex", "real-2d", "complex-2d"])
    def test_product_has_the_bits_of_the_scatter_form(self, kind):
        # the np.add.at scatter the product once used, kept as the reference
        m = ops.build_star_hamiltonian(enumerate_sector(10, 3, 1),
                                       make_params(10, 3, J=0.9, g=1.1)).matrix
        rng = np.random.default_rng(7)
        shape = (m.shape[0], 3) if kind.endswith("2d") else (m.shape[0],)
        x = rng.normal(size=shape)
        if kind.startswith("complex"):
            x = x + 1j * rng.normal(size=shape)
        want = np.zeros(shape, dtype=x.dtype)
        np.add.at(want, m.rows, m.data.reshape(-1, *[1] * (x.ndim - 1)) * x[m.indices])
        got = m @ x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_rows_are_found_once_and_read_only(self):
        m = ops.build_L_squared(enumerate_sector(8, 2, 0)).matrix
        assert m.rows is m.rows
        np.testing.assert_array_equal(m.rows, np.repeat(np.arange(m.shape[0]),
                                                        np.diff(m.indptr)))
        with pytest.raises(ValueError):
            m.rows[0] = 1


class TestApplication:
    def test_apply_returns_unnormalized(self):
        sec = enumerate_bath_sector(4, 2)
        H = ops.build_bath_ring(sec, 1.0, 1.0)
        st = StateVector.single(sec, np.ones(sec.dim))
        out = ops.apply(H, st)
        np.testing.assert_allclose(out.amps, H.matrix @ st.amps)

    def test_apply_sector_mismatch(self):
        a = enumerate_bath_sector(4, 2)
        b = enumerate_bath_sector(4, 1)
        H = ops.build_bath_ring(a, 1.0, 1.0)
        with pytest.raises(SectorMismatch):
            ops.apply(H, StateVector.single(b, np.ones(b.dim)))

    def test_expectation_matches_dense(self):
        sec = enumerate_sector(4, 1, 1)
        H = ops.build_system_bath(sec, 0.9)
        rng = np.random.default_rng(11)
        v = rng.normal(size=sec.dim) + 1j * rng.normal(size=sec.dim)
        st = StateVector.single(sec, v)
        want = np.vdot(st.amps, dense(H) @ st.amps).real
        assert ops.expectation(H, st) == pytest.approx(want)


class TestLadders:
    def test_lowering_fully_polarized_ring(self):
        src = enumerate_bath_sector(4, 4)
        dst = enumerate_bath_sector(4, 3)
        out = ops.apply_bath_lowering(src, np.ones(1, dtype=complex), dst)
        # every single flip appears with weight one
        np.testing.assert_allclose(out, np.ones(4))
        assert np.linalg.norm(out) == pytest.approx(2.0)  # sqrt(N) for l = N/2

    def test_lowering_weight_matches_ladder_rule(self):
        # on the symmetric l = N/2 multiplet the norm is sqrt((l+lm)(l-lm+1))
        N, l = 4, 2.0
        amps = None
        src = enumerate_bath_sector(N, N)
        vec = np.ones(1, dtype=complex)
        lm = l
        for n_up in range(N, 0, -1):
            dst = enumerate_bath_sector(N, n_up - 1)
            out = ops.apply_bath_lowering(src, vec, dst)
            assert np.linalg.norm(out) / np.linalg.norm(vec) == pytest.approx(
                math.sqrt((l + lm) * (l - lm + 1))
            )
            src, vec, lm = dst, out, lm - 1.0

    def test_lowering_sector_mismatch(self):
        src = enumerate_bath_sector(4, 2)
        with pytest.raises(SectorMismatch):
            ops.apply_bath_lowering(src, np.ones(src.dim, dtype=complex),
                                    enumerate_bath_sector(4, 0))

    def test_total_lowering_against_reference(self):
        two_S, N = 2, 4
        src = enumerate_sector(N, two_S, 2)
        dst = enumerate_sector(N, two_S, 0)
        rng = np.random.default_rng(5)
        v = rng.normal(size=src.dim) + 1j * rng.normal(size=src.dim)
        got = apply_total_lowering(src, v, dst)
        # reference: dense (S- + L-) in the full product space
        sz, sp_, sm = central_matrices(two_S)
        _, Lp, Lm = collective_matrices(N)
        low = np.kron(sm, np.eye(1 << N)) + np.kron(np.eye(two_S + 1), Lm)
        full = np.zeros((two_S + 1) << N, dtype=complex)
        for i, (c, b) in enumerate(src.states):
            full[(c << N) | b] = v[i]
        want = low @ full
        for i, (c, b) in enumerate(dst.states):
            assert got[i] == pytest.approx(want[(c << N) | b], abs=1e-13)


KRON_SECTORS = [(10, 1, 1), (10, 3, -3), (12, 1, -1), (12, 3, 3)]


class TestAgainstSparseKronecker:
    """Builders at sizes the dense reference cannot reach."""

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_anisotropic_ring(self, N, two_S, two_m):
        sec = enumerate_sector(N, two_S, two_m)
        _, _, _, exchange, ising, _ = sparse_ring_terms(N)
        ref = sparse_project(on_ring(two_S, 0.7 * exchange + 0.3 * ising), sec)
        assert_matches(ops.build_bath_ring(sec, 0.7, 0.3), ref)

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_system_bath(self, N, two_S, two_m):
        sec = enumerate_sector(N, two_S, two_m)
        sz, sp_, sm = central_matrices(two_S)
        Lz, Lp, Lm, _, _, _ = sparse_ring_terms(N)
        full = 0.5 * (sparse.kron(sp_, Lm) + sparse.kron(sm, Lp)) + sparse.kron(sz, Lz)
        assert_matches(ops.build_system_bath(sec, 1.3), sparse_project(1.3 * full, sec))

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_L_squared(self, N, two_S, two_m):
        # symmetric ladder route, unlike the production builder
        sec = enumerate_sector(N, two_S, two_m)
        Lz, Lp, Lm, _, _, _ = sparse_ring_terms(N)
        L2 = 0.5 * (Lp @ Lm + Lm @ Lp) + Lz @ Lz
        assert_matches(ops.build_L_squared(sec), sparse_project(on_ring(two_S, L2), sec))

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_staggered(self, N, two_S, two_m):
        sec = enumerate_sector(N, two_S, two_m)
        staggered = sparse_ring_terms(N)[5]
        assert_matches(ops.build_staggered(sec),
                       sparse_project(on_ring(two_S, staggered), sec))

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_bath_and_total_lowering(self, N, two_S, two_m):
        src = enumerate_sector(N, two_S, two_m)
        dst = enumerate_sector(N, two_S, two_m - 2)
        _, sm = central_matrices(two_S)[1:]
        Lm = sparse_ring_terms(N)[2]
        rng = np.random.default_rng(N + two_S)
        v = rng.normal(size=src.dim) + 1j * rng.normal(size=src.dim)
        bath = sparse_project(on_ring(two_S, Lm), src, dst) @ v
        np.testing.assert_allclose(ops.apply_bath_lowering(src, v, dst), bath,
                                   rtol=0, atol=1e-12)
        total = sparse.kron(sm, sparse.identity(1 << N)) + on_ring(two_S, Lm)
        np.testing.assert_allclose(apply_total_lowering(src, v, dst),
                                   sparse_project(total, src, dst) @ v, rtol=0, atol=1e-12)

    def test_kernel_raises_on_a_target_outside_the_sector(self):
        sec = enumerate_sector(10, 3, 1)
        with pytest.raises(KeyError):
            ops._hop(sec, sec, lower_bits=1)  # lowering leaves the sector
        with pytest.raises(KeyError):
            ops._hop(sec, sec, np.array([2, 0]), np.array([1, 1]))  # so does the second hop


def kernel_hops(N):
    """(raise_bits, lower_bits, step) arrays: every hop the builders make,
    the identity, and two-spin hops whose central step of two leaves
    0..two_S for most states."""
    hops = [(1 << b, 1 << a, 0) for a in range(N) for b in range(N) if a != b]
    hops += [h for a in range(N) for h in ((0, 1 << a, -1), (1 << a, 0, 1))]
    hops += [(0, 0, 0)]
    hops += [h for a in range(0, N, 3) for h in (((1 << a) | (1 << (a + 1) % N), 0, 2),
                                                 (0, (1 << a) | (1 << (a + 2) % N), -2))]
    return np.array(hops).T


@pytest.mark.parametrize("N,two_S", [(N, s) for N in (4, 6, 8, 10) for s in (0, 1, 3)])
def test_batched_hops_concatenate_the_single_hops(N, two_S):
    raise_bits, lower_bits, step = kernel_hops(N)
    for two_m in range(-(two_S + N), two_S + N + 1, 2):
        sector = enumerate_sector(N, two_S, two_m)
        for src in (sector, orbit_block(sector)):
            single = [ops._hop(src, src, int(r), int(l), int(s))
                      for r, l, s in zip(raise_bits, lower_bits, step)]
            i, j = ops._hop(src, src, raise_bits, lower_bits, step)
            np.testing.assert_array_equal(i, np.concatenate([h[0] for h in single]))
            np.testing.assert_array_equal(j, np.concatenate([h[1] for h in single]))
