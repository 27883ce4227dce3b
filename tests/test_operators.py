"""The Kronecker reference of ``verify`` and the operators it checks.

The dense reference below assembles every term from single-site
matrices written out bit by bit in the full product space and projects
onto a sector's basis. It anchors ``verify``'s sparse Kronecker
reference (``reference_hamiltonian``, ``reference_operator``,
``reference_state``), which is built from ``scipy.sparse.kron`` of one
2 x 2 matrix per site, term by term at N = 2-6. That reference in turn
checks the package's own operators: the ring builder, the kernel, the
ring pieces and the star blocks assembled from them, at sizes the dense
one cannot reach. The star blocks hold ring orbits, so each is compared
with Q^T M Q for an isometry Q built here from the ring's rotations and
reflections carried out site by site. Neither reference shares code
with the package (the squared ring momentum even takes a different
ladder route), so agreement is a real cross-check, not a tautology.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from heisenberg_star import operators as ops
from heisenberg_star import verify
from heisenberg_star.core import (
    enumerate_bath_sector,
    enumerate_sector,
    orbit_block,
    star_block,
)
from heisenberg_star.errors import ParameterError
from heisenberg_star.states import coherent_coefficients
from heisenberg_star.verify import (
    reference_hamiltonian,
    reference_operator,
    reference_state,
    restrict,
)
from test_states import apply_total_lowering, orbit_lowering

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
    # symmetric ladder route, unlike the ring pieces
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


@functools.lru_cache(maxsize=None)
def ring_orbits(N, sublattice=False):
    """The smallest image of every N-bit ring configuration under the
    dihedral group, each image moved site by site: site a goes to
    (a + r) mod N, or to (r - a) mod N when reflected. With
    ``sublattice`` r is even only, the subgroup that keeps each sublattice."""
    def image(bits, r, reflect):
        return sum(1 << (((r - a) if reflect else (a + r)) % N)
                   for a in range(N) if bits >> a & 1)
    return {bits: min(image(bits, r, reflect) for r in range(0, N, 2 if sublattice else 1)
                      for reflect in (False, True))
            for bits in range(1 << N)}


def orbit_isometry(sector, block):
    """Q (dim x block.dim): column o is the normalized sum of the states
    in the orbit of the block's representative o, under the block's group."""
    orbits = ring_orbits(sector.N, block.sublattice)
    orbit = [(c, orbits[bits]) for c, bits in sector.states]
    column = {(int(c), orbits[int(b)]): o
              for o, (c, b) in enumerate(zip(block.central, block.bits))}
    assert len(column) == block.dim == len(set(orbit))
    cols = np.array([column[key] for key in orbit])
    size = np.bincount(cols, minlength=block.dim)
    return sparse.csr_matrix((1.0 / np.sqrt(size[cols]), (np.arange(sector.dim), cols)),
                             shape=(sector.dim, block.dim))


def reduced(full, Q):
    """Q^T M Q as a dense array, for a dense or scipy sparse M."""
    out = Q.T @ full @ Q
    return out.toarray() if sparse.issparse(out) else np.asarray(out)


def sublattice_block(N, two_S, two_m, J=0.0, Jp=0.0, prefactor=0.0, omega=0.0, names=(),
                     dense=False):
    """(block, Q, H, observables) of the sublattice orbit block of one star
    sector, assembled from ring pieces as the alternating-state quench
    assembles it, and the isometry Q of the sector onto it."""
    pieces = ops.ring_pieces(N, J, Jp, range(N + 1), l_squared="L2" in names, sublattice=True)
    block = star_block(N, two_S, two_m, pieces)
    H, mats = ops.star_block_operators(block, pieces, prefactor, omega, names, dense)
    return block, orbit_isometry(enumerate_sector(N, two_S, two_m), block), H, mats


def l_squared(pair):
    """L^2 = A^T A + diag(d) of the pair (A, d) that star_block_operators
    returns for 'L2', dense or as a scipy CSR after the form of A."""
    A, d = pair
    if isinstance(A, np.ndarray):
        return A.T @ A + np.diag(d)
    A = A.tocsr()
    return (A.T @ A + sparse.diags_array(d)).tocsr()


def assert_matches(mat, ref):
    assert mat.shape == ref.shape
    assert abs(mat.tocsr() - ref).max() <= 1e-12


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
        H = restrict(reference_hamiltonian(2, 1, 0.0, 0.0, p, 0.0), sec.keys).toarray()
        want = 0.5 * p * np.array([
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, -1.0],
        ])
        np.testing.assert_allclose(H, want, atol=1e-15)

    @pytest.mark.parametrize("two_S,two_m", [(1, 1), (1, -3), (2, 0), (4, 2)])
    def test_against_reference(self, two_S, two_m):
        # the coupling assembled from ring pieces, against the dense bit-loop route
        _, Q, H, _ = sublattice_block(4, two_S, two_m, prefactor=1.3, dense=True)
        ref = project(full_star_matrix(4, two_S, 0.0, 0.0, 1.3, 0.0),
                      enumerate_sector(4, two_S, two_m))
        np.testing.assert_allclose(H, reduced(ref, Q), atol=1e-13)


class TestDiagonalObservables:
    def test_zeeman_levels(self):
        block, _, H, (Sz,) = sublattice_block(4, 3, 1, omega=2.0, names=["Sz"], dense=True)
        for i, c in enumerate(block.central):
            assert H[i, i] == pytest.approx(2.0 * (1.5 - c))
            assert Sz[i] == 1.5 - c

    def test_staggered_signs(self):
        sec = enumerate_bath_sector(4, 2)
        M = ops._staggered(4, sec.bits)
        # sites 2 and 4 up (bits 0b1010) is the alternating pattern
        assert M[sec.index_of(0, 0b1010)] == pytest.approx(0.5)
        assert M[sec.index_of(0, 0b0101)] == pytest.approx(-0.5)
        # sites 1 and 2 up: contributions cancel pairwise
        assert M[sec.index_of(0, 0b0011)] == pytest.approx(0.0)

    def test_staggered_vanishes_on_polarized(self):
        sec = enumerate_bath_sector(6, 6)
        assert ops._staggered(6, sec.bits)[0] == pytest.approx(0.0)

    def test_staggered_is_refused_on_dihedral_blocks(self):
        # the rotation by one site flips its sign, so a dihedral block has no
        # form of it; the tag names the group
        pieces = ops.ring_pieces(4, 1.0, 1.0, range(5))
        block = star_block(4, 1, 1, pieces)
        with pytest.raises(ParameterError, match="'ms' has no form on N=4:2S=1:2m=1:dihedral"):
            ops.star_block_operators(block, pieces, 1.0, 0.0, ["Sz", "ms"], dense=True)


def ring_l_squared(N, n_up):
    """(Q, L^2) of ring filling n_up: L^2 is A^T A + diag(d) of the
    sublattice block without a central spin, from its ring pieces."""
    _, Q, _, (pair,) = sublattice_block(N, 0, 2 * n_up - N, names=["L2"], dense=True)
    return Q, l_squared(pair)


class TestRingMomentumSquared:
    @pytest.mark.parametrize("n_up", [0, 1, 2])
    def test_bath_sector_against_reference(self, n_up):
        sec = enumerate_bath_sector(4, n_up)
        ref = project(np.kron(np.eye(1), l_squared_matrix(4)), sec)
        Q, L2 = ring_l_squared(4, n_up)
        np.testing.assert_allclose(L2, reduced(ref, Q), atol=1e-13)

    def test_star_sector_leaves_central_untouched(self):
        _, Q, _, (L2,) = sublattice_block(4, 2, 0, names=["L2"], dense=True)
        ref = project(np.kron(np.eye(3), l_squared_matrix(4)), enumerate_sector(4, 2, 0))
        np.testing.assert_allclose(l_squared(L2), reduced(ref, Q), atol=1e-13)

    def test_spectrum_of_balanced_sector(self):
        # N=4, n_up=2: l(l+1) with multiplicities 2, 3, 1 on the six states;
        # the three sublattice orbits keep the quintet, one triplet (the
        # k = pi state 0101 - 1010) and one singlet
        vals = np.sort(np.linalg.eigvalsh(ring_l_squared(4, 2)[1]))
        np.testing.assert_allclose(vals, [0, 2, 6], atol=1e-12)

    def test_polarized_is_maximal(self):
        for N in (4, 6):
            l = N / 2
            assert ring_l_squared(N, N)[1][0, 0] == pytest.approx(l * (l + 1))


class TestAssembledHamiltonians:
    """The star blocks of the alternating-state quench, on sublattice orbit blocks."""

    def test_star_against_reference(self):
        _, Q, H, _ = sublattice_block(4, 2, 0, J=0.9, Jp=0.9, prefactor=0.7, dense=True)
        ref = project(full_star_matrix(4, 2, 0.9, 0.9, 0.7, 0.0), enumerate_sector(4, 2, 0))
        np.testing.assert_allclose(H, reduced(ref, Q), atol=1e-13)

    def test_modified_star_against_reference(self):
        # the driven star's coupling enters with an explicit factor two
        _, Q, H, _ = sublattice_block(4, 1, 1, J=1.0, Jp=0.8, prefactor=2.0 * 0.5, omega=0.9,
                                      dense=True)
        ref = project(full_star_matrix(4, 1, 1.0, 0.8, 2.0 * 0.5, 0.9),
                      enumerate_sector(4, 1, 1))
        np.testing.assert_allclose(H, reduced(ref, Q), atol=1e-13)

    def test_isotropic_star_commutes_with_ring_momentum(self):
        _, _, H, (pair,) = sublattice_block(6, 2, 0, J=0.77, Jp=0.77, prefactor=1.3,
                                            names=["L2"], dense=True)
        L2 = l_squared(pair)
        assert np.max(np.abs(H @ L2 - L2 @ H)) < 1e-12

    def test_anisotropic_ring_breaks_the_conservation(self):
        _, _, H, (pair,) = sublattice_block(6, 2, 0, J=1.0, Jp=0.8, prefactor=2.6,
                                            names=["L2"], dense=True)
        L2 = l_squared(pair)
        assert np.max(np.abs(H @ L2 - L2 @ H)) > 1e-3

    @pytest.mark.parametrize("build", [
        lambda: [ops.build_bath_ring(s, 0.7, 0.3).matrix
                 for s in (enumerate_sector(6, 2, 0), enumerate_bath_sector(6, 3))],
        lambda: [l_squared(pair) for pair in sublattice_block(6, 2, 0, names=["L2"])[3]],
        lambda: [sublattice_block(6, 2, 0, J=0.7, Jp=0.3, prefactor=1.1, omega=0.4)[2]],
    ])
    def test_hermitian(self, build):
        for mat in build():
            A = mat.tocsr()
            assert abs(A - A.conj().T).max() < 1e-14


class TestCSR:
    def test_scipy_wraps_the_canonical_arrays_without_a_copy(self):
        m = sublattice_block(8, 3, 1, J=0.9, Jp=0.9, prefactor=1.1)[2]
        s = m.tocsr()
        for ours, theirs in ((m.indptr, s.indptr), (m.indices, s.indices), (m.data, s.data)):
            assert np.shares_memory(ours, theirs)
        assert s.has_canonical_format and s.nnz == m.nnz

    def test_product_matches_the_dense_matrix(self):
        m = sublattice_block(8, 2, 0, J=0.9, Jp=0.6, prefactor=1.1)[2]
        x = np.random.default_rng(4).normal(size=m.shape[0])
        np.testing.assert_allclose(m @ x, m.toarray() @ x, rtol=0, atol=1e-12)

    def test_product_has_the_bits_of_the_scatter_form(self):
        # the np.add.at scatter the product once used, kept as the reference
        m = sublattice_block(10, 3, 1, J=0.9, Jp=0.9, prefactor=1.1)[2]
        x = np.random.default_rng(7).normal(size=m.shape[0])
        want = np.zeros(m.shape[0])
        np.add.at(want, m.rows, m.data * x[m.indices])
        got = m @ x
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_complex_product_is_refused(self):
        # the ring solver, the one caller, multiplies real vectors only
        m = sublattice_block(8, 2, 0, J=0.9, Jp=0.6, prefactor=1.1)[2]
        x = np.ones(m.shape[0])
        with pytest.raises(TypeError):
            m @ (x + 1j * x)
        with pytest.raises(TypeError):
            ops.CSR(m.indptr, m.indices, m.data.astype(complex)) @ x

    def test_rows_are_found_once_and_read_only(self):
        m = sublattice_block(8, 2, 0, J=0.9, Jp=0.6, prefactor=1.1)[2]
        assert m.rows is m.rows
        np.testing.assert_array_equal(m.rows, np.repeat(np.arange(m.shape[0]),
                                                        np.diff(m.indptr)))
        with pytest.raises(ValueError):
            m.rows[0] = 1


class TestLadders:
    def test_lowering_fully_polarized_ring(self):
        src = enumerate_bath_sector(4, 4)
        dst = enumerate_bath_sector(4, 3)
        out = orbit_lowering(src, np.ones(1), dst)
        # every single flip appears with weight one
        np.testing.assert_allclose(out, np.ones(4))
        assert np.linalg.norm(out) == pytest.approx(2.0)  # sqrt(N) for l = N/2

    def test_lowering_weight_matches_ladder_rule(self):
        # on the symmetric l = N/2 multiplet the norm is sqrt((l+lm)(l-lm+1))
        N, l = 4, 2.0
        src = enumerate_bath_sector(N, N)
        vec = np.ones(1)
        lm = l
        for n_up in range(N, 0, -1):
            dst = enumerate_bath_sector(N, n_up - 1)
            out = orbit_lowering(src, vec, dst)
            assert np.linalg.norm(out) / np.linalg.norm(vec) == pytest.approx(
                math.sqrt((l + lm) * (l - lm + 1))
            )
            src, vec, lm = dst, out, lm - 1.0

    def test_lowering_sector_mismatch(self):
        # an image outside the destination block is refused by the kernel
        src = orbit_block(enumerate_bath_sector(4, 2), sublattice=True)
        with pytest.raises(KeyError):
            ops._lowering(src, orbit_block(enumerate_bath_sector(4, 0), sublattice=True))

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
    """The ring builder, the sublattice star blocks assembled from ring
    pieces and the lowerings, against the Kronecker reference at sizes the
    dense one cannot reach."""

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_anisotropic_ring(self, N, two_S, two_m):
        sec = enumerate_sector(N, two_S, two_m)
        ref = restrict(reference_hamiltonian(N, two_S, 0.7, 0.3, 0.0, 0.0), sec.keys)
        assert_matches(ops.build_bath_ring(sec, 0.7, 0.3).matrix, ref)

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_system_bath(self, N, two_S, two_m):
        _, Q, H, _ = sublattice_block(N, two_S, two_m, prefactor=1.3)
        keys = enumerate_sector(N, two_S, two_m).keys
        ref = restrict(reference_hamiltonian(N, two_S, 0.0, 0.0, 1.3, 0.0), keys)
        assert_matches(H, Q.T @ ref @ Q)

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_L_squared(self, N, two_S, two_m):
        # symmetric ladder route in the reference, L+ L- from the lowering in the pieces
        _, Q, _, (L2,) = sublattice_block(N, two_S, two_m, names=["L2"])
        keys = enumerate_sector(N, two_S, two_m).keys
        assert_matches(l_squared(L2), Q.T @ restrict(reference_operator(N, two_S, "L2"),
                                                     keys) @ Q)

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_staggered(self, N, two_S, two_m):
        # both commute with the sublattice group, so Q^T M Q is their
        # diagonal, whose entries are the reference's on the representatives
        block, Q, _, (ms, Sz) = sublattice_block(N, two_S, two_m, names=["ms", "Sz"])
        keys = enumerate_sector(N, two_S, two_m).keys
        for got, name in ((ms, "ms"), (Sz, "Sz")):
            full = reference_operator(N, two_S, name)
            np.testing.assert_array_equal(
                got, restrict(full, (block.central << N) | block.bits).diagonal())
            np.testing.assert_allclose(np.diag(got), reduced(restrict(full, keys), Q),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N,two_S,two_m", KRON_SECTORS)
    def test_bath_and_total_lowering(self, N, two_S, two_m):
        src = enumerate_sector(N, two_S, two_m)
        dst = enumerate_sector(N, two_S, two_m - 2)
        _, sm = central_matrices(two_S)[1:]
        # the ring lowering from the reference's one-site matrices
        Lm = sparse.kron(sparse.identity(two_S + 1), sum(verify._ring_sites(N)[2]), format="csr")
        a, b = orbit_block(src, sublattice=True), orbit_block(dst, sublattice=True)
        Qa, Qb = orbit_isometry(src, a), orbit_isometry(dst, b)
        bath = ops._lowering(a, b).toarray()
        np.testing.assert_allclose(bath, (Qb.T @ restrict(Lm, src.keys, dst.keys) @ Qa).toarray(),
                                   rtol=0, atol=1e-12)
        # the central S- of each orbit, by the ladder weight of the star blocks
        step = np.flatnonzero(a.central < two_S)
        central = np.zeros_like(bath)
        central[b.positions(a.keys[step] + (1 << N)), step] = ops._ladder_weight(
            two_S, a.central[step] + 1)
        total = sparse.kron(sm, sparse.identity(1 << N)) + Lm
        np.testing.assert_allclose(bath + central,
                                   (Qb.T @ restrict(total.tocsr(), src.keys, dst.keys) @ Qa)
                                   .toarray(), rtol=0, atol=1e-12)

    def test_kernel_raises_on_a_target_outside_the_sector(self):
        sec = enumerate_sector(10, 3, 1)
        with pytest.raises(KeyError):
            ops._hop(sec, sec, lower_bits=1)  # lowering leaves the sector
        with pytest.raises(KeyError):
            ops._hop(sec, sec, np.array([2, 0]), np.array([1, 1]))  # so does the second hop


SMALL = [(N, two_S) for N in range(2, 7) for two_S in (1, 2, 3)]


@pytest.mark.parametrize("N,two_S", SMALL)
class TestReference:
    """The sparse Kronecker reference, term by term, against the dense
    bit-loop route in the whole product space."""

    def test_hamiltonian_terms(self, N, two_S):
        for coefficients in ((0.7, 0.3, 0.0, 0.0), (0.0, 0.0, 1.3, 0.0),
                             (0.0, 0.0, 0.0, 0.9), (1.1, 0.88, 1.4, 1.05)):
            got = reference_hamiltonian(N, two_S, *coefficients).toarray()
            np.testing.assert_allclose(got, full_star_matrix(N, two_S, *coefficients),
                                       rtol=0, atol=1e-13)

    def test_operators(self, N, two_S):
        sz = central_matrices(two_S)[0]
        staggered = sum((-1) ** (a + 1) * site_matrix(N, a, "z") for a in range(N)) / N
        eye_c, eye_b = np.eye(two_S + 1), np.eye(1 << N)
        wants = {"Sz": np.kron(sz, eye_b), "L2": np.kron(eye_c, l_squared_matrix(N)),
                 "ms": np.kron(eye_c, staggered)}
        for name, want in wants.items():
            np.testing.assert_allclose(reference_operator(N, two_S, name).toarray(), want,
                                       rtol=0, atol=1e-13)

    def test_product_states(self, N, two_S):
        # the alternating ring at c = 1 only: site 1 down, every even site up
        central = np.eye(two_S + 1)[1]
        got = reference_state(central, verify.neel_sites(N))
        want = np.zeros((two_S + 1) << N)
        want[(1 << N) | sum(1 << a for a in range(1, N, 2))] = 1.0
        np.testing.assert_array_equal(got, want)
        # the coherent ring: the Dicke weight of each filling, spread evenly
        theta, phi = 1.2, 0.3
        got = reference_state(np.eye(two_S + 1)[0], verify.coherent_sites(N, theta, phi))
        n_up = np.bitwise_count(np.arange(1 << N))
        ring = coherent_coefficients(N, theta, phi)[n_up] / np.sqrt(
            [math.comb(N, n) for n in n_up])
        np.testing.assert_allclose(got[:1 << N], ring, rtol=0, atol=1e-15)
        assert not got[1 << N:].any()


def test_the_reference_refuses_a_space_above_its_cap(monkeypatch):
    # every refusal comes before a single site matrix is made
    monkeypatch.setattr(verify, "_ring_sites", lambda N: pytest.fail("allocated"))
    cap = verify.REFERENCE_CAPACITY
    assert verify._product_dim(14, 3) == cap  # the largest size the tests use
    for N, two_S in ((14, 4), (16, 1), (17, 0)):
        assert (two_S + 1) << N > cap
        with pytest.raises(ParameterError, match="Kronecker reference"):
            reference_hamiltonian(N, two_S, 1.0, 1.0, 1.0, 0.0)
        for name in ("Sz", "L2", "ms"):
            with pytest.raises(ParameterError, match="Kronecker reference"):
                reference_operator(N, two_S, name)
        with pytest.raises(ParameterError, match="Kronecker reference"):
            reference_state(np.eye(two_S + 1)[0], verify.neel_sites(N))


def kernel_hops(N):
    """(raise_bits, lower_bits) arrays: every exchange of two ring sites and
    the identity."""
    hops = [(1 << b, 1 << a) for a in range(N) for b in range(N) if a != b]
    hops += [(0, 0)]
    return np.array(hops).T


@pytest.mark.parametrize("N,two_S", [(N, s) for N in (4, 6, 8, 10) for s in (0, 1, 3)])
def test_batched_hops_concatenate_the_single_hops(N, two_S):
    raise_bits, lower_bits = kernel_hops(N)
    for two_m in range(-(two_S + N), two_S + N + 1, 2):
        sector = enumerate_sector(N, two_S, two_m)
        for src in (sector, orbit_block(sector)):
            single = [ops._hop(src, src, int(r), int(l)) for r, l in zip(raise_bits, lower_bits)]
            i, j = ops._hop(src, src, raise_bits, lower_bits)
            np.testing.assert_array_equal(i, np.concatenate([h[0] for h in single]))
            np.testing.assert_array_equal(j, np.concatenate([h[1] for h in single]))


def mirror_ranges(N):
    """Every filling, and a range whose top fillings have no mirror in it."""
    return [range(N + 1), range(3, 12) if N == 14 else range(max(0, N // 2 - 2), N)]


@pytest.mark.parametrize("N", range(2, 15, 2))
@pytest.mark.parametrize("against", ["orbits", "whole"])
@pytest.mark.parametrize("l_squared", [True, False], ids=["L2", "noL2"])
def test_mirrored_pieces_match_direct_builds(N, against, l_squared):
    # a filling above N/2 whose mirror the run builds is the mirror's piece
    # permuted by the spin flip, under both ring groups: each piece against
    # the filling built alone ("orbits"), or against Q^T M Q of the whole
    # ring sectors, with Q built here ("whole")
    J, Jp = 1.1, 0.83
    for sublattice, fillings in itertools.product((False, True), mirror_ranges(N)):
        pieces = ops.ring_pieces(N, J, Jp, fillings, l_squared=l_squared, sublattice=sublattice)
        assert sorted(pieces) == list(fillings)
        for n, got in pieces.items():
            if against == "whole":
                assert_reduces(N, got, J, Jp)
                continue
            alone = ops.ring_pieces(N, J, Jp, range(n, n + 1),
                                    l_squared=got.lowering is not None, sublattice=sublattice)
            want = alone[n]
            assert got.sublattice == want.sublattice == sublattice
            np.testing.assert_array_equal(got.bits, want.bits)
            np.testing.assert_array_equal(got.size, want.size)
            np.testing.assert_array_equal(got.diagonal, want.diagonal)
            for name in ("ring", "lowering", "raising"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (n, name)
                if a is None:
                    continue
                assert a.shape == b.shape and a.width == b.width
                for arr in ("indptr", "indices"):
                    assert getattr(a, arr).dtype == getattr(b, arr).dtype
                    np.testing.assert_array_equal(getattr(a, arr), getattr(b, arr))
                if name == "ring":
                    # the hops agree bit for bit; the diagonal sums the same
                    # N bonds in another order, since the mirror's
                    # representative is a rotation or reflection of the flip
                    off = a.indices != a.rows
                    np.testing.assert_array_equal(a.data[off], b.data[off])
                    tol = 2 * np.spacing(np.abs(b.data).max())
                    assert np.abs(a.data - b.data).max() <= tol, (n, fillings)
                else:
                    np.testing.assert_array_max_ulp(a.data, b.data, maxulp=1)


@functools.lru_cache(maxsize=None)
def ring_lowering(N):
    """The ring lowering L- on the 2^N ring states, from the reference's one-site matrices."""
    return sum(verify._ring_sites(N)[2]).tocsr()


def assert_reduces(N, piece, J, Jp):
    """A ring piece against Q^T M Q of its whole ring sector: the ring, and
    the lowering and raising between it and the filling below."""
    sector = enumerate_bath_sector(N, piece.n_up)
    Q = orbit_isometry(sector, star_block(N, 0, 2 * piece.n_up - N, {piece.n_up: piece}))
    want = reduced(ops.build_bath_ring(sector, J, Jp).matrix.tocsr(), Q)
    np.testing.assert_allclose(piece.ring.toarray(), want, rtol=0, atol=1e-13)
    if piece.lowering is None:
        return
    below = enumerate_bath_sector(N, piece.n_up - 1)
    P = orbit_isometry(below, orbit_block(below, piece.sublattice))
    want = (P.T @ restrict(ring_lowering(N), sector.bits, below.bits) @ Q).toarray()
    np.testing.assert_allclose(piece.lowering.toarray(), want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(piece.raising.toarray(), piece.lowering.toarray().T)


def test_mirrored_fillings_are_never_enumerated(monkeypatch):
    calls = []
    enumerate_ring = ops.enumerate_bath_sector
    monkeypatch.setattr(ops, "enumerate_bath_sector",
                        lambda N, n: calls.append(n) or enumerate_ring(N, n))
    assert sorted(ops.ring_pieces(14, 1.0, 0.8, range(15), l_squared=True)) == list(range(15))
    assert calls == list(range(8))
    calls.clear()
    # 12 and 13 have no mirror in 3..13: 11 is enumerated again as the block below 12
    ops.ring_pieces(14, 1.0, 0.8, range(3, 14), l_squared=True)
    assert calls == [2, 3, 4, 5, 6, 7, 11, 12, 13]
