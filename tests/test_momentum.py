"""The ring orbit blocks and the runs that use them.

Each orbit block is checked against an isometry Q built, state by
state, from rotations and reflections of the ring carried out site by
site (``test_operators.orbit_isometry``): the ring builder emitted on
the block equals Q^T M Q, is Hermitian, and has one state per bracelet
of each central level. So do the coherent run's star blocks, assembled
from ring pieces, dense and CSR: their Hamiltonian, Sz and L^2 equal
Q^T M Q of ``verify``'s Kronecker reference restricted to the full
sector. The alternating-state quench's star blocks, on the orbits of
the subgroup that keeps each sublattice, hold the orbits of the sector
under that group, counted here by brute force, and their Hamiltonian,
Sz, staggered magnetization and L^2 equal Q^T M Q of the reference. The
coherent state written on the blocks is Q^T v of the
reference's product state v, which Q Q^T leaves whole. The k = 0
isometry P of translations alone, also built here, is the oracle for
the translation part. The driven coherent run on orbit blocks, on
either propagation route, is compared with the reference's state
propagated on the full sectors by dense diagonalization, on the half of
each sector that a reflection built here from bit reversal leaves even;
that oracle shares no code with the propagator. At J == Jp the run is
also compared with the collective-spin oracle of ``verify``.
"""

import collections
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from heisenberg_star import dynamics
from heisenberg_star import operators as ops
from heisenberg_star.core import (
    BasisSector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
    orbit_block,
    star_block,
)
from heisenberg_star.dynamics import coherent_experiment
from heisenberg_star.states import coherent_block_state
from heisenberg_star.verify import (
    coherent_sites,
    collective_series,
    reference_hamiltonian,
    reference_operator,
    reference_state,
    restrict,
    restrict_state,
)
from test_operators import l_squared, orbit_isometry, ring_orbits


def zero_momentum_isometry(sector: BasisSector) -> sparse.csr_matrix:
    """Isometry P (dim x n_orbits) onto the k = 0 states of a sector.

    Cyclic translation of the ring rotates the N bits of a state and
    keeps its central index. Each column of P is the normalized sum of
    one orbit of that rotation, the R distinct states of an orbit of
    period R each with weight 1/sqrt(R). Columns are ordered by the
    packed key of the orbit representative, the smallest of the N bit
    rotations. Every operator that commutes with translation satisfies
    M P = P (P^T M P).
    """
    N = sector.N
    bits = sector.bits
    rep = bits
    for r in range(1, N):
        rep = np.minimum(rep, ((bits >> r) | (bits << (N - r))) & ((1 << N) - 1))
    _, col, size = np.unique((sector.central << N) | rep,
                             return_inverse=True, return_counts=True)
    return sparse.csr_matrix((1.0 / np.sqrt(size[col]), col, np.arange(sector.dim + 1)),
                             shape=(sector.dim, size.size))


def reference_coherent_star(N, two_S, theta, phi):
    """The driven run's initial state on the full sectors, from the reference."""
    full = reference_state(np.eye(two_S + 1)[0], coherent_sites(N, theta, phi))
    return restrict_state(full, N, two_S)


def reference_terms(N, two_S):
    """The ring at J != Jp, L^2, S.L and Sz on the whole product space."""
    return [reference_hamiltonian(N, two_S, 0.7, 0.3, 0.0, 0.0),
            reference_operator(N, two_S, "L2"),
            reference_hamiltonian(N, two_S, 0.0, 0.0, 1.3, 0.0),
            reference_operator(N, two_S, "Sz")]


def necklaces(N, n_up):
    """Binary necklaces of length N with n_up ones (Burnside's count)."""
    total = sum(_phi(d) * math.comb(N // d, n_up // d)
                for d in range(1, N + 1) if N % d == 0 and n_up % d == 0)
    assert total % N == 0
    return total // N


def _phi(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def bracelets(N, n_up):
    """Binary bracelets of even length N with n_up ones (Burnside over the
    dihedral group): N rotations, N/2 reflections through two sites and
    N/2 through two bonds."""
    rotations = N * necklaces(N, n_up)
    # an axis through two sites leaves them free and pairs the other N - 2
    through_sites = sum(math.comb(2, a) * math.comb((N - 2) // 2, (n_up - a) // 2)
                        for a in range(3) if a <= n_up and (n_up - a) % 2 == 0)
    through_bonds = math.comb(N // 2, n_up // 2) if n_up % 2 == 0 else 0
    total = rotations + N // 2 * (through_sites + through_bonds)
    assert total % (2 * N) == 0
    return total // (2 * N)


def translation(sector):
    """Permutation matrix of the ring shift site n -> site n + 1, state by state."""
    N = sector.N
    rows = []
    for c, bits in sector.states:
        shifted = sum(1 << ((a + 1) % N) for a in range(N) if bits >> a & 1)
        rows.append(sector.index_of(c, shifted))
    n = sector.dim
    return sparse.csr_matrix((np.ones(n), (rows, np.arange(n))), shape=(n, n))


def sectors(N, two_S):
    return [enumerate_sector(N, two_S, two_m)
            for two_m in range(-(two_S + N), two_S + N + 1, 2)]


CASES = [(N, two_S) for N in (2, 4, 6, 8, 10) for two_S in (0, 1, 3) if two_S <= N]


@pytest.mark.parametrize("N,two_S", CASES)
class TestIsometry:
    def test_orthonormal_columns_fixed_by_translation(self, N, two_S):
        for sector in sectors(N, two_S):
            P = zero_momentum_isometry(sector)
            gram = (P.T @ P).toarray()
            np.testing.assert_allclose(gram, np.eye(P.shape[1]), atol=1e-14)
            assert abs(translation(sector) @ P - P).max() <= 1e-14

    def test_dimension_is_the_necklace_count(self, N, two_S):
        for sector in sectors(N, two_S):
            # one necklace family per central level, each with its own n_up
            want = sum(necklaces(N, int(sector.n_up[sector.central == c][0]))
                       for c in np.unique(sector.central))
            assert zero_momentum_isometry(sector).shape == (sector.dim, want)

    def test_invariant_operators_reduce_exactly(self, N, two_S):
        terms = reference_terms(N, two_S)
        for sector in sectors(N, two_S):
            P = zero_momentum_isometry(sector)
            for k, full in enumerate(terms):
                MP = restrict(full, sector.keys) @ P
                assert abs(MP - P @ (P.T @ MP)).max() <= 1e-12, (sector, k)


def ring(sector):
    """The ring builder at J != Jp."""
    return ops.build_bath_ring(sector, 0.7, 0.3)


BLOCK_CASES = [(N, two_S) for N in (4, 6, 8, 10) for two_S in (0, 1, 3) if two_S <= N]


@pytest.mark.parametrize("N,two_S", BLOCK_CASES)
class TestOrbitBlock:
    def test_builders_emit_the_reduced_operator(self, N, two_S):
        for sector in sectors(N, two_S):
            block = orbit_block(sector)
            Q = orbit_isometry(sector, block)
            got = ring(block).matrix.tocsr()
            want = Q.T @ ring(sector).matrix.tocsr() @ Q
            assert got.shape == want.shape
            assert abs(got - want).max() <= 1e-13, sector

    def test_block_operators_are_hermitian(self, N, two_S):
        for sector in sectors(N, two_S):
            block = orbit_block(sector)
            mat = ring(block).matrix.tocsr()
            assert abs(mat - mat.conj().T).max() <= 1e-14, sector

    def test_dimension_is_the_bracelet_count(self, N, two_S):
        for sector in sectors(N, two_S):
            want = sum(bracelets(N, int(sector.n_up[sector.central == c][0]))
                       for c in np.unique(sector.central))
            assert orbit_block(sector).dim == want


@pytest.mark.parametrize("N,two_S", [(N, two_S) for N in (4, 6, 8, 10, 12) for two_S in (1, 2, 3)])
def test_hamiltonians_reduce_exactly(N, two_S):
    """The assembled Hamiltonians the runs propagate, not only their terms,
    against the Kronecker reference: the coherent run's dihedral star
    blocks made from ring pieces, with their Sz and L^2, and the quench's
    sublattice star blocks, with their Sz, ms and L^2, dense and CSR."""
    driven = make_params(N, two_S, J=1.1, Jp=0.88, g=0.7, omega=1.05)
    star = make_params(N, two_S, J=0.9, g=1.3)
    pieces = ops.ring_pieces(N, driven.J, driven.Jp, range(N + 1), l_squared=True)
    sublattice = ops.ring_pieces(N, star.J, star.Jp, range(N + 1), l_squared=True, sublattice=True)
    driven_H = reference_hamiltonian(N, two_S, driven.J, driven.Jp, 2.0 * driven.g,
                                     driven.omega)
    star_H = reference_hamiltonian(N, two_S, star.J, star.Jp, star.g, 0.0)
    observables = {name: reference_operator(N, two_S, name) for name in ("Sz", "ms", "L2")}
    for sector in sectors(N, two_S):
        block = orbit_block(sector)
        Q = orbit_isometry(sector, block)
        wants = [(Q.T @ restrict(full, sector.keys) @ Q).toarray()
                 for full in (driven_H, observables["Sz"], observables["L2"])]
        assembled = star_block(N, two_S, sector.two_m, pieces)
        dense_H, (dense_Sz, dense_L2) = ops.star_block_operators(
            assembled, pieces, 2.0 * driven.g, driven.omega, ["Sz", "L2"], dense=True)
        csr_H, (csr_Sz, csr_L2) = ops.star_block_operators(
            assembled, pieces, 2.0 * driven.g, driven.omega, ["Sz", "L2"], dense=False)
        for mat in (csr_H, csr_L2[0]):
            assert mat.tocsr().has_canonical_format
        np.testing.assert_array_equal(csr_H.toarray(), dense_H)
        np.testing.assert_array_equal(csr_L2[0].toarray(), dense_L2[0])
        np.testing.assert_array_equal(csr_L2[1], dense_L2[1])
        np.testing.assert_array_equal(csr_Sz, dense_Sz)
        for got, want in zip((dense_H, np.diag(dense_Sz), l_squared(dense_L2)), wants):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13, sector
        # the sublattice block: the orbits of orbit_block on the sector, in order
        assembled = star_block(N, two_S, sector.two_m, sublattice)
        assert assembled.tag == f"{sector.tag}:sublattice"
        block = orbit_block(sector, sublattice=True)
        for name in ("central", "bits", "size"):
            np.testing.assert_array_equal(getattr(assembled, name), getattr(block, name))
        Q = orbit_isometry(sector, assembled)
        names = ["Sz", "ms", "L2"]
        dense_H, dense_obs = ops.star_block_operators(assembled, sublattice, star.g, 0.0, names,
                                                      dense=True)
        csr_H, csr_obs = ops.star_block_operators(assembled, sublattice, star.g, 0.0, names,
                                                  dense=False)
        for mat in (csr_H, csr_obs[2][0]):
            assert mat.tocsr().has_canonical_format
        np.testing.assert_array_equal(csr_H.toarray(), dense_H)
        np.testing.assert_array_equal(csr_obs[2][0].toarray(), dense_obs[2][0])
        np.testing.assert_array_equal(csr_obs[2][1], dense_obs[2][1])
        np.testing.assert_array_equal(csr_obs[:2], dense_obs[:2])
        wants = [(Q.T @ restrict(full, sector.keys) @ Q).toarray()
                 for full in (star_H, *(observables[name] for name in names))]
        gots = (dense_H, np.diag(dense_obs[0]), np.diag(dense_obs[1]), l_squared(dense_obs[2]))
        for got, want in zip(gots, wants):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13, sector


@pytest.mark.parametrize("N", range(2, 15, 2))
def test_sublattice_orbits_are_the_brute_force_orbits(N):
    # every filling's sublattice block against the image sets of the
    # rotations by two sites and the reflections a -> r - a, r even, moved
    # site by site: the same representatives, ascending, and orbit sizes
    orbits = ring_orbits(N, sublattice=True)
    size = collections.Counter(orbits.values())
    for n_up in range(N + 1):
        block = orbit_block(enumerate_bath_sector(N, n_up), sublattice=True)
        assert block.tag == f"N={N}:2S=0:2m={2 * n_up - N}:sublattice"
        reps = sorted(rep for rep in size if rep.bit_count() == n_up)
        np.testing.assert_array_equal(block.bits, reps)
        np.testing.assert_array_equal(block.size, [size[rep] for rep in reps])
    # the group keeps each sublattice, so the alternating state is an orbit of its own
    neel = sum(1 << a for a in range(1, N, 2))
    assert orbits[neel] == neel and size[neel] == 1
    # while the rotation by one site maps it onto the other alternating state
    assert ring_orbits(N)[neel] == neel >> 1


@pytest.mark.parametrize("N", range(2, 17, 2))
def test_orbit_count_is_the_ring_block_dimension(N):
    for n_up in range(N + 1):
        assert orbit_block(enumerate_sector(N, 0, 2 * n_up - N)).dim == bracelets(N, n_up)


@pytest.mark.parametrize("N,two_S", [(N, two_S) for N in (4, 6, 8, 10) for two_S in (1, 2, 3)])
def test_block_state_is_the_projected_full_state(N, two_S):
    # v is the reference's coherent star on the full sectors: its blocks must
    # be Q^T v, and Q Q^T v = v says nothing of v is lost on the way. At the
    # poles the package writes only the one occupied filling, so the
    # reference's other sectors must hold no weight there.
    rings = {n: orbit_block(enumerate_bath_sector(N, n)) for n in range(N + 1)}
    for theta, phi in itertools.product((0.0, 1.2, math.pi / 2, math.pi), (0.0, 0.3)):
        full = reference_state(np.eye(two_S + 1)[0], coherent_sites(N, theta, phi))
        got = coherent_block_state(N, two_S, theta, phi, rings)
        held = np.zeros(full.size, dtype=bool)
        for i, block in enumerate(got.sectors):
            sector = enumerate_sector(N, two_S, block.two_m)
            assert block.tag == f"{sector.tag}:dihedral"
            # the block is made from ring blocks, without the sector: it
            # must hold the orbits of orbit_block on the sector, in order
            want = orbit_block(sector)
            for name in ("central", "bits", "size"):
                np.testing.assert_array_equal(getattr(block, name), getattr(want, name))
            Q = orbit_isometry(sector, block)
            v = full[sector.keys]
            held[sector.keys] = True
            np.testing.assert_allclose(got.block(i), Q.T @ v, rtol=0, atol=1e-14)
            np.testing.assert_allclose(Q @ (Q.T @ v), v, rtol=0, atol=1e-14)
        assert [b.two_m for b in got.sectors] == sorted(b.two_m for b in got.sectors)
        assert np.linalg.norm(full[~held]) <= 1e-14


def reflection(sector):
    """The ring reflection R of a sector, and the isometry W (dim x n_even)
    onto its reflection-even states.

    R maps site a + 1 to site N - a, so it reverses the N bits of a state
    and keeps its central index. Column p of W is (|s> + |R s>) / sqrt(2)
    for a pair s < R s, or |s> when R s = s, in the order of the pair's
    first state.
    """
    N = sector.N
    mirror = np.zeros_like(sector.bits)
    for a in range(N):
        mirror |= ((sector.bits >> a) & 1) << (N - 1 - a)
    partner = sector.positions((sector.central << N) | mirror)
    state = np.arange(sector.dim)
    R = sparse.csr_matrix((np.ones(sector.dim), (partner, state)),
                          shape=(sector.dim, sector.dim))
    _, col = np.unique(np.minimum(state, partner), return_inverse=True)
    weight = np.where(partner == state, 1.0, math.sqrt(0.5))
    W = sparse.csr_matrix((weight, (state, col)), shape=(sector.dim, col.max() + 1))
    return R, W


def full_sector_series(params, states, t_abs):
    """The oracle: each state's run on the whole sectors, <Sz> and <L^2>.

    The reflection R commutes with the Hamiltonian and both observables,
    and every state here is reflection even; both are checked. So each
    sector is propagated on its even half W^T H W, exactly through one
    dense eigendecomposition, v(t) = W U e^{-i w t} U^T W^T v0 for the
    eigenvalues w, shared by the states.
    """
    values = [{"Sz": np.zeros(len(t_abs)), "L2": np.zeros(len(t_abs))} for _ in states]
    sectors = {s.tag: s for state in states for s in state.sectors}
    N, two_S = params.N, params.two_S
    full_H = reference_hamiltonian(N, two_S, params.J, params.Jp, 2.0 * params.g, params.omega)
    full_obs = {name: reference_operator(N, two_S, name) for name in ("Sz", "L2")}
    for tag, sector in sectors.items():
        R, W = reflection(sector)

        def even_half(full):
            M = restrict(full, sector.keys)
            assert abs(M @ R - R @ M).max() <= 1e-13, sector
            return W.T @ M @ W

        energies, U = np.linalg.eigh(even_half(full_H).toarray())
        obs = {name: even_half(full) for name, full in full_obs.items()}
        for state, vals in zip(states, values):
            index = {s.tag: i for i, s in enumerate(state.sectors)}
            if tag not in index:
                continue
            v = state.block(index[tag])
            even = W.T @ v
            np.testing.assert_allclose(W @ even, v, rtol=0, atol=1e-14)
            c = U.T @ even
            V = U @ (np.exp(-1j * np.outer(energies, t_abs)) * c[:, None])
            for name, M in obs.items():
                vals[name] += np.einsum("ij,ij->j", V.conj(), M @ V).real
    return values


K0_CASES = [pytest.param(two_S, N, None, id=f"{two_S}-{N}")
            for N in (8, 10, 12) for two_S in (1, 2, 3)]
# every block on the Krylov route, with CSR star blocks
K0_CASES += [pytest.param(two_S, N, 0, id=f"krylov-{two_S}-{N}")
             for N in (8, 10) for two_S in (1, 2, 3)]


@pytest.mark.parametrize("two_S,N,cutoff", K0_CASES)
def test_k0_run_matches_full_sectors(two_S, N, cutoff, monkeypatch):
    if cutoff is not None:
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
    t_abs = np.linspace(0.0, 3.0, 7)
    thetas = (0.0, math.pi / 2, 1.9)
    for J, Jp in ((1.0, 1.0), (1.1, 0.7), (0.0, 0.0)):
        params = make_params(N, two_S, J=J, Jp=Jp, g=0.9, omega=0.8)
        wants = full_sector_series(
            params, [reference_coherent_star(N, two_S, theta, 0.4) for theta in thetas], t_abs)
        for theta, want in zip(thetas, wants):
            # the experiment takes g t and reports <Sz>/S
            got, diag = coherent_experiment(params, theta, 0.4, t_abs * params.g,
                                            observables=("Sz", "L2"))
            assert set(diag["routes"]) == {"krylov" if cutoff == 0 else "spectral"}
            got["Sz"] *= params.S
            for name in ("Sz", "L2"):
                np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10)
            assert diag["norm_drift"] <= 1e-10 and diag["energy_drift"] <= 1e-9


def test_block_dims_are_recorded():
    params = make_params(8, 1, J=1.0, Jp=0.6, omega=1.0)
    _, meta = coherent_experiment(params, math.pi / 2, 0.0, np.linspace(0.0, 1.0, 3),
                                  observables=("Sz", "L2"))
    # bracelets(8, n) + bracelets(8, n + 1) for the two central levels
    want = [bracelets(8, n) + (bracelets(8, n + 1) if n < 8 else 0) for n in range(9)]
    assert want == [2, 5, 9, 13, 13, 9, 5, 2, 1]
    assert meta["block_dims"] == want


@pytest.mark.parametrize("N,two_S", [(14, 1), (14, 3), (12, 4)])
def test_isotropic_run_matches_the_collective_spin(N, two_S):
    # the experiment takes g t and reports <Sz>/S; the oracle takes t and <Sz>
    params = make_params(N, two_S, J=1.0, g=1.0, omega=1.0)
    t_gt = np.linspace(0.0, 55.0, 1101)
    got, _ = coherent_experiment(params, math.pi / 2, 0.3, t_gt, observables=("Sz", "L2"))
    want = collective_series(params, math.pi / 2, 0.3, t_gt / params.g)
    np.testing.assert_allclose(got["Sz"] * params.S, want["Sz"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got["L2"], want["L2"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(want["L2"], N / 2 * (N / 2 + 1), rtol=0, atol=1e-10)
