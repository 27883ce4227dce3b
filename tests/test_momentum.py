"""The dihedral orbit blocks and the coherent run that uses them.

Each orbit block is checked against an isometry Q built here, state by
state, from rotations and reflections of the ring carried out site by
site: every ring-symmetric builder emitted on the block equals Q^T M Q,
is Hermitian, and has one state per bracelet of each central level. The
coherent state written on the blocks is Q^T v of the full-sector state
v, which Q Q^T leaves whole. The k = 0 isometry P of translations
alone, also built here, is the oracle for the translation part. The
driven coherent run on orbit blocks is compared with the same state
propagated on the full sectors by dense diagonalization, which shares
no code with the propagator, and at J == Jp with the collective-spin
oracle of ``verify``.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from heisenberg_star import operators as ops
from heisenberg_star.core import (
    BasisSector,
    enumerate_sector,
    make_params,
    orbit_block,
    orbit_count,
)
from heisenberg_star.dynamics import coherent_experiment
from heisenberg_star.states import coherent_block_state, spin_coherent, star_state
from heisenberg_star.verify import collective_series


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


def coherent_star(params, theta, phi):
    return star_state(params.two_S, [(0, 1.0, spin_coherent(params.N, theta, phi))])


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


@functools.lru_cache(maxsize=None)
def ring_orbits(N):
    """The smallest image of every N-bit ring configuration under the
    dihedral group, each image moved site by site: site a goes to
    (a + r) mod N, or to (r - a) mod N when reflected."""
    def image(bits, r, reflect):
        return sum(1 << (((r - a) if reflect else (a + r)) % N)
                   for a in range(N) if bits >> a & 1)
    return {bits: min(image(bits, r, reflect) for r in range(N) for reflect in (False, True))
            for bits in range(1 << N)}


def dihedral_isometry(sector, block):
    """Q (dim x block.dim): column o is the normalized sum of the states
    in the orbit of the block's representative o."""
    orbits = ring_orbits(sector.N)
    orbit = [(c, orbits[bits]) for c, bits in sector.states]
    column = {(int(c), orbits[int(b)]): o
              for o, (c, b) in enumerate(zip(block.central, block.bits))}
    assert len(column) == block.dim == len(set(orbit))
    cols = np.array([column[key] for key in orbit])
    size = np.bincount(cols, minlength=block.dim)
    return sparse.csr_matrix((1.0 / np.sqrt(size[cols]), (np.arange(sector.dim), cols)),
                             shape=(sector.dim, block.dim))


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
        for sector in sectors(N, two_S):
            P = zero_momentum_isometry(sector)
            mats = [ops.build_bath_ring(sector, 0.7, 0.3), ops.build_L_squared(sector)]
            if two_S:
                mats += [ops.build_system_bath(sector, 1.3), ops.build_zeeman(sector, 0.9)]
            for op in mats:
                MP = op.matrix.tocsr() @ P
                assert abs(MP - P @ (P.T @ MP)).max() <= 1e-12, op


def symmetric_builders(sector):
    """Every builder of a ring-symmetric operator that applies to the sector,
    the ring at J != Jp."""
    builders = [lambda s: ops.build_bath_ring(s, 0.7, 0.3), ops.build_L_squared]
    if not sector.is_bath:
        builders += [lambda s: ops.build_system_bath(s, 1.3),
                     lambda s: ops.build_zeeman(s, 0.9)]
    return builders


BLOCK_CASES = [(N, two_S) for N in (4, 6, 8, 10) for two_S in (0, 1, 3) if two_S <= N]


@pytest.mark.parametrize("N,two_S", BLOCK_CASES)
class TestOrbitBlock:
    def test_builders_emit_the_reduced_operator(self, N, two_S):
        for sector in sectors(N, two_S):
            block = orbit_block(sector)
            Q = dihedral_isometry(sector, block)
            for build in symmetric_builders(sector):
                got = build(block).matrix.tocsr()
                want = Q.T @ build(sector).matrix.tocsr() @ Q
                assert got.shape == want.shape
                assert abs(got - want).max() <= 1e-13, (sector, build)

    def test_block_operators_are_hermitian(self, N, two_S):
        for sector in sectors(N, two_S):
            block = orbit_block(sector)
            for build in symmetric_builders(sector):
                mat = build(block).matrix.tocsr()
                assert abs(mat - mat.conj().T).max() <= 1e-14, (sector, build)

    def test_dimension_is_the_bracelet_count(self, N, two_S):
        for sector in sectors(N, two_S):
            want = sum(bracelets(N, int(sector.n_up[sector.central == c][0]))
                       for c in np.unique(sector.central))
            assert orbit_block(sector).dim == want


@pytest.mark.parametrize("N,two_S", [(N, two_S) for N, two_S in BLOCK_CASES if two_S])
def test_hamiltonians_reduce_exactly(N, two_S):
    """The assembled Hamiltonians the runs propagate, not only their terms."""
    driven = make_params(N, two_S, J=1.1, Jp=0.88, g=0.7, omega=1.05)
    star = make_params(N, two_S, J=0.9, g=1.3)
    for sector in sectors(N, two_S):
        block = orbit_block(sector)
        Q = dihedral_isometry(sector, block)
        for build, params in ((ops.build_modified_star, driven),
                              (ops.build_star_hamiltonian, star)):
            got = build(block, params).matrix.tocsr()
            want = Q.T @ build(sector, params).matrix.tocsr() @ Q
            assert got.shape == want.shape
            assert abs(got - want).max() <= 1e-13, (sector, build)


@pytest.mark.parametrize("N", range(2, 17, 2))
def test_orbit_count_is_the_ring_block_dimension(N):
    for n_up in range(N + 1):
        want = orbit_block(enumerate_sector(N, 0, 2 * n_up - N)).dim
        assert orbit_count(N, n_up) == want == bracelets(N, n_up)


@pytest.mark.parametrize("N,two_S", [(N, two_S) for N in (4, 6, 8, 10) for two_S in (1, 2, 3)])
def test_block_state_is_the_projected_full_state(N, two_S):
    # v is the coherent star on the full sectors: its blocks must be Q^T v,
    # and Q Q^T v = v says nothing of v is lost on the way
    for theta in (0.0, 1.2, math.pi / 2, math.pi):
        for phi in (0.0, 0.3):
            full = star_state(two_S, [(0, 1.0, spin_coherent(N, theta, phi))])
            got = coherent_block_state(N, two_S, theta, phi)
            assert ([(b.sector.tag, b.sector.keys.tolist()) for b in got.sectors]
                    == [(s.tag, s.keys.tolist()) for s in full.sectors])
            for i, block in enumerate(got.sectors):
                Q = dihedral_isometry(block.sector, block)
                v = full.block(i)
                np.testing.assert_allclose(got.block(i), Q.T @ v, rtol=0, atol=1e-14)
                np.testing.assert_allclose(Q @ (Q.T @ v), v, rtol=0, atol=1e-14)


def full_sector_series(params, states, t_abs):
    """The oracle: each state's run on the whole sectors, <Sz> and <L^2>.

    Every sector is propagated exactly through one dense eigendecomposition
    of its Hamiltonian, v(t) = U e^{-iEt} U^T v0, shared by the states.
    """
    values = [{"Sz": np.zeros(len(t_abs)), "L2": np.zeros(len(t_abs))} for _ in states]
    sectors = {s.tag: s for state in states for s in state.sectors}
    for tag, sector in sectors.items():
        H = ops.build_modified_star(sector, params).matrix.toarray()
        assert not H.imag.any()
        energies, U = np.linalg.eigh(H.real)
        obs = {"Sz": ops.build_zeeman(sector, 1.0).matrix,
               "L2": ops.build_L_squared(sector).matrix}
        for state, vals in zip(states, values):
            index = {s.tag: i for i, s in enumerate(state.sectors)}
            if tag not in index:
                continue
            c = U.T @ state.block(index[tag])
            V = U @ (np.exp(-1j * np.outer(energies, t_abs)) * c[:, None])
            for name, M in obs.items():
                vals[name] += np.einsum("ij,ij->j", V.conj(), M @ V).real
    return values


@pytest.mark.parametrize("N", [8, 10, 12])
@pytest.mark.parametrize("two_S", [1, 2, 3])
def test_k0_run_matches_full_sectors(N, two_S):
    t_abs = np.linspace(0.0, 3.0, 7)
    thetas = (0.0, math.pi / 2, 1.9)
    for J, Jp in ((1.0, 1.0), (1.1, 0.7), (0.0, 0.0)):
        params = make_params(N, two_S, J=J, Jp=Jp, g=0.9, omega=0.8)
        wants = full_sector_series(
            params, [coherent_star(params, theta, 0.4) for theta in thetas], t_abs)
        for theta, want in zip(thetas, wants):
            # the experiment takes g t and reports <Sz>/S
            got, diag = coherent_experiment(params, theta, 0.4, t_abs * params.g,
                                            observables=("Sz", "L2"))
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
