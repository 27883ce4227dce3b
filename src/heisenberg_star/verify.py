"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns a list of named checks with a pass flag and a short
detail string; the CLI prints one line per check and exits nonzero if
any failed. The checks are quick versions of the package's invariants,
meant as a smoke test on a fresh install rather than a substitute for
the test suite. Their oracles, which the tests use too, share nothing
with the package but numpy and scipy: the collective-spin form of the
isotropic driven run, and a Kronecker reference of the star on the whole
(2S + 1) 2^N product space, cut down to a sector's keys c 2^N + bits,
which refuses a space above REFERENCE_CAPACITY states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, enumerate_sector, make_params
from .errors import ParameterError
from .dynamics import (
    _route,
    _trajectory,
    coherent_experiment,
    evolve,
    run_observables,
)
from .spectrum import (
    bath_subground_state,
    degeneracy,
    level_table,
    single_magnon_energy,
    state_count,
    sub_ground_energy,
    transition_point,
)
from .states import (
    bath_multiplet,
    central_initial,
    coherent_coefficients,
    subground_squared_norm,
    subground_state,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def suite_identities() -> list[CheckResult]:
    """Counting identities and closed forms that need no diagonalization."""
    out = []
    for N in (4, 8, 12, 16):
        total = sum((2 * l + 1) * degeneracy(N, l) for l in range(N // 2 + 1))
        out.append(_check(f"multiplet-count N={N}", total == 2 ** N,
                          f"{total} vs {2 ** N}"))
    for N, two_S in ((8, 1), (8, 4), (16, 4), (16, 14)):
        got = state_count(N, two_S)
        want = (two_S + 1) * 2 ** N
        out.append(_check(f"state-count N={N} two_S={two_S}", got == want,
                          f"{got} vs {want}"))
    for two_S, two_l in ((1, 2), (2, 4), (3, 6), (4, 10), (6, 12)):
        got = subground_squared_norm(two_S, two_l)
        want = math.comb(two_l + 1, two_S)
        out.append(_check(f"norm-identity two_S={two_S} two_l={two_l}",
                          got == want, f"{got} vs {want}"))
    tp = transition_point(16, 2)
    out.append(_check("transition-point N=16 S=1", abs(tp - 0.125) < 1e-15,
                      f"{tp}"))
    return out


def suite_spectrum(N: int = 12, threads: int = 1) -> list[CheckResult]:
    """Ring block anchors and ordering at the requested size."""
    out = []
    table = level_table(N, threads=threads)
    top = table.energy(N)
    out.append(_check(f"polarized-block N={N}", abs(top - N / 4.0) <= 1e-9,
                      f"E1b(N/2)={top!r}"))
    one = table.energy(N - 2)
    want = N / 4.0 - 2.0
    out.append(_check(f"one-magnon-block N={N}", abs(one - want) <= 1e-9,
                      f"E1b(N/2-1)={one!r} vs {want}"))
    band = min(single_magnon_energy(N, k) for k in range(N))
    out.append(_check(f"magnon-band-minimum N={N}", abs(band - want) <= 1e-12,
                      f"{band!r}"))
    ordered = all(a.energy < b.energy
                  for a, b in zip(table.rows, table.rows[1:]))
    out.append(_check(f"level-ordering N={N}", ordered, "strictly increasing"))
    return out


def suite_subground(N: int = 8) -> list[CheckResult]:
    """Residuals of the closed-form eigenstates for every valid (l, m) on the reference."""
    out = []
    J, g = 0.85, 1.1
    two_Ss = (2, 3, 4)
    _product_dim(N, max(two_Ss))  # refuse an N beyond the reference before any solve
    # one ring solve per block, shared by every central spin
    blocks = {}
    for two_l in range(0, N + 1, 2):
        row, seed = bath_subground_state(N, two_l)
        blocks[two_l] = (row.energy, bath_multiplet(N, two_l, seed=seed))
    for two_S in two_Ss:
        H = reference_hamiltonian(N, two_S, J, J, g, 0.0)
        worst = 0.0
        count = 0
        for two_l, (e1b, multiplet) in blocks.items():
            two_j = abs(two_l - two_S)
            energy = sub_ground_energy(two_l, two_S, J, g, e1b)
            for two_m in range(-two_j, two_j + 1, 2):
                psi = subground_state(N, two_S, two_l, two_m, multiplet=multiplet)
                sector, x = psi.require_single()
                worst = max(worst, float(np.linalg.norm(
                    restrict(H, sector.keys) @ x - energy * x)))
                count += 1
        out.append(_check(f"subground-residuals two_S={two_S}", worst <= 1e-8,
                          f"{count} states, worst residual {worst:.2e}"))
    return out


def suite_dynamics_oracle(N: int = 6) -> list[CheckResult]:
    """Both propagation routes against dense exponentials on a small star."""
    import scipy.linalg  # the expm oracle; the package itself needs no scipy here

    out = []
    params = make_params(N, 2, J=0.8, g=1.0)
    central = central_initial(params.two_S, "uniform")
    state = restrict_state(reference_state(central, neel_sites(N)), N, params.two_S)
    H = reference_hamiltonian(N, params.two_S, params.J, params.Jp, params.g, 0.0)
    mats = [restrict(H, s.keys) for s in state.sectors]
    t_grid = np.linspace(0.0, 20.0, 21)[1:] / params.gt
    # evolve takes each block's own route; _trajectory the Krylov route's complex CSR
    krylov = [np.hstack(list(_trajectory(m.astype(np.complex128), state.block(i),
                                         t_grid, "krylov"))) for i, m in enumerate(mats)]
    states = evolve(lambda block, dense: restrict(H, block.keys), state, t_grid)
    worst_evolve = worst_krylov = 0.0
    for k, (t, st) in enumerate(zip(t_grid, states)):
        for i, m in enumerate(mats):
            dense = scipy.linalg.expm(-1j * t * m.toarray()) @ state.block(i)
            worst_evolve = max(worst_evolve, float(np.max(np.abs(dense - st.block(i)))))
            worst_krylov = max(worst_krylov, float(np.max(np.abs(dense - krylov[i][:, k]))))
    routes = "/".join(sorted({_route(s.dim) for s in state.sectors}))
    out.append(_check(f"krylov-vs-dense N={N}", max(worst_evolve, worst_krylov) <= 1e-9,
                      f"max amplitude deviation: evolve ({routes}) {worst_evolve:.2e},"
                      f" _trajectory (krylov) {worst_krylov:.2e}"))
    # the Dicke weights of the coherent ring on every configuration, against the ring alone
    n_up = np.bitwise_count(np.arange(1 << 14))
    x = coherent_coefficients(14, 2.0, 0.3)[n_up] / np.sqrt([math.comb(14, n) for n in n_up])
    r = reference_hamiltonian(14, 0, 1.0, 1.0, 0.0, 0.0) @ x - (14 / 4.0) * x
    res = float(np.linalg.norm(r))
    out.append(_check("coherent-ring-eigenstate N=14", res <= 1e-10,
                      f"residual {res:.2e}"))
    out.append(_coherent_k0_check())
    out.append(_coherent_collective_check())
    return out


def _coherent_k0_check() -> CheckResult:
    """The k = 0 coherent run against the Kronecker reference on whole
    sectors, anisotropic ring.

    The experiment takes g t and reports <Sz>/S; the oracle takes t and <Sz>.
    """
    params = make_params(8, 1, J=1.1, Jp=0.7, g=1.0, omega=0.9)
    N, two_S = params.N, params.two_S
    theta, phi = 1.9, 0.4
    t_abs = np.linspace(0.0, 5.0, 11)
    got, _ = coherent_experiment(params, theta, phi, t_abs * params.g, ("Sz", "L2"))
    got["Sz"] *= params.S
    state = restrict_state(reference_state(np.eye(two_S + 1)[0],
                                           coherent_sites(N, theta, phi)), N, two_S)
    H = reference_hamiltonian(N, two_S, params.J, params.Jp, 2.0 * params.g, params.omega)
    obs = [reference_operator(N, two_S, name) for name in ("Sz", "L2")]
    want, _ = run_observables(lambda block, dense: (
        restrict(H, block.keys), [restrict(M, block.keys) for M in obs]),
        state, t_abs, ["Sz", "L2"])
    worst = max(float(np.max(np.abs(got[k] - want[k]))) for k in want)
    return _check("coherent-k0-vs-full N=8", worst <= 1e-10,
                  f"max Sz/L2 deviation {worst:.2e}")


def _spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense Sz and S+ of spin j = two_j / 2, basis ordered m = j, j - 1, ..., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    return np.diag(m), np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1.0)), 1)


def collective_series(params, theta: float, phi: float, t_abs) -> dict[str, np.ndarray]:
    """<Sz> and <L^2> of the driven coherent run at J == Jp, in spin S x spin N/2.

    The coherent ring state lies in the maximal ring multiplet l = N/2,
    where the isotropic ring is the constant J N/4, so the run never
    leaves the (2S+1)(N+1) states |S_m> x |l = N/2, m_l> and
    H = omega Sz + 2g S.L + J N/4. The central spin starts at S_m = S
    and the ring in the Dicke weights of ``coherent_coefficients``; the
    state at each time comes from one dense diagonalization of H. Shares
    no enumeration, builder or propagator with the package.
    """
    if not params.isotropic:
        raise ParameterError("the collective-spin form needs J == Jp")
    sz, splus = _spin_matrices(params.two_S)
    lz, lplus = _spin_matrices(params.N)
    one_s, one_l = np.eye(params.two_S + 1), np.eye(params.N + 1)
    s_dot_l = np.kron(sz, lz) + 0.5 * (np.kron(splus, lplus.T) + np.kron(splus.T, lplus))
    H = params.omega * np.kron(sz, one_l) + 2.0 * params.g * s_dot_l
    H += params.J * params.N / 4.0 * np.eye(H.shape[0])
    ring = coherent_coefficients(params.N, theta, phi)[::-1]  # n up spins: m_l = n - N/2
    psi0 = np.kron(one_s[0], ring)
    energies, U = np.linalg.eigh(H)
    V = U @ (np.exp(-1j * np.outer(energies, np.asarray(t_abs, float))) * (U.T @ psi0)[:, None])
    l_squared = np.kron(one_s, lz @ lz + 0.5 * (lplus @ lplus.T + lplus.T @ lplus))
    return {name: np.einsum("ij,ij->j", V.conj(), M @ V).real
            for name, M in (("Sz", np.kron(sz, one_l)), ("L2", l_squared))}


# Largest product space (2S + 1) 2^N the Kronecker reference builds:
# N = 14 at 2S = 3, N = 12 at 2S = 15
REFERENCE_CAPACITY = 1 << 16


def _product_dim(N: int, two_S: int) -> int:
    """(2S + 1) 2^N, or ParameterError above REFERENCE_CAPACITY."""
    dim = (two_S + 1) << N
    if dim > REFERENCE_CAPACITY:
        raise ParameterError(f"the Kronecker reference holds at most {REFERENCE_CAPACITY}"
                             f" product states; N={N}, 2S={two_S} has {dim}")
    return dim


def _ring_sites(N: int):
    """One-site Sz, S+ and S- of every ring site on the 2^N ring states:
    site a + 1 is bit a, the Kronecker factor N - a, with basis (down, up)."""
    import scipy.sparse as sparse

    sz, splus = np.diag([-0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 0.0]])
    return [[sparse.kron(sparse.kron(sparse.identity(1 << (N - 1 - a)), m),
                         sparse.identity(1 << a), format="csr") for a in range(N)]
            for m in (sz, splus, splus.T)]


def reference_hamiltonian(N: int, two_S: int, J: float, Jp: float, prefactor: float,
                          omega: float):
    """omega Sz + sum_n [J/2 (S+_n S-_{n+1} + h.c.) + Jp Sz_n Sz_{n+1}] + prefactor S.L
    as a scipy CSR on the whole product space, row c 2^N + bits for the
    central level S_m = S - c and the ring configuration ``bits``: the
    plain star is (J, J, g, 0), the driven one (J, Jp, 2 g, omega).

    Kronecker products of one-site matrices, sharing nothing with the
    package's enumeration, hop kernel or ring pieces; ParameterError above
    REFERENCE_CAPACITY states, before anything is allocated.
    """
    import scipy.sparse as sparse

    _product_dim(N, two_S)
    sz, splus = _spin_matrices(two_S)
    z, p, m = _ring_sites(N)
    # bond by bond, so N = 2 counts its one bond twice
    ring = sum(0.5 * J * (p[a] @ m[b] + m[a] @ p[b]) + Jp * (z[a] @ z[b])
               for a, b in ((a, (a + 1) % N) for a in range(N)))
    # the diagonal of the central terms first, then the ring's: ring + (S.L + Sz)
    central = sparse.kron(prefactor * sz, sum(z))
    if omega != 0.0:
        central = central + sparse.kron(omega * sz, sparse.identity(1 << N))
    H = sparse.kron(np.eye(two_S + 1), ring) + central \
        + sparse.kron(0.5 * prefactor * splus, sum(m)) \
        + sparse.kron(0.5 * prefactor * splus.T, sum(p))
    return H.tocsr()


def reference_operator(N: int, two_S: int, name: str):
    """'Sz' (the central S_m), 'L2' (the ring's L^2, by the symmetric
    ladder route) or 'ms' (the staggered magnetization (1/N) sum_j (-1)^j Sz_j)
    on the whole product space of :func:`reference_hamiltonian`, a scipy CSR."""
    import scipy.sparse as sparse

    _product_dim(N, two_S)
    if name == "Sz":
        return sparse.kron(_spin_matrices(two_S)[0], sparse.identity(1 << N), format="csr")
    z, p, m = _ring_sites(N)
    if name == "L2":
        Lz, Lp, Lm = sum(z), sum(p), sum(m)
        ring = 0.5 * (Lp @ Lm + Lm @ Lp) + Lz @ Lz
    elif name == "ms":
        ring = sum((-1) ** (a + 1) * z[a] for a in range(N))
        ring.data /= N
    else:
        raise ParameterError(f"the reference has no operator {name!r}")
    return sparse.kron(sparse.identity(two_S + 1), ring, format="csr")


def reference_state(central, sites) -> np.ndarray:
    """The product state central x site N x ... x site 1 on the whole product
    space, by ``np.kron``: ``central`` holds the amplitudes of c = 0 .. 2S,
    ``sites[a]`` the (down, up) amplitudes of ring site a + 1."""
    _product_dim(len(sites), len(central) - 1)
    out = np.asarray(central, dtype=np.complex128)
    for spinor in reversed(sites):
        out = np.kron(out, spinor)
    return out


def neel_sites(N: int) -> list[np.ndarray]:
    """The alternating ring: site 1 down, every even site up."""
    return [np.eye(2)[a % 2] for a in range(N)]


def coherent_sites(N: int, theta: float, phi: float) -> list[np.ndarray]:
    """The spin coherent ring along (theta, phi), every site
    sin(theta/2) |down> + cos(theta/2) e^{-i phi} |up>."""
    return [np.array([math.sin(theta / 2), math.cos(theta / 2) * np.exp(-1j * phi)])] * N


def restrict(full, keys, rows=None):
    """The rows ``rows`` (default ``keys``) and columns ``keys`` of a
    whole-space matrix: a sector's operator, when both are its keys."""
    return full[keys if rows is None else rows][:, keys]


def restrict_state(full: np.ndarray, N: int, two_S: int) -> StateVector:
    """A whole-space vector on the star sectors it occupies, in ascending 2m."""
    sectors = [enumerate_sector(N, two_S, two_m) for two_m in range(-two_S - N, two_S + N + 1, 2)]
    return StateVector.from_blocks([(s, full[s.keys]) for s in sectors if full[s.keys].any()],
                                   renormalize=False)


def _coherent_collective_check() -> CheckResult:
    """The coherent run against the collective-spin oracle, N = 14, S = 1/2 and 3/2.

    The experiment takes g t and reports <Sz>/S; the oracle takes t and <Sz>.
    """
    theta, phi = math.pi / 2, 0.3
    t_gt = np.linspace(0.0, 55.0, 221)
    worst = 0.0
    for two_S in (1, 3):
        params = make_params(14, two_S, J=1.0, g=1.0, omega=1.0)
        got, _ = coherent_experiment(params, theta, phi, t_gt, ("Sz", "L2"))
        got["Sz"] *= params.S
        want = collective_series(params, theta, phi, t_gt / params.g)
        worst = max(worst, *(float(np.max(np.abs(got[k] - want[k]))) for k in want))
    return _check("coherent-collective N=14", worst <= 1e-10,
                  f"max Sz/L2 deviation {worst:.2e} at 2S = 1, 3")


SUITES = {
    "identities": lambda n, threads: suite_identities(),
    "spectrum": lambda n, threads: suite_spectrum(n or 12, threads),
    "subground": lambda n, threads: suite_subground(n or 8),
    "dynamics-oracle": lambda n, threads: suite_dynamics_oracle(n or 6),
}


def run_suite(name: str, n: int | None = None, threads: int = 1) -> list[CheckResult]:
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key](n, threads))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](n, threads)
