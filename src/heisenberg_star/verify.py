"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns a list of named checks with a pass flag and a short
detail string; the CLI prints one line per check and exits nonzero if
any failed. The checks are quick versions of the package's invariants,
meant as a smoke test on a fresh install rather than a substitute for
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import make_params
from .errors import ParameterError
from .dynamics import (
    _route,
    _step_block,
    coherent_experiment,
    evolve,
    run_observables,
)
from .operators import (
    build_bath_ring,
    build_L_squared,
    build_modified_star,
    build_star_hamiltonian,
    build_zeeman,
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
    neel_state,
    spin_coherent,
    star_state,
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
    """Residuals of the closed-form eigenstates for every valid (l, m)."""
    out = []
    J, g = 0.85, 1.1
    # one ring solve per block, shared by every central spin
    blocks = {}
    for two_l in range(0, N + 1, 2):
        e1b, seed = bath_subground_state(N, two_l)
        blocks[two_l] = (e1b, bath_multiplet(N, two_l, seed=seed))
    for two_S in (2, 3, 4):
        params = make_params(N, two_S, J=J, g=g)
        worst = 0.0
        count = 0
        for two_l, (e1b, multiplet) in blocks.items():
            two_j = abs(two_l - two_S)
            energy = sub_ground_energy(two_l, two_S, J, g, e1b)
            for two_m in range(-two_j, two_j + 1, 2):
                psi = subground_state(N, two_S, two_l, two_m, multiplet=multiplet)
                sector, x = psi.require_single()
                H = build_star_hamiltonian(sector, params)
                worst = max(worst, float(np.linalg.norm(
                    H.matrix @ x - energy * x)))
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
    state = star_state(params.two_S, [(c, amp, neel_state(N)) for c, amp in enumerate(central)])
    hams = [build_star_hamiltonian(s, params) for s in state.sectors]
    t_grid = np.linspace(0.0, 20.0, 21)[1:] / params.gt
    # evolve takes each block's own route; _step_block is the Krylov stepper
    krylov = [state.block(i) for i in range(state.n_blocks)]
    worst_evolve = worst_krylov = 0.0
    t_prev = 0.0
    for t, st in zip(t_grid, evolve(hams, state, t_grid)):
        for i, h in enumerate(hams):
            dense = scipy.linalg.expm(-1j * t * h.matrix.toarray()) @ state.block(i)
            krylov[i] = _step_block(h.matrix, krylov[i], t - t_prev)
            worst_evolve = max(worst_evolve, float(np.max(np.abs(dense - st.block(i)))))
            worst_krylov = max(worst_krylov, float(np.max(np.abs(dense - krylov[i]))))
        t_prev = t
    routes = "/".join(sorted({_route(h.matrix) for h in hams}))
    out.append(_check(f"krylov-vs-dense N={N}", max(worst_evolve, worst_krylov) <= 1e-9,
                      f"max amplitude deviation: evolve ({routes}) {worst_evolve:.2e},"
                      f" _step_block (krylov) {worst_krylov:.2e}"))
    psi = spin_coherent(14, 2.0, 0.3)
    res = 0.0
    for i, sector in enumerate(psi.sectors):
        ring = build_bath_ring(sector, 1.0, 1.0)
        x = psi.block(i)
        r = ring.matrix @ x - (14 / 4.0) * x
        res += float(np.vdot(r, r).real)
    res = math.sqrt(res)
    out.append(_check("coherent-ring-eigenstate N=14", res <= 1e-10,
                      f"residual {res:.2e}"))
    out.append(_coherent_k0_check())
    out.append(_coherent_collective_check())
    return out


def _coherent_k0_check() -> CheckResult:
    """The k = 0 coherent run against the full-sector one, anisotropic ring.

    The experiment takes g t and reports <Sz>/S; the oracle takes t and <Sz>.
    """
    params = make_params(8, 1, J=1.1, Jp=0.7, g=1.0, omega=0.9)
    theta, phi = 1.9, 0.4
    t_abs = np.linspace(0.0, 5.0, 11)
    got, _ = coherent_experiment(params, theta, phi, t_abs * params.g, ("Sz", "L2"))
    got["Sz"] *= params.S
    state = star_state(params.two_S, [(0, 1.0, spin_coherent(params.N, theta, phi))])
    hams = [build_modified_star(s, params) for s in state.sectors]
    obs = {"Sz": [build_zeeman(s, 1.0) for s in state.sectors],
           "L2": [build_L_squared(s) for s in state.sectors]}
    want, _ = run_observables(hams, state, t_abs, obs)
    worst = max(float(np.max(np.abs(got[k] - want[k]))) for k in obs)
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
