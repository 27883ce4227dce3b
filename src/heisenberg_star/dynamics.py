"""Real-time propagation and the two quench experiments.

Total magnetization is conserved, so a multi-sector initial state never
mixes blocks and each block carries its own Hamiltonian. Blocks of at
most DENSE_CUTOFF states, the same cutoff below which the ground-state
solver diagonalizes densely, take the spectral route: one dense numpy
``eigh`` H = U E U^H per block gives the state at every grid time
exactly, v(t) = U (e^{-iEt} U^H v0), with no substeps and no tolerance,
and the observables and the energy are dense products too. Larger
blocks take the Krylov route on scipy CSR matrices, the only part of
this module that imports scipy: short-iterate Lanczos exponentiation
that builds a basis of at most KRYLOV_DIM vectors per step,
exponentiates the projected tridiagonal, and halves the substep whenever
the a posteriori error estimate misses KRYLOV_TOL. Both settings are
fixed module constants.

The two experiments mirror the figures this package reproduces: the
alternating-state quench watched through the staggered magnetization
(:func:`neel_experiment`, time axis gt_collective = g sqrt(N) t), and
the driven coherent-state run watched through the central polarization
(:func:`coherent_experiment`, time axis g t). Each one checks its input,
builds its state and operators, runs :func:`run_observables` once on
the grid divided by its rate, and returns ``(values, meta)``: one array
per observable and one dict with the time unit, the parameters and the
run diagnostics. The coherent state and the driven star are both
invariant under the ring's rotations and reflections, so that run
evolves each block on its dihedral orbit block (k = 0, reflection
even): about 2N times smaller than the sector, with no sector-wide
operator or state ever formed. The state comes written on the blocks
(:func:`states.coherent_block_state`) and the operators are built on
them; the propagator takes any block state as given and knows nothing
of orbits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import BasisSector, ModelParams, StateVector
from .errors import ConvergenceError, ParameterError
from .operators import (
    SparseOperator,
    _check_pairing,
    build_L_squared,
    build_modified_star,
    build_staggered,
    build_star_hamiltonian,
    build_zeeman,
)
from .spectrum import DENSE_CUTOFF
from .states import central_initial, coherent_block_state, neel_state, star_state

# Krylov basis size and per-step error tolerance of the propagator
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-9

# Entries (states x grid times) in one chunk of the spectral route, so a
# chunk's complex temporaries take 1 MB each whatever the block size
CHUNK_ENTRIES = 1 << 16


def _expm_krylov(mat, v, tau, m, tol):
    """One Lanczos-exponential application exp(-i tau H) v.

    Returns (w, err, ok). ``err`` is the standard a posteriori estimate
    beta_0 * b_p * |u_p|; ok is False when the basis filled up without
    meeting ``tol`` (the caller then shrinks tau). A vanishing next
    beta means the Krylov space is invariant and the result exact.
    """
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy(), 0.0, True
    n = v.size
    m_eff = min(m, n)
    V = np.empty((m_eff, n), dtype=np.complex128)
    alphas: list[float] = []
    betas: list[float] = []
    V[0] = v / beta0
    scale = 1.0
    for j in range(m_eff):
        w = mat @ V[j]
        a = float(np.vdot(V[j], w).real)
        scale = max(scale, abs(a))
        alphas.append(a)
        w -= a * V[j]
        if j > 0:
            w -= betas[j - 1] * V[j - 1]
        w -= V[:j + 1].T @ (V[:j + 1].conj() @ w)
        b = float(np.linalg.norm(w))
        u = _expm_tridiag(alphas, betas, tau)
        err = beta0 * b * abs(u[-1])
        if b <= 1e-14 * scale:
            return beta0 * (u @ V[:j + 1]), 0.0, True
        if err <= tol:
            return beta0 * (u @ V[:j + 1]), err, True
        if j + 1 < m_eff:
            betas.append(b)
            V[j + 1] = w / b
    return beta0 * (u @ V[:m_eff]), err, False


def _expm_tridiag(alphas, betas, tau):
    """First column of exp(-i tau T) for the Lanczos tridiagonal T."""
    off = betas[:len(alphas) - 1]
    evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    return evecs @ (np.exp(-1j * tau * evals) * evecs[0, :])


def _step_block(mat, v, dt):
    """Advance one block by dt, substepping adaptively."""
    if dt == 0.0:
        return v.copy()
    remaining = float(dt)
    tau = remaining
    guard = 0
    while remaining > 1e-14 * abs(dt):
        tau = min(tau, remaining)
        w, err, ok = _expm_krylov(mat, v, tau, KRYLOV_DIM, KRYLOV_TOL)
        if not ok:
            tau *= 0.5
            guard += 1
            if guard > 60:
                raise ConvergenceError(
                    f"substep collapsed below {tau:.3e} without meeting"
                    f" tol={KRYLOV_TOL}", residual=err)
            continue
        v = w
        remaining -= tau
        if err < 0.01 * KRYLOV_TOL:
            tau *= 2.0
    return v


def _time_grid(t_grid) -> list[float]:
    """The grid as floats; raises ParameterError unless finite,
    nonnegative and strictly increasing."""
    t_grid = [float(t) for t in t_grid]
    if not all(math.isfinite(t) for t in t_grid):
        raise ParameterError("time grid must be finite")
    if any(t < 0 for t in t_grid):
        raise ParameterError("time grid must be nonnegative")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ParameterError("time grid must be strictly increasing")
    return t_grid


def _route(mat) -> str:
    """How a block is propagated: 'spectral' up to DENSE_CUTOFF states,
    'krylov' above."""
    return "spectral" if mat.shape[0] <= DENSE_CUTOFF else "krylov"


def _block_matrix(mat):
    """A block's Hamiltonian as its route takes it: a dense numpy array on
    the spectral route; on the Krylov route a scipy CSR with complex
    entries, which halve the cost of a product with a complex vector."""
    if _route(mat) == "spectral":
        return mat.toarray()
    return mat.tocsr().astype(np.complex128)


def _observable_matrix(mat):
    """A block observable as its route takes it: its diagonal when it holds
    nothing else, else a dense numpy array on the spectral route and a
    scipy CSR on the same arrays on the Krylov route."""
    if np.array_equal(mat.indices, mat.rows()):
        diagonal = np.zeros(mat.shape[0], dtype=mat.dtype)
        diagonal[mat.indices] = mat.data
        return diagonal
    return mat.toarray() if _route(mat) == "spectral" else mat.tocsr()


def _product(A, X):
    """A @ X for a complex C-ordered 2-D X, A being a matrix or a diagonal;
    a real matrix acts on the (re, im) column pairs of X in one real product."""
    if A.ndim == 1:
        return A[:, None] * X
    if np.iscomplexobj(A):
        return A @ X
    return (A @ X.view(np.float64)).view(np.complex128)


def _trajectory(H, v, t_grid):
    """Yield one block's states at the grid times, starting from t = 0.

    ``H`` is the block's Hamiltonian as :func:`_block_matrix` gives it.
    Each item is a dim x k array whose columns are the states at k
    consecutive grid times. The spectral route yields chunks of at most
    CHUNK_ENTRIES entries (at least one time each); the Krylov route one
    time at a time.
    """
    if _route(H) == "spectral":
        energies, U = np.linalg.eigh(H)
        c = U.conj().T @ v
        t_grid = np.asarray(t_grid, dtype=float)
        times = max(1, CHUNK_ENTRIES // energies.size)
        for start in range(0, t_grid.size, times):
            phases = np.exp(-1j * np.outer(energies, t_grid[start:start + times]))
            phases *= c[:, None]
            yield _product(U, phases)
        return
    t_prev = 0.0
    for t in t_grid:
        dt = t - t_prev
        if dt > 0.0:
            v = _step_block(H, v, dt)
            t_prev = t
        yield v[:, None]


def _column_dots(a, b):
    """Re <a_j|b_j> of every column pair, without a conjugated copy."""
    return np.einsum("ij,ij->j", a.real, b.real) + np.einsum("ij,ij->j", a.imag, b.imag)


def evolve(hams, state: StateVector, t_grid):
    """Yield the state at each requested time, starting from t = 0.

    ``hams`` supplies one Hermitian block operator per occupied sector,
    in the same order as ``state.sectors``. The grid must be
    nonnegative and strictly increasing; a leading 0.0 returns the
    initial state unchanged. States are yielded one at a time, and a
    block holds at most a chunk of CHUNK_ENTRIES entries of them, so
    long trajectories never sit in memory at once.
    """
    hams = list(hams)
    _check_pairing(hams, state)
    t_grid = _time_grid(t_grid)
    paths = [(col for chunk in _trajectory(_block_matrix(op.matrix), state.block(i), t_grid)
              for col in chunk.T) for i, op in enumerate(hams)]
    for blocks in zip(*paths):
        yield StateVector(sectors=state.sectors, amps=np.concatenate(blocks),
                          offsets=state.offsets)


def run_observables(hams, state: StateVector, t_grid, observables, threads: int = 1):
    """Evolve a block state and sample named block-diagonal observables.

    ``observables`` maps a name to the list of per-sector operators
    (aligned with ``state.sectors``). Blocks are independent, so they
    may run on a thread pool; the reduction is an ordered sum and the
    output does not depend on the thread count.

    Returns (values, diagnostics) where values maps each name to its
    sampled series and diagnostics reports the worst norm and energy
    drift over the grid and ``routes``, the route of each block.
    """
    hams = list(hams)
    names = list(observables.keys())
    obs_lists = [list(observables[name]) for name in names]
    for ops in [hams, *obs_lists]:
        _check_pairing(ops, state)
    t_grid = _time_grid(t_grid)
    n_t = len(t_grid)

    def work(i):
        """Rows of observable values, then norms and energies, of block i."""
        H = _block_matrix(hams[i].matrix)
        mats = [_observable_matrix(ops[i].matrix) for ops in obs_lists]
        rows = np.zeros((len(mats) + 2, n_t))
        k = 0
        for chunk in _trajectory(H, state.block(i), t_grid):
            cols = slice(k, k + chunk.shape[1])
            for j, om in enumerate(mats):
                rows[j, cols] = _column_dots(chunk, _product(om, chunk))
            rows[-2, cols] = _column_dots(chunk, chunk)
            rows[-1, cols] = _column_dots(chunk, _product(H, chunk))
            k = cols.stop
        return rows

    indices = range(state.n_blocks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, indices))
    else:
        results = [work(i) for i in indices]

    totals = np.zeros((len(names) + 2, n_t))
    for rows in results:
        totals += rows
    norm = np.sqrt(totals[-2])
    energy = totals[-1]
    diagnostics = {
        "norm_drift": float(np.max(np.abs(norm - norm[0]))),
        "energy_drift": float(np.max(np.abs(energy - energy[0]))),
        "norm_min": float(norm.min()),
        "routes": [_route(op.matrix) for op in hams],
    }
    return dict(zip(names, totals)), diagnostics


def _observable(sector: BasisSector, name: str) -> SparseOperator:
    if name == "Sz":
        return build_zeeman(sector, 1.0)
    if name == "ms":
        return build_staggered(sector)
    if name == "L2":
        return build_L_squared(sector)
    raise ParameterError(f"unknown observable {name!r}")


def neel_experiment(params: ModelParams, central_kind: str, t_grid,
                    observables=("ms",), threads: int = 1):
    """Alternating-state quench on a gt_collective = g sqrt(N) t grid.

    'ms' is the headline observable; 'Sz' may ride along. The
    Hamiltonian is the plain isotropic star, so the run refuses
    anisotropic parameters, a central field, or gt <= 0 (no reduced time
    axis). The alternating state has k = 0 and k = pi parts, so this run
    keeps the full sectors.

    Returns (values, meta): one array per observable, and the time unit,
    the parameters, the central preparation and the run diagnostics.
    """
    if params.gt <= 0:
        raise ParameterError("reduced time needs gt = g sqrt(N) > 0")
    if not params.isotropic:
        raise ParameterError("the alternating-state quench needs J == Jp")
    if params.omega != 0.0:
        raise ParameterError("the alternating-state quench carries no field")
    t_abs = _time_grid(np.asarray(list(t_grid), dtype=float) / params.gt)
    ring = neel_state(params.N)
    central = central_initial(params.two_S, central_kind)
    state = star_state(params.two_S, [(c, amp, ring) for c, amp in enumerate(central)])
    hams = [build_star_hamiltonian(s, params) for s in state.sectors]
    obs = {name: [_observable(s, name) for s in state.sectors] for name in observables}
    values, diagnostics = run_observables(hams, state, t_abs, obs, threads)
    meta = {"time_unit": "gt_collective", "central": central_kind, "params": params,
            **diagnostics}
    return values, meta


def coherent_experiment(params: ModelParams, theta: float, phi: float, t_grid,
                        observables=("Sz",), threads: int = 1):
    """Driven-star run from the coherent ring state on a g t grid.

    Each block runs on its dihedral orbit block (k = 0, reflection
    even), where the state and every operator are written directly.
    Needs g > 0.

    Returns (values, meta): one array per observable, 'Sz' reported as
    <Sz>/S, and the time unit, the parameters, the angles, the run
    diagnostics and ``block_dims``, the orbit count of each block.
    """
    if params.g <= 0:
        raise ParameterError("reduced time needs g > 0")
    t_abs = _time_grid(np.asarray(list(t_grid), dtype=float) / params.g)
    state = coherent_block_state(params.N, params.two_S, theta, phi)
    hams = [build_modified_star(b, params) for b in state.sectors]
    obs = {name: [_observable(b, name) for b in state.sectors] for name in observables}
    values, diagnostics = run_observables(hams, state, t_abs, obs, threads)
    if "Sz" in values:
        values["Sz"] = values["Sz"] / params.S
    meta = {"time_unit": "gt", "theta": theta, "phi": phi, "params": params,
            **diagnostics, "block_dims": [b.dim for b in state.sectors]}
    return values, meta


def first_crossing(times, values, level) -> float:
    """First time the series reaches ``level`` from above, interpolated.

    Returns inf when the series never crosses. Used to compare decay
    speeds between runs without committing to a fit model.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for k in range(1, len(times)):
        if values[k] <= level:
            v0, v1 = values[k - 1], values[k]
            if v1 == v0:
                return float(times[k])
            frac = (v0 - level) / (v0 - v1)
            return float(times[k - 1] + frac * (times[k] - times[k - 1]))
    return math.inf
