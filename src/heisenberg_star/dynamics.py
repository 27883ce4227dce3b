"""Real-time propagation and the two quench experiments.

Total magnetization is conserved, so a multi-sector initial state never
mixes blocks and each block carries its own Hamiltonian. Both routes
write the state a time tau after a basis start v as B (e^{-iE tau} c)
and run one loop over the grid. Blocks of at most DENSE_CUTOFF states
take the spectral route: one dense numpy ``eigh`` H = U E U^H per block
(B = U, c = U^H v) gives every grid time exactly, with no substeps and
no tolerance, and the observables and the energy are dense products
too. Larger blocks take the Krylov route on scipy CSR matrices, the only
part of this module that imports scipy: one Lanczos basis of at most
KRYLOV_DIM vectors and the ``eigh`` of its tridiagonal serve every
following grid time whose a posteriori error estimate is at most
KRYLOV_TOL (Park and Light 1986, Hochbruck and Lubich 1997); the next
basis starts from the last state yielded, and a grid gap that no basis
covers is crossed by halved substeps. Both settings are fixed module
constants.

The two experiments mirror the figures this package reproduces: the
alternating-state quench watched through the staggered magnetization
(:func:`neel_experiment`, time axis gt_collective = g sqrt(N) t), and
the driven coherent-state run watched through the central polarization
(:func:`coherent_experiment`, time axis g t). Each one checks its input
and the layout of every star block, makes the pieces of every ring
filling once (:func:`operators.ring_pieces`), writes its state on the
blocks they make, and runs :func:`run_observables` once on the grid
divided by its rate, each block's operators assembled from the pieces
inside its work: dense on the spectral route, CSR on the Krylov one.
It returns ``(values, meta)``: one array per observable and one dict
with the time unit, the parameters, the run diagnostics and the block
dimensions. The driven run evolves dihedral orbit blocks (k = 0,
reflection even), about 2N times smaller than the sectors; the
alternating state has k = 0 and k = pi parts, so the quench runs on
whole sectors. The propagator knows nothing of orbits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import ModelParams, StateVector, sector_layout
from .errors import ConvergenceError, ParameterError, SectorMismatch
from .operators import CSR, ring_pieces, star_block_operators
from .states import (
    central_initial,
    coherent_block_state,
    coherent_coefficients,
    neel_block_state,
)

# Blocks of at most this many states take the spectral route
DENSE_CUTOFF = 1024

# Krylov basis size, and the error tolerance of each grid time taken from
# a basis (30: the fewest vectors with at most 2 products per grid time)
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-9

# Entries (states x grid times) in one chunk of propagated states, so a
# chunk's complex temporaries take 1 MB each whatever the block size
CHUNK_ENTRIES = 1 << 16


def _time_grid(t_grid) -> list[float]:
    """The grid as floats; raises ParameterError unless non-empty,
    finite, nonnegative and strictly increasing."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ParameterError("time grid must be non-empty")
    if not all(math.isfinite(t) for t in t_grid):
        raise ParameterError("time grid must be finite")
    if any(t < 0 for t in t_grid):
        raise ParameterError("time grid must be nonnegative")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ParameterError("time grid must be strictly increasing")
    return t_grid


def _route(dim: int) -> str:
    """How a block of ``dim`` states is propagated: 'spectral' up to
    DENSE_CUTOFF states, 'krylov' above."""
    return "spectral" if dim <= DENSE_CUTOFF else "krylov"


def _prepare(hams, block):
    """(route, H, observables) of one block from ``hams(block, dense)``,
    ``dense`` being True on the spectral route: dense numpy arrays there;
    on the Krylov route the Hamiltonian as a scipy CSR on its index arrays
    with complex entries, which a complex vector multiplies faster (see
    the README's numerical notes), and each observable as a scipy CSR on
    its own arrays. A numpy array, dense or a 1-D diagonal, is taken as
    given. SectorMismatch when a matrix does not match the block's size."""
    route = _route(block.dim)
    dense = route == "spectral"
    H, observables = hams(block, dense)
    for mat in [H, *observables]:
        if tuple(mat.shape) != (block.dim,) * len(mat.shape):
            raise SectorMismatch(f"shape {tuple(mat.shape)} on {block.tag} of {block.dim} states")
    if not isinstance(H, np.ndarray):
        H = H.toarray() if dense else CSR(H.indptr, H.indices,
                                          H.data.astype(np.complex128)).tocsr()
    mats = [m if isinstance(m, np.ndarray) else m.toarray() if dense else m.tocsr()
            for m in observables]
    return route, H, mats


def _product(A, X):
    """A @ X for a complex C-ordered 2-D X, A being a matrix or a diagonal;
    a real matrix acts on the (re, im) column pairs of X in one real product."""
    if A.ndim == 1:
        return A[:, None] * X
    if np.iscomplexobj(A):
        return A @ X
    return (A @ X.view(np.float64)).view(np.complex128)


def _basis(H, v, route: str):
    """(B, S, E, c, tail): the block's state a time tau after ``v`` is
    B S (e^{-iE tau} c), with the error estimate |tail . (e^{-iE tau} c)|.

    The spectral route diagonalizes H = U E U^H: B = U, S is None,
    c = U^H v, and every tau is exact. The Krylov route builds the
    Lanczos basis V of at most KRYLOV_DIM vectors from v = beta_0 V[0],
    each new vector reorthogonalized against all earlier ones, and
    diagonalizes its tridiagonal T = S E S^T: B = V^T, c = beta_0 S[0]
    and tail = beta_m S[-1], so the estimate is beta_0 beta_m |u_m(tau)|
    with u(tau) = exp(-i tau T) e_0 (Hochbruck and Lubich 1997). tail is 0
    on the spectral route and when the basis spans an invariant space.
    """
    if route == "spectral":
        energies, U = np.linalg.eigh(H)
        return U, None, energies, U.conj().T @ v, np.zeros(energies.size)
    beta0 = float(np.linalg.norm(v))
    V = np.empty((min(KRYLOV_DIM, v.size), v.size), dtype=np.complex128)
    V[0] = v / beta0 if beta0 else v
    alphas, betas = [], []
    for j in range(V.shape[0]):
        w = H @ V[j]
        alphas.append(float(np.vdot(V[j], w).real))
        w -= alphas[j] * V[j]
        if j:
            w -= betas[j - 1] * V[j - 1]
        w -= V[:j + 1].T @ np.conj(V[:j + 1] @ np.conj(w))  # conjugates w, not a copy of V
        betas.append(float(np.linalg.norm(w)))
        if betas[j] <= 1e-14 * max(1.0, max(map(abs, alphas))):
            betas[j] = 0.0  # breakdown: the basis spans an invariant space
            break
        if j + 1 < V.shape[0]:
            V[j + 1] = w / betas[j]
    m = len(alphas)
    off = betas[:m - 1]
    energies, S = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    return V[:m].T, S, energies, beta0 * S[0], betas[-1] * S[-1]


def _phases(energies, c, taus):
    """e^{-i E tau} c for each tau, one column per tau."""
    angles = np.outer(energies, taus)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(np.negative(angles, out=angles), out=phases.imag)
    phases *= c[:, None]
    return phases


def _trajectory(H, v, t_grid, route: str):
    """Yield one block's states at the grid times, starting from t = 0.

    ``H`` is the block's Hamiltonian as :func:`_prepare` gives it for
    ``route``. Each item is a dim x k array whose columns are the states
    at k consecutive grid times, at most CHUNK_ENTRIES entries (at least
    one time). Both routes run one loop: a :func:`_basis` yields every
    following grid time whose error estimate is at most KRYLOV_TOL (on
    the spectral route, all of them), chunk after chunk, and the next
    basis starts from the last state yielded. When not even the next grid
    time is covered, the substep towards it is halved on the same basis
    until it is, and the next basis starts there; ConvergenceError when
    the substep falls below the resolution of that grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    times = max(1, CHUNK_ENTRIES // v.size)
    t0, start = 0.0, 0
    while start < t_grid.size:
        B, S, energies, c, tail = _basis(H, v, route)
        while start < t_grid.size:
            phases = _phases(energies, c, t_grid[start:start + times] - t0)
            err = np.abs(tail @ phases)
            covered = err <= KRYLOV_TOL
            k = covered.size if covered.all() else int(covered.argmin())
            if k == 0:
                break
            states = _product(B, phases[:, :k] if S is None else S @ phases[:, :k])
            yield states
            start += k
            if k < covered.size:
                break
        if k:  # the next basis starts from the last state yielded
            v, t0 = states[:, -1], t_grid[start - 1]
        else:  # or where a halved substep towards the next grid time ends
            tau = t_grid[start] - t0
            while not err[0] <= KRYLOV_TOL:
                tau *= 0.5
                if t_grid[start] - tau == t_grid[start]:
                    raise ConvergenceError(f"substep collapsed to {tau:.3e} before t ="
                                           f" {t_grid[start]:.6g} at tol={KRYLOV_TOL}",
                                           residual=float(err[0]))
                phases = _phases(energies, c, [tau])
                err = np.abs(tail @ phases)
            v, t0 = (B @ (S @ phases))[:, 0], t0 + tau
        del B  # the next basis is built without this one alive


def _column_dots(a, b):
    """Re <a_j|b_j> of every column pair, without a conjugated copy."""
    return np.einsum("ij,ij->j", a.real, b.real) + np.einsum("ij,ij->j", a.imag, b.imag)


def evolve(hams, state: StateVector, t_grid):
    """Yield the state at each requested time, starting from t = 0.

    ``hams(block, dense)`` makes the Hermitian Hamiltonian of one
    occupied sector ``block`` of ``state``, as :func:`run_observables`
    takes it. The grid must be non-empty, nonnegative and strictly
    increasing; a leading 0.0 returns the initial state, to rounding.
    States are yielded one at a time, and a block holds at most a chunk
    of CHUNK_ENTRIES entries of them, so long trajectories never sit in
    memory at once.
    """
    t_grid = _time_grid(t_grid)
    paths = []
    for i, block in enumerate(state.sectors):
        route, H, _ = _prepare(lambda b, dense: (hams(b, dense), []), block)
        paths.append(col for chunk in _trajectory(H, state.block(i), t_grid, route)
                     for col in chunk.T)
    for blocks in zip(*paths):
        yield StateVector(sectors=state.sectors, amps=np.concatenate(blocks),
                          offsets=state.offsets)


def run_observables(hams, state: StateVector, t_grid, observables, threads: int = 1):
    """Evolve a block state and sample named block-diagonal observables.

    ``hams(block, dense)`` makes the Hamiltonian of the occupied sector
    ``block`` of ``state`` and the observables that ``observables``
    names, in order: numpy arrays when ``dense`` (the block takes the
    spectral route), else CSR, and a 1-D array for an observable that is
    its diagonal. It is called inside that block's work, so only the
    blocks being propagated hold their matrices. Blocks are independent,
    so they may run on a thread pool; the reduction is an ordered sum and
    the output does not depend on the thread count.

    Returns (values, diagnostics) where values maps each name to its
    sampled series and diagnostics reports the worst norm and energy
    drift over the grid and ``routes``, the route of each block.
    """
    names = list(observables)
    t_grid = _time_grid(t_grid)
    n_t = len(t_grid)

    def work(i):
        """Block i's route, and its rows of observable values, then norms
        and energies."""
        route, H, mats = _prepare(hams, state.sectors[i])
        rows = np.zeros((len(mats) + 2, n_t))
        k = 0
        for chunk in _trajectory(H, state.block(i), t_grid, route):
            cols = slice(k, k + chunk.shape[1])
            for j, om in enumerate(mats):
                rows[j, cols] = _column_dots(chunk, _product(om, chunk))
            rows[-2, cols] = _column_dots(chunk, chunk)
            rows[-1, cols] = _column_dots(chunk, _product(H, chunk))
            k = cols.stop
        return route, rows

    indices = range(state.n_blocks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, indices))
    else:
        results = [work(i) for i in indices]

    totals = np.zeros((len(names) + 2, n_t))
    for _, rows in results:
        totals += rows
    norm = np.sqrt(totals[-2])
    energy = totals[-1]
    diagnostics = {
        "norm_drift": float(np.max(np.abs(norm - norm[0]))),
        "energy_drift": float(np.max(np.abs(energy - energy[0]))),
        "norm_min": float(norm.min()),
        "routes": [route for route, _ in results],
    }
    return dict(zip(names, totals)), diagnostics


def _fillings(N: int, two_S: int, two_ms) -> range:
    """The ring fillings that the star sectors ``two_ms`` hold. Their
    :func:`core.sector_layout` refuses an empty or over-cap sector here,
    before any ring piece is built."""
    ups = [s.n_up for two_m in two_ms for s in sector_layout(N, two_S, two_m)]
    return range(min(ups), max(ups) + 1)


def neel_experiment(params: ModelParams, central_kind: str, t_grid,
                    observables=("ms",), threads: int = 1):
    """Alternating-state quench on a gt_collective = g sqrt(N) t grid.

    'ms' is the headline observable; 'Sz' and 'L2' may ride along. The
    Hamiltonian is the plain isotropic star, so the run refuses
    anisotropic parameters, a central field, or gt <= 0 (no reduced time
    axis). Each block is a whole sector, made from the whole-sector ring
    pieces of its fillings.

    Returns (values, meta): one array per observable, and the time unit,
    the parameters, the central preparation, the run diagnostics and
    ``block_dims``, the dimension of each block.
    """
    if params.gt <= 0:
        raise ParameterError("reduced time needs gt = g sqrt(N) > 0")
    if not params.isotropic:
        raise ParameterError("the alternating-state quench needs J == Jp")
    if params.omega != 0.0:
        raise ParameterError("the alternating-state quench carries no field")
    t_abs = _time_grid(np.asarray(list(t_grid), dtype=float) / params.gt)
    names = list(observables)
    for name in names:
        if name not in ("Sz", "ms", "L2"):
            raise ParameterError(f"the quench observes Sz, ms and L2, not {name!r}")
    N, two_S = params.N, params.two_S
    central = central_initial(two_S, central_kind)
    fillings = _fillings(N, two_S, [two_S - 2 * c for c in np.flatnonzero(central).tolist()])
    pieces = ring_pieces(N, params.J, params.Jp, fillings, l_squared="L2" in names,
                         orbits=False)
    state = neel_block_state(N, two_S, central, pieces)
    values, diagnostics = run_observables(lambda block, dense: star_block_operators(
        block, pieces, params.g, 0.0, names, dense), state, t_abs, names, threads)
    meta = {"time_unit": "gt_collective", "central": central_kind, "params": params,
            **diagnostics, "block_dims": [b.dim for b in state.sectors]}
    return values, meta


def coherent_experiment(params: ModelParams, theta: float, phi: float, t_grid,
                        observables=("Sz",), threads: int = 1):
    """Driven-star run from the coherent ring state on a g t grid.

    Each block runs on its dihedral orbit block (k = 0, reflection
    even), made from the orbit-block ring pieces of its fillings. Needs
    g > 0; the observables are 'Sz' and 'L2'.

    Returns (values, meta): one array per observable, 'Sz' reported as
    <Sz>/S, and the time unit, the parameters, the angles, the run
    diagnostics and ``block_dims``, the orbit count of each block.
    """
    if params.g <= 0:
        raise ParameterError("reduced time needs g > 0")
    t_abs = _time_grid(np.asarray(list(t_grid), dtype=float) / params.g)
    names = list(observables)
    for name in names:
        if name not in ("Sz", "L2"):
            raise ParameterError(f"the coherent run observes Sz and L2, not {name!r}")
    N, two_S = params.N, params.two_S
    occupied = np.flatnonzero(coherent_coefficients(N, theta, phi))
    fillings = _fillings(N, two_S, (two_S + 2 * occupied - N).tolist())
    pieces = ring_pieces(N, params.J, params.Jp, fillings, l_squared="L2" in names)
    state = coherent_block_state(N, two_S, theta, phi, pieces)
    values, diagnostics = run_observables(lambda block, dense: star_block_operators(
        block, pieces, 2.0 * params.g, params.omega, names, dense), state, t_abs, names, threads)
    if "Sz" in values:
        values["Sz"] = values["Sz"] / params.S
    meta = {"time_unit": "gt", "theta": theta, "phi": phi, "params": params, **diagnostics,
            "block_dims": [b.dim for b in state.sectors]}
    return values, meta


def first_crossing(times, values, level) -> float:
    """First time the series reaches ``level`` from above, interpolated.

    Returns ``times[0]`` when the series starts at or below ``level``
    and inf when it never reaches it, so no result lies outside the
    grid. Used to compare decay speeds between runs without committing
    to a fit model.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for k in range(len(times)):
        if values[k] <= level:
            if k == 0:
                return float(times[0])
            v0, v1 = values[k - 1], values[k]  # v0 > level >= v1
            frac = (v0 - level) / (v0 - v1)
            return float(times[k - 1] + frac * (times[k] - times[k - 1]))
    return math.inf
