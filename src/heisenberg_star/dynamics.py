"""Real-time propagation and the two quench experiments.

Total magnetization is conserved, so a multi-sector initial state never
mixes blocks and each block carries its own Hamiltonian. Both routes
write the state a time tau after a basis start v as B (e^{-iE tau} c)
and run one loop over the grid. Blocks of at most DENSE_CUTOFF states
take the spectral route: one dense numpy ``eigh`` H = U E U^H per block
(B = U, c = U^H v) gives every grid time exactly, with no substeps and
no tolerance. Larger blocks take the Krylov route on scipy CSR matrices,
the only scipy here: a Lanczos basis of at most KRYLOV_DIM vectors, from
the ring solver's loop (:func:`spectrum._lanczos`), and the ``eigh`` of
its tridiagonal serve every following grid time whose a posteriori
error estimate is at most KRYLOV_TOL (Park and Light 1986, Hochbruck and
Lubich 1997); the next basis starts from the last state yielded, and
halved substeps cross a grid gap that no basis covers. Both settings are
fixed module constants. On a grid uniform to rounding, which every grid of the CLI
is, both routes take the phases e^{-iE tau} c from two small cos/sin
tables, about 2 sqrt(n) pairs per energy for n grid times
(:func:`_phases`). Before a block propagates, ConvergenceError refuses
a grid end that double precision cannot resolve, eps ||H|| t_end above
KRYLOV_TOL. :func:`run_observables` reads each chunk of states through
one pass over its weights |psi|^2 (the norm and every diagonal
observable), one product per factor A of an observable A^T A + diag(d)
(L^2) and one per other matrix; it checks the energy, which no grid time
needs, at every basis start and at the first and last grid time only.

The two experiments mirror the figures this package reproduces: the
alternating-state quench watched through the staggered magnetization
(:func:`neel_experiment`, time axis gt_collective = g sqrt(N) t), and
the driven coherent-state run watched through the central polarization
(:func:`coherent_experiment`, time axis g t). Each one checks its input
and the layout of every star block, makes the pieces of every ring
filling once (:func:`operators.ring_pieces`, which takes the fillings
above half filling from their spin-flip mirrors), writes its state on the
blocks they make, and runs :func:`run_observables` once on the grid
divided by its rate, each block's operators assembled from the pieces
inside its work: dense on the spectral route, CSR on the Krylov one.
It returns ``(values, meta)``: one array per observable and one dict
with the time unit, the parameters, the run diagnostics and the orbit
count of each block. The driven run evolves dihedral orbit blocks
(k = 0, reflection even), about 2N times smaller than the sectors, and
the quench sublattice orbit blocks, about N times smaller: that group
fixes the alternating state and keeps the staggered magnetization. The
propagator knows nothing of orbits.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelParams, StateVector, sector_layout
from .errors import ConvergenceError, ParameterError, SectorMismatch
from .operators import CSR, ring_pieces, star_block_operators
from .spectrum import _lanczos
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

# The largest ||H|| t_end a block is propagated to: beyond it the rounding
# of its phases, eps ||H|| t, exceeds KRYLOV_TOL (about 4.5e6)
SPAN_MAX = KRYLOV_TOL / np.finfo(float).eps

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


def _prepare(hams, block, t_end: float):
    """(route, H, observables) of one block from ``hams(block, dense)``,
    ``dense`` being True on the spectral route: dense numpy arrays there;
    on the Krylov route the Hamiltonian as a scipy CSR on its index arrays
    with complex entries, which a complex vector multiplies faster (see
    the README's numerical notes), and each observable matrix as a scipy
    CSR on its own arrays. A numpy array, dense or a 1-D diagonal, is
    taken as given. An observable may also be a pair (A, d), A^T A +
    diag(d), whose A has the block's columns and any number of rows.
    SectorMismatch when a matrix does not match the block's size.
    ConvergenceError, naming the block and ``t_end``, unless double
    precision resolves the block's phases up to the grid end:
    ||H|| t_end <= SPAN_MAX, ||H|| being the largest absolute row sum."""
    route = _route(block.dim)
    dense = route == "spectral"
    H, observables = hams(block, dense)

    def take(mat, square=True):
        shape = tuple(mat.shape)
        if shape[-1:] != (block.dim,) or square and len(set(shape)) > 1:
            raise SectorMismatch(f"shape {shape} on {block.tag} of {block.dim} states")
        if isinstance(mat, np.ndarray):
            return mat
        return mat.toarray() if dense else mat.tocsr()

    H = take(H)
    norm = float(abs(H).sum(axis=1).max())
    if norm * t_end > SPAN_MAX:
        raise ConvergenceError(
            f"{block.tag}: double precision does not resolve the grid end t = {t_end:.6g}:"
            f" eps ||H|| t = {np.finfo(float).eps * norm * t_end:.3g} exceeds"
            f" {KRYLOV_TOL:g} (||H|| = {norm:.6g}, the largest absolute row sum)")
    if not dense:
        H = CSR(H.indptr, H.indices, H.data.astype(np.complex128)).tocsr()
    mats = [(take(om[0], square=False), take(om[1])) if isinstance(om, tuple) else take(om)
            for om in observables]
    return route, H, mats


def _product(A, X):
    """A @ X for a complex C-ordered 2-D X; a real matrix A acts on the
    (re, im) column pairs of X in one real product."""
    if np.iscomplexobj(A):
        return A @ X
    return (A @ X.view(np.float64)).view(np.complex128)


def _basis(H, v, route: str):
    """(B, S, E, c, tail, energy): the block's state a time tau after
    ``v`` is B S (e^{-iE tau} c), with the error estimate
    |tail . (e^{-iE tau} c)|, and ``energy`` is <v|H|v> read off the basis.

    The spectral route diagonalizes H = U E U^H: B = U, S and tail are
    None, c = U^H v, every tau is exact, the energy is sum_k |c_k|^2 E_k,
    and no product with H is taken. The Krylov route diagonalizes the
    tridiagonal T = S E S^T of the Lanczos basis V of at most KRYLOV_DIM
    vectors from v = beta_0 V[0] (:func:`spectrum._lanczos`), one product
    with H each: B = V^T, c = beta_0 S[0] and tail = beta_m S[-1], so the
    estimate is beta_0 beta_m |u_m(tau)| with u(tau) = exp(-i tau T) e_0
    (Hochbruck and Lubich 1997), and the energy is beta_0^2 alpha_0. tail
    is 0 when the basis spans an invariant space.
    """
    if route == "spectral":
        energies, U = np.linalg.eigh(H)
        c = U.conj().T @ v
        return U, None, energies, c, None, float(energies @ (c.real ** 2 + c.imag ** 2))
    beta0 = float(np.linalg.norm(v))
    for V, alphas, betas in _lanczos(H, v / beta0 if beta0 else v, min(KRYLOV_DIM, v.size)):
        pass  # to KRYLOV_DIM vectors or to breakdown
    off = betas[:-1]
    energies, S = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    return V.T, S, energies, beta0 * S[0], betas[-1] * S[-1], beta0 ** 2 * alphas[0]


def _trig_table(energies, taus):
    """e^{-i E tau} for each energy (row) and tau (column), by cos and sin."""
    angles = np.outer(energies, taus)
    table = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=table.real)
    np.sin(np.negative(angles, out=angles), out=table.imag)
    return table


def _phases(energies, c, times, t0=0.0):
    """e^{-i E (t - t0)} c for each of the n grid times t, one column per time.

    On a grid uniform to rounding, t_k = t_0 + k dt with every t_k within
    4 eps max|t| of it (a grid made as ``np.linspace(0, tmax, n) / g``, or
    a slice of one, stays within 2.5), column k = a K + b is the product of
    two small tables: c e^{-i E (t_0 - t0 + a K dt)} for a < ceil(n / K) and
    e^{-i E b dt} for b < K = ceil(sqrt(n)), so each energy takes about
    2 sqrt(n) cos/sin pairs instead of n. Any other grid, and one too short
    to gain, takes cos and sin of every E (t - t0).
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    K = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    A = -(-n // K)  # ceil(n / K)
    if K + A < n:
        step = (times[-1] - times[0]) / (n - 1)
        drift = np.abs(times - (times[0] + step * np.arange(n))).max()
        if drift <= 4 * np.finfo(float).eps * max(abs(times[0]), abs(times[-1])):
            rows = _trig_table(energies, times[0] - t0 + np.arange(A) * (K * step))
            rows *= c[:, None]
            cols = _trig_table(energies, np.arange(K) * step)
            # written in place, so the columns stay C-ordered for _product
            phases = np.empty((c.size, n), dtype=complex)
            whole = n - n % K  # the columns of the full rows a
            np.multiply(rows[:, :whole // K, None], cols[:, None, :],
                        out=phases[:, :whole].reshape(c.size, whole // K, K))
            np.multiply(rows[:, -1:], cols[:, :n - whole], out=phases[:, whole:])
            return phases
    phases = _trig_table(energies, times - t0)
    phases *= c[:, None]
    return phases


def _trajectory(H, v, t_grid, route: str, bases=None):
    """Yield one block's states at the grid times, starting from t = 0.

    ``H`` is the block's Hamiltonian as :func:`_prepare` gives it for
    ``route``. Each item is a dim x k array whose columns are the states
    at k consecutive grid times, at most CHUNK_ENTRIES entries (at least
    one time). Both routes run one loop: a :func:`_basis` yields every
    following grid time whose error estimate is at most KRYLOV_TOL (on
    the spectral route, all of them, with no estimate taken), chunk after
    chunk, and the next basis starts from the last state yielded. When
    not even the next grid time is covered, the substep towards it is
    halved on the same basis until it is, and the next basis starts
    there; ConvergenceError when the substep falls below the resolution
    of that grid time. When ``bases`` is a list, each basis appends to it
    the number of its products with H and the energy <v|H|v> of its start.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    times = max(1, CHUNK_ENTRIES // v.size)
    t0, start = 0.0, 0
    while start < t_grid.size:
        B, S, energies, c, tail, energy = _basis(H, v, route)
        if bases is not None:
            bases.append((0 if S is None else S.shape[0], energy))
        while start < t_grid.size:
            phases = _phases(energies, c, t_grid[start:start + times], t0)
            if tail is None:
                k = phases.shape[1]
            else:
                err = np.abs(tail @ phases)
                covered = err <= KRYLOV_TOL
                k = covered.size if covered.all() else int(covered.argmin())
                if k == 0:
                    break
            states = _product(B, phases[:, :k] if S is None else S @ phases[:, :k])
            yield states
            start += k
            if k < phases.shape[1]:
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
        route, H, _ = _prepare(lambda b, dense: (hams(b, dense), []), block, t_grid[-1])
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
    spectral route), else CSR. An observable that is its diagonal d comes
    as a 1-D array, one of the form A^T A + diag(d) as the pair (A, d),
    any other as its matrix. ``hams`` is called inside that block's work,
    so only the blocks being propagated hold their matrices. Blocks are
    independent, so they may run on a thread pool; the reduction is an
    ordered sum and the output does not depend on the thread count.

    Each chunk of states costs one pass over its weights |psi|^2, which
    gives the norm and every diagonal part as one matrix product, plus
    one product with each A and each other matrix. The energy is not
    sampled at every grid time: each block checks it at every basis start
    (read off the basis, no product) and, by one product with H each, at
    its first and last grid time.

    Returns (values, diagnostics) where values maps each name to its
    sampled series. diagnostics holds ``norm_drift``, the largest
    deviation of the norm from its value at the first grid time;
    ``energy_drift``, the sum over blocks of the largest deviation of
    each block's checked energies from its energy at t = 0; ``norm_min``;
    ``routes``, the route of each block; ``h_products``, the products of
    H with a state; and ``krylov_bases``, the Krylov bases built.
    """
    names = list(observables)
    t_grid = _time_grid(t_grid)
    n_t = len(t_grid)

    def work(i):
        """Block i's route, its rows of observable values and norms, its
        energy drift, its products with H and its Krylov bases."""
        route, H, mats = _prepare(hams, state.sectors[i], t_grid[-1])
        diagonal = np.zeros((len(mats) + 1, state.sectors[i].dim))
        diagonal[-1] = 1.0  # the norm
        factors, matrices = {}, {}
        for j, om in enumerate(mats):
            if isinstance(om, tuple):
                factors[j], diagonal[j] = om
            elif om.ndim == 1:
                diagonal[j] = om
            else:
                matrices[j] = om
        rows = np.empty((len(mats) + 1, n_t))
        bases, ends = [], []
        k = 0
        for chunk in _trajectory(H, state.block(i), t_grid, route, bases):
            cols = slice(k, k + chunk.shape[1])
            weights = np.square(chunk.real)
            weights += np.square(chunk.imag)
            rows[:, cols] = diagonal @ weights
            del weights
            for j, A in factors.items():
                lowered = _product(A, chunk)
                rows[j, cols] += _column_dots(lowered, lowered)
            for j, M in matrices.items():
                rows[j, cols] += _column_dots(chunk, _product(M, chunk))
            if not k:
                ends.append(chunk[:, :1].copy())
            k = cols.stop
        ends.append(chunk[:, -1:].copy())
        energies = [energy for _, energy in bases]
        energies += [float(_column_dots(x, _product(H, x))[0]) for x in ends]
        drift = max(abs(e - energies[0]) for e in energies)
        products = sum(n for n, _ in bases) + len(ends)
        return route, rows, drift, products, len(bases) if route == "krylov" else 0

    indices = range(state.n_blocks)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, indices))
    else:
        results = [work(i) for i in indices]

    totals = np.zeros((len(names) + 1, n_t))
    for _, rows, *_ in results:
        totals += rows
    norm = np.sqrt(totals[-1])
    diagnostics = {
        "norm_drift": float(np.max(np.abs(norm - norm[0]))),
        "energy_drift": sum(drift for _, _, drift, _, _ in results),
        "norm_min": float(norm.min()),
        "routes": [route for route, *_ in results],
        "h_products": sum(products for *_, products, _ in results),
        "krylov_bases": sum(bases for *_, bases in results),
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
    axis). Each block is the sublattice orbit block of a sector, made
    from the sublattice ring pieces of its fillings.

    Returns (values, meta): one array per observable, and the time unit,
    the parameters, the central preparation, the run diagnostics and
    ``block_dims``, the orbit count of each block.
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
                         sublattice=True)
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
