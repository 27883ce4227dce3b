"""Real-time propagation against dense matrix exponentials.

The reference for every propagation test is scipy's dense expm applied
sector by sector. Blocks up to DENSE_CUTOFF states take the spectral
route (one dense ``eigh`` per block) and larger blocks the Krylov route
(one Lanczos basis for as many grid times as its error estimate
allows); every evolve test runs on both routes, the Krylov one by
setting the cutoff to 0, and must match expm to 1e-9 while keeping the
norm and energy flat. The Krylov route is also pinned on its own: exact
on a basis that spans the block, at most 2 products per grid time,
halved substeps when a basis covers no grid time, and ConvergenceError
when no substep meets the tolerance. The two
experiments are checked for their stated conventions (time units,
initial values, conservation laws) rather than re-deriving the
propagator.
"""

import functools
import inspect
import itertools
import math
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from heisenberg_star import core, dynamics, operators as ops, spectrum
from heisenberg_star.core import (
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
)
from heisenberg_star.dynamics import (
    coherent_experiment,
    evolve,
    first_crossing,
    neel_experiment,
    run_observables,
)
from heisenberg_star.errors import (
    ConvergenceError,
    ParameterError,
    SectorCapacityError,
    SectorMismatch,
)
from heisenberg_star.states import central_initial, coherent_block_state
from heisenberg_star.verify import (
    neel_sites,
    reference_hamiltonian,
    reference_operator,
    reference_state,
    restrict,
    restrict_state,
)
from test_spectrum import twisted_ring


def random_state(sector, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    return StateVector.from_blocks([(sector, v)])


def dense_propagate(mat, amps, t):
    return scipy.linalg.expm(-1j * mat.toarray() * t) @ amps


@functools.lru_cache(maxsize=4)
def full_star(N, two_S, J, g):
    """The plain star on the whole product space, from the Kronecker reference."""
    return reference_hamiltonian(N, two_S, J, J, g, 0.0)


def star(sector, params):
    """The plain star on one sector, from the Kronecker reference (scipy CSR)."""
    return restrict(full_star(sector.N, sector.two_S, params.J, params.g), sector.keys)


@functools.lru_cache(maxsize=8)
def full_observable(N, two_S, name):
    """One observable on the whole product space, from the Kronecker reference."""
    return reference_operator(N, two_S, name)


def zeeman(sector):
    """The central Sz on one sector, from the Kronecker reference."""
    return restrict(full_observable(sector.N, sector.two_S, "Sz"), sector.keys)


def reference_neel_star(params, central):
    """The alternating-state star on its full sectors, from the reference."""
    full = reference_state(central, neel_sites(params.N))
    return restrict_state(full, params.N, params.two_S)


def on_blocks(*pairs):
    """hams(block, dense) giving each block the matrix paired with its sector."""
    mats = {sector.tag: mat for sector, mat in pairs}
    return lambda block, dense: mats[block.tag]


@pytest.mark.parametrize("m", range(1, 31))
def test_tridiagonal_exponential_matches_expm(m, monkeypatch):
    # a Lanczos tridiagonal of size m as the block, with KRYLOV_DIM = m: the
    # Krylov basis spans the block, so the state is exact at every tau and
    # the tail of the error estimate vanishes
    monkeypatch.setattr(dynamics, "KRYLOV_DIM", m)
    rng = np.random.default_rng(m)
    off = rng.uniform(0.1, 1.0, size=m - 1)
    T = np.diag(rng.normal(size=m)) + np.diag(off, 1) + np.diag(off, -1)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    v /= np.linalg.norm(v)
    B, S, energies, c, tail, energy = dynamics._basis(
        scipy.sparse.csr_array(T.astype(complex)), v, "krylov")
    assert np.abs(tail).max() <= 1e-13
    assert abs(energy - np.vdot(v, T @ v).real) <= 1e-13
    for tau in (0.05, 0.7, 3.0):
        got = B @ (S @ (np.exp(-1j * tau * energies) * c))
        assert np.abs(got - scipy.linalg.expm(-1j * tau * T) @ v).max() <= 1e-13


def _evolve_all(hams, st, grid):
    return list(evolve(hams, st, grid))


def _observe_all(hams, st, grid):
    return run_observables(lambda block, dense: (
        hams(block, dense), [zeeman(block)]), st, grid, ["Sz"])


# both public entry points into the propagator
propagators = pytest.mark.parametrize(
    "propagate", [_evolve_all, _observe_all], ids=["evolve", "run_observables"])


class TestEvolve:
    """Blocks this small take the spectral route; TestEvolveKrylov below
    runs these tests again on the Krylov route."""

    def test_matches_dense_exponential(self):
        params = make_params(6, 2, J=0.8, g=1.1)
        sec = enumerate_sector(6, 2, 0)
        H = star(sec, params)
        st = random_state(sec, 21)
        grid = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
        for t, out in zip(grid, evolve(on_blocks((sec, H)), st, grid)):
            want = dense_propagate(H, st.amps, t)
            assert np.linalg.norm(out.amps - want) <= 1e-9

    def test_multi_sector_blocks_evolve_independently(self):
        params = make_params(6, 1, J=0.5, g=0.9)
        a = enumerate_sector(6, 1, 1)
        b = enumerate_sector(6, 1, 3)
        Ha = star(a, params)
        Hb = star(b, params)
        rng = np.random.default_rng(4)
        st = StateVector.from_blocks([
            (a, rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim)),
            (b, rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)),
        ])
        grid = np.array([0.0, 2.5, 6.0])
        outs = list(evolve(on_blocks((a, Ha), (b, Hb)), st, grid))
        for t, out in zip(grid, outs):
            wa = dense_propagate(Ha, st.block(0), t)
            wb = dense_propagate(Hb, st.block(1), t)
            assert np.linalg.norm(out.block(0) - wa) <= 1e-9
            assert np.linalg.norm(out.block(1) - wb) <= 1e-9

    def test_unitary_at_every_output(self):
        params = make_params(8, 1, J=1.0, g=1.0)
        sec = enumerate_sector(8, 1, 1)
        H = star(sec, params)
        st = random_state(sec, 8)
        for out in evolve(on_blocks((sec, H)), st, np.linspace(0.0, 20.0, 11)):
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_time_reversal_returns_home(self):
        params = make_params(6, 2, J=1.3, g=0.7)
        sec = enumerate_sector(6, 2, 2)
        H = star(sec, params)
        st = random_state(sec, 31)
        fwd = list(evolve(on_blocks((sec, H)), st, [7.0]))[0]
        back = list(evolve(on_blocks((sec, -H)), fwd, [7.0]))[0]
        assert np.linalg.norm(back.amps - st.amps) <= 1e-9

    def test_stationary_state_only_turns_a_phase(self):
        # the Dicke state, uniform over one filling, is a ring eigenstate
        N = 6
        sec = enumerate_bath_sector(N, 3)
        st = StateVector.from_blocks([(sec, np.full(sec.dim, 1.0 / math.sqrt(sec.dim)))])
        H = ops.build_bath_ring(sec, 1.0, 1.0).matrix
        e = N / 4.0
        for t, out in zip([0.0, 1.5, 4.2], evolve(on_blocks((sec, H)), st, [0.0, 1.5, 4.2])):
            want = st.amps * np.exp(-1j * e * t)
            assert np.linalg.norm(out.amps - want) <= 1e-10

    def test_complex_hermitian_block(self):
        # a diagonal unitary twists the ring block: same spectrum, complex
        # entries, so the spectral route diagonalizes a complex matrix and
        # propagates with a complex U
        op = twisted_ring(8, 4)
        assert np.any(op.matrix.data.imag)
        st = random_state(op.sector, 5)
        grid = np.array([0.0, 0.4, 1.3, 2.5])
        for t, out in zip(grid, evolve(on_blocks((op.sector, op.matrix)), st, grid)):
            assert np.linalg.norm(out.amps - dense_propagate(op.matrix, st.amps, t)) <= 1e-10

    def test_final_state_independent_of_output_sampling(self):
        params = make_params(6, 1, J=0.9, g=1.2)
        sec = enumerate_sector(6, 1, -1)
        H = star(sec, params)
        st = random_state(sec, 77)
        direct = list(evolve(on_blocks((sec, H)), st, [8.0]))[-1]
        sampled = list(evolve(on_blocks((sec, H)), st, np.linspace(0.5, 8.0, 16)))[-1]
        assert np.linalg.norm(direct.amps - sampled.amps) <= 1e-9

    def test_small_krylov_space_still_converges(self, monkeypatch):
        # five vectors cover a few of the closely spaced grid times, across
        # chunks of two, and none of the 0.15 gaps after them, which are
        # reached by halved substeps
        monkeypatch.setattr(dynamics, "KRYLOV_DIM", 5)
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
        params = make_params(6, 1, J=1.0, g=1.0)
        sec = enumerate_sector(6, 1, 1)
        monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", 2 * sec.dim)
        H = star(sec, params)
        st = random_state(sec, 5)
        grid = np.concatenate([np.linspace(0.0, 0.02, 11), np.linspace(0.15, 3.0, 20)])
        yields = []  # the grid times each basis yielded, in order
        basis = dynamics._basis
        monkeypatch.setattr(dynamics, "_basis", lambda *args: yields.append(0) or basis(*args))
        route, Hk, _ = dynamics._prepare(lambda block, dense: (H, []), sec, grid[-1])
        assert route == "krylov"
        chunks = []
        for chunk in dynamics._trajectory(Hk, st.amps, grid, route):
            yields[-1] += chunk.shape[1]
            chunks.append(chunk)
        assert max(yields) > 2 and yields.count(0) > len(grid)
        for t, col in zip(grid, np.hstack(chunks).T):
            assert np.linalg.norm(col - dense_propagate(H, st.amps, t)) <= 1e-8

    @propagators
    def test_grid_validation(self, propagate):
        params = make_params(4, 1, J=1.0, g=1.0)
        sec = enumerate_sector(4, 1, 1)
        H = star(sec, params)
        st = random_state(sec, 1)
        with pytest.raises(ParameterError):
            propagate(on_blocks((sec, H)), st, [0.0, -1.0])
        with pytest.raises(ParameterError):
            propagate(on_blocks((sec, H)), st, [1.0, 1.0])

    @propagators
    def test_a_matrix_of_another_dimension_is_refused(self, propagate):
        # block 2m = 3 is given the Hamiltonian of the larger sector 2m = 1
        params = make_params(4, 1, J=1.0, g=1.0)
        a = enumerate_sector(4, 1, 1)
        b = enumerate_sector(4, 1, 3)
        assert a.dim != b.dim
        Ha = star(a, params)
        st = StateVector.from_blocks([(a, np.ones(a.dim)), (b, np.ones(b.dim))])
        with pytest.raises(SectorMismatch, match=b.tag):
            propagate(lambda block, dense: Ha, st, [0.0, 1.0])


class TestEvolveKrylov(TestEvolve):
    """The TestEvolve checks with each block on the Krylov route."""

    @pytest.fixture(autouse=True)
    def krylov_route(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)

    # pins the Krylov route itself, so a second run would repeat it
    test_small_krylov_space_still_converges = None


@pytest.mark.parametrize("N", [8, 10, 12])
def test_spectral_route_matches_krylov(N, monkeypatch):
    # the alternating-state star with a uniform spin-1/2 centre: two
    # sectors of 1716 states at N = 12
    params = make_params(N, 1, J=0.9, g=1.0)
    central = central_initial(1, "uniform")
    state = reference_neel_star(params, central)
    hams = [(s, star(s, params)) for s in state.sectors]
    grid = np.linspace(0.0, 10.0, 11) / params.gt
    runs = {}
    for route, cutoff in (("spectral", max(s.dim for s in state.sectors)), ("krylov", 0)):
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
        assert {dynamics._route(h.shape[0]) for _, h in hams} == {route}
        runs[route] = [out.amps for out in evolve(on_blocks(*hams), state, grid)]
    for a, b in zip(runs["spectral"], runs["krylov"]):
        assert np.linalg.norm(a - b) <= 1e-9


def test_spectral_chunks_hold_at_most_the_entry_budget(monkeypatch):
    params = make_params(6, 1, J=0.7, g=1.0)
    sec = enumerate_sector(6, 1, 1)
    H = star(sec, params)
    st = random_state(sec, 3)
    grid = np.linspace(0.0, 5.0, 100)
    monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", 40 * sec.dim + sec.dim - 1)
    dense = H.toarray()
    chunks = list(dynamics._trajectory(dense, st.amps, grid, "spectral"))
    assert [c.shape for c in chunks] == [(sec.dim, 40)] * 2 + [(sec.dim, 20)]
    for t, col in zip(grid, np.hstack(chunks).T):
        assert np.linalg.norm(col - dense_propagate(H, st.amps, t)) <= 1e-9
    # a budget below one state still advances one grid time per chunk
    monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", sec.dim - 1)
    chunks = list(dynamics._trajectory(dense, st.amps, grid[:3], "spectral"))
    assert [c.shape for c in chunks] == [(sec.dim, 1)] * 3


def test_one_krylov_basis_serves_many_grid_times(monkeypatch):
    # the alternating star block with the centre up, 1716 states at N = 12;
    # a fresh basis per grid time makes about 7 products for each
    params = make_params(12, 1, J=0.9, g=1.0)
    state = reference_neel_star(params, [1.0, 0.0])
    sec = state.sectors[0]
    H = star(sec, params)
    grid = np.linspace(0.0, 10.0, 101) / params.gt

    class Counted:
        """The block's CSR, counting its products with a vector."""
        products = 0

        def __init__(self, mat):
            self.mat = mat
            self.shape = mat.shape

        def __matmul__(self, x):
            Counted.products += 1
            return self.mat @ x

    prepare = dynamics._prepare

    def counted(hams, block, t_end):
        route, mat, observables = prepare(hams, block, t_end)
        return route, Counted(mat), observables

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_prepare", counted)
        patch.setattr(dynamics, "DENSE_CUTOFF", 0)
        krylov = [out.amps for out in evolve(on_blocks((sec, H)), state, grid)]
    assert 0 < Counted.products <= 2 * grid.size
    monkeypatch.setattr(dynamics, "DENSE_CUTOFF", sec.dim)
    for a, out in zip(krylov, evolve(on_blocks((sec, H)), state, grid)):
        assert np.linalg.norm(a - out.amps) <= 1e-9


def test_krylov_route_raises_when_no_substep_meets_the_tolerance(monkeypatch):
    # with a zero tolerance no substep is ever covered: the substep halves
    # on its one basis until it vanishes, then the run refuses
    monkeypatch.setattr(dynamics, "KRYLOV_TOL", 0.0)
    monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
    params = make_params(8, 1, J=1.0, g=1.0)
    sec = enumerate_sector(8, 1, 1)
    assert sec.dim > dynamics.KRYLOV_DIM
    H = star(sec, params)
    bases = []
    basis = dynamics._basis
    monkeypatch.setattr(dynamics, "_basis", lambda *args: bases.append(1) or basis(*args))
    with pytest.raises(ConvergenceError, match="substep collapsed") as exc:
        list(evolve(on_blocks((sec, H)), random_state(sec, 2), [1.0]))
    assert len(bases) == 1 and exc.value.residual > 0.0


def test_chunk_budget_keeps_a_driven_n14_grid_whole():
    # the N = 14 driven run: 201 grid times on orbit blocks of at most 259 states
    pieces = ops.ring_pieces(14, 1.0, 1.0, range(15))
    blocks = coherent_block_state(14, 1, 1.0, 0.5, pieces).sectors
    assert max(b.dim for b in blocks) == 259
    assert dynamics.CHUNK_ENTRIES // 259 >= 201


def direct_phases(energies, c, taus):
    """e^{-i E tau} c from cos and sin of every E tau, in the package's order."""
    angles = np.outer(energies, taus)
    out = np.empty(angles.shape, dtype=complex)
    out.real, out.imag = np.cos(angles), np.sin(-angles)
    out *= c[:, None]
    return out


def phase_case(monkeypatch, seed):
    """Energies, unit-norm coefficients, and the list of the widths of every
    cos/sin table ``dynamics._phases`` takes from ``_trig_table``."""
    rng = np.random.default_rng(seed)
    energies = rng.uniform(-3.0, 3.0, 40)
    c = rng.normal(size=40) + 1j * rng.normal(size=40)
    widths = []
    table = dynamics._trig_table
    monkeypatch.setattr(dynamics, "_trig_table",
                        lambda E, taus: widths.append(np.size(taus)) or table(E, taus))
    return energies, c / np.linalg.norm(c), widths


@pytest.mark.parametrize("tmax,samples,g", [(10.0, 201, 1.0), (40.0, 400, math.sqrt(12)),
                                            (7.3, 57, 0.37), (1e-3, 1000, 1.0)])
def test_cli_grids_take_the_phase_tables(tmax, samples, g, monkeypatch):
    # the grid as the CLI makes it, and the offset chunks the Krylov route
    # passes after a basis restart at grid time start - 1
    energies, c, widths = phase_case(monkeypatch, samples)
    grid = np.linspace(0.0, tmax, samples) / g
    for start, stop in ((0, samples), (1, samples), (samples // 3, samples // 3 + 37)):
        t0 = grid[start - 1] if start else 0.0
        widths.clear()
        got = dynamics._phases(energies, c, grid[start:stop], t0)
        assert sum(widths) <= 2 * math.isqrt(stop - start) + 2 < stop - start
        want = direct_phases(energies, c, grid[start:stop] - t0)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-13


def test_other_grids_take_direct_trig_bit_for_bit(monkeypatch):
    energies, c, widths = phase_case(monkeypatch, 1)
    uniform = np.linspace(0.0, 10.0, 201)
    nudged = uniform.copy()
    nudged[100] += 1e-12  # far above rounding
    grids = [10.0 * np.linspace(0.0, 1.0, 50) ** 2, nudged, np.geomspace(1e-3, 10.0, 30),
             *(uniform[:n] for n in range(1, 6)),  # too short to gain
             [0.7]]  # a halved substep
    for grid in grids:
        widths.clear()
        got = dynamics._phases(energies, c, grid)
        assert widths == [len(grid)]
        np.testing.assert_array_equal(got, direct_phases(energies, c, grid))


class TestRunObservables:
    def test_totals_match_a_manual_loop(self):
        params = make_params(6, 1, J=0.6, g=1.0)
        sec = enumerate_sector(6, 1, -1)
        H = star(sec, params)
        Sz = zeeman(sec)
        st = random_state(sec, 12)
        grid = np.linspace(0.0, 5.0, 7)
        totals, diag = run_observables(lambda block, dense: (H, [Sz]), st, grid, ["Sz"])
        want = [
            np.vdot(out.amps, Sz @ out.amps).real
            for out in evolve(on_blocks((sec, H)), st, grid)
        ]
        np.testing.assert_allclose(totals["Sz"], want, atol=1e-12)
        assert diag["norm_drift"] <= 1e-10
        assert diag["energy_drift"] <= 1e-9
        assert diag["norm_min"] >= 1.0 - 1e-10

    def test_thread_count_does_not_change_results(self):
        params = make_params(6, 2, J=0.8, g=0.9)
        grid = np.linspace(0.0, 4.0, 9)
        a, _ = neel_experiment(params, "uniform", grid * params.gt, threads=1)
        b, _ = neel_experiment(params, "uniform", grid * params.gt, threads=4)
        np.testing.assert_array_equal(a["ms"], b["ms"])


@pytest.mark.parametrize("cutoff", [dynamics.DENSE_CUTOFF, 0], ids=["spectral", "krylov"])
def test_an_observable_of_another_dimension_is_refused(cutoff, monkeypatch):
    monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
    params = make_params(4, 1, J=1.0, g=1.0)
    a = enumerate_sector(4, 1, 1)
    b = enumerate_sector(4, 1, 3)
    Hb, Sza = star(b, params), zeeman(a)
    st = random_state(b, 2)
    with pytest.raises(SectorMismatch, match=b.tag):
        run_observables(lambda block, dense: (Hb, [Sza]), st, [0.0, 1.0], ["Sz"])


@pytest.mark.parametrize("run", ["evolve", "run_observables", "neel", "coherent"])
def test_an_empty_grid_is_refused(run):
    params = make_params(6, 1, J=1.0, g=1.0)
    sec = enumerate_sector(6, 1, 1)
    st = random_state(sec, 1)
    hams = on_blocks((sec, star(sec, params)))
    with pytest.raises(ParameterError, match="non-empty"):
        if run == "evolve":
            _evolve_all(hams, st, [])
        elif run == "run_observables":
            _observe_all(hams, st, [])
        elif run == "neel":
            neel_experiment(params, "polarized", [])
        else:
            coherent_experiment(params, 1.0, 0.0, [])


@pytest.mark.parametrize("experiment", ["neel", "coherent"])
def test_series_check_the_grid_before_building(experiment, monkeypatch):
    built = []

    def builder(*args, **kwargs):
        built.append(args)
        raise AssertionError("built before the grid was checked")

    for name in ("central_initial", "neel_block_state", "coherent_block_state",
                 "coherent_coefficients", "sector_layout", "ring_pieces",
                 "star_block_operators"):
        monkeypatch.setattr(dynamics, name, builder)
    params = make_params(6, 1, J=1.0, g=1.0)
    with pytest.raises(ParameterError, match="increasing"):
        if experiment == "neel":
            neel_experiment(params, "polarized", [1.0, 0.5])
        else:
            coherent_experiment(params, math.pi / 2, 0.0, [1.0, 0.5])
    assert built == []


def neel_star_run(params, central_kind, t_abs, names=("ms",)):
    """The alternating-state quench built by hand on absolute times.

    Same state, Hamiltonian and observables as neel_experiment, from the
    Kronecker reference restricted to the enumerated sectors: the product
    state by ``np.kron`` and every operator from one-site matrices. It
    also runs at g = 0, where the experiment has no reduced time axis.
    """
    state = reference_neel_star(params, central_initial(params.two_S, central_kind))
    full = {name: full_observable(params.N, params.two_S, name) for name in names}

    def full_sector(sector, dense):
        return (star(sector, params), [restrict(full[name], sector.keys) for name in names])

    return run_observables(full_sector, state, t_abs, names)


class TestNeelSeries:
    def test_decoupled_centre_leaves_the_ring_alone(self):
        # g = 0: the staggered signal is pure ring dynamics
        N = 6
        params = make_params(N, 2, J=1.0, g=0.0)
        grid = np.linspace(0.0, 6.0, 13)
        totals, _ = neel_star_run(params, "polarized", grid)
        sec = enumerate_bath_sector(N, N // 2)
        bath = StateVector.from_blocks([(sec, reference_state([1.0], neel_sites(N))[sec.keys])])
        ring = ops.build_bath_ring(sec, params.J, params.Jp).matrix
        stag = restrict(reference_operator(N, 0, "ms"), sec.keys)
        want = [np.vdot(out.amps, stag @ out.amps).real
                for out in evolve(on_blocks((sec, ring)), bath, grid)]
        np.testing.assert_allclose(totals["ms"], want, atol=1e-10)

    def test_decoupled_centre_kind_is_irrelevant(self):
        params = make_params(6, 3, J=1.0, g=0.0)
        grid = np.linspace(0.0, 3.0, 7)
        a, _ = neel_star_run(params, "polarized", grid)
        b, _ = neel_star_run(params, "uniform", grid)
        np.testing.assert_allclose(a["ms"], b["ms"], atol=1e-12)

    def test_rejects_anisotropy_and_field(self):
        with pytest.raises(ParameterError):
            neel_experiment(make_params(4, 1, J=1.0, Jp=0.5), "polarized", [0.0, 1.0])
        with pytest.raises(ParameterError):
            neel_experiment(make_params(4, 1, J=1.0, omega=0.2), "polarized", [0.0, 1.0])


def j_spread(name):
    """Largest pointwise spread of one quench series over J in {0, 1, 5}."""
    grid = np.linspace(0.0, 8.0, 17)
    runs = [neel_experiment(make_params(6, 1, J=J, g=1.0), "polarized", grid,
                            observables=(name,))[0][name] for J in (0.0, 1.0, 5.0)]
    return max(float(np.max(np.abs(a - b))) for a, b in itertools.combinations(runs, 2))


class TestCentralObservableUniversality:
    def test_central_polarization_ignores_the_ring_coupling(self):
        # the isotropic ring term commutes with every central operator
        assert j_spread("Sz") <= 1e-8

    def test_the_bath_observable_does_depend_on_it(self):
        assert j_spread("ms") > 1e-2


class TestNeelExperiment:
    def test_initial_values_and_units(self):
        params = make_params(8, 2, J=0.5, g=1.0)
        grid = np.linspace(0.0, 4.0, 9)
        values, meta = neel_experiment(params, "polarized", grid, observables=("Sz", "ms"))
        assert values["ms"][0] == pytest.approx(0.5, abs=1e-12)
        assert values["Sz"][0] == pytest.approx(1.0, abs=1e-12)
        assert meta["time_unit"] == "gt_collective"
        assert meta["central"] == "polarized" and meta["params"] == params
        # grid is in units of gt: the absolute-time run at t = grid/gt agrees
        totals, _ = neel_star_run(params, "polarized", grid / params.gt)
        np.testing.assert_allclose(values["ms"], totals["ms"], atol=1e-12)

    def test_uniform_centre_starts_unpolarized(self):
        params = make_params(6, 2, J=0.5, g=1.0)
        values, _ = neel_experiment(params, "uniform", np.linspace(0.0, 2.0, 5),
                                    observables=("Sz",))
        assert values["Sz"][0] == pytest.approx(0.0, abs=1e-12)

    def test_diagnostics_recorded(self):
        params = make_params(6, 1, J=1.0, g=1.0)
        _, meta = neel_experiment(params, "polarized", np.linspace(0.0, 10.0, 21))
        assert meta["norm_drift"] <= 1e-10
        assert meta["energy_drift"] <= 1e-9

    def test_rejects_a_frozen_clock(self):
        params = make_params(6, 1, J=1.0, g=0.0)
        with pytest.raises(ParameterError):
            neel_experiment(params, "polarized", [0.0, 1.0])

    @pytest.mark.parametrize("N,two_S", [(N, two_S) for N in (6, 8, 10, 12)
                                         for two_S in (1, 2, 3, 4)])
    def test_matches_the_full_sector_reference(self, N, two_S, monkeypatch):
        # sublattice star blocks from ring pieces against the Kronecker
        # reference on enumerated sectors, on both propagation routes
        params = make_params(N, two_S, J=0.8, g=1.1)
        grid = np.linspace(0.0, 3.0, 7)
        names = ("Sz", "ms", "L2")
        for cutoff in (dynamics.DENSE_CUTOFF, 0):
            monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
            for kind in ("polarized", "uniform"):
                got, meta = neel_experiment(params, kind, grid, names)
                want, _ = neel_star_run(params, kind, grid / params.gt, names)
                assert set(meta["routes"]) == {"krylov" if cutoff == 0 else "spectral"}
                for name in names:
                    np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)

    def test_records_the_block_dimensions(self):
        # two_m = 1 at N = 4: the 6 states of filling 2 make 3 sublattice
        # orbits ({0011, 0110, 1100, 1001}, 0101, 1010), the 4 of filling 3
        # make 2 (the down spin on one sublattice or the other)
        _, meta = neel_experiment(make_params(4, 1, J=1.0, g=1.0), "polarized", [0.0, 1.0])
        assert meta["block_dims"] == [5]

    def test_refuses_an_unknown_observable_before_building(self, monkeypatch):
        monkeypatch.setattr(dynamics, "ring_pieces",
                            lambda *args, **kwargs: pytest.fail("built before refusing"))
        params = make_params(6, 1, J=1.0, g=1.0)
        with pytest.raises(ParameterError, match="'Sx'"):
            neel_experiment(params, "polarized", [0.0, 1.0], observables=("ms", "Sx"))


@pytest.mark.parametrize("experiment", ["neel", "coherent"])
def test_an_over_cap_sector_is_refused_before_any_ring_piece(experiment, monkeypatch):
    # at N = 8, 2S = 3 both runs hold the sectors 2m = +-1 of 210 states
    monkeypatch.setattr(core, "SECTOR_CAPACITY", 150)
    monkeypatch.setattr(dynamics, "ring_pieces",
                        lambda *args, **kwargs: pytest.fail("built before refusing"))
    params = make_params(8, 3, J=1.0, g=1.0)
    with pytest.raises(SectorCapacityError):
        if experiment == "neel":
            neel_experiment(params, "uniform", [0.0, 1.0])
        else:
            coherent_experiment(params, math.pi / 2, 0.0, [0.0, 1.0])


class TestCoherentExperiment:
    def test_starts_fully_polarized(self):
        params = make_params(6, 1, J=1.0, g=1.0, omega=1.0)
        values, meta = coherent_experiment(params, math.pi / 2, 0.0,
                                           np.linspace(0.0, 2.0, 5))
        assert values["Sz"][0] == pytest.approx(1.0, abs=1e-12)
        assert meta["time_unit"] == "gt"
        assert (meta["theta"], meta["phi"], meta["params"]) == (math.pi / 2, 0.0, params)

    def test_ring_momentum_is_conserved_when_isotropic(self):
        params = make_params(6, 1, J=1.0, g=1.0, omega=1.0)
        values, _ = coherent_experiment(params, 1.9, 0.4, np.linspace(0.0, 6.0, 13),
                                        observables=("Sz", "L2"))
        l = 3.0
        np.testing.assert_allclose(values["L2"], l * (l + 1), atol=1e-9)

    def test_routes_are_recorded(self, monkeypatch):
        params = make_params(8, 1, J=1.0, Jp=0.6, g=1.0, omega=1.0)
        grid = np.linspace(0.0, 1.0, 3)
        _, meta = coherent_experiment(params, math.pi / 2, 0.0, grid)
        assert meta["routes"] == ["spectral"] * 9
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
        _, meta = coherent_experiment(params, math.pi / 2, 0.0, grid)
        assert meta["routes"] == ["krylov"] * 9

    def test_refuses_an_observable_without_a_block_form(self, monkeypatch):
        # the staggered magnetization breaks the ring's rotations, so the
        # orbit blocks cannot carry it; refused before anything is built
        monkeypatch.setattr(dynamics, "ring_pieces",
                            lambda *args, **kwargs: pytest.fail("built before refusing"))
        params = make_params(6, 1, J=1.0, g=1.0)
        with pytest.raises(ParameterError, match="'ms'"):
            coherent_experiment(params, math.pi / 2, 0.0, [0.0, 1.0], observables=("Sz", "ms"))

    def test_anisotropy_lets_the_momentum_drift(self):
        params = make_params(6, 1, J=1.0, Jp=0.5, g=1.0, omega=1.0)
        values, _ = coherent_experiment(params, math.pi / 2, 0.0,
                                        np.linspace(0.0, 6.0, 13),
                                        observables=("Sz", "L2"))
        drift = np.max(np.abs(values["L2"] - values["L2"][0]))
        assert drift > 1e-2


class TestFirstCrossing:
    def test_interpolates(self):
        assert first_crossing([0.0, 1.0, 2.0], [1.0, 0.4, 0.2], 0.7) == pytest.approx(0.5)

    def test_no_crossing_is_infinite(self):
        assert first_crossing([0.0, 1.0], [1.0, 0.9], 0.1) == math.inf

    def test_exact_hit(self):
        assert first_crossing([0.0, 2.0, 4.0], [1.0, 0.5, 0.1], 0.5) == pytest.approx(2.0)

    def test_start_at_or_below_the_level_is_the_first_time(self):
        # no extrapolation before the grid: [0.1, 0.05] once gave -2.0
        assert first_crossing([0.0, 1.0], [0.1, 0.05], 0.2) == 0.0
        assert first_crossing([3.0, 4.0], [0.2, 0.1], 0.2) == 3.0


class CountingMatrix:
    """A Hamiltonian that counts the states it multiplies: one per vector,
    one per column of a complex array or per column pair of its real view."""

    def __init__(self, H):
        self.H, self.dtype, self.shape, self.ndim = H, H.dtype, H.shape, 2
        self.count = 0

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.H, dtype=dtype)

    def __matmul__(self, X):
        self.count += 1 if X.ndim == 1 else X.shape[1] // (1 if np.iscomplexobj(X) else 2)
        return self.H @ X


@pytest.mark.parametrize("cutoff", [dynamics.DENSE_CUTOFF, 0], ids=["spectral", "krylov"])
def test_run_record_counts_products_and_bases(cutoff, monkeypatch, tmp_path):
    # the diagnostics and the sidecar against counts taken outside the
    # propagator: every state any Hamiltonian multiplies, every Krylov basis
    from heisenberg_star import cli

    monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
    monkeypatch.setattr(dynamics, "KRYLOV_DIM", 8)  # several bases per block
    hams, krylov = [], []
    prepare, basis = dynamics._prepare, dynamics._basis

    def counting_prepare(*args):
        route, H, mats = prepare(*args)
        hams.append(CountingMatrix(H))
        return route, hams[-1], mats

    def counting_basis(H, v, route):
        krylov.extend([1] if route == "krylov" else [])
        return basis(H, v, route)

    monkeypatch.setattr(dynamics, "_prepare", counting_prepare)
    monkeypatch.setattr(dynamics, "_basis", counting_basis)
    params = make_params(8, 2, J=0.8, g=1.0)
    _, meta = neel_experiment(params, "uniform", np.linspace(0.0, 4.0, 21), ("Sz", "ms", "L2"))
    assert meta["h_products"] == sum(h.count for h in hams)
    assert meta["krylov_bases"] == len(krylov)
    if cutoff:  # the energy at the first and last grid time of each block
        assert meta["h_products"] == 2 * len(hams) and not krylov
    else:
        assert len(krylov) > len(hams)
    hams.clear()
    krylov.clear()
    out = tmp_path / "neel.csv"
    assert cli.main(["neel", "--n", "8", "--two-s", "2", "--central", "uniform", "--samples",
                     "21", "--tmax", "4", "--with-sz", "--threads", "1", "--out", str(out)]) == 0
    sidecar = (tmp_path / "neel.csv.meta").read_text().splitlines()
    assert f"h_products = {sum(h.count for h in hams)}" in sidecar
    assert f"krylov_bases = {len(krylov)}" in sidecar


def mutated(func, old, new):
    """``func`` with the source line ``old`` replaced by ``new``, executed in
    a copy of its own module's namespace, so patching the result into
    ``dynamics`` leaves every other caller of ``func`` as it was."""
    source = textwrap.dedent(inspect.getsource(func))
    assert old in source
    namespace = dict(vars(inspect.getmodule(func)))
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


def per_time_energy_drift(hams, state, grid):
    """The energy drift taken at every grid time by a product with H:
    the sum over blocks of each block's largest deviation from t = 0."""
    energies = np.array([[np.vdot(st.block(i), hams(s) @ st.block(i)).real
                          for i, s in enumerate(st.sectors)]
                         for st in evolve(lambda block, dense: hams(block), state, grid)])
    return float(np.abs(energies - energies[0]).max(axis=0).sum())


class TestDriftCatchesMutations:
    """A propagator made wrong on purpose must show in the drifts that
    run_observables reports, past the bounds of the benchmark checker
    (norm 1e-10, energy 1e-9), as it shows in an energy taken at every
    grid time."""

    NORM_BOUND, ENERGY_BOUND = 1e-10, 1e-9

    def drifts(self, hams, state, grid):
        _, diag = run_observables(lambda block, dense: (hams(block), []), state, grid, [])
        return diag["norm_drift"], diag["energy_drift"], per_time_energy_drift(hams, state,
                                                                               grid)

    def neel(self):
        params = make_params(8, 1, J=0.8, g=1.0)
        return (lambda block: star(block, params),
                reference_neel_star(params, central_initial(1, "uniform")))

    def test_a_krylov_basis_without_reorthogonalization(self, monkeypatch):
        # on the star's own blocks the exponential survives the lost
        # orthogonality, and neither drift moves; a stiff block of 21 states
        # with levels from 1e-2 to 1e5 is one basis when reorthogonalized
        # and some thousand bases, with ghost levels, when not
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
        sec = enumerate_sector(6, 1, 3)
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.normal(size=(sec.dim, sec.dim)))[0]
        H = scipy.sparse.csr_array(Q @ np.diag(np.geomspace(1e-2, 1e5, sec.dim)) @ Q.T)
        v = random_state(sec, 2).amps
        state = StateVector.from_blocks([(sec, v / np.linalg.norm(v))])
        grid = np.linspace(0.0, 5.0, 6)
        _, energy, per_time = self.drifts(lambda block: H, state, grid)
        assert energy <= 1e-10 and per_time <= 1e-10
        # the Lanczos loop is shared with the ring solver, so the mutation
        # goes into dynamics only
        monkeypatch.setattr(dynamics, "_lanczos", mutated(
            spectrum._lanczos, "w -= basis[:j + 1].T @ (basis[:j + 1] @ w.conj()).conj()", "pass"))
        _, energy, per_time = self.drifts(lambda block: H, state, grid)
        assert energy > self.ENERGY_BOUND and per_time > self.ENERGY_BOUND

    def test_a_wrong_lanczos_alpha(self, monkeypatch):
        # the second diagonal entry of every tridiagonal off by 1e-5: the
        # basis stays orthonormal, so only the energy can tell
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
        monkeypatch.setattr(dynamics, "_lanczos", mutated(
            spectrum._lanczos, "alphas.append(float(np.vdot(basis[j], w).real))",
            "alphas.append(float(np.vdot(basis[j], w).real) + (1e-5 if j == 1 else 0.0))"))
        hams, state = self.neel()
        _, energy, per_time = self.drifts(hams, state, np.linspace(0.0, 10.0, 41))
        assert energy > self.ENERGY_BOUND and per_time > self.ENERGY_BOUND

    def test_a_perturbed_eigenvector_column(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_basis", mutated(
            dynamics._basis, "energies, U = np.linalg.eigh(H)",
            "energies, U = np.linalg.eigh(H)\n        U[:, 0] += 1e-5"))
        hams, state = self.neel()
        assert {dynamics._route(b.dim) for b in state.sectors} == {"spectral"}
        norm, energy, per_time = self.drifts(hams, state, np.linspace(0.0, 10.0, 41))
        assert norm > self.NORM_BOUND
        assert energy > self.ENERGY_BOUND and per_time > self.ENERGY_BOUND

    def test_the_unmutated_runs_stay_within_the_bounds(self, monkeypatch):
        hams, state = self.neel()
        for cutoff in (dynamics.DENSE_CUTOFF, 0):
            monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
            norm, energy, per_time = self.drifts(hams, state, np.linspace(0.0, 10.0, 41))
            assert norm <= 1e-13 and energy <= 1e-12 and per_time <= 1e-12


def test_a_restart_heavy_run_reports_the_per_time_energy_drift(monkeypatch):
    # bases of 5 vectors, so most grid times start a basis of their own
    monkeypatch.setattr(dynamics, "KRYLOV_DIM", 5)
    monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
    params = make_params(8, 2, J=0.8, g=1.0)
    state = reference_neel_star(params, central_initial(2, "uniform"))
    grid = np.linspace(0.0, 6.0, 61)
    _, diag = run_observables(lambda block, dense: (star(block, params), []), state, grid, [])
    assert diag["krylov_bases"] > len(grid) * state.n_blocks
    per_time = per_time_energy_drift(lambda block: star(block, params), state, grid)
    assert abs(diag["energy_drift"] - per_time) <= dynamics.KRYLOV_TOL
