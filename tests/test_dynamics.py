"""Real-time propagation against dense matrix exponentials.

The reference for every propagation test is scipy's dense expm applied
sector by sector. Blocks up to DENSE_CUTOFF states, the same cutoff the
ground-state solver uses, take the spectral route (one dense ``eigh``
per block) and larger blocks the Krylov stepper; every evolve test runs
on both routes, the Krylov one by setting the cutoff to 0, and must
match expm to 1e-9 while keeping the norm and energy flat. The two
experiments are checked for their stated conventions (time units,
initial values, conservation laws) rather than re-deriving the
propagator.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from heisenberg_star import dynamics, operators as ops
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
from heisenberg_star.errors import ParameterError, StarError
from heisenberg_star.states import (
    central_initial,
    coherent_block_state,
    dicke_state,
    neel_state,
    star_state,
)
from test_spectrum import twisted_ring


def random_state(sector, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    return StateVector.single(sector, v)


def dense_propagate(op, amps, t):
    return scipy.linalg.expm(-1j * op.matrix.toarray() * t) @ amps


@pytest.mark.parametrize("m", range(1, 31))
def test_tridiagonal_exponential_matches_expm(m):
    # the first column of exp(-i tau T) for a Lanczos tridiagonal of size m
    rng = np.random.default_rng(m)
    alphas = list(rng.normal(size=m))
    betas = list(rng.uniform(0.1, 1.0, size=m))  # one spare, as the stepper passes
    T = np.diag(alphas) + np.diag(betas[:m - 1], 1) + np.diag(betas[:m - 1], -1)
    for tau in (0.05, 0.7, 3.0):
        want = scipy.linalg.expm(-1j * tau * T)[:, 0]
        got = dynamics._expm_tridiag(alphas, betas, tau)
        assert np.abs(got - want).max() <= 1e-13


def _evolve_all(hams, st, grid):
    return list(evolve(hams, st, grid))


def _observe_all(hams, st, grid):
    sz = [ops.build_zeeman(sector, 1.0) for sector in st.sectors]
    return run_observables(hams, st, grid, {"Sz": sz})


# both public entry points into the propagator
propagators = pytest.mark.parametrize(
    "propagate", [_evolve_all, _observe_all], ids=["evolve", "run_observables"])


class TestEvolve:
    """Blocks this small take the spectral route; TestEvolveKrylov below
    runs these tests again on the Krylov route."""

    def test_matches_dense_exponential(self):
        params = make_params(6, 2, J=0.8, g=1.1)
        sec = enumerate_sector(6, 2, 0)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 21)
        grid = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
        for t, out in zip(grid, evolve([H], st, grid)):
            want = dense_propagate(H, st.amps, t)
            assert np.linalg.norm(out.amps - want) <= 1e-9

    def test_multi_sector_blocks_evolve_independently(self):
        params = make_params(6, 1, J=0.5, g=0.9)
        a = enumerate_sector(6, 1, 1)
        b = enumerate_sector(6, 1, 3)
        Ha = ops.build_star_hamiltonian(a, params)
        Hb = ops.build_star_hamiltonian(b, params)
        rng = np.random.default_rng(4)
        st = StateVector.from_blocks([
            (a, rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim)),
            (b, rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)),
        ])
        grid = np.array([0.0, 2.5, 6.0])
        outs = list(evolve([Ha, Hb], st, grid))
        for t, out in zip(grid, outs):
            wa = dense_propagate(Ha, st.block(0), t)
            wb = dense_propagate(Hb, st.block(1), t)
            assert np.linalg.norm(out.block(0) - wa) <= 1e-9
            assert np.linalg.norm(out.block(1) - wb) <= 1e-9

    def test_unitary_at_every_output(self):
        params = make_params(8, 1, J=1.0, g=1.0)
        sec = enumerate_sector(8, 1, 1)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 8)
        for out in evolve([H], st, np.linspace(0.0, 20.0, 11)):
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_time_reversal_returns_home(self):
        params = make_params(6, 2, J=1.3, g=0.7)
        sec = enumerate_sector(6, 2, 2)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 31)
        fwd = list(evolve([H], st, [7.0]))[0]
        m = H.matrix
        back_op = ops.SparseOperator(sector=sec, matrix=ops.CSR(m.indptr, m.indices, -m.data))
        back = list(evolve([back_op], fwd, [7.0]))[0]
        assert np.linalg.norm(back.amps - st.amps) <= 1e-9

    def test_stationary_state_only_turns_a_phase(self):
        # the symmetric one-magnon combination is a ring eigenstate
        N = 6
        st = dicke_state(N, 3)
        sec, _ = st.require_single()
        H = ops.build_bath_ring(sec, 1.0, 1.0)
        e = N / 4.0
        for t, out in zip([0.0, 1.5, 4.2], evolve([H], st, [0.0, 1.5, 4.2])):
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
        for t, out in zip(grid, evolve([op], st, grid)):
            assert np.linalg.norm(out.amps - dense_propagate(op, st.amps, t)) <= 1e-10

    def test_final_state_independent_of_output_sampling(self):
        params = make_params(6, 1, J=0.9, g=1.2)
        sec = enumerate_sector(6, 1, -1)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 77)
        direct = list(evolve([H], st, [8.0]))[-1]
        sampled = list(evolve([H], st, np.linspace(0.5, 8.0, 16)))[-1]
        assert np.linalg.norm(direct.amps - sampled.amps) <= 1e-9

    def test_small_krylov_space_still_converges(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", 0)
        monkeypatch.setattr(dynamics, "KRYLOV_DIM", 5)
        params = make_params(6, 1, J=1.0, g=1.0)
        sec = enumerate_sector(6, 1, 1)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 5)
        out = list(evolve([H], st, [3.0]))[0]
        want = dense_propagate(H, st.amps, 3.0)
        assert np.linalg.norm(out.amps - want) <= 1e-8

    @propagators
    def test_grid_validation(self, propagate):
        params = make_params(4, 1, J=1.0, g=1.0)
        sec = enumerate_sector(4, 1, 1)
        H = ops.build_star_hamiltonian(sec, params)
        st = random_state(sec, 1)
        with pytest.raises(ParameterError):
            propagate([H], st, [0.0, -1.0])
        with pytest.raises(ParameterError):
            propagate([H], st, [1.0, 1.0])

    @propagators
    def test_block_operator_mismatch(self, propagate):
        params = make_params(4, 1, J=1.0, g=1.0)
        a = enumerate_sector(4, 1, 1)
        b = enumerate_sector(4, 1, 3)
        Ha = ops.build_star_hamiltonian(a, params)
        st = StateVector.from_blocks([(a, np.ones(a.dim)), (b, np.ones(b.dim))])
        with pytest.raises(StarError):
            propagate([Ha], st, [0.0, 1.0])

    @propagators
    def test_swapped_hamiltonians_of_equal_dimension(self, propagate):
        # the two blocks have the same dimension, so only the tags tell
        # that each Hamiltonian sits on the other's block
        params = make_params(6, 1, J=0.7, g=1.0)
        a = enumerate_sector(6, 1, 1)
        b = enumerate_sector(6, 1, -1)
        assert a.dim == b.dim
        Ha = ops.build_star_hamiltonian(a, params)
        Hb = ops.build_star_hamiltonian(b, params)
        st = StateVector.from_blocks([(a, np.ones(a.dim)), (b, np.ones(b.dim))])
        with pytest.raises(StarError):
            propagate([Hb, Ha], st, [0.0, 1.0])


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
    state = star_state(1, [(c, amp, neel_state(N)) for c, amp in enumerate(central)])
    hams = [ops.build_star_hamiltonian(s, params) for s in state.sectors]
    grid = np.linspace(0.0, 10.0, 11) / params.gt
    runs = {}
    for route, cutoff in (("spectral", max(s.dim for s in state.sectors)), ("krylov", 0)):
        monkeypatch.setattr(dynamics, "DENSE_CUTOFF", cutoff)
        assert {dynamics._route(h.matrix) for h in hams} == {route}
        runs[route] = [out.amps for out in evolve(hams, state, grid)]
    for a, b in zip(runs["spectral"], runs["krylov"]):
        assert np.linalg.norm(a - b) <= 1e-9


def test_spectral_chunks_hold_at_most_the_entry_budget(monkeypatch):
    params = make_params(6, 1, J=0.7, g=1.0)
    sec = enumerate_sector(6, 1, 1)
    H = ops.build_star_hamiltonian(sec, params)
    st = random_state(sec, 3)
    grid = np.linspace(0.0, 5.0, 100)
    monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", 40 * sec.dim + sec.dim - 1)
    chunks = list(dynamics._trajectory(dynamics._block_matrix(H.matrix), st.amps, grid))
    assert [c.shape for c in chunks] == [(sec.dim, 40)] * 2 + [(sec.dim, 20)]
    for t, col in zip(grid, np.hstack(chunks).T):
        assert np.linalg.norm(col - dense_propagate(H, st.amps, t)) <= 1e-9
    # a budget below one state still advances one grid time per chunk
    monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", sec.dim - 1)
    chunks = list(dynamics._trajectory(dynamics._block_matrix(H.matrix), st.amps, grid[:3]))
    assert [c.shape for c in chunks] == [(sec.dim, 1)] * 3


def test_chunk_budget_keeps_a_driven_n14_grid_whole():
    # the N = 14 driven run: 201 grid times on orbit blocks of at most 259 states
    blocks = coherent_block_state(14, 1, 1.0, 0.5).sectors
    assert max(b.dim for b in blocks) == 259
    assert dynamics.CHUNK_ENTRIES // 259 >= 201


class TestRunObservables:
    def test_totals_match_a_manual_loop(self):
        params = make_params(6, 1, J=0.6, g=1.0)
        sec = enumerate_sector(6, 1, -1)
        H = ops.build_star_hamiltonian(sec, params)
        Sz = ops.build_zeeman(sec, 1.0)
        st = random_state(sec, 12)
        grid = np.linspace(0.0, 5.0, 7)
        totals, diag = run_observables([H], st, grid, {"Sz": [Sz]})
        want = [
            ops.expectation(Sz, out) for out in evolve([H], st, grid)
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


@pytest.mark.parametrize("experiment", ["neel", "coherent"])
def test_series_check_the_grid_before_building(experiment, monkeypatch):
    built = []

    def builder(*args, **kwargs):
        built.append(args)
        raise AssertionError("built before the grid was checked")

    for name in ("neel_state", "central_initial", "coherent_block_state", "star_state",
                 "build_star_hamiltonian", "build_modified_star", "_observable"):
        monkeypatch.setattr(dynamics, name, builder)
    params = make_params(6, 1, J=1.0, g=1.0)
    with pytest.raises(ParameterError, match="increasing"):
        if experiment == "neel":
            neel_experiment(params, "polarized", [1.0, 0.5])
        else:
            coherent_experiment(params, math.pi / 2, 0.0, [1.0, 0.5])
    assert built == []


def neel_star_run(params, central_kind, t_abs):
    """The alternating-state quench built by hand: 'ms' on absolute times.

    Same state, Hamiltonian and observable as neel_experiment, but it
    also runs at g = 0, where the experiment has no reduced time axis.
    """
    central = central_initial(params.two_S, central_kind)
    state = star_state(params.two_S,
                       [(c, amp, neel_state(params.N)) for c, amp in enumerate(central)])
    hams = [ops.build_star_hamiltonian(s, params) for s in state.sectors]
    stag = [ops.build_staggered(s) for s in state.sectors]
    return run_observables(hams, state, t_abs, {"ms": stag})


class TestNeelSeries:
    def test_decoupled_centre_leaves_the_ring_alone(self):
        # g = 0: the staggered signal is pure ring dynamics
        N = 6
        params = make_params(N, 2, J=1.0, g=0.0)
        grid = np.linspace(0.0, 6.0, 13)
        totals, _ = neel_star_run(params, "polarized", grid)
        bath = neel_state(N)
        sec, _ = bath.require_single()
        ring = ops.build_bath_ring(sec, params.J, params.Jp)
        stag = ops.build_staggered(sec)
        want = [ops.expectation(stag, out) for out in evolve([ring], bath, grid)]
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
