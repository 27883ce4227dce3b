"""Sector enumeration, parameter validation, and state containers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_star import core
from heisenberg_star.core import (
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    make_params,
    sector_dimension,
)
from heisenberg_star.errors import (
    CentralSpinTooLarge,
    EmptySector,
    OddBathSize,
    ParameterError,
    SectorCapacityError,
    StarError,
)


def brute_sector(N, two_S, two_m):
    """Reference enumeration: scan every (central, bits) product state."""
    out = []
    for c in range(two_S + 1):
        two_Sm = two_S - 2 * c
        for bits in range(1 << N):
            n_up = bin(bits).count("1")
            if two_Sm + 2 * n_up - N == two_m:
                out.append((c, bits))
    return out


class TestMakeParams:
    def test_defaults(self):
        p = make_params(6, 2, J=1.5)
        assert p.Jp == 1.5
        assert p.isotropic
        assert p.g == 1.0 and p.omega == 0.0
        assert p.gt == pytest.approx(math.sqrt(6))
        assert p.S == 1.0

    def test_anisotropic_flag(self):
        assert not make_params(4, 1, J=1.0, Jp=0.8).isotropic
        # passing Jp equal to J still counts as isotropic
        assert make_params(4, 1, J=1.0, Jp=1.0).isotropic

    def test_derived_values_follow_the_couplings(self):
        # gt and the flag are computed, so a directly built record cannot contradict them
        p = core.ModelParams(N=4, two_S=1, J=1.0, Jp=0.5, g=2.0, omega=0.0)
        assert p.gt == 4.0 and not p.isotropic
        assert make_params(8, 1, J=0.3, g=0.7).gt == 0.7 * math.sqrt(8)

    def test_odd_ring_rejected(self):
        with pytest.raises(OddBathSize):
            make_params(5, 1, J=1.0)

    def test_central_spin_bounds(self):
        with pytest.raises(ParameterError):
            make_params(4, 0, J=1.0)
        with pytest.raises(CentralSpinTooLarge):
            make_params(4, 5, J=1.0)
        make_params(4, 4, J=1.0)  # two_S == N is the edge, allowed

    def test_ring_too_short(self):
        with pytest.raises(ParameterError):
            make_params(0, 1, J=1.0)

    def test_nonfinite_couplings(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                make_params(4, 1, J=bad)
        with pytest.raises(ParameterError):
            make_params(4, 1, J=1.0, g=math.nan)

    def test_frozen(self):
        p = make_params(4, 1, J=1.0)
        with pytest.raises(AttributeError):
            p.J = 2.0


class TestEnumeration:
    def test_small_sector_against_brute_force(self):
        sec = enumerate_sector(4, 1, 1)
        assert sec.dim == 10
        assert sec.states == brute_sector(4, 1, 1)

    def test_ordering_central_then_bits(self):
        sec = enumerate_sector(6, 3, 1)
        keys = [(c, b) for c, b in sec.states]
        assert keys == sorted(keys)

    def test_dimension_formula_matches_enumeration(self):
        for N, two_S, two_m in [(4, 1, 1), (4, 2, 0), (6, 3, -3), (8, 2, 2)]:
            assert sector_dimension(N, two_S, two_m) == enumerate_sector(N, two_S, two_m).dim
            assert sector_dimension(N, two_S, two_m) == len(brute_sector(N, two_S, two_m))

    def test_layout_gives_each_central_level_its_slice(self):
        # (6, 5, -9) holds central indices 4 and 5 only: the others need n_up < 0
        for N, two_S, two_m in [(4, 1, 1), (6, 3, -3), (8, 2, 2), (6, 5, -9), (10, 7, -1)]:
            sec = enumerate_sector(N, two_S, two_m)
            layout = core.sector_layout(N, two_S, two_m)
            assert layout[0].start == 0 and layout[-1].stop == sec.dim
            for s, after in zip(layout, layout[1:]):
                assert s.stop == after.start and s.central < after.central
            for s in layout:
                assert set(sec.central[s.start:s.stop].tolist()) == {s.central}
                assert set(sec.n_up[s.start:s.stop].tolist()) == {s.n_up}
                assert s.stop - s.start == math.comb(N, s.n_up)

    def test_layout_refuses_before_enumerating(self):
        # C(22, 11) + C(22, 10) + C(22, 9) + C(22, 8) = 2,169,268 states
        with pytest.raises(SectorCapacityError, match="2169268"):
            core.sector_layout(22, 3, 3)
        with pytest.raises(ParameterError, match="overflow int64"):
            core.sector_layout(62, 3, 59)
        with pytest.raises(EmptySector):
            core.sector_layout(4, 2, 1)
        # the dimension itself refuses nothing
        assert sector_dimension(22, 3, 3) == 2_169_268
        assert sector_dimension(4, 2, 1) == 0

    def test_sector_dims_sum_to_full_space(self):
        # summing over every magnetization must tile (2S+1) * 2^N
        for N, two_S in [(4, 1), (4, 4), (6, 2), (8, 3)]:
            total = sum(
                sector_dimension(N, two_S, two_m)
                for two_m in range(-(two_S + N), two_S + N + 1)
            )
            assert total == (two_S + 1) * 2**N

    def test_index_roundtrip(self):
        sec = enumerate_sector(6, 2, 0)
        for i in range(sec.dim):
            c, b = sec.state(i)
            assert sec.index_of(c, b) == i

    def test_index_of_missing_state(self):
        sec = enumerate_sector(4, 1, 1)
        with pytest.raises(KeyError):
            sec.index_of(0, 0)  # wrong occupation for this sector

    def test_index_roundtrip_star_sector(self):
        sec = enumerate_sector(8, 3, 1)
        for i, (c, b) in enumerate(sec.states):
            assert sec.index_of(c, b) == i
        np.testing.assert_array_equal(sec.positions(sec.keys), np.arange(sec.dim))

    def test_index_of_missing_state_star_sector(self):
        sec = enumerate_sector(8, 3, 1)
        # wrong occupation, beyond the last key, central index beyond two_S
        for c, b in [(0, 0), (3, 0b11111111), (4, 0b00011111)]:
            with pytest.raises(KeyError):
                sec.index_of(c, b)
        with pytest.raises(KeyError):
            sec.positions(np.append(sec.keys[:5], 0))

    def test_bath_sector(self):
        sec = enumerate_bath_sector(16, 8)
        assert sec.dim == math.comb(16, 8) == 12870
        assert sec.is_bath
        assert set(sec.n_up.tolist()) == {8}

    def test_bath_sector_out_of_range(self):
        with pytest.raises(EmptySector):
            enumerate_bath_sector(4, 5)

    def test_empty_sector_out_of_range(self):
        with pytest.raises(EmptySector):
            enumerate_sector(4, 2, 8)

    def test_empty_sector_parity_mismatch(self):
        # two_m must have the parity of two_S + N
        with pytest.raises(EmptySector):
            enumerate_sector(4, 2, 1)
        with pytest.raises(EmptySector):
            enumerate_sector(4, 1, 0)

    def test_capacity_cap(self):
        # C(24, 12) = 2704156 sits just above the cap
        with pytest.raises(SectorCapacityError):
            enumerate_bath_sector(24, 12)

    def test_tags(self):
        assert enumerate_sector(4, 1, 1).tag == "N=4:2S=1:2m=1"

    def test_two_Sm(self):
        sec = enumerate_sector(4, 3, 1)
        assert sec.two_Sm(0) == 3
        assert sec.two_Sm(3) == -3

    def test_cached_arrays_refuse_writes(self):
        sec = enumerate_sector(6, 2, 2)
        for arr in (sec.central, sec.bits, sec.n_up, sec.keys):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_keys_that_overflow_int64_are_refused(self):
        # (3 << 62) | bits needs 64 bits
        with pytest.raises(ParameterError):
            enumerate_sector(62, 3, 59)

    def test_largest_key_round_trips(self):
        # two_m = 57 ends on the state with central index 3 and every ring spin up
        sec = enumerate_sector(60, 3, 57)
        top = (3 << 60) | ((1 << 60) - 1)
        assert int(sec.keys[-1]) == top
        assert sec.index_of(3, (1 << 60) - 1) == sec.dim - 1
        assert (sec.keys > 0).all()


@pytest.mark.parametrize("N", [*range(17), 40, 61])
def test_bit_patterns_match_combinations(N):
    # every filling up to N = 16; the edges of the long rings, whose middle is too big
    fillings = range(N + 1) if N <= 16 else (0, 1, 2, N - 2, N - 1, N)
    for n_up in fillings:
        got = core._bit_patterns(N, n_up)
        want = sorted(sum(1 << a for a in c) for c in itertools.combinations(range(N), n_up))
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert (np.diff(got) > 0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_enumeration_matches_brute_force_everywhere(two_S, data):
    N = data.draw(st.sampled_from([2, 4, 6]))
    two_S = min(two_S, N)
    two_m = data.draw(st.integers(-(two_S + N), two_S + N))
    try:
        sec = enumerate_sector(N, two_S, two_m)
    except EmptySector:
        assert brute_sector(N, two_S, two_m) == []
        return
    assert sec.states == brute_sector(N, two_S, two_m)


class TestStateVector:
    def test_single_normalizes(self):
        sec = enumerate_sector(4, 1, 1)
        st_ = StateVector.single(sec, np.ones(sec.dim))
        assert st_.norm() == pytest.approx(1.0)

    def test_single_keeps_raw_when_asked(self):
        sec = enumerate_sector(4, 1, 1)
        st_ = StateVector.single(sec, np.ones(sec.dim), renormalize=False)
        assert st_.norm() == pytest.approx(math.sqrt(sec.dim))

    def test_zero_vector_rejected(self):
        sec = enumerate_sector(4, 1, 1)
        with pytest.raises(StarError):
            StateVector.single(sec, np.zeros(sec.dim))

    def test_block_length_mismatch(self):
        sec = enumerate_sector(4, 1, 1)
        with pytest.raises(StarError):
            StateVector.single(sec, np.ones(sec.dim + 1))

    def test_multi_block_layout(self):
        a = enumerate_sector(4, 2, 0)
        b = enumerate_sector(4, 2, 2)
        st_ = StateVector.from_blocks([(a, np.ones(a.dim)), (b, 2.0 * np.ones(b.dim))])
        assert st_.n_blocks == 2
        assert st_.dim == a.dim + b.dim
        assert st_.offsets == (0, a.dim)
        # relative weights survive the global normalization
        ratio = abs(st_.block(1)[0] / st_.block(0)[0])
        assert ratio == pytest.approx(2.0)

    def test_require_single(self):
        a = enumerate_sector(4, 2, 0)
        b = enumerate_sector(4, 2, 2)
        st_ = StateVector.from_blocks([(a, np.ones(a.dim)), (b, np.ones(b.dim))])
        with pytest.raises(StarError):
            st_.require_single()
        sec, amps = StateVector.single(a, np.ones(a.dim)).require_single()
        assert sec is a and amps.size == a.dim

    def test_copy_is_deep_for_amps(self):
        sec = enumerate_sector(4, 1, 1)
        st_ = StateVector.single(sec, np.ones(sec.dim))
        cp = st_.copy()
        cp.amps[0] = 0.0
        assert st_.amps[0] != 0.0

    def test_empty_blocks_rejected(self):
        with pytest.raises(StarError):
            StateVector.from_blocks([])


def test_capacity_constant_is_sane():
    assert core.SECTOR_CAPACITY >= math.comb(16, 8)
