"""Initial states and the closed-form sub-ground eigenstates.

The ring starts in the alternating (antiferromagnetic) product state or
in the spin coherent state, the Dicke states of the maximal multiplet
weighted by :func:`coherent_coefficients`; the central spin starts
polarized or in an equal-weight superposition (:func:`central_initial`).
Each run writes its state straight onto star blocks made from the blocks
of their ring fillings (:func:`core.star_block`), so no star sector is
enumerated: the coherent ring on dihedral orbit blocks
(:func:`coherent_block_state`), the alternating ring on whole sectors
(:func:`neel_block_state`). The tests and ``verify`` check both against
the product states of :func:`verify.reference_state`.

The sub-ground eigenstates of the isotropic star are assembled in
closed form: a string of coefficients couples the central levels to
the ring multiplet grown from the bottom of one magnetization block.
The coefficients depend only on quantum numbers, never on the
couplings, which is what the tests pin down.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import (
    SectorSlice,
    StateVector,
    enumerate_bath_sector,
    enumerate_sector,
    sector_layout,
    star_block,
)
from .errors import ParameterError, StarError
from .operators import apply_bath_lowering
from . import spectrum


def _neel_bits(N: int) -> int:
    """Ring bits of the alternating state: site 1 down, every even site up."""
    return sum(1 << a for a in range(1, N, 2))


def neel_block_state(N: int, two_S: int, central: np.ndarray, rings) -> StateVector:
    """sum_c central[c] |c> x (alternating ring) on whole star sectors, each
    a :class:`core.StarBlock` made from ``rings[n]``, the whole-sector
    :class:`operators.RingPiece` of every filling n. Blocks come in
    ascending c, one per occupied central level.
    """
    at = int(np.searchsorted(rings[N // 2].bits, _neel_bits(N)))
    blocks = []
    for c in np.flatnonzero(central).tolist():
        block = star_block(N, two_S, two_S - 2 * c, rings)
        amps = np.zeros(block.dim, dtype=np.complex128)
        amps[next(s.start for s in block.slices if s.central == c) + at] = central[c]
        blocks.append((block, amps))
    return StateVector.from_blocks(blocks, renormalize=False)


def central_initial(two_S: int, kind: str) -> np.ndarray:
    """Amplitudes over the central levels, index 0 being S_m = S.

    ``polarized`` puts all weight on the top level; ``uniform`` spreads
    equal real weight over all two_S + 1 levels.
    """
    if kind == "polarized":
        amps = np.zeros(two_S + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    if kind == "uniform":
        return np.full(two_S + 1, 1.0 / math.sqrt(two_S + 1), dtype=np.complex128)
    raise ParameterError(f"unknown central state kind {kind!r}")


def coherent_coefficients(N: int, theta: float, phi: float) -> np.ndarray:
    """Dicke weights Q_n, n = 0 .. N up spins, of the spin coherent state
    pointing along (theta, phi): a complex (N + 1,) array, sum |Q_n|^2 = 1.

    Q_n = z^n / (1 + |z|^2)^(N/2) * sqrt(C(N, n)) with
    z = cot(theta/2) exp(-i phi). Magnitudes are assembled in log space
    so large N stays stable; theta = 0 and theta = pi collapse onto the
    fully polarized states and are special-cased to avoid log(0).
    """
    if not (0.0 <= theta <= math.pi):
        raise ParameterError(f"theta={theta} outside [0, pi]")
    if not math.isfinite(phi):
        raise ParameterError(f"phi={phi} is not finite")
    Q = np.zeros(N + 1, dtype=np.complex128)
    if theta == 0.0:
        Q[N] = 1.0
    elif theta == math.pi:
        Q[0] = 1.0
    else:
        log_cos = math.log(math.cos(0.5 * theta))
        log_sin = math.log(math.sin(0.5 * theta))
        for n in range(N + 1):
            log_mag = (0.5 * (math.lgamma(N + 1) - math.lgamma(n + 1)
                              - math.lgamma(N - n + 1))
                       + n * log_cos + (N - n) * log_sin)
            Q[n] = math.exp(log_mag) * cmath.exp(-1j * n * phi)
    return Q


def coherent_block_state(N: int, two_S: int, theta: float, phi: float,
                         rings) -> StateVector:
    """|S_m = S> x (coherent ring) written on dihedral orbit blocks.

    The star state with n ring spins up is Q_n / sqrt(C(N, n)) on every
    state of central index 0 in its sector, so its orbit sums (Q^T v in
    :class:`core.OrbitBlock`) are x_o = Q_n sqrt(size_o / C(N, n)) on the
    orbits of central index 0, the first slice of the block, and zero
    elsewhere. Each block is a :class:`core.StarBlock` made from
    ``rings[n]``, the ring orbit block (or :class:`operators.RingPiece`) of
    every filling n the block holds. Blocks come in ascending n, one per
    filling of nonzero weight.
    """
    Q = coherent_coefficients(N, theta, phi)
    blocks = []
    for n in np.flatnonzero(Q).tolist():
        block = star_block(N, two_S, two_S + 2 * n - N, rings)
        amps = np.zeros(block.dim, dtype=np.complex128)
        top = block.slices[0]
        amps[top.start:top.stop] = Q[n] * np.sqrt(block.size[top.start:top.stop]
                                                  / math.comb(N, n))
        blocks.append((block, amps))
    return StateVector.from_blocks(blocks, renormalize=False)


def _sq_coefficient(two_a: int, two_am: int, two_b: int, two_m: int) -> Fraction:
    """Exact squared magnitude of one string coefficient.

    Shared by both branches after the substitution that swaps the roles
    of the central spin and the ring multiplet: ``two_a`` is the
    doubled spin whose levels are summed over (S, or l in the swapped
    branch), ``two_am`` the doubled running level, ``two_b`` the
    doubled partner spin.
    """
    a = (two_b + two_m - two_am) // 2
    b = (two_b - two_m + two_am) // 2
    c = (two_b + two_m - two_a) // 2
    d = (two_b - two_m + two_a) // 2
    for v in (a, b, c, d):
        if v < 0:
            raise StarError("negative factorial argument in coefficient string")
    binom = math.comb(two_a, (two_a + two_am) // 2)
    num = math.factorial(a) * math.factorial(b)
    den = math.factorial(c) * math.factorial(d)
    return Fraction(binom) * Fraction(num, den)


def subground_coefficients(two_S: int, two_l: int, two_m: int
                           ) -> list[tuple[int, float]]:
    """Level-coupling coefficients of the sub-ground state (l, m).

    For S <= l the list pairs each doubled central level two_Sm with

        A_{S_m} = (-1)^(S - S_m) sqrt(C(2S, S + S_m))
                  * sqrt((l + m - S_m)! (l - m + S_m)!
                         / ((l + m - S)! (l - m + S)!))

    so the top coefficient A_S is +1. For l < S the same string runs
    over the ring levels two_lm with S and l swapped. The coefficients
    are unnormalized; squared magnitudes are exact rationals evaluated
    here through integer arithmetic, so the square root is the only
    rounding step.
    """
    if two_l % 2 != 0:
        raise ParameterError("the ring multiplet label two_l must be even")
    two_j = abs(two_l - two_S)
    if abs(two_m) > two_j or (two_m - two_j) % 2 != 0:
        raise ParameterError(
            f"two_m={two_m} invalid for the multiplet two_j={two_j}")
    # the string runs over the levels of the smaller spin a against the larger b
    two_a, two_b = (two_S, two_l) if two_S <= two_l else (two_l, two_S)
    out = []
    for two_am in range(two_a, -two_a - 1, -2):
        sq = _sq_coefficient(two_a, two_am, two_b, two_m)
        sign = -1.0 if ((two_a - two_am) // 2) % 2 else 1.0
        out.append((two_am, sign * math.sqrt(sq)))
    return out


def subground_squared_norm(two_S: int, two_l: int) -> Fraction:
    """Exact squared norm of the unnormalized top-weight string (m = l - S).

    Evaluates sum_{S_m} A_{S_m}^2 at two_m = two_l - two_S in rational
    arithmetic. Equals C(2l + 1, 2S) for every S <= l, the closed-form
    identity behind the normalized prefactor.
    """
    if two_S > two_l:
        raise ParameterError("the top-weight identity needs S <= l")
    two_m = two_l - two_S
    total = Fraction(0)
    for two_Sm in range(two_S, -two_S - 1, -2):
        total += _sq_coefficient(two_S, two_Sm, two_l, two_m)
    return total


def _multiplet_levels(N: int, two_l: int, two_lm_stop: int, seed: StateVector | None):
    """Yield ``(two_lm, level)`` down the bottom ring multiplet of block l,
    from two_lm = two_l to ``two_lm_stop``: the seed, then each lowering
    normalized. Only the level being lowered and its image are held."""
    if seed is None:
        _, seed = spectrum.bath_subground_state(N, two_l)
    current = seed
    yield two_l, current
    for two_lm in range(two_l - 2, two_lm_stop - 2, -2):
        src, amps = current.require_single()
        dst = enumerate_bath_sector(N, (two_lm + N) // 2)
        lowered = apply_bath_lowering(src, amps, dst)
        nrm = np.linalg.norm(lowered)
        if nrm < 1e-12:
            raise StarError(f"lowering annihilated the multiplet at two_lm={two_lm}")
        lowered /= nrm
        current = StateVector(sectors=(dst,), amps=lowered, offsets=(0,))
        yield two_lm, current


def bath_multiplet(N: int, two_l: int, two_lm_stop: int | None = None,
                   seed: StateVector | None = None) -> dict[int, StateVector]:
    """Bottom ring multiplet of block l, resolved over its levels.

    Solves the block l_m = l once, unless its bottom state is passed as
    ``seed`` (from :func:`spectrum.bath_subground_state`), then walks
    down with the total ring lowering operator, normalizing after every
    step. Returns a map two_lm -> state for two_lm = two_l down to
    ``two_lm_stop`` (default: all the way to -two_l).
    """
    if two_lm_stop is None:
        two_lm_stop = -two_l
    if two_lm_stop < -two_l or two_lm_stop > two_l or (two_lm_stop - two_l) % 2 != 0:
        raise ParameterError(f"two_lm_stop={two_lm_stop} invalid for two_l={two_l}")
    return dict(_multiplet_levels(N, two_l, two_lm_stop, seed))


def subground_layout(N: int, two_S: int, two_l: int, two_m: int) -> list[SectorSlice]:
    """Layout of the star sector that holds the sub-ground state (l, m).

    Refuses, before any ring solve, an l outside the ring or an m outside
    the multiplet j = |l - S| (ParameterError), and the sector refusals
    of :func:`core.sector_layout`: keys beyond int64 and a sector beyond
    the cap.
    """
    if two_l % 2 != 0 or not 0 <= two_l <= N:
        raise ParameterError(f"two_l={two_l} invalid for N={N}")
    two_j = abs(two_l - two_S)
    if abs(two_m) > two_j or (two_m - two_j) % 2 != 0:
        raise ParameterError(f"two_m={two_m} invalid for two_j={two_j}")
    return sector_layout(N, two_S, two_m)


def subground_amplitudes(N: int, two_S: int, two_l: int, two_m: int,
                         multiplet: dict[int, StateVector] | None = None,
                         seed: StateVector | None = None) -> np.ndarray:
    """Normalized amplitudes of the sub-ground state (l, m), in the order
    of ``enumerate_sector(N, two_S, two_m)``, built without that sector.

    The term of central index c is A_c times one multiplet level, whose
    ring filling is the one of slice c in :func:`subground_layout`; both
    come in ascending-bit order, so the term is added into that slice of
    one zeroed buffer as is, as the lowering produces the level. Slices
    no term reaches (l < S) stay zero. The buffer is then divided by its
    norm in place. ``multiplet`` and ``seed`` are as in
    :func:`subground_state`.
    """
    layout = subground_layout(N, two_S, two_l, two_m)
    coeffs = subground_coefficients(two_S, two_l, two_m)
    # ring level two_lm -> (central index, coefficient) of its term
    if two_S <= two_l:
        terms = {two_m - two_Sm: ((two_S - two_Sm) // 2, coeff) for two_Sm, coeff in coeffs}
    else:
        terms = {two_lm: ((two_S - two_m + two_lm) // 2, coeff) for two_lm, coeff in coeffs}
    if multiplet is None:
        levels = _multiplet_levels(N, two_l, min(terms), seed)
    else:
        levels = ((two_lm, multiplet[two_lm]) for two_lm in terms)
    slices = {s.central: s for s in layout}
    amps = np.zeros(layout[-1].stop, dtype=np.complex128)
    for two_lm, level in levels:
        if two_lm not in terms:
            continue
        c, coeff = terms[two_lm]
        ring, ring_amps = level.require_single()
        if (ring.N, ring.two_S, ring.two_m) != (N, 0, two_lm):
            raise StarError(f"multiplet level two_lm={two_lm} lives on {ring.tag}")
        part = slices[c]
        amps[part.start:part.stop] += coeff * ring_amps
    nrm = float(np.linalg.norm(amps))
    amps /= nrm
    return amps


def subground_state(N: int, two_S: int, two_l: int, two_m: int,
                    multiplet: dict[int, StateVector] | None = None,
                    seed: StateVector | None = None) -> StateVector:
    """Closed-form sub-ground eigenstate of the isotropic star.

    Assembles sum over levels of coefficient * |central level> x |ring
    multiplet level> inside the star sector two_m and normalizes
    (:func:`subground_amplitudes`). The result is an exact eigenstate of
    the star for every J and g, with total angular momentum j = |l - S|;
    the couplings enter only through the energy, never the state.

    A precomputed ``multiplet`` from :func:`bath_multiplet` can be
    passed to amortize the ring solve across many (l, m) requests;
    otherwise the multiplet is lowered from ``seed``, the bottom state of
    block l_m = l, which is solved here when it is not given.
    """
    amps = subground_amplitudes(N, two_S, two_l, two_m, multiplet=multiplet, seed=seed)
    return StateVector(sectors=(enumerate_sector(N, two_S, two_m),), amps=amps, offsets=(0,))
