"""Initial states and the closed-form sub-ground eigenstates.

The ring starts in the alternating (antiferromagnetic) product state or
in the spin coherent state, the Dicke states of the maximal multiplet
weighted by :func:`coherent_coefficients`; the central spin starts
polarized or in an equal-weight superposition (:func:`central_initial`).
Each run writes its state straight onto star blocks made from the blocks
of their ring fillings (:func:`core.star_block`), so no star sector is
enumerated: the coherent ring on dihedral orbit blocks
(:func:`coherent_block_state`), the alternating ring on sublattice orbit
blocks (:func:`neel_block_state`). The tests and ``verify`` check both
against the product states of :func:`verify.reference_state`.

The sub-ground eigenstates of the isotropic star are assembled in
closed form by :func:`subground_amplitudes`: a string of real
coefficients couples the central levels to the ring multiplet lowered
from the real bottom of one magnetization block, which the caller solves
once with :func:`spectrum.bath_subground_state` and passes in; this
module solves nothing, and the state is float64 throughout. The walk
down that multiplet, on sublattice orbit blocks, certifies that the seed
carries ring angular momentum exactly l. The coefficients depend only on
quantum numbers, never on the couplings, which is what the tests pin down.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import (
    BasisSector,
    SectorSlice,
    StateVector,
    enumerate_bath_sector,
    orbit_block,
    sector_layout,
    star_block,
)
from .errors import ParameterError, StarError
from .operators import _lowering


def neel_block_state(N: int, two_S: int, central: np.ndarray, rings) -> StateVector:
    """sum_c central[c] |c> x (alternating ring) on sublattice orbit blocks,
    each a :class:`core.StarBlock` made from ``rings[n]``, the sublattice
    ring orbit block (or :class:`operators.RingPiece`) of every filling n.
    The alternating ring (site 1 down, every even site up) is a one-state
    orbit of that group only, so q_o is the state itself; ParameterError
    for dihedral rings. Blocks come in ascending c, one per occupied level.
    """
    if not rings[N // 2].sublattice:
        raise ParameterError("the alternating ring is an orbit of the sublattice group only")
    at = int(np.searchsorted(rings[N // 2].bits, sum(1 << a for a in range(1, N, 2))))
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
    fully polarized states and are special-cased to avoid log(0), each
    the limit of the formula: Q_N = exp(-i N phi) at theta = 0, Q_0 = 1
    at theta = pi.
    """
    if not (0.0 <= theta <= math.pi):
        raise ParameterError(f"theta={theta} outside [0, pi]")
    if not math.isfinite(phi):
        raise ParameterError(f"phi={phi} is not finite")
    Q = np.zeros(N + 1, dtype=np.complex128)
    if theta == 0.0:
        Q[N] = cmath.exp(-1j * N * phi)
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
                         seed: tuple[BasisSector, np.ndarray]) -> np.ndarray:
    """Normalized float64 amplitudes of the sub-ground state (l, m), in the
    order of ``enumerate_sector(N, two_S, two_m)``, built without that sector.

    ``seed`` is the bottom of ring block l_m = l, the pair (ring sector,
    float64 amplitudes) that :func:`spectrum.bath_subground_state`
    returns. The state is
    sum over levels of coefficient * |central level> x |ring multiplet
    level>: an exact eigenstate of the isotropic star for every J and g,
    with total angular momentum j = |l - S|; the couplings enter only
    through the energy, never the state.

    The multiplet is walked on sublattice orbit blocks: the seed M x (x
    constant on dihedral orbits, M the Marshall sign, which the sublattice
    group keeps) is constant on each sublattice orbit, else StarError. It
    is folded onto them, x_o = sqrt(size_o) v_s, and lowered by
    :func:`operators._lowering`, exact there since L- commutes with every
    ring permutation, normalizing after every step, to the lowest level a
    term needs; only the block being lowered and its image are held. The
    term of central index c, A_c times the level of slice c's filling in
    :func:`subground_layout`, is written into that slice of one zeroed
    float64 buffer as v_s = x_o / sqrt(size_o) through the block's
    ``label``, so an orbit's states share their bits; the seed's term is
    the seed as given. Slices no term reaches (l < S) stay zero, and the
    buffer is divided by its norm in place.

    The walk certifies the seed: every rung must have the ladder norm
    |L-|l, m>|^2 = (l + m)(l - m + 1) to 1e-9 relative, else StarError.
    The seed is normalized and has l_m = l, so its components all have
    total spin L >= l, and its first rung is the sum of their weights
    times (L + l)(L - l + 1), which is 2l for L = l and larger for every
    L > l. So the first rung holds only if all of the seed's weight is
    on L = l. At l = 0 no term needs a lowering, so the seed is lowered
    once more, and the image must vanish. So the seed needs no solve of
    block l + 1 for the strict gap E1b(l) < E1b(l + 1), which certifies
    the same by the same Perron-Frobenius argument (see
    :func:`spectrum.bath_subground_state`).
    """
    layout = subground_layout(N, two_S, two_l, two_m)
    coeffs = subground_coefficients(two_S, two_l, two_m)
    # ring level two_lm -> (central index, coefficient) of its term
    if two_S <= two_l:
        terms = {two_m - two_Sm: ((two_S - two_Sm) // 2, coeff) for two_Sm, coeff in coeffs}
    else:
        terms = {two_lm: ((two_S - two_m + two_lm) // 2, coeff) for two_lm, coeff in coeffs}
    ring, level = seed
    if (ring.N, ring.two_S, ring.two_m) != (N, 0, two_l):
        raise StarError(f"the seed of two_l={two_l} lives on {ring.tag}")
    block = orbit_block(ring, sublattice=True)
    x = level[ring.positions(block.keys)]
    if not np.array_equal(x[block.label], level):
        raise StarError(f"the seed of two_l={two_l} is not constant on the sublattice orbits")
    x *= np.sqrt(block.size)
    slices = {s.central: s for s in layout}
    amps = np.zeros(layout[-1].stop)
    # at l = 0 no term needs a lowering, but the certificate needs one
    for two_lm in range(two_l, min(*terms, two_l - 2) - 2, -2):
        if two_lm < two_l:
            dst = orbit_block(enumerate_bath_sector(N, (two_lm + N) // 2), sublattice=True)
            x = _lowering(block, dst) @ x
            nrm = np.linalg.norm(x)
            # |L-|l, m>|^2 = (l + m)(l - m + 1), m the level lowered
            rung = (two_l + two_lm + 2) * (two_l - two_lm) // 4
            if abs(nrm * nrm - rung) > 1e-9 * max(rung, 1):
                raise StarError(f"the seed is not in the multiplet l={two_l // 2}: lowering to"
                                f" two_lm={two_lm} gave |L-|^2 = {nrm * nrm:.12g}, want {rung}")
            if rung == 0:  # the l = 0 check, past the last term
                break
            x /= nrm
            block = dst
        if two_lm in terms:
            c, coeff = terms[two_lm]
            amps[slices[c].start:slices[c].stop] = coeff * level if two_lm == two_l \
                else (coeff * x / np.sqrt(block.size))[block.label]
    amps /= np.linalg.norm(amps)
    return amps
