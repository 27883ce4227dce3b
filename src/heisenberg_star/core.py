"""Model parameters, magnetization sectors, and state vectors.

Conventions used everywhere in the package:

* Spin quantum numbers are carried as doubled integers (``two_S``,
  ``two_m``, ``two_l``) so that half-integer central spins stay exact.
* A bath configuration is an N-bit integer. Bit ``i`` (LSB is site 1)
  set means spin-up at site ``i + 1``. The ring bond (N, 1) wraps
  through bit ``N - 1`` and bit 0.
* A sector collects every product state ``|central_index, bits>`` with
  fixed total magnetization ``two_m = two_Sm + (2 n_up - N)`` where
  ``two_Sm = two_S - 2 * central_index``. ``central_index`` 0 is the
  maximal central level ``S_m = S``.
* Bath-only sectors reuse the same container with ``two_S = 0`` and a
  single central level.
* An orbit block keeps one state per ring orbit of the dihedral group,
  or of its subgroup that maps each sublattice onto itself (rotations by
  two sites and the reflection bit a -> bit -a mod N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CentralSpinTooLarge,
    EmptySector,
    OddBathSize,
    ParameterError,
    SectorCapacityError,
    StarError,
)

# Hard cap on sector dimension; enumeration is eager and keeps four
# int64 arrays per sector, so refuse anything beyond desk scale.
SECTOR_CAPACITY = 2_000_000


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the star in natural units (hbar = 1).

    ``J`` and ``Jp`` are the transverse and longitudinal intrabath
    couplings (equal for the isotropic ring), ``g`` the central-bath
    coupling, ``omega`` a field on the central spin only, and
    ``gt = g * sqrt(N)`` the collective coupling that sets the time
    scale of the central-spin motion.
    """

    N: int
    two_S: int
    J: float
    Jp: float
    g: float
    omega: float

    @property
    def S(self) -> float:
        return self.two_S / 2.0

    @property
    def gt(self) -> float:
        return self.g * math.sqrt(self.N)

    @property
    def isotropic(self) -> bool:
        return self.J == self.Jp


def make_params(
    N: int,
    two_S: int,
    J: float,
    Jp: float | None = None,
    g: float = 1.0,
    omega: float = 0.0,
) -> ModelParams:
    """Validate the model and store its couplings as floats.

    ``Jp=None`` means an isotropic ring (``Jp = J``).
    """
    if not isinstance(N, int) or N < 2:
        raise ParameterError(f"ring length must be an integer >= 2, got {N!r}")
    if N % 2 != 0:
        raise OddBathSize(f"ring length must be even, got N={N}")
    if not isinstance(two_S, int) or two_S < 1:
        raise ParameterError(f"two_S must be an integer >= 1, got {two_S!r}")
    if two_S > N:
        raise CentralSpinTooLarge(f"two_S={two_S} exceeds the bath maximum N={N}")
    if Jp is None:
        Jp = J
    for name, value in (("J", J), ("Jp", Jp), ("g", g), ("omega", omega)):
        if not math.isfinite(value):
            raise ParameterError(f"coupling {name} must be finite, got {value!r}")
    return ModelParams(
        N=N,
        two_S=two_S,
        J=float(J),
        Jp=float(Jp),
        g=float(g),
        omega=float(omega),
    )


def _bit_patterns(n_sites: int, n_up: int) -> np.ndarray:
    """Every n_sites-bit integer with exactly n_up set bits, ascending, as int64.

    Ascending order is colex order, so pattern r has rank r in the
    combinatorial number system: r = sum_k C(c_k, k) over its set bits
    c_n_up > ... > c_1. For k = n_up down to 1, the top remaining bit of
    every rank is the largest c with C(c, k) <= r, one ``searchsorted``
    over the column C(0..n_sites-1, k) for all ranks at once.
    """
    rank = np.arange(math.comb(n_sites, n_up), dtype=np.int64)
    bits = np.zeros_like(rank)
    for k in range(n_up, 0, -1):
        column = np.array([math.comb(c, k) for c in range(n_sites)], dtype=np.int64)
        top = np.searchsorted(column, rank, side="right") - 1
        bits |= np.left_shift(1, top, dtype=np.int64)
        rank -= column[top]
    return bits


@dataclass(frozen=True, eq=False)
class BasisSector:
    """Ordered basis of one total-magnetization sector.

    States are sorted by ascending ``central_index`` and then ascending
    ``bath_bits``; the arrays ``central``, ``bits``, ``n_up`` and
    ``keys`` are parallel. ``keys`` holds the packed key
    ``(central_index << N) | bits``, which that ordering leaves sorted,
    so a binary search maps a key back to its position.
    """

    N: int
    two_S: int
    two_m: int
    central: np.ndarray
    bits: np.ndarray
    n_up: np.ndarray
    keys: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.bits)

    @property
    def is_bath(self) -> bool:
        return self.two_S == 0

    @property
    def tag(self) -> str:
        return f"N={self.N}:2S={self.two_S}:2m={self.two_m}"

    def index_of(self, central_index: int, bath_bits: int) -> int:
        """Position of the product state, KeyError if not in the sector."""
        return int(self.positions(np.array([(central_index << self.N) | bath_bits]))[0])

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Positions of an array of packed keys, KeyError if any is missing."""
        pos = np.searchsorted(self.keys, keys)
        found = self.keys[np.minimum(pos, self.dim - 1)] == keys
        if not found.all():
            missing = int(np.asarray(keys)[~found][0])
            raise KeyError(f"state ({missing >> self.N}, {missing & ((1 << self.N) - 1):#b})"
                           f" is not in sector {self.tag}")
        return pos

    def state(self, i: int) -> tuple[int, int]:
        return int(self.central[i]), int(self.bits[i])

    @property
    def states(self) -> list[tuple[int, int]]:
        return [(int(c), int(b)) for c, b in zip(self.central, self.bits)]

    def two_Sm(self, central_index: int) -> int:
        return self.two_S - 2 * central_index

    def __repr__(self) -> str:  # keep reprs short, sectors can be huge
        return f"BasisSector({self.tag}, dim={self.dim})"


def _fillings(N: int, two_S: int, two_m: int) -> list[tuple[int, int]]:
    """``(central_index, n_up)`` of every central level the sector holds,
    in ascending central index: the ring filling n_up that the level
    S_m = S - central_index leaves for the magnetization ``two_m``."""
    out = []
    for c in range(two_S + 1):
        num = two_m - (two_S - 2 * c) + N
        if num % 2 == 0 and 0 <= num // 2 <= N:
            out.append((c, num // 2))
    return out


class SectorSlice(NamedTuple):
    """The states of one central level in a sector: positions
    ``start:stop``, every ring configuration with ``n_up`` spins up in
    ascending-bit order. In a :class:`StarBlock` they count orbits."""

    central: int
    n_up: int
    start: int
    stop: int


def sector_layout(N: int, two_S: int, two_m: int) -> list[SectorSlice]:
    """Where each central level of a sector lies, without materializing it.

    Sector order is ascending central index, then ascending ring bits, so
    slice c holds the C(N, n_c) fillings n_c of central index c one after
    another, and its start is the sum of the binomials before it. Every
    refusal of a sector is made here: OddBathSize, CentralSpinTooLarge,
    ParameterError when a packed key would not fit in int64, EmptySector
    when no product state has the magnetization (out of range, or parity
    mismatch between ``two_m`` and ``two_S``), and SectorCapacityError
    beyond the supported size.
    """
    if N % 2 != 0:
        raise OddBathSize(f"ring length must be even, got N={N}")
    if two_S < 0 or two_S > N:
        raise CentralSpinTooLarge(f"two_S={two_S} outside [0, N={N}]")
    if N + two_S.bit_length() > 63:
        raise ParameterError(
            f"keys (central << N) | bits of N={N}, two_S={two_S} overflow int64"
        )
    if abs(two_m) > two_S + N:
        raise EmptySector(f"|two_m|={abs(two_m)} exceeds two_S + N = {two_S + N}")
    layout = []
    start = 0
    for c, n_up in _fillings(N, two_S, two_m):
        stop = start + math.comb(N, n_up)
        layout.append(SectorSlice(c, n_up, start, stop))
        start = stop
    if not layout:
        raise EmptySector(
            f"no states with two_m={two_m} for N={N}, two_S={two_S}"
            " (parity mismatch)"
        )
    if start > SECTOR_CAPACITY:
        raise SectorCapacityError(
            f"sector dim {start} exceeds the cap {SECTOR_CAPACITY}"
        )
    return layout


def sector_dimension(N: int, two_S: int, two_m: int) -> int:
    """Dimension of the sector without materializing it, 0 when it is empty.

    Unlike :func:`sector_layout` it refuses nothing, so it also counts
    sectors beyond the cap.
    """
    return sum(math.comb(N, n_up) for _, n_up in _fillings(N, two_S, two_m))


def enumerate_sector(N: int, two_S: int, two_m: int) -> BasisSector:
    """Materialize the sector basis and its sorted keys.

    Each call returns a fresh sector whose arrays are read-only; the
    refusals are those of :func:`sector_layout`. The bit patterns come first,
    so their temporaries meet no other array, and are the keys when every
    central index is 0 (a ring sector).
    """
    layout = sector_layout(N, two_S, two_m)
    bits = np.concatenate([_bit_patterns(N, s.n_up) for s in layout])
    counts = [s.stop - s.start for s in layout]
    central = np.repeat(np.array([s.central for s in layout], dtype=np.int64), counts)
    ups = np.repeat(np.array([s.n_up for s in layout], dtype=np.int64), counts)
    keys = bits if layout[-1].central == 0 else (central << N) | bits
    for arr in (central, bits, ups, keys):
        arr.flags.writeable = False
    return BasisSector(N=N, two_S=two_S, two_m=two_m,
                       central=central, bits=bits, n_up=ups, keys=keys)


def enumerate_bath_sector(N: int, n_up: int) -> BasisSector:
    """Basis of the ring-only block with ``n_up`` up spins."""
    if n_up < 0 or n_up > N:
        raise EmptySector(f"n_up={n_up} outside [0, N={N}]")
    return enumerate_sector(N, 0, 2 * n_up - N)


@dataclass(frozen=True, eq=False)
class OrbitBlock(BasisSector):
    """The group-invariant states of one sector, one per ring orbit.

    The ring's N rotations and their reflections (with ``sublattice``,
    the rotations by two sites and their reflections) permute the bits
    of a state and keep its central index. Orbit ``o`` stands for q_o,
    the normalized sum of its ``size[o]`` distinct states; these columns
    of an isometry Q span the group-even states of the sector. ``label``
    gives the orbit of every state of ``sector``. The inherited arrays
    ``central``, ``bits``, ``n_up`` and ``keys`` describe the orbit
    representatives, the smallest key of each orbit, in ascending key
    order, so the builders of :mod:`operators` run on the block as on a
    sector; a hop from a representative lands, through :meth:`positions`,
    on the orbit of its image.
    """

    sector: BasisSector
    label: np.ndarray
    size: np.ndarray
    sublattice: bool

    @property
    def tag(self) -> str:
        return f"{self.sector.tag}:{'sublattice' if self.sublattice else 'dihedral'}"

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Orbits of an array of packed sector keys, KeyError if any is missing."""
        return self.label[self.sector.positions(keys)]

    def __repr__(self) -> str:
        return f"OrbitBlock({self.tag}, dim={self.dim})"


def _least_image(N: int, bits: np.ndarray, step: int) -> np.ndarray:
    """The orbit representative of each N-bit ring configuration in ``bits``,
    its smallest rotation by a multiple of ``step`` or of its reflection bit
    a -> bit -a mod N: dihedral at step 1, sublattice at step 2."""
    mask = (1 << N) - 1
    mirror = np.zeros_like(bits)
    for a in range(N):
        mirror |= ((bits >> a) & 1) << (-a % N)
    least = np.minimum(bits, mirror)
    for r in range(step, N, step):
        for b in (bits, mirror):
            least = np.minimum(least, ((b >> r) | (b << (N - r))) & mask)
    return least


def orbit_block(sector: BasisSector, sublattice: bool = False) -> OrbitBlock:
    """Label each state of a sector by its orbit under the ring's dihedral
    group, or its sublattice subgroup when ``sublattice``: by its least
    image (:func:`_least_image`) at the same central index. The states that
    are their own least image represent the orbits, in the sorted order of
    the sector's keys, among which each state's label finds its image.
    """
    N = sector.N
    least = _least_image(N, sector.bits, 2 if sublattice else 1)
    first = np.flatnonzero(least == sector.bits)
    least |= sector.central << N
    label = np.searchsorted(sector.keys[first], least)
    size = np.bincount(label)
    return OrbitBlock(N=N, two_S=sector.two_S, two_m=sector.two_m,
                      central=sector.central[first], bits=sector.bits[first],
                      n_up=sector.n_up[first], keys=sector.keys[first],
                      sector=sector, label=label, size=size, sublattice=sublattice)


@dataclass(frozen=True, eq=False)
class StarBlock:
    """The orbit block of one star sector, made of ring orbit blocks.

    The ring group keeps the central index, so the orbits of the sector
    are those of its ring fillings, one central level after another.
    ``slices`` holds a :class:`SectorSlice` per central level, its
    ``start:stop`` counting orbits; ``central``, ``bits`` and ``size``
    give every orbit's central index, representative and size, and
    ``sublattice`` the group. They are the orbits, in the order, of
    ``orbit_block`` on the sector, which is never enumerated here, so no
    hop builder runs on a star block.
    """

    N: int
    two_S: int
    two_m: int
    slices: tuple[SectorSlice, ...]
    central: np.ndarray
    bits: np.ndarray
    size: np.ndarray
    sublattice: bool

    @property
    def dim(self) -> int:
        return self.slices[-1].stop

    @property
    def tag(self) -> str:
        group = "sublattice" if self.sublattice else "dihedral"
        return f"N={self.N}:2S={self.two_S}:2m={self.two_m}:{group}"

    def __repr__(self) -> str:
        return f"StarBlock({self.tag}, dim={self.dim})"


def star_block(N: int, two_S: int, two_m: int, rings) -> StarBlock:
    """The block of sector ``two_m`` from the ring blocks of its
    :func:`sector_layout` slices, placed in central-index order.

    ``rings[n]`` holds the representatives ``bits``, orbit ``size`` and
    group ``sublattice`` of ring filling n, as an :class:`OrbitBlock` of
    ``enumerate_bath_sector(N, n)`` does; the refusals are those of
    :func:`sector_layout`.
    """
    layout = sector_layout(N, two_S, two_m)
    parts = [rings[s.n_up] for s in layout]
    slices, start = [], 0
    for s, ring in zip(layout, parts):
        slices.append(SectorSlice(s.central, s.n_up, start, start + ring.bits.size))
        start += ring.bits.size
    central = np.repeat(np.array([s.central for s in slices], dtype=np.int64),
                        [s.stop - s.start for s in slices])
    return StarBlock(N=N, two_S=two_S, two_m=two_m, slices=tuple(slices), central=central,
                     bits=np.concatenate([r.bits for r in parts]),
                     size=np.concatenate([r.size for r in parts]), sublattice=parts[0].sublattice)


def _flip_image(N: int, ring) -> np.ndarray:
    """The representative of the global spin flip's image of each orbit of
    ``ring``, an orbit block or ring piece of one filling (its ``bits`` and
    ``sublattice``). The flip commutes with the rotations and reflections,
    so it maps orbits onto orbits, and the representative of an orbit's
    image is the least image of its complemented representative."""
    return _least_image(N, ((1 << N) - 1) ^ ring.bits, 2 if ring.sublattice else 1)


def _flip_block(block: OrbitBlock) -> OrbitBlock:
    """Merge each orbit of a half-filled ring block with the orbit of its complement.

    The global spin flip maps the half-filled ring block onto itself, so
    it pairs the orbits (:func:`_flip_image`); the merged orbits are those
    of the group times the flip, and their q_o span its even states. Each
    keeps the smaller representative of its pair, so the result is again
    an orbit block in ascending key order.
    """
    partner = np.searchsorted(block.bits, _flip_image(block.N, block))
    first, merged = np.unique(np.minimum(np.arange(block.dim), partner), return_inverse=True)
    return OrbitBlock(N=block.N, two_S=block.two_S, two_m=block.two_m,
                      central=block.central[first], bits=block.bits[first],
                      n_up=block.n_up[first], keys=block.keys[first],
                      sector=block.sector, label=merged[block.label],
                      size=np.bincount(merged, weights=block.size).astype(block.size.dtype),
                      sublattice=block.sublattice)


@dataclass
class StateVector:
    """Complex amplitudes over one or more sectors.

    ``amps`` concatenates the per-sector blocks in the order of
    ``sectors``; ``offsets[i]`` is where block ``i`` starts. Single
    sector states simply have one block.
    """

    sectors: tuple[BasisSector, ...]
    amps: np.ndarray
    offsets: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks, *, renormalize: bool = True) -> "StateVector":
        sectors = []
        parts = []
        offsets = []
        pos = 0
        for sector, amps in blocks:
            arr = np.asarray(amps, dtype=np.complex128).ravel()
            if arr.shape != (sector.dim,):
                raise StarError(
                    f"amplitude block of length {arr.size} does not match"
                    f" sector {sector.tag} of dim {sector.dim}"
                )
            sectors.append(sector)
            parts.append(arr)
            offsets.append(pos)
            pos += sector.dim
        if not parts:
            raise StarError("a state needs at least one sector block")
        vec = np.concatenate(parts)
        if renormalize:
            nrm = float(np.linalg.norm(vec))
            if nrm == 0.0:
                raise StarError("cannot normalize a zero vector")
            vec = vec / nrm
        return cls(sectors=tuple(sectors), amps=vec, offsets=tuple(offsets))

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def n_blocks(self) -> int:
        return len(self.sectors)

    def block(self, i: int) -> np.ndarray:
        """View of block i's amplitudes."""
        start = self.offsets[i]
        return self.amps[start:start + self.sectors[i].dim]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector(sectors=self.sectors, amps=self.amps.copy(), offsets=self.offsets)
