"""Sparse Hermitian operators resolved on one magnetization sector.

Every term here is either diagonal, with elements read off the bit
parities and popcounts of the whole basis at once, or a hop: it raises
some ring spins and lowers others. The private kernel :func:`_hop`
applies a list of hops to the packed keys of a whole sector at once and
finds every image by one binary search in the destination keys.
:func:`build_bath_ring` makes the ring of a ring sector, or of its
:class:`core.OrbitBlock`, with one kernel call; the exchange is emitted
in both directions, so Hermiticity holds by construction and is
asserted in tests.

The quench runs make the pieces of every ring filling once
(:func:`ring_pieces`): the ring Hamiltonian and the ring lowering
(:func:`_lowering`, the one form of L-, which the multiplet walk of
:func:`states.subground_amplitudes` uses too), on the filling's dihedral
orbit block (the coherent run) or sublattice orbit block (the
alternating-state run). Only fillings up to half
filling, and those whose spin-flip mirror the run lacks, are enumerated
and built; every other filling above half filling permutes its mirror's
pieces by the global spin flip. :func:`star_block_operators` places them
block by block in the central index, as a dense array or as CSR rows
without a sort, and gives L^2 as its lowering factor A and diagonal d,
L^2 = A^T A + diag(d). No star sector is built whole here: the tests
and ``verify`` check the pieces against an independent Kronecker
reference (:func:`verify.reference_hamiltonian`) restricted to a sector.

Every entry is real, so each operator holds its canonical CSR arrays in
float64, assembled in numpy (:class:`CSR`). The ring solver and the
sub-ground walk multiply them with a real vector in numpy (``CSR @ x``);
nothing else does. The propagator takes a block up to its DENSE_CUTOFF
as a dense numpy matrix; above it, each observable as a scipy CSR on the
same arrays, and the Hamiltonian as a scipy CSR on the same index
arrays with its entries copied as complex, which makes a product with a
complex vector faster. Only that conversion imports scipy.

Matrix elements follow the usual spin ladder weights. For the central
spin with ``S_m = S - c``:

    S+ |c> -> sqrt(c (two_S - c + 1)) |c - 1>
    S- |c> -> sqrt((two_S - c) (c + 1)) |c + 1>

and a spin-1/2 raise or lower on a ring site carries weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BasisSector,
    OrbitBlock,
    StarBlock,
    _flip_image,
    enumerate_bath_sector,
    orbit_block,
)
from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class CSR:
    """Canonical CSR arrays of a matrix, held in numpy.

    Row r holds the entries ``indptr[r]:indptr[r + 1]``, with ascending,
    distinct column ``indices`` and their values in ``data``. The matrix
    is square unless ``width`` gives its column count. The index arrays
    are int32, the index type scipy picks for them, so :meth:`tocsr`
    wraps the three arrays without a copy.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    width: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n if self.width is None else self.width

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every stored entry, found once per matrix (read-only)."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows, self.indices] = self.data
        return out

    def tocsr(self):
        """The same matrix as a scipy CSR on these arrays; imports scipy.sparse."""
        import scipy.sparse

        return scipy.sparse.csr_array((self.data, self.indices, self.indptr),
                                      shape=self.shape, copy=False)

    def __matmul__(self, x):
        """Product with a real vector: each row sums its entries' products
        in stored order, by one ``np.bincount``, which refuses a complex
        product (TypeError)."""
        return np.bincount(self.rows, self.data * x[self.indices], self.shape[0])


def _csr(dim: int, keys: np.ndarray, vals: np.ndarray, width: int | None = None) -> CSR:
    """Canonical CSR of the entries ``vals`` at ``keys`` = row * width + col,
    with ``dim`` rows and ``width`` (default ``dim``) columns.

    Entries that share a key are summed in the order they come. The
    stable sort merges the ascending runs the builders emit, one per hop.
    """
    cols = dim if width is None else width
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    data = np.add.reduceat(vals, first)
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(dim + 1) * cols)
    return CSR(indptr.astype(np.int32), (keys % cols).astype(np.int32), data, width)


@dataclass
class SparseOperator:
    """Canonical CSR arrays tagged with the sector they act on."""

    sector: BasisSector
    matrix: CSR

    @property
    def tag(self) -> str:
        return self.sector.tag

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"SparseOperator({self.tag}, dim={self.dim}, nnz={self.matrix.nnz})"


def _hop(src: BasisSector, dst: BasisSector, raise_bits=0,
         lower_bits=0) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination positions of the states a list of hops links.

    Hop h raises the ring sites in the mask ``raise_bits[h]`` and lowers
    those in ``lower_bits[h]``; the two take int64 arrays or scalars,
    which broadcast. Source states a hop annihilates (a raised site
    already up, a lowered site already down) are skipped; every other
    image must lie in ``dst``, else KeyError. The pairs come hop by hop,
    in hop order.
    """
    raise_bits, lower_bits = (
        h[:, None] for h in np.broadcast_arrays(*np.atleast_1d(raise_bits, lower_bits)))
    keep = (src.bits & (raise_bits | lower_bits)) == lower_bits
    i = np.broadcast_to(np.arange(src.dim), keep.shape)[keep]
    return i, dst.positions((src.keys + (raise_bits - lower_bits))[keep])


def _ladder_weight(two_S: int, c):
    """Central S+ weight out of level c, equal to the S- weight into it."""
    return np.sqrt(c * (two_S - c + 1))


def build_bath_ring(sector: BasisSector, J: float, Jp: float) -> SparseOperator:
    """Ring Hamiltonian sum_n [J/2 (S+_n S-_{n+1} + h.c.) + Jp Sz_n Sz_{n+1}].

    The bond list runs n = 1..N with site N+1 identified with site 1,
    taken literally: for N = 2 the same pair of sites appears twice and
    the bond is counted twice on purpose. Entries that share a position
    are summed. On an orbit block the columns are representatives and
    the rows the orbits of their images, so the summed entry of row o',
    column o is sum_{s in o'} M[s, r_o]; scaled by sqrt(size[o] / size[o'])
    it is the entry (Q^T M Q)[o', o] of the ring, which commutes with the
    ring's rotations and reflections.
    """
    N, bits = sector.N, sector.bits
    half_J = 0.5 * J
    quarter_Jp = 0.25 * Jp
    diag = np.zeros(sector.dim)
    hops = []
    for a in range(N):
        b = (a + 1) % N
        aligned = ((bits >> a) & 1) == ((bits >> b) & 1)
        diag += np.where(aligned, quarter_Jp, -quarter_Jp)
        hops += [(1 << a, 1 << b), (1 << b, 1 << a)]
    i = j = np.zeros(0, dtype=np.int64)
    if half_J != 0.0:
        i, j = _hop(sector, sector, *np.array(hops).T)
    d = np.flatnonzero(diag)
    rows, cols = np.concatenate([j, d]), np.concatenate([i, d])
    vals = np.concatenate([np.full(i.size, half_J), diag[d]])
    if isinstance(sector, OrbitBlock):
        vals = vals * np.sqrt(sector.size[cols] / sector.size[rows])
    return SparseOperator(sector=sector, matrix=_csr(sector.dim, rows * sector.dim + cols, vals))


def _staggered(N: int, bits: np.ndarray) -> np.ndarray:
    """The staggered magnetization (1/N) sum_j (-1)^j Sz_j of every ring
    configuration in ``bits``, site j = a + 1 being bit a: the alternating
    state with site 1 down has +1/2."""
    total = np.zeros(bits.size)
    for a in range(N):
        sign = -1.0 if a % 2 == 0 else 1.0
        total += sign * (((bits >> a) & 1) - 0.5)
    return total / N


@dataclass(frozen=True, eq=False)
class RingPiece:
    """What ring filling n lends every star block of a run that holds it.

    All of it lives on the dihedral (or, with ``sublattice``, sublattice)
    orbit block of the filling, whose representatives and orbit sizes are
    ``bits`` and ``size``. ``ring`` is H_ring(J, Jp) with every diagonal
    entry stored, at the positions ``diagonal`` of its data.
    ``lowering`` is the orbit form of the ring lowering, Q_{n-1}^T L- Q_n,
    and ``raising`` its transpose Q_n^T L+ Q_{n-1}; both are None at the
    lowest filling of a run that needs no L^2, and at filling 0.
    """

    n_up: int
    bits: np.ndarray
    size: np.ndarray
    sublattice: bool
    ring: CSR
    diagonal: np.ndarray
    lowering: CSR | None
    raising: CSR | None


def _lowering(src: OrbitBlock, dst: OrbitBlock) -> CSR:
    """Q_dst^T L- Q_src from the orbit block of ring filling n to that of
    n - 1, one hop per site. Entry (o', o) is the number of hops from the
    representative of o into o', times sqrt(size[o] / size[o'])."""
    i, j = _hop(src, dst, lower_bits=1 << np.arange(src.N, dtype=np.int64))
    mat = _csr(dst.dim, j * src.dim + i, np.ones(i.size), src.dim)
    np.multiply(mat.data, np.sqrt(src.size[mat.indices] / dst.size[mat.rows]), out=mat.data)
    return mat


def _transpose(mat: CSR) -> CSR:
    """The transpose of a CSR matrix, again canonical."""
    rows, cols = mat.shape
    return _csr(cols, mat.indices.astype(np.int64) * rows + mat.rows, mat.data, rows)


def _permuted(mat: CSR, rows: np.ndarray, cols: np.ndarray) -> CSR:
    """The canonical CSR whose entry (rows[i], cols[j]) is entry (i, j) of
    ``mat``, for permutations ``rows`` and ``cols`` of its rows and columns."""
    height, width = mat.shape
    return _csr(height, rows[mat.rows] * width + cols[mat.indices], mat.data, mat.width)


def _flip(N: int, piece: RingPiece) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The global spin flip from ring filling n to filling N - n, as
    ``(bits, order, where)``: ``bits`` are the representatives of filling
    N - n in ascending order, orbit ``order[k]`` of filling n flips onto
    orbit k, and orbit o onto orbit ``where[o]``.

    The flip maps orbits onto orbits of the same size
    (:func:`core._flip_image`).
    """
    image = _flip_image(N, piece)
    order = np.argsort(image, kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    return image[order], order, where


def ring_pieces(N: int, J: float, Jp: float, fillings: range,
                l_squared: bool = False, sublattice: bool = False) -> dict[int, RingPiece]:
    """The :class:`RingPiece` of every ring filling in ``fillings``, on its
    orbit block under the ring's dihedral group, or under its sublattice
    subgroup when ``sublattice`` (:func:`core.orbit_block`).

    The global spin flip P commutes with H_ring(J, Jp) at any anisotropy
    and with the ring's rotations and reflections, maps filling N - n onto
    filling n orbit for orbit and turns L- into L+. So a filling n above
    N/2 whose mirror N - n is among ``fillings`` is not built: its piece
    is its mirror's, permuted by P (:func:`_flip`), ring_n = P ring_{N-n} P^T
    and lowering_n = P raising_{N-n+1} P^T. Every other filling's block is
    enumerated, labelled and built once, as is the block below the lowest
    filling above the mirrored ones; only it and the block below it are
    alive at a time. With ``l_squared`` the filling below the lowest one
    is built too, so every filling above 0 has its lowering, from which
    :func:`star_block_operators` gives L^2.
    """
    pieces = {}
    below = None
    first = fillings.start - 1 if l_squared and fillings.start > 0 else fillings.start
    mirrored = range(N // 2 + 1, min(fillings.stop, N - fillings.start + 1))
    flips = {}
    for n in range(first, fillings.stop):
        if n in mirrored:
            for m in (N - n, N - n + 1):
                if m not in flips:
                    flips[m] = _flip(N, pieces[m])
            mirror, above = pieces[N - n], pieces[N - n + 1]
            bits, order, where = flips[N - n]
            where_above = flips[N - n + 1][2]
            ring = _permuted(mirror.ring, where, where)
            pieces[n] = RingPiece(n_up=n, bits=bits, size=mirror.size[order],
                                  sublattice=sublattice, ring=ring,
                                  diagonal=np.flatnonzero(ring.indices == ring.rows),
                                  lowering=_permuted(above.raising, where_above, where),
                                  raising=_permuted(above.lowering, where, where_above))
            if n + 1 in mirrored or n + 1 == fillings.stop:
                continue  # no filling built above needs this block
        block = orbit_block(enumerate_bath_sector(N, n), sublattice)
        if n in fillings and n not in mirrored:
            dim = block.dim
            diagonal = np.arange(dim) * (dim + 1)
            ring = build_bath_ring(block, J, Jp).matrix
            ring = _csr(dim, np.concatenate([ring.rows * dim + ring.indices, diagonal]),
                        np.concatenate([ring.data, np.zeros(dim)]))
            lowering = raising = None
            if below is not None:
                lowering = _lowering(block, below)
                raising = _transpose(lowering)
            pieces[n] = RingPiece(n_up=n, bits=block.bits, size=block.size, sublattice=sublattice,
                                  ring=ring, diagonal=np.flatnonzero(ring.indices == ring.rows),
                                  lowering=lowering, raising=raising)
        below = block
    return pieces


def _assemble(dim: int, parts, dense: bool, width: int | None = None):
    """The dim x width matrix (width defaults to dim) made of CSR pieces,
    dense when ``dense``, else CSR.

    Each part ``(r0, c0, piece, values)`` puts ``values``, the data of the
    CSR ``piece`` or data on its pattern, at rows ``r0 + piece.rows`` and
    columns ``c0 + piece.indices``. Parts that share rows must come in
    ascending ``c0`` and cover disjoint columns, so each row of the CSR is
    its pieces' rows one after another, without a sort.
    """
    if dense:
        out = np.zeros((dim, dim if width is None else width))
        for r0, c0, piece, values in parts:
            out[r0 + piece.rows, c0 + piece.indices] = values
        return out
    counts = np.zeros(dim, dtype=np.int64)
    for r0, _, piece, _ in parts:
        counts[r0:r0 + piece.shape[0]] += np.diff(piece.indptr)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    fill = indptr[:-1].copy()
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for r0, c0, piece, values in parts:
        at = fill[r0 + piece.rows] + (np.arange(piece.nnz) - piece.indptr[piece.rows])
        indices[at] = c0 + piece.indices
        data[at] = values
        fill[r0:r0 + piece.shape[0]] += np.diff(piece.indptr)
    return CSR(indptr.astype(np.int32), indices, data, width)


def star_block_operators(block: StarBlock, pieces: dict[int, RingPiece], prefactor: float,
                         omega: float, names, dense: bool):
    """The star omega Sz + H_ring + prefactor S.L (g: the plain star, 2 g: the
    driven one) and the observables ``names`` on one star block, from the
    run's ring pieces.

    The Hamiltonian is block tridiagonal in the central index: slice c
    holds H_ring(n_c) plus (omega S_m + prefactor S_m L_m) on its
    diagonal, and slices c - 1 and c are linked by prefactor / 2
    sqrt(c (two_S - c + 1)) times the lowering of filling n_c and its
    transpose. 'Sz', the central S_m, is returned as a diagonal, and so
    is 'ms' on sublattice blocks, whose group keeps it: each q_o has the
    value of its representative. A rotation by one site flips its sign,
    so a dihedral block refuses it (ParameterError). 'L2' is returned as
    a pair (A, d) with L^2 = A^T A + diag(d): on slice c,
    L^2 = L+ L- + L_z (L_z - 1), so A stacks the lowering of each filling
    n_c above 0, its rows those of filling n_c - 1 one slice after
    another, and d is L_z (L_z - 1). L- commutes with the ring's rotations
    and reflections, so this holds on every orbit block. The Hamiltonian
    and A come dense when ``dense``, else as CSR.
    """
    N, two_S, half = block.N, block.two_S, 0.5 * prefactor
    slices = block.slices
    sizes = [s.stop - s.start for s in slices]
    ham, lower, s_m = [], [], []
    rows = 0  # the rows of A so far
    for k, s in enumerate(slices):
        piece = pieces[s.n_up]
        sm = 0.5 * (two_S - 2 * s.central)
        lm = 0.5 * (2 * s.n_up - N)
        ring = piece.ring.data.copy()
        ring[piece.diagonal] += prefactor * sm * lm + omega * sm
        if k > 0:
            up = piece.raising
            ham.append((s.start, slices[k - 1].start, up,
                        half * _ladder_weight(two_S, s.central) * up.data))
        ham.append((s.start, s.start, piece.ring, ring))
        if k + 1 < len(slices):
            down = pieces[slices[k + 1].n_up].lowering
            ham.append((s.start, slices[k + 1].start, down,
                        half * _ladder_weight(two_S, slices[k + 1].central) * down.data))
        if "L2" in names and s.n_up > 0:
            lower.append((rows, s.start, piece.lowering, piece.lowering.data))
            rows += piece.lowering.shape[0]
        s_m.append(sm)
    mats = []
    for name in names:
        if name == "Sz":
            mats.append(np.repeat(s_m, sizes))
        elif name == "L2":
            lz = np.array([s.n_up - 0.5 * N for s in slices])
            mats.append((_assemble(rows, lower, dense, block.dim),
                         np.repeat(lz * (lz - 1.0), sizes)))
        elif name == "ms" and block.sublattice:
            mats.append(_staggered(N, block.bits))
        else:
            raise ParameterError(f"observable {name!r} has no form on {block.tag}")
    return _assemble(block.dim, ham, dense), mats
