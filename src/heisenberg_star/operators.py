"""Sparse Hermitian operators resolved on one magnetization sector.

Every term here is either diagonal, with elements read off the bit
parities and popcounts of the whole basis at once, or a hop: it raises
some ring spins, lowers others, and may step the central index. The
private kernel :func:`_hop` applies a list of hops to the packed keys
of a whole sector at once and finds every image by one binary search
in the destination keys. :func:`build_bath_ring` makes the ring of a
ring sector, or of its :class:`core.OrbitBlock`, with one kernel call;
the exchange is emitted in both directions, so Hermiticity holds by
construction and is asserted in tests.

The quench runs make the pieces of every ring filling once
(:func:`ring_pieces`): the ring Hamiltonian, the ring lowering and L^2
from it, on the filling's orbit block (the coherent run) or on its whole
ring sector (the alternating-state run). :func:`star_block_operators`
places them block by block in the central index, as a dense array or as
CSR rows without a sort. No star sector is built whole here: the tests
and ``verify`` check the pieces against an independent Kronecker
reference (:func:`verify.reference_hamiltonian`) restricted to a sector.

Every entry is real, so each operator holds its canonical CSR arrays in
float64, assembled in numpy (:class:`CSR`). The ring solver multiplies
by these arrays in numpy at every size. The propagator takes a block up
to its DENSE_CUTOFF as a dense numpy matrix; above it, each observable
as a scipy CSR on the same arrays, and the Hamiltonian as a scipy CSR on
the same index arrays with its entries copied as complex, which makes a
product with a complex vector faster. Only that conversion imports scipy.

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
    enumerate_bath_sector,
    orbit_block,
)
from .errors import ParameterError, SectorMismatch


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
        """Product with a vector, or with the columns of a 2-D array.

        Each row sums its entries' products in stored order: by
        ``np.bincount`` for a real product, by one ``np.add.at`` scatter
        for a complex one, which numpy adds faster than two ``bincount``
        calls on its real and imaginary parts.
        """
        x = np.asarray(x)
        n = self.shape[0]
        if x.ndim == 2:
            out = np.empty((n, x.shape[1]), dtype=np.result_type(self.data, x))
            for c in range(x.shape[1]):
                out[:, c] = self @ x[:, c]
            return out
        terms = self.data * x[self.indices]
        if not np.iscomplexobj(terms):
            return np.bincount(self.rows, terms, n)
        out = np.zeros(n, dtype=terms.dtype)
        np.add.at(out, self.rows, terms)
        return out


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


def _hop(src: BasisSector, dst: BasisSector, raise_bits=0, lower_bits=0,
         step=0) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination positions of the states a list of hops links.

    Hop h raises the ring sites in the mask ``raise_bits[h]``, lowers
    those in ``lower_bits[h]`` and moves the central index by
    ``step[h]``; the three take int64 arrays or scalars, which
    broadcast. Source states a hop annihilates (a raised site already
    up, a lowered site already down, the central index leaving
    ``0..dst.two_S``) are skipped; every other image must lie in
    ``dst``, else KeyError. The pairs come hop by hop, in hop order.
    """
    raise_bits, lower_bits, step = (
        h[:, None] for h in np.broadcast_arrays(*np.atleast_1d(raise_bits, lower_bits, step)))
    keep = (src.bits & (raise_bits | lower_bits)) == lower_bits
    if step.any():
        c = src.central + step
        keep &= (c >= 0) & (c <= dst.two_S)
    shift = step * (1 << src.N) + raise_bits - lower_bits
    i = np.broadcast_to(np.arange(src.dim), keep.shape)[keep]
    return i, dst.positions((src.keys + shift)[keep])


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

    All of it lives on the dihedral orbit block of the filling, whose
    representatives and orbit sizes are ``bits`` and ``size``, or on its
    whole ring sector, with ``size`` None: its states are its orbits, and
    the orbit forms below are the operators themselves. ``ring`` is
    H_ring(J, Jp) with every diagonal entry stored, at the positions
    ``diagonal`` of its data. ``lowering`` is the orbit form of the ring
    lowering, Q_{n-1}^T L- Q_n, and ``raising`` its transpose
    Q_n^T L+ Q_{n-1}; both are None at the lowest filling of a run that
    needs no L^2. ``l_squared`` is Q_n^T L^2 Q_n when the run asked for it.
    """

    n_up: int
    bits: np.ndarray
    size: np.ndarray | None
    ring: CSR
    diagonal: np.ndarray
    lowering: CSR | None
    raising: CSR | None
    l_squared: CSR | None


def _lowering(src: BasisSector, dst: BasisSector) -> CSR:
    """Q_dst^T L- Q_src from the orbit block of ring filling n to that of
    n - 1, one hop per site; L- itself between whole ring sectors."""
    i, j = _hop(src, dst, lower_bits=1 << np.arange(src.N, dtype=np.int64))
    vals = np.sqrt(src.size[i] / dst.size[j]) if isinstance(src, OrbitBlock) else np.ones(i.size)
    return _csr(dst.dim, j * src.dim + i, vals, src.dim)


def _transpose(mat: CSR) -> CSR:
    """The transpose of a CSR matrix, again canonical."""
    rows, cols = mat.shape
    return _csr(cols, mat.indices.astype(np.int64) * rows + mat.rows, mat.data, rows)


def _gram(mat: CSR) -> tuple[np.ndarray, np.ndarray]:
    """Keys (row * width + col) and values of the products that make
    mat^T mat: every ordered pair of entries that share a row of ``mat``."""
    width = mat.shape[1]
    count = np.diff(mat.indptr)[mat.rows]  # entries in the row of each entry
    left = np.repeat(np.arange(mat.nnz), count)
    before = np.repeat(np.cumsum(count) - count, count)
    right = np.repeat(mat.indptr[mat.rows], count) + (np.arange(left.size) - before)
    keys = mat.indices[left].astype(np.int64) * width + mat.indices[right]
    return keys, mat.data[left] * mat.data[right]


def ring_pieces(N: int, J: float, Jp: float, fillings: range,
                l_squared: bool = False, orbits: bool = True) -> dict[int, RingPiece]:
    """The :class:`RingPiece` of every ring filling in ``fillings``, made once
    per run on its dihedral orbit block, or on its whole sector unless ``orbits``.

    Each filling's block is built and labelled once; only it and the
    block below it are alive at a time. L- commutes with the ring's
    rotations and reflections, so it maps the k = 0, reflection-even
    states of filling n into those of n - 1, and on them, as on whole
    sectors, L^2 = L+ L- + Lz (Lz - 1) is lowering^T lowering + Lz (Lz - 1):
    N hops instead of the N (N - 1) of an exchange of every pair of sites.
    """
    pieces = {}
    below = None
    first = fillings.start - 1 if l_squared and fillings.start > 0 else fillings.start
    for n in range(first, fillings.stop):
        block = enumerate_bath_sector(N, n)
        if orbits:
            block = orbit_block(block)
        if n in fillings:
            dim = block.dim
            diagonal = np.arange(dim) * (dim + 1)
            ring = build_bath_ring(block, J, Jp).matrix
            ring = _csr(dim, np.concatenate([ring.rows * dim + ring.indices, diagonal]),
                        np.concatenate([ring.data, np.zeros(dim)]))
            lowering = raising = squared = None
            if below is not None:
                lowering = _lowering(block, below)
                raising = _transpose(lowering)
            if l_squared:
                lz = n - N / 2
                keys, vals = (_gram(lowering) if lowering is not None
                              else (diagonal[:0], np.zeros(0)))
                squared = _csr(dim, np.concatenate([keys, diagonal]),
                               np.concatenate([vals, np.full(dim, lz * (lz - 1.0))]))
            pieces[n] = RingPiece(n_up=n, bits=block.bits, size=block.size if orbits else None,
                                  ring=ring, diagonal=np.flatnonzero(ring.indices == ring.rows),
                                  lowering=lowering, raising=raising, l_squared=squared)
        below = block
    return pieces


def _assemble(dim: int, parts, dense: bool):
    """The dim x dim matrix made of CSR pieces, dense when ``dense``, else CSR.

    Each part ``(r0, c0, piece, values)`` puts ``values``, the data of the
    CSR ``piece`` or data on its pattern, at rows ``r0 + piece.rows`` and
    columns ``c0 + piece.indices``. Parts that share rows must come in
    ascending ``c0`` and cover disjoint columns, so each row of the CSR is
    its pieces' rows one after another, without a sort.
    """
    if dense:
        out = np.zeros((dim, dim))
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
    return CSR(indptr.astype(np.int32), indices, data)


def star_block_operators(block: StarBlock, pieces: dict[int, RingPiece], prefactor: float,
                         omega: float, names, dense: bool):
    """The star omega Sz + H_ring + prefactor S.L (g: the plain star, 2 g: the
    driven one) and the observables ``names`` on one star block, from the
    run's ring pieces.

    The Hamiltonian is block tridiagonal in the central index: slice c
    holds H_ring(n_c) plus (omega S_m + prefactor S_m L_m) on its
    diagonal, and slices c - 1 and c are linked by prefactor / 2
    sqrt(c (two_S - c + 1)) times the lowering of filling n_c and its
    transpose. 'L2' is block diagonal, L^2 of each filling; 'Sz', the
    central S_m, and, on whole sectors, 'ms' are returned as diagonals.
    The Hamiltonian and L^2 come dense when ``dense``, else as CSR.
    """
    N, two_S, half = block.N, block.two_S, 0.5 * prefactor
    slices = block.slices
    ham, squared, s_m = [], [], []
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
        if "L2" in names:
            squared.append((s.start, s.start, piece.l_squared, piece.l_squared.data))
        s_m.append(sm)
    mats = []
    for name in names:
        if name == "Sz":
            mats.append(np.repeat(s_m, [s.stop - s.start for s in slices]))
        elif name == "L2":
            mats.append(_assemble(block.dim, squared, dense))
        elif name == "ms" and block.size is None:
            mats.append(_staggered(N, block.bits))
        else:
            raise ParameterError(f"observable {name!r} has no form on {block.tag}")
    return _assemble(block.dim, ham, dense), mats


def apply_bath_lowering(sector: BasisSector, amps: np.ndarray,
                        dst: BasisSector) -> np.ndarray:
    """Total ring lowering L- = sum_n S-_n, mapping n_up -> n_up - 1.

    Source and destination sectors must agree on N, two_S, and differ
    by two units of two_m. Each up bit is flipped down with weight 1.
    """
    if dst.N != sector.N or dst.two_S != sector.two_S or dst.two_m != sector.two_m - 2:
        raise SectorMismatch(f"cannot lower {sector.tag} into {dst.tag}")
    out = np.zeros(dst.dim, dtype=np.complex128)
    for a in range(sector.N):
        i, j = _hop(sector, dst, lower_bits=1 << a)
        out[j] += amps[i]
    return out
