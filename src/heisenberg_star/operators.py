"""Sparse Hermitian operators resolved on one magnetization sector.

Every term here is either diagonal, with elements read off the bit
parities and popcounts of the whole basis at once, or a hop: it raises
some ring spins, lowers others, and may step the central index. The
private kernel :func:`_hop` applies a list of hops to the packed keys
of a whole sector at once and finds every image by one binary search
in the destination keys, so each builder makes one kernel call. The
builders collect COO triplets and end in one conversion to CSR.
Ladder terms are emitted in both directions (the pair of adjoint terms
appears explicitly in each Hamiltonian), so Hermiticity holds by
construction and is asserted in tests rather than symmetrized after
the fact.

Every builder of an operator that commutes with the ring's rotations
and reflections (the ring, the system-bath coupling, L^2 and the
central field) also runs on a :class:`core.OrbitBlock`, where it emits
that operator on the block's orbits directly. The staggered
magnetization does not commute with them and has no block form.

Every entry is real, so each operator holds its canonical CSR arrays in
float64, assembled in numpy (:class:`CSR`). A solver or propagator takes
them as a dense numpy matrix up to its DENSE_CUTOFF and as a scipy CSR
on the same arrays above it; only that conversion imports scipy.

Matrix elements follow the usual spin ladder weights. For the central
spin with ``S_m = S - c``:

    S+ |c> -> sqrt(c (two_S - c + 1)) |c - 1>
    S- |c> -> sqrt((two_S - c) (c + 1)) |c + 1>

and a spin-1/2 raise or lower on a ring site carries weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BasisSector, ModelParams, OrbitBlock, StateVector
from .errors import ParameterError, SectorMismatch


@dataclass(frozen=True, eq=False)
class CSR:
    """Canonical CSR arrays of a square matrix, held in numpy.

    Row r holds the entries ``indptr[r]:indptr[r + 1]``, with ascending,
    distinct column ``indices`` and their values in ``data``. The index
    arrays are int32, the index type scipy picks for them, so
    :meth:`tocsr` wraps the three arrays without a copy.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows(), self.indices] = self.data
        return out

    def tocsr(self):
        """The same matrix as a scipy CSR on these arrays; imports scipy.sparse."""
        import scipy.sparse

        return scipy.sparse.csr_array((self.data, self.indices, self.indptr),
                                      shape=self.shape, copy=False)

    def __matmul__(self, x):
        """Product with a vector, or with the columns of a 2-D array."""
        x = np.asarray(x)
        out = np.zeros((self.shape[0], *x.shape[1:]), dtype=np.result_type(self.data, x))
        np.add.at(out, self.rows(), self.data.reshape(-1, *[1] * (x.ndim - 1)) * x[self.indices])
        return out


def _csr(dim: int, keys: np.ndarray, vals: np.ndarray) -> CSR:
    """Canonical CSR of the entries ``vals`` at ``keys`` = row * dim + col.

    Entries that share a key are summed in the order they come. The
    stable sort merges the ascending runs the builders emit, one per hop.
    """
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    data = np.add.reduceat(vals, first)
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    return CSR(indptr.astype(np.int32), (keys % dim).astype(np.int32), data)


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


def _diagonal(values: np.ndarray):
    """COO triplet of the nonzero entries of a diagonal."""
    i = np.flatnonzero(values)
    return i, i, values[i]


def _to_operator(sector: BasisSector, entries) -> SparseOperator:
    """Operator from real (rows, cols, values) triplets; duplicates are summed.

    On an orbit block the columns are representatives and the rows the
    orbits of their images, so the summed entry of row o', column o is
    sum_{s in o'} M[s, r_o]; scaled by sqrt(size[o] / size[o']) it is
    the entry (Q^T M Q)[o', o] of any operator M that commutes with the
    ring's rotations and reflections.
    """
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    if isinstance(sector, OrbitBlock):
        vals = vals * np.sqrt(sector.size[cols] / sector.size[rows])
    return SparseOperator(sector=sector, matrix=_csr(sector.dim, rows * sector.dim + cols, vals))


def _sum(ops) -> SparseOperator:
    """Sum of operators on one sector."""
    sector = ops[0].sector
    keys = np.concatenate([op.matrix.rows() * sector.dim + op.matrix.indices for op in ops])
    vals = np.concatenate([op.matrix.data for op in ops])
    return SparseOperator(sector=sector, matrix=_csr(sector.dim, keys, vals))


def _bit(bits: np.ndarray, a: int) -> np.ndarray:
    return (bits >> a) & 1


def build_bath_ring(sector: BasisSector, J: float, Jp: float) -> SparseOperator:
    """Ring Hamiltonian sum_n [J/2 (S+_n S-_{n+1} + h.c.) + Jp Sz_n Sz_{n+1}].

    The bond list runs n = 1..N with site N+1 identified with site 1,
    taken literally: for N = 2 the same pair of sites appears twice and
    the bond is counted twice on purpose.
    """
    N = sector.N
    half_J = 0.5 * J
    quarter_Jp = 0.25 * Jp
    diag = np.zeros(sector.dim)
    hops = []
    for a in range(N):
        b = (a + 1) % N
        aligned = _bit(sector.bits, a) == _bit(sector.bits, b)
        diag += np.where(aligned, quarter_Jp, -quarter_Jp)
        hops += [(1 << a, 1 << b), (1 << b, 1 << a)]
    entries = []
    if half_J != 0.0:
        i, j = _hop(sector, sector, *np.array(hops).T)
        entries.append((j, i, np.full(i.size, half_J)))
    entries.append(_diagonal(diag))
    return _to_operator(sector, entries)


def build_system_bath(sector: BasisSector, prefactor: float) -> SparseOperator:
    """Coupling prefactor * [ (S+ L- + S- L+)/2 + Sz Lz ] on a star sector."""
    if sector.is_bath:
        raise ParameterError("system-bath coupling needs a central spin in the sector")
    N = sector.N
    two_S = sector.two_S
    half = 0.5 * prefactor
    s_m = 0.5 * (two_S - 2 * sector.central)
    l_m = 0.5 * (2 * sector.n_up - N)
    entries = [_diagonal(prefactor * s_m * l_m)]
    if half != 0.0:
        # per site: S+ on the centre with the ring spin lowered, then S- with it raised
        hops = [h for a in range(N) for h in ((0, 1 << a, -1), (1 << a, 0, 1))]
        i, j = _hop(sector, sector, *np.array(hops).T)
        upper = np.maximum(sector.central[i], sector.central[j])
        entries.append((j, i, half * _ladder_weight(two_S, upper)))
    return _to_operator(sector, entries)


def build_zeeman(sector: BasisSector, omega: float) -> SparseOperator:
    """Diagonal field omega * Sz on the central spin."""
    if sector.is_bath:
        raise ParameterError("the Zeeman term acts on the central spin")
    s_m = 0.5 * (sector.two_S - 2 * sector.central)
    return _to_operator(sector, [_diagonal(omega * s_m)])


def build_L_squared(sector: BasisSector) -> SparseOperator:
    """Total ring angular momentum squared, as L- L+ + Lz (Lz + 1).

    Acts on the ring part only; the central level rides along
    untouched. The L- L+ route stays inside the sector: its diagonal
    counts the down spins and its off-diagonal part exchanges one up
    spin with one down spin.
    """
    N = sector.N
    l_m = 0.5 * (2 * sector.n_up - N)
    a, b = np.nonzero(~np.eye(N, dtype=bool))  # ordered pairs a != b, a major
    i, j = _hop(sector, sector, raise_bits=1 << b, lower_bits=1 << a)
    return _to_operator(sector, [_diagonal(l_m * (l_m + 1.0) + (N - sector.n_up)),
                                 (j, i, np.ones(i.size))])


def build_staggered(sector: BasisSector) -> SparseOperator:
    """Diagonal staggered magnetization (1/N) sum_j (-1)^j Sz_j, site 1 first.

    Odd sites enter with sign -1, so the alternating state with site 1
    down has expectation +1/2.
    """
    N = sector.N
    total = np.zeros(sector.dim)
    for a in range(N):
        # site j = a + 1 enters with sign (-1)^(a + 1)
        sign = -1.0 if a % 2 == 0 else 1.0
        total += sign * (_bit(sector.bits, a) - 0.5)
    return _to_operator(sector, [_diagonal(total / N)])


def build_star_hamiltonian(sector: BasisSector, params: ModelParams) -> SparseOperator:
    """Isotropic star J * H_ring + g * S.L with no central field."""
    if not params.isotropic:
        raise ParameterError("the plain star Hamiltonian requires J == Jp")
    if params.omega != 0.0:
        raise ParameterError("the plain star Hamiltonian carries no central field")
    return _sum([build_bath_ring(sector, params.J, params.Jp),
                 build_system_bath(sector, params.g)])


def build_modified_star(sector: BasisSector, params: ModelParams) -> SparseOperator:
    """Driven star omega Sz + ring(J, Jp) + 2 g S.L.

    Note the literal factor two on the coupling; the anisotropic ring
    (Jp != J) is allowed here and breaks conservation of the total ring
    angular momentum.
    """
    terms = [build_bath_ring(sector, params.J, params.Jp),
             build_system_bath(sector, 2.0 * params.g)]
    if params.omega != 0.0:
        terms.append(build_zeeman(sector, params.omega))
    return _sum(terms)


def apply(op: SparseOperator, state: StateVector) -> StateVector:
    """Matrix-vector product; the result is returned unnormalized."""
    sector, amps = state.require_single()
    if sector.tag != op.tag or sector.dim != op.dim:
        raise SectorMismatch(
            f"operator on {op.tag} (dim {op.dim}) applied to state on"
            f" {sector.tag} (dim {sector.dim})"
        )
    return StateVector(sectors=(sector,), amps=op.matrix @ amps, offsets=(0,))


def expectation(op: SparseOperator, state: StateVector) -> float:
    """Real expectation value <psi|A|psi> of a Hermitian block operator."""
    sector, amps = state.require_single()
    if sector.tag != op.tag:
        raise SectorMismatch(f"operator on {op.tag}, state on {sector.tag}")
    return float(np.vdot(amps, op.matrix @ amps).real)


def _check_pairing(ops, state: StateVector) -> None:
    """Raise SectorMismatch unless ``ops`` holds one block operator per
    occupied sector of ``state``, in the same order."""
    if len(ops) != state.n_blocks:
        raise SectorMismatch(f"{len(ops)} operators for {state.n_blocks} occupied sectors")
    for i, (op, sector) in enumerate(zip(ops, state.sectors)):
        if op.sector.tag != sector.tag:
            raise SectorMismatch(
                f"block {i}: operator on {op.sector.tag}, state on {sector.tag}")


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


def apply_total_lowering(sector: BasisSector, amps: np.ndarray,
                         dst: BasisSector) -> np.ndarray:
    """Total lowering S- + L- on a star sector, two_m -> two_m - 2.

    The package itself never lowers a star state; this is the oracle the
    tests use to check that the closed-form sub-ground states descend
    their multiplet.
    """
    out = apply_bath_lowering(sector, amps, dst)
    i, j = _hop(sector, dst, step=1)
    out[j] += _ladder_weight(sector.two_S, sector.central[i] + 1) * amps[i]
    return out
