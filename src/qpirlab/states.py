"""State and operator value types over labeled register layouts.

States are immutable dense complex arrays plus a layout.  An operator's
matrix takes one of three forms: a dense complex array; a `BasisMap`, a
matrix with one nonzero per column stored as the row and the value of
each column, which holds an op that sends basis vectors to basis vectors,
up to a weight, in d_in integers instead of d_out x d_in amplitudes; or
an `IdentityKron`, 1_d (x) B stored as its block B, which holds an op
that leaves a leading factor of dimension d alone in b_out b_in
amplitudes instead of d^2 b_out b_in.  `dense` gives any of them as an
array, columns `xs` or whole, and `apply` multiplies one into a batch of
columns; on a basis map both scatter, one product per nonzero entry, so
they give the same bits as the dense matmul, and on an identity product
`apply` multiplies B into each of the d slices of the columns.  Neither
structured form converts to a numpy array: a caller that needs the dense
form calls `dense`, so none is made silently.
`matricize` is the one tensor helper: it moves the factors named by
label to the front, which also reorders a state's factors, so callers
never juggle axis permutations by hand; `matricized_rows` does the same
to the row indices of one-hot columns held as rows and values.

Execution is pure: protocols run batches of amplitude columns through
isometries, and a `KrausChannel` enters a run only through its Stinespring
dilation (`stinespring`).  `DensityOperator`, `pure_density` and
`apply_channel` are the density-operator reference that the tests check the
dilation against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import LayoutError, LayoutMismatch, NotPositiveSemidefinite
from .registers import RegisterLayout, concat

ATOL_NORM = 1e-9
ATOL_HERMITIAN = 1e-9
ATOL_EIGENVALUE = 1e-9
ATOL_ISOMETRY = 1e-9

#: Bytes that the widest working array of a loop over blocks may take: a
#: chunk of basis runs (`qpir`), which the encoding (`reduction._encode`)
#: compresses and decodes in place of a chunk of its own, or a block of
#: columns of a dense operator's Gram check.
CHUNK_BYTES = 4 * 2**20


def _chunk_columns(width: int) -> int:
    """How many columns of `width` complex amplitudes fit in `CHUNK_BYTES`,
    at least one; an empty column counts as one amplitude."""
    return max(1, CHUNK_BYTES // (16 * max(1, width)))


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if shape is not None and arr.shape != shape:
        raise LayoutError(f"array shape {arr.shape} != expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise LayoutError("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


class _DenseForm:
    """What a structured matrix shows as its dense form (`dense`): two
    matrices, in any form, are equal when their dense forms are (`_same`).
    numpy does not take one as an array: a caller that needs the dense
    form asks `dense` for it, so none is made silently."""

    def __eq__(self, other) -> bool:
        return _same(self, other)


@dataclass(frozen=True, eq=False)
class BasisMap(_DenseForm):
    """A d_out x d_in matrix with one nonzero per column: column j is
    values[j] |rows[j]>.

    `shape` is (d_out, d_in), each row an integer in 0..d_out-1.  Nothing
    here asks the rows to be distinct; an `Isometry` or a `KrausChannel`
    checks what it needs of them.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        d_out, d_in = self.shape
        rows = np.array(self.rows)
        if rows.shape != (d_in,) or not np.issubdtype(rows.dtype, np.integer):
            raise LayoutError(f"basis map rows must be {d_in} integers, got "
                              f"shape {rows.shape} of {rows.dtype}")
        if d_in and not 0 <= rows.min() <= rows.max() < d_out:
            raise LayoutError(f"basis map rows must lie in 0..{d_out - 1}, got "
                              f"{rows.min()}..{rows.max()}")
        rows = rows.astype(np.intp, copy=False)
        rows.setflags(write=False)
        object.__setattr__(self, "shape", (d_out, d_in))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", _frozen_array(self.values, shape=(d_in,)))

    @classmethod
    def identity(cls, d: int) -> BasisMap:
        return cls((d, d), np.arange(d), np.ones(d))


@dataclass(frozen=True, eq=False)
class IdentityKron(_DenseForm):
    """The (d b_out) x (d b_in) matrix 1_d (x) block: the op `block` on the
    trailing factor of its input, the leading d-dimensional factor left
    alone.  Its Gram is 1_d (x) block^dagger block, so an `Isometry`
    checks the block's own (`_gram_deviation`).
    """

    d: int
    block: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise LayoutError(f"identity factor must be at least 1, got {self.d}")
        block = _frozen_array(self.block)
        if block.ndim != 2:
            raise LayoutError(f"block must be a matrix, got shape {block.shape}")
        object.__setattr__(self, "block", block)

    @property
    def shape(self) -> tuple[int, int]:
        b_out, b_in = self.block.shape
        return self.d * b_out, self.d * b_in


Matrix = Union[np.ndarray, BasisMap, IdentityKron]


def dense(matrix: Matrix, xs=slice(None)) -> np.ndarray:
    """Columns `xs` of `matrix` (all of them by default) as a dense array:
    a basis map's values scattered into zeros, an identity product's block
    columns scattered into zeros, each into its slice of the identity
    factor, and a dense matrix's columns indexed (a view for a slice)."""
    if isinstance(matrix, np.ndarray):
        return matrix[:, xs]
    if isinstance(matrix, IdentityKron):
        b_out, b_in = matrix.block.shape
        slices, cols = np.divmod(np.arange(matrix.shape[1])[xs], b_in)
        out = np.zeros((matrix.d, b_out, len(cols)), dtype=np.complex128)
        out[slices, :, np.arange(len(cols))] = matrix.block[:, cols].T
        return out.reshape(-1, len(cols))
    rows, values = matrix.rows[xs], matrix.values[xs]
    out = np.zeros((matrix.shape[0], len(rows)), dtype=np.complex128)
    out[rows, np.arange(len(rows))] = values
    return out


def apply(matrix: Matrix, columns: np.ndarray) -> np.ndarray:
    """matrix @ columns.  A basis map scatters row j of `columns`, scaled
    by values[j], into row rows[j], so its rows must be distinct, as an
    isometry's are (`Isometry` checks them).  Each output entry is then one
    product, which is also all the dense matmul adds to zeros, so both
    give the same bits.  An identity product multiplies its block into
    each of the d slices of `columns`, one b_out x b_in matmul each, with
    none of the zeros of the dense form."""
    if isinstance(matrix, np.ndarray):
        return matrix @ columns
    if isinstance(matrix, IdentityKron):
        b_out, b_in = matrix.block.shape
        out = matrix.block @ columns.reshape(matrix.d, b_in, -1)
        return out.reshape(matrix.d * b_out, -1)
    out = np.zeros((matrix.shape[0], columns.shape[1]), dtype=np.complex128)
    out[matrix.rows] = matrix.values[:, None] * columns
    return out


def _checked(matrix, shape: tuple[int, int]) -> Matrix:
    """`matrix` as an operator stores it: a basis map or an identity
    product of that shape, or a frozen copy of a dense one."""
    if isinstance(matrix, _DenseForm):
        if matrix.shape != shape:
            raise LayoutError(f"array shape {matrix.shape} != expected {shape}")
        return matrix
    return _frozen_array(matrix, shape=shape)


def _distinct(rows: np.ndarray) -> bool:
    ordered = np.sort(rows)
    return bool(np.all(ordered[1:] != ordered[:-1]))


def _distinct_basis_maps(matrices: Sequence[Matrix]) -> bool:
    """Whether every matrix is a basis map whose rows are distinct, so that
    each K_k^dagger K_k, and each K_k D K_k^dagger for a diagonal D, is
    diagonal: the rule by which a channel's Gram check and the correctness
    audit both take their basis path."""
    return all(isinstance(k, BasisMap) and _distinct(k.rows) for k in matrices)


def _gram_deviation(matrices: Sequence[Matrix], distinct: bool) -> float:
    """max |sum_k K_k^dagger K_k - 1| over the entries, for the d_out x
    d_in matrices K_k: the deviation from an isometry of [K_1; ...; K_m]
    stacked, which is the Stinespring matrix of a channel.

    When every K_k is a basis map with distinct rows, as `distinct` says
    (`_distinct_basis_maps`), the sum is diagonal, sum_k |values_k|^2 per
    column, and no d_in x d_in array is formed.  When every K_k is an
    identity product 1_d (x) B_k with one d, the sum is 1_d (x) sum_k
    B_k^dagger B_k, and the blocks' own deviation is its deviation.
    Otherwise it is formed over blocks of columns B of each K_k in turn,
    as B^dagger K_k, which `CHUNK_BYTES` bounds (and a basis map or an
    identity product is made dense first).
    """
    d_out, d_in = matrices[0].shape
    if distinct:
        total = sum(k.values.real ** 2 + k.values.imag ** 2 for k in matrices)
        return float(np.max(np.abs(total - 1.0)))
    if all(isinstance(k, IdentityKron) and k.d == matrices[0].d for k in matrices):
        return _gram_deviation([k.block for k in matrices], False)
    first, *rest = (dense(k) for k in matrices)
    width = _chunk_columns(max(d_out, d_in))
    worst = 0.0
    for start in range(0, d_in, width):
        gram = np.conj(first[:, start:start + width]).T @ first
        for k in rest:
            gram += np.conj(k[:, start:start + width]).T @ k
        gram.reshape(-1)[start::d_in + 1] -= 1.0   # entries (r, start + r)
        worst = max(worst, np.abs(gram).max())
    return float(worst)


def _same(a, b) -> bool:
    if isinstance(a, tuple):   # Kraus operators, one by one and never stacked
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (np.ndarray, _DenseForm)):
        if not isinstance(b, (np.ndarray, _DenseForm)) or a.shape != b.shape:
            return False
        return np.array_equal(dense(a), dense(b))
    return a == b


def _fieldwise_eq(self, other) -> bool:
    """The `__eq__` of every value type here: the same type and equal
    fields, layouts by their own equality and arrays entry by entry."""
    return type(other) is type(self) and all(
        _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_array(self.amplitudes, shape=(self.layout.total_dim,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL_NORM:
            raise LayoutError(f"state vector norm {norm} is not 1 within {ATOL_NORM}")
        object.__setattr__(self, "amplitudes", amps)

    __eq__ = _fieldwise_eq


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one operator over a register layout."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.layout.total_dim
        mat = _frozen_array(self.matrix, shape=(d, d))
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_HERMITIAN:
            raise LayoutError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL_NORM:
            raise LayoutError(f"density matrix trace {tr} is not 1 within {ATOL_NORM}")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < -ATOL_EIGENVALUE:
            raise NotPositiveSemidefinite(
                f"density matrix has eigenvalue {lo} < -{ATOL_EIGENVALUE}"
            )
        object.__setattr__(self, "matrix", mat)

    __eq__ = _fieldwise_eq


@dataclass(frozen=True, eq=False)
class Isometry:
    """Column-orthonormal map between layouts; square ones are unitaries."""

    input_layout: RegisterLayout
    output_layout: RegisterLayout
    matrix: Matrix

    def __post_init__(self) -> None:
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        if dout < din:
            raise LayoutError(
                f"isometry output dim {dout} smaller than input dim {din}"
            )
        mat = _checked(self.matrix, (dout, din))
        if _gram_deviation((mat,), _distinct_basis_maps((mat,))) > ATOL_ISOMETRY:
            raise LayoutError("isometry columns are not orthonormal within tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def is_unitary(self) -> bool:
        return self.input_layout.total_dim == self.output_layout.total_dim

    @property
    def distinct_basis_maps(self) -> bool:
        """`_distinct_basis_maps` of the one matrix: whether it is a basis
        map, since two columns of one in a shared row, or a zero column,
        fail the isometry check."""
        return isinstance(self.matrix, BasisMap)

    __eq__ = _fieldwise_eq


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators."""

    input_layout: RegisterLayout
    output_layout: RegisterLayout
    kraus_ops: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.kraus_ops) == 0:
            raise LayoutError("channel needs at least one Kraus operator")
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        object.__setattr__(self, "kraus_ops",
                           tuple(_checked(k, (dout, din)) for k in self.kraus_ops))
        # the Gram of the Stinespring matrix: its dilation is an isometry
        if _gram_deviation(self.kraus_ops, self.distinct_basis_maps) > ATOL_ISOMETRY:
            raise LayoutError("Kraus operators do not sum to the identity (not TP)")

    @cached_property
    def distinct_basis_maps(self) -> bool:
        """`_distinct_basis_maps` of the Kraus operators, decided once per
        channel, by its own check."""
        return _distinct_basis_maps(self.kraus_ops)

    __eq__ = _fieldwise_eq


Operation = Union[Isometry, KrausChannel]


def as_single_isometry(op: Operation) -> Isometry | None:
    """View `op` as an isometry when possible (enables pure-state runs): one
    Kraus operator K is one, as `KrausChannel` checked K^dagger K = 1."""
    if isinstance(op, Isometry):
        return op
    if len(op.kraus_ops) == 1:
        return Isometry(op.input_layout, op.output_layout, op.kraus_ops[0])
    return None


def kraus_operators(op: Operation) -> tuple[Matrix, ...]:
    """`op`'s Kraus operators: an isometry's one matrix, or a channel's."""
    return (op.matrix,) if isinstance(op, Isometry) else op.kraus_ops


def stinespring(op: Operation) -> np.ndarray:
    """Stinespring isometry V = sum_e K_e (x) |e> of `op`, (d_out * m) x d_in.

    Rows run over (output, environment) with the environment index e of the
    m Kraus operators fastest; tracing the environment out of V rho V^dagger
    gives back the channel's output.
    """
    kraus = kraus_operators(op)
    d_in = op.input_layout.total_dim
    v = np.empty((op.output_layout.total_dim, len(kraus), d_in), dtype=np.complex128)
    for e, k in enumerate(kraus):
        v[:, e] = dense(k)
    return v.reshape(-1, d_in)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def pure_density(state: StateVector) -> DensityOperator:
    amps = state.amplitudes
    return DensityOperator(state.layout, np.outer(amps, amps.conj()))


# ---------------------------------------------------------------------------
# label-addressed tensor algebra
# ---------------------------------------------------------------------------

def matricize(array: np.ndarray, layout: RegisterLayout, labels: Sequence[str],
              operator: bool = False) -> np.ndarray:
    """`array` with the `labels` factors of `layout` moved to the front.

    Axis 0 runs over `layout` and any further axis is a batch axis that stays
    last; the result has shape (d_front, d_rest, *batch).  For an `operator`
    both axes run over `layout` and the result is (d_front, d_rest, d_front,
    d_rest).  Front factors come in the order of `labels`, the rest in layout
    order.  Like any reshape, this returns a view where one exists and a
    C-ordered copy otherwise.
    """
    front = [layout.position(lb) for lb in labels]
    perm = front + [k for k in range(len(layout)) if k not in front]
    dims = layout.dims()
    d_front = math.prod(dims[k] for k in front)
    shape = (d_front, layout.total_dim // d_front)
    n = len(dims)
    if operator:
        t = array.reshape(dims + dims).transpose(perm + [n + k for k in perm])
        return t.reshape(shape + shape)
    batch = array.shape[1:]
    t = array.reshape(dims + batch).transpose(perm + list(range(n, n + len(batch))))
    return t.reshape(shape + batch)


def matricized_rows(rows: np.ndarray, layout: RegisterLayout,
                    labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Where `matricize` moves the entries at `rows` of an array over
    `layout`: their (front, rest) indices, the `labels` factors in front in
    the order of `labels`, the rest in layout order.  This is matricize on
    indices, for one-hot columns held as rows and values."""
    front = [layout.position(lb) for lb in labels]
    rest = [k for k in range(len(layout)) if k not in front]
    dims = layout.dims()
    digits = np.unravel_index(rows, dims)
    indices = []
    for factors in (front, rest):
        index = np.zeros_like(rows)
        for k in factors:
            index = index * dims[k] + digits[k]
        indices.append(index)
    return indices[0], indices[1]


def _check_factor(layout: RegisterLayout, wanted: RegisterLayout) -> None:
    for lb in wanted.labels():
        if lb not in layout:
            raise LayoutMismatch(
                f"state lacks register {lb!r}; has {layout.labels()}"
            )
        if layout.dim_of(lb) != wanted.dim_of(lb):
            raise LayoutMismatch(
                f"register {lb!r} has dim {layout.dim_of(lb)}, "
                f"operation expects {wanted.dim_of(lb)}"
            )


def apply_isometry(op: Isometry, state: StateVector) -> StateVector:
    """Apply `op` to the factors named by its input layout; output registers
    land at the front, untouched registers keep their relative order."""
    lay = state.layout
    _check_factor(lay, op.input_layout)
    labels = op.input_layout.labels()
    out = apply(op.matrix, matricize(state.amplitudes, lay, labels))
    new_lay = concat(op.output_layout, lay.drop(labels))
    return StateVector(new_lay, out.reshape(-1))


def apply_channel(op: Operation, rho: DensityOperator) -> DensityOperator:
    """Apply a channel (or isometry) to the factors named by its input layout."""
    lay = rho.layout
    _check_factor(lay, op.input_layout)
    labels = op.input_layout.labels()
    t = matricize(rho.matrix, lay, labels, operator=True)
    dout = op.output_layout.total_dim
    drest = t.shape[1]
    acc = np.zeros((dout, drest, dout, drest), dtype=np.complex128)
    for k in kraus_operators(op):
        k = dense(k)
        acc += np.einsum("xi,iajb,yj->xayb", k, t, k.conj(), optimize=True)
    new_lay = concat(op.output_layout, lay.drop(labels))
    d = new_lay.total_dim
    return DensityOperator(new_lay, acc.reshape(d, d))


def reduced_density_matrix(state: StateVector, keep: Sequence[str]) -> np.ndarray:
    """Reduced density matrix of a pure state on `keep`, factors in that order."""
    m = matricize(state.amplitudes, state.layout, keep)
    return m @ m.conj().T
