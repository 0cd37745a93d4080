"""State and operator value types over labeled register layouts.

Everything is an immutable dense complex array plus a layout.  `matricize`
is the one tensor helper: it moves the factors named by label to the front,
which also reorders a state's factors, so callers never juggle axis
permutations by hand.

Execution is pure: protocols run batches of amplitude columns through
isometries, and a `KrausChannel` enters a run only through its Stinespring
dilation (`stinespring`).  `DensityOperator`, `pure_density` and
`apply_channel` are the density-operator reference that the tests check the
dilation against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import LayoutError, LayoutMismatch, NotPositiveSemidefinite
from .registers import RegisterLayout, concat

ATOL_NORM = 1e-9
ATOL_HERMITIAN = 1e-9
ATOL_EIGENVALUE = 1e-9
ATOL_ISOMETRY = 1e-9


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if shape is not None and arr.shape != shape:
        raise LayoutError(f"array shape {arr.shape} != expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise LayoutError("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _same(a, b) -> bool:
    if isinstance(a, tuple):   # Kraus operators, one by one and never stacked
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
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
    matrix: np.ndarray

    def __post_init__(self) -> None:
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        if dout < din:
            raise LayoutError(
                f"isometry output dim {dout} smaller than input dim {din}"
            )
        mat = _frozen_array(self.matrix, shape=(dout, din))
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(din))) > ATOL_ISOMETRY:
            raise LayoutError("isometry columns are not orthonormal within tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def is_unitary(self) -> bool:
        return self.input_layout.total_dim == self.output_layout.total_dim

    __eq__ = _fieldwise_eq


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators."""

    input_layout: RegisterLayout
    output_layout: RegisterLayout
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.kraus_ops) == 0:
            raise LayoutError("channel needs at least one Kraus operator")
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        ops = tuple(_frozen_array(k, shape=(dout, din)) for k in self.kraus_ops)
        # the Gram of the Stinespring matrix: its dilation is an isometry
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(din))) > ATOL_ISOMETRY:
            raise LayoutError("Kraus operators do not sum to the identity (not TP)")
        object.__setattr__(self, "kraus_ops", ops)

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


def stinespring(op: Operation) -> np.ndarray:
    """Stinespring isometry V = sum_e K_e (x) |e> of `op`, (d_out * m) x d_in.

    Rows run over (output, environment) with the environment index e of the
    m Kraus operators fastest; tracing the environment out of V rho V^dagger
    gives back the channel's output.
    """
    kraus = (op.matrix,) if isinstance(op, Isometry) else op.kraus_ops
    return np.stack(kraus, axis=1).reshape(-1, op.input_layout.total_dim)


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
    out = op.matrix @ matricize(state.amplitudes, lay, labels)
    new_lay = concat(op.output_layout, lay.drop(labels))
    return StateVector(new_lay, out.reshape(-1))


def apply_channel(op: Operation, rho: DensityOperator) -> DensityOperator:
    """Apply a channel (or isometry) to the factors named by its input layout."""
    kraus = (op.matrix,) if isinstance(op, Isometry) else op.kraus_ops
    lay = rho.layout
    _check_factor(lay, op.input_layout)
    labels = op.input_layout.labels()
    t = matricize(rho.matrix, lay, labels, operator=True)
    dout = op.output_layout.total_dim
    drest = t.shape[1]
    acc = np.zeros((dout, drest, dout, drest), dtype=np.complex128)
    for k in kraus:
        acc += np.einsum("xi,iajb,yj->xayb", k, t, k.conj(), optimize=True)
    new_lay = concat(op.output_layout, lay.drop(labels))
    d = new_lay.total_dim
    return DensityOperator(new_lay, acc.reshape(d, d))


def reduced_density_matrix(state: StateVector, keep: Sequence[str]) -> np.ndarray:
    """Reduced density matrix of a pure state on `keep`, factors in that order."""
    m = matricize(state.amplitudes, state.layout, keep)
    return m @ m.conj().T
