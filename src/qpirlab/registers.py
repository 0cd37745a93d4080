"""Labeled tensor-factor layouts for finite-dimensional registers.

A layout is an ordered list of (label, dim) registers; the Hilbert space is
the tensor product in that order.  All state/operator types carry one, which
lets operations address subsystems by label instead of by axis arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionGuardExceeded, LayoutError

#: Default cap on the total dimension of any layout.
DEFAULT_DIM_GUARD = 2**20

_dim_guard = DEFAULT_DIM_GUARD


def set_dim_guard(limit: int) -> None:
    """Set the global cap on total Hilbert-space dimension."""
    global _dim_guard
    limit = int(limit)
    if limit < 1:
        raise LayoutError(f"dimension guard must be positive, got {limit}")
    _dim_guard = limit


def dim_guard() -> int:
    """Current global dimension cap."""
    return _dim_guard


def _dim(label, dim) -> int:
    """`dim` as an int: an int or a numpy integer, never a bool, a float or
    text."""
    if isinstance(dim, bool):   # operator.index would read True as 1
        raise LayoutError(f"register {label!r} has dimension {dim!r}, which is "
                          f"a bool, not an integer")
    try:
        return operator.index(dim)
    except TypeError:
        raise LayoutError(f"register {label!r} has dimension {dim!r}, which is "
                          f"not an integer") from None


class Register(NamedTuple):
    label: str
    dim: int


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, uniquely labeled tensor factors."""

    registers: tuple[Register, ...]

    def __post_init__(self) -> None:
        regs = tuple(Register(str(r[0]), _dim(*r)) for r in self.registers)
        object.__setattr__(self, "registers", regs)
        labels = [r.label for r in regs]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate register labels in {labels}")
        for r in regs:
            if r.dim < 1:
                raise LayoutError(f"register {r.label!r} has dimension {r.dim} < 1")
        total = self.total_dim
        if total > _dim_guard:
            raise DimensionGuardExceeded(
                f"layout dimension {total} exceeds guard {_dim_guard}"
            )

    @classmethod
    def of(cls, *regs: tuple[str, int] | Register) -> "RegisterLayout":
        return cls(tuple(Register(label, dim) for label, dim in regs))

    @property
    def total_dim(self) -> int:
        return math.prod(r.dim for r in self.registers)

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.registers)

    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    def __len__(self) -> int:
        return len(self.registers)

    def __contains__(self, label: str) -> bool:
        return any(r.label == label for r in self.registers)

    def position(self, label: str) -> int:
        for k, r in enumerate(self.registers):
            if r.label == label:
                return k
        raise LayoutError(f"unknown register label {label!r}; have {self.labels()}")

    def dim_of(self, label: str) -> int:
        return self.registers[self.position(label)].dim

    def _known(self, labels: Iterable[str]) -> set[str]:
        """`labels` as a set, each of which must name a register here."""
        named = set(labels)
        missing = named - set(self.labels())
        if missing:
            raise LayoutError(f"unknown register labels {sorted(missing)}")
        return named

    def sub(self, labels: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of `labels`, kept in this layout's order."""
        wanted = self._known(labels)
        return RegisterLayout(tuple(r for r in self.registers if r.label in wanted))

    def drop(self, labels: Iterable[str]) -> "RegisterLayout":
        """The sub-layout of every label but `labels`."""
        return self.sub(set(self.labels()) - self._known(labels))

    def reordered(self, label_order: Sequence[str]) -> "RegisterLayout":
        if sorted(label_order) != sorted(self.labels()):
            raise LayoutError(
                f"reorder {list(label_order)} is not a permutation of {self.labels()}"
            )
        by_label = {r.label: r for r in self.registers}
        return RegisterLayout(tuple(by_label[lb] for lb in label_order))


def fresh_label(base: str, taken: Iterable[str]) -> str:
    """`base`, with underscores appended until it is not in `taken`."""
    taken = set(taken)
    label = base
    while label in taken:
        label += "_"
    return label


def concat(*layouts: RegisterLayout) -> RegisterLayout:
    """Tensor concatenation of layouts (labels must stay unique)."""
    regs: list[Register] = []
    for lay in layouts:
        regs.extend(lay.registers)
    return RegisterLayout(tuple(regs))
