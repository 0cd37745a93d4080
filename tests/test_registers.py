import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpirlab.errors import DimensionGuardExceeded, LayoutError
from qpirlab.registers import (
    RegisterLayout,
    concat,
    dim_guard,
    set_dim_guard,
)


def test_total_dim_is_product():
    lay = RegisterLayout.of(("a", 2), ("b", 3), ("c", 4))
    assert lay.total_dim == 24
    assert lay.labels() == ("a", "b", "c")
    assert lay.dims() == (2, 3, 4)


def test_duplicate_labels_rejected():
    with pytest.raises(LayoutError):
        RegisterLayout.of(("a", 2), ("a", 3))


def test_zero_dimension_rejected():
    with pytest.raises(LayoutError):
        RegisterLayout.of(("a", 0))


@pytest.mark.parametrize("dim", [2.5, 2.0, "3", np.float64(2.0), None, np.bool_(True)])
def test_a_dimension_that_is_not_an_integer_is_refused(dim):
    """A float, even a whole one, or text is refused, not truncated or parsed."""
    with pytest.raises(LayoutError, match="not an integer"):
        RegisterLayout.of(("A", dim))


@pytest.mark.parametrize("dim", [True, False])
def test_a_boolean_dimension_is_refused_for_its_type(dim):
    """True is not read as 1, nor False as a dimension below 1."""
    with pytest.raises(LayoutError, match="is a bool, not an integer"):
        RegisterLayout.of(("A", dim))


def test_numpy_integer_dimensions_are_ints():
    lay = RegisterLayout.of(("A", np.int64(3)), ("B", np.uint8(2)))
    assert lay.dims() == (3, 2) and all(type(d) is int for d in lay.dims())


def test_dim_guard_enforced():
    set_dim_guard(16)
    try:
        with pytest.raises(DimensionGuardExceeded):
            RegisterLayout.of(("a", 17))
        RegisterLayout.of(("a", 16))
    finally:
        set_dim_guard(2**20)
    assert dim_guard() == 2**20


def test_sub_keeps_original_order():
    lay = RegisterLayout.of(("a", 2), ("b", 3), ("c", 4))
    assert lay.sub(["c", "a"]).labels() == ("a", "c")
    assert lay.drop(["b"]) == lay.sub(["a", "c"])
    for select in (lay.sub, lay.drop):
        with pytest.raises(LayoutError, match="unknown register labels"):
            select(["b", "nope"])


def test_concat_rejects_clashes():
    a = RegisterLayout.of(("a", 2))
    with pytest.raises(LayoutError):
        concat(a, RegisterLayout.of(("a", 3)))
    assert concat(a, RegisterLayout.of(("b", 3))).labels() == ("a", "b")


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
def test_reordered_is_permutation(dims):
    lay = RegisterLayout.of(*[(f"r{k}", d) for k, d in enumerate(dims)])
    rev = lay.reordered(tuple(reversed(lay.labels())))
    assert rev.total_dim == lay.total_dim
    assert sorted(rev.labels()) == sorted(lay.labels())
    assert rev.reordered(lay.labels()) == lay
