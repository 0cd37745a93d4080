import math

import numpy as np
import pytest

from qpirlab.errors import LayoutError, LayoutMismatch, NotPositiveSemidefinite
from qpirlab.linalg import haar_unitary_matrix
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    DensityOperator,
    IdentityKron,
    Isometry,
    KrausChannel,
    StateVector,
    apply_channel,
    apply_isometry,
    apply,
    as_single_isometry,
    dense,
    pure_density,
    reduced_density_matrix,
    stinespring,
)

from conftest import (
    density_marginal,
    random_kraus_ops,
    random_pure,
    reorder,
)

QUBIT = RegisterLayout.of(("q", 2))
BELL = StateVector(RegisterLayout.of(("a", 2), ("b", 2)),
                   np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def test_state_norm_enforced():
    with pytest.raises(LayoutError):
        StateVector(QUBIT, np.array([1.0, 1.0]))
    StateVector(QUBIT, np.array([1.0, 1.0]) / np.sqrt(2))


def test_density_invariants():
    with pytest.raises(LayoutError):
        DensityOperator(QUBIT, np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(LayoutError):
        DensityOperator(QUBIT, np.eye(2))
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator(QUBIT, np.diag([1.5, -0.5]))


def test_isometry_needs_orthonormal_columns():
    lay1 = RegisterLayout.of(("in", 2))
    lay2 = RegisterLayout.of(("out", 3))
    with pytest.raises(LayoutError):
        Isometry(lay1, lay2, np.ones((3, 2)))
    v = np.zeros((3, 2)); v[0, 0] = 1; v[1, 1] = 1
    iso = Isometry(lay1, lay2, v)
    assert not iso.is_unitary
    with pytest.raises(LayoutError):
        Isometry(lay2, lay1, v.T)  # output smaller than input


def test_kraus_trace_preservation_checked():
    lay = RegisterLayout.of(("q", 2))
    with pytest.raises(LayoutError):
        KrausChannel(lay, lay, (np.diag([1.0, 0.5]),))
    ch = KrausChannel(lay, lay, (np.diag([1.0, 0.0]), np.array([[0, 1], [0, 0]])))
    assert as_single_isometry(ch) is None
    ident = KrausChannel(lay, lay, (np.eye(2),))
    assert as_single_isometry(ident) is not None


IDENTITY_KRONS = [(d, b) for d in (1, 3, 4) for b in (1, 2)]


@pytest.mark.parametrize("d, b", IDENTITY_KRONS)
def test_identity_kron_is_the_kronecker_product(d, b, rng):
    """1_d (x) B scattered from its block equals numpy's Kronecker
    product entry for entry, whole and column by column, and numpy reads
    it as that dense form."""
    block = haar_unitary_matrix(b, rng)
    m = IdentityKron(d, block)
    want = np.kron(np.eye(d), block)
    assert m.shape == want.shape
    assert np.array_equal(dense(m), want)
    assert np.array_equal(np.asarray(m), want)
    xs = rng.permutation(d * b)[:max(1, d * b // 2)]
    assert np.array_equal(dense(m, xs), want[:, xs])
    assert m == want and m == IdentityKron(d, block)


@pytest.mark.parametrize("d, b", IDENTITY_KRONS)
def test_identity_kron_apply_matches_the_dense_matmul(d, b, rng):
    m = IdentityKron(d, haar_unitary_matrix(b, rng))
    cols = rng.standard_normal((d * b, 5)) + 1j * rng.standard_normal((d * b, 5))
    assert np.max(np.abs(apply(m, cols) - dense(m) @ cols)) <= 1e-14


def test_identity_kron_isometry_checks_the_block():
    """The Gram of 1_d (x) B is 1_d (x) B^dagger B: a non-isometric block
    is refused, as are a shape that does not fit the layouts and a
    channel whose blocks do not sum to the identity."""
    lay = RegisterLayout.of(("a", 3), ("q", 2))
    unitary = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert Isometry(lay, lay, IdentityKron(3, unitary)).is_unitary
    with pytest.raises(LayoutError, match="not orthonormal"):
        Isometry(lay, lay, IdentityKron(3, np.array([[1.0, 0.0], [0.0, 0.5]])))
    with pytest.raises(LayoutError, match="shape"):
        Isometry(lay, lay, IdentityKron(2, unitary))
    half = math.sqrt(0.5)
    KrausChannel(lay, lay, (IdentityKron(3, half * unitary),
                            IdentityKron(3, half * np.eye(2))))
    with pytest.raises(LayoutError, match="not TP"):
        KrausChannel(lay, lay, (IdentityKron(3, half * unitary),))
    with pytest.raises(LayoutError):
        IdentityKron(0, unitary)


def test_partial_trace_bell_gives_maximally_mixed():
    rho = reduced_density_matrix(BELL, ["a"])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    prod = StateVector(RegisterLayout.of(("a", 2), ("b", 2)),
                       np.kron([1.0, 0.0], [0.0, 1.0]))
    rho = reduced_density_matrix(prod, ["a"])
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_keeps_unit_trace(rng):
    lay = RegisterLayout.of(("q0", 2), ("q1", 2), ("q2", 2))
    psi = StateVector(lay, random_pure(rng, 8))
    rho = reduced_density_matrix(psi, ["q1"])
    assert abs(np.trace(rho) - 1.0) < 1e-9
    with pytest.raises(LayoutError):
        reduced_density_matrix(psi, ["nope"])


def test_reduced_density_matches_partial_trace(rng):
    """The pure marginal equals the trace over the density operator, with
    the factors in the order asked for."""
    lay = RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    psi = StateVector(lay, random_pure(rng, 12))
    for keep in (["a", "c"], ["c", "a"], ["b", "a"]):
        dense = density_marginal(pure_density(psi), keep)
        quick = reduced_density_matrix(psi, keep)
        assert np.allclose(dense, quick, atol=1e-12)


def test_apply_isometry_moves_output_to_front():
    move = Isometry(RegisterLayout.of(("a", 2)), RegisterLayout.of(("m", 2)),
                    np.eye(2))
    out = apply_isometry(move, BELL)
    assert out.layout.labels() == ("m", "b")
    with pytest.raises(LayoutMismatch):
        apply_isometry(move, out)


def test_apply_channel_matches_vector_path(rng):
    lay = RegisterLayout.of(("a", 2), ("b", 2))
    psi = StateVector(lay, random_pure(rng, 4))
    u = Isometry(RegisterLayout.of(("b", 2)), RegisterLayout.of(("b", 2)),
                 np.array([[0, 1], [1, 0]], dtype=complex))
    via_vec = pure_density(apply_isometry(u, psi))
    via_rho = reorder(apply_channel(u, pure_density(psi)), via_vec.layout.labels())
    assert np.allclose(via_vec.matrix, via_rho.matrix, atol=1e-12)


def test_kraus_channel_preserves_trace(rng):
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    ch = KrausChannel(RegisterLayout.of(("b", 3)), RegisterLayout.of(("b2", 2)),
                      tuple(random_kraus_ops(rng, 3, 2, 4)))
    rho = pure_density(StateVector(lay, random_pure(rng, 6)))
    out = apply_channel(ch, rho)
    assert out.layout.labels() == ("b2", "a")
    assert abs(np.trace(out.matrix) - 1.0) < 1e-9


def test_stinespring_reproduces_the_channel(rng):
    """Tracing the environment out of V rho V^dagger gives the channel's
    output, for a channel and for an isometry (one Kraus operator)."""
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    rho = pure_density(StateVector(lay, random_pure(rng, 6)))
    b, b2 = RegisterLayout.of(("b", 3)), RegisterLayout.of(("b2", 2))
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 0j)[0]
    for op, m in ((KrausChannel(b, b2, tuple(random_kraus_ops(rng, 3, 2, 4))), 4),
                  (Isometry(b, b, u), 1)):
        v = stinespring(op)
        assert v.shape == (op.output_layout.total_dim * m, 3)
        env = RegisterLayout.of(("e", m))
        dilated = Isometry(op.input_layout, concat(op.output_layout, env), v)
        out = apply_channel(dilated, rho)
        want = apply_channel(op, rho)
        got = density_marginal(out, want.layout.labels())
        assert np.allclose(got, want.matrix, atol=1e-12)
