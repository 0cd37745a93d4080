import numpy as np
import pytest

from qpirlab.errors import LayoutError, LayoutMismatch, NotPositiveSemidefinite
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    DensityOperator,
    Isometry,
    KrausChannel,
    StateVector,
    apply_channel,
    apply_isometry,
    as_single_isometry,
    permute_registers,
    pure_density,
    reduced_density_matrix,
    stinespring,
    tensor,
)

from conftest import (
    basis,
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


def test_partial_trace_bell_gives_maximally_mixed():
    rho = reduced_density_matrix(BELL, ["a"])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    prod = tensor(basis(RegisterLayout.of(("a", 2)), 0),
                  basis(RegisterLayout.of(("b", 2)), 1))
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


def test_permute_registers_round_trip(rng):
    lay = RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    psi = StateVector(lay, random_pure(rng, 12))
    back = permute_registers(permute_registers(psi, ("c", "a", "b")),
                             ("a", "b", "c"))
    assert np.allclose(back.amplitudes, psi.amplitudes)


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
