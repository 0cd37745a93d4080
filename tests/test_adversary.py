import numpy as np
import pytest

from qpirlab.errors import ShapeMismatch
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    Isometry,
    KrausChannel,
    StateVector,
    reduced_density_matrix,
)
from qpirlab.protocol import ProtocolSpec, execute, purify_both
from qpirlab.adversary import (
    AdversaryStrategy,
    certify_specious,
    certify_ultimately_specious,
    default_input_suite,
    honest_adversary,
    identity_recovery,
    install,
    purified_adversary,
    recovery_shapes,
    trace_out_recovery,
)
from qpirlab.qpir import builtin

from conftest import certify_oracle, random_kraus_ops, random_pure


def two_round_protocol():
    """A keeps a qubit in memory across both rounds and ships a copy twice."""
    a0 = RegisterLayout.of(("A0", 2))
    a1 = RegisterLayout.of(("A1", 2))
    a2 = RegisterLayout.of(("A2", 2))
    x1, x2 = RegisterLayout.of(("X1", 2)), RegisterLayout.of(("X2", 2))
    y1 = RegisterLayout.of(("Y1", 1))
    b0 = RegisterLayout.of(("B0", 1))
    b1 = RegisterLayout.of(("B1", 2))
    b2 = RegisterLayout.of(("B2", 4))
    copy = np.zeros((4, 2), dtype=complex)
    copy[0, 0] = copy[3, 1] = 1.0
    a_ops = (Isometry(a0, concat(a1, x1), copy),
             Isometry(concat(a1, y1), concat(a2, x2), copy))
    b_ops = (Isometry(concat(b0, x1), concat(b1, y1), np.eye(2, dtype=complex)),
             Isometry(concat(b1, x2), b2, np.eye(4, dtype=complex)))
    return ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                        a_ops, b_ops)


def small_inputs(spec, rng, count=3):
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    out = [("zero", StateVector(lay, np.eye(lay.total_dim, dtype=complex)[:, 0]))]
    for k in range(count - 1):
        out.append((f"rand-{k}", StateVector(lay, random_pure(rng, lay.total_dim))))
    return out


def test_install_replaces_only_one_party():
    spec = two_round_protocol()
    adv = honest_adversary(spec, "A")
    again = install(spec, adv)
    assert again == spec

    bad = AdversaryStrategy("A", adv.memory,
                            (adv.operations[1], adv.operations[0]))
    with pytest.raises(ShapeMismatch):
        install(spec, bad)


def test_honest_adversary_certifies_at_zero(rng):
    spec = two_round_protocol()
    adv = honest_adversary(spec, "A")
    rep = certify_specious(spec, adv, identity_recovery(spec, "A"),
                           small_inputs(spec, rng))
    assert rep.epsilon_hat < 1e-8
    assert rep.certified is True


def test_purified_adversary_with_trace_out_recovery(rng):
    spec = two_round_protocol()
    adv = purified_adversary(spec, "A")
    rep = certify_specious(spec, adv, trace_out_recovery(spec, adv),
                           small_inputs(spec, rng))
    assert rep.epsilon_hat < 1e-8
    assert rep.certified is True


def test_purified_channel_party_is_zero_specious_each_step(rng):
    """Both marginals come from one vector, so every row is exactly 0; the
    density-operator definition reads round-off on the same rows."""
    p = builtin("noisy-trivial", 2, delta=0.3)
    spec = p.spec
    adv = purified_adversary(spec, "B")
    recovery = trace_out_recovery(spec, adv)
    inputs = default_input_suite(spec)
    rep = certify_specious(spec, adv, recovery, inputs)
    assert rep.epsilon_hat < 1e-8
    for step, worst in rep.worst_by_step().items():
        assert worst < 1e-8, (step, worst)
    assert all(row.distance == 0.0 for row in rep.rows)
    want = certify_oracle(spec, adv, recovery.maps, inputs)
    assert [(r.step, r.input_id) for r in rep.rows] == [w[:2] for w in want]
    assert max(w[2] for w in want) < 1e-12


def _memory_discarding_op(spec):
    """Round-2 channel that resets the adversary's memory to |0>."""
    a1, a2 = spec.a_memory[1], spec.a_memory[2]
    x2, y1 = spec.x_comm[1], spec.y_comm[0]
    k0 = np.zeros((4, 2), dtype=complex); k0[0, 0] = 1.0
    k1 = np.zeros((4, 2), dtype=complex); k1[0, 1] = 1.0
    return KrausChannel(concat(a1, y1), concat(a2, x2), (k0, k1))


def test_memory_discarding_adversary_is_detected(rng):
    spec = two_round_protocol()
    adv = AdversaryStrategy("A", spec.a_memory,
                            (spec.a_ops[0], _memory_discarding_op(spec)))
    rep = certify_specious(spec, adv, identity_recovery(spec, "A"),
                           small_inputs(spec, rng))
    assert rep.epsilon_hat > 0.3


def test_ultimate_no_worse_than_stepwise(rng):
    spec = two_round_protocol()
    adv = purified_adversary(spec, "A")
    recovery = trace_out_recovery(spec, adv)
    inputs = small_inputs(spec, rng)
    stepwise = certify_specious(spec, adv, recovery, inputs)
    ultimate = certify_ultimately_specious(spec, adv, recovery.maps[-1], inputs)
    assert ultimate.epsilon_hat <= stepwise.epsilon_hat + 1e-12


def test_ultimate_is_the_final_step_of_stepwise(rng):
    spec = two_round_protocol()
    adv = AdversaryStrategy("A", spec.a_memory,
                            (spec.a_ops[0], _memory_discarding_op(spec)))
    recovery = identity_recovery(spec, "A")
    inputs = small_inputs(spec, rng)
    stepwise = certify_specious(spec, adv, recovery, inputs)
    ultimate = certify_ultimately_specious(spec, adv, recovery.maps[-1], inputs)
    assert ultimate.epsilon_hat > 0.1
    assert ultimate.epsilon_hat == stepwise.worst_by_step()[2 * spec.rounds]


def test_epsilon_monotone_in_test_set(rng):
    spec = two_round_protocol()
    adv = AdversaryStrategy("A", spec.a_memory,
                            (spec.a_ops[0], _memory_discarding_op(spec)))
    recovery = identity_recovery(spec, "A")
    inputs = small_inputs(spec, rng, count=4)
    small = certify_specious(spec, adv, recovery, inputs[:2])
    large = certify_specious(spec, adv, recovery, inputs)
    assert large.epsilon_hat >= small.epsilon_hat - 1e-12


def test_adversarial_measurement_does_not_signal(rng):
    """A client that measures the incoming message leaves the server's
    marginals untouched."""
    p = builtin("index-in-clear", 2)
    spec = p.spec
    # dephase X2 (the answer qubit) before the honest final op
    b1 = spec.b_memory[1]
    x2 = spec.x_comm[1]
    lay_in = concat(b1, x2)
    n = lay_in.total_dim
    kraus = []
    for outcome in range(2):
        proj = np.zeros((2, 2), dtype=complex)
        proj[outcome, outcome] = 1.0
        kraus.append(np.kron(np.eye(b1.total_dim), proj))
    measure = KrausChannel(lay_in, lay_in, tuple(kraus))
    # fold the measurement into B's last op
    final = spec.b_ops[1]
    folded = KrausChannel(lay_in, final.output_layout,
                          tuple(final.matrix @ k for k in kraus))
    adv = AdversaryStrategy("B", spec.b_memory, (spec.b_ops[0], folded))
    tampered = install(spec, adv)
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    psi = StateVector(lay, random_pure(rng, lay.total_dim))
    server = spec.a_memory[-1].labels()
    honest = reduced_density_matrix(execute(purify_both(spec), psi).final, server)
    attacked = reduced_density_matrix(execute(purify_both(tampered), psi).final,
                                      server)
    assert np.max(np.abs(honest - attacked)) < 1e-8


def test_recovery_shape_validation():
    spec = two_round_protocol()
    adv = purified_adversary(spec, "A")
    recovery = identity_recovery(spec, "A")  # wrong: ignores the purifier
    with pytest.raises(ShapeMismatch):
        certify_specious(spec, adv, recovery, [])
    with pytest.raises(ShapeMismatch):
        certify_ultimately_specious(spec, adv, recovery.maps[-1], [])
    lay_in, lay_out = recovery_shapes(spec, adv, 1)
    assert lay_out.labels()[:1] == ("A1",)
    assert "X1" in lay_in.labels()


@pytest.mark.parametrize("party", "AB")
def test_recovery_shapes_follow_the_adversary_moves(party):
    """After each step: the adversary's memory after its last op, plus the
    message it has just sent, if any."""
    spec = two_round_protocol()
    adv = purified_adversary(spec, party)
    m, h = adv.memory, spec.memory(party)
    (x1, x2), (y1,) = spec.x_comm, spec.y_comm
    if party == "A":
        expected = [(concat(m[1], x1), concat(h[1], x1)), (m[1], h[1]),
                    (concat(m[2], x2), concat(h[2], x2)), (m[2], h[2])]
    else:
        expected = [(m[0], h[0]), (concat(m[1], y1), concat(h[1], y1)),
                    (m[1], h[1]), (m[2], h[2])]
    assert [recovery_shapes(spec, adv, t) for t in range(1, 5)] == expected
    for outside in (0, 5):
        with pytest.raises(ShapeMismatch):
            recovery_shapes(spec, adv, outside)


def _kraus_b_adversary(spec, rng):
    """Party B with every op replaced by a random channel of the same type."""
    ops = tuple(KrausChannel(op.input_layout, op.output_layout,
                             tuple(random_kraus_ops(rng, op.input_layout.total_dim,
                                                    op.output_layout.total_dim, 3)))
                for op in spec.b_ops)
    return AdversaryStrategy("B", spec.b_memory, ops)


@pytest.mark.parametrize("case", ["memory-discarding A", "Kraus B"])
def test_certify_rows_match_the_density_oracle(case, rng):
    """Row by row, certification on purified runs equals the density-operator
    definition: apply F_t to the adversarial state and compare it with the
    honest one."""
    spec = two_round_protocol()
    if case == "memory-discarding A":
        adv = AdversaryStrategy("A", spec.a_memory,
                                (spec.a_ops[0], _memory_discarding_op(spec)))
    else:
        adv = _kraus_b_adversary(spec, rng)
    recovery = identity_recovery(spec, adv.party)
    inputs = small_inputs(spec, rng) + default_input_suite(spec)
    rep = certify_specious(spec, adv, recovery, inputs)
    want = certify_oracle(spec, adv, recovery.maps, inputs)
    assert [(r.step, r.input_id) for r in rep.rows] == [w[:2] for w in want]
    for row, (_, _, distance) in zip(rep.rows, want):
        assert abs(row.distance - distance) < 1e-12
    assert rep.epsilon_hat > 0.3

