import dataclasses

import numpy as np
import pytest

from qpirlab.errors import ShapeMismatch
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    Isometry,
    KrausChannel,
    StateVector,
    dense,
    reduced_density_matrix,
)
from qpirlab.protocol import ProtocolSpec, execute, purify_both
from qpirlab.adversary import (
    AdversaryStrategy,
    certify_specious,
    default_input_suite,
    honest_adversary,
    install,
    purified_adversary,
    recovery_shapes,
    trace_out_recovery,
)
from qpirlab.linalg import haar_unitary_matrix
from qpirlab.qpir import builtin

from conftest import certify_oracle, dephased, random_kraus_ops, random_pure


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
    rep = certify_specious(spec, adv, trace_out_recovery(spec, adv),
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
    want = certify_oracle(spec, adv, recovery, inputs)
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
    rep = certify_specious(spec, adv, trace_out_recovery(spec, adv),
                           small_inputs(spec, rng))
    assert rep.epsilon_hat > 0.3


def _ultimate(spec, adv, last_map, inputs, rng):
    """Ultimate speciousness: the final-step row of a certificate whose last
    map is `last_map` and whose earlier maps are Haar environment maps."""
    maps = _environment_recovery(spec, adv, rng)[:-1] + (last_map,)
    return certify_specious(spec, adv, maps, inputs).worst_by_step()[2 * spec.rounds]


def test_ultimate_no_worse_than_stepwise(rng):
    spec = two_round_protocol()
    adv = purified_adversary(spec, "A")
    recovery = trace_out_recovery(spec, adv)
    inputs = small_inputs(spec, rng)
    stepwise = certify_specious(spec, adv, recovery, inputs)
    ultimate = _ultimate(spec, adv, recovery[-1], inputs, rng)
    assert ultimate <= stepwise.epsilon_hat + 1e-12


def test_ultimate_is_the_final_step_of_stepwise(rng):
    spec = two_round_protocol()
    adv = AdversaryStrategy("A", spec.a_memory,
                            (spec.a_ops[0], _memory_discarding_op(spec)))
    recovery = trace_out_recovery(spec, adv)
    inputs = small_inputs(spec, rng)
    stepwise = certify_specious(spec, adv, recovery, inputs)
    ultimate = _ultimate(spec, adv, recovery[-1], inputs, rng)
    assert ultimate > 0.1
    assert ultimate == stepwise.worst_by_step()[2 * spec.rounds]


def test_epsilon_monotone_in_test_set(rng):
    spec = two_round_protocol()
    adv = AdversaryStrategy("A", spec.a_memory,
                            (spec.a_ops[0], _memory_discarding_op(spec)))
    recovery = trace_out_recovery(spec, adv)
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
                          tuple(dense(final.matrix) @ k for k in kraus))
    adv = AdversaryStrategy("B", spec.b_memory, (spec.b_ops[0], folded))
    tampered = install(spec, adv)
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    psi = StateVector(lay, random_pure(rng, lay.total_dim))
    server = spec.a_memory[-1].labels()
    honest = reduced_density_matrix(execute(purify_both(spec), psi)[-1], server)
    attacked = reduced_density_matrix(execute(purify_both(tampered), psi)[-1],
                                      server)
    assert np.max(np.abs(honest - attacked)) < 1e-8


def test_recovery_shape_validation(rng):
    base = two_round_protocol()   # A's first op measures its qubit, then copies it
    spec = base.with_party("A", base.a_memory, (dephased(base.a_ops[0]), base.a_ops[1]))
    adv = purified_adversary(spec, "A")
    # wrong: the honest party's maps, whose views lack the purifier
    recovery = trace_out_recovery(spec, honest_adversary(spec, "A"))
    with pytest.raises(ShapeMismatch, match="recovery map 1: "):
        certify_specious(spec, adv, recovery, small_inputs(spec, rng))
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


def _environment_recovery(spec, adv, rng):
    """Haar isometries from each step's view into the honest registers plus
    a qubit environment E, which certification traces out."""
    maps = []
    for t in range(1, 2 * spec.rounds + 1):
        view, honest = recovery_shapes(spec, adv, t)
        out = concat(honest, RegisterLayout.of(("E", 2)))
        u = haar_unitary_matrix(out.total_dim, rng)
        maps.append(Isometry(view, out, u[:, :view.total_dim]))
    return tuple(maps)


@pytest.mark.parametrize("case", ["memory-discarding A", "Kraus B",
                                  "memory-discarding A, environment recovery",
                                  "noisier client"])
def test_certify_rows_match_the_density_oracle(case, rng):
    """Row by row, certification on purified runs equals the density-operator
    definition: apply F_t to the adversarial state, trace out F_t's
    environment and compare it with the honest one.

    The noisier client runs noisy-trivial n=2's client channel at
    delta = 0.4 in the host at delta = 0.2.  The host's client is a
    channel, so its purified run carries a purifier, which is traced out
    like the adversary's.  What is left of each input after the client's
    op is the server's copy of x and the client's i and x with each bit
    flipped independently, so every row with x fixed compares
    Bernoulli(0.2)^2 with Bernoulli(0.4)^2 on the flips:
    epsilon_hat = (|0.64 - 0.36| + 2 |0.16 - 0.24| + |0.04 - 0.16|) / 2
    = 0.28, certified at gamma = 0.3 and not at 0.25."""
    if case == "noisier client":
        spec = builtin("noisy-trivial", 2, delta=0.2).spec
        noisier = builtin("noisy-trivial", 2, delta=0.4).spec
        adv = AdversaryStrategy("B", spec.b_memory, noisier.b_ops)
        recovery = trace_out_recovery(spec, adv)
        inputs = default_input_suite(spec)
    else:
        spec = two_round_protocol()
        if case.startswith("memory-discarding A"):
            adv = AdversaryStrategy("A", spec.a_memory,
                                    (spec.a_ops[0], _memory_discarding_op(spec)))
        else:
            adv = _kraus_b_adversary(spec, rng)
        if case.endswith("environment recovery"):
            recovery = _environment_recovery(spec, adv, rng)
        else:
            recovery = trace_out_recovery(spec, adv)
        inputs = small_inputs(spec, rng) + default_input_suite(spec)
    rep = certify_specious(spec, adv, recovery, inputs)
    want = certify_oracle(spec, adv, recovery, inputs)
    assert [(r.step, r.input_id) for r in rep.rows] == [w[:2] for w in want]
    for row, (_, _, distance) in zip(rep.rows, want):
        assert abs(row.distance - distance) < 1e-12
    if case != "noisier client":
        assert rep.epsilon_hat > 0.3
        return
    assert rep.epsilon_hat == pytest.approx(0.28, abs=1e-12)
    for gamma, certified in ((0.3, True), (0.25, False)):
        claimed = dataclasses.replace(adv, gamma=gamma)
        assert certify_specious(spec, claimed, recovery, inputs).certified is certified


@pytest.mark.parametrize("case", ["Kraus channel", "honest register renamed"])
def test_a_recovery_map_must_be_an_isometry_onto_the_honest_registers(case, rng):
    """A Kraus map is rejected with a pointer to its dilation; an isometry
    whose output lacks an honest register is rejected too."""
    spec = two_round_protocol()
    adv = honest_adversary(spec, "A")
    maps = list(trace_out_recovery(spec, adv))
    last = maps[-1]
    if case == "Kraus channel":
        maps[-1] = KrausChannel(last.input_layout, last.output_layout, (last.matrix,))
        match = "stinespring"
    else:
        renamed = RegisterLayout.of(*((f"{lb}'", d) for lb, d
                                      in last.output_layout.registers))
        maps[-1] = Isometry(last.input_layout, renamed, last.matrix)
        match = "environment"
    inputs = small_inputs(spec, rng)
    with pytest.raises(ShapeMismatch, match=match):
        certify_specious(spec, adv, tuple(maps), inputs)


def test_an_empty_input_suite_is_named_up_front():
    spec = two_round_protocol()
    adv = honest_adversary(spec, "A")
    maps = trace_out_recovery(spec, adv)
    for empty in ([], ()):
        with pytest.raises(ShapeMismatch, match="input suite is empty"):
            certify_specious(spec, adv, maps, empty)


@pytest.mark.parametrize("label", ["R", "Bbar", "B2", "E"])
def test_an_environment_label_must_be_free_before_anything_runs(
        label, rng, monkeypatch):
    """A dimension-1 environment on the last map: "R" is the entangled
    input's reference, "Bbar" the honest party's purifier (its last op
    measures what it stores) and "B2" its final memory, so each is a
    ShapeMismatch naming the step and the label before any run; a free
    label "E" certifies at 0."""
    import qpirlab.adversary as adversary
    base = two_round_protocol()
    spec = base.with_party("B", base.b_memory, (base.b_ops[0], dephased(base.b_ops[1])))
    adv = honest_adversary(spec, "A")
    maps = list(trace_out_recovery(spec, adv))
    last = maps[-1]
    maps[-1] = Isometry(last.input_layout,
                        concat(last.output_layout, RegisterLayout.of((label, 1))),
                        last.matrix)
    inputs = small_inputs(spec, rng) + default_input_suite(spec)
    if label == "E":
        assert certify_specious(spec, adv, tuple(maps),
                                inputs).epsilon_hat == 0.0
        return

    def no_run(*args):
        raise AssertionError("a protocol ran before the labels were checked")

    monkeypatch.setattr(adversary, "_steps", no_run)
    match = f"recovery map 4: environment label '{label}'"
    with pytest.raises(ShapeMismatch, match=match):
        certify_specious(spec, adv, tuple(maps), inputs)


@pytest.mark.parametrize("name, party", [("trivial", "A"), ("index-in-clear", "B")])
def test_certify_runs_each_spec_once_on_the_whole_suite(name, party, monkeypatch):
    """The purified honest and adversarial protocols each run once, on one
    batch that holds every input of the default suite side by side (the
    entangled input's reference as 8 columns), and each F_t runs as a
    one-op schedule on the adversarial batch of its step."""
    import qpirlab.adversary as adversary
    spec = builtin(name, 2).spec
    adv = purified_adversary(spec, party)
    suite = default_input_suite(spec)
    width = 8 + 2 + 8   # basis inputs, uniform ones, reference (A_0 B_0: 4 x 2)
    runs = []

    def recorded(schedule, lay, columns):
        runs.append((len(schedule), columns.shape[1]))
        return real(schedule, lay, columns)

    real = adversary._steps
    monkeypatch.setattr(adversary, "_steps", recorded)
    rep = certify_specious(spec, adv, trace_out_recovery(spec, adv), suite)
    steps = 2 * spec.rounds
    assert [r for r in runs if r[0] == steps] == [(steps, width)] * 2
    assert [r for r in runs if r[0] != steps] == [(1, width)] * steps
    assert len(rep.rows) == len(suite) * steps and rep.epsilon_hat == 0.0


@pytest.mark.parametrize("count", [3, 5])
def test_the_map_count_is_checked_before_anything_runs(count, rng, monkeypatch):
    """Two rounds need 4 maps; a tuple one short or one long is a
    ShapeMismatch naming both counts, before any run."""
    import qpirlab.adversary as adversary
    spec = two_round_protocol()
    adv = honest_adversary(spec, "A")
    maps = trace_out_recovery(spec, adv)
    maps = maps[:count] if count < len(maps) else maps + maps[-1:]

    def no_run(*args):
        raise AssertionError("a protocol ran before the map count was checked")

    monkeypatch.setattr(adversary, "_steps", no_run)
    with pytest.raises(ShapeMismatch, match=f"need 4 recovery maps, got {count}"):
        certify_specious(spec, adv, maps, small_inputs(spec, rng))
