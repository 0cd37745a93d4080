import numpy as np
import pytest

from qpirlab.errors import LayoutError, ShapeMismatch
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    DensityOperator,
    Isometry,
    KrausChannel,
    StateVector,
    pure_density,
    reduced_density_matrix,
)
from qpirlab.linalg import trace_distance_matrices
from qpirlab.protocol import (
    ProtocolSpec,
    communication_complexity,
    execute,
    execute_pure_batch,
    product_input,
    purify_both,
    purify_party,
    random_protocol,
    rank_trace,
)
from qpirlab.adversary import default_input_suite
from qpirlab.qpir import builtin, qpir_input

from conftest import (
    density_marginal,
    density_run,
    dephased,
    purify,
    random_pure,
    three_round_random,
)

BUILTINS = [("trivial", {}), ("index-in-clear", {}),
            ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})]


def marginals_match(pure_states, reference, tol=1e-10) -> None:
    """Each pure step state, traced down to the registers of the reference
    density operator at that step, equals it."""
    assert len(pure_states) == len(reference)
    for psi, rho in zip(pure_states, reference):
        got = reduced_density_matrix(psi, rho.layout.labels())
        assert trace_distance_matrices(got, rho.matrix) < tol


def move_protocol():
    """One round; A moves its qubit into the message, B stores it."""
    a0, a1 = RegisterLayout.of(("A0", 2)), RegisterLayout.of(("A1", 1))
    x1 = RegisterLayout.of(("X1", 2))
    b0, b1 = RegisterLayout.of(("B0", 2)), RegisterLayout.of(("B1", 4))
    a_op = Isometry(a0, concat(a1, x1), np.eye(2, dtype=complex))
    b_op = Isometry(concat(b0, x1), b1, np.eye(4, dtype=complex))
    return ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (a_op,), (b_op,))


def dephasing_protocol():
    """`move_protocol` with a channel on each side: A measures its qubit
    before it ships it, and B measures what it stores."""
    spec = move_protocol()
    return ProtocolSpec(1, spec.a_memory, spec.b_memory, spec.x_comm, (),
                        tuple(map(dephased, spec.a_ops)),
                        tuple(map(dephased, spec.b_ops)))


def test_move_protocol_hands_over_the_qubit(rng):
    spec = move_protocol()
    qubit = random_pure(rng, 2)
    psi = StateVector(concat(spec.a_memory[0], spec.b_memory[0]),
                      np.kron(qubit, np.array([1.0, 0.0])))
    out = execute(spec, psi)[-1]
    assert out.layout.labels() == ("A1", "B1")
    got = reduced_density_matrix(out, ["B1"])
    # B1 = (B0, X1) merged; the moved qubit sits in the X1 half
    back = got.reshape(2, 2, 2, 2)[0, :, 0, :]
    assert np.allclose(back, np.outer(qubit, qubit.conj()), atol=1e-12)


def test_identity_protocol_is_a_relabel(rng):
    a0, a1 = RegisterLayout.of(("A0", 3)), RegisterLayout.of(("A1", 3))
    x1 = RegisterLayout.of(("X1", 1))
    b0, b1 = RegisterLayout.of(("B0", 2)), RegisterLayout.of(("B1", 2))
    spec = ProtocolSpec(
        1, (a0, a1), (b0, b1), (x1,), (),
        (Isometry(a0, concat(a1, x1), np.eye(3, dtype=complex)),),
        (Isometry(concat(b0, x1), b1, np.eye(2, dtype=complex)),),
    )
    psi = StateVector(concat(a0, b0), random_pure(rng, 6))
    out = execute(spec, psi)[-1]
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_trivial_qpir_client_holds_database():
    p = builtin("trivial", 6)
    x = 0b101101
    out = execute(p.spec, qpir_input(p, x, 2))[-1]
    client = reduced_density_matrix(out, ["B1"])
    # client state is |i=2><i=2| (x) |x><x| in the merged register
    idx = 1 * 2**6 + x
    assert client[idx, idx].real == pytest.approx(1.0, abs=1e-9)


def test_shape_mismatch_reports_round():
    a0, a1 = RegisterLayout.of(("A0", 2)), RegisterLayout.of(("A1", 2))
    x1 = RegisterLayout.of(("X1", 2))
    b0, b1 = RegisterLayout.of(("B0", 2)), RegisterLayout.of(("B1", 4))
    bad = Isometry(a0, concat(a1, RegisterLayout.of(("X1", 1))),
                   np.eye(2, dtype=complex))
    with pytest.raises(ShapeMismatch, match="A1"):
        ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (bad,),
                     (Isometry(concat(b0, x1), b1, np.eye(4, dtype=complex)),))


def test_step_table_of_a_two_round_protocol():
    spec = random_protocol(seed=3, rounds=2, qubit_budget=3)
    a, b, x, y = spec.a_memory, spec.b_memory, spec.x_comm, spec.y_comm
    none = RegisterLayout(())
    steps = spec.steps
    assert [(st.number, st.name) for st in steps] == [
        (1, "A1"), (2, "B1"), (3, "A2"), (4, "B2")]
    assert [(st.input_layout, st.output_layout) for st in steps] == [
        (a[0], concat(a[1], x[0])),
        (concat(b[0], x[0]), concat(b[1], y[0])),
        (concat(a[1], y[0]), concat(a[2], x[1])),
        (concat(b[1], x[1]), b[2]),
    ]
    assert steps[0].message_in == none and steps[-1].message_out == none
    assert [st.order for st in steps] == [
        a[1].labels() + x[0].labels() + b[0].labels(),
        a[1].labels() + b[1].labels() + y[0].labels(),
        a[2].labels() + x[1].labels() + b[1].labels(),
        a[2].labels() + b[2].labels(),
    ]


def test_with_party_replaces_one_party_and_revalidates():
    spec = dephasing_protocol()
    pure = purify_party(spec, "B")
    swapped = spec.with_party("B", pure.b_memory, pure.b_ops)
    assert swapped.b_ops is pure.b_ops and swapped.b_memory is pure.b_memory
    assert swapped.a_ops is spec.a_ops and swapped.a_memory is spec.a_memory
    with pytest.raises(ShapeMismatch, match="B1"):
        spec.with_party("B", spec.b_memory, pure.b_ops)
    with pytest.raises(ValueError):
        spec.with_party("C", spec.b_memory, spec.b_ops)


def test_input_layout_validated():
    spec = move_protocol()
    wrong = StateVector(RegisterLayout.of(("B0", 2), ("A0", 2)),
                        np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ShapeMismatch):
        execute(spec, wrong)
    with_ref = StateVector(
        RegisterLayout.of(("A0", 2), ("B0", 2), ("R", 4)),
        np.kron(np.array([1, 0, 0, 0], dtype=complex),
                np.array([1, 0, 0, 0], dtype=complex)),
    )
    out = execute(spec, with_ref)[-1]
    assert out.layout.labels() == ("A1", "B1", "R")
    bad_ref = StateVector(
        RegisterLayout.of(("A0", 2), ("B0", 2), ("R", 3)),
        np.kron(np.array([1, 0, 0, 0], dtype=complex),
                np.array([1, 0, 0], dtype=complex)),
    )
    with pytest.raises(ShapeMismatch, match="'R' has dim 3; it needs dim 1 or 4"):
        execute(spec, bad_ref)


def test_batch_validates_the_reference_register():
    spec = move_protocol()
    lay = RegisterLayout.of(("A0", 2), ("B0", 2), ("R", 5))
    with pytest.raises(ShapeMismatch, match="'R' has dim 5; it needs dim 1 or 4"):
        execute_pure_batch(spec, lay, np.eye(lay.total_dim, dtype=complex))


@pytest.mark.parametrize("label", ["A1", "X1", "B1"])
def test_a_reference_label_taken_by_the_protocol_is_rejected(label):
    """Both entry points reject it up front, before any op meets it."""
    spec = builtin("trivial", 2).spec
    lay = concat(spec.a_memory[0], spec.b_memory[0],
                 RegisterLayout.of((label, 1)))
    amps = np.eye(lay.total_dim, dtype=complex)
    match = f"{label!r} takes the label of a protocol register"
    with pytest.raises(ShapeMismatch, match=match):
        execute(spec, StateVector(lay, amps[:, 0]))
    with pytest.raises(ShapeMismatch, match=match):
        execute_pure_batch(spec, lay, amps)


def test_reference_register_is_inert(rng):
    spec = move_protocol()
    qubit = random_pure(rng, 2)
    ref = random_pure(rng, 4)
    amps = np.kron(np.kron(qubit, np.array([1.0, 0.0])), ref)
    psi = StateVector(RegisterLayout.of(("A0", 2), ("B0", 2), ("R", 4)), amps)
    out = execute(spec, psi)[-1]
    got = reduced_density_matrix(out, ["R"])
    assert np.allclose(got, np.outer(ref, ref.conj()), atol=1e-12)


class TestCommunicationComplexity:
    def test_one_dimensional_channels_count_zero(self):
        spec = random_protocol(seed=1, rounds=2, qubit_budget=0)
        assert communication_complexity(spec) == 0.0

    def test_trivial_qpir_counts_n(self):
        assert builtin("trivial", 5).communication == pytest.approx(5.0)

    def test_mixed_dims_sum(self):
        a0 = RegisterLayout.of(("A0", 8))
        a1, a2 = RegisterLayout.of(("A1", 2)), RegisterLayout.of(("A2", 2))
        x1, x2 = RegisterLayout.of(("X1", 8)), RegisterLayout.of(("X2", 2))
        y1 = RegisterLayout.of(("Y1", 2))
        b0, b1, b2 = (RegisterLayout.of(("B0", 2)),
                      RegisterLayout.of(("B1", 8)),
                      RegisterLayout.of(("B2", 16)))
        ops_a = (
            Isometry(a0, concat(a1, x1), np.eye(16, dtype=complex)[:, :8]),
            Isometry(concat(a1, y1), concat(a2, x2), np.eye(4, dtype=complex)),
        )
        ops_b = (
            Isometry(concat(b0, x1), concat(b1, y1), np.eye(16, dtype=complex)),
            Isometry(concat(b1, x2), b2, np.eye(16, dtype=complex)),
        )
        spec = ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                            ops_a, ops_b)
        assert communication_complexity(spec) == pytest.approx(3 + 1 + 1)


class TestPurifyParty:
    def test_unitary_party_gets_trivial_purifier(self, rng):
        """A party with no channel is its own purification: no purifier
        register, and the very same ops."""
        spec = move_protocol()
        pure = purify_party(spec, "A")
        assert pure.a_memory == spec.a_memory and pure.a_ops[0] is spec.a_ops[0]
        psi = StateVector(concat(spec.a_memory[0], spec.b_memory[0]),
                          random_pure(rng, 4))
        orig = execute(spec, psi)[-1]
        traced = reduced_density_matrix(execute(pure, psi)[-1],
                                        orig.layout.labels())
        assert trace_distance_matrices(pure_density(orig).matrix, traced) < 1e-8

    def test_measure_and_forget_channel(self, rng):
        a0, a1 = RegisterLayout.of(("A0", 2)), RegisterLayout.of(("A1", 1))
        x1 = RegisterLayout.of(("X1", 2))
        b0, b1 = RegisterLayout.of(("B0", 2)), RegisterLayout.of(("B1", 4))
        dephase = KrausChannel(a0, concat(a1, x1),
                               (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        b_op = Isometry(concat(b0, x1), b1, np.eye(4, dtype=complex))
        spec = ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (dephase,), (b_op,))
        pure = purify_party(spec, "A")
        assert pure.a_memory[-1].dims()[-1] == 2  # copy register
        psi = StateVector(concat(a0, b0), random_pure(rng, 4))
        marginals_match(execute(pure, psi),
                        density_run(spec, pure_density(psi)), tol=1e-8)

    def test_purify_both_yields_pure_global_state(self, rng):
        spec = dephasing_protocol()
        both = purify_both(spec)
        assert both.all_unitary()
        psi = StateVector(concat(spec.a_memory[0], spec.b_memory[0]),
                          random_pure(rng, 4))
        out = execute(both, psi)[-1]
        orig = spec.a_memory[-1].labels() + spec.b_memory[-1].labels()
        bars = [lb for lb in out.layout.labels() if lb not in orig]
        assert len(bars) == 2

    @pytest.mark.parametrize("name", ["trivial", "index-in-clear", "random"])
    def test_a_protocol_without_channels_is_its_own_purification(self, name):
        spec = builtin(name, 2, **dict(BUILTINS)[name]).spec
        both = purify_both(spec)
        for party in "AB":
            assert all(got is op for got, op in zip(both.ops(party), spec.ops(party)))
            assert both.memory(party) == spec.memory(party)

    @pytest.mark.parametrize("name", [b[0] for b in BUILTINS] + ["three-round"])
    @pytest.mark.parametrize("party", "AB")
    def test_purifying_twice_changes_nothing(self, name, party):
        if name == "three-round":   # the client's first channel is in round 3
            spec = three_round_random(2, seed=5).spec
        else:
            spec = builtin(name, 2, **dict(BUILTINS)[name]).spec
        once = purify_party(spec, party)
        assert purify_party(once, party) == once

    def test_a_client_holds_no_purifier_before_its_first_channel(self, rng):
        """Only the client's round-3 op is a channel, so B_1 and B_2 stay
        the honest memories and the purifier appears in B_3."""
        spec = three_round_random(2, seed=5).spec
        pure = purify_party(spec, "B")
        assert pure.b_memory[:3] == spec.b_memory[:3]
        assert pure.b_memory[3].labels() == ("B3", "Bbar")
        assert pure.b_ops[:2] == spec.b_ops[:2]
        psi = StateVector(concat(spec.a_memory[0], spec.b_memory[0]),
                          random_pure(rng, 8))
        marginals_match(execute(pure, psi),
                        density_run(spec, pure_density(psi)), tol=1e-8)

    def test_purified_trace_matches_on_mixed_input(self, rng):
        """A mixed input, purified by a reference register, runs pure; its
        marginals are the mixture's density-operator run (the reference
        rides along untouched)."""
        p = builtin("noisy-trivial", 2, delta=0.3)
        both = purify_both(p.spec)
        lay = concat(p.spec.a_memory[0], p.spec.b_memory[0])
        mix = 0.5 * pure_density(qpir_input(p, 0, 1)).matrix \
            + 0.5 * pure_density(qpir_input(p, 3, 2)).matrix
        rho = DensityOperator(lay, mix)
        pure_states = execute(both, purify(rho, "R"))
        marginals_match(pure_states, density_run(p.spec, rho), tol=1e-8)

    @pytest.mark.parametrize("name, params", BUILTINS, ids=[b[0] for b in BUILTINS])
    @pytest.mark.parametrize("party", ["A", "B", "both"])
    def test_dilation_matches_the_density_reference(self, name, params, party):
        """Tracing the purifiers out of the dilated protocol reproduces the
        Kraus protocol's density-operator run at every step, on every input
        of the certification suite (including the one entangled with a
        reference register)."""
        spec = builtin(name, 2, **params).spec
        pure = purify_both(spec) if party == "both" else purify_party(spec, party)
        for _, psi in default_input_suite(spec):
            reference = density_run(spec, pure_density(psi))
            if pure.all_unitary():
                got = execute(pure, psi)
                marginals_match(got, reference)
            else:  # the other party still holds a channel
                dilated = density_run(pure, pure_density(psi))
                for rho, want in zip(dilated, reference):
                    traced = density_marginal(rho, want.layout.labels())
                    assert trace_distance_matrices(traced, want.matrix) < 1e-10


class TestExecuteSemantics:
    def test_linear_in_the_input(self, rng):
        """The pure run is linear in the input amplitudes."""
        p = builtin("noisy-trivial", 2, delta=0.25)
        both = purify_both(p.spec)
        psi_a, psi_b = qpir_input(p, 0, 1), qpir_input(p, 2, 2)
        alpha, beta = 0.6, 0.8j
        superposed = StateVector(psi_a.layout,
                                 alpha * psi_a.amplitudes + beta * psi_b.amplitudes)
        out = execute(both, superposed)[-1].amplitudes
        out_a = execute(both, psi_a)[-1].amplitudes
        out_b = execute(both, psi_b)[-1].amplitudes
        assert np.max(np.abs(out - alpha * out_a - beta * out_b)) < 1e-12

    def test_every_step_has_unit_trace(self, rng):
        p = builtin("noisy-trivial", 2, delta=0.25)
        states = execute(purify_both(p.spec), qpir_input(p, 1, 2))
        for step, st in zip(p.spec.steps, states):
            rho = reduced_density_matrix(st, step.order)
            assert abs(np.trace(rho) - 1.0) < 1e-8

    def test_a_channel_op_is_rejected(self):
        """Pure execution needs isometries: a Kraus protocol must be
        purified first."""
        p = builtin("noisy-trivial", 2, delta=0.25)
        with pytest.raises(LayoutError, match="B1"):
            execute(p.spec, qpir_input(p, 1, 2))
        lay = concat(p.spec.a_memory[0], p.spec.b_memory[0])
        with pytest.raises(LayoutError):
            execute_pure_batch(p.spec, lay, np.eye(lay.total_dim, dtype=complex))

    @pytest.mark.parametrize("name, params", BUILTINS, ids=[b[0] for b in BUILTINS])
    def test_a_reference_register_is_a_batch_axis(self, name, params):
        """The entangled-ref input sum_k |k>|k>_R / sqrt(d) ends in the batch
        run of every basis input |k>, divided by sqrt(d), column k read as
        the value of R."""
        spec = purify_both(builtin(name, 2, **params).spec)
        _, psi = default_input_suite(spec)[-1]
        lay = concat(spec.a_memory[0], spec.b_memory[0])
        d = lay.total_dim
        final_lay, basis_runs = execute_pure_batch(spec, lay,
                                                   np.eye(d, dtype=complex))
        final = execute(spec, psi)[-1]
        assert final.layout == concat(final_lay, psi.layout.sub(["R"]))
        got = final.amplitudes.reshape(-1, d)
        assert np.max(np.abs(got - basis_runs / np.sqrt(d))) < 1e-12


class TestRandomProtocol:
    def test_budget_zero_means_no_communication(self):
        spec = random_protocol(seed=3, rounds=3, qubit_budget=0)
        assert communication_complexity(spec) == 0.0

    def test_seed_determinism(self):
        a = random_protocol(seed=11, rounds=2, qubit_budget=4)
        b = random_protocol(seed=11, rounds=2, qubit_budget=4)
        assert a == b
        c = random_protocol(seed=12, rounds=2, qubit_budget=4)
        assert a != c

    def test_negative_budget_rejected(self):
        with pytest.raises(LayoutError):
            random_protocol(seed=1, rounds=1, qubit_budget=-1)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_generated_specs_satisfy_shape_invariants(self, seed):
        rng = np.random.default_rng(seed)
        rounds = int(rng.integers(1, 4))
        budget = int(rng.integers(0, 7))
        spec = random_protocol(seed=seed, rounds=rounds, qubit_budget=budget)
        assert spec.all_unitary()
        assert communication_complexity(spec) == pytest.approx(budget)


class TestRankTrace:
    def test_final_rank_bounded_by_communication(self):
        for seed in range(12):
            budget = 1 + seed % 6
            spec = random_protocol(seed=seed, rounds=1 + seed % 3,
                                   qubit_budget=budget)
            psi = product_input(spec, seed=seed)
            events = rank_trace(spec, psi)
            assert all(e.ok for e in events), events
            assert events[-1].rank <= 2**budget

    def test_message_dim_caps_rank_growth(self):
        spec = random_protocol(seed=5, rounds=2, qubit_budget=4)
        psi = product_input(spec, seed=99)
        prev = 1
        for e in rank_trace(spec, psi):
            if e.step.startswith("handover"):
                assert e.rank <= e.bound
                prev = e.rank
            else:
                assert e.rank == prev or e.step.startswith("A1")

    @pytest.mark.parametrize("n", [2, 3])
    def test_trivial_entangles_only_when_x1_crosses(self, n):
        """The server's copy of x is in product with the client until the
        message X1, the other copy of x, changes sides."""
        p = builtin("trivial", n)
        events = rank_trace(purify_both(p.spec), qpir_input(p, None, 1))
        assert [(e.step, e.rank) for e in events] == [
            ("A1", 1), ("handover X1", 2 ** n), ("B1", 2 ** n)]

    def test_requires_unitary_protocol(self):
        p = builtin("noisy-trivial", 2, delta=0.2)
        with pytest.raises(LayoutError):
            rank_trace(p.spec, qpir_input(p, 0, 1))

    def test_an_empty_message_still_has_its_handover(self):
        """Y1 has no registers: B1's handover is still audited (bound x1)."""
        a = [RegisterLayout.of((f"A{k}", 2)) for k in range(3)]
        b = [RegisterLayout.of((f"B{k}", 2)) for k in range(3)]
        x = [RegisterLayout.of((f"X{k}", 1)) for k in (1, 2)]
        none = RegisterLayout(())
        eye = np.eye(2, dtype=complex)
        a_ops = tuple(Isometry(a[k], concat(a[k + 1], x[k]), eye) for k in (0, 1))
        b_ops = (Isometry(concat(b[0], x[0]), b[1], eye),
                 Isometry(concat(b[1], x[1]), b[2], eye))
        spec = ProtocolSpec(2, tuple(a), tuple(b), tuple(x), (none,), a_ops, b_ops)
        events = rank_trace(spec, product_input(spec, seed=1))
        assert [e.step for e in events] == [
            "A1", "handover X1", "B1", "handover Y1", "A2", "handover X2", "B2"]
        assert all(e.rank == 1 and e.bound == 1 and e.ok for e in events)
