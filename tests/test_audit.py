"""End-to-end audits (`qpir`, `reduction`, `cli`) against hand-derived values.

* trivial: the client stores |x> whole, so every delta_i = 0, the server
  keeps only its copy of x (epsilon = 0), recovery is 1 and m = n.
* noisy-trivial(delta): each stored bit is flipped with probability delta,
  so every delta_i = delta and recovery is 1 - delta.
* index-in-clear: the server ends up holding i, so epsilon = 1.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qpirlab import cli, serialize, states
from qpirlab.errors import LayoutError
from qpirlab.linalg import haar_unitary_matrix, schmidt_coefficients, uhlmann_unitary
from qpirlab.protocol import (ProtocolSpec, execute, product_input, purify_both,
                               random_protocol, rank_trace)
from qpirlab.qpir import (
    _BUILTINS,
    PurifiedRun,
    QpirProtocol,
    _kraus_span,
    _pushed_through,
    build_index_in_clear,
    builtin,
    builtin_from_address,
    correctness_delta,
    privacy_epsilon_purified,
    qpir_input,
)
from qpirlab.reduction import (
    bound_report,
    build_rae,
    lower_bound,
    recovery_rates,
    superposition_attack,
)
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import Isometry, KrausChannel, StateVector, dense, matricize

from conftest import (
    cross_gram,
    dense_index_in_clear,
    dense_noisy_trivial,
    identity_support,
    mixing_client_random,
    split_memory_random,
    three_round_random,
)
from test_golden import _assert_matches


def _h(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# -- hand-derived verdicts ---------------------------------------------------

def test_trivial_audit_is_exact():
    rep = bound_report(builtin("trivial", 3))
    assert rep.deltas == (0.0, 0.0, 0.0)
    assert rep.epsilon_used == 0.0 and rep.epsilon_min == 0.0
    assert rep.recovery_avg == pytest.approx(1.0, abs=1e-12)
    assert rep.m == 3.0 and rep.compressed_dim == 8
    assert rep.bound_value == pytest.approx(3.0, abs=1e-12)
    assert rep.nayak.holds and rep.consistency == "bound-applies"
    assert superposition_attack(builtin("trivial", 3)).verdict == "PRIVATE"


@pytest.mark.parametrize("name, n, rank", [("trivial", 2, 4), ("trivial", 3, 8),
                                           ("index-in-clear", 3, 2)])
def test_final_states_have_flat_schmidt_coefficients(name, n, rank):
    """Across the server cut every final nu_i has `rank` equal coefficients.

    trivial: nu_i = 2^(-n/2) sum_x |x>_server |x, i>_client, so 2^n of them.
    index-in-clear: the server keeps x and i, the client i and x_i, so nu_i
    splits into the halves x_i = 0 and x_i = 1, two of 1/sqrt(2).
    """
    qpir = builtin(name, n)
    spec = purify_both(qpir.spec)
    server = spec.a_memory[-1].labels()
    for i in range(1, n + 1):
        final = execute(spec, qpir_input(qpir, None, i))[-1]
        s = schmidt_coefficients(final, server)
        kept = s[s > 1e-10]
        assert len(kept) == rank
        assert np.max(np.abs(kept - 1 / math.sqrt(rank))) < 1e-12


@pytest.mark.parametrize("build, solves", [
    (lambda: builtin("random", 3, seed=1), 3), (lambda: dense_index_in_clear(3), 3),
    (lambda: builtin("index-in-clear", 3), 0), (lambda: builtin("trivial", 3), 0),
    (lambda: builtin("noisy-trivial", 3, delta=0.2), 0)],
    ids=["random-seed1", "dense-index-in-clear", "index-in-clear", "trivial",
         "noisy-trivial"])
def test_the_helstrom_solves_are_the_only_eigendecompositions(monkeypatch, build,
                                                               solves):
    """One eigh per index on the dense path: the decoder applies the
    Helstrom eigenvectors from the correctness audit instead of
    diagonalizing again.  On the basis path, Gamma_i is diagonal and read
    off its entries, with no eigh at all; index-in-clear takes it since
    its client's span is a basis map (`PurifiedRun._reach`), and its
    dense twin takes the dense path."""
    eigh, count = np.linalg.eigh, [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return eigh(*args, **kwargs)

    qpir = build()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    bound_report(qpir)
    assert count[0] == solves


def test_schmidt_takes_one_svd_per_cut(monkeypatch):
    """trivial n=3 has four cuts: the input, A1, the X1 handover and B1.  The
    reported coefficients are B1's, across A's final memory, not a fifth SVD
    of that cut."""
    svd, count = np.linalg.svd, [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    argv = ["schmidt", "--protocol", "builtin:trivial?n=3", "--i", "2"]
    code, out = _cli(argv)
    assert code == 0 and count[0] == 4
    report = json.loads(out)
    assert report["rank"] == 8
    assert report["coefficients"] == pytest.approx([8 ** -0.5] * 8, abs=1e-12)


def test_noisy_trivial_audit_matches_the_bit_flip_rate():
    """The server keeps only its copy of x, so epsilon is exactly 0 and
    the guarantee is 1 - delta = 0.8, with no round-off lifted by the
    sqrt in 2 sqrt(eps (1 - eps))."""
    rep = bound_report(builtin("noisy-trivial", 3, delta=0.2))
    assert rep.deltas == pytest.approx((0.2, 0.2, 0.2), abs=1e-9)
    assert rep.epsilon_used == 0.0 and rep.epsilon_min == 0.0
    assert rep.recovery_avg == pytest.approx(0.8, abs=1e-9)
    assert rep.guarantee == pytest.approx(0.8, abs=1e-12)
    assert rep.bound_value == pytest.approx((1.0 - _h(0.8)) * 3, abs=1e-12)
    assert rep.consistency == "bound-applies"


def test_random_protocol_is_exactly_private():
    """random seed 1's client sends the server nothing (Y_1 is one
    dimension), so the server's marginals cannot depend on the index:
    epsilon is 0.0, not round-off."""
    rep = bound_report(builtin("random", 3, seed=1))
    assert rep.epsilon_used == 0.0 and rep.epsilon_min == 0.0
    assert rep.marginal_distances == (0.0, 0.0, 0.0)


def test_index_in_clear_is_caught_as_non_private():
    qpir = builtin("index-in-clear", 3)
    rep = bound_report(qpir)
    assert rep.epsilon_used == pytest.approx(1.0, abs=1e-12)
    assert not rep.privacy_premise_ok
    assert rep.consistency == "consistent-because-non-private"
    assert superposition_attack(qpir).verdict == "NOT-PRIVATE"


@pytest.mark.parametrize("n", [3, 5])
def test_index_in_clear_reads_epsilon_exactly_one(n):
    """The server's marginals across indices are orthogonal, so epsilon is
    1.0, not 1 - 2e-16, which 2 sqrt(eps (1 - eps)) lifted to a guarantee
    of 0.99999997 and a bound 2.4e-6 short of n."""
    rep = bound_report(builtin("index-in-clear", n))
    assert rep.epsilon_used == 1.0 and rep.epsilon_min == 1.0
    assert rep.guarantee == 1.0
    assert rep.bound_value == n


@pytest.mark.parametrize("n", [4, 6])
def test_reference_index_is_the_lowest_within_round_off(n):
    # every reference index of index-in-clear reads 1 up to round-off
    rep = privacy_epsilon_purified(PurifiedRun(build_index_in_clear(n)))
    assert rep.reference_index == 1
    assert rep.per_index_distances == tuple(rep.distance_matrix[:, 0])


def test_reference_index_does_not_follow_float_order(monkeypatch):
    """Distances that differ by round-off only: argmin would pick index 4,
    whose column is 2e-15 below the first one's.  random's marginals are
    dense, so each distance is a `trace_distance_matrices` call."""
    import qpirlab.qpir as qpir
    calls = iter(range(6))
    monkeypatch.setattr(qpir, "trace_distance_matrices",
                        lambda a, b: 0.5 - 1e-15 * next(calls))
    rep = privacy_epsilon_purified(PurifiedRun(builtin("random", 4, seed=5)))
    assert rep.epsilon_by_reference[3] < rep.epsilon_by_reference[0]
    assert rep.reference_index == 1
    assert rep.epsilon_hat == rep.epsilon_by_reference[0]


@pytest.mark.parametrize("verb, keys", [
    ("reduce", ("epsilon_used", "epsilon_min", "marginal_distances",
                "rotation_distances")),
    ("qpir-privacy", ("distance_matrix", "epsilon_by_reference", "epsilon_hat",
                      "per_index_distances", "pairwise_lower")),
])
def test_index_in_clear_distances_stay_at_most_one(verb, keys):
    # n=6 printed an epsilon_used of 1.0000000000000009 before the clamp
    code, out = _cli([verb, "--protocol", "builtin:index-in-clear?n=6"])
    assert code == 0
    report = json.loads(out)
    values = np.hstack([np.ravel(report[key]) for key in keys])
    assert np.max(values) == 1.0


BUILTINS = [("trivial", {}), ("index-in-clear", {}),
            ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})]


@pytest.mark.parametrize("name, params", BUILTINS, ids=[b[0] for b in BUILTINS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decoders_agree_with_the_full_uhlmann_unitary(name, params, n):
    """Each d_pre x r decoder is the full purifier unitary U, from index
    1's span before the client's last op to index i's, times the
    compressor E wherever K = c_1^T conj(nu_i) has full rank r, so that
    its polar factor is unique."""
    run = PurifiedRun(builtin(name, n, **params))
    rae = build_rae(run)
    e = dense(rae.compressor.matrix)
    client = rae.compressor.output_layout.labels()
    nus = [run.nu(i) for i in range(1, n + 1)]
    c1t = e.conj().T @ matricize(nus[0].amplitudes, nus[0].layout, client)
    for nu, decoder in zip(nus, rae.decoders):
        k = c1t @ matricize(nu.amplitudes, nu.layout, client).conj().T
        if np.linalg.svd(k, compute_uv=False)[-1] < 1e-6:
            continue
        support = identity_support(nu.layout, client)
        full = uhlmann_unitary(*cross_gram(nu, nus[0], support))
        assert np.max(np.abs(dense(decoder.matrix) - full.matrix @ e)) < 1e-10


def test_decoders_are_thin():
    """No d_client x d_client matrix survives in the encoding: each decoder
    is d_pre x r, with d_pre the client's registers before its last op,
    which hold at most its final d_client dimensions, and r < d_client."""
    for name, params in BUILTINS:
        run = PurifiedRun(builtin(name, 3, **params))
        rae = build_rae(run)
        d_pre = rae.compressor.output_layout.total_dim
        d_client = run.spec.b_memory[-1].total_dim
        assert len(rae.decoders) == 3
        assert rae.compressed_dim < d_client and d_pre <= d_client
        for decoder in rae.decoders:
            assert decoder.matrix.shape == (d_pre, rae.compressed_dim)


def test_the_reduction_reads_no_purified_last_op_and_no_final_run(monkeypatch, calls):
    """noisy-trivial's last op is a channel.  Only its Kraus form is
    composed with the span the client reaches, never its dilation, and
    neither the reduction nor privacy nor the attack runs anything through
    the whole protocol: no final-layout batch, and no final run kept.
    Its Kraus operators are basis maps, composed side by side
    (`_composed_kraus`); a dense one would be composed alone (`_compose`)."""
    import qpirlab.qpir as qpir_module
    qpir = builtin("noisy-trivial", 3, delta=0.2)
    compose, compose_all, seen = qpir_module._compose, qpir_module._composed_kraus, []

    def recorded(matrix, q):
        seen.append(matrix)
        return compose(matrix, q)

    def recorded_all(kraus, q):
        seen.extend(kraus)
        return compose_all(kraus, q)

    monkeypatch.setattr(qpir_module, "_compose", recorded)
    monkeypatch.setattr(qpir_module, "_composed_kraus", recorded_all)
    rep = bound_report(qpir)
    assert rep.compressed_dim == 8 and rep.epsilon_used == 0.0
    kraus = qpir.spec.b_ops[-1].kraus_ops
    assert seen and all(any(m is k for k in kraus) for m in seen)
    del seen[:]
    assert privacy_epsilon_purified(PurifiedRun(qpir)).epsilon_hat == 0.0
    assert superposition_attack(qpir).verdict == "PRIVATE"
    assert seen == []   # privacy reads no last op at all
    final = 2 * qpir.spec.rounds   # the client's last op
    assert calls["batches"] == [] and all(final not in steps for _, steps in calls["runs"])
    assert not any(hasattr(PurifiedRun(qpir), name) for name in ("superposition", "layout"))


class _DensePath(Exception):
    pass


def _raise_on_the_kraus_span(monkeypatch) -> None:
    """Make `_kraus_span` and `_pushed_through` raise `_DensePath`."""
    import qpirlab.qpir as qpir_module

    def dense_path(*args):
        raise _DensePath

    monkeypatch.setattr(qpir_module, "_kraus_span", dense_path)
    monkeypatch.setattr(qpir_module, "_pushed_through", dense_path)


def test_basis_maps_read_correctness_with_no_kraus_span(monkeypatch):
    """noisy-trivial's ops, Q_0 = |i> and Kraus operators are basis maps,
    so its reduce forms neither the Kraus span (a (2^n n, 2^n, 2^n) side
    array) nor its eigensolve, and neither does index-in-clear's, whose
    Q_1 is the basis map onto the one row of B_1 its client reaches.
    noisy-trivial's dense twin and the mixing client's random end in a
    dense channel of 2^n and of 2 Kraus operators: both take the span."""
    _raise_on_the_kraus_span(monkeypatch)
    for address in ("builtin:noisy-trivial?n=3&delta=0.2", "builtin:index-in-clear?n=3"):
        assert _cli(["reduce", "--protocol", address])[0] == 0
    for qpir in (dense_noisy_trivial(3, 0.2), mixing_client_random(2, 1)):
        with pytest.raises(_DensePath):
            bound_report(qpir)


def test_a_one_kraus_last_op_reads_correctness_with_no_kraus_span(monkeypatch):
    """random's last op is one Haar unitary, and index-in-clear's dense
    twin's one identity.  Composed with Q_{s-1}, each is an isometry,
    which keeps Gamma_i^pre's spectrum, so delta_i and W_i come off
    Gamma_i^pre's own eigensolve: with the Kraus span and its push-through
    raising, both reduce, to the span path's delta_i and effect W_i^dagger
    W_i within 1e-12."""
    qpir = builtin("random", 2, seed=1)
    run = PurifiedRun(qpir)
    spanned = [_pushed_through(run.helstrom_operator(i),
                               _kraus_span(qpir.spec.b_ops[-1], run._reach(i)[1]))
               for i in (1, 2)]
    _raise_on_the_kraus_span(monkeypatch)
    report = correctness_delta(PurifiedRun(qpir))
    for (probability, w_span), delta, w in zip(spanned, report.deltas, report.measurements):
        assert abs(delta - max(0.0, 1.0 - probability)) <= 1e-12
        assert np.max(np.abs(w.conj().T @ w - w_span.conj().T @ w_span)) <= 1e-12
    code, out = _cli(["reduce", "--protocol", "builtin:random?n=2&seed=1"])
    assert code == 0 and json.loads(out)["n"] == 2
    assert bound_report(dense_index_in_clear(3)).delta_max <= 1e-12


@pytest.mark.parametrize("build", [
    lambda: builtin("noisy-trivial", 3, delta=0.2), lambda: mixing_client_random(3, 1)],
    ids=["noisy-trivial-n3", "mixing-client-random-n3"])
def test_no_audit_dilates_the_clients_last_op(monkeypatch, build):
    """reduce, qpir-correctness, qpir-privacy and attack each purify the
    client's ops before its last one only.  Both protocols end in a client
    channel; the mixing client's first op is one too, and is dilated."""
    import qpirlab.protocol as protocol
    qpir = build()
    dilate, dilated = protocol._dilate_op, []

    def recorded(op, step, bar, bar_label):
        dilated.append(step.name)
        return dilate(op, step, bar, bar_label)

    monkeypatch.setattr(protocol, "_dilate_op", recorded)
    audits = [lambda: bound_report(qpir),
              lambda: correctness_delta(PurifiedRun(qpir)),
              lambda: privacy_epsilon_purified(PurifiedRun(qpir)),
              lambda: superposition_attack(qpir)]
    last = f"B{qpir.spec.rounds}"
    for audit in audits:
        del dilated[:]
        audit()
        assert last not in dilated
        assert dilated == (["B1"] if qpir.spec.rounds == 2 else [])


def test_marginal_distances_are_the_privacy_distances():
    """epsilon_used is the largest marginal distance, to the last bit:
    both are read from one distance matrix."""
    rep = bound_report(builtin("random", 4, seed=2))
    assert rep.epsilon_used == max(rep.marginal_distances)
    assert rep.marginal_distances[0] == 0.0


def test_recovery_rates_stay_in_the_unit_interval():
    # without the clamp, index 1 of random n=4 seed 1 reads 1 + 4.4e-16
    per_index, avg = recovery_rates(build_rae(PurifiedRun(builtin("random", 4, seed=1))))
    assert all(0.0 <= p <= 1.0 for p in per_index)
    assert 0.0 <= avg <= 1.0


def test_recovery_rates_reject_a_probability_beyond_round_off():
    rae = build_rae(PurifiedRun(builtin("trivial", 2)))
    inflated = dataclasses.replace(rae, outcome_zero=1.21 * rae.outcome_zero)
    with pytest.raises(ValueError, match="outcome-0 probability 1.21"):
        recovery_rates(inflated)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_builtin_first_op_matches_the_kron_formula(n, seed):
    """A1 is (u_a (x) u_x) times the basis-copy isometry |j> -> |j>|j>,
    with u_a and u_x the third and fourth draws of the seed's generator."""
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(0, 2))
    rng.integers(0, ell + 1)
    da = 2 ** n
    u_a, u_x = haar_unitary_matrix(da, rng), haar_unitary_matrix(da, rng)
    want = np.kron(u_a, u_x) @ np.eye(da * da)[:, :: da + 1]
    got = builtin("random", n, seed=seed).spec.a_ops[0].matrix
    assert np.array_equal(got, want)


def test_attack_and_privacy_share_one_distance_matrix():
    qpir = builtin("random", 3, seed=1)
    privacy = privacy_epsilon_purified(PurifiedRun(qpir))
    assert np.array_equal(superposition_attack(qpir).distance_matrix,
                          privacy.distance_matrix)


# -- the bound is vacuous below a guarantee of 1/2 ---------------------------

def leaky_index_in_clear(n: int = 3, forward: float = 0.4) -> ProtocolSpec:
    """index-in-clear whose client forwards i with probability `forward` and
    otherwise sends a uniformly random index.

    delta = (1 - forward)(n - 1)/(2n) and epsilon = forward, so 0.2 and 0.4
    at n = 3: the privacy premise holds but the guarantee is negative.
    """
    spec = build_index_in_clear(n).spec
    b1 = spec.b_ops[0]
    copy = dense(b1.matrix)                 # |i>|0> -> |i>|i> on (B1, Y1)
    kraus = [math.sqrt(forward) * copy]
    for j in range(n):
        k = np.zeros_like(copy)
        for i in range(n):
            k[i * n + j, i] = math.sqrt((1.0 - forward) / n)
        kraus.append(k)
    leaky = KrausChannel(b1.input_layout, b1.output_layout, tuple(kraus))
    return dataclasses.replace(spec, b_ops=(leaky,) + spec.b_ops[1:])


def test_lower_bound_is_zero_when_the_guarantee_is_at_most_half():
    assert lower_bound(10, 0.4, 0.2) == 0.0     # guarantee < 0
    assert lower_bound(10, 0.0, 0.3) == 0.0     # guarantee in (0, 1/2)
    assert lower_bound(10, 0.5, 0.0) == 0.0     # guarantee exactly 1/2
    assert lower_bound(10, 0.2, 0.0) == pytest.approx((1 - _h(0.8)) * 10)


def test_bound_verb_prints_zero_for_a_vacuous_guarantee():
    for delta, eps in (("0.4", "0.2"), ("0", "0.3")):
        code, out = _cli(["bound", "--n", "10", "--delta", delta,
                          "--epsilon", eps])
        rep = json.loads(out)
        assert code == 0 and rep["bound"] == 0 and rep["vacuous"] is True


def test_a_guarantee_of_exactly_half_is_vacuous():
    """delta = 1/2 and epsilon = 0 give g = 1 - 1/2 - 0 = 1/2 exactly, where
    the bound is 0: the bound verb flags it vacuous."""
    code, out = _cli(["bound", "--n", "4", "--delta", "0.5"])
    rep = json.loads(out)
    assert code == 0 and rep["guarantee"] == 0.5 and rep["bound"] == 0.0
    assert rep["vacuous"] is True


def test_a_fully_noisy_client_reports_its_guarantee_vacuous():
    """noisy-trivial at delta = 1/2 flips each stored bit with probability
    1/2, so delta_avg = 1/2, while the server learns nothing (epsilon = 0):
    g = 1/2 exactly, and the report flags it vacuous."""
    rep = bound_report(builtin("noisy-trivial", 2, delta=0.5))
    assert rep.guarantee == 0.5 and rep.bound_value == 0.0
    assert rep.guarantee_vacuous is True


def test_leaky_client_is_not_reported_as_a_bound_violation(tmp_path):
    path = tmp_path / "leaky.json"
    serialize.dump(serialize.protocol_spec_to_json(leaky_index_in_clear()),
                   str(path))
    code, out = _cli(["reduce", "--protocol", str(path), "--n", "3"])
    rep = json.loads(out)
    assert rep["communication"] == pytest.approx(math.log2(3) + 1)
    assert rep["delta_avg"] == pytest.approx(0.2, abs=1e-9)
    assert rep["epsilon_used"] == pytest.approx(0.4, abs=1e-9)
    assert rep["guarantee"] < 0.0
    assert rep["bound_value"] == 0.0
    assert rep["consistency"] == "bound-applies"
    assert code == 0


# -- CLI behaviour -----------------------------------------------------------

def _one_clean_error(capsys, code, out, path) -> str:
    """The stderr of a run that must end in one `qpirlab: error:` line
    naming the protocol file."""
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    return err


def test_protocol_file_n_must_agree_with_the_n_flag(tmp_path, capsys):
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    data["n"] = 2
    path = tmp_path / "trivial.json"
    serialize.dump(data, str(path))
    assert _cli(["qpir-correctness", "--protocol", str(path), "--n", "2"])[0] == 0
    code, out = _cli(["qpir-correctness", "--protocol", str(path), "--n", "3"])
    assert "client input dimension is 2" in _one_clean_error(capsys, code, out, path)


@pytest.mark.parametrize("n", ["abc", 2.5, 2.0, True, 0, None, 3])
def test_protocol_file_n_must_be_a_positive_int(n, tmp_path, capsys):
    """n is the client's input dimension, 2 for trivial n=2, and the
    file's "n" is a check of it: only the int 2 passes."""
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    data["n"] = n
    path = tmp_path / "trivial.json"
    serialize.dump(data, str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    assert "client input dimension is 2" in _one_clean_error(capsys, code, out, path)


def test_protocol_file_whose_server_input_is_not_2_to_the_n(tmp_path, capsys):
    """trivial n=2's server (4 databases) with a client of 3 indices."""
    spec = builtin("trivial", 2).spec
    b0, b1 = RegisterLayout.of(("B0", 3)), RegisterLayout.of(("B1", 12))
    store = Isometry(concat(b0, spec.x_comm[0]), b1, np.eye(12, dtype=np.complex128))
    path = tmp_path / "three-indices.json"
    serialize.dump(serialize.protocol_spec_to_json(
        spec.with_party("B", (b0, b1), (store,))), str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    err = _one_clean_error(capsys, code, out, path)
    assert "server input dim 4 != 2^3" in err


def _set(path, value):
    """Edit of a protocol file's JSON that puts `value` at `path`."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


def _drop_an_entry(data):
    del data["ops"]["A"][0]["matrix"][-1]


STATE_IN_AN_OP_SLOT = {"type": "state_vector", "layout": [{"label": "A0", "dim": 4}],
                       "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
#: Edits of trivial n=2's protocol file; an edit may return a new document.
MALFORMED_FILES = {
    "dim-abc": _set(("layouts", "A", 0, 0, "dim"), "abc"),
    "dim-4.7": _set(("layouts", "A", 0, 0, "dim"), 4.7),
    "s-x": _set(("s",), "x"),
    "matrix-one-short": _drop_an_entry,
    "entry-one-number": _set(("ops", "A", 0, "matrix", 0), [1.0]),
    "entry-strings": _set(("ops", "A", 0, "matrix", 0), ["a", "b"]),
    "entry-beyond-float": _set(("ops", "A", 0, "matrix", 0), [10**400, 0]),
    "top-level-list": lambda data: [data],
    "state-in-op-slot": _set(("ops", "A", 0), STATE_IN_AN_OP_SLOT),
    # fields that nothing reads, at each level
    "unread-top-level": lambda data: {**data, "seed": 5, "delta": 0.3, "N": 7},
    "unread-in-layouts": _set(("layouts", "Z"), []),
    "unread-in-ops": _set(("ops", "C"), []),
    "unread-in-register": _set(("layouts", "A", 0, 0, "note"), "x"),
    "op-comment": _set(("ops", "A", 0, "comment"), "ships x"),
    "isometry-kraus-ops": _set(("ops", "B", 0, "kraus_ops"), []),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_protocol_file_ends_in_a_clean_error(case, tmp_path, capsys):
    """A dimension of 4.7 is not read as 4, a field that nothing reads is
    not passed over, and no decoding error escapes as a traceback; every
    error is one line that names the file."""
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    data = MALFORMED_FILES[case](data) or data
    path = tmp_path / f"{case}.json"
    serialize.dump(data, str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    _one_clean_error(capsys, code, out, path)


def _scaled_noisy_trivial(tmp_path, excess: float) -> str:
    """noisy-trivial n=2's protocol file with each Kraus operator scaled by
    sqrt(1 + excess), so that sum K^dagger K = (1 + excess) 1."""
    data = serialize.protocol_spec_to_json(builtin("noisy-trivial", 2, delta=0.2).spec)
    scale = math.sqrt(1.0 + excess)
    op = data["ops"]["B"][0]
    op["kraus_ops"] = [[[scale * re, scale * im] for re, im in k]
                       for k in op["kraus_ops"]]
    path = tmp_path / f"scaled-{excess}.json"
    serialize.dump(data, str(path))
    return str(path)


def test_a_channel_off_trace_preserving_by_6e_9_is_refused_when_read(tmp_path, capsys):
    """A channel and its dilation share one tolerance: Kraus operators 6e-9
    off trace preserving are refused as not TP, not accepted and then
    failed by their Stinespring isometry."""
    path = _scaled_noisy_trivial(tmp_path, 6e-9)
    code, out = _cli(["certify", "--protocol", path, "--party", "B"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and "(not TP)" in err
    assert "Traceback" not in err


def test_a_channel_within_the_isometry_tolerance_is_audited(tmp_path):
    path = _scaled_noisy_trivial(tmp_path, 6e-10)
    assert _cli(["reduce", "--protocol", path])[0] == 0
    assert _cli(["certify", "--protocol", path, "--party", "B"])[0] == 0


def test_unwritable_out_path_ends_in_a_clean_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out = _cli(["reduce", "--protocol", "builtin:trivial?n=2",
                      "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error: cannot write report:")
    assert "Traceback" not in err and not target.exists()


def test_unknown_builtin_and_missing_file_exit_1(tmp_path):
    assert _cli(["reduce", "--protocol", "builtin:nope?n=2"])[0] == 1
    assert _cli(["reduce", "--protocol", str(tmp_path / "none.json")])[0] == 1


def test_verdict_failure_exits_2(monkeypatch):
    real = cli.bound_report

    def violated(qpir, rank_tol):
        rep = real(qpir, rank_tol=rank_tol)
        nayak = dataclasses.replace(rep.nayak, holds=False)
        return dataclasses.replace(rep, nayak=nayak)

    monkeypatch.setattr(cli, "bound_report", violated)
    assert _cli(["reduce", "--protocol", "builtin:trivial?n=2"])[0] == 2


def _leaves(value, path=""):
    """(dotted path, value) of every non-dict leaf of a JSON object."""
    if not isinstance(value, dict):
        return [(path, value)]
    return [leaf for key, v in value.items()
            for leaf in _leaves(v, f"{path}.{key}" if path else key)]


def test_text_and_csv_are_derived_from_the_json_report():
    """text: one `path = json` line per leaf; csv: the top-level scalars as
    a header line and one row of their JSON values."""
    argv = ["reduce", "--protocol", "builtin:noisy-trivial?n=2&delta=0.2"]
    code, out = _cli(argv)
    report = json.loads(out)
    assert code == 0 and "nayak" in report
    text = _cli(argv + ["--format", "text"])
    assert text == (0, "".join(f"{path} = {json.dumps(v)}\n"
                               for path, v in _leaves(report)))
    scalars = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
    assert "deltas" not in scalars and "consistency" in scalars
    csv = _cli(argv + ["--format", "csv"])
    assert csv == (0, ",".join(scalars) + "\n"
                   + ",".join(json.dumps(v) for v in scalars.values()) + "\n")


def test_rerun_in_one_process_prints_identical_bytes():
    argv = ["reduce", "--protocol", "builtin:random?n=3&seed=1"]
    first, second = _cli(argv), _cli(argv)
    assert first[0] == 0 and first == second


BAD_NUMBERS = [
    ["bound", "--n", "3", "--delta", "1.5"],
    ["bound", "--n", "3", "--epsilon", "nan"],
    ["reduce", "--protocol", "builtin:noisy-trivial?n=2&delta=abc"],
    ["bound", "--n", "-3"],
    ["fuzz", "--trials", "-1"],
    ["schmidt", "--protocol", "builtin:trivial?n=2", "--rank-tol", "-1"],
]
IGNORED_FLAGS = [
    ["reduce", "--protocol", "builtin:trivial?n=2", "--trials", "5"],
    ["certify", "--protocol", "builtin:trivial?n=2", "--rank-tol", "0.9"],
    ["fuzz", "--protocol", "builtin:trivial?n=2"],
    ["bound", "--n", "3", "--protocol", "builtin:trivial?n=2", "--seed", "3"],
]
#: Address parameters a builtin does not read, and an --n it contradicts.
IGNORED_PARAMETERS = [
    ["qpir-correctness", "--protocol", "builtin:random?n=2&sed=5"],
    ["reduce", "--protocol", "builtin:trivial?n=2&foo=1"],
    ["reduce", "--protocol", "builtin:trivial?n=2&delta=0.3"],
    ["reduce", "--protocol", "builtin:index-in-clear?n=2&seed=4"],
    ["reduce", "--protocol", "builtin:trivial?n=2", "--n", "3"],
]
#: Stands for a protocol file of trivial n=2 in an argv.
PROTOCOL_FILE = "trivial.json"
#: A --seed the protocol does not read, or one that contradicts the address.
IGNORED_SEEDS = [
    ["qpir-correctness", "--protocol", "builtin:trivial?n=2", "--seed", "5"],
    ["qpir-correctness", "--protocol", "builtin:random?n=2&seed=3", "--seed", "5"],
    ["reduce", "--protocol", PROTOCOL_FILE, "--seed", "7"],
]


@pytest.mark.parametrize(
    "argv", BAD_NUMBERS + IGNORED_FLAGS + IGNORED_PARAMETERS + IGNORED_SEEDS,
    ids=" ".join)
def test_bad_input_ends_in_a_clean_error(argv, tmp_path, capsys):
    path = tmp_path / PROTOCOL_FILE
    serialize.dump(serialize.protocol_spec_to_json(builtin("trivial", 2).spec),
                   str(path))
    code, out = _cli([str(path) if arg == PROTOCOL_FILE else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and "Traceback" not in err


def test_a_seed_that_agrees_with_the_address_is_accepted():
    addressed = ["qpir-correctness", "--protocol", "builtin:random?n=2&seed=3"]
    expected = _cli(addressed)
    assert expected[0] == 0
    assert _cli(addressed + ["--seed", "3"]) == expected
    assert _cli(["qpir-correctness", "--protocol", "builtin:random?n=2",
                 "--seed", "3"]) == expected


@pytest.mark.parametrize("name, params", [("trivial", {"delta": 0.3}),
                                          ("index-in-clear", {"seed": 9})])
def test_builtin_rejects_a_parameter_it_does_not_read(name, params):
    with pytest.raises(LayoutError):
        builtin(name, 2, **params)


#: A value of each parameter type a builtin declares.
_SAMPLE = {int: "1", float: "0.25"}


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_builtin_reads_exactly_the_parameters_its_table_declares(name):
    """Every parameter `_BUILTINS` gives a builtin is accepted by `builtin`
    and in an address, alike; any other is refused by both."""
    reads = _BUILTINS[name][1]
    assert next(iter(reads)) == "n" and reads["n"] is int
    # every parameter some builtin reads, and one that none reads
    others = {key for _, table in _BUILTINS.values() for key in table} | {"k"}
    for key in sorted(others - {"n"}):
        text = _SAMPLE[reads.get(key, int)]
        address = f"builtin:{name}?n=2&{key}={text}"
        if key in reads:
            built = builtin(name, 2, **{key: reads[key](text)})
            assert builtin_from_address(address).spec == built.spec
        else:
            with pytest.raises(LayoutError, match=f"reads only {', '.join(reads)}"):
                builtin(name, 2, **{key: 1})
            with pytest.raises(LayoutError, match=f"reads only {', '.join(reads)}"):
                builtin_from_address(address)


RANK_TOL_ABOVE_EVERY_COEFFICIENT = [
    ["reduce", "--protocol", "builtin:noisy-trivial?n=3&delta=0.2", "--rank-tol", "0.36"],
    ["reduce", "--protocol", "builtin:random?n=4&seed=5", "--rank-tol", "0.3"],
]


@pytest.mark.parametrize("argv", RANK_TOL_ABOVE_EVERY_COEFFICIENT, ids=" ".join)
def test_rank_tolerance_above_every_coefficient_is_named(argv, capsys):
    """The compressed rank would be 0: the error names the tolerance and
    the largest Schmidt coefficient, not a dimension-0 register."""
    code, out = _cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith(f"qpirlab: error: rank tolerance {argv[-1]} ")
    assert "largest" in err and "Traceback" not in err


def test_rank_tolerance_on_a_tie_is_named(capsys):
    """random n=4 seed 5 has 16 Schmidt coefficients equal to 0.25, so a
    tolerance of 0.25 keeps only those that round above it.  Keeping none
    is the error above; keeping some leaves the runs outside the support,
    a support violation.  Which one comes depends on round-off, but either
    is one clean line that names the rank tolerance."""
    code, out = _cli(["reduce", "--protocol", "builtin:random?n=4&seed=5",
                      "--rank-tol", "0.25"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and err.count("\n") == 1
    assert "rank tolerance" in err and "0.25" in err
    assert "Traceback" not in err


def test_out_of_memory_ends_in_a_clean_error(monkeypatch, capsys):
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.53 GiB")

    monkeypatch.setattr(cli, "bound_report", oom)
    code, out = _cli(["reduce", "--protocol", "builtin:trivial?n=2"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "qpirlab: error: MemoryError: Unable to allocate 1.53 GiB\n"


def test_out_of_memory_with_no_message_ends_in_a_clean_error(monkeypatch, capsys):
    def oom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "bound_report", oom)
    code, out = _cli(["reduce", "--protocol", "builtin:trivial?n=2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "qpirlab: error: MemoryError\n"


@pytest.mark.parametrize("cap_mib", [160, 175, 190])
def test_a_capped_process_ends_in_one_error_line(cap_mib):
    """random n=7 seed 1's `reduce` under an address-space cap, in its own
    process with one BLAS thread: it fits in about 260 MiB, and under
    150-200 MiB it fails on one of its dense 32 MiB arrays, so each of
    these caps stops it with some margin on either side.  Wherever the
    allocation that fails is, the process exits 1 with one
    `qpirlab: error:` line, never with a message of OpenBLAS's own."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_mib << 20, cap_mib << 20))

    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "qpirlab.cli", "reduce", "--protocol",
         "builtin:random?n=7&seed=1"],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("qpirlab: error:") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", [["--recovery", "/nonexistent.json"],
                                  ["--adversary", "adv.json"]])
def test_certify_rejects_removed_options(flag):
    argv = ["certify", "--protocol", "builtin:trivial?n=2"] + flag
    assert _cli(argv)[0] == 1


@pytest.mark.parametrize("party", "AB")
def test_certify_accepts_a_protocol_register_named_r(party, tmp_path):
    """Trivial n=2 with A1 renamed R: the entangled input's reference
    register takes a fresh label, so both parties certify at 0."""
    text = json.dumps(serialize.protocol_spec_to_json(builtin("trivial", 2).spec))
    path = tmp_path / "trivial-r.json"
    path.write_text(text.replace('"A1"', '"R"'))
    code, out = _cli(["certify", "--protocol", str(path), "--party", party])
    report = json.loads(out)
    assert code == 0
    assert report["epsilon_hat"] == 0.0 and report["certified"] is True
    assert "entangled-ref" in {row["input_id"] for row in report["rows"]}


@pytest.mark.parametrize("address, party", [("builtin:trivial?n=3", "A"),
                                            ("builtin:noisy-trivial?n=3&delta=0.2", "B")])
def test_certify_at_n3_reads_exactly_zero(address, party):
    """A purified party against trace-out recovery: both marginals of every
    row come from equal factors, so every distance is 0.0, the entangled
    input's included (its marginals keep the 24-dimensional reference, and
    are compared in the span of the two factors)."""
    code, out = _cli(["certify", "--protocol", address, "--party", party])
    report = json.loads(out)
    assert code == 0 and report["certified"] is True
    assert {row["distance"] for row in report["rows"]} == {0.0}
    assert len(report["rows"]) == 28 * 2   # 24 basis, 3 uniform, 1 entangled
    assert report["epsilon_hat"] == 0.0


# -- each audit purifies once and runs each batch once ------------------------

@pytest.fixture
def calls(monkeypatch):
    """Record the party of every purification, count execute,
    server_marginals and op dilation calls, and record the column count of
    every execute_pure_batch call, (columns, numbers of the steps taken) of
    every run of the step loop, and (index, database) of every basis run
    that a chunk of an index pass starts."""
    import qpirlab.protocol as protocol
    import qpirlab.qpir as qpir
    seen = {"purified": [], "execute": 0, "server_marginals": 0, "batches": [],
            "runs": [], "dilated": 0, "columns": []}
    first_halves = qpir._first_halves
    purify, batch = protocol._purified_ops, protocol.execute_pure_batch
    execute, marginals = protocol.execute, qpir.server_marginals
    steps, dilate = protocol._steps, protocol._dilate_op

    def counted_dilate(*args):
        seen["dilated"] += 1
        return dilate(*args)

    def counted_purify(spec, party):
        seen["purified"].append(party)
        return purify(spec, party)

    def counted_execute(spec, rho_in):
        seen["execute"] += 1
        return execute(spec, rho_in)

    def counted_marginals(run):
        seen["server_marginals"] += 1
        return marginals(run)

    def counted_batch(spec, layout, columns):
        seen["batches"].append(columns.shape[1])
        return batch(spec, layout, columns)

    def counted_steps(schedule, lay, columns):
        run = [columns.shape[1], []]
        seen["runs"].append(run)
        for item in steps(schedule, lay, columns):
            run[1].append(item[0].number)
            yield item

    def counted_first_halves(n, i, half):
        for zeros in first_halves(n, i, half):
            xs = np.concatenate((zeros, zeros + 2 ** (n - i)))
            seen["columns"].extend((i, int(x)) for x in xs)
            yield zeros

    monkeypatch.setattr(qpir, "_first_halves", counted_first_halves)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("qpirlab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is purify:
                monkeypatch.setattr(module, attr, counted_purify)
            elif value is batch:
                monkeypatch.setattr(module, attr, counted_batch)
            elif value is execute:
                monkeypatch.setattr(module, attr, counted_execute)
            elif value is marginals:
                monkeypatch.setattr(module, attr, counted_marginals)
            elif value is steps:
                monkeypatch.setattr(module, attr, counted_steps)
            elif value is dilate:
                monkeypatch.setattr(module, attr, counted_dilate)
    return seen


def _assert_each_basis_run_once(calls, n: int, s: int, chunk: int,
                                index_1_runs: int = 1) -> None:
    """Every (index, database) column started once, index 1's
    `index_1_runs` times, by a gather of the server's first op, each chunk
    of `chunk` columns then run through steps 2..2s-1, so none through the
    client's last op."""
    assert sorted(calls["columns"]) == sorted(
        [(1, x) for x in range(2 ** n)] * index_1_runs
        + [(i, x) for i in range(2, n + 1) for x in range(2 ** n)])
    chunks = [run for run in calls["runs"] if run[1][:1] != [1]]
    columns = (n - 1 + index_1_runs) * 2 ** n
    assert chunks == [[chunk, list(range(2, 2 * s))]] * (columns // chunk)


@pytest.mark.parametrize("budget, chunk", [(None, 16), (1, 2)],
                         ids=["one-chunk", "one-pair"])
def test_reduce_purifies_once_and_runs_each_index_batch_once(calls, monkeypatch,
                                                              budget, chunk):
    """Each party purified once; one uniform-database column per index
    through steps 1..2s-1, and each index's 2^n databases in chunks, as
    one chunk at the default budget and in pairs at a budget of one byte.
    Correctness makes one pass per index, and the encoding one more over
    index 1 once every measurement is known, so each (i >= 2, x) column
    runs once and each (1, x) column twice; no run goes through the
    client's last op."""
    if budget is not None:
        monkeypatch.setattr(states, "CHUNK_BYTES", budget)
    n, s = 4, 2
    bound_report(builtin("random", n, seed=5))
    assert calls["purified"] == ["A", "B"]
    assert calls["server_marginals"] == 1
    assert calls["batches"] == []
    nus = [run for run in calls["runs"] if run[1][:1] == [1]]
    assert nus == [[1, list(range(1, 2 * s))]] * n
    _assert_each_basis_run_once(calls, n, s, chunk, index_1_runs=2)


def test_correctness_runs_no_index_through_the_last_op(calls, monkeypatch):
    monkeypatch.setattr(states, "CHUNK_BYTES", 1)
    n, s = 4, 2
    run = PurifiedRun(builtin("random", n, seed=5))
    correctness_delta(run)
    assert len(calls["runs"]) == n * 2 ** (n - 1)   # no nu run
    _assert_each_basis_run_once(calls, n, s, 2)


@pytest.mark.parametrize("verb", ["qpir-privacy", "attack"])
def test_privacy_and_attack_run_one_column_per_index(calls, verb):
    """random's marginals are dense: one uniform-database column per index
    runs through steps 1..2s-1, and no chunk.  trivial's are read off its
    runs' records, and run no column at all."""
    n, s = 4, 2
    assert _cli([verb, "--protocol", f"builtin:random?n={n}&seed=5"])[0] == 0
    assert calls["purified"] == ["A", "B"]
    assert calls["batches"] == []
    assert calls["runs"] == [[1, list(range(1, 2 * s))]] * n
    del calls["runs"][:]
    assert _cli([verb, "--protocol", f"builtin:trivial?n={n}"])[0] == 0
    assert calls["runs"] == []


def test_schmidt_executes_the_protocol_once(calls):
    assert _cli(["schmidt", "--protocol", "builtin:trivial?n=3"])[0] == 0
    assert calls["purified"] == ["A", "B"]
    assert calls["execute"] == 1


def test_rank_trace_executes_the_protocol_once(calls):
    spec = random_protocol(seed=4, rounds=2, qubit_budget=3)
    events = rank_trace(spec, product_input(spec, seed=4))
    assert len(events) == 2 * len(spec.steps) - 1
    assert calls["execute"] == 1


@pytest.mark.parametrize("party, dilations", [("A", 1), ("B", 2)])
def test_certify_dilates_the_honest_party_once(calls, party, dilations):
    """noisy-trivial's client ends in a channel, dilated once for the
    purified honest run; the adversary goes into that run in place of its
    party, so the honest client is not dilated again.  For party B the
    verb dilates the client once more, to build the purified adversary."""
    argv = ["certify", "--protocol", "builtin:noisy-trivial?n=2&delta=0.2",
            "--party", party]
    assert _cli(argv)[0] == 0
    assert calls["dilated"] == dilations


# -- basis inputs run one index at a time --------------------------------------

def _dense_before_last_op(spec: ProtocolSpec) -> tuple[RegisterLayout, np.ndarray]:
    """Every basis input of `spec` after steps 1..2s-1, one column each:
    one `execute` of the inputs entangled with a reference register."""
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    d = lay.total_dim
    phi = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    state = execute(spec, StateVector(concat(lay, RegisterLayout.of(("R", d))),
                                      phi))[2 * spec.rounds - 2]
    return state.layout.drop(["R"]), state.amplitudes.reshape(-1, d) * math.sqrt(d)


def _assert_index_batches_are_dense_columns(qpir: QpirProtocol) -> None:
    """Each chunk of index i's pass, stopped before the client's last op
    and matricized with the span it holds of B_{s-1} first, is columns
    x*n + (i-1), x in the chunk, of every |x>|i> run at once, once that
    span is lifted back through Q_{s-1}; the chunks cover every database
    once.  Every run of index i ends over the layout nu_i does."""
    run = PurifiedRun(qpir)
    full_lay, full = _dense_before_last_op(purify_both(qpir.spec))
    n = qpir.n
    memory = qpir.spec.b_memory[-2]
    held = run.pre[:1]
    for i in range(1, n + 1):
        _, q = run._reach(i)
        lay = run.nu(i).layout
        seen = []
        for xs, t in run._chunks(i, held):
            seen.extend(xs)
            lifted = (dense(q) @ t.reshape(t.shape[0], -1)).reshape(-1, len(xs))
            assert lifted.shape == (full.shape[0], len(xs))
            want = matricize(full[:, xs * n + i - 1], full_lay,
                             concat(memory, lay.drop(held)).labels())
            assert np.max(np.abs(lifted - want.reshape(lifted.shape))) < 1e-12
        assert sorted(seen) == list(range(2 ** n))


@pytest.mark.parametrize("budget", [None, 1], ids=["one-chunk", "one-pair"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name, params", [
    ("trivial", {}), ("index-in-clear", {}),
    ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})])
def test_index_batches_are_the_dense_basis_columns(monkeypatch, name, params, n,
                                                   budget):
    if budget is not None:
        monkeypatch.setattr(states, "CHUNK_BYTES", budget)
    _assert_index_batches_are_dense_columns(builtin(name, n, **params))


@pytest.mark.parametrize("build", [three_round_random, split_memory_random])
def test_index_batches_of_factored_memories_are_the_dense_basis_columns(build):
    _assert_index_batches_are_dense_columns(build(3, 1))


@pytest.mark.parametrize("seed, d_b1, r", [(140892, 384, 64), (596854, 192, 128)])
def test_index_batches_run_in_the_client_reachable_span(seed, d_b1, r):
    """random n=6: with i fixed, the client's first op reads only X_1 (64)
    and sends Y_1 (1 or 2), so B_1 holds 64 or 128 of its dimensions.
    Gamma_i^pre and the last op's span are r-dimensional."""
    run = PurifiedRun(builtin("random", 6, seed=seed))
    d_client = run.qpir.spec.b_memory[-1].total_dim
    assert run.qpir.spec.b_memory[1].total_dim == d_b1
    last = run.qpir.spec.b_ops[-1]
    assert last.output_layout.total_dim == d_client
    for i in (1, 6):
        assert run.helstrom_operator(i).shape == (r, r)
        assert _kraus_span(last, run._reach(i)[1]).shape == (r, r)


def test_index_batches_slice_a_composite_client_input(tmp_path):
    """random n=4 seed 1 with B_0 split into two qubits, read from a file:
    the flat index i-1 runs over both registers."""
    spec = builtin("random", 4, seed=1).spec
    b0 = RegisterLayout.of(("B0a", 2), ("B0b", 2))
    first = spec.b_ops[0]
    op = Isometry(concat(b0, spec.x_comm[0]), first.output_layout, first.matrix)
    spec = spec.with_party("B", (b0,) + spec.b_memory[1:], (op,) + spec.b_ops[1:])
    path = tmp_path / "composite.json"
    serialize.dump(serialize.protocol_spec_to_json(spec), str(path))
    loaded = serialize.protocol_spec_from_json(serialize.load(str(path)))
    assert loaded.b_memory[0] == b0
    _assert_index_batches_are_dense_columns(QpirProtocol(loaded))


def test_a_client_memory_with_no_registers_is_held_under_a_fresh_label(tmp_path):
    """index-in-clear n=2 whose client sends i and keeps nothing, so B_1 has
    no registers, read from a file.  Its held span gets a label of its own,
    and every audit reads the same values as index-in-clear n=2: the server
    sends nothing, then the one bit x_i after learning i, so comm =
    0 + 1 + 1 = 2, every delta_i = 0, epsilon = 1 and m = 1.  The client's
    one bit is x_1, so index 1 is recovered always and index 2 half the
    time, and the report is non-private (comm is not below n)."""
    n = 2
    spec = build_index_in_clear(n).spec
    b0, (x1, x2), (y1,) = spec.b_memory[0], spec.x_comm, spec.y_comm
    b1, b2 = RegisterLayout(()), RegisterLayout.of(("B2", 2))
    send = Isometry(concat(b0, x1), concat(b1, y1), np.eye(n, dtype=complex))
    store = Isometry(concat(b1, x2), b2, np.eye(2, dtype=complex))
    path = tmp_path / "forgets-i.json"
    serialize.dump(serialize.protocol_spec_to_json(
        spec.with_party("B", (b0, b1, b2), (send, store))), str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    rep = json.loads(out)
    assert code == 0
    assert rep["communication"] == 2.0 and rep["m"] == 1.0
    assert rep["deltas"] == [0.0, 0.0] and rep["epsilon_used"] == 1.0
    assert rep["recovery_per_index"] == pytest.approx([1.0, 0.5], abs=1e-12)
    assert rep["consistency"] == "non-private"
    for verb in ("qpir-correctness", "qpir-privacy", "attack"):
        assert _cli([verb, "--protocol", str(path)])[0] == 0
    run = PurifiedRun(QpirProtocol(serialize.protocol_spec_from_json(
        serialize.load(str(path)))))
    assert run.pre[0] not in run.spec.labels() and run.pre[1:] == ("X2",)


# -- each index's basis runs stream in chunks of databases ---------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("half", [0, 1, 2, 3, 4, 8, 16])
def test_chunks_pair_each_first_half_with_its_bit_i_partners(monkeypatch, n, half):
    """Each chunk's second half is its first half + 2^(n-i), and the first
    halves, in order, are the databases with x_i = 0 in slices of the
    largest power of two at most `half` (and at least 1), so they
    partition them.  trivial's widest state has 4^n amplitudes, so a
    budget of 32 half 4^n bytes allows 2 half columns."""
    monkeypatch.setattr(states, "CHUNK_BYTES", 32 * half * 4 ** n)
    run = PurifiedRun(builtin("trivial", n))
    size = min(2 ** (n - 1), 1 << (max(1, half).bit_length() - 1))
    for i in range(1, n + 1):
        zeros = [x for x in range(2 ** n) if not x >> (n - i) & 1]
        firsts = []
        for xs, t in run._chunks(i, run.pre):
            first, second = np.split(xs, 2)
            assert np.array_equal(second, first + 2 ** (n - i))
            assert t.shape[2] == len(xs) == 2 * size
            firsts.append(first.tolist())
        assert firsts == [zeros[k:k + size] for k in range(0, len(zeros), size)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name, params", [
    ("trivial", {}), ("index-in-clear", {}),
    ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})])
def test_one_pair_chunks_give_the_single_chunk_results(monkeypatch, name, params, n):
    """With the budget forced below one column, every chunk is one pair of
    databases, encoded and decoded one pair at a time; reduce,
    qpir-correctness and the stored outcome-0 probabilities agree with one
    chunk, every value within 1e-12 (the golden reports' tolerance) and
    every other field equal."""
    query = "&".join(f"{key}={value}" for key, value in {"n": n, **params}.items())
    argvs = [[verb, "--protocol", f"builtin:{name}?{query}"]
             for verb in ("reduce", "qpir-correctness")]
    got = {}
    for budget in (2 ** 62, 1):
        monkeypatch.setattr(states, "CHUNK_BYTES", budget)
        reports = [json.loads(_cli(argv)[1]) for argv in argvs]
        p0 = build_rae(PurifiedRun(builtin(name, n, **params))).outcome_zero
        got[budget] = reports, p0
    (one, p0_one), (pairs, p0_pairs) = got.values()
    for argv, want, have in zip(argvs, one, pairs):
        _assert_matches(have, want, " ".join(argv))
    assert p0_pairs.shape == p0_one.shape == (n, 2 ** n)
    assert np.max(np.abs(p0_pairs - p0_one)) <= 1e-12


def test_reduce_keeps_no_encoded_state_of_every_database():
    """trivial n=7's encoding has r = 128 and 128 server dimensions, so its
    2^7 compressed runs, held at once, would be (128, 128, 128): 32 MiB.
    Each chunk of index 1's runs is encoded, decoded at every index and
    freed, so the whole of `bound_report` peaks below that one array."""
    n = 7
    qpir = builtin("trivial", n)
    bound_report(builtin("trivial", 2))   # imports and caches warm
    tracemalloc.start()
    try:
        rep = bound_report(qpir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.compressed_dim == 2 ** n and rep.recovery_avg == 1.0
    assert peak < 2 ** n * 2 ** n * 2 ** n * 16


@pytest.mark.parametrize("name, params", [
    ("trivial", {}), ("index-in-clear", {}),
    ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})])
def test_step_one_gather_matches_the_one_hot_matmul(monkeypatch, name, params):
    """A chunk starts as the server's first op gathered at its databases,
    which is that op times their one-hot columns exactly, and ends where
    the one-hot columns run through every step before the client's last
    op do, matricized the same way."""
    import qpirlab.qpir as qpir
    monkeypatch.setattr(states, "CHUNK_BYTES", 1)
    n = 3
    run = PurifiedRun(builtin(name, n, **params))
    first = run.spec.a_ops[0].matrix
    start = concat(run.spec.a_memory[0], run._span(0, 1))
    for i in range(1, n + 1):
        for xs, t in run._chunks(i, run.pre):
            one_hot = np.eye(2 ** n, dtype=complex)[:, xs]
            assert np.array_equal(dense(first, xs), dense(first) @ one_hot)
            want = matricize(*qpir._through(run._schedule(i), start, one_hot), run.pre)
            assert t.shape == want.shape
            assert np.max(np.abs(t - want)) <= 1e-12
