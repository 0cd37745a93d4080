"""The paired Helstrom kernel, taken before the client's last op and
diagonalized in that op's span, the span-compressed server marginals, and
the random access encoding built before the client's last op, against the
dense computation they replace.

The reference purifies both parties itself (`purify_both`, the client's
last op dilated) and runs every basis input |x>|i> through the whole
protocol in one `execute_pure_batch`, with no index fixed, no span held
and no run stopped before the client's last op.  It forms each client
average rho_b on the client's final registers as a Gram matrix of the
columns {x : x_i = b}, copied out by fancy indexing; nu_i as the sum of
index i's final columns; each server marginal as t_j t_j^dagger of nu_j
on the full d_server x d_server space; and the encoding on the client's
final registers: the compressor from nu_1's SVD, each decoder as the full
d_client x d_client Uhlmann unitary times it, and each measurement as the
projector onto the eigenvectors of the dense Gamma_i above d_client * eps.
"""

import math

import numpy as np
import pytest

from qpirlab import states
from qpirlab.errors import SupportViolation
from qpirlab.linalg import (
    DEFAULT_RANK_TOL,
    haar_unitary_matrix,
    pure_distance_amplitudes,
    schmidt_compressor,
)
from qpirlab.protocol import ProtocolSpec, execute_pure_batch, purify_both
from qpirlab.qpir import (
    PurifiedRun,
    QpirProtocol,
    _kraus_span,
    _pushed_through,
    bit_of,
    build_trivial,
    builtin,
    correctness_delta,
    privacy_epsilon_purified,
    server_marginals,
)
from qpirlab.reduction import _encode, build_rae, recovery_rates
from qpirlab.registers import Register, RegisterLayout, concat
from qpirlab.states import Isometry, matricize

from conftest import (
    dense_builtin,
    half_leaky,
    mixing_client_random,
    scrambled_index_in_clear,
    split_memory_random,
    three_round_random,
)

TOL = 1e-12


def forgetful_trivial(n: int) -> QpirProtocol:
    """trivial whose server ships |x> and keeps no copy of it.

    In every builtin the server keeps x, which makes the client's states
    for x and its bit-i partner incoherent, so the cross terms of
    G = (M_0 + M_1)(M_0 - M_1)^dagger vanish.  Here they do not, and G is
    not Hermitian."""
    spec = build_trivial(n).spec
    a0 = spec.a_memory[0]
    (x1,) = spec.x_comm
    a1 = RegisterLayout((Register("A1", 1),))
    ship = Isometry(a0, concat(a1, x1), np.eye(2 ** n, dtype=np.complex128))
    return QpirProtocol(ProtocolSpec(1, (a0, a1), spec.b_memory, (x1,), (),
                                     (ship,), spec.b_ops))


def widening_random(n: int, seed: int) -> QpirProtocol:
    """random whose client's last op embeds B_1 (x) X_2 isometrically into
    a B_2 of twice its dimension, so m d_pre = d_pre < d_client and Gamma_i
    is diagonalized in a proper subspace of the client's registers."""
    spec = builtin("random", n, seed=seed).spec
    last = spec.b_ops[-1]
    d = last.input_layout.total_dim
    b2 = RegisterLayout((Register("B2", 2 * d),))
    iso = Isometry(last.input_layout, b2,
                   haar_unitary_matrix(2 * d, np.random.default_rng(seed))[:, :d])
    return QpirProtocol(spec.with_party("B", spec.b_memory[:-1] + (b2,),
                                        spec.b_ops[:-1] + (iso,)))


CASES = [
    (f"{name}-n{n}-{params}", lambda name=name, n=n, params=params:
        builtin(name, n, **params))
    for n in (2, 3)
    for name, params in (("trivial", {}), ("index-in-clear", {}),
                         ("noisy-trivial", {"delta": 0.2}),
                         ("random", {"seed": 1}), ("random", {"seed": 2}))
] + [
    ("index-in-clear-n4", lambda: builtin("index-in-clear", 4)),
    ("half-leaky-n3", lambda: half_leaky(3)),
    ("trivial-n4", lambda: builtin("trivial", 4)),
    ("scrambled-index-in-clear-n3", lambda: scrambled_index_in_clear(3, 5)),
    ("forgetful-trivial-n3", lambda: forgetful_trivial(3)),
    ("mixing-client-random-n3", lambda: mixing_client_random(3, 1)),
    ("widening-random-n3", lambda: widening_random(3, 2)),
    ("three-round-random-n3", lambda: three_round_random(3, 1)),
    ("split-memory-random-n3", lambda: split_memory_random(3, 1)),
]


def dense_columns(run: PurifiedRun) -> tuple[RegisterLayout, np.ndarray]:
    """One batch of every basis input |x>|i> (column x*n + (i-1)) through
    the whole protocol, both parties purified, and its final layout."""
    spec = purify_both(run.qpir.spec)
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    return execute_pure_batch(spec, lay, np.eye(lay.total_dim, dtype=complex))


def halves(run: PurifiedRun, i: int) -> list[np.ndarray]:
    """The client's final columns of index i with x_i = 0 and with
    x_i = 1, copied out by fancy indexing, each in increasing x."""
    n = run.qpir.n
    final, dense = dense_columns(run)
    t = matricize(dense[:, i - 1::n], final, run.qpir.spec.b_memory[-1].labels())
    return [t[:, :, [x for x in range(2 ** n) if bit_of(x, i, n) == b]]
            .reshape(t.shape[0], -1) for b in (0, 1)]


def dense_client_averages(run: PurifiedRun, i: int) -> list[np.ndarray]:
    """The client's final state averaged over {x : x_i = 0} and over
    {x : x_i = 1}, one Gram matmul each."""
    return [(m @ m.conj().T) / 2 ** (run.qpir.n - 1) for m in halves(run, i)]


def dense_server_marginals(run: PurifiedRun) -> list[np.ndarray]:
    """t_j t_j^dagger on the purified server's registers, per index, with
    t_j the server factor of nu_j after the whole protocol: index j's
    final columns summed, over sqrt(2^n)."""
    n = run.qpir.n
    final, dense = dense_columns(run)
    t = matricize(dense, final, run.spec.a_memory[-1].labels())
    t = t.reshape(t.shape[0], -1, 2 ** n, n).sum(axis=2) / math.sqrt(2 ** n)
    return [t[:, :, j] @ t[:, :, j].conj().T for j in range(n)]


def dense_gamma(run: PurifiedRun, i: int) -> np.ndarray:
    rho0, rho1 = dense_client_averages(run, i)
    return 0.5 * rho0 - 0.5 * rho1


def dense_encoding(run: PurifiedRun) -> list[tuple[float, float, bool]]:
    """Per index, the recovery rate and the rotation distance of the
    encoding built on the client's final registers, and whether
    K = c_1^T conj(nu_i) has full rank r there, which makes the decoder
    unique.  The measurement keeps the eigenvectors of Gamma_i above the
    floor `helstrom_matrices` applies, d_client * eps, so neither side's
    rate depends on the round-off signs of Gamma_i's kernel.  A run that
    leaves the compression support by more than 1e-8 is a
    SupportViolation."""
    n, da = run.qpir.n, 2 ** run.qpir.n
    final, dense = dense_columns(run)
    client = final.drop(run.spec.a_memory[-1].labels())   # honest B_s leads
    t = matricize(dense, final, client.labels())
    t = t.reshape(t.shape[0], t.shape[1], da, n)              # [a, b, x, i-1]
    nus = t.sum(axis=2) / math.sqrt(da)
    u, s, _ = np.linalg.svd(nus[:, :, 0], full_matrices=False)
    e = u[:, s > DEFAULT_RANK_TOL]
    runs = t[:, :, :, 0]
    leak = np.linalg.norm(runs - np.einsum("ak,bk,bcx->acx", e, e.conj(), runs),
                          axis=(0, 1))
    if np.max(leak) > 1e-8:
        raise SupportViolation(f"a run leaves the support by {np.max(leak):.3e}")
    c = np.einsum("ak,abx->kbx", e.conj(), runs)
    c /= np.linalg.norm(c, axis=(0, 1))
    c1 = e.conj().T @ nus[:, :, 0]
    d_honest = run.qpir.spec.b_memory[-1].total_dim
    out = []
    for i in range(1, n + 1):
        nu = nus[:, :, i - 1]
        v, _, wh = np.linalg.svd(nus[:, :, 0] @ nu.conj().T)
        decoder = wh.conj().T @ v.conj().T @ e
        unique = np.linalg.svd(c1 @ nu.conj().T, compute_uv=False)[-1] >= 1e-6
        decoded = np.einsum("ak,kbx->abx", decoder, c).reshape(d_honest, -1, da)
        w, vecs = np.linalg.eigh(dense_gamma(run, i))
        kept = vecs[:, w > len(w) * np.finfo(float).eps]
        weight = np.sum(np.abs(np.einsum("ah,abx->hbx", kept.conj(), decoded)) ** 2,
                        axis=(0, 1))
        bits = np.array([bit_of(x, i, n) for x in range(da)])
        rate = float(np.mean(np.where(bits == 0, weight, 1.0 - weight)))
        dist = pure_distance_amplitudes(nu.reshape(-1), (decoder @ c1).reshape(-1))
        out.append((rate, dist, unique))
    return out


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


@pytest.fixture(scope="module", params=[build for _, build in CASES],
                ids=[name for name, _ in CASES])
def run(request) -> PurifiedRun:
    return PurifiedRun(request.param())


def test_deltas_and_probabilities_match_the_dense_reference(run):
    rep = correctness_delta(run)
    for i in range(1, run.qpir.n + 1):
        w = np.linalg.eigvalsh(dense_gamma(run, i))
        want = min(1.0, 0.5 + 0.5 * float(np.sum(np.abs(w))))
        got, _ = _pushed_through(run.helstrom_operator(i),
                                 _kraus_span(run.qpir.spec.b_ops[-1], run._reach(i)[1]))
        assert abs(got - want) <= TOL
        assert abs(rep.deltas[i - 1] - max(0.0, 1.0 - want)) <= TOL


def test_outcome_zero_basis_is_optimal_for_the_dense_operator(run):
    """W_i^dagger W_i is the outcome-0 effect pulled back through the last
    op, so Tr(W_i Gamma_i^pre W_i^dagger) = Tr(Pi_i Gamma_i), which is optimal
    when it is the sum of Gamma_i's positive eigenvalues."""
    rep = correctness_delta(run)
    for i in range(1, run.qpir.n + 1):
        w = np.linalg.eigvalsh(dense_gamma(run, i))
        effect = states.dense(rep.measurements[i - 1])
        attained = float(np.trace(effect @ run.helstrom_operator(i)
                                  @ effect.conj().T).real)
        assert abs(attained - float(np.sum(w[w > 0.0]))) <= TOL


def test_recovery_matches_the_dense_encoding(run):
    """Recovery rates and rotation distances of the encoding built before
    the client's last op equal those of the one built on its final
    registers, wherever they are unique.  Both sides leave Gamma_i's
    kernel out of the measurement, so scrambled-index-in-clear, whose
    decoded runs reach that kernel at every index, is compared too.
    forgetful-trivial's server keeps nothing, so both sides refuse its
    runs."""
    if run.spec.a_memory[-1].total_dim == 1:
        with pytest.raises(SupportViolation):
            dense_encoding(run)
        with pytest.raises(SupportViolation):
            build_rae(run)
        return
    want = dense_encoding(run)
    rae = build_rae(run)
    rates, _ = recovery_rates(rae)
    assert any(unique for _, _, unique in want)
    for (rate, dist, unique), got_rate, got_dist in zip(
            want, rates, rae.rotation_distances):
        if unique:
            assert abs(got_dist - dist) <= 1e-10
            assert abs(got_rate - rate) <= 1e-10


def test_distance_matrix_matches_the_dense_reference(run):
    dense = dense_server_marginals(run)
    got = privacy_epsilon_purified(run).distance_matrix
    n = run.qpir.n
    want = np.array([[_trace_distance(dense[a], dense[b]) for b in range(n)]
                     for a in range(n)])
    assert np.max(np.abs(got - want)) <= TOL


def test_scrambled_client_leaks_partially():
    # the span-compressed path is checked above on distances strictly
    # between 0 and 1, not only on index-in-clear's orthogonal marginals
    dist = privacy_epsilon_purified(
        PurifiedRun(scrambled_index_in_clear(3, 5))).distance_matrix
    off = dist[~np.eye(3, dtype=bool)]
    assert np.all((off > 0.05) & (off < 0.95))


def test_forgetful_server_leaves_cross_terms():
    # the case above where dropping the Hermitian part of G would show
    run = PurifiedRun(forgetful_trivial(3))
    m0, m1 = halves(run, 2)
    assert np.max(np.abs(m1 @ m0.conj().T)) > 0.5
    assert correctness_delta(run).deltas == pytest.approx((0.0,) * 3, abs=TOL)


def test_marginals_live_in_the_runs_span_only_when_it_is_smaller():
    # dense index-in-clear n=3: 3 factors of 24 x 6, so 18 columns < d_server = 24
    tall = server_marginals(PurifiedRun(dense_builtin("index-in-clear", 3)))
    assert [m.shape for m in tall] == [(18, 18)] * 3
    wide_run = PurifiedRun(dense_builtin("trivial", 3))
    d_server = wide_run.spec.a_memory[-1].total_dim
    assert [m.shape for m in server_marginals(wide_run)] == \
        [(d_server, d_server)] * 3
    # as basis maps, trivial's server marginals are diagonal, and its
    # marginals are diagonals over all d_server rows; index-in-clear's
    # client holds only x_i (its B_1 span is 1-dimensional), so its
    # databases share client columns, and its 3 factors of 24 x 2 are
    # compared in their 6-dimensional span
    run = PurifiedRun(builtin("trivial", 3))
    d_server = run.spec.a_memory[-1].total_dim
    assert [m.shape for m in server_marginals(run)] == [(d_server,)] * 3
    assert [m.shape for m in server_marginals(PurifiedRun(builtin("index-in-clear", 3)))] \
        == [(6, 6)] * 3


def test_new_cases_exercise_the_last_op_span():
    # a purifier before the last op and m = 2; then m d_pre < d_client
    mixing = PurifiedRun(mixing_client_random(3, 1))
    ops, q = mixing._reach(1)
    b_pre = ops[-1].output_layout   # held B_1, purifier, Y_1
    assert b_pre.labels()[1] == "Bbar" and b_pre.dims()[1] == 2
    r = _kraus_span(mixing.qpir.spec.b_ops[-1], q)
    assert r.shape[1] == 2 * mixing.helstrom_operator(1).shape[0]
    widening = PurifiedRun(widening_random(3, 2))
    last = widening.qpir.spec.b_ops[-1]
    d_pre = widening.helstrom_operator(1).shape[0]
    assert last.output_layout.total_dim == 2 * d_pre
    assert _kraus_span(last, widening._reach(1)[1]).shape == (d_pre, d_pre)
    assert correctness_delta(widening).measurements[0].shape[1] == d_pre


def _held_dims(run: PurifiedRun, i: int) -> list[int]:
    """The dimension each of the client's memories B_1..B_{s-1} holds in
    index i's run."""
    ops, _ = run._reach(i)
    return [op.output_layout.dims()[0] for op in ops]


def test_new_cases_exercise_the_reachable_span():
    # three rounds: B_1 (24) and B_2 (96) both factored, Q_1 composed into op 2
    three = PurifiedRun(three_round_random(3, 1))
    _, second = three._reach(2)[0]
    assert three.qpir.spec.b_memory[1].total_dim == 24
    assert three.qpir.spec.b_memory[2].total_dim == 96
    assert _held_dims(three, 2) == [16, 64]
    assert second.input_layout.dims()[0] == 16
    assert three.helstrom_operator(2).shape == (128, 128)
    # B_1 made of two registers, of 3 and 8 dimensions, held as one of 8
    split = PurifiedRun(split_memory_random(3, 1))
    assert split.qpir.spec.b_memory[1].dims() == (3, 8)
    assert _held_dims(split, 1) == [8]
    assert split._reach(1)[1].shape[1] == 8   # the last op reads held B_1 (8), X_2 (1)
    assert split.qpir.spec.x_comm[-1].dims() == (1,)
    # dense index-in-clear's QR holds all of B_1: the factoring changes no
    # dimension; as basis maps, the one row of B_1 its client reaches
    clear = PurifiedRun(dense_builtin("index-in-clear", 3))
    assert _held_dims(clear, 1) == [clear.qpir.spec.b_memory[1].total_dim]
    assert _held_dims(PurifiedRun(builtin("index-in-clear", 3)), 1) == [1]


@pytest.mark.parametrize("build", [lambda: builtin("trivial", 2),
                                   lambda: mixing_client_random(3, 1)],
                         ids=["trivial-n2", "mixing-client-random-n3"])
@pytest.mark.parametrize("budget", [None, 1], ids=["one-chunk", "one-pair"])
def test_the_encoding_refuses_a_compressor_short_of_the_support(monkeypatch, build,
                                                                budget):
    """A compressor that lacks one column of nu_1's client support is
    refused; the mixing client holds a purifier before its last op.
    trivial n=2's four runs have client parts that are a basis of that
    support, so their squared leaks sum to 1 and the worst is >= 1/2.
    Each encoding is one pass over index 1, decoded here at no index; the
    refusal comes after every chunk, with the worst leak of all, and
    names the rank tolerance."""
    if budget is not None:
        monkeypatch.setattr(states, "CHUNK_BYTES", budget)
    run = PurifiedRun(build())
    nu1 = run.nu(1)
    emat = schmidt_compressor(nu1, nu1.layout.drop(run.spec.a_memory[-1].labels())
                              .labels()).matrix
    assert _encode(run, emat, [], DEFAULT_RANK_TOL).shape == (0, 2 ** run.qpir.n)
    with pytest.raises(SupportViolation, match="leaves the compression support") as exc:
        _encode(run, emat[:, 1:], [], DEFAULT_RANK_TOL)
    assert f"rank tolerance ({DEFAULT_RANK_TOL})" in str(exc.value)
    if run.qpir.n == 2:
        assert float(str(exc.value).split(" by ")[1].split(";")[0]) >= 0.5
