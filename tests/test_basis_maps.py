"""Basis maps (`states.BasisMap`) against the dense arrays they stand for.

trivial, index-in-clear and noisy-trivial store every op as basis maps;
`conftest.dense_builtin` builds the same protocols dense.  The builtins'
matrices, their runs through `protocol._steps`, the gather of columns and
the JSON they serialize to must equal the dense reference bit for bit, and
the structural isometry and trace-preservation checks must give the dense
Gram checks' verdict and error.  Their audits, which read correctness off
a diagonal (the basis path of `qpir.correctness_delta`) and the encoding
off the runs' rows and values (the basis path of `reduction.build_rae`),
must agree with the dense reference's, which diagonalizes in the Kraus
span and encodes through SVDs and chunk passes, within 1e-12.  The record
both read (`PurifiedRun.basis_runs`) must hold nu_i's amplitudes bit for
bit, so neither forms the dense nu_i, and privacy reads the server's
diagonal marginals off it with no eigensolver, within 1e-12 of the dense
path's distances (`conftest.half_leaky`, whose epsilon is 1/2).  Where a
marginal is not diagonal, privacy and the Uhlmann decoders read each
index's server factor off the record (`BasisRuns.factor`).
"""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from qpirlab import cli, linalg, reduction, states
from qpirlab.errors import LayoutError, SupportViolation
from qpirlab.linalg import haar_unitary_matrix
from qpirlab.protocol import ProtocolSpec, _inputs, _isometries, _steps, purify_both
from qpirlab.qpir import (
    PurifiedRun,
    QpirProtocol,
    _copy,
    _diagonal_distance,
    build_index_in_clear,
    build_noisy_trivial,
    build_trivial,
    builtin,
    correctness_delta,
    privacy_epsilon_purified,
)
from qpirlab.reduction import bound_report, build_rae
from qpirlab.registers import RegisterLayout, concat
from qpirlab.serialize import protocol_spec_from_json, protocol_spec_to_json
from qpirlab.states import BasisMap, Isometry, KrausChannel, apply, dense

from conftest import dense_builtin, half_leaky
from test_golden import _assert_matches

BUILTINS = [("trivial", {}), ("index-in-clear", {}), ("noisy-trivial", {"delta": 0.2})]
CASES = ([(name, n, params) for n in (1, 2, 3) for name, params in BUILTINS]
         + [("noisy-trivial", 4, {"delta": d}) for d in (0.074495, 0.416768)])


def _ids(case):
    name, n, params = case
    return f"{name}-n{n}" + "".join(f"-{v}" for v in params.values())


def _bits(a: np.ndarray) -> bytes:
    """The bytes of `a` with each zero's sign dropped: the dense matmul
    sums signed zero products into the entries that a basis map leaves
    +0, and -0 == +0."""
    return (a + 0.0).tobytes()


def _matrices(spec):
    """Every op's matrices, A's ops then B's: an isometry's one matrix, a
    channel's Kraus operators in order."""
    for op in spec.a_ops + spec.b_ops:
        yield from (op.matrix,) if isinstance(op, Isometry) else op.kraus_ops


@pytest.mark.parametrize("name, n, params", CASES, ids=map(_ids, CASES))
def test_builtin_ops_are_basis_maps_equal_to_the_dense_reference(name, n, params):
    built = builtin(name, n, **params).spec
    for got, want in zip(_matrices(built), _matrices(dense_builtin(name, n, **params).spec),
                         strict=True):
        assert isinstance(got, BasisMap)
        assert dense(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, n, params", CASES, ids=map(_ids, CASES))
def test_scatter_and_gather_equal_the_dense_matmul_bit_for_bit(name, n, params, rng):
    for m in _matrices(builtin(name, n, **params).spec):
        d_in = m.shape[1]
        cols = rng.standard_normal((d_in, 3)) + 1j * rng.standard_normal((d_in, 3))
        assert _bits(apply(m, cols)) == _bits(dense(m) @ cols)
        xs = rng.permutation(d_in)[:max(1, d_in // 2)]
        one_hot = np.eye(d_in, dtype=complex)[:, xs]
        assert _bits(dense(m, xs)) == _bits(dense(m) @ one_hot)


@pytest.mark.parametrize("name, n, params", CASES, ids=map(_ids, CASES))
def test_runs_through_basis_maps_equal_the_dense_runs_bit_for_bit(name, n, params, rng):
    """`_steps` of the purified protocol, on random input columns, gives
    the dense reference's states after every step; noisy-trivial's client
    channel is dilated (`stinespring`), one Kraus operator at a time."""
    built = purify_both(builtin(name, n, **params).spec)
    ref = purify_both(dense_builtin(name, n, **params).spec)
    lay = _inputs(built)
    cols = (rng.standard_normal((lay.total_dim, 4))
            + 1j * rng.standard_normal((lay.total_dim, 4)))
    runs = zip(_steps(_isometries(built), lay, cols), _steps(_isometries(ref), lay, cols),
               strict=True)
    for (_, got_lay, got), (_, want_lay, want) in runs:
        assert got_lay == want_lay
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("name, n, params", [c for c in CASES if c[1] <= 3],
                         ids=map(_ids, [c for c in CASES if c[1] <= 3]))
def test_serialize_writes_the_dense_reference_json(name, n, params):
    built = builtin(name, n, **params).spec
    text = json.dumps(protocol_spec_to_json(built))
    assert text == json.dumps(protocol_spec_to_json(dense_builtin(name, n, **params).spec))
    assert protocol_spec_from_json(json.loads(text)) == built


def test_builtins_hold_no_dense_operator():
    """Dense, trivial n=8's two ops are 256 MiB and 64 MiB, index-in-clear
    n=8's answer op 128 MiB and noisy-trivial n=6's 64 Kraus operators
    144 MiB; as basis maps all three protocols take under 1 MiB."""
    build_trivial(1)   # imports and caches warm
    tracemalloc.start()
    try:
        built = (build_trivial(8), build_index_in_clear(8), build_noisy_trivial(6, 0.2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built) == 3
    assert peak < 2 * 2**20


def test_dense_isometry_check_makes_no_whole_matrix_temporary(monkeypatch, rng):
    """The Gram matrix is formed over blocks of columns, B^dagger M, so
    past its own copy the check holds no more than a few blocks."""
    monkeypatch.setattr(states, "CHUNK_BYTES", 2**18)
    u = haar_unitary_matrix(512, rng)   # 4 MiB
    lay = RegisterLayout.of(("a", 512))
    tracemalloc.start()
    try:
        Isometry(lay, lay, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * u.nbytes


# ---------------------------------------------------------------------------
# audits on the basis path against the dense path
# ---------------------------------------------------------------------------

AUDITED = ([("trivial", n, {}) for n in (1, 2, 3, 4)]
           + [("noisy-trivial", n, {"delta": d}) for n in (1, 2, 3, 4)
              for d in (0.074495, 0.2, 0.416768, 0.5)])


def _assert_same_audit(basis: QpirProtocol, reference: QpirProtocol) -> None:
    """bound_report's fields and correctness_delta's agree within 1e-12,
    and so does each index's effect W_i^dagger W_i."""
    got, want = (json.loads(json.dumps(bound_report(q).to_dict()))
                 for q in (basis, reference))
    _assert_matches(got, want, "bound_report")
    got, want = (correctness_delta(PurifiedRun(q)) for q in (basis, reference))
    _assert_matches([got.n, list(got.deltas), got.delta_max, got.delta_avg],
                    [want.n, list(want.deltas), want.delta_max, want.delta_avg],
                    "correctness")
    assert got.measured_labels == want.measured_labels
    for a, b in zip(got.measurements, want.measurements, strict=True):
        a, b = dense(a), dense(b)
        assert a.shape[1] == b.shape[1]
        assert np.max(np.abs(a.conj().T @ a - b.conj().T @ b), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name, n, params", AUDITED, ids=map(_ids, AUDITED))
def test_audits_on_the_basis_path_match_the_dense_path(name, n, params):
    basis, reference = builtin(name, n, **params), dense_builtin(name, n, **params)
    assert PurifiedRun(basis).one_hot and not PurifiedRun(reference).one_hot
    _assert_same_audit(basis, reference)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_in_clear_holds_one_row_of_b1_and_audits_as_the_dense_path(n):
    """The client's first op copies i into B_1 and Y_1, so with i fixed it
    reaches one row of B_1: the basis-map span holds it in 1 dimension,
    Q_1 = |i> (`PurifiedRun._reach`), where the dense twin's QR holds all
    n.  The audits' numbers do not see the span: bound_report's fields
    and the deltas match the dense twin's within 1e-12."""
    basis, reference = build_index_in_clear(n), dense_builtin("index-in-clear", n)
    run = PurifiedRun(basis)
    assert run.one_hot and not PurifiedRun(reference).one_hot
    for i in range(1, n + 1):
        ops, q = run._reach(i)
        assert isinstance(q, BasisMap) and q.shape == (n, 1) and q.rows[0] == i - 1
        assert all(isinstance(op.matrix, BasisMap) for op in ops)
        assert ops[0].output_layout.dims()[0] == 1
    assert PurifiedRun(reference)._reach(1)[1].shape == (n, n)
    got, want = (json.loads(json.dumps(bound_report(q).to_dict()))
                 for q in (basis, reference))
    _assert_matches(got, want, "bound_report")
    got, want = (correctness_delta(PurifiedRun(q)).deltas for q in (basis, reference))
    _assert_matches(list(got), list(want), "deltas")


def _measured_trivial(form) -> QpirProtocol:
    """trivial n=2 whose client keeps x_1 and measures x_2 in the +/-
    basis, recording the outcome in place of x_2: its two Kraus operators,
    each matrix given as `form` makes it, send both values of x_2 to one
    row, so their columns share rows."""
    spec = build_trivial(2).spec
    (store,) = spec.b_ops
    x = np.arange(8)   # column (i - 1) 4 + 2 x_1 + x_2
    kraus = [BasisMap((8, 8), x - x % 2 + a, math.sqrt(0.5) * (1 - 2 * a * (x % 2)))
             for a in (0, 1)]
    measure = KrausChannel(store.input_layout, store.output_layout,
                           tuple(form(k) for k in kraus))
    return QpirProtocol(spec.with_party("B", spec.b_memory, (measure,)))


def test_kraus_operators_that_share_rows_match_the_dense_path():
    """Pi K_k is not diagonal in its Gram when columns share a row, so
    such Kraus operators take the dense path, as basis maps or dense.
    Bit 1 is kept (delta 0) and bit 2 is erased (delta 1/2)."""
    basis = _measured_trivial(lambda k: k)
    assert correctness_delta(PurifiedRun(basis)).deltas == (0.0, 0.5)
    _assert_same_audit(basis, _measured_trivial(dense))


class _BasisPath(Exception):
    pass


def test_only_kraus_operators_with_distinct_rows_take_the_basis_path(monkeypatch):
    """With `_basis_pushed_through` raising, `_measured_trivial`'s
    row-sharing basis maps still give delta = (0, 1/2), on the dense path,
    and noisy-trivial n=3's bit flips, each with distinct rows, reach it."""
    import qpirlab.qpir as qpir_module

    def basis_path(*args):
        raise _BasisPath

    monkeypatch.setattr(qpir_module, "_basis_pushed_through", basis_path)
    basis = _measured_trivial(lambda k: k)
    assert correctness_delta(PurifiedRun(basis)).deltas == (0.0, 0.5)
    with pytest.raises(_BasisPath):
        correctness_delta(PurifiedRun(builtin("noisy-trivial", 3, delta=0.2)))


# ---------------------------------------------------------------------------
# the encoding on the basis path: compressor, decoders and p_0 off the runs
# ---------------------------------------------------------------------------

class _DensePath(Exception):
    pass


#: What the encoding's dense path calls and its basis path never does, by
#: name, with every namespace that holds it.
DENSE_ENCODING = {"schmidt_compressor": (linalg, reduction),
                  "uhlmann_unitary": (linalg, reduction),
                  "_compressed": (reduction,), "_chunks": (PurifiedRun,)}


def _reduce(address: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reduce", "--protocol", address])
    return code, out.getvalue()


def test_basis_map_builtins_encode_with_no_svd_and_no_chunk(monkeypatch):
    """With the SVD compressor, the Uhlmann solver, the chunk compressor
    and the chunk pass raising, trivial n=3 and noisy-trivial n=3 reduce
    to the same report, and random seed 1 (n=2), whose ops are not basis
    maps, reaches each of them.  index-in-clear n=3's client op is a basis map,
    so its span is too (`PurifiedRun._reach`): with the SVD compressor,
    the chunk compressor and the chunk pass raising, it reduces to the
    same report.  Its server learns i, so no K is monomial, and each
    decoder is an Uhlmann solve on index i's server factor."""
    basis = ["builtin:trivial?n=3", "builtin:noisy-trivial?n=3&delta=0.2"]
    clear = "builtin:index-in-clear?n=3"
    want = [_reduce(address) for address in basis]
    want_clear = _reduce(clear)

    def raising(*args, **kwargs):
        raise _DensePath

    for name, owners in DENSE_ENCODING.items():
        with monkeypatch.context() as patch:
            for owner in owners:
                patch.setattr(owner, name, raising)
            with pytest.raises(_DensePath):
                _reduce("builtin:random?n=2&seed=1")
            if name == "uhlmann_unitary":
                with pytest.raises(_DensePath):
                    _reduce(clear)
    for name, owners in DENSE_ENCODING.items():
        if name == "uhlmann_unitary":
            continue
        for owner in owners:
            monkeypatch.setattr(owner, name, raising)
    assert _reduce(clear) == want_clear and want_clear[0] == 0
    for owner in DENSE_ENCODING["uhlmann_unitary"]:
        monkeypatch.setattr(owner, "uhlmann_unitary", raising)
    assert [_reduce(address) for address in basis] == want
    assert all(code == 0 for code, _ in want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name, params", [("trivial", {}), ("noisy-trivial", {"delta": 0.2})])
def test_basis_map_builtins_encode_into_n_qubits_with_exact_rotations(name, params, n):
    """The client holds x before its last op, in 2^n rows of nu_1 of
    equal weight, and every nu_i is nu_1: the compressor keeps all 2^n,
    m = n, and each decoder is the identity, so every rotation lands
    exactly: distance 0.0.  The compressor, the decoders and the
    measurements are basis maps, none of them a dense d_pre-wide array."""
    qpir = builtin(name, n, **params)
    rep = bound_report(qpir)
    assert rep.compressed_dim == 2 ** n and rep.m == n and rep.m_ceil == n
    assert rep.rotation_distances == (0.0,) * n
    rae = build_rae(PurifiedRun(qpir))
    for matrix in (rae.compressor.matrix, *(decoder.matrix for decoder in rae.decoders),
                   *rae.correctness.measurements):
        assert isinstance(matrix, BasisMap)


def _one_round(n: int, a1: int, x1: int, server_rows, form) -> QpirProtocol:
    """One round: the server sends |x> to row server_rows[x] of A1 (x) X1,
    of dimensions a1 and x1, and the client stores B0 (x) X1 whole; each
    op's matrix given as `form` makes the basis map."""
    da = 2 ** n
    a0, a1, x1, b0, b1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", a1), ("X1", x1), ("B0", n), ("B1", n * x1)))
    ship = BasisMap((a1.total_dim * x1.total_dim, da), server_rows, np.ones(da))
    a_op = Isometry(a0, concat(a1, x1), form(ship))
    b_op = Isometry(concat(b0, x1), b1, form(BasisMap.identity(b1.total_dim)))
    return QpirProtocol(ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (a_op,), (b_op,)))


def _forgetful(n: int, form) -> QpirProtocol:
    """trivial whose server ships |x> and keeps nothing: A1 is 1-dimensional."""
    return _one_round(n, 1, 2 ** n, np.arange(2 ** n), form)


def _coarse(n: int, form) -> QpirProtocol:
    """trivial whose server keeps x and ships only whether x is 2^n - 1:
    nu_1's two client rows weigh 1 - 2^-n and 2^-n."""
    x = np.arange(2 ** n)
    return _one_round(n, 2 ** n, 2, 2 * x + (x == 2 ** n - 1), form)


def _last_bit_sent(n: int, returned: bool, form) -> QpirProtocol:
    """Two rounds, n >= 2, each op's matrix given as `form` makes the
    basis map.  The server keeps a copy of x and ships one.  The client
    keeps i and sends x_n, which the server knows already; it keeps x
    whole with i >= 2 and drops x_n with i = 1, so with i fixed its first
    op reaches 2^n rows of B_1 at i >= 2 and 2^(n-1) at i = 1.  The
    server then holds x_n in A_2, or, `returned`, sends it back in X_2,
    and the client stores what it holds."""
    da = 2 ** n
    a0, a1, a2, x1, x2, b0, b1, b2, y1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("A2", da if returned else 2 * da), ("X1", da),
        ("X2", 2 if returned else 1), ("B0", n), ("B1", n * da),
        ("B2", n * da * (2 if returned else 1)), ("Y1", 2)))
    i, x = np.divmod(np.arange(n * da), da)       # column (i - 1) 2^n + x
    held = i * da + np.where(i == 0, x >> 1, x)
    b1_op = BasisMap((n * da * 2, n * da), 2 * held + (x & 1), np.ones(n * da))
    ops = (Isometry(a0, concat(a1, x1), form(_copy(da))),
           Isometry(concat(a1, y1), concat(a2, x2), form(BasisMap.identity(2 * da))),
           Isometry(concat(b0, x1), concat(b1, y1), form(b1_op)),
           Isometry(concat(b1, x2), b2, form(BasisMap.identity(b2.total_dim))))
    return QpirProtocol(ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                                     ops[:2], ops[2:]))


@pytest.mark.parametrize("returned", [True, False], ids=["returned", "kept"])
@pytest.mark.parametrize("n", [2, 3])
def test_decoders_map_into_each_indexs_own_client_registers(monkeypatch, returned, n):
    """The client reaches fewer rows of B_1 with i = 1 than with i >= 2,
    so on the basis path index 1's runs end over a smaller layout than
    index 2's, where the dense twin's QR spans hold as many rows for
    every index.  Each decoder maps into its own index's client
    registers.  With x_n returned, every K is monomial; with x_n kept,
    index 1's client row holds two databases, so every K has two terms
    in each row and the decoders are Uhlmann solves.  Either way K has
    full rank r, so each decoder, and the recovery, is unique: reduce
    exits 0, and bound_report's fields and the deltas match the dense
    twin's within 1e-12."""
    basis, reference = (_last_bit_sent(n, returned, form) for form in (lambda m: m, dense))
    monkeypatch.setattr(cli, "_resolve_qpir", lambda args: basis)
    assert _verb("reduce", "python-built")[0] == 0
    run = PurifiedRun(basis)
    assert run.one_hot and not PurifiedRun(reference).one_hot
    server = run.spec.a_memory[-1].labels()
    rae = build_rae(run)
    c1 = dense(rae.compressor.matrix).conj().T @ run.basis_runs(1).factor().T
    for i, decoder in enumerate(rae.decoders, start=1):
        client = run.basis_runs(i).layout.drop(server)
        assert decoder.output_layout == client
        assert client.total_dim == (2 ** (n - 1) if i == 1 else 2 ** n) * (1 + returned)
        assert isinstance(decoder.matrix, BasisMap) == returned
        k = c1 @ run.basis_runs(i).factor().conj()
        assert np.linalg.svd(k, compute_uv=False)[-1] > 1e-6
    got, want = (json.loads(json.dumps(bound_report(q).to_dict())) for q in (basis, reference))
    _assert_matches(got, want, "bound_report")
    got, want = (correctness_delta(PurifiedRun(q)).deltas for q in (basis, reference))
    _assert_matches(list(got), list(want), "deltas")


def _refusal(qpir: QpirProtocol, **kwargs) -> str:
    with pytest.raises(SupportViolation) as exc:
        build_rae(PurifiedRun(qpir), **kwargs)
    return str(exc.value)


def test_a_server_that_keeps_no_copy_fails_the_column_test():
    """Every run of the forgetful server sits in its one server column, so
    the basis maps take the dense path, and both forms refuse the runs
    that leave nu_1's one-dimensional support, with one message."""
    run = PurifiedRun(_forgetful(3, lambda m: m))
    assert run.one_hot and run.basis_runs(1).marginal("client") is None
    got = _refusal(_forgetful(3, lambda m: m))
    assert got == _refusal(_forgetful(3, dense))
    assert got.startswith("a database run leaves the compression support")


@pytest.mark.parametrize("n", [2, 3])
def test_a_k_that_is_not_monomial_falls_back_to_the_uhlmann_unitary(monkeypatch, n):
    """The coarse client's nu_1 has 2^n - 1 databases in one client row,
    so K = c_1^T conj(nu_i) gets 2^n - 1 terms in that row: each index's
    decoder is the Uhlmann polar factor, of K read off the runs' record,
    and the audit matches the dense protocol's."""
    basis = _coarse(n, lambda m: m)
    assert PurifiedRun(basis).basis_runs(1).marginal("client") is not None
    solve, solved = reduction.uhlmann_unitary, []

    def counted(*args, **kwargs):
        solved.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(reduction, "uhlmann_unitary", counted)
    _assert_same_audit(basis, _coarse(n, dense))
    assert len(solved) == 2 * n   # n on each side
    rae = build_rae(PurifiedRun(basis))
    assert isinstance(rae.compressor.matrix, BasisMap) and rae.compressed_dim == 2
    assert not any(isinstance(d.matrix, BasisMap) for d in rae.decoders)


ONE_HOT = ([(f"trivial-n{n}", lambda n=n: build_trivial(n)) for n in (1, 2, 3, 4)]
           + [(f"index-in-clear-n{n}", lambda n=n: build_index_in_clear(n))
              for n in (1, 2, 3, 4)]
           + [(f"half-leaky-n{n}", lambda n=n: half_leaky(n)) for n in (2, 3)]
           + [(f"noisy-trivial-n{n}-{d}", lambda n=n, d=d: build_noisy_trivial(n, d))
              for n in (1, 2, 3, 4) for d in (0.2, 0.416768)]
           + [(f"{form.__name__}-n{n}", lambda n=n, form=form: form(n, lambda m: m))
              for n in (2, 3) for form in (_forgetful, _coarse)])


@pytest.mark.parametrize("build", [b for _, b in ONE_HOT], ids=[k for k, _ in ONE_HOT])
def test_basis_runs_hold_nu_entries_and_distinct_client_server_pairs(build):
    """Every step is a basis-map isometry, so no two runs of an index share
    a row, and nu_i's entry at each run's row is 2^(-n/2) times its
    values, multiplied as the dense run multiplies them, which
    index-in-clear and half-leaky take through three steps (the client's
    first op on its reached span, `PurifiedRun._reach`):
    `basis_runs` gives the dense nu_i's amplitudes there bit for bit, and
    each run's (client row, server column) pair, and its `pre` row, are
    `matricized_rows` of its row."""
    run = PurifiedRun(build())
    assert run.one_hot
    for i in range(1, run.qpir.n + 1):
        runs = run.basis_runs(i)
        nu = run.nu(i)
        assert runs.layout == nu.layout
        assert runs.nu.tobytes() == nu.amplitudes[runs.rows].tobytes()
        client = runs.layout.drop(run.spec.a_memory[-1].labels()).labels()
        got = (runs.client, runs.server, runs.pre)
        want = (*states.matricized_rows(runs.rows, runs.layout, client),
                states.matricized_rows(runs.rows, runs.layout, run.pre)[0])
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        d_server = runs.layout.total_dim // runs.layout.sub(client).total_dim
        assert states._distinct(runs.client * d_server + runs.server)


MARGINALS = [("trivial-n3", lambda: build_trivial(3)),
             ("noisy-trivial-n3-0.2", lambda: build_noisy_trivial(3, 0.2)),
             ("half-leaky-n3", lambda: half_leaky(3))]


@pytest.mark.parametrize("build", [b for _, b in MARGINALS], ids=[k for k, _ in MARGINALS])
def test_diagonal_marginals_are_the_dense_marginals_diagonals(build):
    """No two runs of an index of trivial, noisy-trivial or half-leaky
    share a client row or a server column, so both of nu_j's marginals
    are diagonal: `BasisRuns.marginal` gives the diagonal of each, and
    the marginal built from the dense nu_j has those entries and zeros
    off them."""
    run = PurifiedRun(build())
    server = run.spec.a_memory[-1].labels()
    for j in range(1, run.qpir.n + 1):
        nu = run.nu(j)
        for side, labels in (("client", nu.layout.drop(server).labels()), ("server", server)):
            t = states.matricize(nu.amplitudes, nu.layout, labels)
            got = run.basis_runs(j).marginal(side)
            assert got is not None and got.shape == (len(t),)
            assert np.max(np.abs(np.diag(got) - t @ t.conj().T)) <= 1e-15


def test_a_shared_row_leaves_the_other_sides_marginal_not_diagonal():
    """The forgetful server keeps nothing, so every run of an index sits
    in its one server column and nu_j's client marginal is not diagonal;
    index-in-clear's client holds only x_j, so its databases share client
    rows and nu_j's server marginal is not.  Each reads None."""
    forgetful = PurifiedRun(_forgetful(3, lambda m: m))
    clear = PurifiedRun(build_index_in_clear(3))
    for j in (1, 2, 3):
        assert forgetful.basis_runs(j).marginal("client") is None
        assert clear.basis_runs(j).marginal("server") is None


def test_uhlmann_decoders_on_one_hot_runs_read_no_dense_nu(monkeypatch):
    """index-in-clear's decoders are Uhlmann solves on its one-hot runs,
    and so are the coarse client's, whose K has 2^n - 1 terms in one row;
    index-in-clear's and the coarse client's server marginals are not
    diagonal.  With `PurifiedRun.nu` raising, reduce, qpir-privacy and
    attack print the same reports on index-in-clear n=3 and the coarse
    client at n=2 and 3: each K and each marginal is read off the runs'
    record (`BasisRuns.factor`)."""
    protocols = [build_index_in_clear(3), _coarse(2, lambda m: m), _coarse(3, lambda m: m)]

    def reports():
        out = []
        for qpir in protocols:
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_resolve_qpir", lambda args: qpir)
                out += [_verb(verb, "python-built")
                        for verb in ("reduce", "qpir-privacy", "attack")]
        return out

    want = reports()
    assert all(code == 0 for code, _ in want)
    monkeypatch.setattr(PurifiedRun, "nu", _raising)
    assert reports() == want


def _encoding_bits(rae) -> tuple:
    return (rae.m, rae.compressed_dim, rae.rotation_distances, rae.outcome_zero.tobytes(),
            tuple(dense(d.matrix).tobytes() for d in rae.decoders),
            _correctness_bits(rae.correctness))


def _correctness_bits(report) -> tuple:
    return (report.deltas, report.delta_max, report.delta_avg,
            tuple(dense(w).tobytes() for w in report.measurements))


def test_the_basis_path_reads_nu_off_the_runs(monkeypatch):
    """With `PurifiedRun.nu` raising, trivial n=3, noisy-trivial n=3 and
    index-in-clear n=3, whose decoders are Uhlmann solves, encode and
    measure to the same bits; random seed 1 (n=2), whose ops are not
    basis maps, still reaches it."""
    def audits():
        return [(_encoding_bits(build_rae(PurifiedRun(q))),
                 _correctness_bits(correctness_delta(PurifiedRun(q))))
                for q in (build_trivial(3), build_noisy_trivial(3, 0.2),
                          build_index_in_clear(3))]

    def raising(self, i):
        raise _DensePath

    want = audits()
    monkeypatch.setattr(PurifiedRun, "nu", raising)
    assert audits() == want
    with pytest.raises(_DensePath):
        build_rae(PurifiedRun(builtin("random", 2, seed=1)))


# ---------------------------------------------------------------------------
# privacy on the basis path: diagonal server marginals off the runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_half_leaky_protocol_reads_epsilon_one_half_off_diagonals(monkeypatch, n):
    """half-leaky's runs are one-hot and every server marginal is
    diagonal (`BasisRuns.marginal`), so its privacy is read off them with
    no eigensolver, and its report, correctness and the bound's epsilon
    fields match its dense twin's within 1e-12: epsilon = 1/2 on both.
    (Its decoders at the leaking indices are not unique, so the recovery
    is not compared.)"""
    basis, reference = half_leaky(n), half_leaky(n, dense)
    run = PurifiedRun(basis)
    assert run.one_hot and not PurifiedRun(reference).one_hot
    assert all(run.basis_runs(j).marginal("server") is not None for j in range(1, n + 1))
    want = privacy_epsilon_purified(PurifiedRun(reference)).to_dict()
    with monkeypatch.context() as patch:
        for name in ("eigvalsh", "eigh"):
            patch.setattr(np.linalg, name, _raising)
        got = privacy_epsilon_purified(run).to_dict()
    _assert_matches(got, want, "privacy")
    assert got["epsilon_hat"] == pytest.approx(0.5, abs=1e-12)
    assert got["reference_index"] == want["reference_index"] == 1
    got, want = (correctness_delta(PurifiedRun(q)).deltas for q in (basis, reference))
    assert got == (0.0,) * n and max(want) <= 1e-12
    got, want = (bound_report(q) for q in (basis, reference))
    for field in ("epsilon_used", "epsilon_min", "marginal_distances", "guarantee",
                  "bound_value", "privacy_premise_ok", "consistency"):
        _assert_matches(getattr(got, field), getattr(want, field), field)


def _raising(*args, **kwargs):
    raise _DensePath


def test_diagonal_distances_floor_round_off_to_exactly_0_and_1():
    """Two diagonals of one mixture summed in two orders differ by
    round-off alone, and read 0.0; two of disjoint support, each of eight
    weights (2^(-3/2))^2, sum to 0.9999999999999998 apart, and read 1.0."""
    rng = np.random.default_rng(3)
    rows, weights = rng.integers(0, 8, 64), rng.random(64)
    weights /= weights.sum()
    order = rng.permutation(64)
    a = np.bincount(rows, weights, minlength=8)
    b = np.bincount(rows[order], weights[order], minlength=8)
    assert np.any(a != b)
    assert _diagonal_distance(a, b, 8) == 0.0
    assert _diagonal_distance(a, a, 8) == 0.0
    entry = complex(1.0 / math.sqrt(8))
    half = np.full(8, entry.real ** 2 + entry.imag ** 2)
    a, b = np.concatenate((half, np.zeros(8))), np.concatenate((np.zeros(8), half))
    assert 0.5 * np.sum(np.abs(a - b)) < 1.0
    assert _diagonal_distance(a, b, 16) == 1.0


def _verb(verb: str, address: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([verb, "--protocol", address])
    return code, out.getvalue()


def test_privacy_reads_no_dense_nu_and_no_eigensolver_on_the_basis_path(monkeypatch):
    """With `trace_distance_matrices`, `marginals_in_span` and
    `PurifiedRun.nu` raising, reduce, qpir-privacy and attack on trivial
    n=3 and noisy-trivial n=3 print the same reports; random seed 1
    (n=2), whose ops are not basis maps, reaches each of the three."""
    import qpirlab.qpir as qpir_module
    cells = [(verb, address) for verb in ("reduce", "qpir-privacy", "attack")
             for address in ("builtin:trivial?n=3", "builtin:noisy-trivial?n=3&delta=0.2")]
    want = [_verb(*cell) for cell in cells]
    patched = {"trace_distance_matrices": (linalg, qpir_module),
               "marginals_in_span": (linalg, qpir_module), "nu": (PurifiedRun,)}
    for name, owners in patched.items():
        with monkeypatch.context() as patch:
            for owner in owners:
                patch.setattr(owner, name, _raising)
            for verb in ("reduce", "qpir-privacy", "attack"):
                with pytest.raises(_DensePath):
                    _verb(verb, "builtin:random?n=2&seed=1")
    for name, owners in patched.items():
        for owner in owners:
            monkeypatch.setattr(owner, name, _raising)
    assert [_verb(*cell) for cell in cells] == want
    assert all(code == 0 for code, _ in want)


def test_a_rank_tolerance_that_cuts_a_row_is_refused_on_both_paths():
    """At 0.6, between the coarse client's Schmidt coefficients sqrt(3/4)
    and 1/2, the compressor keeps one row, and nu_1 leaves it by 1/2."""
    got = _refusal(_coarse(2, lambda m: m), rank_tol=0.6)
    assert got == _refusal(_coarse(2, dense), rank_tol=0.6)
    assert got == ("the uniform database's run with index 1 leaves the compression "
                   "support by 5.000e-01; check the rank tolerance (0.6)")


def test_a_rank_tolerance_above_every_coefficient_names_it_on_both_paths():
    """noisy-trivial n=3's eight Schmidt coefficients are 8^-1/2: at 0.36
    no row is kept, and both paths give the dense path's words."""
    messages = []
    for qpir in (builtin("noisy-trivial", 3, delta=0.2),
                 dense_builtin("noisy-trivial", 3, delta=0.2)):
        with pytest.raises(LayoutError) as exc:
            build_rae(PurifiedRun(qpir), rank_tol=0.36)
        messages.append(str(exc.value))
    assert messages == ["rank tolerance 0.36 is at or above every Schmidt coefficient "
                        "across ('X1', 'B0') (largest 0.353553): nothing is left to "
                        "compress onto"] * 2


# ---------------------------------------------------------------------------
# structural checks against the dense Gram checks
# ---------------------------------------------------------------------------

def _lay(label, dim):
    return RegisterLayout.of((label, dim))


def _verdict(kind, d_out, d_in, matrices):
    """None if the op builds, else its LayoutError's message."""
    lin, lout = _lay("i", d_in), _lay("o", d_out)
    try:
        if kind == "isometry":
            (matrix,) = matrices
            Isometry(lin, lout, matrix)
        else:
            KrausChannel(lin, lout, tuple(matrices))
    except LayoutError as exc:
        return str(exc)
    return None


S = math.sqrt(0.5)
PHASE = np.exp(0.3j)
#: (kind, d_out, d_in, basis maps, whether the dense check accepts them)
STRUCTURAL = {
    "repeated-row": ("isometry", 4, 3, [BasisMap((4, 3), [0, 1, 1], np.ones(3))], False),
    "phase-1e-6-off-unit": ("isometry", 3, 3,
                            [BasisMap((3, 3), [2, 0, 1], [1, PHASE * (1 + 1e-6), 1])], False),
    "phases-on-the-unit-circle": ("isometry", 4, 3,
                                  [BasisMap((4, 3), [3, 0, 1], [1j, PHASE, -1])], True),
    "weights-6e-9-off-tp": ("channel", 2, 2,
                            [BasisMap((2, 2), [0, 1], np.full(2, math.sqrt(0.3))),
                             BasisMap((2, 2), [1, 0], np.full(2, math.sqrt(0.7 + 6e-9)))],
                            False),
    "weights-5e-10-off-tp": ("channel", 2, 2,
                             [BasisMap((2, 2), [0, 1], np.full(2, math.sqrt(0.3))),
                              BasisMap((2, 2), [1, 0], np.full(2, math.sqrt(0.7 + 5e-10)))],
                             True),
    "channel-repeated-row": ("channel", 2, 2,
                             [BasisMap((2, 2), [0, 0], [S, S]),
                              BasisMap((2, 2), [1, 1], [S, 0.5])], False),
    # repeated rows whose cross terms cancel between the two operators
    "channel-cancelling-rows": ("channel", 2, 2,
                                [BasisMap((2, 2), [0, 0], [S, S]),
                                 BasisMap((2, 2), [1, 1], [S, -S])], True),
}


@pytest.mark.parametrize("kind, d_out, d_in, maps, accepted", STRUCTURAL.values(),
                         ids=STRUCTURAL.keys())
def test_structural_checks_give_the_dense_checks_verdict_and_error(kind, d_out, d_in,
                                                                    maps, accepted):
    basis = _verdict(kind, d_out, d_in, maps)
    assert basis == _verdict(kind, d_out, d_in, [dense(m) for m in maps])
    assert (basis is None) == accepted


def test_a_basis_map_refuses_a_nan_and_a_row_outside_its_output():
    with pytest.raises(LayoutError, match="array contains non-finite entries"):
        BasisMap((3, 3), [0, 1, 2], [1, np.nan, 1])
    with pytest.raises(LayoutError, match="array contains non-finite entries"):
        Isometry(_lay("i", 3), _lay("o", 3), np.diag([1, np.nan, 1]))
    for rows in ([0, 1, 3], [0, -1, 2]):
        with pytest.raises(LayoutError, match=r"rows must lie in 0\.\.2"):
            BasisMap((3, 3), rows, np.ones(3))
    with pytest.raises(LayoutError, match="rows must be 3 integers"):
        BasisMap((3, 3), [0.0, 1.0, 2.0], np.ones(3))
    # a dense matrix cannot hold a row past its output: its shape is refused
    for matrix in (np.eye(4)[:, :3], BasisMap((4, 3), [0, 1, 3], np.ones(3))):
        with pytest.raises(LayoutError, match=r"array shape \(4, 3\) != expected \(3, 3\)"):
            Isometry(_lay("i", 3), _lay("o", 3), matrix)


def test_matrices_compare_equal_across_forms():
    ident = BasisMap.identity(3)
    assert ident == BasisMap((3, 3), [0, 1, 2], [1, 1, 1])
    assert ident == np.eye(3)
    assert ident != BasisMap((3, 3), [1, 0, 2], [1, 1, 1])
    assert ident != BasisMap.identity(4)
    lay = _lay("a", 3)
    assert Isometry(lay, lay, ident) == Isometry(lay, lay, np.eye(3))
    assert Isometry(lay, lay, ident) != Isometry(lay, lay, np.eye(3)[:, [1, 0, 2]])
