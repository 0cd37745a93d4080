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
import sys

import numpy as np
import pytest

from qpirlab import cli, serialize
from qpirlab.linalg import uhlmann_unitary
from qpirlab.protocol import ProtocolSpec
from qpirlab.qpir import (
    PurifiedRun,
    build_index_in_clear,
    builtin,
    privacy_epsilon_purified,
)
from qpirlab.reduction import (
    bound_report,
    build_rae,
    lower_bound,
    superposition_attack,
)
from qpirlab.states import KrausChannel, StateVector, matricize

from conftest import identity_support


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


def test_noisy_trivial_audit_matches_the_bit_flip_rate():
    rep = bound_report(builtin("noisy-trivial", 3, delta=0.2))
    assert rep.deltas == pytest.approx((0.2, 0.2, 0.2), abs=1e-9)
    assert rep.epsilon_used == pytest.approx(0.0, abs=1e-9)
    assert rep.recovery_avg == pytest.approx(0.8, abs=1e-9)
    # epsilon is round-off, which the sqrt in the guarantee lifts to ~1e-8
    assert rep.bound_value == pytest.approx((1.0 - _h(0.8)) * 3, abs=1e-6)
    assert rep.consistency == "bound-applies"


def test_index_in_clear_is_caught_as_non_private():
    qpir = builtin("index-in-clear", 3)
    rep = bound_report(qpir)
    assert rep.epsilon_used == pytest.approx(1.0, abs=1e-12)
    assert not rep.privacy_premise_ok
    assert rep.consistency == "consistent-because-non-private"
    assert superposition_attack(qpir).verdict == "NOT-PRIVATE"


BUILTINS = [("trivial", {}), ("index-in-clear", {}),
            ("noisy-trivial", {"delta": 0.2}), ("random", {"seed": 1})]


@pytest.mark.parametrize("name, params", BUILTINS, ids=[b[0] for b in BUILTINS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decoders_agree_with_the_full_uhlmann_unitary(name, params, n):
    """Each d_client x r decoder is the full purifier unitary U times the
    compressor E wherever K = c_1^T conj(nu_i) has full rank r, so that its
    polar factor is unique."""
    run = PurifiedRun(builtin(name, n, **params))
    rae = build_rae(run)
    e = rae.compressor.matrix
    client = rae.compressor.output_layout.labels()
    nus = [StateVector(run.layout, run.superposition[:, j]) for j in range(n)]
    ms = matricize(run.superposition, run.layout, client)
    c1t = e.conj().T @ ms[:, :, 0]
    for j, decoder in enumerate(rae.decoders):
        k = c1t @ ms[:, :, j].conj().T
        if np.linalg.svd(k, compute_uv=False)[-1] < 1e-6:
            continue
        full = uhlmann_unitary(nus[j], nus[0], identity_support(run.layout, client))
        assert np.max(np.abs(decoder.matrix - full.matrix @ e)) < 1e-10


def test_decoders_are_thin():
    """No d_client x d_client matrix survives in the encoding."""
    for name, params in BUILTINS:
        rae = build_rae(PurifiedRun(builtin(name, 3, **params)))
        d_client = rae.compressor.output_layout.total_dim
        assert len(rae.decoders) == 3
        assert rae.compressed_dim < d_client
        for decoder in rae.decoders:
            assert decoder.matrix.shape == (d_client, rae.compressed_dim)


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
    copy = b1.matrix                        # |i>|0> -> |i>|i> on (B1, Y1)
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

@pytest.mark.parametrize("n", ["abc", 2.5, True, 0])
def test_protocol_file_n_must_be_a_positive_int(n, tmp_path, capsys):
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    data["n"] = n
    path = tmp_path / "trivial.json"
    serialize.dump(data, str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and "Traceback" not in err


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
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_protocol_file_ends_in_a_clean_error(case, tmp_path, capsys):
    """A dimension of 4.7 is not read as 4, and no decoding error escapes as
    a traceback; every error names the file."""
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    data = MALFORMED_FILES[case](data) or data
    path = tmp_path / f"{case}.json"
    serialize.dump(data, str(path))
    code, out = _cli(["reduce", "--protocol", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and str(path) in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv", BAD_NUMBERS + IGNORED_FLAGS, ids=" ".join)
def test_bad_input_ends_in_a_clean_error(argv, capsys):
    code, out = _cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("qpirlab: error:") and "Traceback" not in err


RANK_TOL_ABOVE_EVERY_COEFFICIENT = [
    ["reduce", "--protocol", "builtin:noisy-trivial?n=3&delta=0.2", "--rank-tol", "0.36"],
    ["reduce", "--protocol", "builtin:random?n=4&seed=5", "--rank-tol", "0.25"],
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


def test_out_of_memory_ends_in_a_clean_error(monkeypatch, capsys):
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.53 GiB")

    monkeypatch.setattr(cli, "bound_report", oom)
    code, out = _cli(["reduce", "--protocol", "builtin:trivial?n=2"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "qpirlab: error: MemoryError: Unable to allocate 1.53 GiB\n"


@pytest.mark.parametrize("flag", [["--recovery", "/nonexistent.json"],
                                  ["--adversary", "adv.json"]])
def test_certify_rejects_removed_options(flag):
    argv = ["certify", "--protocol", "builtin:trivial?n=2"] + flag
    assert _cli(argv)[0] == 1


# -- each audit purifies once and runs each batch once ------------------------

@pytest.fixture
def calls(monkeypatch):
    """Count purify_both and execute calls and the column count of every
    batch run."""
    import qpirlab.protocol as protocol
    seen = {"purify_both": 0, "execute": 0, "batches": []}
    purify, batch = protocol.purify_both, protocol.execute_pure_batch
    execute = protocol.execute

    def counted_purify(spec):
        seen["purify_both"] += 1
        return purify(spec)

    def counted_execute(spec, rho_in):
        seen["execute"] += 1
        return execute(spec, rho_in)

    def counted_batch(spec, layout, columns):
        seen["batches"].append(columns.shape[1])
        return batch(spec, layout, columns)

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
    return seen


def test_reduce_purifies_once_and_runs_two_batches(calls):
    n = 4
    bound_report(builtin("random", n, seed=5))
    assert calls["purify_both"] == 1
    assert sorted(calls["batches"]) == [n, 2 ** n * n]


@pytest.mark.parametrize("verb", ["qpir-privacy", "attack"])
def test_privacy_and_attack_run_one_batch_of_n_columns(calls, verb):
    assert _cli([verb, "--protocol", "builtin:trivial?n=4"])[0] == 0
    assert calls["purify_both"] == 1
    assert calls["batches"] == [4]


def test_schmidt_executes_the_protocol_once(calls):
    assert _cli(["schmidt", "--protocol", "builtin:trivial?n=3"])[0] == 0
    assert calls["purify_both"] == 1
    assert calls["execute"] == 1
