"""Every verdict that `reduce` and `attack` can print (the constants in
`reduction`) and certify's failure, in one table, each row derived by
hand and checked through `cli.main` as a user would reach it.  The two
verdicts that no protocol here reaches yet are listed as such.

* trivial(2): the server ships |x> whole and keeps a copy of it, so
  comm = n = 2, every delta_i = 0 and every server marginal is the
  uniform mixture over x whatever the index: epsilon = 0.  The guarantee
  is g = 1, the bound (1 - H(1)) n = 2 <= comm: `reduce` reads
  `bound-applies`, and `attack` reads `PRIVATE` and, comm not being
  below n, `bound-respected`.
* index-in-clear(3): the client sends i (one message of 3 dimensions),
  the server answers x_i (2 dimensions) after an empty first message,
  so comm = 0 + log2(3) + 1 < 3.  The server ends up holding i, so
  epsilon = 1 > 1/2 and the premise fails below n qubits:
  `consistent-because-non-private`.
* index-then-database(3): the server's first message is empty, the client
  sends i in the clear, and the server then sends x whole and keeps a copy
  of both.  comm = log2(1) + log2(3) + log2(2^3) = 3 + log2(3) >= n.  The
  client stores x, so every delta_i = 0.  The server's memory ends up
  holding i, so its marginals for two indices are orthogonal: every
  distance is 1 and epsilon = 1 > 1/2.  The privacy premise fails with
  comm >= n, which `reduce` calls `non-private`; `attack` reads
  `NOT-PRIVATE` and, the protocol not being sublinear, `bound-respected`.
  With index 1 the client holds x whole, so the encoding has m = 3, and
  Nayak's m >= (1 - H(p)) n holds whatever the recovery p: both exit 0.
  (Recovery is low, since no purifier rotation takes index 1's run to
  another index's; the premise is there to rule that out.)
* scrambled-index-in-clear(3, 5): index-in-clear whose client sends a
  Haar-random image of i, so the server's marginals differ by distances
  strictly between 0 and 1 (`test_scrambled_client_leaks_partially`
  checks them against the dense reference; the largest is 0.734): `LEAKY`.
  Its replay epsilon is above 1/2 and comm = log2(3) + 1 < 3, so it is
  `consistent-because-non-private`.
* noisier client: noisy-trivial n=2 at delta = 0.2, its client replaced
  by the delta = 0.4 client channel and recovered by trace-out.  Each
  row with x fixed compares the bit flips Bernoulli(0.2)^2 with
  Bernoulli(0.4)^2, so epsilon_hat = (0.28 + 2 * 0.08 + 0.12) / 2 = 0.28,
  above a claimed gamma of 0.25: `certified: false`, exit 2.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from qpirlab import cli, serialize
from qpirlab.adversary import AdversaryStrategy
from qpirlab.protocol import ProtocolSpec
from qpirlab.qpir import QpirProtocol, builtin
from qpirlab.reduction import (ATTACK_CONSISTENCY, ATTACK_VERDICT, BOUND_VIOLATED,
                               REDUCE_CONSISTENCY, SUBLINEAR_AND_PRIVATE)
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import Isometry

from conftest import scrambled_index_in_clear


def index_then_database(n: int) -> QpirProtocol:
    """Two rounds: A sends nothing, B sends i and keeps it, A keeps x and i
    and sends x, B stores x with i."""
    da = 2 ** n

    def lay(label: str, dim: int) -> RegisterLayout:
        return RegisterLayout.of((label, dim))

    a0, a1, a2 = lay("A0", da), lay("A1", da), lay("A2", da * n)
    b0, b1, b2 = lay("B0", n), lay("B1", n), lay("B2", n * da)
    x1, x2, y1 = lay("X1", 1), lay("X2", da), lay("Y1", n)
    eye = np.eye(n, dtype=complex)
    send_i = (eye[:, None, :] * eye[None, :, :]).reshape(n * n, n)
    send_x = np.zeros((da * n * da, da * n), dtype=complex)
    for x in range(da):
        for i in range(n):
            send_x[(x * n + i) * da + x, x * n + i] = 1.0
    a_ops = (Isometry(a0, concat(a1, x1), np.eye(da, dtype=complex)),
             Isometry(concat(a1, y1), concat(a2, x2), send_x))
    b_ops = (Isometry(concat(b0, x1), concat(b1, y1), send_i),
             Isometry(concat(b1, x2), b2, np.eye(n * da, dtype=complex)))
    return QpirProtocol(ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2),
                                     (y1,), a_ops, b_ops))


def noisier_client(gamma: float) -> AdversaryStrategy:
    host = builtin("noisy-trivial", 2, delta=0.2).spec
    noisier = builtin("noisy-trivial", 2, delta=0.4).spec
    return AdversaryStrategy("B", host.b_memory, noisier.b_ops, gamma=gamma)


#: (verb, protocol, exit code, the report fields the module docstring
#: derives).  certify runs the noisier client in place of the purified one.
VERDICTS = [
    ("reduce", "builtin:trivial?n=2", 0,
     {"consistency": "bound-applies", "privacy_premise_ok": True,
      "communication": 2.0, "delta_max": 0.0, "epsilon_used": 0.0,
      "guarantee": 1.0, "bound_value": 2.0, "m": 2.0}),
    ("attack", "builtin:trivial?n=2", 0,
     {"verdict": "PRIVATE", "consistency": "bound-respected",
      "sublinear": False, "max_pairwise": 0.0}),
    ("reduce", "builtin:index-in-clear?n=3", 0,
     {"consistency": "consistent-because-non-private", "privacy_premise_ok": False,
      "communication": 1 + math.log2(3), "epsilon_used": 1.0}),
    ("reduce", "index-then-database", 0,
     {"consistency": "non-private", "privacy_premise_ok": False,
      "communication": 3 + math.log2(3), "delta_max": 0.0, "epsilon_used": 1.0,
      "m": 3.0, "compressed_dim": 8}),
    ("attack", "index-then-database", 0,
     {"consistency": "bound-respected", "verdict": "NOT-PRIVATE",
      "sublinear": False, "communication": 3 + math.log2(3), "max_pairwise": 1.0}),
    ("attack", "scrambled-index-in-clear", 0,
     {"verdict": "LEAKY", "consistency": "consistent-because-non-private",
      "sublinear": True, "privacy_premise_holds": False,
      "communication": 1 + math.log2(3)}),
    ("certify", "noisier-client", 2,
     {"certified": False, "epsilon_hat": 0.28, "gamma": 0.25}),
]

#: (verb, report field, every value `reduction` defines for it, those that
#: no row reaches yet).  SUBLINEAR-AND-PRIVATE needs a private protocol
#: below n qubits, which no builtin is; BOUND-VIOLATED needs a broken link
#: in the reduction's proof chain, which correct code never has.
VERDICT_FIELDS = [
    ("reduce", "consistency", REDUCE_CONSISTENCY, {BOUND_VIOLATED}),
    ("attack", "verdict", ATTACK_VERDICT, set()),
    ("attack", "consistency", ATTACK_CONSISTENCY, {SUBLINEAR_AND_PRIVATE}),
]

PROTOCOLS = {
    "index-then-database": lambda: index_then_database(3),
    "scrambled-index-in-clear": lambda: scrambled_index_in_clear(3, 5),
}


@pytest.mark.parametrize("verb, protocol, code, fields", VERDICTS,
                         ids=[f"{v}-{p}" for v, p, _, _ in VERDICTS])
def test_verdict_is_reached(verb, protocol, code, fields, tmp_path, monkeypatch):
    if protocol == "noisier-client":
        monkeypatch.setattr(cli, "purified_adversary",
                            lambda spec, party: noisier_client(0.25))
        address = "builtin:noisy-trivial?n=2&delta=0.2"
        argv = [verb, "--protocol", address, "--party", "B"]
    elif protocol.startswith("builtin:"):
        argv = [verb, "--protocol", protocol]
    else:
        path = tmp_path / f"{protocol}.json"
        serialize.dump(serialize.protocol_spec_to_json(PROTOCOLS[protocol]().spec),
                       str(path))
        argv = [verb, "--protocol", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code
    report = json.loads(out.getvalue())
    for key, want in fields.items():
        if isinstance(want, float):
            assert report[key] == pytest.approx(want, abs=1e-12), key
        else:
            assert report[key] == want, key


@pytest.mark.parametrize("verb, field, values, unreached", VERDICT_FIELDS,
                         ids=[f"{v}-{f}" for v, f, _, _ in VERDICT_FIELDS])
def test_the_table_covers_every_verdict(verb, field, values, unreached):
    reached = {fields[field] for v, _, _, fields in VERDICTS
               if v == verb and field in fields}
    assert len(set(values)) == len(values)
    assert reached | unreached == set(values)
    assert not reached & unreached
