import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from qpirlab import builtin
from qpirlab.errors import LayoutError
from qpirlab.registers import RegisterLayout
from qpirlab.linalg import haar_unitary_matrix
from qpirlab.states import Isometry, KrausChannel
from qpirlab.qpir import builtin_from_address
from qpirlab import serialize

from conftest import random_kraus_ops


def round_trip(op):
    return serialize.from_json(json.loads(json.dumps(serialize.operation_to_json(op))))


def test_operation_round_trips(rng):
    lin = RegisterLayout.of(("in", 3))
    lout = RegisterLayout.of(("out", 2))
    ch = KrausChannel(lin, lout, tuple(random_kraus_ops(rng, 3, 2, 3)))
    assert round_trip(ch) == ch
    iso = Isometry(lin, lin, haar_unitary_matrix(3, rng))
    assert round_trip(iso) == iso


def test_protocol_spec_round_trip():
    spec = builtin("index-in-clear", 3).spec
    blob = json.dumps(serialize.protocol_spec_to_json(spec))
    assert serialize.protocol_spec_from_json(json.loads(blob)) == spec


def test_random_survives_a_round_trip():
    """random's server scramble is stored as 1 (x) U and written dense, so
    the spec read back holds it dense and still equals the builtin's."""
    spec = builtin_from_address("builtin:random?n=3&seed=1").spec
    blob = json.dumps(serialize.protocol_spec_to_json(spec))
    back = serialize.protocol_spec_from_json(json.loads(blob))
    assert type(back.a_ops[1].matrix) is not type(spec.a_ops[1].matrix)
    assert back == spec


def test_unknown_type_rejected():
    with pytest.raises(LayoutError):
        serialize.from_json({"type": "mystery"})
    with pytest.raises(LayoutError):  # states are not operations
        serialize.from_json({"type": "state_vector", "layout": [], "amplitudes": []})


def test_unread_fields_are_named_in_one_error():
    data = serialize.protocol_spec_to_json(builtin("trivial", 2).spec)
    with pytest.raises(LayoutError, match=r"unread field\(s\) 'seed', 'delta', 'N'; "
                       r"expected only s, layouts, ops, n"):
        serialize.protocol_spec_from_json({**data, "seed": 5, "delta": 0.3, "N": 7})
    op = {**data["ops"]["A"][0], "kraus_ops": []}
    with pytest.raises(LayoutError, match=r"unread field\(s\) 'kraus_ops'"):
        serialize.from_json(op)


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(finite_doubles, min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_doubles_survive_json_bit_exactly(pair):
    # shortest-round-trip float formatting must preserve the exact bits
    out = json.loads(json.dumps(pair))
    for a, b in zip(pair, out):
        assert struct.pack("<d", a) == struct.pack("<d", b)


def test_amplitude_bits_survive(rng):
    lay = RegisterLayout.of(("a", 8))
    iso = Isometry(lay, lay, haar_unitary_matrix(8, rng))
    back = round_trip(iso)
    assert iso.matrix.tobytes() == back.matrix.tobytes()


def test_builtin_address_parsing():
    assert builtin_from_address("builtin:trivial?n=6").spec == builtin("trivial", 6).spec
    noisy = builtin_from_address("builtin:noisy-trivial?n=4&delta=0.1")
    assert noisy.spec == builtin("noisy-trivial", 4, delta=0.1).spec
    with pytest.raises(LayoutError):
        builtin_from_address("trivial?n=2")


def test_builtin_from_address():
    p = builtin_from_address("builtin:trivial?n=4")
    assert p.n == 4
    assert p.communication == pytest.approx(4.0)
    q = builtin_from_address("builtin:index-in-clear?n=4")
    assert q.communication == pytest.approx(math.log2(4) + 1)
    with pytest.raises(LayoutError):
        builtin_from_address("builtin:nonsense?n=2")
    # one name per builtin: the old aliases are unknown, and the error lists
    # the names that are known
    with pytest.raises(LayoutError, match=r"unknown builtin 'trivial-qpir'; "
                       r"known: \['index-in-clear', 'noisy-trivial', "
                       r"'random', 'trivial'\]"):
        builtin_from_address("builtin:trivial-qpir?n=4")
    with pytest.raises(LayoutError):
        builtin_from_address("builtin:trivial")


def test_file_dump_load(tmp_path, rng):
    lay = RegisterLayout.of(("a", 3))
    ch = KrausChannel(lay, lay, tuple(random_kraus_ops(rng, 3, 3, 2)))
    path = tmp_path / "channel.json"
    serialize.dump(serialize.operation_to_json(ch), str(path))
    assert serialize.from_json(serialize.load(str(path))) == ch
