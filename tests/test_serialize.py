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
from qpirlab.qpir import parse_builtin_address
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


def test_unknown_type_rejected():
    with pytest.raises(LayoutError):
        serialize.from_json({"type": "mystery"})
    with pytest.raises(LayoutError):  # states are not operations
        serialize.from_json({"type": "state_vector", "layout": [], "amplitudes": []})


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
    name, params = parse_builtin_address("builtin:trivial-qpir?n=6")
    assert name == "trivial-qpir"
    assert params == {"n": "6"}
    name, params = parse_builtin_address("builtin:noisy-trivial?n=4&delta=0.1")
    assert params == {"n": "4", "delta": "0.1"}
    with pytest.raises(LayoutError):
        parse_builtin_address("trivial?n=2")


def test_builtin_from_address():
    from qpirlab.qpir import builtin_from_address
    p = builtin_from_address("builtin:trivial-qpir?n=4")
    assert p.n == 4
    assert p.communication == pytest.approx(4.0)
    q = builtin_from_address("builtin:index-in-clear?n=4")
    assert q.communication == pytest.approx(math.log2(4) + 1)
    with pytest.raises(LayoutError):
        builtin_from_address("builtin:nonsense?n=2")
    with pytest.raises(LayoutError):
        builtin_from_address("builtin:trivial")


def test_file_dump_load(tmp_path, rng):
    lay = RegisterLayout.of(("a", 3))
    ch = KrausChannel(lay, lay, tuple(random_kraus_ops(rng, 3, 3, 2)))
    path = tmp_path / "channel.json"
    serialize.dump(serialize.operation_to_json(ch), str(path))
    assert serialize.from_json(serialize.load(str(path))) == ch
