"""JSON serialization for layouts, operations, and protocol specs.

Complex entries are stored row-major as [re, im] pairs, a basis map
(`states.BasisMap`) or an identity product (`states.IdentityKron`) as its
dense form, so a file never says which form an op was built in and loads
dense.  Python's default float formatting is
shortest-round-trip, so doubles survive a JSON round trip bit-exactly.
Decoding is strict: a dimension or round count that is not an integer
>= 1, an entry that is not a numeric pair, a matrix of the wrong size, a
value of the wrong JSON type, or a field that nothing reads (an
isometry's `kraus_ops`, a comment) is a LayoutError, at every level: a
protocol, its layouts and ops, each register and each op.  A protocol's
top level may also hold an "n", which is its reader's to check.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import LayoutError
from .registers import Register, RegisterLayout
from .states import Isometry, KrausChannel, Operation, dense


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise LayoutError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _field(data, key: str, kind: type = list):
    """data[key], which must be a `kind`; a missing key is a KeyError."""
    if not isinstance(data, dict):
        raise LayoutError(f"expected a JSON object holding {key!r}, got "
                          f"{type(data).__name__}")
    value = data[key]
    if not isinstance(value, kind):
        raise LayoutError(f"field {key!r} must be a {kind.__name__}, got "
                          f"{type(value).__name__}")
    return value


def _only(data: dict, *keys: str) -> None:
    """Refuse a field of the JSON object `data` that is not in `keys`."""
    unread = [key for key in data if key not in keys]
    if unread:
        raise LayoutError(f"unread field(s) {', '.join(map(repr, unread))}; "
                          f"expected only {', '.join(keys)}")


def layout_to_json(layout: RegisterLayout) -> list[dict[str, Any]]:
    return [{"label": r.label, "dim": r.dim} for r in layout.registers]


def layout_from_json(data: list[dict[str, Any]]) -> RegisterLayout:
    if not isinstance(data, list):
        raise LayoutError(f"a layout must be a list, got {type(data).__name__}")
    regs = []
    for d in data:
        label = _field(d, "label", str)
        _only(d, "label", "dim")
        regs.append(Register(label, _positive_int(d["dim"], f"dim of {label!r}")))
    return RegisterLayout(tuple(regs))


def _complex_to_pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _entry(z) -> complex:
    """One [re, im] pair of JSON numbers as a complex number."""
    if isinstance(z, list) and len(z) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in z):
        try:
            return complex(*z)
        except OverflowError:  # an integer beyond the float range
            pass
    raise LayoutError(f"complex entry must be a [re, im] pair of numbers, got {z!r}")


def _pairs_to_complex(pairs: list[list[float]], shape: tuple[int, ...]) -> np.ndarray:
    size = int(np.prod(shape))
    if not isinstance(pairs, list) or len(pairs) != size:
        got = len(pairs) if isinstance(pairs, list) else type(pairs).__name__
        raise LayoutError(f"matrix of shape {shape} needs {size} entries, got {got}")
    return np.array([_entry(z) for z in pairs], dtype=np.complex128).reshape(shape)


def operation_to_json(op: Operation) -> dict[str, Any]:
    iso = isinstance(op, Isometry)
    return {
        "type": "isometry" if iso else "kraus_channel",
        "input_layout": layout_to_json(op.input_layout),
        "output_layout": layout_to_json(op.output_layout),
        **({"matrix": _complex_to_pairs(dense(op.matrix))} if iso else
           {"kraus_ops": [_complex_to_pairs(dense(k)) for k in op.kraus_ops]}),
    }


def from_json(data: dict[str, Any]) -> Operation:
    """Decode a serialized operation by its `type` tag."""
    kind = _field(data, "type", str)
    if kind not in ("isometry", "kraus_channel"):
        raise LayoutError(f"unknown operation type {kind!r}")
    _only(data, "type", "input_layout", "output_layout",
          "matrix" if kind == "isometry" else "kraus_ops")
    lin = layout_from_json(data["input_layout"])
    lout = layout_from_json(data["output_layout"])
    shape = (lout.total_dim, lin.total_dim)
    if kind == "isometry":
        return Isometry(lin, lout, _pairs_to_complex(data["matrix"], shape))
    ops = tuple(_pairs_to_complex(k, shape) for k in _field(data, "kraus_ops"))
    return KrausChannel(lin, lout, ops)


def protocol_spec_to_json(spec) -> dict[str, Any]:
    return {
        "s": spec.rounds,
        "layouts": {
            "A": [layout_to_json(l) for l in spec.a_memory],
            "B": [layout_to_json(l) for l in spec.b_memory],
            "X": [layout_to_json(l) for l in spec.x_comm],
            "Y": [layout_to_json(l) for l in spec.y_comm],
        },
        "ops": {
            "A": [operation_to_json(op) for op in spec.a_ops],
            "B": [operation_to_json(op) for op in spec.b_ops],
        },
    }


def protocol_spec_from_json(data: dict[str, Any]):
    from .protocol import ProtocolSpec  # local import to avoid a cycle

    lay = _field(data, "layouts", dict)
    ops = _field(data, "ops", dict)
    _only(data, "s", "layouts", "ops", "n")   # n is the caller's to check
    _only(lay, "A", "B", "X", "Y")
    _only(ops, "A", "B")
    return ProtocolSpec(
        rounds=_positive_int(data["s"], "s"),
        a_memory=tuple(layout_from_json(l) for l in _field(lay, "A")),
        b_memory=tuple(layout_from_json(l) for l in _field(lay, "B")),
        x_comm=tuple(layout_from_json(l) for l in _field(lay, "X")),
        y_comm=tuple(layout_from_json(l) for l in _field(lay, "Y")),
        a_ops=tuple(from_json(op) for op in _field(ops, "A")),
        b_ops=tuple(from_json(op) for op in _field(ops, "B")),
    )


def dump(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
