"""Golden reports: the JSON and exit code of every protocol verb on a fixed
grid of small cells, run through `cli.main` in process.

Floats are compared within 1e-12 and everything else exactly, so the BLAS
thread count does not matter.  After an intended change to a report,
regenerate the file and review its diff:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py

Regeneration keeps every stored value that the new run matches as the test
does (floats within FLOAT_TOL), so round-off that differs between machines
leaves the file as it was and the diff shows only real moves.  It rewrites
the rest, adds new cells and drops cells no longer in the grid.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from qpirlab import cli, states

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
FLOAT_TOL = 1e-12


def _protocols(n: int) -> tuple[str, ...]:
    return (f"builtin:trivial?n={n}", f"builtin:index-in-clear?n={n}",
            f"builtin:noisy-trivial?n={n}&delta=0.2",
            f"builtin:random?n={n}&seed=1")


CELLS = tuple(
    [[verb, "--protocol", p] for p in _protocols(3)
     for verb in ("reduce", "qpir-correctness", "qpir-privacy", "attack")]
    + [["run", "--protocol", p, "--x", "5", "--i", "2"] for p in _protocols(3)]
    + [["schmidt", "--protocol", p, "--i", "2"] for p in _protocols(3)]
    + [["certify", "--protocol", p, "--party", party]
       for p in _protocols(2) for party in "AB"]
    + [["fuzz", "--seed", "7", "--trials", "50"]]
)


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


def _assert_matches(got, want, path: str) -> None:
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert got == want or abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CELLS, ids=" ".join)
def test_report_matches_golden(argv, golden):
    _assert_matches(_run(argv), golden[" ".join(argv)], " ".join(argv))


@pytest.mark.parametrize("argv", [c for c in CELLS if c[0] == "certify"],
                         ids=" ".join)
def test_certify_builds_no_density_operator(argv, golden, monkeypatch):
    """`certify` compares marginals of pure runs: with the density-operator
    reference disabled everywhere in the package, its reports are unchanged."""

    def disabled(*args, **kwargs):
        raise AssertionError("certify ran the density-operator reference")

    for name in ("apply_channel", "pure_density"):
        original = getattr(states, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("qpirlab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, disabled)
    _assert_matches(_run(argv), golden[" ".join(argv)], " ".join(argv))


def test_golden_file_covers_exactly_the_grid(golden):
    assert list(golden) == [" ".join(argv) for argv in CELLS]


def _merged(new, old):
    """`new`, keeping each part of `old` that `_assert_matches` accepts
    for it: dicts with the same keys and lists of the same length merge
    entry by entry, and any other value is kept only when it matches."""
    if type(new) is type(old) is dict and list(new) == list(old):
        return {key: _merged(new[key], old[key]) for key in new}
    if type(new) is type(old) is list and len(new) == len(old):
        return [_merged(g, w) for g, w in zip(new, old)]
    try:
        _assert_matches(new, old, "")
    except AssertionError:
        return new
    return old


def test_regeneration_keeps_only_what_still_matches():
    old = {"exit": 0, "report": {"a": 0.1, "b": [1.0, 2.0], "c": {"x": 1}}}
    new = {"exit": 0, "report": {"a": 0.1 + 1e-13, "b": [1.0, 2.0 + 1e-11],
                                 "c": {"y": 1}}}
    got = _merged(new, old)
    assert got["report"]["a"] == 0.1                 # within 1e-12: kept
    assert got["report"]["b"] == [1.0, 2.0 + 1e-11]  # moved beyond: rewritten
    assert got["report"]["c"] == {"y": 1}            # a changed key: rewritten


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    fresh = {" ".join(argv): _run(argv) for argv in CELLS}
    GOLDEN.write_text(json.dumps({cell: _merged(got, stored.get(cell))
                                  for cell, got in fresh.items()}, indent=1) + "\n")
