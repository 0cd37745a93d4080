"""Every tolerance in `src/qpirlab` is a named constant.

A float literal with 0 < |v| < 1e-3 is a slack or a tolerance: it says how
much round-off a comparison forgives.  Each must be a module-level
`NAME = literal`, whose comment says what error it absorbs, so that one
verdict's slack is written once and can be read, not re-typed at each
comparison.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qpirlab"
SMALL = 1e-3


def unnamed_slacks(source: str) -> list[int]:
    """The line of each small float literal outside a module-level
    `NAME = literal` assignment."""
    tree = ast.parse(source)
    named = {id(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id.isupper()
             and isinstance(node.value, ast.Constant)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < SMALL and id(node) not in named]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_slack_is_named(path):
    assert unnamed_slacks(path.read_text()) == [], path.name


def test_the_check_finds_a_literal_slack():
    source = ('TOL = 1e-9\n'
              'HALF = 0.5\n'
              'def f(x, tol=1e-6):\n'
              '    LOCAL = 1e-8\n'
              '    return x <= 0.5 + 1e-9 or x < -2e-4 or x > TOL\n')
    assert unnamed_slacks(source) == [3, 4, 5, 5]
