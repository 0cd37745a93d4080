"""The rules every verdict rests on, each at its boundary, derived by hand.

`reduction` decides each rule once: the privacy premise epsilon <= 1/2,
the below-n rule comm < n, the vacuity rule g <= 1/2, and `reduce`'s exit
status (`BoundReport.verdict_failed`).  Each test moves one input across
its rule's slack and checks the verdict on both sides.

* trivial(2): comm = n = 2, every delta_i = 0 and epsilon = 0, so the
  guarantee is g = 1 and recovery is 1 (`test_audit`).  Forcing its
  epsilon to 1 and its comm to n or n - 1 moves only the below-n rule.
* bound at n = 4: delta = 1/2 and epsilon = 0 give g = 1/2 exactly,
  vacuous with bound 0; delta = 0.49 gives g = 0.51 and the bound
  (1 - H(0.51)) 4, which is 2 (0.01)^2 / ln 2 * 4 to within 1e-7.
* the rank cap: `schmidt` and `fuzz` hold the final Schmidt rank to the
  product of the message dimensions, 2^c as an integer.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from qpirlab import cli, reduction
from qpirlab.protocol import ProtocolSpec, RankEvent
from qpirlab.qpir import QpirProtocol, builtin
from qpirlab.reduction import (
    CONSISTENT_BECAUSE_NON_PRIVATE,
    GUARANTEE_SLACK,
    NON_PRIVATE,
    PREMISE_SLACK,
    below_n,
    bound_report,
    guarantee_vacuous,
    lower_bound,
    privacy_premise_holds,
    superposition_attack,
)
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import BasisMap, Isometry

TRIVIAL = "builtin:trivial?n=2"


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- premise -----------------------------------------------------------------

def test_premise_holds_at_one_half_and_fails_past_its_slack():
    assert privacy_premise_holds(0.5)
    assert privacy_premise_holds(0.5 + PREMISE_SLACK / 2)
    assert not privacy_premise_holds(0.5 + 2 * PREMISE_SLACK)


# -- below n -----------------------------------------------------------------

def test_below_n_rule():
    assert not below_n(4.0, 4)
    assert below_n(3.0, 4)
    assert below_n(math.log2(2 ** 30 - 1), 30)   # the closest comm below n <= 30


@pytest.fixture
def non_private_trivial(monkeypatch):
    """trivial(2) with every replay epsilon read as 1, and its comm set by
    the returned function."""
    real = reduction.privacy_epsilon_purified

    def leaky(run):
        rep = real(run)
        return dataclasses.replace(rep, epsilon_by_reference=(1.0,) * rep.n,
                                   epsilon_hat=1.0)

    monkeypatch.setattr(reduction, "privacy_epsilon_purified", leaky)

    def with_comm(comm: float) -> QpirProtocol:
        monkeypatch.setattr(QpirProtocol, "communication", property(lambda self: comm))
        return builtin("trivial", 2)

    return with_comm


@pytest.mark.parametrize("comm, sublinear", [(2.0, False), (1.0, True)])
def test_below_n_decides_both_verbs(non_private_trivial, comm, sublinear):
    """Without the premise, `reduce` reads consistent-because-non-private
    below n qubits and non-private at n; `attack` reads sublinear below n
    only."""
    qpir = non_private_trivial(comm)
    rep = bound_report(qpir)
    assert not rep.privacy_premise_ok and rep.communication == comm
    assert rep.consistency == (CONSISTENT_BECAUSE_NON_PRIVATE if sublinear
                               else NON_PRIVATE)
    attack = superposition_attack(qpir)
    assert not attack.privacy_premise_holds and attack.communication == comm
    assert attack.sublinear is sublinear
    assert attack.consistency == (CONSISTENT_BECAUSE_NON_PRIVATE if sublinear
                                  else "bound-respected")


# -- vacuity -----------------------------------------------------------------

def test_vacuous_at_one_half_with_bound_zero():
    assert guarantee_vacuous(0.5)
    assert lower_bound(4, 0.5, 0.0) == 0.0
    code, out = _cli(["bound", "--n", "4", "--delta", "0.5"])
    report = json.loads(out)
    assert code == 0
    assert (report["guarantee"], report["bound"], report["vacuous"]) == (0.5, 0.0, True)


def test_not_vacuous_just_above_one_half():
    assert not guarantee_vacuous(0.5 + 1e-9)
    assert not guarantee_vacuous(math.nextafter(0.5, 1.0))
    code, out = _cli(["bound", "--n", "4", "--delta", "0.49"])
    report = json.loads(out)
    assert code == 0 and report["vacuous"] is False
    assert report["guarantee"] == pytest.approx(0.51, abs=1e-12)
    assert report["bound"] == pytest.approx(4 * 2 * 0.01 ** 2 / math.log(2), abs=1e-7)


# -- guarantee met -----------------------------------------------------------

@pytest.mark.parametrize("short, met", [(GUARANTEE_SLACK / 2, True),
                                        (2 * GUARANTEE_SLACK, False)])
def test_guarantee_met_within_its_slack(monkeypatch, short, met):
    """trivial(2)'s guarantee is g = 1; a recovery rate `short` below it
    meets g only within the slack, and reduce exits 2 when it does not."""
    p = 1.0 - short
    monkeypatch.setattr(reduction, "recovery_rates", lambda rae: ((p, p), p))
    rep = bound_report(builtin("trivial", 2))
    assert rep.guarantee == 1.0 and rep.recovery_avg == p
    assert rep.nayak.holds and rep.bound_consistent
    assert rep.guarantee_met is met
    assert rep.verdict_failed is not met
    monkeypatch.setattr(cli, "bound_report", lambda qpir, rank_tol: rep)
    assert _cli(["reduce", "--protocol", TRIVIAL])[0] == (0 if met else 2)


# -- reduce's exit status ----------------------------------------------------

#: (nayak holds, privacy premise, guarantee met, bound consistent, exit).
#: Nayak's check binds always; the other two only under the premise, and a
#: report without the premise carries None for both.
EXIT_TABLE = [
    (True, True, True, True, 0),
    (True, True, True, False, 2),
    (True, True, False, True, 2),
    (True, True, False, False, 2),
    (True, False, None, None, 0),
    (True, False, True, True, 0),
    (True, False, True, False, 0),
    (True, False, False, True, 0),
    (True, False, False, False, 0),
    (False, True, True, True, 2),
    (False, True, True, False, 2),
    (False, True, False, True, 2),
    (False, True, False, False, 2),
    (False, False, None, None, 2),
    (False, False, True, True, 2),
    (False, False, True, False, 2),
    (False, False, False, True, 2),
    (False, False, False, False, 2),
]


def test_exit_table_covers_every_combination():
    booleans = {row[:4] for row in EXIT_TABLE if None not in row[:4]}
    assert booleans == set(itertools.product((True, False), repeat=4))


@pytest.fixture(scope="module")
def trivial_report():
    return bound_report(builtin("trivial", 2))


@pytest.mark.parametrize("holds, premise, met, consistent, code", EXIT_TABLE)
def test_reduce_exit_code(monkeypatch, trivial_report, holds, premise, met,
                          consistent, code):
    rep = dataclasses.replace(
        trivial_report, nayak=dataclasses.replace(trivial_report.nayak, holds=holds),
        privacy_premise_ok=premise, guarantee_met=met, bound_consistent=consistent)
    monkeypatch.setattr(cli, "bound_report", lambda qpir, rank_tol: rep)
    got, out = _cli(["reduce", "--protocol", TRIVIAL])
    assert got == code
    assert json.loads(out) == json.loads(json.dumps(rep.to_dict()))
    assert "verdict_failed" not in json.loads(out)


# -- the rank cap ------------------------------------------------------------

def test_the_rank_cap_is_the_product_of_the_message_dimensions():
    """One message of dimension P = 899,876, the smallest P for which
    2 ** log2(P), 899,875.9999999988, is more than 1e-9 below P: a final
    rank of P is within the cap, read as the integer P, and P + 1 is not."""
    p = 899_876
    assert 2 ** math.log2(p) < p - 1e-9
    a0, a1, b0 = (RegisterLayout.of((label, 1)) for label in ("A0", "A1", "B0"))
    x1, b1 = RegisterLayout.of(("X1", p)), RegisterLayout.of(("B1", p))
    spec = ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (),
                        (Isometry(a0, concat(a1, x1), BasisMap((p, 1), [0], [1.0])),),
                        (Isometry(concat(b0, x1), b1, BasisMap.identity(p)),))
    for rank, verdict in ((p, (True, False)), (p + 1, (False, True))):
        events = [RankEvent("B1", (1.0,) * rank, rank, True)]
        assert cli._rank_verdict(events, spec) == verdict


# -- the parser, built once --------------------------------------------------

def test_parser_is_built_once_and_keeps_no_values():
    """A reused parser must not carry one call's flags into the next, nor
    be left broken by a refused argv."""
    assert cli._build_parser() is cli._build_parser()
    code, out = _cli(["certify", "--protocol", TRIVIAL, "--party", "B"])
    assert code == 0 and json.loads(out)["party"] == "B"
    code, out = _cli(["certify", "--protocol", TRIVIAL])
    assert code == 0 and json.loads(out)["party"] == "A"
    assert _cli(["certify", "--protocol", TRIVIAL, "--party", "C"]) == (1, "")
    assert _cli(["certify", "--protocol", TRIVIAL, "--bogus"]) == (1, "")
    code, out = _cli(["certify", "--protocol", TRIVIAL])
    assert code == 0 and json.loads(out)["party"] == "A"


def test_parser_is_not_built_at_import():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = ("import qpirlab.cli as cli; "
             "print(cli._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"
