"""Two-party protocol engine.

A protocol alternates party-A and party-B operations for `s` rounds; A sends
the first and last messages, and the last round is only partial (B consumes
the final message without replying).  Its round structure is one table of
2s `Step`s, A1, B1, A2, ..., Bs: which memory and message each op reads and
writes, and which registers are alive after it.  Validation, execution,
purification, the rank audit, random protocols and the adversary's recovery
shapes all read that table.

Execution is pure and has one loop, `_steps`, which pushes a batch of
columns through the isometries, a matmul by a dense one and a scatter by a
basis map (`states.apply`); a reference register rides as a batch axis.
`execute` and `execute_pure_batch` read one runner, `_run`, which checks
the reference register, runs `_steps` and writes each state in its step's
`order`: `execute` runs one input and returns the tuple of states after
each step, `execute_pure_batch` many inputs and returns the last state.
`rank_trace` makes one `execute` of the protocol it audits and reads the
Schmidt rank across the A/B cut from each state.  A protocol with channel
ops runs after `purify_party`/`purify_both`: each party keeps its ops up
to its first channel, and from there on runs their Stinespring dilations,
which gather the environments in one purifier register; tracing it out of
any step reproduces the channel run.
`_purified_ops` yields a party's ops one at a time, so a run that stops
early dilates none of the ops it never reaches.
Communication is counted in qubits (log2 of communication-space dimensions,
fractional dims allowed).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import LayoutError, ShapeMismatch
from .linalg import (
    DEFAULT_RANK_TOL,
    haar_unitary_matrix,
    schmidt_coefficients,
    schmidt_rank,
)
from .registers import Register, RegisterLayout, concat, fresh_label
from .states import (
    Isometry,
    Operation,
    StateVector,
    apply,
    as_single_isometry,
    matricize,
    stinespring,
)


@dataclass(frozen=True)
class Step:
    """Step `number` (1..2s): op `round` of `party`.

    The op maps memory_in (x) message_in -> memory_out (x) message_out; a
    missing message is the empty layout.  `order` lists the labels alive
    after the step: A's memory, then B's, with the message in flight right
    after its sender's memory.
    """

    number: int
    party: str
    round: int
    memory_in: RegisterLayout
    message_in: RegisterLayout
    memory_out: RegisterLayout
    message_out: RegisterLayout
    order: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.party}{self.round}"

    @property
    def input_layout(self) -> RegisterLayout:
        return concat(self.memory_in, self.message_in)

    @property
    def output_layout(self) -> RegisterLayout:
        return concat(self.memory_out, self.message_out)


def _step_table(a_memory, b_memory, x_comm, y_comm) -> tuple[Step, ...]:
    """The steps A1, B1, ..., Bs of the protocol with these layouts."""
    none = RegisterLayout(())
    y = (none,) + tuple(y_comm) + (none,)  # y[k]: B's message in round k
    steps = []
    for k in range(1, len(x_comm) + 1):
        a, b, x = a_memory[k], b_memory[k], x_comm[k - 1]
        steps.append(Step(2 * k - 1, "A", k, a_memory[k - 1], y[k - 1], a, x,
                          a.labels() + x.labels() + b_memory[k - 1].labels()))
        steps.append(Step(2 * k, "B", k, b_memory[k - 1], x, b, y[k],
                          a.labels() + b.labels() + y[k].labels()))
    return tuple(steps)


def _side(party: str) -> str:
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return party.lower()


@dataclass(frozen=True)
class ProtocolSpec:
    """An s-round two-party protocol.

    Layout lists hold A_0..A_s, B_0..B_s, X_1..X_s, Y_1..Y_{s-1}; op `k` of
    party A maps A_{k-1} (x) Y_{k-1} -> A_k (x) X_k (round 1 has no incoming
    message), op `k` of party B maps B_{k-1} (x) X_k -> B_k (x) Y_k, and the
    final B op emits no message.  `steps` is that structure as a table of
    `Step`s, built once from the layouts; every op is checked against its
    step, and the registers alive after each step must have distinct labels.
    """

    rounds: int
    a_memory: tuple[RegisterLayout, ...]
    b_memory: tuple[RegisterLayout, ...]
    x_comm: tuple[RegisterLayout, ...]
    y_comm: tuple[RegisterLayout, ...]
    a_ops: tuple[Operation, ...]
    b_ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        s = self.rounds
        if s < 1:
            raise ShapeMismatch(f"need at least one round, got {s}")
        sizes = (len(self.a_memory), len(self.b_memory), len(self.x_comm),
                 len(self.y_comm), len(self.a_ops), len(self.b_ops))
        if sizes != (s + 1, s + 1, s, s - 1, s, s):
            raise ShapeMismatch(
                f"layout/op list lengths {sizes} inconsistent with s={s}"
            )
        for step, op in _schedule(self):
            for what, got, want in (("input", op.input_layout, step.input_layout),
                                    ("output", op.output_layout, step.output_layout)):
                if got != want:
                    raise ShapeMismatch(
                        f"op {step.name}: {what} layout {got.registers} "
                        f"!= expected {want.registers}"
                    )
            if len(set(step.order)) != len(step.order):
                raise ShapeMismatch(
                    f"registers alive after step {step.number} have clashing "
                    f"labels: {step.order}"
                )

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return _step_table(self.a_memory, self.b_memory, self.x_comm, self.y_comm)

    def memory(self, party: str) -> tuple[RegisterLayout, ...]:
        return getattr(self, f"{_side(party)}_memory")

    def ops(self, party: str) -> tuple[Operation, ...]:
        return getattr(self, f"{_side(party)}_ops")

    def with_party(self, party: str, memory: tuple[RegisterLayout, ...],
                   ops: tuple[Operation, ...]) -> ProtocolSpec:
        """This protocol with one party's memories and ops replaced, re-validated."""
        side = _side(party)
        return replace(self, **{f"{side}_memory": memory, f"{side}_ops": ops})

    def labels(self) -> set[str]:
        """Every register label the protocol's layouts use."""
        layouts = self.a_memory + self.b_memory + self.x_comm + self.y_comm
        return {label for lay in layouts for label in lay.labels()}

    def all_unitary(self) -> bool:
        return all(as_single_isometry(op) is not None
                   for op in self.a_ops + self.b_ops)


def communication_complexity(spec: ProtocolSpec) -> float:
    """Total qubits exchanged: sum of log2 of all communication dimensions."""
    total = 0.0
    for lay in spec.x_comm + spec.y_comm:
        total += math.log2(lay.total_dim)
    return total


def _inputs(spec: ProtocolSpec) -> RegisterLayout:
    """A_0 (x) B_0, the layout every run starts from."""
    return concat(spec.a_memory[0], spec.b_memory[0])


def _spectator_layout(spec: ProtocolSpec, layout: RegisterLayout) -> RegisterLayout:
    """Validate an input layout and return its inert trailing registers.

    Inputs are A_0 ++ B_0 optionally followed by one reference register of
    dimension 1 or dim(A_0)*dim(B_0) whose label no protocol register uses.
    The reference register is never touched by any operation.
    """
    front = _inputs(spec)
    regs = layout.registers
    nf = len(front)
    if regs[:nf] != front.registers:
        raise ShapeMismatch(
            f"input layout {regs} must start with A_0 ++ B_0 = {front.registers}"
        )
    rest = regs[nf:]
    if len(rest) > 1:
        raise ShapeMismatch(f"at most one reference register allowed, got {rest}")
    for ref in rest:
        if ref.dim not in (1, front.total_dim):
            raise ShapeMismatch(
                f"reference register {ref.label!r} has dim {ref.dim}; it needs "
                f"dim 1 or {front.total_dim}"
            )
        if ref.label in spec.labels():
            raise ShapeMismatch(
                f"reference register {ref.label!r} takes the label of a "
                f"protocol register"
            )
    return RegisterLayout(tuple(rest))


def _schedule(spec: ProtocolSpec):
    """Yield (step, op) in execution order A1, B1, A2, B2, ..."""
    for step in spec.steps:
        yield step, spec.ops(step.party)[step.round - 1]


def _isometries(spec: ProtocolSpec) -> list[tuple[Step, Isometry]]:
    """(step, isometry) in execution order; every op must be an isometry."""
    isos = [(step, as_single_isometry(op)) for step, op in _schedule(spec)]
    for step, iso in isos:
        if iso is None:
            raise LayoutError(
                f"op {step.name} is not an isometry: pure execution needs the "
                f"protocol's channels dilated first (purify_both)"
            )
    return isos


def _steps(schedule, lay: RegisterLayout, columns: np.ndarray):
    """Yield (step, layout, columns) after each (step, isometry) of
    `schedule`, run on `columns`, one input over `lay` per column.  Each
    op's output registers land first in the layout, the rest keep their order.
    """
    nb = columns.shape[1]
    cur = columns
    for step, iso in schedule:
        labels = iso.input_layout.labels()
        t = matricize(cur, lay, labels)
        cur = apply(iso.matrix, t.reshape(t.shape[0], -1)).reshape(-1, nb)
        del t   # a paused run holds only the step's output
        lay = concat(iso.output_layout, lay.drop(labels))
        yield step, lay, cur


def _run(spec: ProtocolSpec, input_layout: RegisterLayout, columns: np.ndarray):
    """Yield (layout, columns) after each step, `columns` holding one input
    over `input_layout` per column: the runner of `execute` and
    `execute_pure_batch`.  It checks the reference register, which rides
    as a batch axis through `_steps`, and writes each state in its step's
    `order`, then the spectators."""
    spectators = _spectator_layout(spec, input_layout)
    nb = columns.shape[1]
    batch = columns.reshape(-1, spectators.total_dim * nb)  # reference -> batch
    for step, lay, cur in _steps(_isometries(spec), _inputs(spec), batch):
        out = concat(lay.reordered(step.order), spectators)
        yield out, matricize(cur, lay, step.order).reshape(out.total_dim, nb)


def execute(spec: ProtocolSpec, psi_in: StateVector) -> tuple[StateVector, ...]:
    """Run the protocol on a pure input: the global state after each of
    the 2s steps, in order.

    The state after a step is a vector over that step's `order` plus the
    input's spectator registers.  Raises LayoutError on an op that is not
    an isometry.
    """
    return tuple(StateVector(lay, cur[:, 0])
                 for lay, cur in _run(spec, psi_in.layout, psi_in.amplitudes[:, None]))


def execute_pure_batch(spec: ProtocolSpec, input_layout: RegisterLayout,
                       columns: np.ndarray) -> tuple[RegisterLayout, np.ndarray]:
    """Run many pure inputs at once through an all-isometry protocol.

    `columns` holds one input amplitude vector per column.  Only the final
    states are returned, as columns over the canonical final layout
    (A_s registers, B_s registers, then any spectators).  No audit calls
    it: they run their own batches through `_steps`, stopped before the
    client's last op.  It runs a whole protocol for the dense references
    those audits are tested against.
    """
    return deque(_run(spec, input_layout, columns), maxlen=1)[0]


# ---------------------------------------------------------------------------
# purification (a party's ops stand as they are up to its first channel; from
# there each op is dilated, its environment joining one growing purifier
# register that sits right after the party's memory)
# ---------------------------------------------------------------------------

def _dilate_op(op: Operation, step: Step, bar: RegisterLayout,
               bar_label: str) -> tuple[Isometry, RegisterLayout]:
    """`op`'s Stinespring isometry crossed with the identity on the purifier
    `bar` (empty before the party's first channel), and the purifier after
    it, which holds `bar` and then `op`'s environment."""
    d_bar = bar.total_dim
    v = stinespring(op).reshape(step.memory_out.total_dim, step.message_out.total_dim,
                                -1, step.memory_in.total_dim, step.message_in.total_dim)
    # (memory, purifier, environment, message) <- (memory, purifier, message)
    full = np.einsum("acemn,bp->abecmpn", v, np.eye(d_bar))
    bar_out = RegisterLayout((Register(bar_label, d_bar * v.shape[2]),))
    lay_in = concat(step.memory_in, bar, step.message_in)
    lay_out = concat(step.memory_out, bar_out, step.message_out)
    return Isometry(lay_in, lay_out, full.reshape(-1, lay_in.total_dim)), bar_out


def _purified_ops(spec: ProtocolSpec, party: str):
    """Yield (isometry, memory after it) for each of one party's ops in
    turn, dilating an op only when it is asked for.

    The party's ops up to its first channel (an op with two or more Kraus
    operators) are kept as the isometries they are, over the honest
    memories.  From that channel on, each op is dilated and its environment
    joins one purifier register inside the party's memory.
    """
    bar_label = fresh_label(f"{party}bar", spec.labels())
    bar = RegisterLayout(())
    for step, op in _schedule(spec):
        if step.party != party:
            continue
        iso = None if bar else as_single_isometry(op)
        if iso is None:
            iso, bar = _dilate_op(op, step, bar, bar_label)
        yield iso, concat(step.memory_out, bar)


def purify_party(spec: ProtocolSpec, party: str) -> ProtocolSpec:
    """Replace one party's channels by Stinespring isometries
    (`_purified_ops`, every op).

    Tracing the purifier out of any intermediate state reproduces the
    original run's state.  A party with no channel is its own
    purification, so purifying twice changes nothing.
    """
    ops, memories = zip(*_purified_ops(spec, party))
    return spec.with_party(party, spec.memory(party)[:1] + memories, ops)


def purify_both(spec: ProtocolSpec) -> ProtocolSpec:
    return purify_party(purify_party(spec, "A"), "B")


# ---------------------------------------------------------------------------
# seeded random protocols (fully unitary, power-of-two dimensions)
# ---------------------------------------------------------------------------

def random_protocol(seed: int, rounds: int, qubit_budget: int) -> ProtocolSpec:
    """Haar-random fully-unitary protocol with the given total communication.

    The budget (in qubits) is split at random over the 2s-1 communication
    registers; memory dimensions are chosen so every round is square.
    """
    if rounds < 1:
        raise ShapeMismatch(f"need at least one round, got {rounds}")
    if qubit_budget < 0:
        raise LayoutError(f"infeasible budget split: budget {qubit_budget} < 0")
    rng = np.random.default_rng(seed)
    s = rounds
    slots = 2 * s - 1
    cx = [0] * s
    cy = [0] * (s - 1)
    for _ in range(qubit_budget):
        j = int(rng.integers(0, slots))
        if j < s:
            cx[j] += 1
        else:
            cy[j - s] += 1

    alpha = [0] * (s + 1)
    for k in range(s, 0, -1):
        alpha[k - 1] = alpha[k] + cx[k - 1] - (cy[k - 2] if k >= 2 else 0)
    beta = [0] * (s + 1)
    for k in range(1, s + 1):
        beta[k] = beta[k - 1] + cx[k - 1] - (cy[k - 1] if k < s else 0)

    def layouts(prefix: str, walk: list[int], first: int = 0) -> tuple:
        """One 2^w-dimensional register per qubit count w of `walk`,
        shifted so that the smallest count is 0 (a communication walk
        never goes below 0, so it is not shifted)."""
        low = min(walk + [0])
        return tuple(RegisterLayout.of((f"{prefix}{k}", 2 ** (w - low)))
                     for k, w in enumerate(walk, start=first))

    a_mem, b_mem = layouts("A", alpha), layouts("B", beta)
    x_comm, y_comm = layouts("X", cx, 1), layouts("Y", cy, 1)

    ops = {"A": [], "B": []}
    for step in _step_table(a_mem, b_mem, x_comm, y_comm):  # draws A1, B1, A2, ...
        lin = step.input_layout
        ops[step.party].append(Isometry(lin, step.output_layout,
                                        haar_unitary_matrix(lin.total_dim, rng)))
    return ProtocolSpec(s, a_mem, b_mem, x_comm, y_comm,
                        tuple(ops["A"]), tuple(ops["B"]))


def product_input(spec: ProtocolSpec, seed: int) -> StateVector:
    """Pure product input on A_0 (x) B_0: Haar-random local states."""
    rng = np.random.default_rng(seed)
    parts = []
    for d in (spec.a_memory[0].total_dim, spec.b_memory[0].total_dim):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        parts.append(v / np.linalg.norm(v))
    return StateVector(_inputs(spec), np.kron(parts[0], parts[1]))


# ---------------------------------------------------------------------------
# stepwise Schmidt-rank audit across the party cut
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankEvent:
    step: str          # "A3", "B1", "handover X2", ...
    coefficients: tuple[float, ...]  # the Schmidt coefficients above rank_tol
    bound: int         # allowed rank after this event
    ok: bool

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def rank_trace(spec: ProtocolSpec, psi_in: StateVector,
               rank_tol: float = DEFAULT_RANK_TOL) -> list[RankEvent]:
    """Run the protocol on `psi_in` (one `execute`) and audit how the
    Schmidt rank across the A/B cut grows step by step.

    Local operations must preserve the running rank; moving a communication
    register of dimension d across the cut may multiply it by at most d
    (one transmitted qubit at most doubles it).  Each event keeps the
    coefficients it counted.  The input must hold A_0 ++ B_0 alone: a
    reference register would sit on neither side of the cut.
    """
    if len(psi_in.layout) != len(_inputs(spec)):
        raise LayoutError("rank trace requires an input without reference registers")

    def event(name: str, state: StateVector, cut: tuple[str, ...],
              bound: int) -> RankEvent:
        c = schmidt_coefficients(state, cut)
        kept = tuple(c[c > rank_tol].tolist())
        return RankEvent(name, kept, bound, len(kept) <= bound)

    events: list[RankEvent] = []
    running = schmidt_rank(psi_in, spec.a_memory[0].labels(), rank_tol)
    for step, cur in zip(spec.steps, execute(spec, psi_in)):
        a_side = spec.a_memory[step.round].labels()
        message = step.message_out.labels()
        if step.party == "A":  # X_k leaves A's side at the handover
            sender_cut, receiver_cut, sent = a_side + message, a_side, "X"
        else:                  # Y_k joins A's side at the handover
            sender_cut, receiver_cut, sent = a_side, a_side + message, "Y"
        events.append(event(step.name, cur, sender_cut, running))
        if step is not spec.steps[-1]:
            events.append(event(f"handover {sent}{step.round}", cur, receiver_cut,
                                running * step.message_out.total_dim))
            running = events[-1].rank
    return events
