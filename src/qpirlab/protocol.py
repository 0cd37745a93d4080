"""Two-party protocol engine.

A protocol alternates party-A and party-B operations for `s` rounds; A sends
the first and last messages, and the last round is only partial (B consumes
the final message without replying).  Its round structure is one table of
2s `Step`s, A1, B1, A2, ..., Bs: which memory and message each op reads and
writes, and which registers are alive after it.  Validation, execution,
purification, the rank audit, random protocols and the adversary's recovery
shapes all read that table.

Execution is pure.  `execute` and `execute_pure_batch` run state vectors
through isometries only; a protocol with channel ops runs after
`purify_party`/`purify_both` has replaced each channel by its Stinespring
dilation, and tracing the purifier out of any step reproduces the channel
run.  Communication is counted in qubits (log2 of communication-space
dimensions, fractional dims allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import LayoutError, ShapeMismatch
from .linalg import DEFAULT_RANK_TOL, haar_unitary_matrix, schmidt_rank
from .registers import Register, RegisterLayout, concat, fresh_label
from .states import (
    Isometry,
    Operation,
    StateVector,
    apply_isometry,
    as_single_isometry,
    matricize,
    permute_registers,
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

    def all_unitary(self) -> bool:
        return all(as_single_isometry(op) is not None
                   for op in self.a_ops + self.b_ops)


def communication_complexity(spec: ProtocolSpec) -> float:
    """Total qubits exchanged: sum of log2 of all communication dimensions."""
    total = 0.0
    for lay in spec.x_comm + spec.y_comm:
        total += math.log2(lay.total_dim)
    return total


@dataclass(frozen=True)
class Transcript:
    """Pure input plus the global state after each of the 2s steps."""

    spec: ProtocolSpec
    psi_in: StateVector
    states: tuple[StateVector, ...]

    def state(self, i: int) -> StateVector:
        """State after step i (1-indexed, i in 1..2s)."""
        return self.states[i - 1]

    @property
    def final(self) -> StateVector:
        return self.states[-1]


def _spectator_layout(spec: ProtocolSpec, layout: RegisterLayout) -> RegisterLayout:
    """Validate an input layout and return its inert trailing registers.

    Inputs are A_0 ++ B_0 optionally followed by one reference register of
    dimension 1 or dim(A_0)*dim(B_0).  The reference register is never
    touched by any operation.
    """
    front = concat(spec.a_memory[0], spec.b_memory[0])
    regs = layout.registers
    nf = len(front)
    if regs[:nf] != front.registers:
        raise ShapeMismatch(
            f"input layout {regs} must start with A_0 ++ B_0 = {front.registers}"
        )
    rest = regs[nf:]
    if len(rest) > 1:
        raise ShapeMismatch(f"at most one reference register allowed, got {rest}")
    if rest:
        allowed = {1, front.total_dim}
        if rest[0].dim not in allowed:
            raise ShapeMismatch(
                f"reference register dim {rest[0].dim} not in {sorted(allowed)}"
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


def execute(spec: ProtocolSpec, psi_in: StateVector) -> Transcript:
    """Run the protocol on a pure input, returning every intermediate state.

    The state after each step is a vector over that step's `order` plus the
    input's spectator registers.  Raises LayoutError on an op that is not
    an isometry.
    """
    spectators = _spectator_layout(spec, psi_in.layout).labels()
    cur = psi_in
    states: list[StateVector] = []
    for step, iso in _isometries(spec):
        try:
            cur = apply_isometry(iso, cur)
        except LayoutError as exc:
            raise ShapeMismatch(f"op {step.name} failed to apply: {exc}") from exc
        cur = permute_registers(cur, step.order + spectators)
        states.append(cur)
    return Transcript(spec, psi_in, tuple(states))


def execute_pure_batch(spec: ProtocolSpec, input_layout: RegisterLayout,
                       columns: np.ndarray) -> tuple[RegisterLayout, np.ndarray]:
    """Run many pure inputs at once through an all-isometry protocol.

    `columns` holds one input amplitude vector per column.  Only the final
    states are returned, as columns over the canonical final layout
    (A_s registers, B_s registers, then any spectators).  This is the hot
    path behind correctness/privacy sweeps, where one big matmul per round
    beats thousands of small ones.
    """
    isos = _isometries(spec)
    spectators = _spectator_layout(spec, input_layout)

    nb = columns.shape[1]
    lay = input_layout
    cur = columns
    for _, iso in isos:
        labels = iso.input_layout.labels()
        t = matricize(cur, lay, labels)
        cur = (iso.matrix @ t.reshape(t.shape[0], -1)).reshape(-1, nb)
        lay = concat(iso.output_layout, lay.drop(labels))
    final_order = spec.steps[-1].order + spectators.labels()
    final_lay = lay.reordered(final_order)
    cur = matricize(cur, lay, final_order)
    return final_lay, cur.reshape(final_lay.total_dim, nb)


# ---------------------------------------------------------------------------
# purification (Stinespring dilation per round, purifier accumulated in one
# growing register inside the party's memory)
# ---------------------------------------------------------------------------

def _reindex(dims: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Index array g with x_new = x_old[g] when factors are reordered."""
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(order).reshape(-1)


def _dilate_op(op: Operation, step: Step, bar_prev: int,
               bar_label: str) -> tuple[Isometry, int]:
    dm, dc = step.memory_in.total_dim, step.message_in.total_dim
    dmo, dco = step.memory_out.total_dim, step.message_out.total_dim
    # V: flat output (mem_out, comm_out, env) <- flat input (mem_in, comm_in)
    v = stinespring(op)
    m = v.shape[0] // (dmo * dco)

    first_round = step.round == 1
    if first_round:
        full = v[_reindex((dmo, dco, m), (0, 2, 1)), :]  # out: (mem, env, comm)
        bar_new = m
    else:
        core = np.kron(v, np.eye(bar_prev))
        # input factors currently (mem, comm, bar) -> accept (mem, bar, comm)
        g_in = _reindex((dm, dc, bar_prev), (0, 2, 1))
        # output factors (mem, comm, env, bar) -> (mem, bar, env, comm)
        g_out = _reindex((dmo, dco, m, bar_prev), (0, 3, 2, 1))
        full = core[g_out, :][:, g_in]
        bar_new = bar_prev * m

    in_regs = step.memory_in.registers
    if not first_round:
        in_regs = in_regs + (Register(bar_label, bar_prev),)
    in_lay = RegisterLayout(in_regs + step.message_in.registers)
    out_lay = RegisterLayout(step.memory_out.registers
                             + (Register(bar_label, bar_new),)
                             + step.message_out.registers)
    return Isometry(in_lay, out_lay, full), bar_new


def purify_party(spec: ProtocolSpec, party: str) -> ProtocolSpec:
    """Replace one party's channels by Stinespring isometries.

    The purifying registers accumulate in a single register inside that
    party's memory; tracing it out of any intermediate state reproduces the
    original run's state.  Already-unitary rounds get a dimension-1
    purifier, so behavior is unchanged.
    """
    new_mems: list[RegisterLayout] = [spec.memory(party)[0]]
    taken = set()
    for lay in spec.a_memory + spec.b_memory + spec.x_comm + spec.y_comm:
        taken.update(lay.labels())
    bar_label = fresh_label(f"{party}bar", taken)

    new_ops: list[Operation] = []
    bar = 1
    for step, op in _schedule(spec):
        if step.party != party:
            continue
        dilated, bar = _dilate_op(op, step, bar, bar_label)
        new_ops.append(dilated)
        new_mems.append(RegisterLayout(
            step.memory_out.registers + (Register(bar_label, bar),)
        ))
    return spec.with_party(party, tuple(new_mems), tuple(new_ops))


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
    shift = max(0, -min(alpha))
    alpha = [a + shift for a in alpha]

    beta = [0] * (s + 1)
    for k in range(1, s + 1):
        beta[k] = beta[k - 1] + cx[k - 1] - (cy[k - 1] if k < s else 0)
    shift = max(0, -min(beta))
    beta = [b + shift for b in beta]

    a_mem = tuple(RegisterLayout((Register(f"A{k}", 2 ** alpha[k]),))
                  for k in range(s + 1))
    b_mem = tuple(RegisterLayout((Register(f"B{k}", 2 ** beta[k]),))
                  for k in range(s + 1))
    x_comm = tuple(RegisterLayout((Register(f"X{k + 1}", 2 ** cx[k]),))
                   for k in range(s))
    y_comm = tuple(RegisterLayout((Register(f"Y{k + 1}", 2 ** cy[k]),))
                   for k in range(s - 1))

    ops = {"A": [], "B": []}
    for step in _step_table(a_mem, b_mem, x_comm, y_comm):  # draws A1, B1, A2, ...
        lin = step.input_layout
        ops[step.party].append(Isometry(lin, step.output_layout,
                                        haar_unitary_matrix(lin.total_dim, rng)))
    return ProtocolSpec(s, a_mem, b_mem, x_comm, y_comm,
                        tuple(ops["A"]), tuple(ops["B"]))


def product_input(spec: ProtocolSpec, seed: int | None = None) -> StateVector:
    """Pure product input on A_0 (x) B_0 (|0...0> or Haar-random local states)."""
    lay = concat(spec.a_memory[0], spec.b_memory[0])
    if seed is None:
        amps = np.zeros(lay.total_dim, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(lay, amps)
    rng = np.random.default_rng(seed)
    parts = []
    for d in (spec.a_memory[0].total_dim, spec.b_memory[0].total_dim):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        parts.append(v / np.linalg.norm(v))
    return StateVector(lay, np.kron(parts[0], parts[1]))


# ---------------------------------------------------------------------------
# stepwise Schmidt-rank audit across the party cut
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankEvent:
    step: str          # "A3", "B1", "handover X2", ...
    cut: tuple[str, ...]
    rank: int
    bound: int         # allowed rank after this event
    ok: bool


def rank_trace(transcript: Transcript,
               rank_tol: float = DEFAULT_RANK_TOL) -> list[RankEvent]:
    """Audit how the Schmidt rank across the A/B cut grows step by step
    along a run of `execute`.

    Local operations must preserve the running rank; moving a communication
    register of dimension d across the cut may multiply it by at most d
    (one transmitted qubit at most doubles it).
    """
    spec, psi_in = transcript.spec, transcript.psi_in
    if len(psi_in.layout) != len(concat(spec.a_memory[0], spec.b_memory[0])):
        raise LayoutError("rank trace requires an input without reference registers")

    events: list[RankEvent] = []
    running = schmidt_rank(psi_in, spec.a_memory[0].labels(), rank_tol)
    for step, cur in zip(spec.steps, transcript.states):
        a_side = spec.a_memory[step.round].labels()
        message = step.message_out.labels()
        if step.party == "A":  # X_k leaves A's side at the handover
            sender_cut, receiver_cut, sent = a_side + message, a_side, "X"
        else:                  # Y_k joins A's side at the handover
            sender_cut, receiver_cut, sent = a_side, a_side + message, "Y"
        r = schmidt_rank(cur, sender_cut, rank_tol)
        events.append(RankEvent(step.name, sender_cut, r, running, r <= running))
        if step is not spec.steps[-1]:
            bound = running * step.message_out.total_dim
            r = schmidt_rank(cur, receiver_cut, rank_tol)
            events.append(RankEvent(f"handover {sent}{step.round}", receiver_cut,
                                    r, bound, r <= bound))
            running = r
    return events
