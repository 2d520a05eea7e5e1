"""Distributed-object workloads: register, queue, lock, counter.

The ROADMAP's distributed-objects family, modelled the AMECOS way
(PAPERS.md, arXiv:2405.10057): a concurrent object is observed only
through its interface events.  The shared object is one GEM *element*
(``obj``) carrying two event classes --

* ``Inv(op, arg, by)`` -- process ``by`` invokes operation ``op``;
* ``Res(op, val, by)`` -- the object answers ``val`` to ``by``;

so the element order sequences every invocation and response (the
paper's Section 5 reading: element order for interface sequencing,
enable edges for genuine causality -- here each process's program
order, which also chains every ``Inv`` directly to its ``Res``).  An
operation takes two scheduler steps, invocation and response, so
operations of different processes genuinely overlap and each
interleaving is a distinct computation.

Consistency is then a *projection property* decided by
:mod:`repro.verify.consistency` over the matched call/response pairs:
linearizability (a legal sequential witness extending program order
and real time) and sequential consistency (program order only) ride
the standard pipeline as top-level restrictions, checked once per
distinct complete computation.

Three planted non-linearizable mutants, one per stateful object:

* ``stale-read`` (register) -- reads return the value *before* the
  most recent write, so a read that starts after a write completed
  still observes the old value;
* ``dropped-dequeue`` (queue) -- the first dequeue removes the head
  but answers ``empty``: the element vanishes;
* ``double-acquire`` (lock) -- acquisition ignores the holder, so two
  processes hold the mutex at once.

Each manifests in executions the explorer always visits, and each is
caught by the ``linearizable-*`` restriction (and, for the queue, by
sequential consistency too -- the register and lock mutants remain SC,
a textbook separation the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core import (
    And,
    ClassAnywhere,
    DataEq,
    ElementDecl,
    Enables,
    EventClass,
    Exists,
    ForAll,
    Henceforth,
    Implies,
    Occurred,
    Param,
    ParamSpec,
    PyPred,
    Restriction,
    Specification,
)
from ..sim.runtime import Action, Footprint, SimpleState
from ..verify.consistency import (
    EMPTY,
    OBJECT_TYPES,
    OK,
    ObjectHistory,
    history_of,
    linearizable,
    sequentially_consistent,
)

#: The shared object's element name (one object per workload).
OBJ = "obj"

#: Planted mutant per object type (counter has no negative control).
MUTANTS: Dict[str, str] = {
    "register": "stale-read",
    "queue": "dropped-dequeue",
    "lock": "double-acquire",
}

#: scripts: ((process, ((kind, arg), ...)), ...)
Script = Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]


def standard_scripts(object_type: str) -> Script:
    """The catalog workload: two processes, two operations each."""
    if object_type == "register":
        return (("p1", (("write", 1), ("write", 2))),
                ("p2", (("read", None), ("read", None))))
    if object_type == "queue":
        return (("p1", (("enq", 1), ("enq", 2))),
                ("p2", (("deq", None), ("deq", None))))
    if object_type == "lock":
        return (("p1", (("acq", None), ("rel", None))),
                ("p2", (("acq", None), ("rel", None))))
    if object_type == "counter":
        return (("p1", (("inc", None), ("inc", None))),
                ("p2", (("inc", None), ("get", None))))
    raise ValueError(f"unknown object type {object_type!r}; "
                     f"known: {OBJECT_TYPES}")


class ObjectWorkloadState(SimpleState):
    """One execution of fixed per-process scripts against the object.

    Each process alternates an invocation step (always enabled while
    script remains) and a response step (enabled when the object can
    answer -- always, except a correct lock's ``acq`` while held).
    Effects are applied at the response, so the correct object's
    response events are its linearization points.
    """

    def __init__(self, object_type: str, scripts: Script,
                 mutant: Optional[str] = None) -> None:
        super().__init__()
        if mutant is not None and MUTANTS.get(object_type) != mutant:
            raise ValueError(f"{object_type} has no mutant {mutant!r}")
        self.object_type = object_type
        self.scripts = dict((p, list(ops)) for p, ops in scripts)
        self.procs = [p for p, _ in scripts]
        self.mutant = mutant
        self.pc = {p: 0 for p in self.procs}
        self.pending: Dict[str, Tuple[str, Any]] = {}
        # object state
        self.value: Any = None
        self.shadow: Any = None  # value before the last write (stale-read)
        self.items: List[Any] = []
        self.dropped_once = False
        self.holders: set = set()
        self.count = 0

    # -- scheduler interface ------------------------------------------------

    def _can_respond(self, p: str) -> bool:
        kind, _arg = self.pending[p]
        if self.object_type == "lock" and kind == "acq":
            return self.mutant == "double-acquire" or not self.holders
        return True

    def enabled(self) -> List[Action]:
        actions: List[Action] = []
        for p in self.procs:
            if p in self.pending:
                if self._can_respond(p):
                    kind, _ = self.pending[p]
                    actions.append(Action(p, f"res {kind}", key=(p, "res")))
            elif self.pc[p] < len(self.scripts[p]):
                kind, arg = self.scripts[p][self.pc[p]]
                actions.append(Action(p, f"inv {kind}({arg!r})",
                                      key=(p, "inv")))
        return actions

    def is_final(self) -> bool:
        return not self.pending and all(
            self.pc[p] >= len(self.scripts[p]) for p in self.procs)

    def step(self, action: Action) -> None:
        p, phase = action.key
        if phase == "inv":
            kind, arg = self.scripts[p][self.pc[p]]
            self.pc[p] += 1
            self.pending[p] = (kind, arg)
            self.emit(p, OBJ, "Inv", {"op": kind, "arg": arg, "by": p})
        else:
            kind, arg = self.pending.pop(p)
            val = self._respond(p, kind, arg)
            self.emit(p, OBJ, "Res", {"op": kind, "val": val, "by": p})

    # -- object semantics (applied at the response) --------------------------

    def _respond(self, p: str, kind: str, arg: Any) -> Any:
        if kind == "write":
            self.shadow, self.value = self.value, arg
            return OK
        if kind == "read":
            return self.shadow if self.mutant == "stale-read" else self.value
        if kind == "enq":
            self.items.append(arg)
            return OK
        if kind == "deq":
            if not self.items:
                return EMPTY
            head = self.items.pop(0)
            if self.mutant == "dropped-dequeue" and not self.dropped_once:
                self.dropped_once = True
                return EMPTY  # the head is gone, the caller never sees it
            return head
        if kind == "acq":
            self.holders.add(p)
            return OK
        if kind == "rel":
            self.holders.discard(p)
            return OK
        if kind == "inc":
            self.count += 1
            return self.count
        if kind == "get":
            return self.count
        raise ValueError(f"unknown operation {kind!r}")

    # -- partial-order reduction hooks (repro.engine.por) --------------------
    #
    # Every step appends to the shared object's element order, and that
    # order *is* the observation the consistency restrictions judge, so
    # every action honestly writes the ``("obj",)`` token (plus its own
    # process token).  All actions therefore conflict and a sound
    # ample-set reduction prunes nothing here -- these workloads exist
    # to exercise verdicts over the full interleaving census, and the
    # POR differential suite checks exactly that the reduction leaves
    # it intact.

    def por_action_footprint(self, action: Action) -> Footprint:
        p, _phase = action.key
        return Footprint(writes=frozenset({("obj",), ("proc", p)}))

    def por_remaining_footprints(self) -> Dict[str, Footprint]:
        out: Dict[str, Footprint] = {}
        for p in self.procs:
            if p in self.pending or self.pc[p] < len(self.scripts[p]):
                out[p] = Footprint(
                    writes=frozenset({("obj",), ("proc", p)}))
        return out


@dataclass(frozen=True)
class ObjectProgram:
    """A :class:`~repro.sim.runtime.Program` over one shared object."""

    object_type: str
    scripts: Script
    mutant: Optional[str] = None

    def initial_state(self) -> ObjectWorkloadState:
        return ObjectWorkloadState(self.object_type, self.scripts,
                                   self.mutant)


def object_program(object_type: str, mutant: bool = False) -> ObjectProgram:
    """The catalog workload program (optionally its planted mutant)."""
    kind = None
    if mutant:
        if object_type not in MUTANTS:
            raise ValueError(f"no planted mutant for {object_type!r}; "
                             f"mutants exist for: {sorted(MUTANTS)}")
        kind = MUTANTS[object_type]
    return ObjectProgram(object_type, standard_scripts(object_type),
                         mutant=kind)


# -- the GEM specification ----------------------------------------------------


def response_matches_invocation_restriction() -> Restriction:
    """□ every occurred Res is directly enabled by a matching Inv.

    A first-order temporal restriction (no escape hatch), so the
    slicer and restriction automata both get a shape
    to chew on alongside the PyPred consistency verdicts.
    """
    body = ForAll("r", ClassAnywhere("Res"), Implies(
        Occurred("r"),
        Exists("i", ClassAnywhere("Inv"), And((
            Occurred("i"),
            Enables("i", "r"),
            DataEq(Param("i", "by"), Param("r", "by")),
            DataEq(Param("i", "op"), Param("r", "op")),
        )))))
    return Restriction(
        "response-matches-invocation", Henceforth(body),
        comment="every response answers exactly its process's invocation",
    )


def linearizable_restriction(object_type: str) -> Restriction:
    """The complete computation's object history is linearizable."""

    def check(history, env) -> bool:
        return linearizable(history_of(
            history.computation, object_type, OBJ,
            occurred=history.occurred))

    return Restriction(
        f"linearizable-{object_type}",
        PyPred(f"{object_type} history linearizable", check),
        comment="a legal witness extends program order and real time",
    )


def sequentially_consistent_restriction(object_type: str) -> Restriction:
    """The complete computation's object history is SC."""

    def check(history, env) -> bool:
        return sequentially_consistent(history_of(
            history.computation, object_type, OBJ,
            occurred=history.occurred))

    return Restriction(
        f"sequentially-consistent-{object_type}",
        PyPred(f"{object_type} history sequentially consistent", check),
        comment="a legal witness extends program order",
    )


def object_spec(object_type: str,
                require: str = "linearizable") -> Specification:
    """The object's problem specification.

    ``require`` selects the consistency bar: ``"linearizable"`` ships
    both the linearizability and the (weaker) sequential-consistency
    restriction; ``"sequential"`` ships only the latter.
    """
    if require not in ("linearizable", "sequential"):
        raise ValueError(f"unknown consistency bar {require!r}")
    restrictions = [response_matches_invocation_restriction()]
    if require == "linearizable":
        restrictions.append(linearizable_restriction(object_type))
    restrictions.append(sequentially_consistent_restriction(object_type))
    return Specification(
        f"objects-{object_type}",
        elements=[ElementDecl.make(OBJ, [
            EventClass("Inv", (ParamSpec("op"), ParamSpec("arg"),
                               ParamSpec("by"))),
            EventClass("Res", (ParamSpec("op"), ParamSpec("val"),
                               ParamSpec("by"))),
        ])],
        restrictions=restrictions,
    )


def object_correspondence() -> "Correspondence":
    """Identity projection: the program emits spec-level events."""
    from ..verify.correspondence import Correspondence, SignificantEvents

    def ident(ev):
        return dict(ev.param_dict())

    return Correspondence(rules=(
        SignificantEvents("id-obj-Inv", OBJ, "Inv", OBJ, "Inv",
                          params=ident),
        SignificantEvents("id-obj-Res", OBJ, "Res", OBJ, "Res",
                          params=ident),
    ))


def object_case(object_type: str, mutant: bool = False):
    """The catalog factory: (program, problem spec, correspondence, None)."""
    return (object_program(object_type, mutant=mutant),
            object_spec(object_type),
            object_correspondence(),
            None)


# -- planted mutant histories (oracle fodder) ---------------------------------


def _replay_by_process(program: ObjectProgram,
                       order: Tuple[str, ...]) -> ObjectHistory:
    """Run the program stepping the named process each turn."""
    state = program.initial_state()
    for p in order:
        actions = [a for a in state.enabled() if a.process == p]
        assert actions, f"process {p} has no enabled action"
        state.step(actions[0])
    assert state.is_final(), "planted replay did not finish the scripts"
    return history_of(state.computation(), program.object_type, OBJ)


def planted_mutant_history(kind: str) -> ObjectHistory:
    """A complete history of the planted mutant that any sound
    linearizability checker must reject.

    ``stale-read`` and ``dropped-dequeue`` manifest on the fully
    sequential schedule (p1's script, then p2's); ``double-acquire``
    needs the second acquisition granted while the first is held.
    These are real executions of the mutant programs, extracted through
    :func:`repro.verify.consistency.history_of` -- the fuzz oracle and
    the differential battery assert both deciders call them
    non-linearizable.
    """
    if kind == "stale-read":
        return _replay_by_process(object_program("register", mutant=True),
                                  ("p1",) * 4 + ("p2",) * 4)
    if kind == "dropped-dequeue":
        return _replay_by_process(object_program("queue", mutant=True),
                                  ("p1",) * 4 + ("p2",) * 4)
    if kind == "double-acquire":
        return _replay_by_process(
            object_program("lock", mutant=True),
            ("p1", "p1", "p2", "p2", "p1", "p1", "p2", "p2"))
    raise ValueError(f"unknown planted mutant {kind!r}; "
                     f"known: {sorted(MUTANTS.values())}")


__all__ = [
    "OBJ", "MUTANTS",
    "ObjectProgram", "ObjectWorkloadState",
    "standard_scripts", "object_program",
    "object_spec", "object_correspondence", "object_case",
    "response_matches_invocation_restriction",
    "linearizable_restriction", "sequentially_consistent_restriction",
    "planted_mutant_history",
]
