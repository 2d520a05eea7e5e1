"""The traced run's layer ledger.

Wrappers around each layer's public functions time every call as a
span and count work.  They are installed from the benchmark's own files
for one traced pass and removed again afterwards, so no code under
``src/`` changes.  The one-shot engine runs ``jobs=1`` in-process, so
calls nest on one thread and a stack is enough to derive self time: a
span's self time is its duration minus the durations of the spans it
directly encloses.

The ``explore`` generator is deliberately not wrapped: its time
interleaves with the checks its consumer runs between yields.  The
calls it makes -- prefix replay, the ample selector, the automaton
monitor -- are timed instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: attribute under which a wrapper keeps the function it wraps
ORIGINAL = "__perfbench_original__"

#: span name -> the functions timed under it, as (module, qualified name)
TIMED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.replay": (("repro.sim.scheduler", "replay_prefix"),
                   ("repro.sim.scheduler", "replay_with_postponed")),
    "sim.freeze": (("repro.core.computation", "ComputationBuilder.freeze"),),
    "por.ample": (("repro.engine.por", "AmpleSelector.ample"),),
    "dfa.advance": (("repro.core.automata", "AutomatonMonitor.advance"),),
    "dedupe.fingerprint": (("repro.engine.dedupe", "run_fingerprint"),),
    "projection": (("repro.verify.projection", "project"),),
    "legality": (("repro.core.legality", "check_legality"),),
    "compile.bind": (("repro.core.compile", "SpecPlan.bind"),),
    "slice.analyze": (("repro.core.slice", "SliceChecker.analyze"),),
    "checker": (("repro.core.checker", "check_computation"),),
    "checker.lattice": (("repro.core.checker", "LatticeChecker.holds"),),
    "consistency.search": (("repro.verify.consistency", "linearizable"),
                           ("repro.verify.consistency",
                            "sequentially_consistent")),
}

#: counter name -> the functions whose calls it counts (not timed)
COUNTED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "evalcore.builds": (("repro.core.evalcore", "event_index"),),
}


class Ledger:
    """Per-span call counts and self seconds, plus plain counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        #: spans of each name currently open (conditional counters)
        self.open: Counter = Counter()
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self.open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, enclosed = self._stack.pop()
        duration = self.clock() - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - enclosed
        if self._stack:
            self._stack[-1][2] += duration

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)


def _timed(ledger: Ledger, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ledger.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.exit()
    setattr(wrapper, ORIGINAL, fn)
    return wrapper


def _counted(ledger: Ledger, name: str, fn, only_under: str = ""):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not only_under or ledger.open[only_under]:
            ledger.counts[name] += 1
        return fn(*args, **kwargs)
    setattr(wrapper, ORIGINAL, fn)
    return wrapper


def _repro_modules() -> List[types.ModuleType]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def _subclasses(cls) -> List[type]:
    out: Dict[type, None] = {}
    for sub in cls.__subclasses__():
        out[sub] = None
        out.update(dict.fromkeys(_subclasses(sub)))
    return list(out)


class Installation:
    """The wrappers one traced pass installed, and how to remove them."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.replaced.append((owner, attr, original))

    def wrap_function(self, module: str, name: str, make) -> None:
        """Rebind every reference to ``module.name`` held by a loaded
        ``repro`` module -- ``from`` imports and aliases included."""
        original = getattr(importlib.import_module(module), name)
        wrapper = make(original)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, original, wrapper)

    def wrap_method(self, cls: type, name: str, make) -> None:
        original = vars(cls)[name]
        self._set(cls, name, original, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)

    def leftovers(self) -> List[str]:
        """Replaced attributes that no longer hold their original."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self.replaced
                if vars(owner).get(attr) is not original]


def stray_wrappers() -> List[str]:
    """Ledger wrappers still reachable from any ``repro`` module or
    class -- e.g. bound by a module first imported mid-trace."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            owners = [(f"{mod.__name__}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners += [(f"{mod.__name__}.{attr}.{a}", v)
                           for a, v in vars(value).items()]
            found += [where for where, v in owners
                      if isinstance(v, types.FunctionType)
                      and ORIGINAL in v.__dict__]
    return found


def install(ledger: Ledger) -> Installation:
    """Wrap every layer function; the caller must ``restore()``."""
    from repro.core.order import Relation
    from repro.sim.runtime import SimpleState

    inst = Installation()
    try:
        for table, make in ((TIMED, _timed), (COUNTED, _counted)):
            for name, targets in table.items():
                for module, qualname in targets:
                    owner, _, attr = qualname.rpartition(".")
                    wrap = functools.partial(make, ledger, name)
                    if owner:
                        cls = getattr(importlib.import_module(module), owner)
                        inst.wrap_method(cls, attr, wrap)
                    else:
                        inst.wrap_function(module, attr, wrap)
        # interpreter steps: every SimState implementation's own step
        for cls in _subclasses(SimpleState):
            if "step" in vars(cls):
                inst.wrap_method(cls, "step", functools.partial(
                    _counted, ledger, "sim.steps"))
        # the Relation.holds calls legality makes (not everyone's)
        inst.wrap_method(Relation, "holds", functools.partial(
            _counted, ledger, "legality.relation_holds",
            only_under="legality"))
    except BaseException:
        inst.restore()
        raise
    return inst
