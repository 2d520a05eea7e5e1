"""The benchmark's workloads: fixed lists of catalog cases.

A case key is the catalog name, with `` --mutant`` appended for the
negative control -- the same spelling as the ``repro verify`` command
line.  This module imports nothing from ``repro`` at import time, so the
fresh-interpreter set-up probe can time the import itself.

``BENCHMARK.json`` names the workloads the benchmark is judged on; the
others run the same way when named on the command line.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

MUTANT = " --mutant"

#: workload name -> (kind, case keys).  ``oneshot`` workloads call
#: ``verify_program`` in-process; ``serve`` drives a resident daemon.
WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "check-bound": ("oneshot", (
        "monitor-readers-writers",
        "monitor-bounded-buffer",
        "monitor-one-slot-buffer",
        "db_update",
        "objects-register",
        "objects-queue",
        "objects-lock",
        "objects-counter",
    )),
    "explore-bound": ("oneshot", (
        "ada-readers-writers",
        "ada-bounded-buffer",
        "ada-one-slot-buffer",
    )),
    "reject-mutants": ("oneshot", (
        "monitor-readers-writers --mutant",
        "monitor-bounded-buffer --mutant",
        "monitor-one-slot-buffer --mutant",
        "monitor-tally-mesa --mutant",
        "db_update --mutant",
        "objects-register --mutant",
        "objects-queue --mutant",
        "objects-lock --mutant",
    )),
    "serve-resubmit": ("serve", (
        "monitor-readers-writers",
        "ada-bounded-buffer",
        "objects-queue",
        "monitor-bounded-buffer --mutant",
        "db_update --mutant",
        "monitor-tally-mesa --mutant",
        "objects-lock --mutant",
    )),
}


def split_key(key: str) -> Tuple[str, bool]:
    """``"db_update --mutant"`` -> ``("db_update", True)``."""
    if key.endswith(MUTANT):
        return key[:-len(MUTANT)], True
    return key, False


def pass_orders(cases: Tuple[str, ...], seed: int) -> Iterator[List[str]]:
    """An endless stream of seeded permutations of ``cases``, one per
    pass: the same seed gives the same sequence of orders."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(list(cases), len(cases))


def build_objects(keys) -> Dict[str, Tuple]:
    """Build each case and prime its specification plans.

    Returns ``key -> (program, problem_spec, correspondence,
    program_spec)``.  Priming ``plan_for`` / ``automata_plan_for`` here
    is what a user's first verification would otherwise pay.
    """
    from repro.cli import case_catalog
    from repro.core.automata import automata_plan_for
    from repro.core.compile import plan_for

    catalog = case_catalog()
    objects = {}
    for key in keys:
        name, mutant = split_key(key)
        objs = catalog[name].factory(mutant)
        for spec in (objs[1], objs[3]):
            if spec is not None:
                plan_for(spec)
                automata_plan_for(spec)
        objects[key] = objs
    return objects
