"""Generative differential testing for the GEM reproduction.

A standing adversary for the rest of the library: seeded random
computations, specifications, and programs (:mod:`.generators`,
:mod:`.programs`) are run against metamorphic and differential oracles
(:mod:`.oracles`) -- the strict-partial-order laws of ``⇒``, the
history-lattice laws of Section 7, fingerprint relabeling invariance,
composition/projection round-trips, the checker's route agreement
(the ``auto`` chain and the bare slice against the lattice interpreter,
and the interpreter against exact vhs enumeration), replay determinism,
and the engine's serial == parallel == cached contract.  Failures are
greedily shrunk and rendered as runnable pytest
snippets (:mod:`.shrink`); :mod:`.runner` drives the loop behind the
``repro fuzz`` CLI subcommand.

See docs/FUZZING.md for the oracle catalog and replay instructions.
"""

from .generators import (
    ComputationRecipe,
    GroupRecipe,
    random_choices,
    random_computation,
    random_formula,
)
from .oracles import (
    CheckerArtifact,
    ComposeArtifact,
    Oracle,
    ReplayArtifact,
    check_compose_laws,
    check_dfa_agrees,
    check_engine_agreement,
    check_fingerprint_laws,
    check_history_laws,
    check_order_laws,
    check_replay_determinism,
    check_routes_agree,
    identity_correspondence,
    make_oracles,
    oracle_names,
)
from .programs import (
    FORK_DROPS_ENABLES,
    FuzzProgram,
    FuzzProgramSpec,
    RecipeProgram,
    dfa_problem_spec,
    fuzz_correspondence,
    fuzz_problem_spec,
    random_program_spec,
)
from .runner import FuzzConfig, FuzzFailure, FuzzStats, run_fuzz, seed_token
from .shrink import repro_snippet, shrink_failure

__all__ = [
    "ComputationRecipe", "GroupRecipe", "random_computation",
    "random_formula", "random_choices",
    "Oracle", "make_oracles", "oracle_names",
    "CheckerArtifact", "ComposeArtifact", "ReplayArtifact",
    "check_order_laws", "check_history_laws", "check_fingerprint_laws",
    "check_compose_laws", "check_routes_agree",
    "check_replay_determinism",
    "check_dfa_agrees",
    "check_engine_agreement", "identity_correspondence",
    "FuzzProgram", "FuzzProgramSpec", "RecipeProgram",
    "FORK_DROPS_ENABLES", "fuzz_problem_spec", "fuzz_correspondence",
    "dfa_problem_spec",
    "random_program_spec",
    "FuzzConfig", "FuzzFailure", "FuzzStats", "run_fuzz", "seed_token",
    "shrink_failure", "repro_snippet",
]
