"""``PROG sat R``: bounded exhaustive verification (Section 9, step 2).

"Prove that each restriction Rᵢ in P is satisfied by the corresponding
significant objects in PROG: (∀ Rᵢ ∈ P)[PROG sat Rᵢ]."

:func:`verify_program` mechanises this: explore the program's legal
computations (exhaustively up to bounds, or by seeded sampling), project
each onto the significant objects, and check every P-restriction on
every projection.  Optionally the *program* specification is checked on
the raw computations too -- catching instrumentation bugs where the
interpreter's output is not even a legal PROG computation.

Deadlock: runs where some process is blocked forever are counted and,
by default, fail verification ("lack of deadlock" is one of the
properties the paper proves of its applications).  Pass
``allow_deadlock=True`` when deadlock is the expected outcome being
demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.checker import CheckResult
from ..core.computation import Computation
from ..core.errors import VerificationError
from ..core.specification import Specification
from ..sim.runtime import Program, Run
from ..sim.scheduler import ExplorationResult
from .correspondence import Correspondence
from .projection import project


@dataclass
class RestrictionVerdict:
    """Aggregate verdict for one problem restriction across all runs."""

    name: str
    holds: bool = True
    failing_runs: List[int] = field(default_factory=list)

    def __str__(self) -> str:
        if self.holds:
            return f"[OK ] {self.name}"
        shown = ", ".join(map(str, self.failing_runs[:5]))
        more = "..." if len(self.failing_runs) > 5 else ""
        return f"[FAIL] {self.name} (runs {shown}{more})"


@dataclass
class VerificationReport:
    """Everything :func:`verify_program` learned.

    ``distinct_computations`` counts the partial orders actually
    checked; ``dedupe_ratio`` is runs per distinct computation.  A
    report saying "verified over all N executions (M distinct
    computations)" is honest about the quotient the engine exploited.
    ``engine_stats`` carries the :class:`repro.engine.EngineStats` of
    the run that produced this report (observability only: it does not
    participate in :meth:`signature` or :meth:`summary`).
    ``failing_run_choices`` maps a few failing run indices (the first
    per restriction / legality / program-spec verdict) to their
    scheduler choice sequences, so a witness can be replayed with
    ``replay_prefix(program, choices)`` instead of re-exploring every
    run; provenance only, also excluded from :meth:`signature`.
    """

    problem_name: str
    exhaustive: bool
    runs_checked: int = 0
    deadlocks: int = 0
    truncated: int = 0
    verdicts: Dict[str, RestrictionVerdict] = field(default_factory=dict)
    program_spec_failures: List[int] = field(default_factory=list)
    legality_failures: List[int] = field(default_factory=list)
    allow_deadlock: bool = False
    distinct_computations: int = 0
    dedupe_ratio: float = 1.0
    engine_stats: Optional[object] = field(default=None, compare=False)
    failing_run_choices: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return (
            all(v.holds for v in self.verdicts.values())
            and not self.program_spec_failures
            and not self.legality_failures
            and (self.allow_deadlock or self.deadlocks == 0)
        )

    def verdict(self, restriction_name: str) -> RestrictionVerdict:
        try:
            return self.verdicts[restriction_name]
        except KeyError:
            raise VerificationError(
                f"no verdict for restriction {restriction_name!r}"
            ) from None

    def failed_restrictions(self) -> List[str]:
        return [name for name, v in self.verdicts.items() if not v.holds]

    def signature(self) -> Tuple:
        """Canonical content tuple for determinism comparisons.

        Two reports with equal signatures agree on every verdict, every
        failing-run index, and every census number -- the engine's
        parallel-equals-serial guarantee is asserted over exactly this.
        """
        return (
            self.problem_name,
            self.exhaustive,
            self.runs_checked,
            self.deadlocks,
            self.truncated,
            self.distinct_computations,
            tuple(sorted(
                (name, v.holds, tuple(v.failing_runs))
                for name, v in self.verdicts.items()
            )),
            tuple(self.program_spec_failures),
            tuple(self.legality_failures),
        )

    def summary(self) -> str:
        mode = "all" if self.exhaustive else "sampled"
        lines = [
            f"verification against {self.problem_name!r}: "
            f"{'VERIFIED' if self.ok else 'FAILED'} "
            f"({mode} {self.runs_checked} runs, "
            f"{self.distinct_computations} distinct computations, "
            f"{self.deadlocks} deadlocks, "
            f"{self.truncated} truncated)"
        ]
        for v in self.verdicts.values():
            lines.append(f"  {v}")
        if self.program_spec_failures:
            lines.append(
                f"  program-spec failures in runs {self.program_spec_failures[:5]}"
            )
        if self.legality_failures:
            lines.append(
                f"  projection-legality failures in runs "
                f"{self.legality_failures[:5]}"
            )
        return "\n".join(lines)


def check_projection(
    computation: Computation,
    correspondence: Correspondence,
    problem_spec: Specification,
    **check_kwargs,
) -> CheckResult:
    """Project one computation and check it against the problem spec."""
    projected = project(computation, correspondence)
    return problem_spec.check(projected, **check_kwargs)


def verify_program(
    program: Program,
    problem_spec: Specification,
    correspondence: Correspondence,
    program_spec: Optional[Specification] = None,
    max_steps: int = 10_000,
    max_runs: int = 100_000,
    sample: int = 200,
    seed: int = 0,
    allow_deadlock: bool = False,
    exploration: Optional[ExplorationResult] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress=None,
    tracer=None,
    por: bool = True,
    dfa: bool = True,
) -> VerificationReport:
    """The paper's proof obligation, executed by :mod:`repro.engine`.

    ``jobs`` fans exploration-and-checking out across that many worker
    processes (frontier-sharded DFS; the report is identical to
    ``jobs=1`` by construction).  ``cache_dir`` enables the persistent
    result cache, making re-verification of an unchanged workload
    incremental.  ``progress`` installs an engine progress hook.
    ``tracer`` (a :class:`repro.obs.Tracer`) records the whole
    verification as a span tree -- the CLI's ``--trace FILE``.
    ``por`` (default on) enables ample-set partial-order reduction of
    the exploration (:mod:`repro.engine.por`): redundant interleavings
    are pruned at generation time, preserving the fingerprint set,
    every verdict and every witness; the CLI's ``--no-por`` turns it
    off (run indices and censuses then count all interleavings).
    ``dfa`` (default on) threads the restriction-automata monitor
    (:mod:`repro.core.automata`) through exploration, so doomed
    branches record their verdicts early and their checks skip the
    walk.  Fingerprint sets, verdicts and witnesses are byte-identical
    either way; the CLI's ``--no-dfa`` turns it off.

    Every distinct computation is checked through the checker's
    ``temporal_mode="auto"`` route chain (DFA leaf, slice,
    interpreter); which route decides is not part of the
    verdict, so there is no switch for it here.

    Pass ``exploration`` to reuse runs already gathered (e.g. when
    verifying one program against several problem variants).
    """
    # imported here, not at module level: the engine builds
    # VerificationReports, so it imports this module
    from ..engine import Engine, EngineConfig

    config = EngineConfig(
        jobs=jobs,
        cache_dir=cache_dir,
        max_steps=max_steps,
        max_runs=max_runs,
        sample=sample,
        seed=seed,
        allow_deadlock=allow_deadlock,
        progress=progress,
        tracer=tracer,
        por=por,
        dfa=dfa,
    )
    return Engine(config).verify(
        program, problem_spec, correspondence,
        program_spec=program_spec, exploration=exploration,
    )
