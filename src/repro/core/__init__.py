"""The GEM model core: events, elements, groups, computations,
histories, restrictions, threads, types, specifications, and the checker.

See DESIGN.md for the map from paper sections to modules.  The names
re-exported here are the library's primary public API::

    from repro.core import (
        ComputationBuilder, Specification, EventClass, ElementDecl, ...
    )
"""

from .abbreviations import (
    chain,
    fork,
    join,
    mutual_exclusion_of,
    nondet_prerequisite,
    prerequisite,
)
from .checker import (
    CheckResult,
    LatticeChecker,
    RestrictionOutcome,
    check_computation,
    check_restriction,
    check_safety_at_all_histories,
)
from .compile import CompiledRestriction, CompiledSpec
from .compose import parallel_compose, restrict_events, sequential_compose
from .computation import Computation, ComputationBuilder
from .evalcore import EventIndex, event_index, iter_bits
from .element import ElementDecl, EventClassRef
from .errors import (
    ComputationError,
    CycleError,
    GemError,
    LegalityViolation,
    RestrictionViolation,
    SpecificationError,
    VerificationError,
)
from .event import Event, EventClass, ParamSpec
from .formula import (
    AllEvents,
    And,
    AtControl,
    AtElement,
    AtMostOne,
    ClassAnywhere,
    ClassAt,
    Concurrent,
    Const,
    DataCmp,
    DataEq,
    DistinctThreads,
    Domain,
    ElementPrecedes,
    Enables,
    EventEq,
    Eventually,
    Exists,
    ExistsUnique,
    FalseF,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    New,
    Not,
    Occurred,
    Or,
    Param,
    Potential,
    PyPred,
    Restriction,
    SameThread,
    TemporallyPrecedes,
    TrueF,
    UnionDomain,
    domain,
    term,
)
from .gemtypes import ElementType, GroupInstance, GroupType
from .group import ROOT_GROUP, GroupDecl, GroupStructure
from .history import (
    History,
    HistorySequence,
    all_histories,
    count_maximal_history_sequences,
    empty_history,
    full_history,
    maximal_history_sequences,
)
from .ids import (
    ElementName,
    EventClassName,
    EventId,
    GroupName,
    ThreadId,
    indexed,
    qualified,
)
from .legality import check_legality
from .order import Relation
from .plan import SpecPlan, plan_for
from .dot import computation_to_dot, history_lattice_to_dot
from .dynamic_groups import (
    ADD_GROUP_MEMBER,
    CREATE_GROUP,
    DynamicGroupStructure,
    check_dynamic_scope,
    is_structure_event,
    structure_element_decl,
)
from .io import (
    computation_from_json,
    computation_from_json_str,
    computation_to_json,
    computation_to_json_str,
)
from .specification import Specification, from_group_instances
from .threads import ClassPattern, Path, ThreadType, label_all
from .witness import Witness, find_witness

__all__ = [
    # relations & computations
    "Relation", "Computation", "ComputationBuilder",
    "parallel_compose", "sequential_compose", "restrict_events",
    # structure
    "Event", "EventClass", "ParamSpec", "ElementDecl", "EventClassRef",
    "GroupDecl", "GroupStructure", "ROOT_GROUP",
    "ElementType", "GroupType", "GroupInstance",
    # identity
    "EventId", "ThreadId", "ElementName", "GroupName", "EventClassName",
    "qualified", "indexed",
    # histories
    "History", "HistorySequence", "empty_history", "full_history",
    "all_histories", "maximal_history_sequences",
    "count_maximal_history_sequences",
    # formulas
    "Formula", "Restriction", "TrueF", "FalseF", "Not", "And", "Or",
    "Implies", "Iff", "ForAll", "Exists", "ExistsUnique", "AtMostOne",
    "Occurred", "AtElement", "Enables", "ElementPrecedes",
    "TemporallyPrecedes", "Concurrent", "EventEq", "DataEq", "DataCmp",
    "New", "Potential", "AtControl", "SameThread", "DistinctThreads",
    "PyPred", "Henceforth", "Eventually",
    "Domain", "ClassAt", "ClassAnywhere", "UnionDomain", "AllEvents",
    "domain", "term", "Const", "Param",
    # abbreviations
    "prerequisite", "nondet_prerequisite", "fork", "join", "chain",
    "mutual_exclusion_of",
    # threads
    "ThreadType", "Path", "ClassPattern", "label_all",
    # specifications & checking
    "Specification", "from_group_instances", "check_legality",
    "check_computation", "check_restriction",
    "check_safety_at_all_histories", "CheckResult", "RestrictionOutcome",
    "LatticeChecker",
    # restriction plans and compiled checking
    "SpecPlan", "plan_for", "CompiledRestriction", "CompiledSpec",
    "EventIndex", "event_index", "iter_bits",
    # errors
    "GemError", "SpecificationError", "ComputationError", "CycleError",
    "LegalityViolation", "RestrictionViolation", "VerificationError",
    # witnesses, rendering, serialisation
    "Witness", "find_witness",
    "computation_to_dot", "history_lattice_to_dot",
    "computation_to_json", "computation_to_json_str",
    "computation_from_json", "computation_from_json_str",
    # dynamic groups (footnote 5)
    "DynamicGroupStructure", "check_dynamic_scope", "is_structure_event",
    "structure_element_decl", "CREATE_GROUP", "ADD_GROUP_MEMBER",
]
