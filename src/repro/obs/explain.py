"""Failure explanations: *how* a restriction's failing verdict was reached.

:func:`repro.core.witness.descend` walks a failing formula once and
records the walk as a tree of :class:`ExplainStep` nodes -- which
quantifier binding was the falsifying one, which history prefix a □
first failed at, which maximal path never satisfied a ◇ body -- with
the :class:`~repro.core.witness.Witness` at its leaf.  This module
renders that result: :class:`ExplanationTrace` holds the tree and the
witness, and :meth:`ExplanationTrace.render_text` (indented, for
terminals), :meth:`ExplanationTrace.to_dot` (Graphviz, for posters and
bug reports) and :meth:`ExplanationTrace.to_record` (the JSONL
``{"type": "explanation"}`` record of :mod:`repro.obs.trace`) show it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.computation import Computation
from ..core.formula import Restriction
from ..core.witness import ExplainStep, Found, Witness, descend

#: Cap matching find_witness's default.
DEFAULT_EXPLAIN_CAP = 500_000


@dataclass
class ExplanationTrace:
    """The full explanation for one failed restriction."""

    restriction: str
    formula: str
    root: ExplainStep
    witness: Optional[Witness] = None

    @classmethod
    def of(cls, restriction: Restriction, found: Found) -> "ExplanationTrace":
        """The explanation of one failing descent of ``restriction``."""
        root, witness = found
        return cls(restriction.name, restriction.formula.describe(), root,
                   witness)

    def render_text(self) -> str:
        lines = [f"explanation for restriction {self.restriction!r}:"]

        def walk(step: ExplainStep, depth: int) -> None:
            pad = "  " * (depth + 1)
            lines.append(f"{pad}{step.note}")
            if step.binding is not None:
                lines.append(f"{pad}  with {step.binding}")
            if step.history is not None:
                lines.append(
                    f"{pad}  at history {{{', '.join(step.history)}}}")
            for child in step.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        if self.witness is not None:
            lines.append("  witness:")
            lines.extend("    " + ln
                         for ln in self.witness.describe().splitlines())
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering of the descent (one node per step)."""

        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph explanation {",
                 "  rankdir=TB;",
                 '  node [shape=box, fontname="monospace", fontsize=10];',
                 f'  label="{esc(self.restriction)}";']
        counter = [0]

        def walk(step: ExplainStep, parent: Optional[int]) -> None:
            nid = counter[0]
            counter[0] += 1
            label_parts = [step.note]
            if step.binding is not None:
                label_parts.append(step.binding)
            if step.history is not None:
                label_parts.append(
                    "history {" + ", ".join(step.history) + "}")
            label = esc("\n".join(label_parts)).replace("\n", "\\l") + "\\l"
            lines.append(f'  n{nid} [label="{label}"];')
            if parent is not None:
                lines.append(f"  n{parent} -> n{nid};")
            for child in step.children:
                walk(child, nid)

        walk(self.root, None)
        lines.append("}")
        return "\n".join(lines)

    def to_record(self) -> Dict[str, Any]:
        """The JSONL ``explanation`` record (schema of repro.obs.trace)."""
        return {"type": "explanation", "restriction": self.restriction,
                "formula": self.formula, "text": self.render_text(),
                "dot": self.to_dot(), "steps": self.root.to_dict()}


def explain_restriction(
    computation: Computation,
    restriction: Restriction,
    history_cap: int = DEFAULT_EXPLAIN_CAP,
) -> Optional[ExplanationTrace]:
    """Explain why ``restriction`` fails on ``computation``.

    Returns None when it actually holds (or the search cannot localise
    the failure under the cap) -- as :func:`find_witness` does.
    """
    found = descend(computation, restriction, history_cap)
    return None if found is None else ExplanationTrace.of(restriction, found)
