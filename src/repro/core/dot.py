"""Graphviz DOT rendering of computations and history lattices.

Pure text generation -- no graphviz dependency; feed the output to
``dot -Tsvg`` or any renderer.  Two views:

* :func:`computation_to_dot` -- events as nodes, clustered by element,
  solid arrows for enable edges, dashed arrows for element-order
  *covers* (consecutive events at one element), so the picture shows
  exactly the two primitive relations whose closure is the temporal
  order;
* :func:`history_lattice_to_dot` -- the down-set lattice (Section 7),
  nodes labelled by their event sets, edges for single-event
  extensions.  Exponential; guarded by a cap.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .computation import Computation
from .errors import ComputationError
from .history import all_histories


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_id(eid) -> str:
    return _quote(str(eid))


def computation_to_dot(
    computation: Computation,
    title: str = "computation",
    show_params: bool = False,
    cluster_by_element: bool = True,
) -> str:
    """Render a computation as a DOT digraph."""
    lines: List[str] = [f"digraph {_quote(title)} {{"]
    lines.append('  rankdir="LR";')
    lines.append('  node [shape=box, fontsize=10];')

    def label(ev) -> str:
        if show_params:
            return ev.describe()
        return f"{ev.eid}:{ev.event_class}"

    if cluster_by_element:
        for i, element in enumerate(computation.elements()):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f"    label={_quote(element)};")
            lines.append('    style="rounded";')
            for ev in computation.events_at(element):
                lines.append(
                    f"    {_node_id(ev.eid)} [label={_quote(label(ev))}];")
            lines.append("  }")
    else:
        for ev in computation.events:
            lines.append(f"  {_node_id(ev.eid)} [label={_quote(label(ev))}];")

    for a, b in computation.enable_relation.pairs():
        lines.append(f"  {_node_id(a)} -> {_node_id(b)};")
    for element in computation.elements():
        seq = computation.events_at(element)
        for prev, nxt in zip(seq, seq[1:]):
            lines.append(
                f"  {_node_id(prev.eid)} -> {_node_id(nxt.eid)} "
                '[style=dashed, constraint=false];')
    lines.append("}")
    return "\n".join(lines)


def history_lattice_to_dot(
    computation: Computation,
    title: str = "histories",
    cap: int = 256,
) -> str:
    """Render the history lattice as a DOT digraph (capped)."""
    histories = all_histories(computation, cap=cap)
    index: Dict[int, int] = {h.mask: i for i, h in enumerate(histories)}
    position = computation.temporal_relation.index_table()
    lines: List[str] = [f"digraph {_quote(title)} {{"]
    lines.append('  rankdir="BT";')
    lines.append('  node [shape=ellipse, fontsize=9];')
    for i, h in enumerate(histories):
        label = "{" + ", ".join(sorted(str(e) for e in h.events)) + "}"
        if not h.mask:
            label = "∅"
        lines.append(f"  h{i} [label={_quote(label)}];")
    for i, h in enumerate(histories):
        for eid in h.addable():
            j = index.get(h.mask | 1 << position[eid])
            if j is not None:
                lines.append(f"  h{i} -> h{j} [label={_quote(str(eid))}];")
    lines.append("}")
    return "\n".join(lines)
