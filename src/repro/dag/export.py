"""Export compiled programs to standard formats (DOT, JSON).

PaRSEC can dump the DAG it executes for inspection; these helpers provide
the same capability for compiled programs, so that small instances can
be rendered with Graphviz or post-processed by external tools.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.ir.program import Program

#: Graphviz fill colours per kernel family (panel kernels darker).
_KERNEL_COLORS: Dict[str, str] = {
    "GEQRT": "#1f78b4",
    "TSQRT": "#33a02c",
    "TTQRT": "#e31a1c",
    "UNMQR": "#a6cee3",
    "TSMQR": "#b2df8a",
    "TTMQR": "#fb9a99",
    "GELQT": "#6a3d9a",
    "TSLQT": "#ff7f00",
    "TTLQT": "#b15928",
    "UNMLQ": "#cab2d6",
    "TSMLQ": "#fdbf6f",
    "TTMLQ": "#ffff99",
}


def to_dot(
    program: Program,
    *,
    name: str = "taskgraph",
    max_tasks: Optional[int] = 2000,
    include_step: bool = True,
) -> str:
    """Render the program's DAG in Graphviz DOT format.

    Parameters
    ----------
    program:
        The compiled program.
    name:
        DOT graph name.
    max_tasks:
        Refuse to render graphs larger than this (DOT output becomes
        unusable); pass ``None`` to disable the check.
    include_step:
        Append the algorithm step (``QR(k)`` / ``LQ(k)``) to each label.
    """
    if max_tasks is not None and len(program) > max_tasks:
        raise ValueError(
            f"program has {len(program)} ops, above the max_tasks={max_tasks} limit; "
            "export a smaller instance or raise the limit explicitly"
        )
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [style=filled, shape=box];"]
    for op in program.ops:
        kernel = op.kernel.value
        color = _KERNEL_COLORS.get(kernel, "#cccccc")
        label = f"{kernel}{op.params}"
        if include_step and op.step:
            label += f"\\n{op.step}"
        lines.append(f'  t{op.index} [label="{label}", fillcolor="{color}"];')
    for src, dst in _edges_by_source(program):
        lines.append(f"  t{src} -> t{dst};")
    lines.append("}")
    return "\n".join(lines)


def _edges_by_source(program: Program) -> List[Tuple[int, int]]:
    """All ``(src, dst)`` edges, ascending by source then destination."""
    return [
        (src, dst) for src in range(len(program)) for dst in program.successors(src)
    ]


def to_json(program: Program, *, indent: Optional[int] = None) -> str:
    """Serialise the program's DAG as JSON (tasks + edges)."""
    payload = {
        "n_tasks": len(program),
        "n_edges": program.n_edges,
        "tasks": [
            {
                "id": op.index,
                "kernel": op.kernel.value,
                "params": list(op.params),
                "weight": op.weight,
                "owner_tile": list(op.owner_tile),
                "step": op.step,
                "reads": sorted([list(item) for item in op.reads]),
                "writes": sorted([list(item) for item in op.writes]),
            }
            for op in program.ops
        ],
        "edges": [list(edge) for edge in _edges_by_source(program)],
    }
    return json.dumps(payload, indent=indent)


def save_dot(program: Program, path: str, **kwargs) -> None:
    """Write the DOT rendering of ``program`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dot(program, **kwargs))


def save_json(program: Program, path: str, **kwargs) -> None:
    """Write the JSON serialisation of ``program`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(program, **kwargs))
