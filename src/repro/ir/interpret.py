"""Replay a compiled Program against any kernel executor.

``replay(program, executor)`` re-issues the program's op stream as calls
on a :class:`~repro.algorithms.executor.KernelExecutor`.  Replaying onto a
:class:`~repro.algorithms.executor.NumericExecutor` performs the real
factorization, one stacked kernel call per (DAG level, kernel) group of
:meth:`~repro.ir.program.Program.level_groups`; replaying onto a second
recorder re-issues the ops one by one in their original sequentially
consistent order, and so reproduces the program.  Both orders are
topological orders of the program's DAG, which carries every dependency
on tile halves, so they compute the same bits.
This is what makes the numeric runs, the DAG analyses and the runtime
simulation provably consume the same op stream: they all interpret the
same compiled :class:`~repro.ir.program.Program`.
"""

from __future__ import annotations

from repro.algorithms.executor import KernelExecutor
from repro.ir.program import Program
from repro.ir.recorder import METHOD_NAMES


def replay(program: Program, executor: KernelExecutor) -> None:
    """Dispatch every op of ``program`` to ``executor``.

    An executor with a ``run_group(code, params)`` method gets one call per
    (level, kernel) group of :meth:`Program.level_groups`, levels in
    ascending order; any other executor gets one method call per op, in
    stream order.  The executor must cover the program's tile shape:
    replaying a ``p x q`` program onto a smaller matrix would index out of
    range.
    """
    key = program.key
    if key is not None:
        _, p, q = key[0], key[1], key[2]
        if executor.p < p or executor.q < q:
            raise ValueError(
                f"program was compiled for {p}x{q} tiles but the executor "
                f"covers only {executor.p}x{executor.q}"
            )
    run_group = getattr(executor, "run_group", None)
    if run_group is not None:
        for code, params in program.level_groups():
            run_group(code, params)
        return
    # Dispatch straight off the kernel codes and params — no Op
    # materialization, one bound method per kernel resolved up front.
    methods = [getattr(executor, name) for name in METHOD_NAMES]
    for code, params in program.kernel_calls():
        methods[code](*params)
