"""Replay a compiled Program against any kernel executor.

``replay(program, executor)`` re-issues the program's op stream, in
stream order, as one method call per op on a
:class:`~repro.algorithms.executor.KernelExecutor`.  Replaying onto a
:class:`~repro.algorithms.executor.NumericExecutor` performs the real
factorization, one LAPACK tile-kernel call per op; replaying onto a
second recorder reproduces the program.  Stream order is the
sequentially consistent order the drivers issued, and the program's DAG
carries every dependency on tile halves, so any of its topological
orders computes the same bits.
This is what makes the numeric runs, the DAG analyses and the runtime
simulation provably consume the same op stream: they all interpret the
same compiled :class:`~repro.ir.program.Program`.
"""

from __future__ import annotations

from repro.algorithms.executor import KernelExecutor
from repro.ir.program import Program
from repro.ir.recorder import METHOD_NAMES


def replay(program: Program, executor: KernelExecutor) -> None:
    """Dispatch every op of ``program`` to ``executor``, in stream order.

    The executor must cover the program's tile shape: replaying a
    ``p x q`` program onto a smaller matrix would index out of range.
    """
    key = program.key
    if key is not None:
        _, p, q = key[0], key[1], key[2]
        if executor.p < p or executor.q < q:
            raise ValueError(
                f"program was compiled for {p}x{q} tiles but the executor "
                f"covers only {executor.p}x{executor.q}"
            )
    # Dispatch straight off the kernel codes and params — no Op
    # materialization, one bound method per kernel resolved up front.
    methods = [getattr(executor, name) for name in METHOD_NAMES]
    for code, params in program.kernel_calls():
        methods[code](*params)
