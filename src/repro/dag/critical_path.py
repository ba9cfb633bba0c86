"""Which ops lie on the critical path of a compiled program.

The critical path of a program is the heaviest chain of dependent ops,
using the Table-I kernel weights (units of ``nb^3 / 3`` flops).  It models
the execution time with unbounded resources and no communication — exactly
the quantity analysed in Section IV of the paper.  Its *length* is
:meth:`repro.ir.program.Program.critical_path`; this module recovers the
chain itself.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.ir.program import Op, Program


def critical_path_tasks(
    program: Program,
    weight_fn: Optional[Callable[[Op], float]] = None,
) -> List[int]:
    """The op ids on (one of) the critical path(s), in execution order.

    Useful for understanding *where* the time goes: e.g. for BIDIAG with a
    FLATTS tree the path is dominated by TSMQR chains, while with GREEDY it
    alternates short TTMQR chains of logarithmic depth.  ``weight_fn``
    maps an :class:`~repro.ir.program.Op` to its duration (default: the
    Table-I weight column).  Ties go to the lowest op id.
    """
    if len(program) == 0:
        return []
    if weight_fn is None:
        durations = program.weights_np.astype(np.float64)
    else:
        durations = np.array([weight_fn(op) for op in program.ops], dtype=np.float64)
    finish = program.finish_times_np(durations).tolist()
    cursor = int(np.argmax(finish))
    path = [cursor]
    while True:
        best, choice = 0.0, -1
        for pred in program.predecessors(cursor):
            if finish[pred] > best:
                best, choice = finish[pred], pred
        if choice < 0:
            break
        cursor = choice
        path.append(cursor)
    path.reverse()
    return path
