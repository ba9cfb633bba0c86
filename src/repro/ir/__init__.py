"""Compiled op-stream Program IR.

The paper's whole pipeline — trace a tiled GE2BND/R-GE2BND algorithm into
a task DAG, schedule it, read off critical paths and makespans — used to be
rebuilt from scratch for every candidate a tuning sweep evaluated.  This
package separates *compilation* from *execution*, the way the superscalar
runtimes the paper targets (PaRSEC, StarPU) separate DAG construction from
scheduling:

* :class:`Program` — a compact, immutable op stream (kernel codes, int32
  params, a predecessor CSR, hop levels and successor tuples); compiled
  once per ``(algorithm, p, q, tree, n_cores, grid_rows)`` shape and
  replayed many times;
* :class:`DependencyAnalyzer` — the superscalar RAW/WAR inference over
  hand-made :class:`Op` records (:meth:`Program.from_ops`);
* :class:`ProgramRecorder` — the :class:`~repro.algorithms.executor.KernelExecutor`
  that captures a driver run into a :class:`Program`: it records each
  call's kernel code and params, then finds the dependencies in one
  vectorized pass over the finished stream;
* :func:`compile_program` / :func:`get_program` — the compiler front-end and
  the shared in-process :class:`ProgramCache`;
* :func:`replay` — interpret a :class:`Program` against any executor (the
  numeric executor, a second recorder, …), guaranteeing that numeric runs,
  critical-path analysis and runtime simulation all consume the same op
  stream.
"""

from repro.ir.program import DependencyAnalyzer, Op, Program
from repro.ir.recorder import ProgramRecorder
from repro.ir.compiler import (
    ALGORITHMS,
    ProgramCache,
    clear_program_cache,
    compile_program,
    get_program,
    program_cache_stats,
    program_key,
    tree_fingerprint,
)
from repro.ir.interpret import replay

__all__ = [
    "ALGORITHMS",
    "DependencyAnalyzer",
    "Op",
    "Program",
    "ProgramCache",
    "ProgramRecorder",
    "clear_program_cache",
    "compile_program",
    "get_program",
    "program_cache_stats",
    "program_key",
    "replay",
    "tree_fingerprint",
]
