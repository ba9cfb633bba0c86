"""Structure-of-arrays fast path: cold compile+simulate cost and scale sweep.

Two experiments, written to ``BENCH_scale.json``:

1. **Cold pipeline cost** at the PR-3 bench shape (the ``bench_engine.py``
   sweep: every (tree, inner-block, policy) candidate of one GE2BND
   problem, DAG compiled fresh per candidate), run two ways:

   * ``legacy-object-path`` — the pre-SoA pipeline, reconstructed
     faithfully: a recorder that eagerly builds one
     :class:`~repro.ir.program.Op` (with frozenset access sets) per kernel
     call, ``Program.from_ops`` (per-op dict-based dependency analysis,
     per-edge Python CSR build), and the object-path reference scheduler
     (:func:`repro.verify.reference.reference_schedule`: per-op pricing,
     per-op owner resolution, per-node Python rank recursion);
   * ``soa-fast-path`` — the structure-of-arrays pipeline: column
     recording of (kernel, params), one vectorized dependency analysis
     over the sorted tile-half accesses (CSRs and levels included), and
     the array-native replay kernel behind
     :class:`~repro.runtime.engine.SimulationEngine`.

   Acceptance bar: the SoA path is at least **3x** faster cold, with the
   list-policy makespans bitwise identical between the two paths.

2. **Scale sweep** at ``p = q >= 48`` (tens of thousands of ops per DAG —
   ~150k for the greedy tree at p=48): all trees x all policies through
   the shared program cache, a sweep the legacy object path cannot cover
   in smoke time (one legacy candidate is timed for the projection).

A full-schedule equivalence audit of the engine against the reference
scheduler (every field of the :class:`~repro.runtime.scheduler.Schedule`,
multi-node and alpha-beta included) runs first and is part of the
benchmark's exit status.

Scaled-down by default (CI smoke-runs it in this reduced mode, also
reachable as ``python benchmarks/bench_scale.py --reduced``); set
``REPRO_FULL_SCALE=1`` for the paper's problem sizes and a million-op
scale sweep (p = q = 96).  ``--reduced`` wins over the variable.  The
results go to ``--out PATH``, by default the repository root's
``BENCH_scale.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.algorithms.bidiag import bidiag_ge2bnd  # noqa: E402
from repro.algorithms.executor import KernelExecutor  # noqa: E402
from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import Program, compile_program, get_program  # noqa: E402
from repro.ir.program import Op  # noqa: E402
from repro.kernels.costs import KernelName, kernel_weight  # noqa: E402
from repro.runtime.engine import SimulationEngine  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.tiles.layout import ceil_div  # noqa: E402
from repro.trees import make_tree  # noqa: E402
from repro.verify.reference import reference_schedule  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_scale.json")

#: One miriel node; the candidate axes of the PR-3 bench_engine sweep.
TREES = ("flatts", "flattt", "greedy", "auto")
INNER_BLOCKS = (32, 40)
POLICIES = ("list", "critical-path", "locality", "random")
SCALE_POLICIES = ("list", "critical-path", "locality", "fifo")


class Sizes(NamedTuple):
    """The cold sweep's ``m = n`` and ``nb``, and the scale sweep's ``p = q``
    (a tile grid the legacy path cannot sweep in smoke time)."""

    m: int
    nb: int
    scale_p: int


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, and ``sizes`` resolved after it: the paper's under
    ``REPRO_FULL_SCALE=1``, the scaled-down ones under ``--reduced``."""
    parser = argparse.ArgumentParser(
        description="Cold compile+simulate cost and the p = q >= 48 scale sweep."
    )
    parser.add_argument(
        "--reduced", action="store_true", help="run at the scaled-down sizes"
    )
    parser.add_argument(
        "--out", default=ARTIFACT,
        help="where to write the results (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if full_scale() and not args.reduced:
        args.sizes = Sizes(m=20000, nb=160, scale_p=96)
    else:
        args.sizes = Sizes(m=1600, nb=100, scale_p=48)
    return args


# --------------------------------------------------------------------------- #
# The pre-SoA recorder, reconstructed faithfully as the baseline.
# --------------------------------------------------------------------------- #
def _upper(i, j):
    return ("U", i, j)


def _lower(i, j):
    return ("L", i, j)


def _whole(i, j):
    return (_upper(i, j), _lower(i, j))


class LegacyRecorder(KernelExecutor):
    """Eager object recorder: one ``Op`` with frozenset access sets per call.

    This is the recording strategy the repo used before the
    structure-of-arrays path (PR 3's ``ProgramRecorder``), kept here so the
    benchmark's baseline measures the real pre-SoA cost profile rather
    than a synthetic slowdown.
    """

    def __init__(self, p, q):
        self._p, self._q = p, q
        self.ops = []
        self.current_step = ""

    @property
    def p(self):
        return self._p

    @property
    def q(self):
        return self._q

    def _record(self, kernel, params, reads, writes, owner_tile):
        self.ops.append(
            Op(
                index=len(self.ops),
                kernel=kernel,
                params=params,
                reads=frozenset(reads),
                writes=frozenset(writes),
                weight=kernel_weight(kernel),
                owner_tile=owner_tile,
                step=self.current_step,
            )
        )

    def geqrt(self, i, k):
        self._record(KernelName.GEQRT, (i, k), (), _whole(i, k), (i, k))

    def unmqr(self, i, k, j):
        self._record(KernelName.UNMQR, (i, k, j), (_lower(i, k),), _whole(i, j), (i, j))

    def tsqrt(self, piv, i, k):
        self._record(
            KernelName.TSQRT, (piv, i, k), (), (_upper(piv, k),) + _whole(i, k), (i, k)
        )

    def tsmqr(self, piv, i, k, j):
        self._record(
            KernelName.TSMQR, (piv, i, k, j), _whole(i, k),
            _whole(piv, j) + _whole(i, j), (i, j),
        )

    def ttqrt(self, piv, i, k):
        self._record(
            KernelName.TTQRT, (piv, i, k), (), (_upper(piv, k), _upper(i, k)), (i, k)
        )

    def ttmqr(self, piv, i, k, j):
        self._record(
            KernelName.TTMQR, (piv, i, k, j), (_upper(i, k),),
            _whole(piv, j) + _whole(i, j), (i, j),
        )

    def gelqt(self, k, j):
        self._record(KernelName.GELQT, (k, j), (), _whole(k, j), (k, j))

    def unmlq(self, k, j, i):
        self._record(KernelName.UNMLQ, (k, j, i), (_upper(k, j),), _whole(i, j), (i, j))

    def tslqt(self, piv, j, k):
        self._record(
            KernelName.TSLQT, (piv, j, k), (), (_lower(k, piv),) + _whole(k, j), (k, j)
        )

    def tsmlq(self, piv, j, k, i):
        self._record(
            KernelName.TSMLQ, (piv, j, k, i), _whole(k, j),
            _whole(i, piv) + _whole(i, j), (i, j),
        )

    def ttlqt(self, piv, j, k):
        self._record(
            KernelName.TTLQT, (piv, j, k), (), (_lower(k, piv), _lower(k, j)), (k, j)
        )

    def ttmlq(self, piv, j, k, i):
        self._record(
            KernelName.TTMLQ, (piv, j, k, i), (_lower(k, j),),
            _whole(i, piv) + _whole(i, j), (i, j),
        )


def legacy_compile(p, q, tree):
    """The pre-SoA cold compile: eager ops + dict analyzer + Python CSR."""
    recorder = LegacyRecorder(p, q)
    bidiag_ge2bnd(recorder, tree, None)
    return Program.from_ops(recorder.ops)


# --------------------------------------------------------------------------- #
# Experiment 1: cold compile+simulate at the PR-3 bench shape
# --------------------------------------------------------------------------- #
def _candidates(size):
    p = q = ceil_div(size.m, size.nb)
    for tree_name in TREES:
        tree = make_tree(tree_name) if tree_name != "auto" else make_tree(
            "auto", n_cores=24
        )
        for ib in INNER_BLOCKS:
            machine = Machine(
                n_nodes=1, cores_per_node=24, tile_size=size.nb, inner_block=ib
            )
            for policy in POLICIES:
                yield tree_name, tree, p, q, machine, policy


def _cold_sweep(mode, size, repeats=2):
    """Compile fresh + simulate for every candidate; returns (s, makespans).

    The sweep runs ``repeats`` times and the *minimum* wall-clock is
    reported — the standard way to measure code cost under scheduler
    noise (every run does identical work; anything above the minimum is
    interference).
    """
    best = None
    for _ in range(repeats):
        makespans = []
        start = time.perf_counter()
        for _name, tree, p, q, machine, policy in _candidates(size):
            if mode == "legacy-object-path":
                program = legacy_compile(p, q, tree)
                schedule = reference_schedule(program, machine, policy=policy)
            else:  # soa-fast-path
                program = compile_program("bidiag", p, q, tree)
                schedule = SimulationEngine(machine, policy=policy).run(program)
            makespans.append(schedule.makespan)
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return best, makespans


# --------------------------------------------------------------------------- #
# Equivalence audit: engine == reference scheduler, every schedule field
# --------------------------------------------------------------------------- #
def _schedules_equal(a, b):
    return (
        a.makespan == b.makespan
        and a.start == b.start
        and a.finish == b.finish
        and a.node_of_task == b.node_of_task
        and a.core_of_task == b.core_of_task
        and a.messages == b.messages
        and a.comm_bytes == b.comm_bytes
        and a.comm_time_per_node == b.comm_time_per_node
        and a.messages_per_node == b.messages_per_node
        and a.busy_time_per_node == b.busy_time_per_node
    )


def equivalence_audit():
    """Bitwise schedule equality across policies, networks and node counts."""
    configs = [
        ("bidiag", 10, 8, make_tree("greedy"),
         Machine(n_nodes=1, cores_per_node=8, tile_size=160)),
        ("bidiag", 8, 8, make_tree("flattt"),
         Machine(n_nodes=4, cores_per_node=4, tile_size=100)),
        ("rbidiag", 12, 4, make_tree("greedy"),
         Machine(n_nodes=2, cores_per_node=4, tile_size=100)),
    ]
    checked = 0
    for alg, p, q, tree, machine in configs:
        program = get_program(alg, p, q, tree)
        for policy in ("list", "critical-path", "locality", "fifo", "weight",
                       "random"):
            for network in ("uniform", "alpha-beta"):
                fast = SimulationEngine(
                    machine, policy=policy, network=network
                ).run(program)
                legacy = reference_schedule(
                    program, machine, policy=policy, network=network
                )
                assert _schedules_equal(fast, legacy), (
                    f"engine/reference schedule mismatch: {alg} {p}x{q} "
                    f"policy={policy} network={network}"
                )
                checked += 1
    return checked


# --------------------------------------------------------------------------- #
# Experiment 2: the p = q >= 48 tree x policy scale sweep
# --------------------------------------------------------------------------- #
def scale_sweep(p):
    q = p
    machine = Machine(n_nodes=1, cores_per_node=24, tile_size=160)
    rows = []
    total_start = time.perf_counter()
    for tree_name in TREES:
        tree = make_tree(tree_name) if tree_name != "auto" else make_tree(
            "auto", n_cores=24
        )
        t0 = time.perf_counter()
        program = get_program("bidiag", p, q, tree)
        compile_seconds = time.perf_counter() - t0
        makespans = {}
        t0 = time.perf_counter()
        for policy in SCALE_POLICIES:
            schedule = SimulationEngine(machine, policy=policy).run(program)
            makespans[policy] = schedule.makespan
        replay_seconds = time.perf_counter() - t0
        rows.append(
            {
                "tree": tree_name,
                "n_ops": len(program),
                "n_edges": program.n_edges,
                "compile_s": compile_seconds,
                "replay_s_all_policies": replay_seconds,
                "best_policy": min(makespans, key=makespans.get),
                "best_makespan_s": min(makespans.values()),
            }
        )
    total = time.perf_counter() - total_start

    # One legacy candidate at this scale, to project what the full
    # tree x policy sweep would cost on the pre-SoA path.
    t0 = time.perf_counter()
    program = legacy_compile(p, q, make_tree("greedy"))
    reference_schedule(program, machine, policy="list")
    legacy_candidate = time.perf_counter() - t0
    return rows, total, legacy_candidate


def main(argv=None) -> int:
    args = parse_args(argv)
    size = args.sizes
    checked = equivalence_audit()
    print(f"equivalence audit: {checked} (config x policy x network) "
          "schedules bit-identical between the engine and the reference "
          "scheduler")

    n_candidates = sum(1 for _ in _candidates(size))
    rows = []
    results = {}
    for mode in ("legacy-object-path", "soa-fast-path"):
        seconds, makespans = _cold_sweep(mode, size)
        results[mode] = makespans
        rows.append(
            {
                "mode": mode,
                "seconds": seconds,
                "candidates": n_candidates,
                "ms_per_candidate": 1000.0 * seconds / n_candidates,
            }
        )

    title = (
        f"Cold compile+simulate, m=n={size.m}, nb={size.nb}, {n_candidates} candidates"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))

    # The list-policy candidates must agree bitwise across both paths.
    def list_policy_makespans(mode):
        return [
            makespan
            for makespan, candidate in zip(results[mode], _candidates(size))
            if candidate[-1] == "list"
        ]

    assert (
        list_policy_makespans("legacy-object-path")
        == list_policy_makespans("soa-fast-path")
    ), "SoA fast path changed list-policy makespans"

    speedup = rows[0]["seconds"] / rows[1]["seconds"]
    print(f"SoA cold compile+simulate speedup vs legacy object path: "
          f"{speedup:.2f}x")

    scale_rows, scale_total, legacy_candidate = scale_sweep(size.scale_p)
    n_scale = len(TREES) * len(SCALE_POLICIES)
    title = (
        f"Scale sweep, p=q={size.scale_p}, {len(TREES)} trees x "
        f"{len(SCALE_POLICIES)} policies"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(scale_rows))
    projected = legacy_candidate * n_scale
    print(f"fast sweep total           : {scale_total:.2f}s "
          f"({n_scale} candidates, cache-shared compiles)")
    print(f"legacy single candidate    : {legacy_candidate:.2f}s "
          f"(projected full sweep ~{projected:.0f}s)")

    trajectory = {
        "problem": {"m": size.m, "n": size.m, "nb": size.nb, "n_cores": 24},
        "sweep": {
            "trees": list(TREES),
            "inner_blocks": list(INNER_BLOCKS),
            "policies": list(POLICIES),
            "candidates": n_candidates,
        },
        "rows": rows,
        "speedup_soa_vs_legacy_cold": speedup,
        "equivalence_checked": checked,
        "scale_sweep": {
            "p": size.scale_p,
            "q": size.scale_p,
            "policies": list(SCALE_POLICIES),
            "rows": scale_rows,
            "total_seconds": scale_total,
            "legacy_candidate_seconds": legacy_candidate,
            "legacy_projected_sweep_seconds": projected,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {args.out}")

    # Acceptance bar: the SoA pipeline must beat the faithful pre-SoA
    # pipeline by at least 3x on the cold per-candidate sweep.  CI runs on
    # noisy shared runners and lowers the floor via the environment (the
    # equivalence audit above is the hard CI gate; the 3x claim is pinned
    # by the checked-in BENCH_scale.json measured on quiet hardware).
    floor = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "3.0"))
    assert speedup >= floor, (
        f"SoA fast path only {speedup:.2f}x faster than the legacy object "
        f"path (floor {floor}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
