"""The five benchmark workloads.

A workload turns a seed into inputs and defines one *op*, the unit of work
the harness times in a closed loop with one client:

* ``setup()`` builds the inputs (the harness then runs one untimed
  warm-up op, which fills the program cache and the memo tables);
* ``prepare(i)`` does the untimed per-op preparation and returns the
  zero-argument callable the harness times;
* ``check(i, out)`` verifies that op's output outside the timer.

Every check is seed-independent: it compares against numpy, against the
warm-up op, against a per-plan re-run or against an in-process reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import SvdPlan, execute
from repro.api.execute import execute_sweep
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.ir.compiler import clear_program_cache

Row = Dict[str, object]

#: A numeric op fails when its singular values are this far from LAPACK's.
NUMERIC_TOLERANCE = 1e-12

TREES = ("flatts", "flattt", "greedy", "auto")
POLICIES = ("list", "critical-path", "locality", "fifo", "random", "weight")
NETWORKS = ("uniform", "alpha-beta")


@dataclass
class Checked:
    """What the harness learns from one op's output."""

    #: Candidates of the op whose output was wrong.
    failed: int
    #: Hash of the op's deterministic output (traced and untraced must agree).
    digest: str
    #: Simulate rows computed in this process (feed the runtime counters).
    rows: Optional[List[Row]] = None
    #: Per-op layer quantities only the output reveals.
    extras: Dict[str, float] = field(default_factory=dict)


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One named workload; subclasses fill in the three hooks."""

    name = ""
    #: Candidates one op completes (the unit of ``cand_per_s``).
    candidates = 1
    #: Tile size of the numeric kernels (prices the kernel flop counts).
    tile_size: Optional[int] = None
    #: Worker processes one op fans out to.
    workers = 1
    #: False when the op's layers run in worker processes, where an ambient
    #: tracer activated here would only add overhead.
    in_process = True

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> Callable[[], Any]:
        raise NotImplementedError

    def check(self, index: int, out: Any) -> Checked:
        raise NotImplementedError

    def final_check(self) -> int:
        """Failed candidates per op that a check run once, after the measured
        ops and the memory reading, finds (it would distort both per op)."""
        return 0

    def serial_seconds(self) -> Optional[float]:
        """Time of an in-process run of one op's candidates, if it fans out."""
        return None

    def close(self) -> None:
        """Release what ``setup`` created."""


class _Numeric(Workload):
    #: (m, n, tile size) at full and at smoke size.
    full = (0, 0, 0)
    small = (0, 0, 0)

    def setup(self) -> None:
        m, n, nb = self.small if self.smoke else self.full
        self.tile_size = nb
        matrix = np.random.default_rng(self.seed).standard_normal((m, n))
        self.plan = SvdPlan(matrix=matrix, tile_size=nb, stage="ge2val", tree="greedy")

    def prepare(self, index: int) -> Callable[[], Any]:
        return lambda: execute(self.plan, "numeric")

    def check(self, index: int, out: Any) -> Checked:
        error = out.max_rel_error
        ok = error is not None and error < NUMERIC_TOLERANCE
        sv = hashlib.sha256(np.ascontiguousarray(out.singular_values).tobytes())
        return Checked(failed=0 if ok else 1, digest=sv.hexdigest()[:16])


class NumericTall(_Numeric):
    # p=96, q=6: Chan's crossover picks R-BIDIAG, and the QR tile kernels
    # on 16x16 tiles dominate the op.
    name = "numeric-tall"
    full = (1536, 96, 16)
    small = (192, 24, 8)


class NumericSquare(_Numeric):
    # p=q=8 BIDIAG: bulge chasing (BND2BD) and BD2VAL dominate the op.
    name = "numeric-square"
    full = (256, 256, 32)
    small = (64, 64, 16)


class SimulateCold(Workload):
    """Four ``execute(plan, "simulate")`` calls on a cleared program cache."""

    name = "simulate-cold"
    candidates = len(TREES)

    def setup(self) -> None:
        size, nodes, cores = (1200, 2, 2) if self.smoke else (3000, 4, 6)
        order = np.random.default_rng(self.seed).permutation(len(TREES))
        self.plans = [
            SvdPlan(
                m=size, n=size, tile_size=100, stage="ge2val", tree=TREES[k],
                n_nodes=nodes, n_cores=cores, network="alpha-beta", seed=self.seed,
            )
            for k in order
        ]
        self.reference: Optional[List[Row]] = None

    def prepare(self, index: int) -> Callable[[], Any]:
        # The harness's gc.collect() after this drops the programs, and with
        # them the weak-keyed memo tables.
        clear_program_cache()
        return lambda: [execute(plan, "simulate").to_row() for plan in self.plans]

    def check(self, index: int, rows: List[Row]) -> Checked:
        if self.reference is None:  # the warm-up op pins the reference rows
            self.reference = rows
        failed = sum(row != ref for row, ref in zip(rows, self.reference))
        return Checked(failed=failed, digest=digest(rows), rows=rows)

    def final_check(self) -> int:
        # Every op's rows equal the warm-up rows, so one comparison of their
        # task counts with the DAG backend's covers all ops.  The DAG
        # backend materializes every op object, so it runs last.
        return sum(
            row["n_tasks"] != execute(plan, "dag").n_tasks
            for row, plan in zip(self.reference or [], self.plans)
        )


class SweepWarm(Workload):
    """One batched ``execute_sweep`` over 38 candidates with warm caches."""

    name = "sweep-warm"

    def setup(self) -> None:
        big, small = (1200, 800) if self.smoke else (2400, 1600)
        distributed = dict(m=big, n=big, tile_size=100, stage="ge2val", n_nodes=4, n_cores=6)
        shared = dict(m=small, n=small, tile_size=100, stage="ge2val", n_nodes=1, n_cores=24)
        self.templates = [
            SvdPlan(tree=tree, policy=policy, network=network, **distributed)
            for tree in ("greedy", "flatts")
            for policy in POLICIES
            for network in NETWORKS
        ]
        self.templates += [
            SvdPlan(tree=tree, policy=policy, **shared)
            for tree in ("greedy", "flatts")
            for policy in POLICIES
        ]
        self.templates += [
            SvdPlan(tree="greedy", scenario=scenario, draws=8, **distributed)
            for scenario in ("straggler", "noisy-net")
        ]
        self.candidates = len(self.templates)

    def plans(self, index: int) -> List[SvdPlan]:
        return [plan.with_(seed=self.seed + index) for plan in self.templates]

    def prepare(self, index: int) -> Callable[[], Any]:
        plans = self.plans(index)
        return lambda: execute_sweep(plans)

    def check(self, index: int, rows: List[Row]) -> Checked:
        plans = self.plans(index)
        if len(rows) != len(plans):
            return Checked(failed=len(plans), digest=digest(rows), rows=rows)
        picks = np.random.default_rng([self.seed, index]).choice(
            len(plans), size=2, replace=False
        )
        failed = sum(execute(plans[k], "simulate").to_row() != rows[k] for k in picks)
        return Checked(failed=failed, digest=digest(rows), rows=rows)


def _as_stored(row: Row) -> Row:
    """``row`` as the campaign store encodes it (JSON, sorted keys)."""
    return json.loads(json.dumps(row, sort_keys=True, default=str))


class Campaign(Workload):
    """A 2-worker ``CampaignRunner`` run into a fresh sqlite store."""

    name = "campaign"
    workers = 2
    in_process = False

    def setup(self) -> None:
        self.tmpdir = tempfile.mkdtemp(prefix="campaign-")
        seeds = [self.seed + k for k in range(4 if self.smoke else 64)]
        self.spec = CampaignSpec(
            name="harness",
            base=dict(m=800, n=600, tile_size=100, n_cores=4),
            axes=dict(tree=list(TREES), policy=["list", "fifo"],
                      network=list(NETWORKS), seed=seeds),
            workers=self.workers,
            chunk_size=1,
            max_attempts=3,
        )
        self.reference = self._serial_rows()
        self.candidates = len(self.reference)

    def _serial_rows(self) -> Dict[str, Row]:
        return {
            cand.candidate_id: _as_stored(execute(cand.plan, "simulate").to_row())
            for cand in self.spec.expand()
        }

    def prepare(self, index: int) -> Callable[[], Any]:
        path = os.path.join(self.tmpdir, f"op{index}.sqlite")

        def run():
            runner = CampaignRunner(self.spec, path, install_signal_handlers=False)
            return runner, runner.run()

        return run

    def check(self, index: int, out: Any) -> Checked:
        runner, report = out
        try:
            records = runner.store.records()
        finally:
            runner.store.close()
        for suffix in ("", "-wal", "-shm"):
            path = f"{runner.store.path}{suffix}"
            if os.path.exists(path):
                os.remove(path)
        good = sum(
            rec.status == "done" and rec.row == self.reference.get(rec.candidate_id)
            for rec in records
        )
        return Checked(
            failed=self.candidates - good,
            digest=digest([(rec.candidate_id, rec.row) for rec in records]),
            extras={
                "worker_busy_s": sum(rec.wall_seconds or 0.0 for rec in records),
                "retries": report.retries,
                "respawns": report.respawns,
                "timeouts": report.timeouts,
            },
        )

    def serial_seconds(self) -> Optional[float]:
        t0 = time.perf_counter()
        self._serial_rows()
        return time.perf_counter() - t0

    def close(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (NumericTall, NumericSquare, SimulateCold, SweepWarm, Campaign)
}
