"""Layered benchmark of the tiled SVD reproduction.

Run one workload (from the repository root)::

    python3 benchmarks/harness/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/harness/run.py --list
    python3 benchmarks/harness/run.py compare A.json ... -- B.json ...

A run starts fresh child interpreters (``child.py``) with every BLAS and
OpenMP pool pinned to one thread.  ``--trace 0`` sets the workload up
three times (set-up time is their median) and measures the end-to-end
metrics in the last child; ``--trace 1`` runs one child that also times
every layer.  Times are reported at a fixed host speed: each measured
wall time is scaled by the host factor ``child.py`` measured next to it,
and the raw walls go to ``--out``.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and every metric
``BENCHMARK.json`` declares for that mode, each with its unit.  ``--out``
writes the full record (quartiles, sample counts, host fingerprint) for
``compare``.

``compare`` reads ``--out`` files of two sets of untraced runs and gives
each (end-to-end metric, workload) pair a verdict against the bounds in
``BENCHMARK.json``: ``ok``, ``regressed`` or ``unresolved`` (the spread of
either set exceeds the bound).  It exits 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget of one run, every child included.
DEADLINE_S = 170.0
#: Pinned to one thread: the numeric backend is sequential by design, and
#: the campaign's two workers times BLAS threads must stay within nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> NoReturn:
    print(f"run.py: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> Dict:
    if not SPEC_PATH.is_file():
        fail(f"{SPEC_PATH} not found")
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --------------------------------------------------------------------------- #
# Host fingerprint
# --------------------------------------------------------------------------- #
def _git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint(seed: int) -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "git_commit": _git_commit(),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# Running one workload
# --------------------------------------------------------------------------- #
def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: List[str], env: Dict[str, str], deadline: float) -> Dict:
    """Run one child in its own session; kill the session past ``deadline``."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        _kill_session(proc.pid)
        proc.communicate()
        raise
    # Stops any process the child left running in its session.
    _kill_session(proc.pid)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, spec: Dict) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no package to benchmark: {ROOT / 'src' / 'repro'} is missing")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    scratch = HERE / ".scratch" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        children = []
        if not args.trace and not args.smoke:
            for _ in range(SETUPS - 1):
                children.append(run_child(cmd + ["--setup-only"], env, deadline))
        child = run_child(cmd, env, deadline)
        children.append(child)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (HERE / ".scratch").rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        declared = spec["per_layer"]
        stats = {name: (v, v, v, 1) for name, v in child["layers"].items()}
    else:
        declared = spec["end_to_end"]
        # Times at a fixed host speed: each scaled by the host factor the
        # child measured next to it (see child.reference_seconds).
        solve = [w * h for w, h in zip(child["walls"], child["hosts"])]
        rates = [good / s for good, s in zip(child["good"], solve)]
        setups = [c["setup_s"] * c["setup_host"] for c in children]
        rss = child["peak_rss_mb"]
        stats = {
            "solve_s": quartiles(solve) + (len(solve),),
            "cand_per_s": quartiles(rates) + (len(rates),),
            "setup_s": quartiles(setups) + (len(setups),),
            "peak_rss_mb": (rss, rss, rss, 1),
        }
        print(f"raw op wall median {statistics.median(child['walls']):.6g} s, host factor "
              f"median {statistics.median(child['hosts']):.4g} over {len(solve)} ops")
    if set(stats) != {m["name"] for m in declared}:
        fail(f"measured metrics {sorted(stats)} differ from BENCHMARK.json's")

    metrics, detail = {}, {}
    for m in declared:
        q1, median, q3, n = stats[m["name"]]
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        detail[m["name"]] = {"value": median, "unit": m["unit"], "q1": q1, "q3": q3, "n": n}
        print(f"{m['name']:30s} {median:14.6g} {m['unit']:8s} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    host = host_fingerprint(args.seed)
    print("host: " + json.dumps(host, sort_keys=True))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    if args.out:
        record = dict(
            result,
            metrics=detail,
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            seconds=seconds,
            host=host,
            setup_raw=[c["setup_s"] for c in children],
            setup_hosts=[c["setup_host"] for c in children],
            op_walls=child["walls"],
            op_hosts=child["hosts"],
            traced_walls=child.get("traced_walls", []),
            digests=child["digests"],
        )
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# Comparing two sets of runs
# --------------------------------------------------------------------------- #
def _load_set(paths: Sequence[str]) -> Dict[str, List[Dict]]:
    """Untraced run records of one set, grouped by workload."""
    runs: Dict[str, List[Dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for set ``b`` against set ``a``."""
    qa, qb = quartiles(a), quartiles(b)
    lower = better == "lower"
    worse = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        b_always_better = max(b) < min(a) if lower else min(b) > max(a)
        return "ok" if b_always_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(argv: Sequence[str], spec: Dict) -> int:
    if "--" not in argv:
        fail("usage: run.py compare SET_A... -- SET_B...")
    cut = list(argv).index("--")
    set_a, set_b = _load_set(argv[:cut]), _load_set(argv[cut + 1:])
    shared = [w["name"] for w in spec["workloads"] if w["name"] in set_a and w["name"] in set_b]
    if not shared:
        fail("the two sets share no workload")
    def side(q: Tuple[float, float, float], n: int) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={n}"

    regressed = 0
    print(f"{'workload':15s} {'metric':12s} {'A median [q1, q3]':36s} "
          f"{'B median [q1, q3]':36s} {'change':>8s}  verdict")
    for workload in shared:
        runs_a, runs_b = set_a[workload], set_b[workload]
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b]
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(a, b, m["better"], m["bound"])
            regressed += v == "regressed"
            print(f"{workload:15s} {m['name']:12s} {side(qa, len(a)):36s} "
                  f"{side(qb, len(b)):36s} {qb[1] / qa[1] - 1:+8.2%}  {v}")
        # Failures have no bound: any increase is a regression.
        frac_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        frac_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        v = "regressed" if frac_b > frac_a else "ok"
        regressed += v == "regressed"
        print(f"{workload:15s} {'fail_frac':12s} {frac_a:<36.5g} {frac_b:<36.5g} "
              f"{'':8s}  {v}")
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare(argv[1:], spec)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--list", action="store_true", help="list the workloads and exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced child instead")
    parser.add_argument("--out", help="write the full result record to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes, one set-up and one op (for the self-test)")
    args = parser.parse_args(argv)
    if args.list:
        for w in spec["workloads"]:
            print(f"{w['name']:16s} {w['why']}")
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:  # numpy generators take no negative seeds
        parser.error("--seed must be >= 0")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
