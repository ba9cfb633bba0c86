"""One workload in one fresh interpreter (started by ``run.py``).

Prints one JSON object as its last line of output.  Set-up time runs from
just after the first reference probe below, before ``repro`` or numpy is
imported, to the end of the warm-up op.  After set-up, ops run back to
back (one client, closed loop) until ``--seconds`` have passed, with
``gc.collect()`` and the output checks between ops, outside the timer.

Set-up and every measured op are bracketed by two runs of
:func:`reference_seconds`, a fixed loop whose time tracks how fast the host
runs right now.  The *host factor* ``REFERENCE_S / mean(reference times)``
lets ``run.py`` report times at a fixed host speed.

With ``--trace 1`` every op runs twice, untraced and then traced under
:class:`probes.TracedOp`; the two outputs must agree, the traced one feeds
the per-layer metrics, and the two medians give the tracing overhead.
"""

import time

#: What :func:`reference_seconds` takes on the 2-vCPU host the bounds in
#: BENCHMARK.json were measured on, when that host is not slowed by its
#: neighbours.  It only sets the scale: host-corrected times read as
#: seconds on that host.
REFERENCE_S = 0.017


def reference_seconds():
    """Time a fixed interpreter loop.

    The host is a shared VM whose vCPUs slow down by up to 2x for seconds
    to minutes at a time.  This loop slows down with them, and it runs no
    code of the program under test, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


REFERENCE_BEFORE_SETUP = reference_seconds()
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from workloads import WORKLOADS, Checked  # noqa: E402


def _run_op(wl, index, around=None, probe_host=False):
    """Time one op, inside the context ``around`` if given.

    Returns (wall seconds, host factor, Checked); the host factor is 1
    unless ``probe_host``.  An op that raises fails all its candidates.
    """
    run = wl.prepare(index)
    gc.collect()
    host = 1.0
    out = error = None
    with around if around is not None else nullcontext():
        before = reference_seconds() if probe_host else None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if probe_host:
            host = 2 * REFERENCE_S / (before + reference_seconds())
    if error is None:
        try:
            return wall, host, wl.check(index, out)
        except Exception:
            error = traceback.format_exc()
    sys.stderr.write(error)
    return wall, host, Checked(failed=wl.candidates, digest="error")


def _traced_op(wl, index, totals):
    """Run op ``index`` under the probes and fold it into ``totals``."""
    from probes import TracedOp

    traced = TracedOp(wl.in_process)
    wall, _, checked = _run_op(wl, index, traced)
    totals.add(wall, traced, checked.rows, checked.extras)
    return wall, checked


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        wl.setup()
        _, _, warm = _run_op(wl, 0)
        setup_s = time.perf_counter() - T0
        result = {
            "setup_s": setup_s,
            "setup_host": 2 * REFERENCE_S / (REFERENCE_BEFORE_SETUP + reference_seconds()),
        }
        if not args.setup_only:
            result.update(_measure(wl, args, warm))
    finally:
        wl.close()
    print(json.dumps(result))


def _measure(wl, args, warm):
    attempted, failed = wl.candidates, warm.failed
    walls, hosts, good, traced_walls, digests = [], [], [], [], []
    totals = None
    if args.trace:
        from probes import LayerTotals

        totals = LayerTotals(wl.tile_size, wl.workers)
    start = time.perf_counter()
    index = 1
    while True:
        wall, host, checked = _run_op(wl, index, probe_host=True)
        attempted += wl.candidates
        failed += checked.failed
        walls.append(wall)
        hosts.append(host)
        good.append(wl.candidates - checked.failed)
        digests.append(checked.digest)
        if totals is not None:
            wall, traced = _traced_op(wl, index, totals)
            attempted += wl.candidates
            # A traced op must compute exactly what the untraced one did.
            failed += wl.candidates if traced.digest != checked.digest else traced.failed
            traced_walls.append(wall)
        index += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = min(attempted, failed + wl.final_check() * (attempted // wl.candidates))
    result = {
        "walls": walls,
        "hosts": hosts,
        "good": good,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "peak_rss_mb": usage / 1024.0,
    }
    if totals is not None:
        result["traced_walls"] = traced_walls
        result["layers"] = totals.metrics(
            statistics.median(walls), statistics.median(traced_walls), wl.serial_seconds()
        )
    return result


if __name__ == "__main__":
    main()
