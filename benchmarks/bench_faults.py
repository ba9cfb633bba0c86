"""Monte-Carlo scenario replay: vectorized draws vs naive per-draw re-runs.

The PR-9 bench shape — one GE2BND problem under the ``hostile`` scenario
(node heterogeneity + fail-stop re-execution + stragglers + link jitter)
— timed four ways, written to ``BENCH_faults.json``:

1. ``naive-per-draw``  — what collecting a makespan distribution costs
   without ``--draws`` support: one simulator launch per draw (a shell
   loop over ``repro simulate --seed i``), each paying interpreter
   start-up, imports, program compile, engine prep, the nominal replay
   and the draw itself.  Timed as real subprocesses; the nominal
   makespan each one prints is audited bitwise against the in-process
   run;
2. ``hoistless``       — the same process, no shell loop, but no
   hoisting either: every draw builds a fresh engine and
   :class:`~repro.runtime.replay.PreparedReplay` with the memo tables
   cleared first, so the policy order, duration/owner vectors and
   successor lists are re-derived each draw.  Replays the exact factor rows the vectorized
   path samples, and its per-draw makespans are audited bitwise against
   the vectorized ``MakespanDistribution``;
3. ``vectorized-cold`` — :func:`repro.runtime.scenario.run_scenario` on
   cold memo tables: factor matrices block-sampled once, the replay
   prepared once, each draw one event-loop pass;
4. ``vectorized``      — the same call with the memo tables warm (what
   every later scenario run in the process sees — a robust-makespan
   tuning rung, a scenario sweep).

Each draw re-schedules dynamically (the runtime reacts to realized
durations), so one event-loop pass per draw is the semantic floor; the
vectorized win is everything hoisted out of the loop, and the rows
separate how much of that is process launch vs per-draw re-derivation.

Acceptance bar: per draw, the vectorized path beats the naive per-draw
re-runs by at least **5x** (override the floor with
``REPRO_BENCH_FAULTS_FLOOR`` on noisy CI runners).

Scaled-down by default (CI smoke-runs it in this reduced mode, also
reachable as ``python benchmarks/bench_faults.py --reduced``); set
``REPRO_FULL_SCALE=1`` for the paper's problem sizes.  ``--reduced`` wins
over the variable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import NamedTuple, Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import get_program  # noqa: E402
from repro.runtime import replay as replay_mod  # noqa: E402
from repro.runtime.engine import SimulationEngine  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.runtime.replay import PreparedReplay  # noqa: E402
from repro.runtime.scenario import get_scenario, run_scenario  # noqa: E402
from repro.tiles.layout import ceil_div  # noqa: E402
from repro.trees import make_tree  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_faults.json")

#: Subprocess launches are slow by definition; a few suffice to pin the
#: per-draw cost of the shell-loop baseline.
SUB_DRAWS = 3
SEED = 0
SCENARIO = "hostile"
POLICY = "list"
NETWORK = "alpha-beta"

#: One draw, the way a shell loop gets it: fresh interpreter, fresh
#: imports, fresh compile.  Prints "<nominal-hex> <draw-hex>".
_SUB_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from repro.ir import get_program
from repro.runtime.machine import Machine
from repro.runtime.scenario import get_scenario, run_scenario
from repro.trees import make_tree
program = get_program("bidiag", {p}, {q}, make_tree("greedy"),
                      n_cores={cores})
machine = Machine(n_nodes={nodes}, cores_per_node={cores}, tile_size={nb})
run = run_scenario(program, machine, get_scenario({scenario!r}),
                   policy={policy!r}, network={network!r},
                   draws=1, seed={seed})
print(run.schedule.makespan.hex(), run.distribution.makespans[0].hex())
"""


class Sizes(NamedTuple):
    """One run's problem: an ``m x m`` matrix on ``nb`` tiles, its machine
    and the number of Monte-Carlo draws."""

    m: int
    nb: int
    n_nodes: int
    n_cores: int
    draws: int


def sizes(argv: Sequence[str]) -> Sizes:
    """The sizes for the command line ``argv``: the paper's under
    ``REPRO_FULL_SCALE=1``, the scaled-down ones under ``--reduced``."""
    if full_scale() and "--reduced" not in argv:
        return Sizes(m=20000, nb=160, n_nodes=4, n_cores=24, draws=128)
    return Sizes(m=1000, nb=100, n_nodes=2, n_cores=4, draws=32)


def _clear_engine_memos() -> None:
    """Drop the module-level per-program memo tables (a fresh engine)."""
    replay_mod._DURATION_VECTORS.clear()
    replay_mod._OWNER_VECTORS.clear()
    replay_mod._RANK_ORDERS.clear()
    replay_mod._STREAMS.clear()


def _min_of(repeats, run):
    """Min wall-clock over ``repeats`` runs (identical work; the minimum
    strips scheduler noise) plus the last run's payload."""
    best, payload = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        payload = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return best, payload


def _presampled_rows(scenario, n_ops, draws):
    """The exact factor rows ``run_scenario(..., seed=SEED)`` will replay:
    same generator, same fixed sampling order (faults before noise)."""
    rng = np.random.default_rng(SEED)
    fault_factors, _events = scenario.faults.sample(rng, draws, n_ops)
    noise_factors = scenario.noise.sample(rng, draws, n_ops)
    return fault_factors, noise_factors


def naive_per_draw(size):
    """The shell-loop baseline: one subprocess per draw.  Returns the
    best per-draw seconds and the nominal makespan hexes printed."""
    p = q = ceil_div(size.m, size.nb)
    nominals = []

    def one_draw(seed):
        script = _SUB_SCRIPT.format(
            src=_SRC, p=p, q=q, cores=size.n_cores, nodes=size.n_nodes, nb=size.nb,
            scenario=SCENARIO, policy=POLICY, network=NETWORK, seed=seed,
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            check=True, capture_output=True, text=True,
        )
        return out.stdout.split()

    best = None
    for i in range(SUB_DRAWS):
        start = time.perf_counter()
        nominal_hex, _draw_hex = one_draw(1000 + i)
        seconds = time.perf_counter() - start
        nominals.append(nominal_hex)
        if best is None or seconds < best:
            best = seconds
    return best, nominals


def hoistless(program, machine, scenario, fault_factors, noise_factors, draws):
    """One fresh engine + prepared replay per draw, memo tables cleared
    each time: every draw pays the prep (policy order, vectors, successor
    lists) the vectorized path hoists out of the loop — but not the
    process launch."""
    eff_machine = scenario.apply_to_machine(machine)

    def run():
        makespans = []
        for i in range(draws):
            _clear_engine_memos()
            engine = SimulationEngine(eff_machine, policy=POLICY,
                                      network=NETWORK)
            replay = PreparedReplay(engine, program)
            sched = replay.run(fault_factors[i], noise_factors[i])
            makespans.append(sched.makespan)
        return makespans

    return _min_of(2, run)


def vectorized(program, machine, scenario, draws, warm):
    """The shipped path: block sampling + one prepared replay.  With
    ``warm=False`` the memo tables are cleared every repeat (a process's
    first scenario run); with ``warm=True`` they stay hot."""

    def run():
        if not warm:
            _clear_engine_memos()
        return run_scenario(
            program, machine, scenario,
            policy=POLICY, network=NETWORK, draws=draws, seed=SEED,
        )

    if warm:
        run()
    return _min_of(2, run)


def main(argv=None) -> int:
    size = sizes(sys.argv[1:] if argv is None else argv)
    draws = size.draws
    p = q = ceil_div(size.m, size.nb)
    program = get_program("bidiag", p, q, make_tree("greedy"),
                          n_cores=size.n_cores)
    machine = Machine(n_nodes=size.n_nodes, cores_per_node=size.n_cores,
                      tile_size=size.nb)
    scenario = get_scenario(SCENARIO)
    fault_factors, noise_factors = _presampled_rows(scenario, len(program), draws)

    naive_draw_seconds, naive_nominals = naive_per_draw(size)
    hoistless_seconds, hoistless_makespans = hoistless(
        program, machine, scenario, fault_factors, noise_factors, draws
    )
    cold_seconds, _ = vectorized(program, machine, scenario, draws, warm=False)
    warm_seconds, mc_run = vectorized(program, machine, scenario, draws, warm=True)
    dist = mc_run.distribution

    # Hard gate 1: every subprocess re-derived the same nominal schedule.
    nominal_hex = mc_run.schedule.makespan.hex()
    for i, got in enumerate(naive_nominals):
        assert got == nominal_hex, (
            f"subprocess draw {i} nominal makespan {got} differs from the "
            f"in-process one {nominal_hex}"
        )

    # Hard gate 2: the hoistless loop replayed the vectorized draws, bit
    # for bit.
    assert dist is not None and dist.n_draws == draws
    assert len(hoistless_makespans) == draws
    for i, (got, ref) in enumerate(zip(hoistless_makespans, dist.makespans)):
        assert got == ref, (
            f"hoistless draw {i} makespan {got.hex()} differs from the "
            f"vectorized replay {ref.hex()}"
        )
    assert min(dist.makespans) >= mc_run.schedule.makespan, (
        "a perturbed draw beat the nominal schedule (factors are >= 1)"
    )
    print(f"bit-identity audit: {SUB_DRAWS} subprocess nominals and "
          f"{draws} hoistless draws equal the vectorized run")

    rows = [
        {
            "mode": mode,
            "seconds": seconds,
            "draws": count,
            "ms_per_draw": 1000.0 * seconds / count,
        }
        for mode, seconds, count in (
            ("naive-per-draw", naive_draw_seconds * SUB_DRAWS, SUB_DRAWS),
            ("hoistless", hoistless_seconds, draws),
            ("vectorized-cold", cold_seconds, draws),
            ("vectorized", warm_seconds, draws),
        )
    ]
    title = (
        f"Scenario '{SCENARIO}', m=n={size.m}, nb={size.nb}, "
        f"{size.n_nodes}x{size.n_cores} cores, {draws} draws"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))

    per_draw = warm_seconds / draws
    speedup = naive_draw_seconds / per_draw
    speedup_hoistless = (hoistless_seconds / draws) / per_draw
    print(f"vectorized vs naive-per-draw (per draw): {speedup:.2f}x")
    print(f"vectorized vs hoistless (per draw, the in-process hoisting "
          f"win): {speedup_hoistless:.2f}x")

    trajectory = {
        "problem": {"m": size.m, "n": size.m, "nb": size.nb,
                    "n_nodes": size.n_nodes, "n_cores": size.n_cores},
        "scenario": SCENARIO,
        "policy": POLICY,
        "network": NETWORK,
        "draws": draws,
        "seed": SEED,
        "rows": rows,
        "speedup_vectorized_vs_naive": speedup,
        "speedup_vectorized_vs_hoistless": speedup_hoistless,
        "distribution": dist.to_row(),
        "nominal_makespan": mc_run.schedule.makespan,
        "draws_audited": draws,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    # Acceptance bar: per draw, the vectorized MC loop must beat naive
    # per-draw simulator re-runs by at least 5x.  CI runs on noisy shared
    # runners and lowers the floor via the environment (the bitwise audits
    # above are the hard CI gates; the 5x claim is pinned by the
    # checked-in BENCH_faults.json measured on quiet hardware).
    floor = float(os.environ.get("REPRO_BENCH_FAULTS_FLOOR", "5.0"))
    assert speedup >= floor, (
        f"vectorized Monte-Carlo only {speedup:.2f}x faster per draw than "
        f"naive per-draw re-runs (floor {floor}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
