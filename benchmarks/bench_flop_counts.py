"""Section III-C — operation counts of BIDIAG vs R-BIDIAG.

4 n^2 (m - n/3) vs 2 n^2 (m + n), with the crossover at m = 5n/3, plus a
consistency check of the tiled DAG: the total Table-I weight of the
compiled program matches the analytic flop count at the tile level.
"""

from benchmarks.conftest import print_table
from repro.experiments.figures import format_rows
from repro.ir import get_program
from repro.models.flops import chan_crossover_m, ge2bd_flops, rbidiag_flops
from repro.trees import FlatTSTree


def test_flop_crossover_table(benchmark):
    n = 2000
    ms = [2000, 3000, int(chan_crossover_m(n)), 4000, 8000, 16000]
    rows = benchmark.pedantic(
        lambda: [
            {
                "m": m,
                "n": n,
                "bidiag_gflop": ge2bd_flops(m, n) / 1e9,
                "rbidiag_gflop": rbidiag_flops(m, n) / 1e9,
                "winner": "rbidiag" if rbidiag_flops(m, n) < ge2bd_flops(m, n) else "bidiag",
            }
            for m in ms
        ],
        rounds=1,
        iterations=1,
    )
    print_table("Section III-C: flop counts and Chan crossover", format_rows(rows))
    assert rows[0]["winner"] == "bidiag"
    assert rows[-1]["winner"] == "rbidiag"
    # The switch happens at m = 5n/3.
    for r in rows:
        expected = "rbidiag" if r["m"] > chan_crossover_m(n) else "bidiag"
        if abs(r["m"] - chan_crossover_m(n)) > 1:
            assert r["winner"] == expected


def test_dag_weight_matches_flop_count(benchmark):
    """The compiled BIDIAG DAG performs ~4n^2(m - n/3) flops (at tile granularity)."""
    p, q, nb = 12, 8, 100
    program = benchmark.pedantic(
        lambda: get_program("bidiag", p, q, FlatTSTree()), rounds=1, iterations=1
    )
    m, n = p * nb, q * nb
    # Table-I weights are in units of nb^3/3 flops.
    dag_flops = program.total_weight() * nb**3 / 3.0
    analytic = ge2bd_flops(m, n)
    # Tile-granularity overhead (panel factors, triangle padding) keeps the
    # DAG within a modest factor of the element-wise count.
    assert 0.8 * analytic < dag_flops < 2.5 * analytic
