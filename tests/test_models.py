"""Tests for operation counts and competitor models."""

import pytest

from repro.models.competitors import (
    COMPETITORS,
    ElementalModel,
    MklModel,
    PlasmaModel,
    ScalapackModel,
)
from repro.models.flops import (
    bd2val_flops,
    bnd2bd_flops,
    chan_crossover_m,
    ge2bd_flops,
    ge2bnd_reported_flops,
    ge2val_reported_flops,
    rbidiag_flops,
)
from repro.runtime.machine import Machine


class TestFlops:
    def test_ge2bd_formula(self):
        m, n = 3000, 1000
        assert ge2bd_flops(m, n) == pytest.approx(4 * n * n * (m - n / 3))

    def test_rbidiag_formula(self):
        m, n = 3000, 1000
        assert rbidiag_flops(m, n) == pytest.approx(2 * n * n * (m + n))

    def test_chan_crossover(self):
        n = 999
        m_star = chan_crossover_m(n)
        assert m_star == pytest.approx(5 * n / 3)
        # Just below: direct bidiagonalization is cheaper; just above: R- wins.
        assert ge2bd_flops(int(m_star * 0.9), n) < rbidiag_flops(int(m_star * 0.9), n)
        assert ge2bd_flops(int(m_star * 1.1), n) > rbidiag_flops(int(m_star * 1.1), n)

    def test_square_case_rbidiag_more_expensive(self):
        n = 2000
        assert rbidiag_flops(n, n) > ge2bd_flops(n, n)

    def test_reported_flops_identical_for_both_variants(self):
        # The paper reports both algorithms with the BIDIAG operation count.
        assert ge2bnd_reported_flops(5000, 1000) == ge2bd_flops(5000, 1000)
        assert ge2val_reported_flops(5000, 1000) == ge2bd_flops(5000, 1000)

    def test_second_stage_lower_order(self):
        n, nb = 10000, 160
        assert bnd2bd_flops(n, nb) < 0.1 * ge2bd_flops(n, n)
        assert bd2val_flops(n) < bnd2bd_flops(n, nb)

    def test_validation(self):
        with pytest.raises(ValueError):
            ge2bd_flops(100, 200)
        with pytest.raises(ValueError):
            bnd2bd_flops(0, 160)
        with pytest.raises(ValueError):
            bd2val_flops(0)


class TestCompetitors:
    machine = Machine(n_nodes=1, cores_per_node=24, tile_size=160)

    def test_registry_complete(self):
        assert set(COMPETITORS) == {"PLASMA", "MKL", "ScaLAPACK", "Elemental"}

    def test_all_models_positive(self):
        for model in COMPETITORS.values():
            g = model.gflops(8000, 8000, self.machine)
            assert 0 < g < self.machine.peak_gflops * 2

    def test_scalapack_memory_bound_plateau(self):
        """ScaLAPACK stays an order of magnitude below the tiled approaches
        on large square problems (the ~50 GFlop/s plateau of Figure 2)."""
        model = ScalapackModel()
        g = model.gflops(20000, 20000, self.machine)
        assert g < 0.2 * self.machine.node_peak_gflops

    def test_mkl_beats_scalapack_on_square(self):
        mkl = MklModel().gflops(10000, 10000, self.machine)
        sca = ScalapackModel().gflops(10000, 10000, self.machine)
        assert mkl > sca

    def test_elemental_switches_to_chan(self):
        model = ElementalModel()
        machine = self.machine
        # Above the 1.2 threshold Chan's algorithm kicks in and the rate
        # improves markedly over the plain GEBRD model.
        skinny = model.gflops(40000, 2000, machine)
        gebrd_only = model.gebrd.gflops(40000, 2000, machine)
        assert skinny > 1.5 * gebrd_only
        # Below the threshold both coincide.
        square_time = model.time_seconds(5000, 5000, machine)
        assert square_time == pytest.approx(model.gebrd.time_seconds(5000, 5000, machine))

    def test_elemental_qr_scaling_caps(self):
        model = ElementalModel()
        m20 = Machine(n_nodes=20, cores_per_node=24, tile_size=160)
        m10 = Machine(n_nodes=10, cores_per_node=24, tile_size=160)
        g20 = model.gflops(400000, 2000, m20)
        g10 = model.gflops(400000, 2000, m10)
        # Beyond the cap the rate barely improves.
        assert g20 < 1.3 * g10

    def test_plasma_close_to_but_below_dplasma(self):
        from repro.api import SvdPlan, execute

        plan = SvdPlan(m=6000, n=6000, variant="bidiag", tree="flatts",
                       tile_size=self.machine.tile_size,
                       n_cores=self.machine.cores_per_node)
        dplasma = execute(plan, "simulate")
        plasma = PlasmaModel().gflops(6000, 6000, self.machine)
        assert plasma <= dplasma.gflops * 1.05
        assert plasma > 0.5 * dplasma.gflops

    def test_scalapack_scales_modestly_with_nodes(self):
        model = ScalapackModel()
        g1 = model.gflops(20000, 20000, Machine(n_nodes=1))
        g9 = model.gflops(20000, 20000, Machine(n_nodes=9))
        assert g1 < g9 < 9 * g1
