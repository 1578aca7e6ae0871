"""Tests for the simulated platform models (specs, occupancy, GPU, CPU)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cpu import CPUModel, simd_efficiency
from repro.hardware.gpu import GPUModel, warp_utilization
from repro.hardware.occupancy import occupancy
from repro.hardware.roofline import roofline_point
from repro.hardware.specs import H100_SXM, SAPPHIRE_RAPIDS_8468
from repro.kokkos.kernel import KERNEL_PROFILES, make_launch
from repro.kokkos.space import ExecutionSpace


class TestSpecs:
    def test_table1_values(self):
        cpu = SAPPHIRE_RAPIDS_8468
        assert cpu.cores == 96
        assert cpu.sockets == 2
        assert cpu.base_ghz == 3.1
        assert cpu.memory_gib == 1024
        assert cpu.memory_bw_gbs == pytest.approx(614.4)

    def test_table2_values(self):
        gpu = H100_SXM
        assert gpu.sms == 132
        assert gpu.memory_mib == 81559
        assert gpu.memory_bw_tbs == pytest.approx(3.35)
        assert gpu.fp64_tflops == 34.0

    def test_h100_operational_intensity_matches_footnote(self):
        # The paper's footnote 2: 34 TFLOPS / 3.35 TB/s ~ 10.1 FLOPs/byte.
        assert H100_SXM.operational_intensity == pytest.approx(10.15, abs=0.1)

    def test_cpu_peak_flops(self):
        # 96 cores x 3.1 GHz x 32 FLOPs/cycle ~ 9.5 TFLOP/s.
        assert SAPPHIRE_RAPIDS_8468.peak_fp64_gflops == pytest.approx(
            9523.2, rel=1e-3
        )


class TestOccupancy:
    def test_calculate_fluxes_matches_paper(self):
        # >100 registers -> 4 blocks/SM -> 16/64 warps ~ 24% (Table III).
        res = occupancy(H100_SXM, 104, 128)
        assert res.blocks_per_sm == 4
        assert res.occupancy == pytest.approx(0.25)
        assert res.limiter == "registers"

    def test_low_register_kernel_reaches_full_occupancy(self):
        res = occupancy(H100_SXM, 32, 128)
        assert res.occupancy == pytest.approx(1.0)

    def test_warp_slot_limit(self):
        res = occupancy(H100_SXM, 16, 1024)
        # 32 warps/block -> at most 2 blocks by warp slots.
        assert res.blocks_per_sm == 2
        assert res.occupancy == pytest.approx(1.0)

    def test_register_granularity_rounds_up(self):
        a = occupancy(H100_SXM, 33, 128)
        b = occupancy(H100_SXM, 40, 128)
        assert a.blocks_per_sm == b.blocks_per_sm

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            occupancy(H100_SXM, 0, 128)
        with pytest.raises(ValueError):
            occupancy(H100_SXM, 32, 2048)

    def test_monstrous_kernel_rejected(self):
        with pytest.raises(ValueError):
            occupancy(H100_SXM, 600, 1024)

    @given(st.integers(16, 256), st.sampled_from([64, 128, 256]))
    @settings(max_examples=40)
    def test_occupancy_bounds_property(self, regs, tpb):
        # regs <= 256 with <= 256-thread blocks always fits at least one
        # block per SM (256 regs x 256 threads = exactly the register file).
        res = occupancy(H100_SXM, regs, tpb)
        assert 0.0 < res.occupancy <= 1.0
        assert res.active_warps_per_sm <= H100_SXM.max_warps_per_sm


class TestWarpUtilization:
    def test_line_kernel_degrades_below_warp_width(self):
        p = KERNEL_PROFILES["CalculateFluxes"]
        wu32 = warp_utilization(p, 32, 32)
        wu16 = warp_utilization(p, 16, 32)
        wu8 = warp_utilization(p, 8, 32)
        assert wu32 > wu16 > wu8
        # Paper: 94.1% at B32, 67.6% at B16.
        assert wu32 == pytest.approx(0.95, abs=0.02)
        assert wu16 == pytest.approx(0.68, abs=0.05)

    def test_flat_kernel_unaffected(self):
        p = KERNEL_PROFILES["WeightedSumData"]
        assert warp_utilization(p, 8, 32) == warp_utilization(p, 32, 32)


class TestGPUModel:
    def _launch(self, cells, block_nx, name="CalculateFluxes"):
        return make_launch(
            name, ExecutionSpace.CUDA, cells=cells, block_nx=block_nx
        )

    def test_duration_includes_launch_overhead(self):
        model = GPUModel()
        tiny = self._launch(cells=8, block_nx=8)
        assert model.kernel_duration(tiny) >= model.cal.launch_overhead_s

    def test_more_work_takes_longer(self):
        model = GPUModel()
        small = self._launch(cells=32**3, block_nx=32)
        big = self._launch(cells=8 * 32**3, block_nx=32)
        assert model.kernel_duration(big) > model.kernel_duration(small)

    def test_small_blocks_hurt_per_cell_throughput(self):
        """The Fig. 1(c) mechanism: same total cells, smaller blocks ->
        lower parallel efficiency -> more time per cell."""
        model = GPUModel()
        cells = 64**3
        t32 = model.kernel_duration(self._launch(cells, 32))
        t8 = model.kernel_duration(self._launch(cells, 8))
        assert t8 > t32

    def test_parallelism_saturates_for_huge_launches(self):
        model = GPUModel()
        huge = self._launch(cells=512**3, block_nx=32)
        assert model.parallelism_efficiency(huge) == pytest.approx(1.0)

    def test_issue_penalty_for_wasted_warps(self):
        model = GPUModel()
        flux = KERNEL_PROFILES["CalculateFluxes"]
        copy = KERNEL_PROFILES["WeightedSumData"]
        assert model.issue_efficiency(flux) < model.issue_efficiency(copy)

    def test_metrics_shape_matches_table3(self):
        model = GPUModel()
        m = model.kernel_metrics(self._launch(cells=128**3, block_nx=32))
        assert m.sm_occupancy == pytest.approx(0.25)
        assert 0.0 < m.sm_utilization <= 1.0
        assert 0.0 < m.bw_utilization <= 1.0
        assert 3.0 < m.arithmetic_intensity < 5.0

    def test_aggregate_weighs_by_duration(self):
        model = GPUModel()
        launches = [
            self._launch(cells=16**3, block_nx=16),
            self._launch(cells=64**3, block_nx=16),
        ]
        agg = model.aggregate_metrics(launches)
        assert set(agg) == {"CalculateFluxes"}
        total = sum(model.kernel_duration(l) for l in launches)
        assert agg["CalculateFluxes"].duration_s == pytest.approx(total)


class TestCPUModel:
    def test_simd_efficiency_improves_with_block(self):
        assert simd_efficiency(32) > simd_efficiency(16) > simd_efficiency(8)

    def test_simd_efficiency_bounds(self):
        for nx in (1, 7, 8, 33, 256):
            assert 0.0 <= simd_efficiency(nx) < 1.0
        with pytest.raises(ValueError):
            simd_efficiency(0)

    def test_throughput_scales_with_cores(self):
        model = CPUModel()
        t1 = model.attainable_gflops(1, 32)
        t96 = model.attainable_gflops(96, 32)
        assert t96 == pytest.approx(96 * t1)

    def test_core_bounds_enforced(self):
        model = CPUModel()
        with pytest.raises(ValueError):
            model.attainable_gflops(0, 32)
        with pytest.raises(ValueError):
            model.attainable_gflops(97, 32)

    def test_kernel_duration_decreases_with_cores(self):
        model = CPUModel()
        launch = make_launch(
            "CalculateFluxes", ExecutionSpace.HOST_OPENMP,
            cells=128**3, block_nx=16,
        )
        t4 = model.kernel_duration(launch, 4)
        t48 = model.kernel_duration(launch, 48)
        assert t48 < t4 / 4

    def test_memory_bound_kernel_limited_by_bandwidth(self):
        model = CPUModel()
        launch = make_launch(
            "WeightedSumData", ExecutionSpace.HOST_OPENMP,
            cells=128**3, block_nx=16,
        )
        t48 = model.kernel_duration(launch, 48)
        t96 = model.kernel_duration(launch, 96)
        # Bandwidth-bound: doubling cores past saturation gains little.
        assert t96 > t48 * 0.6


class TestCPUBandwidthSharing:
    def test_aggregate_bandwidth_never_exceeds_socket(self):
        """96 concurrent ranks must collectively draw at most the node's
        effective bandwidth (the bug this guards: per-rank caps that let
        the aggregate exceed the socket)."""
        model = CPUModel()
        launch = make_launch(
            "WeightedSumData", ExecutionSpace.HOST_OPENMP,
            cells=128**3 // 96, block_nx=16,
        )
        t = model.kernel_duration(launch, ncores=1, total_ranks=96)
        dram = launch.bytes * model.cal.cache_traffic_factor
        per_rank_bw = dram / (t - model.cal.dispatch_overhead_s)
        aggregate = per_rank_bw * 96
        effective = model.spec.memory_bw_gbs * 1e9 * model.cal.mem_efficiency
        assert aggregate <= effective * 1.01

    def test_few_ranks_capped_below_aggregate(self):
        """A single rank cannot saturate the memory controllers."""
        model = CPUModel()
        launch = make_launch(
            "WeightedSumData", ExecutionSpace.HOST_OPENMP,
            cells=64**3, block_nx=16,
        )
        t1 = model.kernel_duration(launch, ncores=1, total_ranks=1)
        t96 = model.kernel_duration(launch, ncores=96, total_ranks=96)
        assert t1 > t96

    def test_platform_balance_matches_fig1b(self):
        """The calibration anchor: CalculateFluxes throughput ratio between
        the modeled H100 and the modeled 96-core SPR is ~2-4x (Fig. 1b's
        block-32 advantage)."""
        gpu = GPUModel()
        cpu = CPUModel()
        cells = 128**3
        launch_gpu = make_launch(
            "CalculateFluxes", ExecutionSpace.CUDA, cells=cells, block_nx=32
        )
        launch_cpu = make_launch(
            "CalculateFluxes", ExecutionSpace.HOST_OPENMP,
            cells=cells // 96, block_nx=32,
        )
        t_gpu = gpu.kernel_duration(launch_gpu)
        t_cpu = cpu.kernel_duration(launch_cpu, ncores=1, total_ranks=96)
        assert 1.5 < t_cpu / t_gpu < 5.0


class TestDivergenceMemoryCoupling:
    def test_bw_utilization_falls_with_block_size(self):
        """Table III: CalculateFluxes BW utilization 18.5% (B32) ->
        11.2% (B16)."""
        model = GPUModel()
        m32 = model.kernel_metrics(
            make_launch("CalculateFluxes", ExecutionSpace.CUDA,
                        cells=64**3, block_nx=32)
        )
        m16 = model.kernel_metrics(
            make_launch("CalculateFluxes", ExecutionSpace.CUDA,
                        cells=64**3, block_nx=16)
        )
        assert m32.bw_utilization > m16.bw_utilization
        assert m32.bw_utilization == pytest.approx(0.185, abs=0.05)
        assert m16.bw_utilization == pytest.approx(0.112, abs=0.05)


class TestRoofline:
    def test_low_intensity_is_memory_bound(self):
        pt = roofline_point(H100_SXM, 5.0)
        assert pt.memory_bound
        assert pt.attainable_flops == pytest.approx(5.0 * 3.35e12)

    def test_high_intensity_is_compute_bound(self):
        pt = roofline_point(H100_SXM, 50.0)
        assert not pt.memory_bound
        assert pt.attainable_flops == H100_SXM.peak_fp64_flops

    def test_vibe_kernels_are_memory_bound(self):
        # Paper: kernels average 5.0-5.4 FLOPs/byte vs balance 10.1.
        assert roofline_point(H100_SXM, 5.4).memory_bound

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            roofline_point(H100_SXM, -1.0)


class TestOpcodeModel:
    def test_vector_share_anchors(self):
        from repro.hardware.opcode import OpcodeModel

        m = OpcodeModel()
        f32 = m.kernel_mix(32, 1e6).fraction("vector")
        f16 = m.kernel_mix(16, 1e6).fraction("vector")
        assert f32 == pytest.approx(0.63, abs=0.04)
        assert f16 == pytest.approx(0.52, abs=0.04)
        assert f32 > f16

    def test_serial_mix_load_store_share(self):
        from repro.hardware.opcode import OpcodeModel

        m = OpcodeModel()
        s = m.serial_mix(1e6)
        ls = s.fraction("load") + s.fraction("store")
        assert 0.39 <= ls <= 0.41  # the paper's 39-41%

    def test_total_mix_dominated_by_kernel(self):
        from repro.hardware.opcode import OpcodeModel

        m = OpcodeModel()
        kernel = m.kernel_mix(32, 1e9)
        serial = m.serial_mix(1e6)
        total = m.total_mix(kernel, serial)
        assert total.fraction("vector") == pytest.approx(
            kernel.fraction("vector"), abs=0.01
        )

    def test_fractions_sum_to_one(self):
        from repro.hardware.opcode import CATEGORIES, OpcodeModel

        m = OpcodeModel()
        mix = m.kernel_mix(16, 1e5)
        assert sum(mix.fraction(c) for c in CATEGORIES) == pytest.approx(1.0)

    def test_zero_counts_rejected(self):
        from repro.hardware.opcode import OpcodeModel

        with pytest.raises(ValueError):
            OpcodeModel._normalize({c: 0.0 for c in ("vector", "load")})
