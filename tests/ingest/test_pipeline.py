"""End-to-end zoned builds: bit-parity, zone summaries, reports, metrics."""

import numpy as np
import pytest

from repro.browse.catalog import ZoneScatterGatherSummary
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.ingest import DatasetChunkSource, SyntheticChunkSource, build_zoned
from repro.obs import IngestInstrumentation


@pytest.fixture(scope="module")
def source():
    return SyntheticChunkSource("sp_skew", 4000, 512, seed=13)


@pytest.fixture(scope="module")
def grid(source):
    return Grid(source.extent, 60, 30)


@pytest.fixture(scope="module")
def direct(source, grid):
    return EulerHistogram.from_dataset(source.materialize(), grid)


class TestInlineParity:
    @pytest.mark.parametrize("zones", [1, 7, 64, 10**6])
    def test_zone_count_never_changes_the_histogram(self, source, grid, direct, zones):
        result = build_zoned(source, grid, zones=zones, workers=0)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
        assert result.histogram.num_objects == direct.num_objects

    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_curve_never_changes_the_histogram(self, source, grid, direct, curve):
        result = build_zoned(source, grid, zones=16, curve=curve)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())

    def test_tight_budget_spills_and_still_matches(self, source, grid, direct):
        shape = grid.lattice_shape
        builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
        memory_mb = max(1, int(np.ceil(2 * builder_mb)))
        result = build_zoned(
            source, grid, zones=64, memory_mb=memory_mb, keep_zone_summaries=True
        )
        assert result.report.spills > 0
        assert result.report.peak_accumulator_bytes <= result.report.budget_bytes
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())

    def test_plain_build_holds_one_builder_and_never_spills(
        self, source, grid, direct, monkeypatch
    ):
        # 64 zones under a budget of two builders: zones are only for
        # summaries, so a plain build allocates one builder and creates
        # no spill directory.
        def no_spill_dir(*args, **kwargs):
            raise AssertionError("a plain build must not create a spill directory")

        monkeypatch.setattr("tempfile.mkdtemp", no_spill_dir)
        shape = grid.lattice_shape
        builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * 8
        memory_mb = max(1, int(np.ceil(2 * builder_nbytes / (1 << 20))))
        result = build_zoned(source, grid, zones=64, memory_mb=memory_mb)
        assert result.report.spills == 0
        assert result.report.peak_accumulator_bytes == builder_nbytes
        assert result.zone_map is None
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())

    def test_budget_too_small_for_one_builder(self, grid):
        big = Grid(grid.extent, 2000, 2000)
        source = SyntheticChunkSource("sp_skew", 10, 10)
        with pytest.raises(ValueError, match="memory"):
            build_zoned(source, big, memory_mb=1)

    def test_dataset_source_parity(self, source, grid, direct):
        materialized = source.materialize()
        result = build_zoned(DatasetChunkSource(materialized, 700), grid, zones=32)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())


class TestReport:
    def test_report_accounts_for_every_chunk(self, source, grid):
        result = build_zoned(source, grid, zones=8)
        report = result.report
        assert report.chunks == source.num_chunks
        assert report.chunks_inline == source.num_chunks
        assert report.chunks_pool == report.chunks_replayed == 0
        assert report.workers == 0 and report.crashes == 0
        assert report.objects == 4000
        assert report.zones == 0 and report.curve is None
        assert report.objects_per_second > 0
        doc = report.to_dict()
        assert doc["objects"] == 4000 and doc["source"] == "sp_skew"

    def test_instruments_record_the_build(self, source, grid):
        obs = IngestInstrumentation()
        build_zoned(source, grid, zones=8, instruments=obs)
        assert obs.objects.labels(source="sp_skew").value == 4000
        assert obs.chunks.labels(source="sp_skew", path="inline").value == source.num_chunks
        assert obs.chunks.labels(source="sp_skew", path="pool").value == 0
        assert obs.peak_accumulator_bytes.labels(source="sp_skew").value > 0
        assert obs.objects_per_second.labels(source="sp_skew").value > 0


class TestZoneSummaries:
    def test_zone_histograms_sum_to_the_global(self, source, grid, direct):
        result = build_zoned(source, grid, zones=12, keep_zone_summaries=True)
        assert result.zone_histograms
        assert sum(h.num_objects for h in result.zone_histograms.values()) == 4000
        total = np.zeros(grid.lattice_shape, dtype=np.int64)
        for hist in result.zone_histograms.values():
            assert hist.grid == grid
            total = total + hist.buckets()
        np.testing.assert_array_equal(total, direct.buckets())

    def test_scatter_gather_summary_is_bit_identical(self, source, grid, direct):
        result = build_zoned(source, grid, zones=12, keep_zone_summaries=True)
        summary = ZoneScatterGatherSummary(result.zone_histograms, grid)
        assert summary.num_objects == direct.num_objects
        assert summary.total_sum == direct.total_sum
        assert summary.num_zones == len(result.zone_histograms)
        rng = np.random.default_rng(3)
        for _ in range(25):
            qx = np.sort(rng.integers(0, grid.n1 + 1, size=2))
            qy = np.sort(rng.integers(0, grid.n2 + 1, size=2))
            if qx[0] == qx[1] or qy[0] == qy[1]:
                continue
            region = TileQuery(int(qx[0]), int(qx[1]), int(qy[0]), int(qy[1]))
            assert summary.intersect_count(region) == direct.intersect_count(region)
            assert summary.closed_region_sum(region) == direct.closed_region_sum(region)
            assert summary.outside_sum(region) == direct.outside_sum(region)
            assert summary.contained_count(region) == direct.contained_count(region)

    def test_summary_feeds_s_euler_estimator(self, source, grid, direct):
        result = build_zoned(source, grid, zones=6, keep_zone_summaries=True)
        summary = ZoneScatterGatherSummary(result.zone_histograms, grid)
        via_zones = SEulerApprox(summary)
        via_direct = SEulerApprox(direct)
        region = TileQuery(4, 40, 2, 20)
        assert via_zones.estimate(region) == via_direct.estimate(region)
        service = summary.service()
        try:
            assert service.estimator_name == via_direct.name
        finally:
            service.close()

    def test_summary_rejects_grid_mismatch(self, source, grid):
        result = build_zoned(source, grid, zones=4, keep_zone_summaries=True)
        other = Grid(grid.extent, grid.n1, grid.n2 * 2)
        with pytest.raises(ValueError, match="different grid"):
            ZoneScatterGatherSummary(result.zone_histograms, other)


class TestSpillDirOwnership:
    def test_caller_provided_dir_is_kept_but_cleaned(self, source, grid, tmp_path):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        keep = spill_dir / "unrelated.npz"
        keep.write_bytes(b"not ours")
        shape = grid.lattice_shape
        builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
        result = build_zoned(
            source,
            grid,
            zones=64,
            memory_mb=max(1, int(np.ceil(2 * builder_mb))),
            spill_dir=spill_dir,
            keep_zone_summaries=True,
        )
        assert result.report.spills > 0
        assert spill_dir.is_dir()
        assert list(spill_dir.glob("*.npz")) == [keep]
