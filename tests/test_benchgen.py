"""Tests for the synthetic benchmark generator and suite definitions."""

import pytest

from repro.benchgen import (
    SyntheticSpec,
    generate_design,
    iccad2017_suite,
    ispd2015_suite,
)


def small_spec(**overrides):
    base = dict(
        name="t",
        cells_by_height={1: 120, 2: 12, 3: 6, 4: 4},
        density=0.55,
        seed=5,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateDesign:
    def test_cell_counts_match_spec(self):
        design = generate_design(small_spec())
        by_height = {}
        for cell in design.cells:
            by_height[cell.cell_type.height] = (
                by_height.get(cell.cell_type.height, 0) + 1
            )
        assert by_height == {1: 120, 2: 12, 3: 6, 4: 4}

    def test_density_near_target(self):
        design = generate_design(small_spec(density=0.6))
        assert 0.45 <= design.density() <= 0.65

    def test_deterministic(self):
        a = generate_design(small_spec())
        b = generate_design(small_spec())
        assert [c.name for c in a.cells] == [c.name for c in b.cells]
        assert list(a.gp_x) == list(b.gp_x)
        assert a.num_rows == b.num_rows

    def test_seed_changes_design(self):
        a = generate_design(small_spec(seed=1))
        b = generate_design(small_spec(seed=2))
        assert list(a.gp_x) != list(b.gp_x)

    def test_fences_generated_and_capacity_bounded(self):
        design = generate_design(small_spec(num_fences=2))
        assert len(design.fences) >= 1
        for fence in design.fences:
            capacity = sum(r.area for r in fence.rects)
            used = sum(
                c.cell_type.width * c.cell_type.height
                for c in design.cells
                if c.fence_id == fence.fence_id
            )
            assert used <= 0.9 * capacity

    def test_rails_and_pins(self):
        design = generate_design(small_spec(with_rails=True, num_io_pins=5))
        assert design.rails.rails
        assert len(design.rails.io_pins) == 5
        assert any(ct.pins for ct in design.technology.cell_types)

    def test_netlist_generated(self):
        design = generate_design(small_spec(nets_per_cell=0.5))
        assert len(design.netlist) == design.num_cells // 2
        for net in design.netlist:
            assert 2 <= len(net.pins) <= 5

    def test_edge_rules(self):
        design = generate_design(small_spec(with_edge_rules=True))
        assert len(design.technology.edge_spacing) > 0

    def test_double_height_halved(self):
        design = generate_design(
            small_spec(double_height_halved=True, cells_by_height={1: 50, 2: 10})
        )
        singles = [ct for ct in design.technology.cell_types if ct.height == 1]
        doubles = [ct for ct in design.technology.cell_types if ct.height == 2]
        assert max(d.width for d in doubles) <= max(s.width for s in singles) // 2

    def test_validates(self):
        design = generate_design(small_spec(num_fences=2, with_rails=True))
        design.validate()  # must not raise

    @pytest.mark.parametrize("field", ["density", "fence_utilization"])
    @pytest.mark.parametrize("value", [0.0, -0.2, 1.3, float("nan")])
    def test_rejects_fill_outside_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=field) as error:
            small_spec(**{field: value})
        assert repr(value) in str(error.value)

    def test_accepts_full_fill(self):
        spec = small_spec(density=1.0, fence_utilization=1.0)
        assert spec.density == 1.0

    def test_gp_positions_inside_chip(self):
        design = generate_design(small_spec())
        for cell in range(design.num_cells):
            ct = design.cell_type_of(cell)
            assert 0 <= design.gp_x[cell] <= design.num_sites - ct.width
            assert 0 <= design.gp_y[cell] <= design.num_rows - ct.height


class TestSuites:
    def test_iccad_suite_complete(self):
        cases = iccad2017_suite(scale=0.002)
        assert len(cases) == 16  # every Table 1 row
        names = {case.name for case in cases}
        assert "des_perf_1" in names
        assert "pci_bridge32_b_md3" in names

    def test_ispd_suite_complete(self):
        cases = ispd2015_suite(scale=0.002)
        assert len(cases) == 20  # every Table 2 row
        names = {case.name for case in cases}
        assert "superblue19" in names and "fft_1" in names

    def test_name_filter(self):
        cases = iccad2017_suite(scale=0.002, names=["fft_a_md3"])
        assert len(cases) == 1

    def test_iccad_case_builds_with_rails_and_fences(self):
        case = iccad2017_suite(scale=0.002, names=["fft_a_md2"])[0]
        design = case.build()
        assert design.rails.rails
        assert design.fences

    def test_ispd_case_ten_percent_doubles(self):
        case = ispd2015_suite(scale=0.01, names=["fft_a"])[0]
        design = case.build()
        doubles = sum(1 for c in design.cells if c.cell_type.height == 2)
        assert doubles / design.num_cells == pytest.approx(0.10, abs=0.02)

    def test_superblue_gets_extra_scaling(self):
        big = ispd2015_suite(scale=0.002, names=["superblue12"])[0]
        normal = ispd2015_suite(scale=0.002, names=["matrix_mult_1"])[0]
        ratio_big = big.spec.total_cells() / 1287037
        ratio_normal = normal.spec.total_cells() / 155325
        assert ratio_big < ratio_normal
