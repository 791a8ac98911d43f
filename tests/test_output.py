import numpy as np
import pytest

from chemopattern.output import cell, fmt, series_text, trajectory_text, tsv
from chemopattern.planar import Trajectory
from chemopattern.simulator import Diagnostics


class TestCell:
    @pytest.mark.parametrize("value, text", [
        ("hexagon", "hexagon"), ("", ""), ("1.5", "1.5"),
        (True, "true"), (False, "false"),
        (np.bool_(True), "true"), (np.bool_(False), "false"),
        (0, "0"), (-7, "-7"), (2**64 - 1, "18446744073709551615"),
        (0.1, "0.10000000000000001"), (18.0, "18"), (-1 / 3, "-0.33333333333333331"),
        (np.float64(0.1), "0.10000000000000001"), (np.float64(-1e20), "-1e+20"),
        (np.float32(0.5), "0.5"),
    ])
    def test_text_of_each_kind_of_value(self, value, text):
        assert cell(value) == text

    def test_floats_round_trip_through_seventeen_digits(self):
        rng = np.random.default_rng(5)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
            assert cell(x) == fmt(x) and float(cell(x)) == x


class TestTsv:
    def test_rows_of_cells(self):
        rows = [("angle", "label", "y1", "y2"),
                (0.5, "unresolved", "", ""),
                (1.0, "roll", np.float64(-0.25), 3),
                ["is_circle", np.bool_(True)]]
        assert tsv(rows) == ("angle\tlabel\ty1\ty2\n"
                             "0.5\tunresolved\t\t\n"
                             "1\troll\t-0.25\t3\n"
                             "is_circle\ttrue\n")

    def test_no_rows_is_no_text(self):
        assert tsv([]) == ""

    def test_series_and_trajectory_tables(self):
        series = {(1, 1): np.array([0.1, 0.2]), (0, 2): np.array([0.0, -1.0])}
        diag = Diagnostics(np.array([0.0, 1.0]), series, np.array([1.0, 0.5]))
        assert series_text(diag) == ("t\tl2\ty_1_1\ty_0_2\n"
                                     "0\t1\t0.10000000000000001\t0\n"
                                     "1\t0.5\t0.20000000000000001\t-1\n")
        traj = Trajectory(np.array([0.0, 0.25]), np.array([[1e-3, 2e-3], [0.5, -0.5]]))
        assert trajectory_text(traj) == "t\ty1\ty2\n0\t0.001\t0.002\n0.25\t0.5\t-0.5\n"
