"""The shared rotation-length search and its bracketed root finder."""

import math

import numpy as np
import pytest

from capreturn import ConstantPath, GrowthScenario
from capreturn.optimize import _bracketed_root, _first_order_argmax, _rounding


class TestFirstOrderArgmax:
    @pytest.mark.parametrize("spread, flat", [(0.0, True), (1e-13, True), (1e-10, False)])
    def test_a_curve_flat_to_rounding_gives_the_shortest_rotation(self, spread, flat):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        calls = []

        def curve(longest, grid):
            times = np.linspace(0.0, longest.rotation_length, 101)
            values = 0.05 + spread * times  # rising: the maximum is at 10
            return times, values, _rounding(values)

        def objective(rotation):
            calls.append(rotation.rotation_length)
            return 0.05, 0.05

        tau, value = _first_order_argmax(s, (10.0, 1.0), curve, objective)
        assert (tau == 1.0) == flat
        assert value == 0.05
        assert (calls == [1.0]) == flat  # otherwise the best node's bracket is searched


class TestBracketedRoot:
    def test_smooth_root_to_tolerance(self):
        calls = []

        def f(x):
            calls.append(x)
            return x**3 - 2.0

        root = _bracketed_root(f, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
        assert root in calls
        assert len(calls) < 20

    def test_either_orientation(self):
        root = _bracketed_root(math.cos, 3.0, 1.0, 1e-12)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_same_sign_ends_bracket_nothing(self):
        assert _bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9) is None

    def test_root_at_an_end(self):
        assert _bracketed_root(lambda x: x - 1.0, 1.0, 3.0, 1e-9) == 1.0
        assert _bracketed_root(lambda x: x - 3.0, 1.0, 3.0, 1e-9) == 3.0

    def test_step_function_falls_back_to_bisection(self):
        calls = []

        def f(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        root = _bracketed_root(f, 0.0, 1.0, 1e-9)
        assert root == pytest.approx(0.3, abs=1e-9)
        assert len(calls) <= 40
