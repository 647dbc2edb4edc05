"""The shared rotation-length search and its bracketed root finder."""

import math

import numpy as np
import pytest

from capreturn import ConstantPath, DegenerateCapitalError, GrowthScenario
from capreturn.optimize import _bracketed_root, _first_order_argmax, _rounding


class TestFirstOrderArgmax:
    @pytest.mark.parametrize("spread, flat", [(0.0, True), (1e-13, True), (1e-10, False)])
    def test_a_curve_flat_to_rounding_gives_the_shortest_rotation(self, spread, flat):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))

        def curve(longest, grid):
            times = np.linspace(0.0, longest.rotation_length, 101)
            values = 0.05 + spread * times  # rising: the maximum is at 10
            return times, values, _rounding(values), lambda i, t, step, panel: 0.0

        # A curve that is not flat still rises at 10: the rate stays above
        # the threshold 0, so the best node's bracket [9.9, 10] holds no
        # root, and the best node, the last, is the result.
        assert _first_order_argmax(s, (10.0, 1.0), curve) == (1.0 if flat else 10.0)

    def test_the_gap_extends_the_last_node_by_one_panel(self):
        # Nodes at 0, 2, ..., 10 with the best at 10; the threshold
        # 0.05 * t / 9, built from node i and the panel's step, meets the
        # spot rate 0.05 at t = 9, inside the bracket [8, 10].
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        times = np.arange(0.0, 11.0, 2.0)
        seen = []

        def curve(longest, grid):
            values = np.linspace(0.0, 1.0, times.size)

            def threshold(i, t, step, panel):
                seen.append((int(i), t, step, tuple(panel)))
                return 0.05 * (times[i] + 2.0 * step) / 9.0

            return times, values, _rounding(values), threshold

        tau = _first_order_argmax(s, (10.0, 1.0), curve)
        assert tau == pytest.approx(9.0, abs=1e-8)
        # At a node the panel has width 0; between nodes it starts at the
        # last node at or before t.
        assert seen[:2] == [(4, 8.0, 0.0, (0.05,) * 3), (5, 10.0, 0.0, (0.05,) * 3)]
        assert len(seen) > 2
        assert all(i == 4 and 8.0 < t < 10.0 for i, t, _, _ in seen[2:])
        assert all(step == (t - times[i]) / 2.0 for i, t, step, _ in seen)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_value_not_finite_inside_the_grid_is_a_typed_error(self, bad):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))

        def curve_broken_at(node):
            def curve(longest, grid):
                times = np.arange(0.0, 11.0, 2.0)
                values = np.array([0.0, 0.0, 1.0, 0.5, 0.5, 0.0])
                values[node] = bad
                return times, values, _rounding(values), lambda i, t, step, panel: 0.0

            return curve

        with pytest.raises(DegenerateCapitalError, match="float range"):
            _first_order_argmax(s, (10.0, 1.0), curve_broken_at(3))
        # The node at t = 0 lies before the shortest rotation: no rotation
        # ends there, and its value is not read.
        assert _first_order_argmax(s, (10.0, 1.0), curve_broken_at(0)) == 4.0


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
