"""The bracketed root finder."""

import math

import pytest

from capreturn.optimize import _bracketed_root


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
