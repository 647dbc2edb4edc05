"""The CLI's contract over generated inputs: every run either prints finite
numbers and exits 0, or prints one error line and exits 1."""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from capreturn.cli import main

# Any number the CLI prints, nan and inf included.
NUMBER = re.compile(r"[-+]?(?:nan|inf|\d+(?:\.\d*)?(?:e[-+]?\d+)?)", re.IGNORECASE)
REAL_ROOT = re.compile(r"real root   : (\S+)  \(residual \S+\)")


@st.composite
def cash_flow_csvs(draw):
    """A headed ``time,amount`` CSV on a grid of step 0.25, 0.5 or 1: events
    at exponent 0, up to 10 interior exponents and the degree (1 to 99),
    amounts of magnitude 0.001 to 5 with both signs present."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    degree = draw(st.integers(1, 99))
    interior = draw(st.lists(st.integers(1, degree - 1), max_size=10)) if degree > 1 else []
    exponents = [0, *sorted(set(interior)), degree]
    magnitudes = draw(st.lists(st.floats(0.001, 5.0), min_size=len(exponents),
                               max_size=len(exponents)))
    negative = draw(st.lists(st.booleans(), min_size=len(exponents), max_size=len(exponents)))
    if len(set(negative)) == 1:
        flip = draw(st.integers(0, len(exponents) - 1))
        negative[flip] = not negative[flip]
    rows = [(k * step, -m if neg else m) for k, m, neg in zip(exponents, magnitudes, negative)]
    return "time,amount\n" + "".join(f"{t!r},{a!r}\n" for t, a in rows)


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "flows.csv"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=cash_flow_csvs())
def test_irr_prints_finite_roots_or_one_error_line(flows, text):
    flows.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(["irr", "--cashflows", str(flows)])
    out, err = stdout.getvalue(), stderr.getvalue()
    event(f"exit {status}")
    if status == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("capreturn irr: error: ")
        return
    assert status == 0 and err == ""
    for value in NUMBER.findall(out):
        assert math.isfinite(float(value)), out
    times, amounts = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2).T
    for line in out.splitlines():
        if (match := REAL_ROOT.fullmatch(line)) is None:
            continue
        rate = float(match.group(1))
        with np.errstate(over="ignore"):
            discounted = amounts * np.exp(-rate * times)
            value = abs(discounted.sum())
            scale = max(np.abs(amounts).sum(), np.abs(discounted).sum())
            # Printing the rate to 9 digits moves it by up to 5e-9 |r|.
            slope = abs((times * discounted).sum())
        assert value <= 1e-8 * scale + 5e-9 * abs(rate) * slope, (line, text)
