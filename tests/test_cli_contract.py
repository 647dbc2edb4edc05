"""The CLI's contract over generated inputs: every run either prints finite
numbers and exits 0, or prints one error line and exits 1. Generated
scenario documents also check the paper's IRR claim: an investment-free
cycle's IRR does not depend on the order of its path."""

import contextlib
import io
import json
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
    amounts of magnitude 10^U(-150, 150) with both signs present."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    degree = draw(st.integers(1, 99))
    interior = draw(st.lists(st.integers(1, degree - 1), max_size=10)) if degree > 1 else []
    exponents = [0, *sorted(set(interior)), degree]
    magnitudes = draw(st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
                               min_size=len(exponents), max_size=len(exponents)))
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
    # Descartes' rule for exponential sums: no more real rates than sign changes.
    sign_changes = int(np.count_nonzero(np.diff(np.sign(amounts))))
    assert len(REAL_ROOT.findall(out)) <= sign_changes, (out, text)
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


def _run(argv):
    """Exit status, stdout and stderr of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    return status, stdout.getvalue(), stderr.getvalue()


RATES = st.floats(-0.05, 0.15)


@st.composite
def paths(draw, tau):
    """A path JSON object defined on at least ``[0, tau]``: constant, sin²
    or tabulated, wrapped in up to 2 reversals."""
    kind = draw(st.sampled_from(["constant", "sin_squared", "tabulated"]))
    if kind == "constant":
        path, lo, hi = {"kind": "constant", "rate": draw(RATES)}, -math.inf, math.inf
    elif kind == "sin_squared":
        cycle = tau * draw(st.floats(1.0, 3.0))
        path = {"kind": "sin_squared", "mean_rate": draw(RATES),
                "shape": draw(st.floats(0.0, 1.0)), "full_cycle": cycle}
        lo, hi = 0.0, cycle
    else:
        inner = draw(st.lists(st.integers(1, 99), unique=True, max_size=4))
        times = [0.0, *(k * tau / 100 for k in sorted(inner)), tau * draw(st.floats(1.0, 2.0))]
        path = {"kind": "tabulated", "knots": [[t, draw(RATES)] for t in times]}
        lo, hi = 0.0, times[-1]
    for _ in range(draw(st.integers(0, 2))):
        if math.isinf(lo):
            horizon = draw(st.floats(0.0, 2.0 * tau))
        else:  # [horizon - hi, horizon - lo] must still hold [0, tau]
            horizon = lo + tau + draw(st.floats(0.0, 1.0)) * (hi - lo - tau)
        path = {"kind": "reversed", "inner": path, "horizon": horizon}
        lo, hi = horizon - hi, horizon - lo
    return path


@st.composite
def documents(draw, events=True):
    """A scenario document: rotation 1 to 100 years, ``quadrature_intervals``
    16 to 1024, and in about a quarter of documents (when ``events``) 0 to 4
    investments or divestments strictly inside the rotation."""
    tau = draw(st.floats(1.0, 100.0))
    doc = {"K0": draw(st.floats(0.1, 10.0)), "tau": tau, "path": draw(paths(tau)),
           "quadrature_intervals": draw(st.integers(16, 1024))}
    if events and draw(st.integers(0, 3)) == 0:
        times = sorted(draw(st.lists(st.integers(1, 99), unique=True, max_size=4)))
        doc["investments"] = [{"time": k * tau / 100, "amount": draw(st.floats(-2.0, 2.0))}
                              for k in times]
    return doc


def _flag_values(draw, flag, values):
    """1 or 2 ``flag=value`` arguments, or none in one draw of eight.
    ``--L -1e-05`` would read as two options, so every value is joined."""
    count = draw(st.sampled_from([0, 1, 1, 1, 1, 2, 2, 2]))
    return [f"{flag}={v!r}" for v in draw(st.lists(values, min_size=count, max_size=count))]


@st.composite
def command_flags(draw, name, steps):
    """The flags of ``name`` after ``--scenario``: metrics (sweep) or an
    objective (optimize), 0 to 2 values each of --d and --u, --L, and
    ``steps`` grid points."""
    flags = [f"--tau-steps={steps}",
             *_flag_values(draw, "--d", st.floats(0.001, 0.2)),
             *_flag_values(draw, "--u", st.floats(-0.05, 0.2)),
             f"--L={draw(st.floats(-1.0, 4.0))!r}"]
    if name == "sweep":
        metrics = draw(st.lists(st.sampled_from(["irr", "rroc", "npv", "rroe", "omega"]),
                                min_size=1, max_size=5, unique=True))
        return [f"--metrics={','.join(metrics)}", *flags]
    objective = draw(st.sampled_from(["rroc", "irr", "npv", "rroe"]))
    return [f"--objective={objective}", *flags]


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "scenario.json"


@pytest.mark.parametrize("name", ["sweep", "optimize"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=documents(), steps=st.integers(2, 8), data=st.data())
def test_documents_print_finite_rows_or_one_error_line(scenario_file, name, doc, steps, data):
    flags = data.draw(command_flags(name, steps))
    scenario_file.write_text(json.dumps(doc))
    status, out, err = _run([name, f"--scenario={scenario_file}", *flags])
    event(f"exit {status}")
    if status == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"capreturn {name}: error: "), err
        return
    assert status == 0 and err == ""
    body = [line for line in out.splitlines() if not line.startswith("#")]
    if name == "sweep":
        assert len(body) == 1 + steps  # header and one row per grid point
        body = body[1:]
    for value in NUMBER.findall("\n".join(body)):
        assert math.isfinite(float(value)), out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=documents(events=False), steps=st.integers(2, 8))
def test_irr_at_the_horizon_ignores_the_path_order(scenario_file, doc, steps):
    # Reversed at h = tau, the path keeps its time average over [0, tau],
    # which is the cycle's IRR. The absolute floor is rounding level for
    # an average that cancels to nearly 0.
    reversed_doc = {**doc, "path": {"kind": "reversed", "inner": doc["path"],
                                    "horizon": doc["tau"]}}
    cells = []
    for scenario in (doc, reversed_doc):
        scenario_file.write_text(json.dumps(scenario))
        status, out, err = _run(["sweep", f"--scenario={scenario_file}", "--metrics=irr",
                                 f"--tau-steps={steps}"])
        assert status == 0 and err == "", err
        header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
        cells.append(float(rows[-1].split(",")[header.split(",").index("irr")]))
    event("exit 0")
    assert math.isclose(*cells, rel_tol=1e-8, abs_tol=1e-15), (cells, doc)
