"""Checks of capreturn outputs against values computed apart from it.

Nothing here imports capreturn. Every expected value comes from a closed
form, an independent numerical computation, or a property the method
must have; no stored copy of an earlier output is compared against.
Each ``check_*`` function returns a list of problems, empty when the
output passes. Tolerances and their reasons are in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gen import cumulative_return

#: A CSV cell carries 9 significant digits: relative rounding <= 5e-9.
CELL = 2e-8
#: Simpson's rule over a panel of width 2h holding one kink of slope
#: change s errs by at most h^2 |s| / 6. Kink errors have random signs,
#: so the model adds them in quadrature; the checks allow five times it.
KINK_MARGIN = 5.0
KNOWN_FAULT = "root iteration did not converge"


def _close(actual: float, expected: float, tol: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= tol


# -- sweep ---------------------------------------------------------------


def sin_squared_mean(spec: dict, tau: np.ndarray) -> np.ndarray:
    """Time-average rate over [0, tau] in closed form, for the hump and
    for its reversed twin (the hump's window [T - tau, T], T = spec tau)."""
    m, s, c = spec["mean_rate"], spec["shape"], spec["full_cycle"]
    k = 2.0 * math.pi / c
    if spec["kind"] == "forward":
        return m * (s + (1.0 - s) * (1.0 - np.sin(k * tau) / (k * tau)))
    horizon = spec["tau"]
    window = (np.sin(k * horizon) - np.sin(k * (horizon - tau))) / (k * tau)
    return m * (s + (1.0 - s) * (1.0 - window))


def _sin_squared_rate(spec: dict, t: np.ndarray) -> np.ndarray:
    m, s, c = spec["mean_rate"], spec["shape"], spec["full_cycle"]
    x = t if spec["kind"] == "forward" else spec["tau"] - t
    return m * (s + 2.0 * (1.0 - s) * np.sin(math.pi * x / c) ** 2)


def midpoint_rroc(spec: dict, tau: float, nodes: int = 2000) -> float:
    """Integral of K*r over integral of K on [0, tau], K = K0 exp(R), by
    the midpoint rule at ``nodes`` and ``2 * nodes`` cells, Richardson
    extrapolated. R is the closed-form integral of the rate."""
    def midpoint(n):
        t = (np.arange(n) + 0.5) * (tau / n)
        capital = spec["K0"] * np.exp(t * sin_squared_mean(spec, t))
        return np.sum(capital * _sin_squared_rate(spec, t)), np.sum(capital)

    (p1, k1), (p2, k2) = midpoint(nodes), midpoint(2 * nodes)
    # The cell widths (tau/n) cancel in the ratio.
    return ((4.0 * p2 / 2.0 - p1) / 3.0) / ((4.0 * k2 / 2.0 - k1) / 3.0)


def rotation_sum_npv(k0: float, tau: float, mean: float, d: float) -> float:
    """Each rotation k invests K0 at k*tau and is sold for K0 exp(mean*tau)
    at (k+1)*tau; discounted at d and summed until terms vanish."""
    count = int(math.ceil(40.0 * math.log(10.0) / (d * tau))) + 1
    starts = np.arange(count) * tau
    terms = np.exp(-d * starts) * k0 * (np.exp((mean - d) * tau) - 1.0)
    return float(np.sum(terms[::-1]))


def _parse_sweep(text: str):
    lines = text.split("\n")
    if len(lines) < 3 or not lines[0].startswith("# scenario ") or not lines[1].startswith("# settings "):
        raise ValueError("missing provenance lines")
    settings = json.loads(lines[1][len("# settings "):])
    table = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    return settings, table[0], [[float(cell) for cell in row] for row in table[1:] if row]


def check_sweep(spec: dict, text: str) -> list[str]:
    try:
        settings, header, rows = _parse_sweep(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable sweep output: {exc}"]
    d, u, lev = spec["d"], spec["u"], spec["L"]
    want = (["tau", "mean_rate", "irr", "rroc"] + [f"npv_d{x:g}" for x in d]
            + [f"rroe_u{x:g}" for x in u] + [f"omega_u{x:g}" for x in u])
    problems = []
    if header != want:
        return [f"columns {header} != {want}"]
    if settings.get("d") != d or settings.get("u") != u or settings.get("L") != lev:
        problems.append(f"settings {settings} do not echo the requested rates")
    if len(rows) != spec["rows"]:
        return problems + [f"{len(rows)} rows, expected {spec['rows']}"]

    table = np.array(rows)
    grid = np.linspace(spec["tau"] / spec["rows"], spec["tau"], spec["rows"])
    if not np.allclose(table[:, 0], grid, rtol=CELL, atol=0.0):
        problems.append("tau column is not the default grid")
    means = sin_squared_mean(spec, grid)
    col = {name: table[:, i] for i, name in enumerate(header)}
    for i, tau in enumerate(grid):
        where = f"{spec['kind']} tau={tau:.6g}"
        mean = col["mean_rate"][i]
        if not _close(mean, means[i], CELL * abs(means[i])):
            problems.append(f"{where}: mean_rate {mean!r} != closed form {means[i]!r}")
        if not _close(col["irr"][i], mean, CELL * abs(mean)):
            problems.append(f"{where}: irr {col['irr'][i]!r} != mean_rate {mean!r}")
        rroc = col["rroc"][i]
        ref = midpoint_rroc(spec, tau)
        if not _close(rroc, ref, CELL * abs(ref)):
            problems.append(f"{where}: rroc {rroc!r} != midpoint {ref!r}")
        for rate in d:
            got = col[f"npv_d{rate:g}"][i]
            ref = rotation_sum_npv(spec["K0"], tau, means[i], rate)
            if not _close(got, ref, CELL * abs(ref) + 1e-10 * spec["K0"]):
                problems.append(f"{where}: npv_d{rate:g} {got!r} != rotation sum {ref!r}")
        for rate in u:
            got = col[f"rroe_u{rate:g}"][i]
            ref = rroc + lev * (rroc - rate)
            if not _close(got, ref, CELL * (abs(ref) + (1.0 + 2.0 * lev) * abs(rroc) + lev * abs(rate))):
                problems.append(f"{where}: rroe_u{rate:g} {got!r} != rroc + L(rroc - u) {ref!r}")
            omega = col[f"omega_u{rate:g}"][i]
            equity = ((1.0 + lev) * math.exp(means[i] * tau)
                      - lev * math.exp(rate * tau)) * math.exp(-omega * tau) - 1.0
            if not _close(equity, 0.0, tau * (CELL * abs(omega) + 1e-12)):
                problems.append(f"{where}: omega_u{rate:g} {omega!r} leaves equity value {equity:.3e}")
    return problems


# -- events ----------------------------------------------------------------


class ExactPath:
    """The scenario's piecewise-linear path and events, integrated exactly."""

    def __init__(self, doc: dict):
        knots = np.array(doc["path"]["knots"], dtype=float)
        self.times, self.rates = knots[:, 0], knots[:, 1]
        self.tau = float(doc["tau"])
        self.k0 = float(doc["K0"])
        self.events = [(e["time"], e["amount"]) for e in doc.get("investments", [])]

    def capital(self, t: float) -> float:
        """K(t) by exponential stepping across the events (post-jump at
        an event time)."""
        capital, previous = self.k0, 0.0
        for when, amount in self.events:
            if when > t:
                break
            capital *= math.exp(self._span(previous, when))
            capital += amount
            previous = when
        return capital * math.exp(self._span(previous, t))

    def capital_on(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K at the grid times after and before any event there, from
        K(t) = (K0 + sum of the amounts discounted to time 0) * exp(R(t))."""
        event_times = np.array([t for t, _ in self.events])
        event_returns = cumulative_return(self.times, self.rates, event_times)
        bases = self.k0 + np.concatenate(([0.0], np.cumsum(
            np.array([a for _, a in self.events]) * np.exp(-event_returns))))
        growth = np.exp(cumulative_return(self.times, self.rates, grid))
        return (bases[np.searchsorted(event_times, grid, side="right")] * growth,
                bases[np.searchsorted(event_times, grid, side="left")] * growth)

    def weighted(self, ages, density, nodes: int = 200_000):
        """Integrals of K*w, K*r*w and r*w over the rotation for the
        piecewise-linear age density w through (ages, density), and the
        largest capital. Trapezoid rule on a fine grid holding every knot
        and event time, so each cell is smooth; at an event the cell to
        its left uses the pre-jump capital and the cell to its right the
        post-jump capital."""
        grid = np.unique(np.concatenate((
            np.linspace(0.0, self.tau, nodes + 1), self.times, ages,
            [t for t, _ in self.events])))
        grid = grid[(grid >= 0.0) & (grid <= self.tau)]
        after, before = self.capital_on(grid)
        rate = np.interp(grid, self.times, self.rates)
        w = np.interp(grid, ages, density, left=0.0, right=0.0)

        def trapezoid(left, right):
            return float(np.sum(np.diff(grid) * (left[:-1] + right[1:]) / 2.0))

        return (trapezoid(after * w, before * w),
                trapezoid(after * rate * w, before * rate * w),
                trapezoid(rate * w, rate * w),
                float(max(np.max(after), np.max(before))))

    def _span(self, a: float, b: float) -> float:
        ra, rb = cumulative_return(self.times, self.rates, [a, b])
        return float(rb - ra)

    def kink_error(self, intervals: int) -> float:
        """Model of Simpson's error on the integral of the rate at panel
        width tau/intervals: the kink bounds added in quadrature."""
        slopes = np.diff(self.rates) / np.diff(self.times)
        h = self.tau / intervals
        return KINK_MARGIN * h * h / 6.0 * math.sqrt(float(np.sum(np.diff(slopes) ** 2)))


def check_events(spec: dict, doc: dict, out: dict) -> list[str]:
    exact = ExactPath(doc)
    tau = exact.tau
    err = exact.kink_error(doc.get("quadrature_intervals", 4096))
    problems = []

    for t, got in zip(spec["probes"], out["capital"]):
        ref = exact.capital(t)
        if not _close(got, ref, err * abs(ref) + 1e-12):
            problems.append(f"capital_at({t:.6g}) {got!r} != exponential stepping {ref!r}")

    knots = np.array(doc["estate"]["ages"]["knots"], dtype=float)
    ages, weights = knots[:, 0], knots[:, 1]
    density = weights / float(np.sum(np.diff(ages) * (weights[1:] + weights[:-1]) / 2.0))
    capital_mass, profit_mass, rate_mass, k_max = exact.weighted(ages, density)

    k_tau = exact.capital(tau)
    amounts = [a for _, a in exact.events]
    gain = k_tau - exact.k0 - sum(amounts)
    # Bounds on the errors that err (on the integral of the rate) causes
    # in the capital and in the integrals weighted by it.
    r_max = float(np.max(np.abs(exact.rates)))
    if not _close(out["profit_rate"] * tau, gain, err * k_max * (1.0 + tau * r_max)):
        problems.append(
            f"profit_rate*tau {out['profit_rate'] * tau!r} != K(tau)-K0-sum(amounts) {gain!r}")
    if not _close(out["rroc"], out["profit_rate"] / out["capitalization"], 1e-12 * abs(out["rroc"])):
        problems.append("rroc != profit_rate / capitalization")

    uniform = out["uniform"]
    if not _close(uniform["estate_rroc"], out["rroc"], 1e-9 * abs(out["rroc"])):
        problems.append(f"uniform estate_rroc {uniform['estate_rroc']!r} != rroc {out['rroc']!r}")
    if not _close(uniform["estate_capitalization"], out["capitalization"],
                  1e-9 * abs(out["capitalization"])):
        problems.append("uniform estate_capitalization != expected capitalization")
    average = float(cumulative_return(exact.times, exact.rates, tau)) / tau
    if not _close(uniform["area_average_rate"], average, err / tau):
        problems.append(
            f"uniform area_average_rate {uniform['area_average_rate']!r} != time average {average!r}")

    w_max = float(np.max(density))
    tabulated = out["tabulated"]
    capital_tol = err * k_max
    profit_tol = err * k_max * (w_max + r_max)
    if not _close(tabulated["estate_capitalization"], capital_mass, capital_tol):
        problems.append(f"tabulated estate_capitalization {tabulated['estate_capitalization']!r}"
                        f" != fine trapezoid {capital_mass!r}")
    ref = profit_mass / capital_mass
    if not _close(tabulated["estate_rroc"], ref,
                  abs(ref) * (profit_tol / abs(profit_mass) + capital_tol / capital_mass)):
        problems.append(f"tabulated estate_rroc {tabulated['estate_rroc']!r} != fine trapezoid {ref!r}")
    if not _close(tabulated["area_average_rate"], rate_mass, err * w_max):
        problems.append(f"tabulated area_average_rate {tabulated['area_average_rate']!r}"
                        f" != fine trapezoid {rate_mass!r}")

    first, second = out["rroe_argmax"]
    grid = spec["grid"]
    if not grid[0] <= first <= grid[-1]:
        problems.append(f"rroe_argmax {first!r} outside the grid")
    if not _close(first, second, 1e-6 * tau):
        problems.append(f"rroe_argmax moves with the market rate: {first!r} vs {second!r}")
    return problems


# -- irr -----------------------------------------------------------------------


def sign_changes(amounts) -> int:
    signs = [a > 0 for a in amounts if a != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _parse_irr(text: str) -> dict:
    fields = {"real": []}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "real root":
            fields["real"].append(float(value.split()[0]))
        elif key == "principal":
            fields["principal"] = None if value.strip().startswith("none") else float(value)
        elif key == "poly degree":
            fields["degree"] = int(value)
        elif key == "complex":
            fields["complex"] = int(value)
        elif key == "base step":
            fields["step"] = float(value.split()[0])
    return fields


def numpy_real_rates(spec: dict) -> list[float]:
    """Real rates from ``np.roots`` on the same polynomial in
    x = exp(-rate * step): positive real roots, mapped back."""
    exponents = np.rint(np.array(spec["times"]) / spec["step"]).astype(int)
    coeffs = np.zeros(exponents.max() + 1)
    np.add.at(coeffs, exponents, spec["amounts"])
    roots = np.roots(coeffs[::-1])
    real = roots[(np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))) & (roots.real > 0.0)]
    return sorted(float(-math.log(x) / spec["step"]) for x in real.real)


def check_irr(spec: dict, ok: bool, text: str) -> list[str]:
    if not ok:
        if spec["known_fault"] and KNOWN_FAULT in text:
            return []
        return [f"{spec['file']} failed: {text.strip()[:200]}"]
    try:
        fields = _parse_irr(text)
        degree, complex_count, step = fields["degree"], fields["complex"], fields["step"]
    except (KeyError, ValueError) as exc:
        return [f"{spec['file']}: unreadable irr output: {exc}"]
    problems = []
    real = fields["real"]
    if degree != spec["degree"] or not _close(step, spec["step"], CELL * spec["step"]):
        problems.append(f"degree {degree} / step {step} != {spec['degree']} / {spec['step']}")
    if len(real) + complex_count != degree:
        problems.append(f"{len(real)} real + {complex_count} complex roots != degree {degree}")
    if len(real) > sign_changes(spec["amounts"]):
        problems.append(f"{len(real)} real roots exceed {sign_changes(spec['amounts'])} sign changes")
    times, amounts = np.array(spec["times"]), np.array(spec["amounts"])
    scale = float(np.sum(np.abs(amounts)))
    for rate in real:
        weights = amounts * np.exp(-rate * times)
        residual = abs(float(np.sum(weights)))
        # The printed root is rounded to 9 significant digits; allow the
        # first-order change of the residual over that rounding.
        rounding = abs(float(np.sum(times * weights))) * 5e-9 * abs(rate)
        if not residual <= 1e-8 * scale + rounding:
            problems.append(f"root {rate!r} leaves residual {residual:.3e}")
    principal = min(real, key=lambda r: (abs(r), r < 0)) if real else None
    if fields.get("principal", "missing") != principal:
        problems.append(f"principal {fields.get('principal')!r} is not the smallest real root")
    if degree <= 100:
        reference = numpy_real_rates(spec)
        if len(reference) != len(real) or not all(
            _close(a, b, 1e-6 * (1.0 + abs(b))) for a, b in zip(real, reference)
        ):
            problems.append(f"real roots {real} != np.roots {reference}")
    return [f"{spec['file']}: {p}" for p in problems]
