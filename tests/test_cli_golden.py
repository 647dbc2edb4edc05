"""Byte-identical CLI output on the test scenarios.

Each command runs on a scenario of ``tests/data`` and its stdout must
equal, byte for byte, the file ``tests/data/<name>.txt`` stored next to
it. The scenarios are the sin² hump of ``test_cli.py`` (``hump.json``),
the same hump played backwards from its rotation length
(``hump_reversed.json``), and a tabulated path with interior knots
(``tabulated.json``), alone and with one investment event
(``tabulated_event.json``). The hump's passes are one-piece grids; the
tabulated ones cut their grids at the knots and the event, so they pin
the cut-grid Simpson sums and the event capital build. The hump outputs
were written by the code before the quadrature passes were made cheaper,
and the tabulated ones before the unread scenario sections were removed,
so a refactor that moves one printed digit fails here. Regenerate them only for a change that is
meant to alter the printed numbers, and say so where the change is
recorded.
"""

from pathlib import Path

import pytest

from capreturn.cli import main

DATA = Path(__file__).parent / "data"

RATES = ["--d", "0.03", "--d", "0.06", "--u", "0.01", "--u", "0.02"]
SWEEP = ["--metrics", "irr,rroc,npv,rroe,omega", "--tau-steps", "20", *RATES]

COMMANDS = {
    "sweep_hump": ["sweep", "--scenario", "hump.json", *SWEEP],
    "sweep_hump_reversed": ["sweep", "--scenario", "hump_reversed.json", *SWEEP],
    "sweep_tabulated": ["sweep", "--scenario", "tabulated.json", *SWEEP],
    "sweep_tabulated_event": [
        "sweep", "--scenario", "tabulated_event.json", "--metrics", "rroc,rroe",
        "--tau-steps", "20", *RATES,
    ],
    "optimize_tabulated_event_rroc": [
        "optimize", "--scenario", "tabulated_event.json", "--objective", "rroc", *RATES
    ],
    **{
        f"optimize_hump_{objective}": [
            "optimize", "--scenario", "hump.json", "--objective", objective, *RATES
        ]
        for objective in ("rroc", "irr", "npv", "rroe")
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_the_stored_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert main(COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (DATA / f"{name}.txt").read_bytes()
