"""Each script in `scripts/` runs to exit status 0 on its smallest input.

The scripts import library names (`trace_residuals`, `candidates`,
`colon_bidegrees`, ...) that refactors may move; this
runs each `main()` in-process so a broken import or call fails here.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,argv",
    [
        ("trace_rule_scan", ["--degree", "3", "--sizes", "2"]),
        ("colon_degree_survey", ["--max-n", "4"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_script_main_exits_zero(script, argv, capsys):
    spec = importlib.util.spec_from_file_location(f"scripts_{script}", SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    assert capsys.readouterr().out


def test_reach_names_a_command_line_that_exits_nonzero(monkeypatch, capsys):
    """`scripts/reach.py` on two command lines, one a usage error: it exits 1
    and names that line with its status."""
    spec = importlib.util.spec_from_file_location("scripts_reach", SCRIPTS / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMAND_LINES", ("candidates --max-degree 2", "verify -n 1"))
    assert module.main([]) == 1
    out = capsys.readouterr().out
    assert "command line failed: exit 2: commsyz verify -n 1" in out
    assert out.count("command line failed") == 1
