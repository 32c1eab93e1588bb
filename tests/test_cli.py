import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from commsyz.cli import (
    COMMANDS,
    REPORT_SCHEMA,
    Report,
    RunConfig,
    emit,
    main,
    parse_args,
    run_command,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out)


# -- argument parsing -------------------------------------------------------------


def test_defaults():
    cfg = parse_args(["verify"])
    assert cfg.command == "verify"
    assert cfg.n == 3
    assert cfg.field == "gf:32003"
    assert cfg.order == "grevlex"
    assert not cfg.json_output
    assert cfg.budget() is None


def test_nonprime_field_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--field", "gf:4"])
    assert exc.value.code == 2
    assert "not prime" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        parse_args(["frobnicate"])


def test_splice_check_size_window():
    assert parse_args(["check-splice", "-n", "3"]).n == 3
    assert parse_args(["check-splice", "-n", "4"]).n == 4
    with pytest.raises(SystemExit):
        parse_args(["check-splice", "-n", "5"])


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="verify", field="gf:6")
    with pytest.raises(ValueError):
        RunConfig(command="verify", n=0)
    with pytest.raises(ValueError, match="at least 2"):
        RunConfig(command="verify", n=1)
    with pytest.raises(ValueError):
        RunConfig(command="verify", budget_seconds=-1)
    with pytest.raises(ValueError):
        RunConfig(command="verify", order="elim")
    with pytest.raises(ValueError):
        RunConfig(command="groebner", degree_bound=-1)
    assert RunConfig(command="groebner", degree_bound=0).degree_bound == 0
    cfg = RunConfig(command="verify", budget_spairs=10)
    budget = cfg.budget()
    assert budget.max_spairs == 10


@pytest.mark.parametrize(
    "flag, value, argv",
    [
        ("-n", "abc", ["verify"]),
        ("--order", "elim", ["groebner", "-n", "2"]),
        ("--budget-spairs", "-1", ["groebner", "-n", "2"]),
        ("--degree-bound", "two", ["groebner", "-n", "2"]),
        ("--degree-bound", "-1", ["groebner", "-n", "2"]),
    ],
)
def test_bad_flag_values_are_usage_errors(flag, value, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["groebner"], ["hilbert"], ["syzygies"], ["verify"], ["predict", "betti"]],
    ids=" ".join,
)
def test_size_one_is_a_usage_error(argv, capsys):
    """At n=1 the commutator ideal is zero: every command refuses it alike,
    where some used to pass and others fail."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-n", "1"])
    assert exc.value.code == 2
    assert "n must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing", "file"])
def test_a_fixtures_path_that_is_not_a_directory_is_a_usage_error(where, tmp_path, capsys):
    """A bad --fixtures path is refused before any check runs, where it used
    to read as a refuted claim (FAIL, exit 1) from the checks that load."""
    path = tmp_path / "absent" if where == "missing" else tmp_path / "table.json"
    if where == "file":
        path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-n", "4", "--fixtures", str(path)])
    assert exc.value.code == 2
    assert f"not a directory: {path}" in capsys.readouterr().err


def test_an_exponent_past_the_cap_is_a_failed_check(tmp_path, capsys):
    """An arithmetic error inside a check stays that check's FAIL, with the
    error's type and message as its detail."""
    matrix = tmp_path / "m.mat"
    matrix.write_text("x_1_1^300;0\n0;0\n")
    assert main(["syzygy-check", "-n", "2", "--matrix", str(matrix), "--json"]) == 1
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert (result["verdict"], result["detail"]) == (
        "FAIL", {"error": "OverflowError: exponent 300 exceeds order capacity 255"}
    )


def test_the_environment_sets_no_flag(monkeypatch):
    for name, value in (("COMMSYZ_N", "2"), ("COMMSYZ_FIELD", "q"), ("COMMSYZ_JSON", "1")):
        monkeypatch.setenv(name, value)
    cfg = parse_args(["hilbert"])
    assert (cfg.n, cfg.field, cfg.json_output) == (3, "gf:32003", False)


def test_negative_max_degree_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--max-degree", "-1"])
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


RING = ("-n", "--field", "--order")
BUDGET = RING + ("--budget-seconds", "--budget-spairs")
#: the shared flags each subcommand's computation reads
READS = {
    "commutator": RING,
    "syzygy-check": ("-n", "--order"),
    "candidates": (),
    "groebner": BUDGET + ("--degree-bound",),
    "syzygies": BUDGET + ("--degree-bound",),
    "colon": BUDGET,
    "hilbert": BUDGET,
    "check-splice": BUDGET + ("--fixtures",),
    "verify": BUDGET + ("--fixtures",),
    "predict": ("-n", "--degree-bound"),
}
VALUES = {
    "-n": "3",
    "--field": "q",
    "--order": "lex",
    "--budget-seconds": "2.5",
    "--budget-spairs": "10",
    "--degree-bound": "2",
    "--fixtures": str(Path(__file__).resolve().parent),  # it must be an existing directory
}


def test_every_subcommand_has_a_row_of_flags_it_reads():
    assert set(READS) == set(COMMANDS)
    assert sum(len(flags) for flags in READS.values()) == 41


@pytest.mark.parametrize("command, flag", [(c, f) for c in READS for f in VALUES])
def test_each_subcommand_takes_exactly_the_flags_it_reads(command, flag, tmp_path):
    argv = [command]
    if command == "syzygy-check":
        matrix = tmp_path / "m.mat"
        matrix.write_text("0; 0\n0; 0\n0; 0\n")
        argv += ["--matrix", str(matrix)]
    elif command == "predict":
        argv += ["betti"]
    argv += [flag, VALUES[flag]]
    if flag in READS[command]:
        cfg = parse_args(argv)
        assert str(getattr(cfg, flag.lstrip("-").replace("-", "_"))) == VALUES[flag]
    else:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "hilbert -n 2 --degree-bound 1",
        "colon -n 2 --degree-bound 0",
        "verify -n 3 --degree-bound 2",
        "candidates -n 3",
        "predict betti -n 5 --field q",
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(READS))
def test_config_and_header_show_only_the_settings_a_subcommand_takes(command, tmp_path):
    argv = [command]
    if command == "syzygy-check":
        matrix = tmp_path / "m.mat"
        matrix.write_text("0; 0; 0\n0; 0; 0\n0; 0; 0\n")
        argv += ["--matrix", str(matrix)]
    elif command == "predict":
        argv += ["betti"]
    cfg = parse_args(argv)
    taken = {flag.lstrip("-").replace("-", "_") for flag in READS[command]}
    config = cfg.as_dict()
    assert set(config) == taken | {"json_output", "extras"}
    report = Report(command=command, config=config, results=[], timing={"total_seconds": 0.0})
    header = emit(report, "text").splitlines()[1:]
    shown = {k for k in ("n", "field", "order") if any(f" {k}=" in f" {h}" for h in header)}
    assert shown == taken & {"n", "field", "order"}


def test_benchmark_command_lines_parse():
    jobs_py = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", jobs_py)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    cfg = parse_args(jobs.cli_argv("gb-n4-d5"))
    assert (cfg.n, cfg.degree_bound, cfg.extras) == (4, 5, {"ideal": "I"})
    for workload in jobs.WORKLOADS:
        assert parse_args(jobs.cli_argv(workload)).command in COMMANDS


# -- report and emission -----------------------------------------------------------


def _toy_report():
    cfg = RunConfig(command="verify", n=2)
    results = [
        {"name": "a", "verdict": "PASS", "detail": {"k": 1}},
        {"name": "b", "verdict": "PARTIAL", "detail": {"why": "budget"}},
    ]
    return Report(
        command="verify",
        config=cfg.as_dict(),
        results=results,
        timing={"total_seconds": 0.3, "per_result": {"a": 0.2, "b": 0.1}},
    )


def test_report_json_roundtrip():
    r = _toy_report()
    parsed = json.loads(emit(r, "json"))
    assert parsed == r.as_dict()
    assert parsed["schema"] == REPORT_SCHEMA
    assert [x["name"] for x in parsed["results"]] == ["a", "b"]


def test_exit_code_zero_unless_fail():
    r = _toy_report()
    assert r.exit_code() == 0
    r.results.append({"name": "c", "verdict": "FAIL", "detail": {}})
    assert r.exit_code() == 1
    r.results[-1] = {"name": "c", "verdict": "SKIPPED", "detail": {}}
    assert r.exit_code() == 0


def test_text_emission_shows_verdicts():
    text = emit(_toy_report(), "text")
    assert "PASS" in text and "PARTIAL" in text
    assert "verify" in text


# -- end-to-end subcommands ---------------------------------------------------------


def test_json_reports_are_identical_modulo_timing(capsys):
    code1, rep1 = run_json(["hilbert", "-n", "2"], capsys)
    code2, rep2 = run_json(["hilbert", "-n", "2"], capsys)
    assert code1 == code2 == 0
    t1, t2 = rep1.pop("timing"), rep2.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert set(t1) == {"total_seconds", "per_result", "stats"}


def test_commutator_listing(capsys):
    code, rep = run_json(["commutator", "-n", "2"], capsys)
    assert code == 0
    (res,) = rep["results"]
    assert res["verdict"] == "PASS"
    entries = res["detail"]["entries"]
    assert len(entries) == 4
    assert res["detail"]["diagonal_indices"] == [1, 4]
    assert all(e["bidegree"] == [1, 1] for e in entries)


def test_candidate_listing(capsys):
    code, rep = run_json(["candidates", "--max-degree", "2"], capsys)
    assert code == 0
    rows = rep["results"][0]["detail"]["candidates"]
    assert [r["expr"] for r in rows] == ["E", "X", "Y", "X^2", "XY + YX", "Y^2"]


def test_hilbert_off_diagonal_quotient(capsys):
    code, rep = run_json(["hilbert", "-n", "2", "--ideal", "J"], capsys)
    assert code == 0
    detail = rep["results"][0]["detail"]
    assert detail["numerator"] == [1, 0, -2, 0, 1]
    assert detail["dimension"] == 6


def test_groebner_command_reports_stats_in_timing(capsys):
    """The engine's work counts depend on the engine, so they sit in the
    timing block, beside the seconds, and `results` keep the answer only."""
    code, rep = run_json(["groebner", "-n", "2", "--ideal", "I"], capsys)
    assert code == 0
    detail = rep["results"][0]["detail"]
    assert detail["complete"] is True
    assert "stats" not in detail
    assert detail["size"] >= 3
    stats = rep["timing"]["stats"]["groebner"]
    assert stats["spairs_reduced"] >= stats["zero_reductions"] >= 0
    assert "seconds" in stats
    code, rep = run_json(["syzygies", "-n", "2"], capsys)
    assert "stats" not in rep["results"][0]["detail"]
    assert rep["timing"]["stats"]["syzygies"]["spairs_reduced"] > 0
    assert "stats:" in run_cli(["groebner", "-n", "2"], capsys)[1]


def test_colon_command_reports_the_quotient_loop_counts(capsys):
    """The n=3 colon runs one signature loop with a quotient: 150 reduced
    pairs, 12 of them zero reductions, which record the quotient's new
    generators, and 138 elements.  The counts sit in the timing block."""
    code, rep = run_json(["colon", "-n", "3"], capsys)
    assert code == 0
    assert "stats" not in rep["results"][0]["detail"]
    stats = rep["timing"]["stats"]["colon"]
    counts = {k: stats[k] for k in stats if k != "seconds"}
    assert counts == {
        "spairs_reduced": 150,
        "zero_reductions": 12,
        "pairs_pruned": 9310,
        "pairs_truncated": 0,
        "elements_added": 138,
        "max_degree_processed": 9,
    }


def test_desk_guard_refuses_big_runs_without_budget(capsys):
    for command in ("groebner", "colon"):
        code, rep = run_json([command, "-n", "4"], capsys)
        assert code == 0
        (res,) = rep["results"]
        assert (res["name"], res["verdict"]) == (command, "SKIPPED")
        assert "--budget-seconds or --budget-spairs" in res["detail"]["reason"]


def test_desk_guard_lifts_with_explicit_budget(capsys):
    code, rep = run_json(["groebner", "-n", "4", "--budget-spairs", "60"], capsys)
    assert code == 0
    (res,) = rep["results"]
    assert res["verdict"] == "PARTIAL"
    assert res["detail"]["complete"] is False


def test_desk_guard_lifts_with_a_degree_bound(capsys):
    """A degree bound bounds a run as a budget does, for the subcommands
    that take it: I at n=4 through degree 5 is the truncated basis of 220
    elements, and the first syzygies through degree 3 are complete."""
    code, rep = run_json(["groebner", "-n", "4", "--degree-bound", "5"], capsys)
    (res,) = rep["results"]
    assert (code, res["verdict"]) == (0, "PARTIAL")
    assert (res["detail"]["size"], res["detail"]["truncation_degree"]) == (220, 5)
    code, rep = run_json(["syzygies", "-n", "4", "--degree-bound", "3"], capsys)
    (res,) = rep["results"]
    assert (code, res["verdict"]) == (0, "PASS")
    assert res["detail"]["counts"] == {"1": 2, "2": 108, "3": 4}


def test_colon_listing(capsys):
    code, rep = run_json(["colon", "-n", "2"], capsys)
    assert code == 0
    gens = rep["results"][0]["detail"]["new_generators"]
    assert sorted(g["bidegree"] for g in gens) == [[0, 1], [1, 0]]
    assert all(g["degree"] == 1 for g in gens)


def test_verify_command_smallest_size(capsys):
    code, rep = run_json(["verify", "-n", "2"], capsys)
    assert code == 0
    names = [r["name"] for r in rep["results"]]
    assert names == [
        "presentation",
        "matrix-identities",
        "trace-rules",
        "dimension",
        "predictors",
    ]
    assert all(r["verdict"] == "PASS" for r in rep["results"])
    assert set(rep["timing"]["per_result"]) == set(names)


def test_run_command_matches_main(capsys):
    report = run_command(RunConfig(command="verify", n=2))
    assert report.exit_code() == 0
    code, rep = run_json(["verify", "-n", "2"], capsys)
    assert rep["results"] == report.results


def test_predict_commands_flag_conjecture_status(capsys):
    code, rep = run_json(["predict", "betti", "-n", "5"], capsys)
    assert code == 0
    detail = rep["results"][0]["detail"]
    assert detail["status"] == "CONJECTURE"
    assert detail["first_syzygies_by_degree"] == {"1": 2, "2": 279, "3": 4, "4": 5}
    assert detail["total"] == 290
    code, rep = run_json(["predict", "shape", "-n", "3"], capsys)
    assert rep["results"][0]["detail"]["status"] == "CONJECTURE"
    code, rep = run_json(["predict", "colon-degrees", "-n", "4"], capsys)
    assert rep["results"][0]["detail"]["status"] == "CONJECTURE"
    code, rep = run_json(["predict", "knutson", "-n", "3"], capsys)
    detail = rep["results"][0]["detail"]
    assert detail["status"] == "CONJECTURE"
    assert len(detail["candidates"]) == 6


def refuse_everywhere(monkeypatch, attr) -> set:
    """Replace `genmat.<attr>` by a function that raises, under that name in
    every commsyz module that imports it; the names of those modules."""
    from commsyz import genmat

    def refuse(*args, **kwargs):
        raise AssertionError(f"{attr} was called")

    patched, original = set(), getattr(genmat, attr)
    for name, module in list(sys.modules.items()):
        if name.startswith("commsyz") and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, refuse)
            patched.add(name)
    return patched


def test_predict_knutson_takes_no_determinant(monkeypatch, capsys):
    """The prediction reads only labels and bidegrees, so it runs with `det`
    replaced by a function that raises, under every name it is imported as."""
    assert {"commsyz.genmat", "commsyz.verify"} <= refuse_everywhere(monkeypatch, "det")
    code, rep = run_json(["predict", "knutson", "-n", "4"], capsys)
    assert code == 0
    assert rep["results"][0]["verdict"] == "PASS"
    assert len(rep["results"][0]["detail"]["candidates"]) == 20


def test_predict_knutson_builds_no_commutator_system(monkeypatch, capsys):
    """The candidates are counted, not built: at n=8, where the powers of
    the generic matrices and 3,432 candidate matrices would cost
    gigabytes, the prediction runs with `build_system` refused everywhere."""
    patched = refuse_everywhere(monkeypatch, "build_system")
    assert {"commsyz.genmat", "commsyz.verify"} <= patched
    code, rep = run_json(["predict", "knutson", "-n", "8"], capsys)
    assert code == 0
    assert rep["results"][0]["verdict"] == "PASS"
    assert len(rep["results"][0]["detail"]["candidates"]) == 3432


def test_check_splice_both_supported_sizes(capsys):
    code, rep = run_json(["check-splice", "-n", "3"], capsys)
    assert code == 0
    assert rep["results"][0]["verdict"] == "PASS"
    code, rep = run_json(["check-splice", "-n", "4"], capsys)
    assert code == 0
    assert rep["results"][0]["verdict"] == "PASS"


def test_syzygy_check_command(tmp_path, capsys):
    good = tmp_path / "x.mat"
    good.write_text("x_1_1; x_1_2\nx_2_1; x_2_2\n")
    code, rep = run_json(["syzygy-check", "-n", "2", "--matrix", str(good)], capsys)
    assert code == 0
    assert rep["results"][0]["verdict"] == "PASS"

    bad = tmp_path / "bad.mat"
    bad.write_text("x_1_1; x_1_2\nx_2_1; y_2_2\n")
    code, rep = run_json(["syzygy-check", "-n", "2", "--matrix", str(bad)], capsys)
    assert code == 1
    (res,) = rep["results"]
    assert res["verdict"] == "FAIL"
    assert "residual" in res["detail"]

    with pytest.raises(SystemExit) as exc:
        parse_args(["syzygy-check", "-n", "2", "--matrix", str(tmp_path / "nope")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, code, verdict",
    [
        # 32003 * Z_21 is zero modulo 32003 only
        ("0; 32003\n0; 0\n", 1, "FAIL"),
        # tr(Z) / 32003 = 0, with entries that have no image modulo 32003
        ("1/32003; 0\n0; 1/32003\n", 0, "PASS"),
    ],
    ids=("zero-mod-p", "over-p"),
)
def test_syzygy_check_decides_over_qq(text, code, verdict, tmp_path, capsys):
    matrix = tmp_path / "m.mat"
    matrix.write_text(text)
    got, rep = run_json(["syzygy-check", "-n", "2", "--matrix", str(matrix)], capsys)
    (res,) = rep["results"]
    assert (got, res["verdict"], res["detail"]["syzygy"]) == (code, verdict, code == 0)
    assert "field" not in rep["config"]


def test_syzygy_check_names_a_zero_denominator(tmp_path, capsys):
    matrix = tmp_path / "m.mat"
    matrix.write_text("1/0;0\n0 / 0;0\n")
    code, rep = run_json(["syzygy-check", "-n", "2", "--matrix", str(matrix)], capsys)
    (res,) = rep["results"]
    assert (code, res["verdict"]) == (1, "FAIL")
    assert res["detail"] == {"error": "zero denominator in the term '1/0'"}


def test_syzygy_check_names_a_bad_exponent(tmp_path, capsys):
    matrix = tmp_path / "m.mat"
    matrix.write_text("x_1_1^-1;0\n0;0\n")
    code, rep = run_json(["syzygy-check", "-n", "2", "--matrix", str(matrix)], capsys)
    (res,) = rep["results"]
    assert (code, res["verdict"]) == (1, "FAIL")
    assert res["detail"] == {"error": "bad exponent in the factor 'x_1_1^-1' of 'x_1_1^-1'"}


def test_syzygies_command(capsys):
    code, rep = run_json(["syzygies", "-n", "2"], capsys)
    assert code == 0
    detail = rep["results"][0]["detail"]
    assert (detail["counts"], detail["truncation_degree"]) == ({"1": 2}, None)
    # cut before the linear syzygies: nothing is counted, not the Koszul relations
    code, rep = run_json(["syzygies", "-n", "2", "--budget-spairs", "3"], capsys)
    (res,) = rep["results"]
    assert (code, res["verdict"]) == (0, "PARTIAL")
    assert (res["detail"]["counts"], res["detail"]["truncation_degree"]) == ({}, 0)


def test_every_console_script_target_is_a_callable():
    """Every other test calls `main` in process, so a wrong
    `[project.scripts]` target would fail none of them."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    scripts = project["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_console_script_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "commsyz.cli", "verify", "-n", "2", "--json"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["schema"] == REPORT_SCHEMA
    assert all(r["verdict"] == "PASS" for r in rep["results"])
