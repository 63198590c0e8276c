"""The scripts under scripts/, run in-process through their main(argv)."""

import runpy

import pytest

from conftest import REPO_ROOT, TABLE1_CSV


def _script(name):
    return runpy.run_path(str(REPO_ROOT / "scripts" / f"{name}.py"))["main"]


def test_block_survey_reports_block_cuts(capsys):
    assert _script("block_survey")(["--max-width", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[5] for row in rows] == ["0.0%", "6.6%", "13.4%"]


def test_run_comparison_ranks_a_preset_range(capsys):
    assert _script("run_comparison")(["--designs", "design1..design3", "--vectors", "64"]) == 0
    simulated, reference = capsys.readouterr().out.split("\n\nreference ranking")
    header, table = simulated.split("\n", 1)
    assert header == "simulated ranking (bundled library, 64 vectors, seed 1)"
    ranked = table.split("\n\n")[0].splitlines()[1:]
    assert sorted(row.split()[0] for row in ranked) == ["design1", "design2", "design3"]
    assert reference.startswith(f" ({TABLE1_CSV})\n")


def test_verify_presets_sweep(capsys):
    assert _script("verify_presets")(["--vectors", "500", "--max-width", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert all(": ok (" in line for line in lines)
    assert "ccla:3: ok (exhaustive, 128 rows)" in lines


def test_verify_presets_counts_errors_as_failures(capsys):
    assert _script("verify_presets")(["--vectors", "0", "--max-width", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "rca:1: ok (exhaustive, 8 rows)\n"
    assert captured.err.count("error: InsufficientVectors") == 7
    assert captured.err.endswith("7 failed check(s)\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--designs", "design1,design9"], "UnknownPreset"),
        (["--table1", "bad.csv"], "ParseError"),
    ],
)
def test_run_comparison_bad_input_is_a_named_error(tmp_path, monkeypatch, capsys, argv, name):
    (tmp_path / "bad.csv").write_text("design,power_uw\ndesign1,38.11\n")
    monkeypatch.chdir(tmp_path)
    assert _script("run_comparison")(argv + ["--vectors", "16"]) == 1
    err = capsys.readouterr().err
    assert f"error: {name}: " in err
    assert "Traceback" not in err
