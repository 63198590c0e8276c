"""The scripts under scripts/, run in-process through their main(argv)."""

import runpy

import pytest

from conftest import REPO_ROOT, TABLE1_CSV


def _script(name):
    return runpy.run_path(str(REPO_ROOT / "scripts" / f"{name}.py"))["main"]


# the default table (widths 2 to 8), byte for byte
BLOCK_SURVEY = (
    " m   full blk   sect blk  blk cut%  full cone  sect cone  cone cut%\n"
    "-------------------------------------------------------------------\n"
    " 2   11  27.0   11  27.0      0.0%          5          3      40.0%\n"
    " 3   18  45.5   17  42.5      6.6%          9          4      55.6%\n"
    " 4   28  71.0   25  61.5     13.4%         16          7      56.2%\n"
    " 5   42 105.5   34  82.5     21.8%         27         11      59.3%\n"
    " 6   59 148.0   42 102.5     30.7%         41         14      65.9%\n"
    " 7   79 199.0   50 123.0     38.2%         58         17      70.7%\n"
    " 8  102 259.0   58 144.0     44.4%         78         20      74.4%\n"
)


def test_block_survey_reports_block_cuts(capsys):
    assert _script("block_survey")([]) == 0
    assert capsys.readouterr().out == BLOCK_SURVEY


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
