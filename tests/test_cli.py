"""Command line behaviour: exit codes, file outputs, stdout formats."""

import json

import pytest

from adderlab import compose, from_text, to_text, serialize_library, default_library
from adderlab.cli import main

from conftest import TABLE1_CSV, flip_gate_kind, flippable_gates


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_gen_writes_netlist_to_stdout(capsys):
    assert main(["gen", "--arch", "rca:1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("width 1\n")
    assert out.endswith("outputs sum[0] cout\n")


def test_gen_preset_to_file_and_verilog(tmp_path):
    net = tmp_path / "d1.net"
    ver = tmp_path / "d1.v"
    code = main(
        ["gen", "--preset", "design1", "--out", str(net), "--verilog", str(ver), "--module", "top"]
    )
    assert code == 0
    assert net.read_text().startswith("width 32\n")
    assert ver.read_text().startswith("module top (")
    assert from_text(net.read_text()).width == 32


def test_gen_rejects_bad_arch(capsys):
    assert main(["gen", "--arch", "ccla:1"]) == 1
    err = capsys.readouterr().err
    assert "error: InvalidBlockWidth" in err
    assert main(["gen", "--arch", "ccla:huh"]) == 1
    assert "error: ParseError" in capsys.readouterr().err


def test_gen_rejects_unknown_preset(capsys):
    assert main(["gen", "--preset", "design9"]) == 1
    assert "UnknownPreset" in capsys.readouterr().err


def test_verify_preset_with_random_vectors(capsys):
    assert main(["verify", "--preset", "design4", "--vectors", "3000"]) == 0
    out = capsys.readouterr().out
    assert "design4: ok" in out
    assert "3000 vectors, seed 1" in out


def test_verify_small_width_goes_exhaustive(capsys):
    assert main(["verify", "--arch", "rca:4"]) == 0
    out = capsys.readouterr().out
    assert "exhaustive, 512 rows" in out
    assert main(["verify", "--arch", "rca:5,ccla:6"]) == 0
    assert "exhaustive, 8388608 rows" in capsys.readouterr().out


def test_verify_exhaustive_flag(capsys):
    assert main(["verify", "--arch", "scbcla:3,rca:2", "--exhaustive"]) == 0
    assert "exhaustive, 2048 rows" in capsys.readouterr().out
    assert main(["verify", "--arch", "rca:13", "--exhaustive"]) == 1
    assert "InvalidWidth" in capsys.readouterr().err


def test_verify_rejects_vacuous_vector_counts(capsys):
    for count in ("0", "-5"):
        assert main(["verify", "--preset", "design1", "--vectors", count]) == 1
        captured = capsys.readouterr()
        assert "InsufficientVectors" in captured.err
        assert "ok" not in captured.out


def test_verify_width_cross_check(capsys):
    assert main(["verify", "--preset", "rca32", "--width", "16"]) == 1
    assert "InvalidWidth" in capsys.readouterr().err


def test_verify_catches_corrupted_file(tmp_path, capsys):
    nl = compose("rca:2,ccla:3")
    bad = flip_gate_kind(nl, flippable_gates(nl)[3])
    path = tmp_path / "bad.net"
    path.write_text(to_text(bad))
    assert main(["verify", "--from-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "MISMATCH" in err
    assert "expected sum=" in err


def test_verify_good_file(tmp_path, capsys):
    path = tmp_path / "ok.net"
    path.write_text(to_text(compose("rca:2,ccla:3")))
    assert main(["verify", "--from-file", str(path)]) == 0
    assert "ok (exhaustive" in capsys.readouterr().out


def test_verify_missing_file_reports_usage_error(capsys):
    assert main(["verify", "--from-file", "/nonexistent/x.net"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_emits_json_report(capsys):
    assert main(["analyze", "--preset", "design3", "--vectors", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["design"] == "design3"
    assert doc["arch"] == "scbcla:2,scbcla:3x10"
    assert doc["gates"] == 181
    assert doc["power_uw"] > 0 and doc["delay_ns"] > 0 and doc["area_um2"] > 0


def test_analyze_is_byte_deterministic(capsys):
    args = ["analyze", "--arch", "rca:2,scbcla:3", "--vectors", "128", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_analyze_with_custom_library_and_trace(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text(serialize_library(default_library()))
    trace = tmp_path / "trace.txt"
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze", "--arch", "rca:3", "--lib", str(lib),
            "--vectors", "16", "--out", str(out), "--trace", str(trace),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["gates"] == 15
    assert len(trace.read_text().splitlines()) == 16


def test_analyze_rejects_broken_library(tmp_path, capsys):
    lib = tmp_path / "short.json"
    doc = json.loads(serialize_library(default_library()))
    del doc["cells"]["XOR2"]
    lib.write_text(json.dumps(doc))
    assert main(["analyze", "--preset", "design1", "--lib", str(lib)]) == 1
    assert "IncompleteLibrary" in capsys.readouterr().err


def test_compare_table_mode(tmp_path, capsys):
    out = tmp_path / "ranking.csv"
    assert main(["compare", "--table1", str(TABLE1_CSV), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "design2 over design1: +7.5% fom" in text
    assert "design6 over design1: +17.9% fom" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "design,power_uw,delay_ns,area_um2,fom_scaled"
    assert lines[1].startswith("design6,")
    assert lines[-1].startswith("design1,")


def test_compare_table_rejects_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("design,power\nx,1\n")
    assert main(["compare", "--table1", str(bad)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_compare_preset_range_expansion(capsys):
    code = main(["compare", "--presets", "design3..design4", "--vectors", "64"])
    assert code == 0
    text = capsys.readouterr().out
    assert "design3" in text and "design4" in text
    assert "over" in text


def test_compare_single_design_rejected(capsys):
    assert main(["compare", "--presets", "design1", "--vectors", "64"]) == 1
    assert "NothingToCompare" in capsys.readouterr().err


def test_compare_empty_range_rejected(capsys):
    assert main(["compare", "--presets", "design6..design1"]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_export_round_trip(tmp_path, capsys):
    src = tmp_path / "d5.net"
    src.write_text(to_text(compose("rca:1,scbcla:3x9,scbcla:4")))
    assert main(["export", "--from-file", str(src)]) == 0
    assert capsys.readouterr().out == src.read_text()


def test_export_verilog(tmp_path, capsys):
    src = tmp_path / "a.net"
    src.write_text(to_text(compose("ccla:2")))
    assert main(["export", "--from-file", str(src), "--verilog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("module adder2 (")
    assert main(["export", "--from-file", str(src), "--verilog", "--module", "cla2"]) == 0
    assert capsys.readouterr().out.startswith("module cla2 (")


def test_export_rejects_corrupt_text(tmp_path, capsys):
    src = tmp_path / "junk.net"
    src.write_text("width 2\ngarbage\n")
    assert main(["export", "--from-file", str(src)]) == 1
    assert "ParseError" in capsys.readouterr().err
