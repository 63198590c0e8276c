"""Architecture string parsing and the named presets."""

import pytest
from hypothesis import given, settings, strategies as st

from adderlab import BlockKind, PRESETS, compose, parse_arch_spec, preset
from adderlab.arch import ArchitectureSpec, BlockSpec
from adderlab.errors import InvalidBlockWidth, ParseError, UnknownPreset

from conftest import random_arch_string


def test_parse_single_block():
    spec = parse_arch_spec("rca:32")
    assert spec.blocks == (BlockSpec(BlockKind.RCA, 32),)
    assert spec.total_width == 32


def test_parse_repeat_suffix():
    spec = parse_arch_spec("ccla:2,ccla:3x10")
    assert len(spec.blocks) == 11
    assert spec.blocks[0] == BlockSpec(BlockKind.CCLA, 2)
    assert all(b == BlockSpec(BlockKind.CCLA, 3) for b in spec.blocks[1:])
    assert spec.total_width == 32


def test_parse_tolerates_case_and_whitespace():
    spec = parse_arch_spec(" RCA:2 , ScbCla:3 ")
    assert [b.kind for b in spec.blocks] == [BlockKind.RCA, BlockKind.SCBCLA]


def test_blocks_are_listed_lsb_first():
    spec = parse_arch_spec("rca:2,scbcla:3x10")
    assert spec.blocks[0].kind == BlockKind.RCA  # least significant slice


@pytest.mark.parametrize(
    "text",
    ["", "ccla", "foo:3", "ccla:2y3", "ccla:2,,rca:1", "rca:", "rca:2x", ":3", "rca:2 x3"],
)
def test_parse_rejects_malformed_terms(text):
    with pytest.raises(ParseError):
        parse_arch_spec(text)


@pytest.mark.parametrize(
    "spec, message",
    [
        (["rca:4"], "architecture must be a string, got list"),
        (None, "architecture must be a string, got NoneType"),
        (3, "architecture must be a string, got int"),
        (b"rca:4", "architecture must be a string, got bytes"),
        ("", "empty architecture string"),
        ("  ", "empty architecture string"),
        # refused by digit count before int() runs, which stops at 4300 digits
        pytest.param(
            "rca:" + "9" * 5000, "block width has 5000 digits, more than 18", id="width-5000"
        ),
        pytest.param(
            "rca:1x" + "1" * 5000, "repeat count has 5000 digits, more than 18", id="repeat-5000"
        ),
        ("ccla:1" + "0" * 18, "block width has 19 digits, more than 18"),
    ],
)
def test_parse_names_a_missing_or_non_string_architecture(spec, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_arch_spec(spec)
    with pytest.raises(ParseError, match=f"^{message}$"):
        compose(spec)


@pytest.mark.parametrize("text", ["ccla:1", "scbcla:1", "rca:0", "scbcla:0x3", "rca:2x0"])
def test_parse_rejects_bad_widths_and_repeats(text):
    with pytest.raises(InvalidBlockWidth):
        parse_arch_spec(text)


def test_rca_allows_width_one_but_lookahead_does_not():
    assert parse_arch_spec("rca:1").total_width == 1
    for kind in ("ccla", "scbcla"):
        with pytest.raises(InvalidBlockWidth):
            parse_arch_spec(f"{kind}:1")
        assert parse_arch_spec(f"{kind}:2").total_width == 2


def test_spec_needs_at_least_one_block():
    with pytest.raises(InvalidBlockWidth, match="^architecture needs at least one block$"):
        ArchitectureSpec(())


def test_to_string_collapses_runs():
    spec = parse_arch_spec("rca:2,ccla:3,ccla:3,ccla:3,rca:2")
    assert spec.to_string() == "rca:2,ccla:3x3,rca:2"
    assert parse_arch_spec(spec.to_string()) == spec


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_to_string_round_trips_and_collapses_every_run(rng):
    # repeating each term makes runs anywhere, the first and last term included
    terms = random_arch_string(rng, lo=1, hi=12).split(",")
    spec = parse_arch_spec(",".join(t for t in terms for _ in range(rng.randint(1, 3))))
    text = spec.to_string()
    assert parse_arch_spec(text) == spec
    blocks = [term.split("x")[0] for term in text.split(",")]
    assert all(left != right for left, right in zip(blocks, blocks[1:])), text


def test_to_string_round_trips_presets():
    for name, text in PRESETS.items():
        spec = parse_arch_spec(text)
        assert parse_arch_spec(spec.to_string()) == spec, name


def test_preset_names_and_widths():
    expected = {
        "design1", "design2", "design3", "design4", "design5", "design6", "rca32",
    }
    assert set(PRESETS) == expected
    for name in expected:
        assert preset(name).total_width == 32, name


def test_preset_structures():
    d1 = preset("design1")
    assert [(b.kind, b.width) for b in d1.blocks] == [(BlockKind.CCLA, 2)] + [
        (BlockKind.CCLA, 3)
    ] * 10
    d4 = preset("design4")
    assert [(b.kind, b.width) for b in d4.blocks] == [(BlockKind.RCA, 2)] + [
        (BlockKind.SCBCLA, 3)
    ] * 10
    d6 = preset("design6")
    assert [(b.kind, b.width) for b in d6.blocks] == [
        (BlockKind.RCA, 2),
        (BlockKind.RCA, 1),
    ] + [(BlockKind.SCBCLA, 3)] * 9 + [(BlockKind.SCBCLA, 2)]


def test_unknown_preset_lists_choices():
    with pytest.raises(UnknownPreset, match="design1"):
        preset("design7")
