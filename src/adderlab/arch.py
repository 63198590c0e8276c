"""Adder architecture descriptions.

An architecture is an LSB-first list of blocks, each a ripple-carry
section (rca), a conventional carry-lookahead section (ccla) or a
section-carry based carry-lookahead section (scbcla). The one-line text
form is a comma-separated list of terms::

    term := kind ":" width ["x" repeat]

so ``"ccla:2,ccla:3x10"`` is a 2-bit block followed by ten 3-bit blocks
(32 bits total). Kinds are case-insensitive and whitespace around
tokens is ignored. Lookahead blocks need at least two bits; a ripple
block may be a single bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .errors import InvalidBlockWidth, ParseError, UnknownPreset, parse_int

# ---------------------------------------------------------------------------


class BlockKind(Enum):
    RCA = "rca"
    CCLA = "ccla"
    SCBCLA = "scbcla"


_MIN_WIDTH = {BlockKind.RCA: 1, BlockKind.CCLA: 2, BlockKind.SCBCLA: 2}


@dataclass(frozen=True)
class BlockSpec:
    kind: BlockKind
    width: int

    def __post_init__(self):
        least = _MIN_WIDTH[self.kind]
        if self.width < least:
            raise InvalidBlockWidth(
                f"{self.kind.value} block needs width >= {least}, got {self.width}"
            )


@dataclass(frozen=True)
class ArchitectureSpec:
    """LSB-first block list; block 0 receives the external carry-in."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvalidBlockWidth("architecture needs at least one block")

    @property
    def total_width(self) -> int:
        return sum(b.width for b in self.blocks)

    def to_string(self) -> str:
        """Canonical text form (repeats collapsed with the x suffix)."""
        parts: list[str] = []
        for block, run in groupby(self.blocks):
            repeat = len(list(run))
            term = f"{block.kind.value}:{block.width}"
            parts.append(term if repeat == 1 else f"{term}x{repeat}")
        return ",".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^([a-zA-Z]+):(\d+)(?:x(\d+))?$")


def parse_arch_spec(text: str) -> ArchitectureSpec:
    """Parse the one-line architecture grammar.

    Raises ParseError for syntax problems and InvalidBlockWidth when a
    width or repeat count is out of range.
    """
    if not isinstance(text, str):
        raise ParseError(f"architecture must be a string, got {type(text).__name__}")
    if not text.strip():
        raise ParseError("empty architecture string")
    blocks: list[BlockSpec] = []
    for raw in text.split(","):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad architecture term {term!r}")
        kind_txt, width_txt, repeat_txt = m.groups()
        try:
            kind = BlockKind(kind_txt.lower())
        except ValueError:
            raise ParseError(f"unknown block kind {kind_txt!r}") from None
        width = parse_int(width_txt, "block width")
        repeat = parse_int(repeat_txt, "repeat count") if repeat_txt else 1
        if repeat < 1:
            raise InvalidBlockWidth(f"repeat count must be >= 1 in {term!r}")
        blocks.extend(BlockSpec(kind, width) for _ in range(repeat))
    return ArchitectureSpec(tuple(blocks))


def coerce_arch(spec: ArchitectureSpec | str) -> ArchitectureSpec:
    """Accept either a parsed spec or its text form."""
    if isinstance(spec, ArchitectureSpec):
        return spec
    return parse_arch_spec(spec)


# ---------------------------------------------------------------------------
# Bundled example architectures
# ---------------------------------------------------------------------------

# Six 32-bit compositions used throughout the docs and regression suite,
# plus a plain 32-bit ripple adder as the baseline. design1/design2 are
# homogeneous lookahead adders with a 2-bit least significant section
# (ccla or rca); designs 3-6 are the section-carry variants.
PRESETS: dict[str, str] = {
    "design1": "ccla:2,ccla:3x10",
    "design2": "rca:2,ccla:3x10",
    "design3": "scbcla:2,scbcla:3x10",
    "design4": "rca:2,scbcla:3x10",
    "design5": "rca:1,scbcla:3x9,scbcla:4",
    "design6": "rca:2,rca:1,scbcla:3x9,scbcla:2",
    "rca32": "rca:32",
}


def preset(name: str) -> ArchitectureSpec:
    """Look up a bundled architecture by name."""
    try:
        text = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise UnknownPreset(f"no preset {name!r} (known: {known})") from None
    return parse_arch_spec(text)
