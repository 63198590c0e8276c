"""Reference implementations the benchmark checks adderlab against.

Nothing here imports adderlab. The netlist text format, the splitmix64
vector stream and the delay model are re-implemented from their
documented definitions, so a simulator bug cannot confirm its own
output: a counterexample, a trace line or a delay reported by adderlab
is accepted only when this module computes the same value by other
means, and sums are always compared with integer addition.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Kinds that share an arity can replace each other without breaking the
# netlist's structure, which is how mutants are made.
SAME_ARITY = {
    "AND2": ("OR2", "XOR2"),
    "OR2": ("AND2", "XOR2"),
    "XOR2": ("AND2", "OR2"),
    "AND3": ("OR3",),
    "OR3": ("AND3",),
    "AND4": ("OR4",),
    "OR4": ("AND4",),
}
ARITY = {"INV": 1, "AND2": 2, "OR2": 2, "XOR2": 2, "AND3": 3, "OR3": 3, "AND4": 4, "OR4": 4}


# ---------------------------------------------------------------------------
# Vector stream and the integer oracle
# ---------------------------------------------------------------------------


def splitmix_word(seed: int, index: int) -> int:
    """The index-th 64-bit word (index from 1) of the splitmix64 stream."""
    z = (seed + index * GAMMA) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def stream_vectors(width: int, count: int, seed: int) -> list[tuple[int, int, int]]:
    """The first ``count`` (a, b, cin) vectors of the documented stream."""
    nbits = 2 * width + 1
    nwords = -(-nbits // 64)
    spare = 64 * nwords - nbits
    mask = (1 << width) - 1
    out = []
    for v in range(count):
        big = 0
        for j in range(nwords):
            big = (big << 64) | splitmix_word(seed, v * nwords + 1 + j)
        top = big >> spare
        out.append((top >> (width + 1), (top >> 1) & mask, top & 1))
    return out


def add(width: int, a: int, b: int, cin: int) -> tuple[int, int]:
    """(sum, carry-out) of a + b + cin at the given width."""
    total = a + b + cin
    return total & ((1 << width) - 1), total >> width


def exhaustive_row(width: int, row: int) -> tuple[int, int, int]:
    """Input of row ``row`` in exhaustive order: a lowest, then b, then cin."""
    mask = (1 << width) - 1
    return row & mask, (row >> width) & mask, row >> (2 * width)


# ---------------------------------------------------------------------------
# Netlist text and per-vector evaluation
# ---------------------------------------------------------------------------

_GATE = re.compile(r"^g(\d+) ([A-Z0-9]+) (.+) -> (\S+)$")


@dataclass(frozen=True)
class RefNetlist:
    """A parsed netlist text. Net ids follow the format's definition order:
    a[0..w), b[0..w), cin, then one output net per gate line."""

    width: int
    kinds: tuple[str, ...]
    inputs: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    sums: tuple[int, ...]
    cout: int
    observed: tuple[int, ...]

    @property
    def nnets(self) -> int:
        return 2 * self.width + 1 + len(self.kinds)


def parse(text: str) -> RefNetlist:
    """Parse the native text format; raises ValueError on anything malformed."""
    lines = text.rstrip("\n").split("\n")
    head = re.match(r"^width (\d+)$", lines[0])
    if not head:
        raise ValueError(f"bad width line {lines[0]!r}")
    width = int(head.group(1))
    ids = {f"a[{i}]": i for i in range(width)}
    ids.update({f"b[{i}]": width + i for i in range(width)})
    ids["cin"] = 2 * width
    kinds, inputs, outputs = [], [], []
    for line in lines[1:-1]:
        m = _GATE.match(line)
        if not m or int(m.group(1)) != len(kinds) or m.group(2) not in ARITY:
            raise ValueError(f"bad gate line {line!r}")
        ins = tuple(ids[name] for name in m.group(3).split(" "))
        if len(ins) != ARITY[m.group(2)] or m.group(4) in ids:
            raise ValueError(f"bad gate line {line!r}")
        ids[m.group(4)] = len(ids)
        kinds.append(m.group(2))
        inputs.append(ins)
        outputs.append(ids[m.group(4)])
    names = lines[-1].split(" ")
    if names[0] != "outputs":
        raise ValueError("missing outputs line")
    observed = tuple(ids[name] for name in names[1:])
    return RefNetlist(
        width=width,
        kinds=tuple(kinds),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        sums=tuple(ids[f"sum[{i}]"] for i in range(width)),
        cout=ids["cout"],
        observed=observed,
    )


def evaluate(nl: RefNetlist, a: int, b: int, cin: int) -> list[int]:
    """Every net's 0/1 value for one input, gates taken in text order.

    Text order is a valid evaluation order because the format only lets
    a gate read nets defined on earlier lines.
    """
    w = nl.width
    values = [(a >> i) & 1 for i in range(w)] + [(b >> i) & 1 for i in range(w)] + [cin]
    for kind, ins in zip(nl.kinds, nl.inputs):
        if kind == "INV":
            v = 1 - values[ins[0]]
        elif kind == "XOR2":
            v = values[ins[0]] ^ values[ins[1]]
        elif kind[:3] == "AND":
            v = 1
            for nid in ins:
                v &= values[nid]
        else:
            v = 0
            for nid in ins:
                v |= values[nid]
        values.append(v)
    return values


def sum_cout(nl: RefNetlist, values: list[int]) -> tuple[int, int]:
    s = 0
    for i, nid in enumerate(nl.sums):
        s |= values[nid] << i
    return s, values[nl.cout]


def compute(nl: RefNetlist, vector: tuple[int, int, int]) -> tuple[int, int]:
    """(sum, cout) the netlist produces for one input."""
    return sum_cout(nl, evaluate(nl, *vector))


def first_mismatch(nl: RefNetlist, vectors) -> int | None:
    """Index of the first vector on which the netlist is not an adder."""
    for i, v in enumerate(vectors):
        if compute(nl, v) != add(nl.width, *v):
            return i
    return None


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """Swap one gate's kind for another of the same arity, on the text form.

    Returns the mutant text and a short description like ``g17 AND2->OR2``.
    """
    lines = text.split("\n")
    candidates = [
        i for i, line in enumerate(lines) if line.startswith("g") and line.split(" ")[1] in SAME_ARITY
    ]
    i = rng.choice(candidates)
    gid, old, rest = lines[i].split(" ", 2)
    new = rng.choice(SAME_ARITY[old])
    lines[i] = f"{gid} {new} {rest}"
    return "\n".join(lines), f"{gid} {old}->{new}"


# ---------------------------------------------------------------------------
# Static timing and area, from the documented model
# ---------------------------------------------------------------------------


def timing(nl: RefNetlist, cells: dict, output_load_ff: float) -> tuple[float, list[float]]:
    """Longest-path delay and per-gate delay under the linear load model.

    ``cells`` maps kind name to a dict with ``intrinsic_delay_ns``,
    ``load_delay_ns_per_ff`` and ``input_cap_ff``.
    """
    caps = [0.0] * nl.nnets
    for kind, ins in zip(nl.kinds, nl.inputs):
        for nid in ins:
            caps[nid] += cells[kind]["input_cap_ff"]
    for nid in nl.observed:
        caps[nid] += output_load_ff
    arrival = [0.0] * nl.nnets
    gate_delay = []
    for kind, ins, out in zip(nl.kinds, nl.inputs, nl.outputs):
        cell = cells[kind]
        d = cell["intrinsic_delay_ns"] + cell["load_delay_ns_per_ff"] * caps[out]
        gate_delay.append(d)
        arrival[out] = max(arrival[nid] for nid in ins) + d
    return max(arrival[nid] for nid in nl.observed), gate_delay


def area(nl: RefNetlist, cells: dict) -> float:
    return sum(cells[kind]["area_um2"] for kind in nl.kinds)


# ---------------------------------------------------------------------------
# Rank agreement
# ---------------------------------------------------------------------------


def kendall_tau(x: list[float], y: list[float]) -> float:
    """Kendall tau-a of two paired score lists; tied pairs count as neither."""
    n = len(x)
    if n < 2 or n != len(y):
        raise ValueError("kendall_tau needs two paired lists of at least 2 items")
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (x[i] - x[j]) * (y[i] - y[j])
            score += (s > 0) - (s < 0)
    return score / (n * (n - 1) / 2)
