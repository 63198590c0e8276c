"""Vector simulation, toggle collection and oracle verification.

Evaluation is zero-delay: each applied vector settles completely before
the next one, so a net toggles at most once per vector boundary. Toggle
counts divided by the total applied time (vectors - 1 boundaries at a
fixed interval) feed the switching-power model in
:mod:`adderlab.analyze`.

Random stimulus comes from a fixed 64-bit shift/multiply generator
(splitmix64) so that identical seeds produce identical vector streams
everywhere, independent of Python's hash randomization or platform:

    word(k) = mix(seed + k * 0x9E3779B97F4A7C15)   for k = 1, 2, ...
    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31   (all arithmetic mod 2**64)

Vector v (0-based) consumes words v*nwords+1 .. (v+1)*nwords, where
nwords = ceil((2*width + 1) / 64). The words are concatenated first
word most significant, and the top 2*width+1 bits are sliced MSB-first
into a (width bits), then b (width bits), then cin (1 bit).

Input rows (from the stream, from caller vectors, or every input
combination) are packed ``_BATCH`` at a time into one Python integer per
primary input net, bit r holding row r, so a gate evaluation is a single
wide bitwise operation. Checks compare against a bit-parallel
ripple-carry oracle over the same columns and report the lowest bad row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientVectors, InvalidWidth
from .netlist import CellKind, Netlist, topo_order

# ---------------------------------------------------------------------------
# Pseudo-random vector stream
# ---------------------------------------------------------------------------

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def prng_word(seed: int, index: int) -> int:
    """The index-th raw 64-bit word of the stream (index starts at 1)."""
    z = (seed + index * GOLDEN_GAMMA) & _M64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & _M64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class InputVector:
    """One applied input combination."""

    a: int
    b: int
    cin: int


def _stream_rows(width: int, start: int, count: int, seed: int) -> np.ndarray:
    """Stream vectors start .. start+count-1 as rows of big-endian bytes."""
    # prng_word in uint64 arrays, which wrap silently; numpy scalars would warn
    nwords = -(-(2 * width + 1) // 64)
    k = np.arange(start * nwords + 1, (start + count) * nwords + 1, dtype=np.uint64)
    z = k * np.uint64(GOLDEN_GAMMA) + np.uint64(seed & _M64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX_MUL_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_MUL_2)
    z ^= z >> np.uint64(31)
    return z.astype(">u8").view(np.uint8).reshape(count, 8 * nwords)


def random_vectors(width: int, count: int, seed: int) -> list[InputVector]:
    """The first ``count`` vectors of the documented stream for this width."""
    if width < 1:
        raise InvalidWidth(f"width must be >= 1, got {width}")
    rows = _stream_rows(width, 0, max(count, 0), seed)
    step = rows.shape[1]
    spare = 8 * step - (2 * width + 1)
    mask = (1 << width) - 1
    raw = rows.tobytes()
    out: list[InputVector] = []
    for at in range(0, len(raw), step):
        top = int.from_bytes(raw[at : at + step], "big") >> spare
        out.append(InputVector(a=top >> (width + 1), b=(top >> 1) & mask, cin=top & 1))
    return out


# ---------------------------------------------------------------------------
# Input rows and packed columns
# ---------------------------------------------------------------------------


def _vector_rows(width: int, vectors: list[InputVector]) -> np.ndarray:
    """Caller vectors as rows of big-endian bytes, bit-aligned like the stream."""
    nbits = 2 * width + 1
    nbytes = -(-nbits // 8)
    pad = 8 * nbytes - nbits
    raw = bytearray()
    for v in vectors:
        _check_vector(width, v)
        raw += (((v.a << (width + 1)) | (v.b << 1) | v.cin) << pad).to_bytes(nbytes, "big")
    return np.frombuffer(bytes(raw), dtype=np.uint8).reshape(len(vectors), nbytes)


def _pack(nl: Netlist, rows: np.ndarray) -> dict[int, int]:
    """Rows led by a, b (each MSB first) and cin -> packed column per primary
    input net. Bits are unpacked ~512 KB at a time, a block the allocator
    reuses, instead of faulting in a fresh rows x bits matrix per batch."""
    w = nl.width
    nbits = 2 * w + 1
    step = 8 * max(1, (1 << 16) // nbits)
    packed = np.empty((-(-len(rows) // 8), nbits), dtype=np.uint8)
    for at in range(0, len(rows), step):
        bits = np.unpackbits(rows[at : at + step], axis=1, count=nbits)
        packed[at // 8 : (at + step) // 8] = np.packbits(bits, axis=0, bitorder="little")
    pi_order = np.r_[w - 1 : -1 : -1, 2 * w - 1 : w - 1 : -1, 2 * w]
    return {
        nid: int.from_bytes(col.tobytes(), "little")
        for nid, col in zip(nl.primary_inputs(), packed.T[pi_order])
    }


# ---------------------------------------------------------------------------
# Bit-parallel evaluation
# ---------------------------------------------------------------------------


def _eval_packed(
    nl: Netlist,
    pi_cols: dict[int, int],
    nrows: int,
    order: tuple[int, ...] | None = None,
) -> list[int]:
    """Evaluate all nets over ``nrows`` packed rows; returns one int per net."""
    mask = (1 << nrows) - 1
    values = [0] * len(nl.nets)
    for nid, col in pi_cols.items():
        values[nid] = col
    if order is None:
        order = topo_order(nl)
    for gid in order:
        g = nl.gates[gid]
        kind = g.kind
        if kind is CellKind.INV:
            out = mask ^ values[g.inputs[0]]
        elif kind is CellKind.XOR2:
            out = values[g.inputs[0]] ^ values[g.inputs[1]]
        elif kind in (CellKind.AND2, CellKind.AND3, CellKind.AND4):
            out = values[g.inputs[0]]
            for nid in g.inputs[1:]:
                out &= values[nid]
        else:
            out = values[g.inputs[0]]
            for nid in g.inputs[1:]:
                out |= values[nid]
        values[g.output] = out
    return values


def _check_vector(width: int, v: InputVector) -> None:
    limit = 1 << width
    if not (0 <= v.a < limit and 0 <= v.b < limit and v.cin in (0, 1)):
        raise InvalidWidth(f"vector {v} does not fit width {width}")


def evaluate(nl: Netlist, vector: InputVector) -> tuple[int, int, list[int]]:
    """Single-vector evaluation: (sum value, cout bit, value per net id)."""
    _check_vector(nl.width, vector)
    cols = {nid: (vector.a >> i) & 1 for i, nid in enumerate(nl.a)}
    for i, nid in enumerate(nl.b):
        cols[nid] = (vector.b >> i) & 1
    cols[nl.cin] = vector.cin
    values = _eval_packed(nl, cols, 1)
    s = 0
    for i, nid in enumerate(nl.sums):
        s |= values[nid] << i
    return s, values[nl.cout], values


_BATCH = 1 << 16


def _vector_batches(nl: Netlist, vectors: list[InputVector], order: tuple[int, ...]):
    """Evaluate caller vectors ``_BATCH`` at a time; yields (rows, values per net)."""
    for at in range(0, len(vectors), _BATCH):
        batch = vectors[at : at + _BATCH]
        cols = _pack(nl, _vector_rows(nl.width, batch))
        yield len(batch), _eval_packed(nl, cols, len(batch), order)


# ---------------------------------------------------------------------------
# Toggle collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToggleStats:
    """Per-net toggle totals for one applied vector stream."""

    per_net_toggles: tuple[int, ...]
    vectors_applied: int
    interval_ns: float

    @property
    def total_time_ns(self) -> float:
        return (self.vectors_applied - 1) * self.interval_ns


def collect_toggles(
    nl: Netlist, vectors: list[InputVector], interval_ns: float = 5.0
) -> ToggleStats:
    """Count settled-value transitions per net across the given stream."""
    if len(vectors) < 2:
        raise InsufficientVectors(f"need at least 2 vectors, got {len(vectors)}")
    toggles = [0] * len(nl.nets)
    prev_bits: list[int] | None = None
    for n, values in _vector_batches(nl, vectors, topo_order(nl)):
        inner = (1 << (n - 1)) - 1
        for nid, col in enumerate(values):
            t = ((col ^ (col >> 1)) & inner).bit_count()
            if prev_bits is not None:
                t += prev_bits[nid] ^ (col & 1)
            toggles[nid] += t
        prev_bits = [(col >> (n - 1)) & 1 for col in values]
    return ToggleStats(
        per_net_toggles=tuple(toggles),
        vectors_applied=len(vectors),
        interval_ns=interval_ns,
    )


def run_vectors(
    nl: Netlist, count: int = 1024, seed: int = 1, interval_ns: float = 5.0
) -> ToggleStats:
    """Apply ``count`` seeded random vectors and collect toggle counts."""
    if count < 2:
        raise InsufficientVectors(f"need at least 2 vectors, got {count}")
    return collect_toggles(nl, random_vectors(nl.width, count, seed), interval_ns)


def dump_trace(nl: Netlist, vectors: list[InputVector], fh) -> None:
    """Write one line per vector: net values as 0/1 digits in net-id order."""
    nnets = len(nl.nets)
    for n, values in _vector_batches(nl, vectors, topo_order(nl)):
        nbytes = -(-n // 8)
        packed = b"".join(col.to_bytes(nbytes, "little") for col in values)
        cols = np.frombuffer(packed, dtype=np.uint8).reshape(nnets, nbytes)
        text = np.empty((n, nnets + 1), dtype=np.uint8)
        text[:, :nnets] = np.unpackbits(cols, axis=1, count=n, bitorder="little").T
        text[:, :nnets] += ord("0")
        text[:, nnets] = ord("\n")
        fh.write(text.tobytes().decode("ascii"))


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """First input where a netlist disagreed with integer addition."""

    vector: InputVector
    expected_sum: int
    expected_cout: int
    got_sum: int
    got_cout: int

    def __str__(self) -> str:
        v = self.vector
        return (
            f"a={v.a:#x} b={v.b:#x} cin={v.cin}: "
            f"expected sum={self.expected_sum:#x} cout={self.expected_cout}, "
            f"got sum={self.got_sum:#x} cout={self.got_cout}"
        )


def _first_mismatch(
    nl: Netlist, cols: dict[int, int], nrows: int, order: tuple[int, ...]
) -> Counterexample | None:
    """Evaluate packed input columns; the lowest row that is not a + b + cin."""
    values = _eval_packed(nl, cols, nrows, order)
    carry = cols[nl.cin]
    diff = 0
    for a, b, s in zip(nl.a, nl.b, nl.sums):
        x, y = cols[a], cols[b]
        diff |= values[s] ^ x ^ y ^ carry
        carry = (x & y) | (carry & (x ^ y))
    diff |= values[nl.cout] ^ carry
    if diff == 0:
        return None
    r = (diff & -diff).bit_length() - 1

    def row(nets: tuple[int, ...]) -> int:
        return sum(((values[nid] >> r) & 1) << i for i, nid in enumerate(nets))

    v = InputVector(a=row(nl.a), b=row(nl.b), cin=(values[nl.cin] >> r) & 1)
    total = v.a + v.b + v.cin
    return Counterexample(
        vector=v,
        expected_sum=total & ((1 << nl.width) - 1),
        expected_cout=total >> nl.width,
        got_sum=row(nl.sums),
        got_cout=(values[nl.cout] >> r) & 1,
    )


def verify_random(nl: Netlist, count: int = 100000, seed: int = 1) -> Counterexample | None:
    """Compare against a + b + cin on seeded random vectors.

    Returns None when every vector matches, otherwise the first
    counterexample in stream order.
    """
    if count < 1:
        raise InsufficientVectors(f"need at least 1 vector, got {count}")
    order = topo_order(nl)
    for at in range(0, count, _BATCH):
        n = min(_BATCH, count - at)
        bad = _first_mismatch(nl, _pack(nl, _stream_rows(nl.width, at, n, seed)), n, order)
        if bad is not None:
            return bad
    return None


_EXHAUSTIVE_LIMIT = 12


def _pattern_column(bit: int, nrows: int) -> int:
    """Bitvector of (row >> bit) & 1 over rows 0..nrows-1."""
    period = 1 << bit
    col = ((1 << period) - 1) << period
    span = period << 1
    while span < nrows:
        col |= col << span
        span <<= 1
    return col & ((1 << nrows) - 1)


def verify_exhaustive_netlist(nl: Netlist) -> Counterexample | None:
    """Exhaustive oracle check of an already built netlist."""
    w = nl.width
    if w > _EXHAUSTIVE_LIMIT:
        raise InvalidWidth(
            f"exhaustive verification is limited to {_EXHAUSTIVE_LIMIT} bits, got {w}"
        )
    pis = nl.primary_inputs()
    # row r = (cin, b, a) bits; within a chunk the high row bits are constant
    low = min(len(pis), _BATCH.bit_length() - 1)
    nrows = 1 << low
    pattern = [_pattern_column(bit, nrows) for bit in range(low)]
    ones = (1 << nrows) - 1
    order = topo_order(nl)
    for chunk in range(1 << (len(pis) - low)):
        cols = dict(zip(pis, pattern))
        for j, nid in enumerate(pis[low:]):
            cols[nid] = ones if (chunk >> j) & 1 else 0
        bad = _first_mismatch(nl, cols, nrows, order)
        if bad is not None:
            return bad
    return None
