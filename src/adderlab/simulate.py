"""Vector simulation, toggle collection and oracle verification.

Evaluation is zero-delay: each applied vector settles completely before
the next one, so a net toggles at most once per vector boundary.

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
wide bitwise operation. Random and exhaustive checks feed their batches,
in row order, to one walk that compares the sum and cout nets with a
bit-parallel ripple-carry oracle's columns and reports the lowest bad row.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import InsufficientVectors, InvalidWidth
from .netlist import Netlist, topo_order

# ---------------------------------------------------------------------------
# Pseudo-random vector stream
# ---------------------------------------------------------------------------

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def prng_word(seed: int, index: int) -> int:
    """The index-th raw 64-bit word of the stream (index starts at 1)."""
    z = (operator.index(seed) + operator.index(index) * GOLDEN_GAMMA) & _M64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & _M64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & _M64
    return z ^ (z >> 31)


class InputVector(NamedTuple):
    """One applied input combination."""

    a: int
    b: int
    cin: int


def _stream_rows(width: int, start: int, count: int, seed: int) -> np.ndarray:
    """Stream vectors start .. start+count-1 as rows of big-endian bytes."""
    import numpy as np

    # prng_word in uint64 arrays, which wrap silently; numpy scalars would warn
    nwords = -(-(2 * width + 1) // 64)
    k = np.arange(start * nwords + 1, (start + count) * nwords + 1, dtype=np.uint64)
    z = k * np.uint64(GOLDEN_GAMMA) + np.uint64(seed & _M64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX_MUL_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX_MUL_2)
    z ^= z >> np.uint64(31)
    return z.astype(">u8").view(np.uint8).reshape(count, 8 * nwords)


# the last stream of at most _BATCH vectors random_vectors decoded:
# ((width, count, seed), its vectors)
_decoded: tuple[tuple[int, int, int], tuple[InputVector, ...]] = ((0, 0, 0), ())


def random_vectors(width: int, count: int, seed: int) -> list[InputVector]:
    """The first ``count`` vectors of the documented stream for this width.

    The arguments are taken through ``operator.index``, so numpy integers
    give the stream of the equal ``int`` and a float raises ``TypeError``.
    The last stream of at most ``_BATCH`` vectors stays decoded, so designs
    ranked on one stream share its vectors; each call returns a new list of
    them, and ``_vector_batches`` knows that list by its objects.
    """
    global _decoded
    width, count, seed = map(operator.index, (width, count, seed))
    if width < 1:
        raise InvalidWidth(f"width must be >= 1, got {width}")
    if count < 0:
        raise InsufficientVectors(f"vector count must be >= 0, got {count}")
    key = (width, count, seed)
    if key == _decoded[0]:
        return list(_decoded[1])
    rows = _stream_rows(width, 0, count, seed)
    step = rows.shape[1]
    spare = 8 * step - (2 * width + 1)
    mask = (1 << width) - 1
    raw = rows.tobytes()
    # a generator, so no list of row integers outlives its vector
    tops = (int.from_bytes(raw[at : at + step], "big") >> spare for at in range(0, len(raw), step))
    # tuple.__new__ skips the generated Python __new__: one C call per vector
    vectors = [
        tuple.__new__(InputVector, (t >> (width + 1), (t >> 1) & mask, t & 1)) for t in tops
    ]
    if count <= _BATCH:
        _decoded = key, tuple(vectors)
    return vectors


# ---------------------------------------------------------------------------
# Input rows and packed columns
# ---------------------------------------------------------------------------


def _vector_rows(width: int, vectors: list[InputVector]) -> np.ndarray:
    """Caller vectors as rows of big-endian bytes, bit-aligned like the stream.

    Each operand is taken through ``operator.index``, so integer types such
    as numpy's encode like ``int`` and a non-integer raises ``TypeError``
    rather than being cast. The batch is then shape- and range-checked as
    a whole; only when that fails is each vector checked, so the error
    names the first bad one.
    """
    import numpy as np

    # not zip(*vectors): one live iterator per vector trips a GC pass on a large batch
    flat = list(map(operator.index, chain.from_iterable(vectors)))
    a, b, cin = flat[0::3], flat[1::3], flat[2::3]
    top = (1 << width) - 1
    if not (
        set(map(len, vectors)) == {3}  # each vector is (a, b, cin), and there is one
        and 0 <= min(a) and max(a) <= top
        and 0 <= min(b) and max(b) <= top
        and set(cin) <= {0, 1}
    ):
        for v in vectors:
            if len(v) != 3:
                raise InvalidWidth(f"vector {v} is not (a, b, cin)")
            if not (0 <= v[0] <= top and 0 <= v[1] <= top and v[2] in (0, 1)):
                raise InvalidWidth(f"vector {v} does not fit width {width}")
    nbits = 2 * width + 1
    nbytes = -(-nbits // 8)
    pad = 8 * nbytes - nbits
    raw = b"".join(
        (((x << (width + 1)) | (y << 1) | c) << pad).to_bytes(nbytes, "big")
        for x, y, c in zip(a, b, cin)
    )
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(vectors), nbytes)


# (shift, mask) steps of the 8x8 bit-matrix transpose (Hacker's Delight,
# transpose8): bit 8i+j of a 64-bit word swaps with bit 8j+i
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _pack(w: int, rows: np.ndarray) -> list[int]:
    """Rows led by a, b (each ``w`` bits, MSB first) and cin -> packed column
    per primary input net in net-id order, bit r holding row r.

    Only the leading ceil((2w+1)/8) bytes of each row hold input bits; the
    rest is padding and is never read. About 64 KB of those bytes at a time
    are transposed to byte columns, so each little-endian uint64 holds one
    byte column of 8 consecutive rows (row 8q+i in byte i). An 8x8 bit
    transpose of that word leaves stream bit 8k+m of those rows in byte 7-m
    of byte column k's word, row 8q+i at bit i: one packed byte of that
    bit's column.
    """
    import numpy as np

    nrows = len(rows)
    nbytes = -(-(2 * w + 1) // 8)
    step = 8 * max(1, (1 << 13) // nbytes)
    bit = np.r_[w - 1 : -1 : -1, 2 * w - 1 : w - 1 : -1, 2 * w]  # stream bit per input net
    # numpy scalars, not Python ints: numpy 1.x may promote uint64 and int to float64
    steps = [(np.uint64(s), np.uint64(m)) for s, m in _TRANSPOSE8]
    packed = np.empty((2 * w + 1, -(-nrows // 8)), dtype=np.uint8)
    for at in range(0, nrows, step):
        block = rows[at : at + step]
        n8 = -(-len(block) // 8)
        cols = np.zeros((nbytes, 8 * n8), dtype=np.uint8)
        cols[:, : len(block)] = block[:, :nbytes].T
        x = cols.view("<u8")
        for shift, mask in steps:
            t = x >> shift
            t ^= x
            t &= mask
            x ^= t
            t <<= shift
            x ^= t
        packed[:, at // 8 : at // 8 + n8] = cols.reshape(nbytes, n8, 8)[bit >> 3, :, 7 - (bit & 7)]
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def _expected(width: int, cols: Sequence[int]) -> tuple[int, ...]:
    """The oracle: packed input columns in net-id order -> the ``width``
    sum columns of a + b + cin, then its cout column."""
    carry = cols[2 * width]
    want = []
    for x, y in zip(cols[:width], cols[width : 2 * width]):
        t = x ^ y
        want.append(t ^ carry)
        carry = (x & y) | (carry & t)
    want.append(carry)
    return tuple(want)


@functools.lru_cache(maxsize=2)
def _stream_columns(
    width: int, start: int, count: int, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Packed input columns of stream vectors start .. start+count-1, and
    the expected output columns ``_expected`` derives from them.

    They depend on no netlist, so checks of several designs on one stream
    share them. Two entries cover a stream of up to 2 * ``_BATCH`` vectors
    and hold at most 2 * (3*width + 2) * 8 KiB.
    """
    cols = tuple(_pack(width, _stream_rows(width, start, count, seed)))
    return cols, _expected(width, cols)


# ---------------------------------------------------------------------------
# Bit-parallel evaluation
# ---------------------------------------------------------------------------


def _eval_packed(nl: Netlist, cols: Sequence[int], nrows: int) -> list[int]:
    """Evaluate all nets over ``nrows`` packed rows, given the primary-input
    columns in net-id order, gates in list order (the caller checks that
    order with ``topo_order``); returns one int per net in a new list."""
    mask = (1 << nrows) - 1
    values = [*cols] + [0] * len(nl.gates)
    for net, g in enumerate(nl.gates, nl.offset):
        op = g.kind.primitive
        if op == "xor":
            out = values[g.inputs[0]] ^ values[g.inputs[1]]
        elif op == "and":
            out = values[g.inputs[0]]
            for nid in g.inputs[1:]:
                out &= values[nid]
        elif op == "or":
            out = values[g.inputs[0]]
            for nid in g.inputs[1:]:
                out |= values[nid]
        else:  # "not"
            out = mask ^ values[g.inputs[0]]
        values[net] = out
    return values


_BATCH = 1 << 16


def _vector_batches(nl: Netlist, vectors: list[InputVector]):
    """Evaluate caller vectors ``_BATCH`` at a time; yields (rows, values per net).

    A list of exactly the objects ``random_vectors`` keeps decoded is that
    stream, so it is evaluated on the stream's packed columns. Any other
    list, even an equal one, goes through the encoder, which checks every
    operand: ``1.0 == 1``, but a float operand must still raise.
    """
    topo_order(nl)
    (width, count, seed), stream = _decoded
    if width == nl.width and 0 < len(vectors) == count and all(map(operator.is_, vectors, stream)):
        yield count, _eval_packed(nl, _stream_columns(width, 0, count, seed)[0], count)
        return
    for at in range(0, len(vectors), _BATCH):
        batch = vectors[at : at + _BATCH]
        cols = _pack(nl.width, _vector_rows(nl.width, batch))
        yield len(batch), _eval_packed(nl, cols, len(batch))


def evaluate(nl: Netlist, vector: InputVector) -> tuple[int, int, list[int]]:
    """Single-vector evaluation: (sum value, cout bit, value per net id)."""
    _, values = next(_vector_batches(nl, [vector]))
    s = 0
    for i, nid in enumerate(nl.sums):
        s |= values[nid] << i
    return s, values[nl.cout], values


# ---------------------------------------------------------------------------
# Toggle collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToggleStats:
    """Per-net toggle totals for one applied vector stream."""

    per_net_toggles: tuple[int, ...]
    vectors_applied: int


def collect_toggles(nl: Netlist, vectors: list[InputVector]) -> ToggleStats:
    """Count settled-value transitions per net across the given stream."""
    if len(vectors) < 2:
        raise InsufficientVectors(f"need at least 2 vectors, got {len(vectors)}")
    toggles: list[int] | None = None
    for n, values in _vector_batches(nl, vectors):
        inner = (1 << (n - 1)) - 1
        if toggles is None:
            toggles = [((col ^ (col >> 1)) & inner).bit_count() for col in values]
        else:  # plus the step from the last row of the batch before
            toggles = [
                t + ((col ^ (col >> 1)) & inner).bit_count() + (((last >> top) ^ col) & 1)
                for t, col, last in zip(toggles, values, prev)
            ]
        prev, top = values, n - 1
    return ToggleStats(per_net_toggles=tuple(toggles), vectors_applied=len(vectors))


def run_vectors(nl: Netlist, count: int = 1024, seed: int = 1) -> ToggleStats:
    """Apply ``count`` seeded random vectors and collect toggle counts."""
    if nl.width < 1:
        topo_order(nl)  # the netlist's error, not the stream's
    return collect_toggles(nl, random_vectors(nl.width, count, seed))


def dump_trace(nl: Netlist, vectors: list[InputVector], fh) -> None:
    """Write one line per vector: net values as 0/1 digits in net-id order."""
    import numpy as np

    nnets = len(nl.nets)
    for n, values in _vector_batches(nl, vectors):
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


def _first_mismatch(nl: Netlist, batches) -> Counterexample | None:
    """Evaluate (rows, packed input columns, ``_expected`` columns) batches
    in row order, after ``topo_order``; the lowest row whose sum and cout
    nets differ from the expected columns, or None."""
    topo_order(nl)
    for nrows, cols, want in batches:
        values = _eval_packed(nl, cols, nrows)
        diff = 0
        for nid, col in zip((*nl.sums, nl.cout), want):
            diff |= values[nid] ^ col
        if diff:
            break
        del values  # so one batch's net values are alive at a time
    else:
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
    count, seed = operator.index(count), operator.index(seed)
    if count < 1:
        raise InsufficientVectors(f"need at least 1 vector, got {count}")
    sizes = ((at, min(_BATCH, count - at)) for at in range(0, count, _BATCH))
    return _first_mismatch(nl, ((n, *_stream_columns(nl.width, at, n, seed)) for at, n in sizes))


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


@functools.cache
def _patterns(low: int) -> tuple[int, ...]:
    """The columns of row bits 0 .. low-1 over 2**low rows, then a column of ones."""
    nrows = 1 << low
    return (*(_pattern_column(bit, nrows) for bit in range(low)), (1 << nrows) - 1)


def verify_exhaustive_netlist(nl: Netlist) -> Counterexample | None:
    """Exhaustive oracle check of an already built netlist.

    Rows r = (cin, b, a) bits are visited in order, in aligned chunks of
    2**low rows that pattern the low row bits and hold the high ones
    constant: 2**10 rows first, then chunks that double up to ``_BATCH``
    rows, so an early counterexample costs short columns only.
    """
    w = nl.width
    if w > _EXHAUSTIVE_LIMIT:
        raise InvalidWidth(
            f"exhaustive verification is limited to {_EXHAUSTIVE_LIMIT} bits, got {w}"
        )

    def chunks():
        top = _BATCH.bit_length() - 1
        start, low = 0, min(nl.offset, 10, top)
        while start < 1 << nl.offset:
            *cols, ones = _patterns(low)
            cols += [ones if (start >> j) & 1 else 0 for j in range(low, nl.offset)]
            yield 1 << low, cols, _expected(w, cols)
            start += 1 << low
            low = min(start.bit_length() - 1, top)

    return _first_mismatch(nl, chunks())
