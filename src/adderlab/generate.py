"""Gate-level generators for ripple and carry-lookahead adder sections.

All generators work on a :class:`~adderlab.netlist.NetlistBuilder` and
return the net ids of what they produced, so sections can be chained
through their carries and composed into full adders.

The carry algebra: with generate g[i] = a[i]&b[i] and propagate
p[i] = a[i]^b[i], carries obey c[i+1] = g[i] | (p[i] & c[i]) and sums
are s[i] = p[i] ^ c[i]. Unrolling the recurrence gives the flattened
two-level form emitted by the lookahead generators, e.g. for a 3-bit
section::

    c1 = g0 | p0&c0
    c2 = g1 | p1&g0 | p1&p0&c0
    c3 = g2 | p2&g1 | p2&p1&g0 | p2&p1&p0&c0

Because g[i] and p[i] are never true together, the product terms of
each carry are pairwise disjoint over reachable inputs (a disjoint
sum-of-products), which is what makes the flattened form well behaved.

A conventional lookahead section (ccla) materializes every carry
c1..cm; a section-carry lookahead section (scbcla) materializes only
cm, letting an internal ripple chain produce the sums while the section
carry leaves through the fast flattened cone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ArchitectureSpec, BlockKind, coerce_arch
from .errors import InvalidBlockWidth
from .netlist import CellKind, Netlist, NetlistBuilder, new_netlist

# ---------------------------------------------------------------------------
# Small result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PGBundle:
    """Per-bit generate/propagate nets for a run of adjacent bits."""

    g: tuple[int, ...]
    p: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class BlockNets:
    """What one adder section exposes to its surroundings.

    ``carries`` lists the lookahead carries the section makes available,
    as (local carry index, net id) pairs where index k means the carry
    into local bit k; the section's own carry-out is always the last
    entry for lookahead sections and absent for ripple sections.
    """

    sums: tuple[int, ...]
    cout: int
    carries: tuple[tuple[int, int], ...] = ()


# ---------------------------------------------------------------------------
# Primitive pieces
# ---------------------------------------------------------------------------


def gen_full_adder(b: NetlistBuilder, a_net: int, b_net: int, cin: int) -> tuple[int, int]:
    """One full adder: (sum, cout) = a + b + cin.

    Decomposition (5 gates): p = a^b, sum = p^cin, g = a&b, t = p&cin,
    cout = g|t.
    """
    p = b.add_gate(CellKind.XOR2, [a_net, b_net])
    s = b.add_gate(CellKind.XOR2, [p, cin])
    g = b.add_gate(CellKind.AND2, [a_net, b_net])
    t = b.add_gate(CellKind.AND2, [p, cin])
    cout = b.add_gate(CellKind.OR2, [g, t])
    return s, cout


def gen_pg(b: NetlistBuilder, a_nets, b_nets) -> PGBundle:
    """Generate/propagate pairs, one AND2 and one XOR2 per bit."""
    if len(a_nets) != len(b_nets):
        raise InvalidBlockWidth("a and b slices must have equal length")
    gs: list[int] = []
    ps: list[int] = []
    for an, bn in zip(a_nets, b_nets):
        gs.append(b.add_gate(CellKind.AND2, [an, bn]))
        ps.append(b.add_gate(CellKind.XOR2, [an, bn]))
    return PGBundle(g=tuple(gs), p=tuple(ps))


# ---------------------------------------------------------------------------
# Flattened lookahead cones
# ---------------------------------------------------------------------------

# Literal tokens used to describe product terms symbolically: ("g", j),
# ("p", i) or ("c",) for the section carry-in. Keeping the term lists as
# data lets tests check the disjointness property against the exact
# terms the hardware is built from.
Literal = tuple


def carry_terms(k: int) -> list[tuple[Literal, ...]]:
    """Product terms of the flattened carry into bit k (k >= 1).

    Terms are listed highest-order first, matching the usual written
    form: g[k-1], then p[k-1]&g[k-2], ..., down to the full propagate
    chain ending in the carry-in.
    """
    if k < 1:
        raise ValueError("carry index must be >= 1")
    terms: list[tuple[Literal, ...]] = []
    for j in range(k - 1, -1, -1):
        lits = [("p", i) for i in range(k - 1, j, -1)]
        lits.append(("g", j))
        terms.append(tuple(lits))
    chain = [("p", i) for i in range(k - 1, -1, -1)]
    chain.append(("c",))
    terms.append(tuple(chain))
    return terms


def _reduce_tree(b: NetlistBuilder, nets: list[int], kinds: dict[int, CellKind]) -> int:
    """Combine nets with fan-in-capped gates, one round at a time.

    Each round greedily groups up to four nets per gate; a lone trailing
    net is carried into the next round unchanged, so depth stays
    logarithmic.
    """
    while len(nets) > 1:
        nxt: list[int] = []
        i = 0
        while i < len(nets):
            chunk = nets[i : i + 4]
            i += 4
            if len(chunk) == 1:
                nxt.append(chunk[0])
            else:
                nxt.append(b.add_gate(kinds[len(chunk)], chunk))
        nets = nxt
    return nets[0]


_AND_KINDS = {2: CellKind.AND2, 3: CellKind.AND3, 4: CellKind.AND4}
_OR_KINDS = {2: CellKind.OR2, 3: CellKind.OR3, 4: CellKind.OR4}


def _carry_cone(b: NetlistBuilder, pg: PGBundle, c0: int, k: int) -> int:
    """Emit the two-level cone for the carry into bit k and return its net."""

    def net_of(lit: Literal) -> int:
        if lit[0] == "g":
            return pg.g[lit[1]]
        if lit[0] == "p":
            return pg.p[lit[1]]
        return c0

    term_nets: list[int] = []
    for term in carry_terms(k):
        nets = [net_of(lit) for lit in term]
        term_nets.append(_reduce_tree(b, nets, _AND_KINDS))
    return _reduce_tree(b, term_nets, _OR_KINDS)


def gen_cclg(b: NetlistBuilder, pg: PGBundle, c0: int) -> list[int]:
    """Conventional lookahead generator: every carry c1..cm, flattened.

    Each carry gets its own independent two-level cone (no sharing
    between cones beyond the pg nets themselves), mirroring the fully
    expanded written form.
    """
    m = pg.width
    if m < 1:
        raise InvalidBlockWidth("lookahead generator needs at least one bit")
    return [_carry_cone(b, pg, c0, k) for k in range(1, m + 1)]


def gen_scclg(b: NetlistBuilder, pg: PGBundle, c0: int) -> int:
    """Section-carry generator: only the final carry cm, flattened.

    Identical cone to gen_cclg's last carry; the intermediate carry
    cones are simply never built, which is where the section-carry
    design saves logic.
    """
    m = pg.width
    if m < 1:
        raise InvalidBlockWidth("lookahead generator needs at least one bit")
    return _carry_cone(b, pg, c0, m)


# ---------------------------------------------------------------------------
# Adder sections
# ---------------------------------------------------------------------------


def _check_block(a_nets, b_nets, least: int, what: str) -> int:
    if len(a_nets) != len(b_nets):
        raise InvalidBlockWidth("a and b slices must have equal length")
    m = len(a_nets)
    if m < least:
        raise InvalidBlockWidth(f"{what} needs width >= {least}, got {m}")
    return m


def gen_rca_block(b: NetlistBuilder, a_nets, b_nets, cin: int) -> BlockNets:
    """Plain ripple-carry section: a chain of full adders."""
    m = _check_block(a_nets, b_nets, 1, "rca block")
    sums: list[int] = []
    carry = cin
    for i in range(m):
        s, carry = gen_full_adder(b, a_nets[i], b_nets[i], carry)
        sums.append(s)
    return BlockNets(sums=tuple(sums), cout=carry)


def gen_ccla_block(b: NetlistBuilder, a_nets, b_nets, cin: int) -> BlockNets:
    """Conventional carry-lookahead section.

    One pg pair per bit feeds both the lookahead generator and the sum
    logic; sums are s[i] = p[i] ^ c[i] with c[0] the section carry-in,
    and the section carry-out is the generator's final carry. All m
    lookahead carries are reported.
    """
    m = _check_block(a_nets, b_nets, 2, "ccla block")
    pg = gen_pg(b, a_nets, b_nets)
    carries = gen_cclg(b, pg, cin)
    sums: list[int] = []
    for i in range(m):
        c_i = cin if i == 0 else carries[i - 1]
        sums.append(b.add_gate(CellKind.XOR2, [pg.p[i], c_i]))
    exposed = tuple((k, carries[k - 1]) for k in range(1, m + 1))
    return BlockNets(sums=tuple(sums), cout=carries[-1], carries=exposed)


def gen_scbcla_block(b: NetlistBuilder, a_nets, b_nets, cin: int) -> BlockNets:
    """Section-carry based carry-lookahead section.

    The pg pairs are shared between the section-carry cone and the sum
    path. Sums come from a ripple chain: bits 0..m-2 are full-adder
    stages reusing their pg nets (3 extra gates per bit), and the top
    sum is the three-way XOR a^b^carry built as one extra XOR2 on top
    of the shared p[m-1]. The section carry-out leaves through the
    flattened cone, not the ripple chain, so it is exactly one
    lookahead carry.
    """
    m = _check_block(a_nets, b_nets, 2, "scbcla block")
    pg = gen_pg(b, a_nets, b_nets)
    section_carry = gen_scclg(b, pg, cin)
    sums: list[int] = []
    ripple = cin
    for i in range(m - 1):
        sums.append(b.add_gate(CellKind.XOR2, [pg.p[i], ripple]))
        t = b.add_gate(CellKind.AND2, [pg.p[i], ripple])
        ripple = b.add_gate(CellKind.OR2, [pg.g[i], t])
    sums.append(b.add_gate(CellKind.XOR2, [pg.p[m - 1], ripple]))
    return BlockNets(sums=tuple(sums), cout=section_carry, carries=((m, section_carry),))


_GENERATORS = {
    BlockKind.RCA: gen_rca_block,
    BlockKind.CCLA: gen_ccla_block,
    BlockKind.SCBCLA: gen_scbcla_block,
}


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose(spec: ArchitectureSpec | str) -> Netlist:
    """Build a complete adder netlist from an architecture description.

    Blocks are laid out LSB-first with each section's carry-out feeding
    the next section's carry-in; the final carry-out becomes cout.
    Lookahead carries that are not the adder's cout are exposed as c<k>
    primary outputs (k is the global carry index), so a section's
    published interface survives composition.
    """
    spec = coerce_arch(spec)
    b = new_netlist(spec.total_width)
    sums: list[int] = []
    exposed: list[tuple[int, int]] = []
    carry = b.cin
    offset = 0
    for blk in spec.blocks:
        lo, hi = offset, offset + blk.width
        result = _GENERATORS[blk.kind](b, b.a[lo:hi], b.b[lo:hi], carry)
        sums.extend(result.sums)
        for local_k, net in result.carries:
            global_k = offset + local_k
            if global_k != spec.total_width:
                exposed.append((global_k, net))
        carry = result.cout
        offset = hi
    return b.finish(sums, cout=carry, carries=exposed)
