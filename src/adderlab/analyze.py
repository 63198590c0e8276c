"""Area, delay, power and figure-of-merit analysis.

All three metrics come from the netlist plus a cell library; power
additionally needs toggle counts from a simulation run and the interval
between its vectors.

area   = sum of gate areas (wires are free).
delay  = longest path, where each gate contributes
         intrinsic_delay_ns + load_delay_ns_per_ff * C_out, and C_out
         is the sum of the input pin capacitances the gate drives plus
         the library's output load when it drives a primary output.
power  = switching + leakage, in microwatts:
         sum over nets of 0.5 * C_net * vdd^2 * toggles / T, plus the
         summed gate leakage, where T = (vectors - 1) * interval_ns is
         the time the applied vectors span. C_net counts sink pins the
         same way the delay model does.
fom    = 1e6 / (power * delay * area); bigger is better. The scale
         factor just keeps typical values in a readable range.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .arch import ArchitectureSpec, coerce_arch
from .cells import CellLibrary, CellModel, default_library
from .errors import DanglingInput, InvalidMetric, NothingToCompare
from .generate import compose
from .netlist import Netlist, topo_order
from .simulate import ToggleStats, run_vectors

# ---------------------------------------------------------------------------
# Raw metrics
# ---------------------------------------------------------------------------


def area(nl: Netlist, lib: CellLibrary) -> float:
    """Total cell area in um^2."""
    return sum(lib.cells[g.kind].area_um2 for g in nl.gates)


def net_capacitance(nl: Netlist, lib: CellLibrary, nid: int) -> float:
    """Load on a net: sink pin caps, plus the output load if observable."""
    caps = _loads(nl, lib)[1]
    if not 0 <= nid < len(caps):
        raise DanglingInput(f"no net with id {nid}")
    return caps[nid]


def _loads(nl: Netlist, lib: CellLibrary) -> tuple[list[CellModel], list[float]]:
    """The cell model of every gate and the load on every net, from one walk
    over the gates. Loads add pin by pin in gate order, then the output loads."""
    topo_order(nl)  # before the first read is indexed
    cells = list(map(lib.cells.__getitem__, [g[0] for g in nl.gates]))
    caps = [0.0] * len(nl.nets)
    for cell, g in zip(cells, nl.gates):
        per_pin = cell.input_cap_ff
        for nid in g[1]:
            caps[nid] += per_pin
    for nid in nl.primary_outputs():
        caps[nid] += lib.output_load_ff
    return cells, caps


def critical_path(nl: Netlist, lib: CellLibrary) -> tuple[float, tuple[int, ...]]:
    """Longest-path delay in ns and the gate ids along that path.

    Arrival-time ties are broken toward the smaller driving gate id (a
    primary input beats any gate), so the reported path is deterministic.
    """
    return _longest_path(nl, *_loads(nl, lib))


def _longest_path(
    nl: Netlist, cells: list[CellModel], caps: list[float]
) -> tuple[float, tuple[int, ...]]:
    """``critical_path`` of a checked netlist, given what ``_loads`` returns."""
    off = nl.offset
    arrival = [0.0] * len(nl.nets)
    pred: list[int] = []
    for gid, (cell, g, load) in enumerate(zip(cells, nl.gates, caps[off:])):
        delay = cell.intrinsic_delay_ns + cell.load_delay_ns_per_ff * load
        best_t = -1.0
        best_pred = -1
        for nid in g[1]:
            t = arrival[nid]
            p = nid - off  # negative for a primary input
            if t > best_t or (t == best_t and p < best_pred):
                best_t, best_pred = t, p
        arrival[off + gid] = best_t + delay
        pred.append(best_pred)
    end_t = -1.0
    end_gid = -1
    for nid in nl.primary_outputs():  # all gate-driven, as topo_order checks
        gid = nid - off
        t = arrival[nid]
        if t > end_t or (t == end_t and gid < end_gid):
            end_t, end_gid = t, gid
    path: list[int] = []
    gid = end_gid
    while gid >= 0:
        path.append(gid)
        gid = pred[gid]
    path.reverse()
    return end_t, tuple(path)


def power_components(
    nl: Netlist, lib: CellLibrary, stats: ToggleStats, interval_ns: float = 5.0
) -> tuple[float, float]:
    """(switching, leakage) in microwatts, vectors ``interval_ns`` apart."""
    cells, caps = _loads(nl, lib)
    return _switching(caps, lib, stats, interval_ns), _leakage(cells)


def _switching(
    caps: list[float], lib: CellLibrary, stats: ToggleStats, interval_ns: float
) -> float:
    """Switching power in microwatts of nets with loads ``caps``, added net by net;
    InvalidMetric unless ``stats`` covers those nets over a finite positive time."""
    if len(stats.per_net_toggles) != len(caps):
        raise InvalidMetric(
            f"toggle stats cover {len(stats.per_net_toggles)} nets, netlist has {len(caps)}"
        )
    t_total = (stats.vectors_applied - 1) * interval_ns
    if not 0 < t_total < math.inf:
        raise InvalidMetric(f"toggle stats must span a finite positive time, got {t_total} ns")
    vdd_sq = lib.vdd_v * lib.vdd_v
    switching = 0.0
    for c, toggles in zip(caps, stats.per_net_toggles):
        if toggles:
            # fF * V^2 / ns comes out directly in microwatts
            switching += 0.5 * c * vdd_sq * toggles / t_total
    return switching


def _leakage(cells: list[CellModel]) -> float:
    """Summed gate leakage in microwatts."""
    return sum([cell.leakage_nw for cell in cells]) * 1e-3


def power(nl: Netlist, lib: CellLibrary, stats: ToggleStats, interval_ns: float = 5.0) -> float:
    """Total power in microwatts."""
    switching, leakage = power_components(nl, lib, stats, interval_ns)
    return switching + leakage


def fom(power_uw: float, delay_ns: float, area_um2: float) -> float:
    """Scaled figure of merit: 1e6 over the power-delay-area product."""
    value = 0.0
    if all(0 < m < math.inf for m in (power_uw, delay_ns, area_um2)):
        product = power_uw * delay_ns * area_um2  # may underflow to 0 or overflow to inf
        value = 1e6 / product if product else 0.0
    if not 0 < value < math.inf:
        raise InvalidMetric(
            "fom needs finite positive metrics and result, "
            f"got power={power_uw} delay={delay_ns} area={area_um2}"
        )
    return value


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    design: str
    arch: str
    gates: int
    power_uw: float
    delay_ns: float
    area_um2: float
    fom_scaled: float
    critical_path: tuple[int, ...] = ()


def report_json(report: AnalysisReport) -> str:
    # not asdict, which deep-copies critical_path element by element
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    return json.dumps(doc, indent=2) + "\n"


def analyze_design(
    design: str,
    spec: ArchitectureSpec | str,
    lib: CellLibrary | None = None,
    vectors: int = 1024,
    seed: int = 1,
    interval_ns: float = 5.0,
) -> AnalysisReport:
    """Compose, simulate and measure one architecture."""
    return _analyze(design, spec, lib, vectors, seed, interval_ns)[0]


def _analyze(
    design: str,
    spec: ArchitectureSpec | str,
    lib: CellLibrary | None,
    vectors: int,
    seed: int,
    interval_ns: float,
) -> tuple[AnalysisReport, Netlist]:
    """``analyze_design``'s report and the netlist it measured. Power, delay
    and area share one ``_loads`` walk; every number equals what ``power``,
    ``critical_path`` and ``area`` give."""
    spec = coerce_arch(spec)
    lib = lib or default_library()
    nl = compose(spec)
    stats = run_vectors(nl, vectors, seed)
    cells, caps = _loads(nl, lib)
    p = _switching(caps, lib, stats, interval_ns) + _leakage(cells)
    d, path = _longest_path(nl, cells, caps)
    a = sum([cell.area_um2 for cell in cells])
    report = AnalysisReport(
        design=design,
        arch=spec.to_string(),
        gates=len(nl.gates),
        power_uw=p,
        delay_ns=d,
        area_um2=a,
        fom_scaled=fom(p, d, a),
        critical_path=path,
    )
    return report, nl


def metrics_report(
    design: str, power_uw: float, delay_ns: float, area_um2: float
) -> AnalysisReport:
    """Report built from externally measured numbers (no netlist behind it)."""
    return AnalysisReport(
        design=design,
        arch="",
        gates=0,
        power_uw=power_uw,
        delay_ns=delay_ns,
        area_um2=area_um2,
        fom_scaled=fom(power_uw, delay_ns, area_um2),
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


class Improvement(NamedTuple):
    winner: str
    loser: str
    percent: float


@dataclass(frozen=True)
class Comparison:
    """Reports ranked best-first with all pairwise improvements."""

    ranking: tuple[AnalysisReport, ...]
    improvements: tuple[Improvement, ...]


def compare(reports: list[AnalysisReport]) -> Comparison:
    """Rank by descending figure of merit; ties keep input order."""
    if len(reports) < 2:
        raise NothingToCompare(f"need at least 2 reports, got {len(reports)}")
    ranking = tuple(sorted(reports, key=lambda r: -r.fom_scaled))
    improvements = []
    new = tuple.__new__  # skips Improvement's generated Python __new__: one C call each
    for i, upper in enumerate(ranking):
        name, top = upper.design, upper.fom_scaled
        improvements += [
            new(Improvement, (name, lower.design, 100.0 * (top / lower.fom_scaled - 1.0)))
            for lower in ranking[i + 1 :]
        ]
    return Comparison(ranking=ranking, improvements=tuple(improvements))


def comparison_csv(cmp: Comparison) -> str:
    out = io.StringIO()  # csv quotes a name as --table1 reads it; floats go through repr()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["design", "power_uw", "delay_ns", "area_um2", "fom_scaled"])
    for r in cmp.ranking:
        rows.writerow((r.design, r.power_uw, r.delay_ns, r.area_um2, r.fom_scaled))
    return out.getvalue()


def format_comparison(cmp: Comparison) -> str:
    """Human-readable ranking table plus pairwise improvement lines."""
    lines = [f"{'design':<12} {'power_uw':>10} {'delay_ns':>9} {'area_um2':>10} {'fom':>8}"]
    for r in cmp.ranking:
        lines.append(
            f"{r.design:<12} {r.power_uw:>10.4f} {r.delay_ns:>9.4f} "
            f"{r.area_um2:>10.2f} {r.fom_scaled:>8.4f}"
        )
    lines.append("")
    for imp in cmp.improvements:
        lines.append(f"{imp.winner} over {imp.loser}: +{imp.percent:.1f}% fom")
    return "\n".join(lines) + "\n"
