"""Gate-level adder generators with simulation-based PPA comparison.

Typical flow: describe an architecture ("rca:2,ccla:3x10"), compose it
into a netlist, verify it against integer addition, then measure area,
longest-path delay and switching power against a cell library and rank
designs by figure of merit.
"""

from .arch import BlockKind, PRESETS, parse_arch_spec, preset
from .analyze import (
    AnalysisReport,
    Comparison,
    analyze_design,
    area,
    compare,
    comparison_csv,
    critical_path,
    fom,
    format_comparison,
    metrics_report,
    net_capacitance,
    power,
    power_components,
    report_json,
)
from .cells import default_library, load_library, parse_library, serialize_library
from .generate import (
    carry_terms,
    compose,
    gen_ccla_block,
    gen_rca_block,
    gen_scbcla_block,
)
from .netio import from_text, read_text, to_text, to_verilog, write_text
from .netlist import (
    CellKind,
    Gate,
    Netlist,
    NetlistBuilder,
    topo_order,
    validate,
)
from .simulate import (
    Counterexample,
    InputVector,
    ToggleStats,
    collect_toggles,
    dump_trace,
    evaluate,
    prng_word,
    random_vectors,
    run_vectors,
    verify_exhaustive_netlist,
    verify_random,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BlockKind",
    "CellKind",
    "Comparison",
    "Counterexample",
    "Gate",
    "InputVector",
    "Netlist",
    "NetlistBuilder",
    "PRESETS",
    "ToggleStats",
    "analyze_design",
    "area",
    "carry_terms",
    "collect_toggles",
    "compare",
    "comparison_csv",
    "compose",
    "critical_path",
    "default_library",
    "dump_trace",
    "evaluate",
    "fom",
    "format_comparison",
    "from_text",
    "gen_ccla_block",
    "gen_rca_block",
    "gen_scbcla_block",
    "load_library",
    "metrics_report",
    "net_capacitance",
    "parse_arch_spec",
    "parse_library",
    "power",
    "power_components",
    "preset",
    "prng_word",
    "random_vectors",
    "read_text",
    "report_json",
    "run_vectors",
    "serialize_library",
    "to_text",
    "to_verilog",
    "topo_order",
    "validate",
    "verify_exhaustive_netlist",
    "verify_random",
    "write_text",
]
