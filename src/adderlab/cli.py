"""Command line front end: gen, verify, analyze, compare, export.

Exit codes: 0 success, 1 usage or configuration error, 2 functional
verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys

from .analyze import (
    _analyze,
    analyze_design,
    compare,
    comparison_csv,
    format_comparison,
    metrics_report,
    report_json,
)
from .arch import ArchitectureSpec, PRESETS, parse_arch_spec, preset
from .cells import default_library, load_library
from .errors import AdderLabError, InvalidWidth, ParseError, parse_int
from .generate import compose
from .netio import read_text, read_utf8, to_text, to_verilog
from .simulate import (
    _EXHAUSTIVE_LIMIT,
    random_vectors,
    dump_trace,
    verify_exhaustive_netlist,
    verify_random,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default, which collides
    # with the verification-failure exit code; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_spec_options(p: argparse.ArgumentParser, with_file: bool = False) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", metavar="NAME", help=f"one of: {', '.join(PRESETS)}")
    g.add_argument("--arch", metavar="SPEC", help='architecture string, e.g. "rca:2,ccla:3x10"')
    if with_file:
        g.add_argument("--from-file", metavar="PATH", help="previously saved netlist file")


def _resolve_spec(args) -> tuple[str, ArchitectureSpec]:
    if args.preset:
        return args.preset, preset(args.preset)
    spec = parse_arch_spec(args.arch)
    return spec.to_string(), spec


def _add_sim_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lib", metavar="PATH", help="cell library JSON (default: bundled)")
    p.add_argument("--vectors", type=int, default=1024)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--interval-ns", type=float, default=5.0)


def _resolve_lib(args):
    return load_library(args.lib) if args.lib else default_library()


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    name, spec = _resolve_spec(args)
    nl = compose(spec)
    module = args.module if args.module is not None else re.sub(r"[^A-Za-z0-9_]", "_", name)
    verilog = to_verilog(nl, module) if args.verilog else None  # a bad name writes nothing
    _emit(to_text(nl), args.out)
    if verilog:
        with open(args.verilog, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(verilog)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.from_file:
        nl = read_text(args.from_file)
        label = args.from_file
    else:
        label, spec = _resolve_spec(args)
        nl = compose(spec)
    if args.width is not None and args.width != nl.width:
        raise InvalidWidth(f"netlist is {nl.width} bits wide, expected {args.width}")

    exhaustive = args.exhaustive or nl.width <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        bad = verify_exhaustive_netlist(nl)
        how = f"exhaustive, {1 << (2 * nl.width + 1)} rows"
    else:
        bad = verify_random(nl, count=args.vectors, seed=args.seed)
        how = f"{args.vectors} vectors, seed {args.seed}"
    if bad is None:
        print(f"{label}: ok ({how})")
        return EXIT_OK
    print(f"{label}: MISMATCH ({how})", file=sys.stderr)
    print(f"  {bad}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_analyze(args) -> int:
    name, spec = _resolve_spec(args)
    lib = _resolve_lib(args)
    report, nl = _analyze(name, spec, lib, args.vectors, args.seed, args.interval_ns)
    _emit(report_json(report), args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            dump_trace(nl, random_vectors(nl.width, args.vectors, args.seed), fh)
    return EXIT_OK


_RANGE_RE = re.compile(r"^(.*?)(\d+)\.\.(.*?)(\d+)$")


def _expand_presets(text: str) -> list[str]:
    names: list[str] = []
    for item in text.split(","):
        item = item.strip()
        m = _RANGE_RE.match(item)
        if m and m.group(1) == m.group(3):
            lo, hi = (parse_int(m.group(n), "preset range bound") for n in (2, 4))
            if lo > hi:
                raise ParseError(f"empty preset range {item!r}")
            for i in range(lo, hi + 1):  # only as far as the first name that is no preset
                names.append(f"{m.group(1)}{i}")
                preset(names[-1])
        elif item:
            names.append(item)
    if not names:
        raise ParseError("no preset names given")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParseError(f"preset {name!r} is listed more than once in {text!r}")
        seen.add(name)
    return names


def _read_metrics_csv(path: str):
    reader = csv.DictReader(io.StringIO(read_utf8(path)))
    need = {"design", "power_uw", "delay_ns", "area_um2"}
    if reader.fieldnames is None or not need.issubset(reader.fieldnames):
        raise ParseError(f"metrics CSV needs columns {', '.join(sorted(need))}")
    reports, seen = [], set()
    for row in reader:
        if None in row:  # DictReader files the fields past the header under None
            raise ParseError("metrics row has more fields than the header", line=reader.line_num)
        name = row["design"] or ""
        if not name.strip():
            raise ParseError("metrics row has an empty design name", line=reader.line_num)
        if name in seen:
            raise ParseError(f"design {name!r} is listed more than once", line=reader.line_num)
        seen.add(name)
        try:
            reports.append(
                metrics_report(
                    name,
                    float(row["power_uw"]),
                    float(row["delay_ns"]),
                    float(row["area_um2"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad metrics row {row!r}: {exc}") from exc
    return reports


def cmd_compare(args) -> int:
    if args.table1:
        reports = _read_metrics_csv(args.table1)
    else:
        lib = _resolve_lib(args)
        reports = [
            analyze_design(
                name,
                preset(name),
                lib,
                vectors=args.vectors,
                seed=args.seed,
                interval_ns=args.interval_ns,
            )
            for name in _expand_presets(args.presets)
        ]
    result = compare(reports)
    sys.stdout.write(format_comparison(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(comparison_csv(result))
    return EXIT_OK


def cmd_export(args) -> int:
    nl = read_text(args.from_file)
    if args.verilog:
        module = args.module if args.module is not None else f"adder{nl.width}"
        _emit(to_verilog(nl, module), args.out)
    else:
        _emit(to_text(nl), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="adderlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a netlist")
    _add_spec_options(p)
    p.add_argument("--out", metavar="PATH", help="netlist output path (default stdout)")
    p.add_argument("--verilog", metavar="PATH", help="also write a structural Verilog module")
    p.add_argument("--module", metavar="NAME", help="Verilog module name")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a design against integer addition")
    _add_spec_options(p, with_file=True)
    p.add_argument("--width", type=int, help="expected adder width (cross-check)")
    p.add_argument("--vectors", type=int, default=100000, help="random vector count")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help=f"require an exhaustive check; automatic at width <= {_EXHAUSTIVE_LIMIT}, "
        "an error above it",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="measure power/delay/area and figure of merit")
    _add_spec_options(p)
    _add_sim_options(p)
    p.add_argument("--out", metavar="PATH", help="report path (default stdout)")
    p.add_argument("--trace", metavar="PATH", help="also dump per-vector net values")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="rank designs by figure of merit")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--presets",
        metavar="NAMES",
        help='comma list or range, e.g. "design1..design6" or "design1,rca32"',
    )
    g.add_argument(
        "--table1",
        metavar="CSV",
        help="rank externally measured rows (design,power_uw,delay_ns,area_um2) without simulating",
    )
    _add_sim_options(p)
    p.add_argument("--out", metavar="PATH", help="also write the ranking as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="re-emit a saved netlist (text or Verilog)")
    p.add_argument("--from-file", metavar="PATH", required=True)
    p.add_argument("--verilog", action="store_true", help="emit Verilog instead of netlist text")
    p.add_argument("--module", metavar="NAME", help="Verilog module name")
    p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p.set_defaults(func=cmd_export)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdderLabError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
