#!/usr/bin/env python3
"""Size survey of the two lookahead block styles across widths.

For each block width the table shows whole-block gate count and area,
then the size of the carry generator cone alone: the block template's
gates tagged CONE, the part the two styles actually differ in. When only the section carry is produced
the cone shrinks by 40% at width 2, rising to 74.4% at width 8. The
generate/propagate and sum logic are shared, so whole blocks differ
far less: at width 2 they coincide, and the whole-block area cut
reaches 25% only from width 6.
"""

import argparse
import sys

from adderlab import area, BlockKind, compose, default_library
from adderlab.generate import CONE, template


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-width", type=int, default=8)
    args = ap.parse_args(argv)
    lib = default_library()

    head = (
        f"{'m':>2}  {'full blk':>9}  {'sect blk':>9}  {'blk cut%':>8}"
        f"  {'full cone':>9}  {'sect cone':>9}  {'cone cut%':>9}"
    )
    print(head)
    print("-" * len(head))
    for m in range(2, args.max_width + 1):
        full = compose(f"ccla:{m}")
        sect = compose(f"scbcla:{m}")
        a_full, a_sect = area(full, lib), area(sect, lib)
        g_full, g_sect = len(full.gates), len(sect.gates)
        c_full = template(BlockKind.CCLA, m).regions.count(CONE)
        c_sect = template(BlockKind.SCBCLA, m).regions.count(CONE)
        print(
            f"{m:>2}  {g_full:>3} {a_full:>5.1f}  {g_sect:>3} {a_sect:>5.1f}"
            f"  {100 * (a_full - a_sect) / a_full:>7.1f}%"
            f"  {c_full:>9}  {c_sect:>9}  {100 * (c_full - c_sect) / c_full:>8.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
