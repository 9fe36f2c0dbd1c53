"""Compare traced per-call times with the ROADMAP item-1 timing table.

    python3 perfbench/crosscheck.py perfbench/results/<workload>-seed<S>-trace1.json ...

For each of ``curvature_bundle``, ``weyl_error`` and ``first_eigenvalue``
found in the given traced runs, prints the mean inclusive time per call and
per grid point, raw and divided by (1 + trace_overhead) of its run, next to
the per-point range spanned by the table's 16^4 and 24^4 figures.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

# ROADMAP item 1, measured on 2 cores with numpy 2.4.6: seconds at 16^4, 24^4
TABLE = {
    "curvature.curvature_bundle": (1.24, 7.9),
    "deformation.weyl_error": (1.17, 8.2),
    "yamabe.first_eigenvalue": (2.3, 8.0),
}


def main(paths) -> int:
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        with open(path.replace(".json", "-spans.json")) as fh:
            spans = json.load(fh)
        points = math.prod(record["environment"]["grid"])
        overhead = record["metrics"]["trace_overhead"]
        inclusive = defaultdict(list)
        for span in spans:
            if span["name"] in TABLE:
                inclusive[span["name"]].append(span["end"] - span["start"])
        print(f"{path}: {points} points, trace_overhead {overhead:.3f}")
        for name, times in inclusive.items():
            mean = sum(times) / len(times)
            lo, hi = (t / n**4 * 1e6 for t, n in zip(TABLE[name], (16, 24)))
            raw = mean / points * 1e6
            corrected = raw / (1.0 + overhead)
            inside = min(lo, hi) <= corrected <= max(lo, hi)
            print(
                f"  {name}: {len(times)} calls, {mean:.3f} s/call, {raw:.2f} us/point raw, "
                f"{corrected:.2f} corrected; table {lo:.2f}..{hi:.2f} us/point "
                f"({'inside' if inside else 'OUTSIDE'})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
