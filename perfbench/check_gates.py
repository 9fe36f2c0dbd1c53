"""Show that every correctness gate of the benchmark fires.

    python3 perfbench/check_gates.py [--seed 0]

For each workload, one real pass must pass its gate, and a deliberately
broken variant must fail it:

- curvature_4d: block 2 of the Weyl error flipped (``flip_block=2``), both at
  the workload's grid and in the 8^4 -> 16^4 accuracy probe;
- solve_4d: the target u* perturbed by one part in 10^6;
- construct_4d: a search radius below three grid cells, so no cell gets a
  finite value.

Exits 0 when every gate behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from run import import_package, pin_threads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    pin_threads()
    import_package()
    import workloads as w
    from scalarweyl import deformation

    stage = contextlib.nullcontext
    checks = []  # (label, failures, expect_failure)

    probe = w.accuracy_probe(args.seed)
    checks.append(("accuracy probe as is", probe["failures"], False))
    checks.append(
        ("accuracy probe, block 2 flipped",
         w.accuracy_probe(args.seed, flip_block=2)["failures"], True)
    )

    inp = w.setup_curvature(args.seed)[0]
    out = w.pass_curvature(inp, stage)
    checks.append(("curvature_4d as is", w.check_curvature(inp, out, probe)[1], False))
    flipped = dict(out, E=deformation.weyl_error(out["bundle"], flip_block=2))
    checks.append(
        ("curvature_4d, block 2 flipped", w.check_curvature(inp, flipped, probe)[1], True)
    )
    del out, flipped

    inp = w.setup_solve(args.seed)[0]
    out = w.pass_solve(inp, stage)
    checks.append(("solve_4d as is", w.check_solve(inp, out, probe)[1], False))
    perturbed = dict(inp, u_star=inp["u_star"] * (1.0 + 1e-6))
    checks.append(("solve_4d, u* perturbed by 1e-6", w.check_solve(perturbed, out, probe)[1], True))

    inp = w.setup_construct(args.seed)[0]
    out = w.pass_construct(inp, stage)
    checks.append(("construct_4d as is", w.check_construct(inp, out, probe)[1], False))
    coarse = dict(inp, r_grid=(w.PERIOD / 12,))
    out = w.pass_construct(coarse, stage)
    checks.append(("construct_4d, radius below 3 cells", w.check_construct(coarse, out, probe)[1], True))

    ok = True
    for label, failures, expect in checks:
        good = bool(failures) == expect
        ok &= good
        verdict = "fails" if failures else "passes"
        print(f"{'ok  ' if good else 'BAD '} {label}: gate {verdict}")
        for f in failures:
            print(f"       {f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
