"""Accuracy probe of one seed, in a process of its own.

    python3 perfbench/probe.py --seed S

Prints ``workloads.accuracy_probe(S)`` as one JSON object.  run.py starts it
before the passes, as a child process so that the probe's memory stays out
of the workload's peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_package, pin_threads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    pin_threads()
    import_package()
    from workloads import accuracy_probe

    print(json.dumps(accuracy_probe(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
