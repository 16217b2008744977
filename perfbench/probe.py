"""One cold start of a workload, timed from a fresh interpreter.

Imports the program, builds the workload's first few requests and
simulates them once — what a user waits for before the first result —
and prints the elapsed seconds scaled to the reference speed (see
``common.py``).  ``run.py`` runs it several times per run and reports
the median as ``setup_s``.

    python3 perfbench/probe.py --workload serve --seed 1
"""

import argparse
import time

from common import add_program_to_path, reference_loop, scaled

#: Requests in the first simulation.
PROBE_REQUESTS = 16


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    add_program_to_path()
    loop_before = reference_loop()
    started = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.run(workload.make_inputs(args.seed, PROBE_REQUESTS))
    elapsed = time.perf_counter() - started
    print(repr(scaled(elapsed, loop_before, reference_loop())))


if __name__ == "__main__":
    main()
