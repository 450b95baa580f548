"""One cold op in a fresh interpreter: import choilab.cli, build op 0's inputs, run and check it.

run.py times this script from outside to get ``setup_s``.  Exit status 0
means the op's outputs passed their check.

    python3 perfbench/cold.py --workload NAME --seed N --workdir DIR
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    bootstrap.use_checkout_source()
    import workloads

    w = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    w.prepare(write_files=False)
    problems = w.check(0, w.op(0))
    for p in problems:
        print(f"cold op: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
