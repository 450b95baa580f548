"""choilab benchmark: run one workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload {reproduce,classify,channel-files} \
        --seed N --seconds S --trace {0,1}

One client in one process drives choilab in a closed loop: each op starts
when the previous one has returned and been checked.  The loop runs whole
input periods until ``--seconds`` have passed and at least MIN_OPS ops
are in, so the 90th percentile has ten samples beyond it.

--trace 0 prints the end-to-end metrics: set-up time (fresh interpreters
through their first op, spread over the run) and the 90th-percentile op
latency; the "detail" line adds the median, throughput, per-kind medians
and the latency of one ``python -m choilab`` process.  --trace 1 prints
per-layer calls, self time and computed work per op from a run in which
each layer's public functions are wrapped from outside (see
layertrace.py), and the tracing overhead against an untraced run of the
same length.

BLAS and OpenMP are pinned to one thread before numpy loads, here and in
every child.  Inputs come from --seed only; the lines before the last one
record the seed, the machine and library versions, and per-kind detail.
The benchmark measures the choilab under src/ next to this directory and
exits 2 without a result when it is missing.
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

MIN_OPS = 100
COLD_RUNS = 7
CHILD_TIMEOUT_S = 60

# Gated metrics.  On a shared 2-vCPU x86_64 VM the CPU was seen to switch
# between a fast and a slow state every 5-30 s (full_report() took 20 ms
# or 33-37 ms), so a run's median op time depends on how long it happened
# to run fast, while the 90th percentile sits in the slow state in nearly
# every run.  Medians, throughput and process latency are printed on the
# "detail" line instead.
END_TO_END_UNITS = {"setup_s": "s", "op_p90_ms": "ms"}


def per_layer_units(layertrace) -> dict[str, str]:
    units = {}
    for name in layertrace.span_names():
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_ms"] = "ms/op"
    for mod, fns in layertrace.COUNTED.items():
        units.update({f"{mod}.{fn}.calls": "count/op" for fn in fns})
    for name in layertrace.WORK_NAMES:
        units[name] = "bytes/op" if name.startswith("codec.") else "n3/op"
    units["trace_overhead_pct"] = "%"
    return units


class Tally:
    """Attempted and failed ops, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def run_ops(workload, tally: Tally, first: int, seconds: float, min_ops: int, tracer=None, period=None, between=None):
    """Closed loop over whole input periods; returns (op index, kind, seconds) per op.

    ``between(elapsed)`` runs after each op; the time it takes does not count
    against ``seconds``.
    """
    period = period or workload.period
    samples = []
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < min_ops or (i - first) % period:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.op(i):
                    out = workload.op(i)
            elapsed = time.perf_counter() - t0
            problems = workload.check(i, out)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            elapsed = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.record(f"op {i} ({workload.kind(i)})", problems)
        samples.append((i, workload.kind(i), elapsed))
        i += 1
        if between is not None:
            t1 = time.perf_counter()
            between(seconds - (deadline - t1))
            deadline += time.perf_counter() - t1
    return samples


def warm_up(workload, tally: Tally) -> int:
    """One untimed op of each input kind, so lazy set-up and caches are done; returns the next index."""
    run_ops(workload, tally, 0, 0.0, len(workload.cycle), period=1)
    return len(workload.cycle)


def latency_ms(samples) -> dict[str, float]:
    ms = [s * 1e3 for _, _, s in samples]
    return {
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
    }


def timed_child(argv, tally: Tally, what: str, expect_stdout=None) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = time.perf_counter() - t0
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if expect_stdout is not None and proc.stdout != expect_stdout:
        problems.append("stdout differs from the in-process output")
    tally.record(what, problems)
    return elapsed


class Children:
    """Fresh-interpreter runs, spread evenly over the timed loop.

    Each slot times one cold run (``cold.py``: import choilab.cli, build op
    0's inputs, run and check it) for ``setup_s``, and one ``python -m
    choilab`` process whose stdout must equal the in-process output.
    """

    def __init__(self, workload, workloads, args, workdir, tally: Tally):
        self.workload, self.workloads, self.tally = workload, workloads, tally
        self.seconds = args.seconds
        self.cold_argv = [
            sys.executable, str(bootstrap.ROOT / "perfbench" / "cold.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        ]
        self.cold: list[float] = []
        self.process: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if len(self.cold) < COLD_RUNS and elapsed >= self.seconds * len(self.cold) / COLD_RUNS:
            self.run_slot()

    def run_slot(self) -> None:
        k = len(self.cold)
        self.cold.append(timed_child(self.cold_argv, self.tally, f"cold run {k}"))
        argv = self.workload.process_argv()
        _, expected = self.workloads.run_cli(argv)
        child = [sys.executable, "-m", "choilab", *argv]
        self.process.append(timed_child(child, self.tally, f"process {k}", expected))

    def finish(self) -> None:
        while len(self.cold) < COLD_RUNS:
            self.run_slot()


def end_to_end(workload, workloads, args, workdir, tally: Tally):
    first = warm_up(workload, tally)
    children = Children(workload, workloads, args, workdir, tally)
    samples = run_ops(workload, tally, first, args.seconds, MIN_OPS, between=children)
    children.finish()
    latency = latency_ms(samples)
    metrics = {"setup_s": statistics.median(children.cold), "op_p90_ms": latency["op_p90_ms"]}
    kinds: dict[str, list[float]] = {}
    for _, kind, s in samples:
        kinds.setdefault(kind, []).append(s * 1e3)
    detail = {
        "ops": len(samples),
        "error_rate": tally.failed / tally.attempted,
        "op_p50_ms": latency["op_p50_ms"],
        "ops_per_s": latency["ops_per_s"],
        "process_p50_ms": statistics.median(children.process) * 1e3,
        **{f"p50_ms.{k}": statistics.median(v) for k, v in sorted(kinds.items()) if len(kinds) > 1},
    }
    return metrics, END_TO_END_UNITS, detail


def per_layer(workload, layertrace, args, tally: Tally):
    half = args.seconds / 2
    first = warm_up(workload, tally)
    plain = run_ops(workload, tally, first, half, 1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, tally, first + len(plain), half, 1, tracer)
    finally:
        tracer.uninstall()
    metrics = layertrace.per_layer(tracer, len(traced))
    untraced = latency_ms(plain)["op_p90_ms"]
    metrics["trace_overhead_pct"] = 100 * (latency_ms(traced)["op_p90_ms"] / untraced - 1)
    out_dir = bootstrap.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    kinds = {i: kind for i, kind, _ in traced}
    detail = {
        "ops": len(traced),
        "spans": str(spans_path.relative_to(bootstrap.ROOT)),
        "calls_by_kind": layertrace.calls_by_kind(
            tracer, kinds.get, ["entanglement.ppt_check", "states.MultipartiteState", "nonadditivity.binding_channel"]
        ),
    }
    return metrics, per_layer_units(layertrace), detail


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "classify", "channel-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.use_checkout_source()
        import choilab

        bootstrap.check_imported(choilab)
    except bootstrap.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import layertrace
    import workloads

    work_root = bootstrap.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        workload.prepare()
        tally = Tally()
        if args.trace:
            metrics, units, detail = per_layer(workload, layertrace, args, tally)
        else:
            metrics, units, detail = end_to_end(workload, workloads, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in tally.problems:
        print(f"failed {p}", file=sys.stderr)
    print("env " + json.dumps(environment(np, args.seed), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
