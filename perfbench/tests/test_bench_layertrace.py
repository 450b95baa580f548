import json

import layertrace
import workloads
from choilab import cli, entanglement, nonadditivity, states


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("op", 0, 100, -1),
        span("a", 10, 60, 0),  # children 15-25 and 20-40 overlap: 25 ns covered
        span("b", 15, 25, 1),
        span("c", 20, 40, 1),
        span("d", 70, 90, 0),
        span("e", 85, 95, 4),  # runs past its parent's end: only 85-90 counts
        span("op", 200, 230, -1, 1),
    ]
    assert layertrace.self_times(spans) == [30, 25, 10, 20, 15, 10, 30]


def test_per_layer_divides_by_ops():
    tracer = layertrace.Tracer()
    tracer.spans = [
        span("cli.main", 0, 1_000_000, -1),
        span("entanglement.ppt_check", 100_000, 400_000, 0),
        span("cli.main", 2_000_000, 4_000_000, -1, 1),
    ]
    tracer.counts["linalg.as_matrix"] = 10
    out = layertrace.per_layer(tracer, 2)
    assert out["cli.main.calls"] == 1.0
    assert out["cli.main.self_ms"] == (0.7 + 2.0) / 2
    assert out["entanglement.ppt_check.self_ms"] == 0.15
    assert out["linalg.as_matrix.calls"] == 5.0
    assert out["nonadditivity.binding_channel.calls"] == 0.0


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (entanglement.ppt_check, cli.ppt_check, nonadditivity.ppt_check)
    post_init = states.MultipartiteState.__post_init__
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert entanglement.ppt_check is cli.ppt_check is nonadditivity.ppt_check
        assert entanglement.ppt_check is not originals[0]
        assert entanglement.ppt_check.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (entanglement.ppt_check, cli.ppt_check, nonadditivity.ppt_check) == originals
    assert states.MultipartiteState.__post_init__ is post_init


def traced_counts(workload, ops):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for i in range(ops):
            with tracer.op(i):
                out = workload.op(i)
            assert not workload.check(i, out)
    finally:
        tracer.uninstall()
    return tracer, layertrace.per_layer(tracer, ops)


def test_reproduce_counts_repeat_exactly(tmp_path):
    w = workloads.Reproduce(tmp_path, 0)
    runs = [traced_counts(w, 2)[1] for _ in range(2)]
    counts = [{k: v for k, v in r.items() if not k.endswith("self_ms")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["nonadditivity.binding_channel.calls"] == 18
    assert counts[0]["states.MultipartiteState.calls"] == 56
    assert counts[0]["states.MultipartiteState.calls"] == counts[0]["linalg.min_eigenvalue.calls"]


def test_classify_counts_per_size(tmp_path):
    w = workloads.Classify(tmp_path, 1)
    w.cycle = ("N4", "N6")
    w.prepare()
    tracer, _ = traced_counts(w, 2)
    by_kind = layertrace.calls_by_kind(tracer, w.kind, ["entanglement.ppt_check"])
    assert by_kind == {"N4": {"entanglement.ppt_check": 7.0}, "N6": {"entanglement.ppt_check": 31.0}}
    # one 2^N x 2^N eigensolve per cut
    assert tracer.work["entanglement.ppt_check.dim3_sum"] == 7 * 16**3 + 31 * 64**3
    assert tracer.work["codec.bytes_read"] == sum(p.stat().st_size for p, _ in (w.pool["N4"][0], w.pool["N6"][0]))


def test_spans_are_written_one_per_line(tmp_path):
    tracer = layertrace.Tracer()
    tracer.spans = [span("op", 0, 5, -1), span("cli.main", 1, 4, 0)]
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    assert [json.loads(line) for line in path.read_text().splitlines()] == tracer.spans
