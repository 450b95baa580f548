"""The three closed-loop workloads: inputs, the timed op, and the output check.

Each workload drives choilab only through its public entry points
(``cli.main`` and the ``codec`` functions), looked up on their modules at
call time so that the traced run can wrap them from outside.  ``op(i)``
is the timed part; ``check(i, out)`` runs untimed and returns a list of
problems, empty when the op's outputs are correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gen
from choilab import channels, cli, codec, nonadditivity, states


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _entries(text: str) -> dict[str, dict]:
    return {e["id"]: e for e in json.loads(text)["entries"]}


def check_reproduce(code: int, text: str, reference: str | None) -> list[str]:
    """Exit 0, every entry pass, the headline witnessed, and the reference bytes."""
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    entries = _entries(text)
    failing = sorted(k for k, e in entries.items() if e["status"] != "pass")
    if failing:
        problems.append(f"entries not pass: {failing}")
    headline = entries.get("nonadditivity-headline", {}).get("computed")
    if headline != "non-additivity witnessed":
        problems.append(f"headline reads {headline!r}")
    if reference is not None and text != reference:
        problems.append("output bytes differ from the first op")
    return problems


def check_classify(code: int, text: str, spec: gen.GhzSpec) -> list[str]:
    """Every cut verdict (both routes) and every default pair against the generator."""
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    entries = _entries(text)
    if abs(entries["delta"]["delta"] - spec.delta) > 1e-12:
        problems.append(f"delta {entries['delta']['delta']} != {spec.delta}")
    for j, lam in spec.lambdas.items():
        got = entries.get(f"lambda-{j}", {}).get("value")
        if got is None or abs(got - lam) > 1e-12:
            problems.append(f"lambda_{j} = {got}, expected {lam}")
        want = "NPT" if spec.npt(j) else "PPT"
        row = entries.get(f"cut-{j}", {})
        for route in ("eigensolver", "criterion"):
            if row.get(route) != want:
                problems.append(f"cut {j} {route} {row.get(route)}, expected {want}")
    for key, want in spec.default_pairs().items():
        got = entries.get(key, {}).get("distillable")
        if got is not want:
            problems.append(f"{key} = {got}, expected {want}")
    return problems


class Workload:
    """One closed-loop client.

    Ops cycle through the input kinds in ``cycle``; any ``period``
    consecutive ops use every input of the pool equally often, so per-op
    work averaged over whole periods repeats exactly.
    """

    name = ""
    cycle: tuple[str, ...] = ("op",)
    period = 1

    def __init__(self, workdir: Path, seed: int):
        self.workdir = Path(workdir)
        self.seed = seed

    def prepare(self, write_files: bool = True) -> None:
        """Build the inputs, untimed.  Files already on disk are reused when write_files is False."""

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def process_argv(self) -> list[str]:
        """A one-op command line for ``python -m choilab``, run as a child."""
        raise NotImplementedError


class Reproduce(Workload):
    """The paper's headline chain; its inputs are fixed, so the seed is unused."""

    name = "reproduce"
    argv = ["--format", "json", "reproduce"]

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.reference: str | None = None

    def op(self, i):
        return run_cli(self.argv)

    def check(self, i, out):
        code, text = out
        problems = check_reproduce(code, text, self.reference)
        if self.reference is None and not problems:
            self.reference = text
        return problems

    def process_argv(self):
        return self.argv


class Classify(Workload):
    """``classify`` on a seeded pool of GHZ-diagonal state files, N in {4, 6, 8}.

    Of every 20 ops, 5 read an N=4 file, 14 an N=6 file and one an N=8
    file.  The N=8 ops take most of the time; their count keeps the 90th
    percentile among the slowest N=6 ops, where it is steady (see run.py),
    and their own median is reported per kind.
    """

    name = "classify"
    cycle = ("N4", "N6", "N6", "N6") * 4 + ("N4", "N6", "N6", "N8")
    pool_per_size = 3
    period = len(cycle) * pool_per_size

    def prepare(self, write_files=True):
        rng = np.random.default_rng(self.seed)
        self.pool: dict[str, list[tuple[Path, gen.GhzSpec]]] = {}
        for n in (4, 6, 8):
            entries = []
            for k in range(self.pool_per_size):
                spec = gen.ghz_spec(rng, n)
                path = self.workdir / f"ghz-N{n}-{k}.json"
                if write_files:
                    path.write_text(spec.file_text())
                entries.append((path, spec))
            self.pool[f"N{n}"] = entries

    def _input(self, i):
        kind = self.kind(i)
        per_cycle = self.cycle.count(kind)
        seen = (i // len(self.cycle)) * per_cycle + self.cycle[: i % len(self.cycle)].count(kind)
        entries = self.pool[kind]
        return entries[seen % len(entries)]

    def op(self, i):
        path, _ = self._input(i)
        return run_cli(["--format", "json", "classify", str(path)])

    def check(self, i, out):
        return check_classify(*out, self._input(i)[1])

    def process_argv(self):
        return ["--format", "json", "classify", str(self.pool["N4"][0][0])]


class ChannelSet:
    """Three channels of one op, with what their files and reports must show."""

    def __init__(self, chans, order=None, pairs=()):
        self.channels = chans
        self.order = order
        self.pairs = pairs
        outputs = list(chans[0].output_system.labels)
        choi = gen.mixture_choi([ch.kraus for ch in chans])
        if order is None:
            labels = [f"{l}_ref" for l in chans[0].input_system.labels] + outputs
        else:
            # The order labels that are not outputs name the reference qubits.
            labels = [l for l in order if l not in outputs] + outputs
            choi = gen.permute(choi, len(labels), [labels.index(l) for l in order])
            labels = list(order)
        self.choi_labels = tuple(labels)
        self.choi = choi
        self.min_pt = {j: gen.min_pt_eigenvalue(choi, len(labels), j) for j in gen.all_cuts(len(labels))}


class ChannelFiles(Workload):
    """The file workflow: encode, verify, mix, choi, classify, decode.

    Two of every three ops use the three binding channels; the third uses a
    seeded set of random CPTP maps, whose Choi states are not GHZ-diagonal.
    """

    name = "channel-files"
    cycle = ("binding", "binding", "random")
    random_sets = 6
    period = len(cycle) * random_sets

    def prepare(self, write_files=True):
        self.binding = ChannelSet(
            [nonadditivity.binding_channel(a) for a in (1, 2, 3)],
            order=nonadditivity.CANONICAL_ORDER,
            pairs=("A1,A2:B", "A1,A2:C"),
        )
        rng = np.random.default_rng(self.seed)
        self.randoms = []
        for t in range(self.random_sets):
            specs = gen.random_channel_set(rng, str(t))
            self.randoms.append(ChannelSet([to_channel(s) for s in specs]))
        self.paths = [self.workdir / f"ch{c}.json" for c in range(3)]
        self.mix_path = self.workdir / "mix.json"
        self.choi_path = self.workdir / "mix-choi.json"

    def _set(self, i) -> ChannelSet:
        if self.kind(i) == "binding":
            return self.binding
        return self.randoms[(i // len(self.cycle)) % len(self.randoms)]

    def op(self, i):
        cs = self._set(i)
        for ch, path in zip(cs.channels, self.paths):
            path.write_text(codec.dumps(codec.channel_to_dict(ch)))
        files = [str(p) for p in self.paths]
        reports = {f"verify-{c}": run_cli(["--format", "json", "verify", p]) for c, p in enumerate(files)}
        reports["mix"] = run_cli(["--format", "json", "mix", *files, "--out", str(self.mix_path)])
        order = ["--order", ",".join(cs.order)] if cs.order else []
        reports["choi"] = run_cli(
            ["--format", "json", "choi", str(self.mix_path), *order, "--out", str(self.choi_path)]
        )
        pairs = [a for p in cs.pairs for a in ("--pair", p)]
        reports["classify"] = run_cli(["--format", "json", "classify", str(self.choi_path), *pairs])
        decoded = [codec.channel_from_dict(codec.load_path(p)) for p in (*self.paths, self.mix_path)]
        choi = codec.state_from_dict(codec.load_path(self.choi_path))
        return reports, decoded, choi

    def check(self, i, out):
        reports, decoded, choi = out
        cs = self._set(i)
        problems = []
        for key, (code, text) in reports.items():
            if code != 0:
                problems.append(f"{key}: exit {code}")
            if json.loads(text)["overall"] != "pass":
                problems.append(f"{key}: overall not pass")
        # Every written file decodes bit-exactly; the inputs decode to what was encoded.
        for path, got in zip((*self.paths, self.mix_path), decoded):
            doc = json.loads(path.read_text())
            for k, (a, rows) in enumerate(zip(got.kraus, doc["kraus"])):
                if not gen.same_bits(a, gen.parse_matrix(rows)):
                    problems.append(f"{path.name}: Kraus {k} does not round-trip bit-exactly")
        for ch, got in zip(cs.channels, decoded):
            if (got.name, got.input_system, got.output_system) != (ch.name, ch.input_system, ch.output_system):
                problems.append(f"{ch.name}: name or systems changed in the file")
            if len(got.kraus) != len(ch.kraus) or not all(map(gen.same_bits, got.kraus, ch.kraus)):
                problems.append(f"{ch.name}: decoded Kraus operators differ from the encoded ones")
        scale = math.sqrt(1 / len(cs.channels))
        expected = [scale * a for ch in cs.channels for a in ch.kraus]
        mixed = decoded[-1].kraus
        if len(mixed) != len(expected) or any(np.abs(a - b).max() > 1e-15 for a, b in zip(mixed, expected)):
            problems.append("mixture Kraus list is not the scaled concatenation")
        if not gen.same_bits(choi.matrix, gen.parse_matrix(json.loads(self.choi_path.read_text())["matrix"])):
            problems.append("Choi file does not round-trip bit-exactly")
        if choi.system.labels != cs.choi_labels:
            problems.append(f"Choi labels {choi.system.labels}, expected {cs.choi_labels}")
        elif np.linalg.norm(choi.matrix - cs.choi) > 1e-12:
            problems.append("Choi state differs from the benchmark's own")
        entries = _entries(reports["classify"][1])
        for j, low in cs.min_pt.items():
            row = entries.get(f"cut-{j}", {})
            want = "PPT" if low >= gen.PSD_THRESHOLD else "NPT"
            if row.get("eigensolver") != want or abs(row.get("min_eigenvalue", math.inf) - low) > 1e-9:
                problems.append(f"cut {j}: {row.get('eigensolver')} {row.get('min_eigenvalue')}, expected {want} {low}")
        if cs.pairs:
            for pair in cs.pairs:
                key = "distill-{}-vs-{}".format(*pair.split(":"))
                if entries.get(key, {}).get("distillable") is not True:
                    problems.append(f"{key} not distillable")
        elif entries["residual"]["status"] != "warn":
            problems.append("a random channel's Choi state did not take the non-GHZ-diagonal path")
        return problems

    def process_argv(self):
        return ["--format", "json", "verify", str(self.paths[0])]


def to_channel(spec: gen.ChannelSpec) -> channels.KrausChannel:
    def system(labels):
        return states.PartySystem(labels, (2,) * len(labels))

    return channels.KrausChannel(spec.name, system(spec.in_labels), system(spec.out_labels), spec.kraus)


WORKLOADS = {w.name: w for w in (Reproduce, Classify, ChannelFiles)}
