"""Command-line front end.

Commands: verify, choi, classify, mix, reproduce.  Global flags: --format
{human,json}, --tolerance <float> (the positivity threshold of verdicts
only, echoed in the report; a state file must meet linalg.PSD_THRESHOLD
whatever it says, and reproduce accepts only the default), --out <path>
(the Choi state for choi, the mixed channel for mix, the JSON report
otherwise).  Exit codes: 0 pass, 1 claim failure, 2 input/usage error.

``main`` turns --tolerance into ``args.threshold`` once, and every command
reads that.  Each row a command reports is one ``codec.report_row`` call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys

import numpy as np

from . import __version__, linalg
from .channels import MIX_LINEARITY_TOL, choi, choi_matrix, mix, mix_weights, verify_cptp
from .codec import (
    channel_from_dict,
    channel_to_dict,
    dumps,
    load_path,
    report_row,
    report_to_dict,
    state_from_dict,
    state_to_dict,
)
from .entanglement import (
    disjoint_groups,
    ghz_diagonal_coefficients,
    npt_vector,
    pair_verdicts,
    ppt_check,
)
from .errors import ChoilabError
from .linalg import PSD_THRESHOLD
from .nonadditivity import full_report
from .states import cut_names

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
DEFAULT_TOLERANCE = -PSD_THRESHOLD


def _finish(args, entries: list[dict], artifact: dict | None = None) -> int:
    """Report a command's entries; --out gets the artifact, or else the report.

    The run fails iff some entry has status "fail".
    """
    failed = any(e["status"] == "fail" for e in entries)
    report = {
        "version": __version__,
        "command": args.command,
        "tolerance": args.tolerance,
        "entries": entries,
        "overall": "fail" if failed else "pass",
    }
    # The report is encoded only when it is printed or written.
    text = dumps(report) if args.format == "json" or (args.out and artifact is None) else None
    if args.out:
        _write_over(args.out, text if artifact is None else dumps(artifact))
    if args.format == "json":
        sys.stdout.write(text)
    else:
        _render_human(report)
    return EXIT_FAIL if failed else EXIT_PASS


# The first byte of a file while _write_over rewrites it: no JSON text starts with it.
_NOT_JSON = b"\0"


def _write_over(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, without truncating the file first.

    Truncating a file on open can block on some file systems.  The new
    bytes go over the old ones behind a first byte that no JSON text
    starts with, the stale tail is cut, and the real first byte is written
    last: once that marker is written, an interrupted write leaves a file
    that is not JSON until the whole new text is in place.  A device or
    pipe, which has no old bytes to cut, gets the text as it is.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.write(data)
            return
        fh.write(_NOT_JSON)
        fh.write(memoryview(data)[1:])
        fh.truncate(len(data))
        fh.seek(0)
        fh.write(data[:1])


def _render_human(report: dict) -> None:
    print(f"choilab {report['version']} :: {report['command']}")
    print(f"positivity threshold: {0.0 - report['tolerance']:g}")  # 0, never -0
    for entry in report["entries"]:
        print(f"  [{entry['status']:>4}] {entry['id']:<34} {entry['computed']}")
    print(f"overall: {report['overall']}")
    headline = next((e for e in report["entries"] if e["id"] == "nonadditivity-headline"), None)
    if headline is not None:
        print(f"headline: {headline['computed']}")


def _cmd_verify(args) -> int:
    ch = channel_from_dict(load_path(args.channel))
    rep = verify_cptp(ch, psd_threshold=args.threshold)
    defect, low = rep.trace_preserving_defect, rep.choi_min_eigenvalue
    entries = [
        report_row("cptp-completeness", rep.trace_preserving, f"defect = {defect:.3e}"),
        report_row("cptp-choi-positive", rep.choi_positive, f"choi min eigenvalue = {low:.3e}"),
    ]
    return _finish(args, entries)


def _cmd_choi(args) -> int:
    ch = channel_from_dict(load_path(args.channel))
    order = [s.strip() for s in args.order.split(",")] if args.order is not None else None
    # choi() rejects a Choi matrix without unit trace (a channel that is
    # not trace preserving) as bad input; its validation solved the
    # smallest eigenvalue this report reads.
    state = choi(ch, order)
    low = state.min_eigenvalue
    entries = [report_row("choi-positive", low >= args.threshold, f"min eigenvalue = {low:.3e}")]
    return _finish(args, entries, state_to_dict(state))


def _parse_pairs(specs, system) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The --pair group pairs, each checked against the system and listed once.

    No group or label may be empty, and no group may list a party twice.
    With no --pair, every pair of single parties.
    """
    pairs = []
    if specs:
        for spec in specs:
            try:
                one, two = spec.split(":")
            except ValueError:
                raise ChoilabError(f"--pair must look like L1,L2:L3 (got {spec!r})") from None
            pair = (
                tuple(s.strip() for s in one.split(",")),
                tuple(s.strip() for s in two.split(",")),
            )
            if "" in pair[0] + pair[1]:
                raise ChoilabError(f"--pair has an empty group or label (got {spec!r})")
            disjoint_groups(system, *pair)
            pairs.append(pair)
    else:
        labels = system.labels
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                pairs.append(((a,), (b,)))
    return list(dict.fromkeys(pairs))


def _cmd_classify(args) -> int:
    """Rows for the GHZ fingerprint, every cut and every group pair.

    Cut k, with j its number written in N-1 bits, gives a lambda-j row (a
    GHZ-diagonal state only) and a cut-j row; each group pair's row names
    its blocking cuts.  Cuts are named from one states.cut_names table.
    Cut k's row makes one ppt_check call, an O(1) read of the table
    entanglement.cut_min_eigenvalues solves for all cuts at once, so that
    the benchmark's per-cut ppt_check count holds.  The criterion column
    and the pair verdicts each read one NPT vector.
    """
    state = state_from_dict(load_path(args.state))
    sys_ = state.system
    coeffs = ghz_diagonal_coefficients(state)  # rejects a state not on qubits
    pairs = _parse_pairs(args.pair, sys_)
    names = cut_names(sys_)
    bits = [f"{k:0{sys_.num_parties - 1}b}" for k in range(1, len(names) + 1)]
    ghz_diagonal = coeffs.ghz_diagonal
    residual = f"off-diagonal residual = {coeffs.offdiagonal_residual:.3e}"
    if not ghz_diagonal:
        residual += " (not GHZ-diagonal: reporting PT facts only)"
    entries = [report_row("residual", "info" if ghz_diagonal else "warn", residual)]
    if ghz_diagonal:
        delta, plus, minus = coeffs.delta, float(coeffs.plus[0]), float(coeffs.minus[0])
        text = f"delta = {delta:.12g}"
        if coeffs.asymmetry_flag:
            text += " (asymmetric pair weights symmetrized)"
        entries.append(
            report_row("delta", "info", text, delta=delta, lambda0_plus=plus, lambda0_minus=minus)
        )
        entries += [
            report_row(f"lambda-{j}", "info", f"lambda_{j} = {lam:.12g}", value=lam)
            for j, lam in zip(bits, coeffs.lambdas.tolist())
        ]
        npt = npt_vector(coeffs, args.threshold).tolist()
    for k, (j, name) in enumerate(zip(bits, names), start=1):
        verdict = ppt_check(state, k, threshold=args.threshold)
        low, solver = verdict.min_eigenvalue, "PPT" if verdict.is_ppt else "NPT"
        if ghz_diagonal:
            # The row fails where the two routes to the cut's verdict disagree.
            criterion = "NPT" if npt[k - 1] else "PPT"
            text = f"{name:<18} eigensolver {solver}, criterion {criterion}, min eig = {low: .6e}"
            entries.append(report_row(f"cut-{j}", "info" if criterion == solver else "fail", text,
                                      cut=name, min_eigenvalue=low, eigensolver=solver,
                                      criterion=criterion))
        else:
            text = f"{name:<18} eigensolver {solver}, min eig = {low: .6e}"
            entries.append(report_row(f"cut-{j}", "info", text,
                                      cut=name, min_eigenvalue=low, eigensolver=solver))
    if ghz_diagonal:
        for (one, two), verdict in zip(pairs, pair_verdicts(coeffs, pairs, args.threshold)):
            a, b = ",".join(one), ",".join(two)
            if verdict.distillable:
                result = "distillable"
            else:
                blocking = "; ".join([names[k - 1] for k in verdict.blocking_cuts])
                result = f"not distillable (blocking: {blocking})"
            entries.append(report_row(f"distill-{a}-vs-{b}", "info", f"{a} vs {b}: {result}",
                                      distillable=verdict.distillable))
    return _finish(args, entries)


def _cmd_mix(args) -> int:
    channels = [channel_from_dict(load_path(p)) for p in args.channels]
    mixed = mix(channels, weights=args.weights)
    # The parts' raw Choi matrices: a part that is not trace preserving is
    # for mix-cptp to report, not an input error.
    w = mix_weights(len(channels), args.weights)
    rep = verify_cptp(mixed, psd_threshold=args.threshold)
    # A huge entry overflows to inf and nan here, which fails the row.
    with np.errstate(over="ignore", invalid="ignore"):
        combo = sum(x * choi_matrix(ch) for x, ch in zip(w, channels))
        linearity = linalg.norm(rep.choi_matrix - combo)
    defect, low = rep.trace_preserving_defect, rep.choi_min_eigenvalue
    entries = [
        report_row("mix-choi-linearity", linearity <= MIX_LINEARITY_TOL,
                   f"|choi(mix) - sum w*choi| = {linearity:.3e}"),
        report_row("mix-cptp", rep.passed,
                   f"defect = {defect:.3e}, choi min eigenvalue = {low:.3e}"),
    ]
    return _finish(args, entries, channel_to_dict(mixed))


def _cmd_reproduce(args) -> int:
    if args.threshold != PSD_THRESHOLD:
        raise ChoilabError(
            f"reproduce checks its claims at the fixed threshold {PSD_THRESHOLD:g}; "
            f"--tolerance {args.tolerance:g} is not supported"
        )
    entries = report_to_dict(full_report())
    if args.claims:
        wanted = {s.strip() for spec in args.claims for s in spec.split(",")}
        unknown = wanted - {e["id"] for e in entries}
        if unknown:
            raise ChoilabError(f"unknown claim ids: {sorted(unknown)}")
        entries = [e for e in entries if e["id"] in wanted]
    return _finish(args, entries)


def _finite_float(text: str) -> float:
    """A float flag value; NaN and infinities are usage errors, not thresholds."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they only override when given.
    default = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--format", choices=("human", "json"), default=default("human"))
    parser.add_argument(
        "--tolerance",
        type=_finite_float,
        default=default(DEFAULT_TOLERANCE),
        help="positivity threshold: eigenvalues >= -tolerance count as nonnegative",
    )
    parser.add_argument(
        "--out", default=default(None), help="write the machine-readable result to this path"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="choilab",
        description="Kraus channels, Choi states and multipartite distillability checks.",
    )
    _add_global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a channel file for trace preservation")
    _add_global_flags(p, top=False)
    p.add_argument("channel")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("choi", help="compute the Choi state of a channel file")
    _add_global_flags(p, top=False)
    p.add_argument("channel")
    p.add_argument(
        "--order",
        help="comma-separated party order of the result; labels not in the "
        "channel output name the reference parties",
    )
    p.set_defaults(func=_cmd_choi)

    p = sub.add_parser("classify", help="classify a qubit state file")
    _add_global_flags(p, top=False)
    p.add_argument("state")
    p.add_argument(
        "--pair",
        action="append",
        help="group pair to test for distillability, e.g. A1,A2:B (repeatable)",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mix", help="classically mix channel files")
    _add_global_flags(p, top=False)
    p.add_argument("channels", nargs="+")
    p.add_argument("--weights", type=float, nargs="+")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("reproduce", help="run the bundled non-additivity witness suite")
    _add_global_flags(p, top=False)
    p.add_argument("--claims", action="append", help="only run these claim ids (comma-separated)")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.threshold = -args.tolerance
    try:
        return args.func(args)
    except (ChoilabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
