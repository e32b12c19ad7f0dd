"""Command-line front end: classify state files, emit canonical states.

Verbs:
    classify FILE   read a state, print its class report
    reduce FILE     classify --ilos (include the reducing local operators)
    canonical NAME  print a canonical state file on stdout
    bound M N       class-count bound for one more qubit

Exit codes: 0 success, 2 parse/usage error, 3 unsupported dimensions,
4 reduction failure.

State file format (hand-editable): ``#`` starts a comment, an optional
``label:`` line, one ``dims:`` line, then one ``re im`` amplitude pair per
line in lexicographic order (first subsystem most significant). A JSON
alternative ``{"dims": [...], "amps": [[re, im], ...], "label": ...}`` is
accepted with --json-in and emitted with --json.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bipartite import _read_bipartite
from .errors import ReductionFailed, SloccError, StateFileError
from .multiqubit import (
    class_count_bound,
    cluster_state_4,
    descriptor,
    factor_support,
    ghz_state,
    same_broad_class,
)
from .numerics import TolerancePolicy
from .states import PureState, make_state, permute_subsystems
from .tripartite import TripartiteClass, canonical_vector, classify3, reduce_to_canonical

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_REDUCTION = 4


class CommandError(Exception):
    """A failed command: :func:`main` prints ``error: <message>`` and exits with ``code``."""

    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


CANONICAL_STATES = {
    **{tag.value: canonical_vector(tag) for tag in TripartiteClass},
    "00": make_state((2, 2), [1, 0, 0, 0]),
    "Psi+": make_state((2, 2), [1, 0, 0, 1]),
    "GHZ4": ghz_state(4),
    "Phi4": cluster_state_4(),
}
CANONICAL_NAMES = tuple(CANONICAL_STATES)
# every name, its space-free form and the cluster alias, mapped to the name
_NAME_LOOKUP = {
    form: name for name in CANONICAL_NAMES for form in (name, name.replace(" ", ""))
} | {"cluster": "Phi4"}


def parse_state_text(text: str) -> tuple[PureState, str | None]:
    label = None
    dims = None
    amps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("label:"):
            if dims is not None or amps:
                raise StateFileError("label must precede dims", lineno)
            label = line[len("label:"):].strip()
            continue
        if line.startswith("dims:"):
            if dims is not None:
                raise StateFileError("duplicate dims line", lineno)
            try:
                dims = [int(tok) for tok in line[len("dims:"):].split()]
            except ValueError:
                raise StateFileError("dims must be integers", lineno) from None
            if not dims:
                raise StateFileError("dims line is empty", lineno)
            continue
        if dims is None:
            raise StateFileError("expected a dims line before amplitudes", lineno)
        parts = line.split()
        if len(parts) != 2:
            raise StateFileError("expected 're im' amplitude pair", lineno)
        try:
            amps.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise StateFileError("amplitudes must be real numbers", lineno) from None
    if dims is None:
        raise StateFileError("missing dims line")
    expected = math.prod(dims)
    if len(amps) != expected:
        raise StateFileError(f"got {len(amps)} amplitudes, dims require {expected}")
    try:
        state = make_state(dims, amps)
    except SloccError as exc:
        raise StateFileError(str(exc)) from exc
    return state, label


def parse_state_json(text: str) -> tuple[PureState, str | None]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a 4301-digit integer, deep nesting
        raise StateFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dims" not in data or "amps" not in data:
        raise StateFileError("JSON state needs 'dims' and 'amps' fields")
    try:
        amps = [complex(re, im) for re, im in data["amps"]]
        state = make_state(data["dims"], amps)
    except (TypeError, ValueError, SloccError) as exc:
        raise StateFileError(str(exc)) from exc
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError(f"label must be a string, got {label!r}")
    return state, label


def format_state_text(state: PureState, label: str | None = None) -> str:
    """The text form of a state; a label must be one line free of ``#`` and of leading or
    trailing whitespace, or it would not read back as written (:class:`StateFileError`)."""
    lines = []
    if label:
        if "#" in label or label.splitlines() != [label] or label != label.strip():
            raise StateFileError(f"label {label!r} cannot be written to a text state file")
        lines.append(f"label: {label}")
    lines.append("dims: " + " ".join(str(d) for d in state.dims))
    for amp in state.amps:
        lines.append(f"{amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"


def format_state_json(state: PureState, label: str | None = None) -> str:
    data = {"dims": list(state.dims), "amps": [[amp.real, amp.imag] for amp in state.amps]}
    if label:
        data["label"] = label
    return json.dumps(data, sort_keys=True) + "\n"


def _policy_from_args(args) -> TolerancePolicy:
    if args.tol is None:
        return TolerancePolicy()
    return TolerancePolicy(rank_rel_tol=args.tol, deg_tol=min(10.0 * args.tol, 0.5))


def _complex_pairs(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex).reshape(-1)]


def _classify_bipartite(state, pol, report):
    cls, sigma = _read_bipartite(state, pol)
    report["mode"] = "bipartite"
    report["class"] = cls.label(state.dims)
    report["schmidt_rank"] = cls.schmidt_rank
    report["sigma"] = sigma[: cls.schmidt_rank].tolist()


def _classify_tripartite(state, pol, report, include_ilos):
    if include_ilos:
        rep, ilos = reduce_to_canonical(state, pol)
        report["ilos"] = {f"F{k}": list(map(_complex_pairs, f)) for k, f in enumerate(ilos.ops, 1)}
        report["residual"] = ilos.residual
    else:
        rep = classify3(state, pol)
    report["mode"] = "tripartite"
    report["class"] = rep.tag.value
    report["ranks"] = list(rep.ranks)
    report["sigma"] = [float(s) for s in rep.sigma]
    report["structure"] = rep.structure.tag.value
    report["near_boundary"] = rep.near_boundary
    if rep.spectrum_used is not None:
        report["spectrum"] = {
            "product": rep.spectrum_used.product,
            "eigenvalues": _complex_pairs(rep.spectrum_used.eigenvalues),
        }


@functools.lru_cache(maxsize=4)
def _named_4qubit_descriptors(pol) -> tuple:
    """Descriptors of the 4-qubit states the CLI names; both have dim_w = 2."""
    return tuple((name, descriptor(CANONICAL_STATES[name], pol)) for name in ("GHZ4", "Phi4"))


def _classify_4qubit(state, pol, report):
    desc = descriptor(state, pol)
    label = desc.signature()
    if desc.dim_w == 2:  # the named references have dim_w 2; a dim_w 1 state skips building them
        for name, ref in _named_4qubit_descriptors(pol):
            if same_broad_class(desc, ref):
                label = name
                break
    report["mode"] = "multiqubit"
    report["class"] = label
    report["descriptor"] = {
        "dim_w": desc.dim_w,
        "line_class": desc.line_class,
        "generic_class": desc.generic_class,
        "exceptional_classes": list(desc.exceptional_classes),
        "exceptional_points": [_complex_pairs(p) for p in desc.exceptional_points],
        "signature": desc.signature(),
    }
    support = factor_support(state, pol)
    if support is not None:  # a 4-qubit state's factor leaves a 3-qubit reduced state
        position, factor, reduced = support
        report["factor"] = {
            "position": position,
            "vector": _complex_pairs(factor),
            "reduced_class": classify3(reduced, pol).tag.value,
        }


def _render_text(report) -> str:
    lines = []
    order = (
        "label", "mode", "dims", "pivot", "class", "schmidt_rank", "ranks",
        "sigma", "structure", "near_boundary", "residual",
    )
    for key in order:
        if key in report:
            lines.append(f"{key}: {report[key]}")
    if "descriptor" in report:
        d = report["descriptor"]
        lines.append(f"descriptor: {d['signature']}")
        if d["exceptional_points"]:
            lines.append(f"exceptional_points: {d['exceptional_points']}")
    if "factor" in report:
        f = report["factor"]
        lines.append(
            f"factor: qubit {f['position']}, vector {f['vector']}, "
            f"reduced class {f['reduced_class']}"
        )
    if "spectrum" in report:
        lines.append(
            f"spectrum: {report['spectrum']['product']} -> {report['spectrum']['eigenvalues']}"
        )
    if "ilos" in report:
        for name in ("F1", "F2", "F3"):
            lines.append(f"{name}: {report['ilos'][name]}")
    lines.append(f"policy: {report['policy']}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> str:
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        state, label = parse_state_json(text) if args.json_in else parse_state_text(text)
        pol = _policy_from_args(args)
    except StateFileError as exc:
        raise CommandError(f"{args.input}: {exc}") from exc
    except (OSError, ValueError) as exc:  # unreadable or undecodable input, a bad --tol
        raise CommandError(str(exc)) from exc

    report: dict = {"label": label} if label else {}
    report["dims"] = list(state.dims)
    if args.pivot is not None:
        n = state.n_subsystems
        if not 1 <= args.pivot <= n:
            raise CommandError(f"pivot {args.pivot} out of range 1..{n}")
        if args.pivot != 1:
            order = (args.pivot,) + tuple(k for k in range(1, n + 1) if k != args.pivot)
            state = permute_subsystems(state, order)
            report["pivot"] = args.pivot
    if args.ilos and state.dims != (2, 2, 2):
        raise CommandError(
            f"reduce needs dims [2, 2, 2], got {list(state.dims)}", EXIT_UNSUPPORTED
        )

    try:
        if state.n_subsystems == 2:
            _classify_bipartite(state, pol, report)
        elif state.dims == (2, 2, 2):
            _classify_tripartite(state, pol, report, args.ilos)
        elif state.dims == (2, 2, 2, 2):
            _classify_4qubit(state, pol, report)
        else:
            raise CommandError(
                f"unsupported dims {list(state.dims)}; supported: any bipartite, "
                "[2,2,2], [2,2,2,2]",
                EXIT_UNSUPPORTED,
            )
    except ReductionFailed as exc:
        raise CommandError(f"reduction failed: {exc}", EXIT_REDUCTION) from exc
    except SloccError as exc:
        raise CommandError(str(exc)) from exc

    report["policy"] = dataclasses.asdict(pol)
    return json.dumps(report, sort_keys=True) + "\n" if args.json else _render_text(report)


def cmd_canonical(args) -> str:
    name = _NAME_LOOKUP.get(args.name)
    if name is None:
        raise CommandError(
            f"unknown class name {args.name!r}; known: {', '.join(CANONICAL_NAMES)}"
        )
    fmt = format_state_json if args.json else format_state_text
    return fmt(CANONICAL_STATES[name], label=name)


def cmd_bound(args) -> str:
    try:
        result = class_count_bound(args.m, args.n)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    if args.split:
        return f"{result.bound} = {result.genuine} genuine + {result.degenerate} degenerate\n"
    return f"{result.bound}\n"


def _add_classify_options(parser):
    parser.add_argument("input", help="state file path, or - for stdin")
    parser.add_argument("--tol", type=float, default=None,
                        help="rank tolerance (degeneracy tolerance becomes 10x)")
    parser.add_argument("--json", action="store_true", help="structured JSON report")
    parser.add_argument("--json-in", action="store_true", help="input file is JSON")
    parser.add_argument("--pivot", type=int, default=None,
                        help="move subsystem K to the front before analysis (diagnostics)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slocc", description="SLOCC entanglement classification of pure states"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a state file")
    _add_classify_options(p_classify)
    p_classify.add_argument("--ilos", action="store_true",
                            help="include reducing local operators (3-qubit only)")
    p_classify.set_defaults(func=cmd_classify)

    p_reduce = sub.add_parser("reduce", help="classify with reducing operators")
    _add_classify_options(p_reduce)
    p_reduce.set_defaults(func=cmd_classify, ilos=True)

    p_canonical = sub.add_parser("canonical", help="emit a canonical state file")
    p_canonical.add_argument("name", help="class name, e.g. GHZ, W or 0_1Psi+_23 (spaces optional)")
    p_canonical.add_argument("--json", action="store_true")
    p_canonical.set_defaults(func=cmd_canonical)

    p_bound = sub.add_parser("bound", help="class-count bound for one more qubit")
    p_bound.add_argument("m", type=int, help="number of n-qubit classes")
    p_bound.add_argument("n", type=int, help="current qubit count")
    p_bound.add_argument("--split", action="store_true",
                         help="show the genuine/degenerate split")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    """Run one command: its output goes to stdout, a failure to one ``error:`` line on
    stderr (also an output that cannot be written, whose bytes stay in stdout's buffer, or
    a closed stdout), and the exit code is 0 or the :class:`CommandError`'s code."""
    args = build_parser().parse_args(argv)
    try:
        output = args.func(args)
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise CommandError("cannot write the output: stdout is closed")
        try:
            sys.stdout.write(output)
            sys.stdout.flush()
        except OSError as exc:  # a full device, a closed pipe
            raise CommandError(f"cannot write the output: {exc}") from exc
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


def run() -> int:
    gc.freeze()  # the process entry: shutdown's full collections skip the import-time objects
    code = main()
    try:
        if sys.stdout is not None:  # a closed stdout: main has reported it, nothing to flush
            sys.stdout.flush()
    except OSError:  # main has reported it: the kept bytes go to devnull, not to shutdown's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(run())
