"""Command-line front end.

Subcommands: ``decompose``, ``props``, ``reg``, ``eg``, ``analyze``,
``sweep``.  Input is a JSON document ``{"name": ..., "generators": [[...]]}``
(a bare JSON list of rows is also accepted) or plain text with one
whitespace-separated integer row per line; ``#`` starts a comment.

Each report is built once, as a JSON document; ``--json`` writes it in
canonical form and the text output is printed from it.

Exit codes: 0 on success, 1 for usage or input errors, 2 when the input is
valid but outside the supported domain (non-simplicial cone, non-homogeneous
semigroup), reported in machine-readable form.  Each error class in
``errors`` declares its ``kind`` and exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .decomposition import decompose
from .errors import (
    InputSyntaxError,
    MonoalgError,
    NonIntegerError,
    NotHomogeneousError,
    RaggedRowsError,
)
from .homology import analyze, check_characteristic, hilbert_verify
from .properties import full_report
from .semigroup import AffineSemigroup, validate
from .serialize import (
    canonical_json,
    decomposition_to_dict,
    property_report_to_dict,
    regularity_report_to_dict,
    report_text,
    semigroup_to_dict,
    sweep_text,
)
from .sweep import SweepConfig, run_sweep


class InputDocument(NamedTuple):
    name: str | None
    generators: list[tuple[int, ...]]


def _int_entry(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise NonIntegerError(f"entry {value!r} is not an integer", field=field)
    return value


def _rows_from_json(rows, field: str) -> list[tuple[int, ...]]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputSyntaxError(f"{field} must be a list of integer rows",
                               field=field)
    parsed = [tuple(_int_entry(e, f"{field}[{i}][{j}]")
                    for j, e in enumerate(row))
              for i, row in enumerate(rows)]
    widths = {len(r) for r in parsed}
    if len(widths) > 1:
        bad = next(i for i, r in enumerate(parsed)
                   if len(r) != len(parsed[0]))
        raise RaggedRowsError("generator rows have different lengths",
                              field=f"{field}[{bad}]")
    return parsed


def parse_input(data: bytes | str) -> InputDocument:
    """Parse an input document, raising a positioned error on bad input."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputSyntaxError(f"input is not UTF-8: {exc}") from exc
    else:
        text = data
    stripped = text.strip()
    if not stripped:
        raise InputSyntaxError("input is empty")

    if stripped[0] in "{[":
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputSyntaxError(f"invalid JSON: {exc.msg}",
                                   line=exc.lineno) from exc
        except (RecursionError, ValueError) as exc:  # nesting, digit limit
            raise InputSyntaxError(f"invalid JSON: {exc}") from None
        if isinstance(doc, list):
            return InputDocument(None, _rows_from_json(doc, "$"))
        if not isinstance(doc, dict):
            raise InputSyntaxError("top-level JSON must be an object or a list")
        unknown = set(doc) - {"name", "generators"}
        if unknown:
            raise InputSyntaxError(
                f"unknown keys {sorted(unknown)}", field="$")
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise InputSyntaxError("name must be a string", field="name")
        if "generators" not in doc:
            raise InputSyntaxError("missing key 'generators'", field="$")
        return InputDocument(name, _rows_from_json(doc["generators"],
                                                   "generators"))

    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        entries = []
        for token in body.split():
            try:
                # int() also reads "1_0" and non-ASCII digits such as "٣"
                if "_" in token or not token.isascii():
                    raise ValueError(token)
                entries.append(int(token))
            except ValueError:
                limit = sys.get_int_max_str_digits()
                what = (f"an integer of at most {limit} digits"
                        if 0 < limit < len(token) else "an integer")
                raise NonIntegerError(f"token {token!r} is not {what}",
                                      line=lineno) from None
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise RaggedRowsError(
                f"row has {len(entries)} entries, expected {width}",
                line=lineno)
        rows.append(tuple(entries))
    if not rows:
        raise InputSyntaxError("no generator rows found")
    return InputDocument(None, rows)


# ---------------------------------------------------------------------------
# command plumbing
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the contract
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="monoalg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_char(p):
        p.add_argument("--char", type=int, default=0,
                       help="field characteristic (0 or a prime)")

    for name, (text, sections) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=_cmd_report)
        p.add_argument("--input", help="input file (default: stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of text")
        if "regularity" in sections:
            add_char(p)
        p.add_argument("--verbose", action="store_true",
                       help="include frame coordinates in the output")
        p.add_argument("--verify", action="store_true",
                       help="also run the independent degree-count check")
        p.add_argument("--tmax", type=int, default=8,
                       help="verification depth for --verify")

    p = sub.add_parser("sweep", help="seeded random bound-testing sweep")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--dim", type=int, default=3, help="ambient dimension")
    p.add_argument("--gens", type=int, default=5,
                   help="generators per instance, frame included")
    p.add_argument("--max-entry", type=int, default=4,
                   help="largest scaling degree")
    p.add_argument("--count", type=int, default=50,
                   help="number of instances")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    add_char(p)
    p.add_argument("--json", action="store_true",
                   help="emit canonical JSON instead of text")
    return parser


def _read_semigroup(args) -> tuple[AffineSemigroup, InputDocument]:
    if args.input:
        data = Path(args.input).read_bytes()
    else:
        data = sys.stdin.buffer.read()
    doc = parse_input(data)
    return validate(doc.generators), doc


# subcommand -> (help, sections in output order)
_COMMANDS = {
    "decompose": ("decompose the semigroup ring over its frame ring",
                  ("decomposition",)),
    "props": ("test seminormal, normal, CM, Buchsbaum, Gorenstein",
              ("properties",)),
    "reg": ("compute regularity, degree, codim, and depth",
            ("regularity",)),
    "eg": ("check the regularity bound degree - codim",
           ("regularity",)),
    "analyze": ("run decomposition, properties, and regularity",
                ("decomposition", "properties", "regularity")),
}


def _cmd_report(args) -> int:
    semigroup, indoc = _read_semigroup(args)
    _, sections = _COMMANDS[args.command]
    if "regularity" in sections:
        check_characteristic(args.char)
    functional = semigroup.degree_functional()
    # regularity and --verify need the degree functional: its absence is
    # reported before any computation, after a non-simplicial cone's
    if functional is None and ("regularity" in sections or args.verify):
        semigroup.frame()
        raise NotHomogeneousError(
            "regularity needs a homogeneous semigroup"
            if "regularity" in sections
            else "the semigroup admits no degree functional")
    dec = decompose(semigroup)
    doc = semigroup_to_dict(semigroup)
    if indoc.name is not None:
        doc["name"] = indoc.name
    if "decomposition" in sections:
        doc["decomposition"] = decomposition_to_dict(dec, args.verbose)
    if "properties" in sections:
        doc["properties"] = property_report_to_dict(full_report(semigroup, dec))
    if "regularity" in sections:
        doc["regularity"] = regularity_report_to_dict(
            analyze(semigroup, args.char, dec))
    if args.command == "eg":  # the bound check alone
        reg = doc["regularity"]
        doc = {"reg": reg["regularity"], "bound": reg["eg_bound"],
               "holds": reg["eg_holds"]}
    if args.verify:
        doc["hilbert_verify"] = {
            "t_max": args.tmax,
            "ok": hilbert_verify(semigroup, dec, functional, args.tmax),
        }
    sys.stdout.write(canonical_json(doc) if args.json else report_text(doc))
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(ambient_dim=args.dim, num_generators=args.gens,
                      max_entry=args.max_entry, count=args.count,
                      seed=args.seed, char=args.char)
    try:
        summary = run_sweep(cfg)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    sys.stdout.write(canonical_json(summary) if args.json
                     else sweep_text(summary))
    return 0


def _report_error(args, kind: str, exc: Exception) -> None:
    if args is not None and getattr(args, "json", False):
        sys.stdout.write(canonical_json(
            {"error": {"kind": kind, "message": str(exc)}}))
    sys.stderr.write(f"error: {exc}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if getattr(args, "tmax", 0) < 0:
            raise _UsageError(f"--tmax must be nonnegative, got {args.tmax}")
        return args.run(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except MonoalgError as exc:
        _report_error(args, exc.kind, exc)
        return exc.exit_code
    except OSError as exc:
        _report_error(args, "io", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
