"""Command-line front end.

Subcommands: presentation, verify, classify-form, search-forms, invariants,
census, kappa, selftest.  Exit codes are never conflated:

    0  success
    1  a verified-false mathematical claim (failing relators, failing census
       claim, failing self-test criterion)
    2  an argument argparse cannot read (with its usage line), work the
       library refuses (a PreconditionError), or out of memory

Each subcommand returns its exit code and its output, and ``main`` alone
writes that output, to stdout or to the ``--output`` file.  Output is text
by default; ``--format json`` or ``csv`` switches where supported.  Numbers
are always printed in full and slopes as ``num/den``.  Ranges are written
``2..6``; lists ``5,7,11``.  All configuration is on the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import Generator, Iterable, Iterator, Optional, Sequence

from .errors import HeiskodError, InconsistencyError, PreconditionError

_FAMILIES = ("degenerate", "nondegenerate")
Output = tuple[int, Iterable[str]]  # a subcommand's exit code and the chunks that main writes


def _parse_range(text: str) -> Sequence[int]:
    """Accept '5', '2..6' (a lazy range) or '5,7,11'; refuse an empty range."""
    text = text.strip()
    try:
        lo, dots, hi = text.partition("..")
        values = range(int(lo), int(hi) + 1) if dots else [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse range {text!r}; use forms like 5, 2..6 or 5,7,11") from None
    if not values:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    return values


def _parse_residues(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse list {text!r}") from None


def _read_matrix(path: str):
    """The entries of a JSON matrix file, as ``json.load`` reads them."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # no file, bad JSON or UTF-8, a long integer, deep nesting
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit_stream(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the concatenation of ``chunks`` as it is produced, in blocks of
    about 64 KiB (stdout may be unbuffered): stdout gets a final newline added
    if the last chunk has none, a file gets the chunks alone."""
    # sys.stdout is looked up per call, so redirected stdout is honoured
    with open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout) as out:
        block, n, last = [], 0, ""
        for last in chunks:
            block.append(last)
            n += len(last)
            if n >= 1 << 16:
                out.write("".join(block))
                block, n = [], 0
        out.write("".join(block) + ("" if path is not None or last.endswith("\n") else "\n"))
        out.flush()  # a closed stdout shows here, not at the interpreter's exit


def _record(record: dict, fmt: str) -> tuple[str]:
    """A flat record as indented JSON or as ``key: value`` lines, whichever ``fmt`` asks for."""
    if fmt == "json":
        return (json.dumps(record, indent=2),)
    return ("\n".join(f"{k}: {v}" for k, v in record.items()),)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _json_list(items: Iterable[str], indent: str = "") -> Generator[str, None, int]:
    """``json.dumps(..., indent=2)`` of a list closed at ``indent``, one item
    at a time, returning the number of items; each item comes indented as a
    member of the list, and no items give ``[]``."""
    n = 0
    for n, item in enumerate(items, 1):
        yield ("[\n" if n == 1 else ",\n") + item
    yield f"\n{indent}]" if n else "[]"
    return n


def _presentation_json(relators: Iterable[tuple[list[str], str]]) -> Iterator[str]:
    """The list members of {"relator": names, "source": source}, one relator
    at a time; no list of names is empty."""
    for names, source in relators:
        # joined in place: a _json_list per relator made `presentation --b 100 --format json`
        # 15 % slower (0.67 -> 0.77 s on a 2-core x86 box, Python 3.11)
        joined = ",\n      ".join(map(json.dumps, names))
        yield f'  {{\n    "relator": [\n      {joined}\n    ],\n    "source": {json.dumps(source)}\n  }}'


def cmd_presentation(args) -> Output:
    from .braid import build_presentation, word_display

    b, relators = args.b, build_presentation(args.b).relators
    if args.format == "json":
        return 0, _json_list(_presentation_json((word_display(rel.word, b), rel.source) for rel in relators))
    generators = " ".join(word_display(range(1, 4 * b + 2), b))
    head = f"pure braid group presentation at genus b = {b}\ngenerators: {generators}\nrelators ({len(relators)}):"
    lines = (f"\n  {i:3d}. [{rel.source}] " + " ".join(word_display(rel.word, b)) for i, rel in enumerate(relators))
    return 0, itertools.chain((head,), lines)


def cmd_verify(args) -> Output:
    from .verify import standard_assignment, verify_assignment

    assignment = standard_assignment(args.family, args.b, args.p, args.lam, args.mu)
    report = verify_assignment(assignment, oracle=args.bfs_oracle)
    text = json.dumps(report.to_json_dict(), indent=2) if args.format == "json" else report.text()
    return 0 if report.ok else 1, (text,)


def _form_from_args(args):
    from .fplinalg import AlternatingForm, FpMatrix

    # an absent --matrix-json sets no attribute, since the file may hold null
    if "matrix_json" in args:
        if args.b is not None or args.lam is not None or args.mu is not None:
            raise PreconditionError("--matrix-json takes no --b, --lambda or --mu; the matrix is the form")
        return AlternatingForm(FpMatrix(args.matrix_json, args.p))
    if args.lam is None or args.mu is None:
        raise PreconditionError("give either --matrix-json or both --lambda and --mu")
    if args.b is None:
        raise PreconditionError("--b is required with --lambda/--mu")
    return AlternatingForm.family(args.b, args.p, args.lam, args.mu)


def cmd_classify_form(args) -> Output:
    from .cohomology import classify_form

    form = _form_from_args(args)
    k, det = classify_form(form), form.det()
    record = {
        "b": form.dim // 4,
        "p": form.p,
        "dim": form.dim,
        "alternating": True,  # an AlternatingForm is alternating by construction
        "symplectic": det != 0,
        "kernel_dim": 0 if det else form.dim - form.rank(),  # only a singular form is ranked
        "diagonal_multiple": k,
        "heisenberg_type": k not in (None, 0),
        "det": det,
    }
    return 0, _record(record, args.format)


Hit = tuple[tuple[int, ...], tuple[int, ...]]


def _search_json(b: int, p: int, hits: Iterable[Hit], count: Optional[int]) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` of the search payload, one hit at a time."""
    yield f'{{\n  "b": {b},\n  "p": {p},\n  "hits": '
    # each distinct tuple is formatted once; a search has at most (p-1)^(b-1)
    items = functools.lru_cache(maxsize=None)(lambda t: "".join(_json_list((f"        {x}" for x in t), "      ")))
    members = (f'    {{\n      "lambda": {items(lam)},\n      "mu": {items(mu)}\n    }}' for lam, mu in hits)
    n = yield from _json_list(members, "  ")
    yield f',\n  "exhaustive": {json.dumps(count is None or n < count)}\n}}'


def _search_text(b: int, p: int, hits: Iterable[Hit]) -> Iterator[str]:
    """The text listing, one line per hit, lines joined by newlines."""
    items = functools.lru_cache(maxsize=None)(lambda t: ",".join(map(str, t)))
    n = 0
    for lam, mu in hits:
        yield ("\n" if n else "") + f"lambda = {items(lam)}  mu = {items(mu)}"
        n += 1
    if not n:
        yield f"no valid (lambda, mu) exist for b = {b}, p = {p} (exhaustive search)"
        if p == 3:
            yield (
                "\nobstruction: mod 3, lambda_j*mu_j != 1 forces mu_j = -lambda_j, "
                "so sum(lambda) = 1 would give sum(mu) = -1 != 1"
            )


def cmd_search_forms(args) -> Output:
    from .cohomology import search_family_params

    # refusals are raised here, before a byte is written or a file opened
    hits = search_family_params(args.b, args.p, args.count)
    if args.format == "json":
        return 0, _search_json(args.b, args.p, hits, args.count)
    return 0, _search_text(args.b, args.p, hits)


def cmd_invariants(args) -> Output:
    from .invariants import CensusRow, family_invariants, row_record, rows_to_csv

    inv = family_invariants(args.family, args.b, args.p)
    row = CensusRow(args.family, args.b, args.p, inv)
    record = row_record(row)
    record["nu"] = f"{inv.slope.numerator}/{inv.slope.denominator}"
    record["group_order"] = inv.group_order
    record["n"] = inv.n
    return 0, (rows_to_csv([row]),) if args.format == "csv" else _record(record, args.format)


def cmd_census(args) -> Output:
    from .invariants import census, row_record, rows_to_csv

    rows, claims = census(args.family, args.b, args.p)
    all_hold = all(c.holds for c in claims)
    code = 0 if all_hold else 1
    if args.format == "json":
        payload = {
            "rows": [row_record(r) for r in rows],
            "claims": [{"claim": c.name, "holds": c.holds, "detail": c.detail} for c in claims],
            "all_claims_hold": all_hold,
        }
        return code, (json.dumps(payload, indent=2),)
    lines = "\n".join(c.line() for c in claims)
    if args.format == "csv":
        sys.stderr.write(lines + "\n")  # the claims stay off the table
        return code, (rows_to_csv(rows),)
    return code, (rows_to_csv(rows) + "\n" + lines,)


def cmd_kappa(args) -> Output:
    from .primes import kappas

    values = dict(zip(args.b, kappas(args.b))).items()  # a repeated b is listed once
    # streamed, one record or line at a time: the JSON of 10^6 records held whole takes 870 MB
    if args.format == "json":
        return 0, _json_list(f'  {{\n    "b": {b},\n    "kappa": {k}\n  }}' for b, k in values)
    lines = (f"\nkappa({b}) = {k}" for b, k in values)
    return 0, itertools.chain((next(lines)[1:],), lines)


def cmd_selftest(args) -> Output:
    from .acceptance import run_all

    results = run_all()
    failed = sum(not r.passed for r in results)
    lines = [r.line() for r in results] + [f"{len(results) - failed}/{len(results)} criteria passed"]
    return 0 if not failed else 1, ("\n".join(lines),)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, fmt=("text", "json")):
    sub.add_argument("--format", choices=fmt, default="text")
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heiskod",
        description="Heisenberg quotients of surface braid groups and exact double-Kodaira invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("presentation", help="emit the braid-group presentation")
    sp.add_argument("--b", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_presentation)

    sp = sub.add_parser("verify", help="verify a standard assignment against every relator")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=_parse_residues, default=None, help="comma-separated, reduced mod p")
    sp.add_argument("--mu", type=_parse_residues, default=None, help="comma-separated, reduced mod p")
    sp.add_argument(
        "--bfs-oracle", action="store_true",
        help="also cross-check m1, m2 by exhaustive subgroup enumeration, refusing groups "
        "of more than heiskod.verify.ENUMERATION_BOUND elements",
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("classify-form", help="classify an alternating form")
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=_parse_residues, default=None)
    sp.add_argument("--mu", type=_parse_residues, default=None)
    sp.add_argument(
        "--matrix-json", type=_read_matrix, default=argparse.SUPPRESS, help="path to a JSON matrix (rows of residues)"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_classify_form)

    sp = sub.add_parser("search-forms", help="enumerate valid family parameters (lambda, mu)")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--count", type=int, default=None, help="stop after this many hits (default: exhaust)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_search_forms)

    sp = sub.add_parser("invariants", help="exact invariants of one fibration")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp, fmt=("text", "json", "csv"))
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("census", help="tabulate a family over ranges and check the claims")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--b", type=_parse_range, required=True, help="range like 2..6")
    sp.add_argument("--p", type=_parse_range, required=True, help="range like 5..13 or list 5,7,11")
    _add_common(sp, fmt=("text", "json", "csv"))
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("kappa", help="count degenerate-family fibrations per base genus")
    sp.add_argument("--b", type=_parse_range, required=True, help="range like 2..10")
    _add_common(sp)
    sp.set_defaults(fn=cmd_kappa)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.set_defaults(fn=cmd_selftest, output=None)  # stdout, through the one writer

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code  # argparse exits with 0 (help) or 2 (a usage error)
    # integers print in full: Python's limit on their digits (3.10.7 on; none
    # before) is lifted once argv is read, and restored, since main may be
    # called in process
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code, chunks = args.fn(args)
        try:
            _emit_stream(chunks, args.output)
        except BrokenPipeError:
            if args.output is not None:
                raise
            # the reader closed stdout, which is no error: what is still
            # buffered goes to the null device, so the interpreter's final
            # flush neither warns nor exits with 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except InconsistencyError as exc:
        sys.stderr.write(f"inconsistency: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    except (HeiskodError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
