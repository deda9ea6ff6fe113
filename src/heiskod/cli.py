"""Command-line front end.

Subcommands: presentation, verify, classify-form, search-forms, invariants,
census, kappa, selftest.  Exit codes are never conflated:

    0  success
    1  a verified-false mathematical claim (failing relators, failing census
       claim, failing self-test criterion)
    2  usage or precondition error, or out of memory

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
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .errors import HeiskodError, InconsistencyError, PreconditionError

_FAMILIES = ("degenerate", "nondegenerate")
_IMAGE_ENTRY_BOUND = 10**7  # the most entries verify lets a lifting's images hold
Output = tuple[int, Iterable[str]]  # a subcommand's exit code and the chunks that main writes


def _parse_range(text: str) -> list[int]:
    """Accept '5', '2..6' or '5,7,11'; refuse an empty range or one of more than 10^6 values."""
    try:
        text = text.strip()
        if ".." in text:
            lo, hi = map(int, text.split("..", 1))
            values = range(lo, hi + 1)
        else:
            values = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise PreconditionError(f"cannot parse range {text!r}; use forms like 5, 2..6 or 5,7,11") from None
    if not values:
        raise PreconditionError(f"range {text!r} is empty")
    # sliced first, since len() of a range past sys.maxsize overflows
    if len(values[: 10**6 + 1]) > 10**6:
        raise PreconditionError(f"range {text!r} has more than 10^6 values")
    return list(values)


def _parse_residues(text: Optional[str], what: str) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PreconditionError(f"cannot parse {what} list {text!r}") from None


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


def _record(record: dict, fmt: str) -> tuple[str]:
    """A flat record as indented JSON or as ``key: value`` lines, whichever ``fmt`` asks for."""
    if fmt == "json":
        return (json.dumps(record, indent=2),)
    return ("\n".join(f"{k}: {v}" for k, v in record.items()),)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _presentation_json(relators: Iterable[tuple[list[str], str]]) -> Iterator[str]:
    """``json.dumps`` with indent 2 of the list of {"relator": names, "source":
    source} records, one relator at a time; no list of names is empty."""
    sep = "[\n"
    for names, source in relators:
        joined = ",\n      ".join(map(json.dumps, names))
        yield f'{sep}  {{\n    "relator": [\n      {joined}\n    ],\n    "source": {json.dumps(source)}\n  }}'
        sep = ",\n"
    yield "\n]"


def cmd_presentation(args) -> Output:
    from .braid import build_presentation, word_display

    b, relators = build_presentation(args.b)
    if args.format == "json":
        return 0, _presentation_json((word_display(rel.word, b), rel.source) for rel in relators)
    generators = " ".join(word_display(range(1, 4 * b + 2), b))
    head = f"pure braid group presentation at genus b = {b}\ngenerators: {generators}\nrelators ({len(relators)}):"
    lines = (f"\n  {i:3d}. [{rel.source}] " + " ".join(word_display(rel.word, b)) for i, rel in enumerate(relators))
    return 0, itertools.chain((head,), lines)


def cmd_verify(args) -> Output:
    from .verify import (
        ENUMERATION_BOUND,
        standard_assignment_degenerate,
        standard_assignment_nondegenerate,
        verify_assignment,
    )

    # 4b + 1 images of 2b coordinates, 4b in the non-degenerate family; b < 2 is refused below
    b = max(args.b, 0)
    entries = (4 * b + 1) * b * (2 if args.family == "degenerate" else 4)
    if entries > _IMAGE_ENTRY_BOUND:
        raise PreconditionError(f"the lifting's images would hold {entries} entries, more than {_IMAGE_ENTRY_BOUND}")
    lam = _parse_residues(args.lam, "lambda")
    mu = _parse_residues(args.mu, "mu")
    if args.family == "degenerate":
        if lam is not None or mu is not None:
            raise PreconditionError("the degenerate family takes no --lambda or --mu")
        assignment = standard_assignment_degenerate(args.b, args.p)
    else:
        if lam is None or mu is None:
            raise PreconditionError("the non-degenerate family needs --lambda and --mu")
        assignment = standard_assignment_nondegenerate(args.b, args.p, lam, mu)
    # a bare --bfs-oracle is the const True, read as the default bound
    report = verify_assignment(assignment, ENUMERATION_BOUND if args.bfs_oracle is True else args.bfs_oracle)
    text = json.dumps(report.to_json_dict(), indent=2) if args.format == "json" else report.text()
    return 0 if report.ok else 1, (text,)


def _form_from_args(args):
    from .fplinalg import AlternatingForm, FpMatrix

    lam = _parse_residues(args.lam, "lambda")
    mu = _parse_residues(args.mu, "mu")
    if args.matrix_json:
        if args.b is not None or lam is not None or mu is not None:
            raise PreconditionError("--matrix-json takes no --b, --lambda or --mu; the matrix is the form")
        with open(args.matrix_json) as fh:
            entries = json.load(fh)
        return AlternatingForm(FpMatrix(entries, args.p))
    if lam is None or mu is None:
        raise PreconditionError("give either --matrix-json or both --lambda and --mu")
    if args.b is None:
        raise PreconditionError("--b is required with --lambda/--mu")
    return AlternatingForm.family(args.b, args.p, lam, mu)


def cmd_classify_form(args) -> Output:
    from .cohomology import classify_form

    form = _form_from_args(args)
    k, det = classify_form(form), form.omega.det()
    record = {
        "b": form.dim // 4,
        "p": form.p,
        "dim": form.dim,
        "alternating": True,  # an AlternatingForm is alternating by construction
        "symplectic": det != 0,
        "kernel_dim": form.dim - form.omega.rank(),
        "diagonal_multiple": k,
        "heisenberg_type": k not in (None, 0),
        "det": det,
    }
    return 0, _record(record, args.format)


Hit = tuple[tuple[int, ...], tuple[int, ...]]


def _search_json(b: int, p: int, hits: Iterable[Hit], count: Optional[int]) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` of the search payload, one hit at a time."""
    yield f'{{\n  "b": {b},\n  "p": {p},\n  "hits": ['
    # each distinct tuple is formatted once; a search has at most (p-1)^(b-1)
    items = functools.lru_cache(maxsize=None)(lambda t: ",\n        ".join(map(str, t)))
    n = 0
    for lam, mu in hits:
        yield (
            ("\n" if n == 0 else ",\n")
            + '    {\n      "lambda": [\n        '
            + items(lam)
            + '\n      ],\n      "mu": [\n        '
            + items(mu)
            + "\n      ]\n    }"
        )
        n += 1
    exhaustive = count is None or n < count
    yield ("\n  ]" if n else "]") + f',\n  "exhaustive": {json.dumps(exhaustive)}\n}}'


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

    rows, claims = census(args.family, _parse_range(args.b), _parse_range(args.p))
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
    from .primes import kappa

    values = {b: kappa(b) for b in _parse_range(args.b)}
    if args.format == "json":
        return 0, (json.dumps([{"b": b, "kappa": k} for b, k in values.items()], indent=2),)
    return 0, ("\n".join(f"kappa({b}) = {k}" for b, k in values.items()),)


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
    sp.add_argument("--lambda", dest="lam", default=None, help="comma-separated, reduced mod p")
    sp.add_argument("--mu", default=None, help="comma-separated, reduced mod p")
    sp.add_argument(
        "--bfs-oracle", nargs="?", type=int, const=True, default=None, metavar="BOUND",
        help="also cross-check m1, m2 by exhaustive subgroup enumeration, refusing groups "
        "of more than BOUND elements (default: heiskod.verify.ENUMERATION_BOUND)",
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("classify-form", help="classify an alternating form")
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--matrix-json", default=None, help="path to a JSON matrix (rows of residues)")
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
    sp.add_argument("--b", required=True, help="range like 2..6")
    sp.add_argument("--p", required=True, help="range like 5..13 or list 5,7,11")
    _add_common(sp, fmt=("text", "json", "csv"))
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("kappa", help="count degenerate-family fibrations per base genus")
    sp.add_argument("--b", required=True, help="range like 2..10")
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
    try:
        code, chunks = args.fn(args)
        _emit_stream(chunks, args.output)
        return code
    except InconsistencyError as exc:
        sys.stderr.write(f"inconsistency: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    except (HeiskodError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
