"""CLI contract tests: exit codes, formats, round-trips.

Most cases run in-process through ``main(argv)``; stdout is captured by
pytest's capsys.  The memory-cap, peak-RSS, closed-pipe and import-surface
cases start a fresh interpreter each.  Exit codes: 0 success, 1
verified-false claim, 2 usage or precondition error.
"""

import ast
import contextlib
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heiskod import cli
from heiskod.cli import main
from heiskod.errors import HeiskodError, InconsistencyError, PreconditionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused_by_argparse(err, command, message):
    """Whether stderr is argparse's refusal: its usage, then one error line
    ``heiskod <command>: error: <message>``."""
    return err.startswith(f"usage: heiskod {command} ") and err.endswith(f"\nheiskod {command}: error: {message}\n")


# -- presentation ------------------------------------------------------------


def test_presentation_text(capsys):
    code, out, _ = run(capsys, "presentation", "--b", "2")
    assert code == 0
    assert "relators (42):" in out
    assert "surface relation 1" in out


def test_presentation_json_counts(capsys):
    code, out, _ = run(capsys, "presentation", "--b", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 86  # 8*9 + 12 + 2
    assert {"relator", "source"} == set(records[0])


def test_presentation_bad_genus_exits_2(capsys):
    code, _, err = run(capsys, "presentation", "--b", "1")
    assert code == 2
    assert "error" in err


# -- verify -------------------------------------------------------------------


def test_verify_degenerate_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "3")
    assert code == 0
    assert "relators passed: 42/42" in out


def test_verify_degenerate_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "degenerate", "--b", "3", "--p", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relators"] == payload["passed"] == 86
    assert payload["a12_order"] == 2 and payload["surjective"] is True


def test_verify_nondegenerate_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "nondegenerate", "--b", "2", "--p", "5",
        "--lambda", "3,3", "--mu", "3,3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m1"] == payload["m2"] == 625


NONDEGENERATE_ORACLE = [
    {"index": "m1", "subgroup_order": 3125, "agrees": True},
    {"index": "m2", "subgroup_order": 3125, "agrees": True},
]


def test_verify_bfs_oracle_flag(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "nondegenerate", "--b", "2", "--p", "5",
        "--lambda", "3,3", "--mu", "3,3", "--bfs-oracle", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bfs_oracle"] == NONDEGENERATE_ORACLE


def test_bfs_oracle_last_takes_the_default_bound(capsys):
    # a bare --bfs-oracle takes no value, last as before another option
    code, out, _ = run(
        capsys,
        "verify", "--family", "nondegenerate", "--b", "2", "--p", "5",
        "--lambda", "3,3", "--mu", "3,3", "--format", "json", "--bfs-oracle",
    )
    assert code == 0
    assert json.loads(out)["bfs_oracle"] == NONDEGENERATE_ORACLE


def test_enumeration_bound_is_no_option(capsys):
    # the bound is the value of --bfs-oracle; a second option for it is gone
    code, out, err = run(
        capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "3", "--enumeration-bound", "5"
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --enumeration-bound 5" in err


def test_verify_enumeration_bound_override(capsys):
    # the bound is heiskod.verify.ENUMERATION_BOUND; a value after the flag
    # is a stray argument, refused with the usage line before any work
    code, out, err = run(
        capsys,
        "verify", "--family", "degenerate", "--b", "2", "--p", "3",
        "--bfs-oracle", "100",
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage: heiskod ")
    assert err.endswith("heiskod: error: unrecognized arguments: 100\n")


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_nonpositive_enumeration_bound_exits_2(capsys, bound):
    # a value that once admitted no group is refused as argv, not read as a
    # bound, and the oracle is never run with it
    code, out, err = run(
        capsys,
        "verify", "--family", "degenerate", "--b", "2", "--p", "3",
        "--bfs-oracle", bound,
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage: heiskod ")
    assert err.endswith(f"heiskod: error: unrecognized arguments: {bound}\n")


def test_verify_enumeration_bound_beyond_2_62_exits_2(capsys):
    # order 41^81: numpy used to fail with "Maximum allowed dimension
    # exceeded"; the oracle refuses it at its one bound
    code, out, err = run(
        capsys,
        "verify", "--family", "degenerate", "--b", "40", "--p", "41", "--bfs-oracle",
    )
    assert (code, out) == (2, "")
    assert err == f"error: group order {41**81} exceeds the enumeration bound 10000000\n"


def test_verify_oracle_out_of_memory_exits_2(capsys, monkeypatch):
    # a failed allocation of the oracle's bitmaps used to end in a traceback
    from heiskod import verify

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verify, "_tiled", no_memory)
    code, _, err = run(capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "3", "--bfs-oracle")
    assert code == 2
    assert "memory" in err


MERSENNE_61 = 2**61 - 1
LARGE_P_FAMILY = (
    "--b", "2", "--p", str(MERSENNE_61),
    "--lambda", f"3,{MERSENNE_61 - 2}", "--mu", f"5,{MERSENNE_61 - 4}",
)


def test_verify_nondegenerate_beyond_int64(capsys):
    code, out, _ = run(capsys, "verify", "--family", "nondegenerate", *LARGE_P_FAMILY)
    assert code == 0
    assert "relators passed: 42/42" in out


def test_verify_inadmissible_prime_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "2")
    assert code == 2
    assert "divide" in err


def test_verify_missing_lambda_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--family", "nondegenerate", "--b", "2", "--p", "5")
    assert code == 2


def test_verify_degenerate_refuses_lambda_mu(capsys):
    # the degenerate assignment has no parameters, so the flags would go unread
    code, out, err = run(
        capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "3", "--lambda", "1,2", "--mu", "3,4"
    )
    assert (code, out, err) == (2, "", "error: the degenerate family takes no lambdas or mus\n")


# -- classify / search -----------------------------------------------------------


def test_classify_form_family(capsys):
    code, out, _ = run(
        capsys,
        "classify-form", "--b", "2", "--p", "5",
        "--lambda", "3,3", "--mu", "3,3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["heisenberg_type"] is True
    assert payload["symplectic"] is True
    assert payload["diagonal_multiple"] == 1


def test_classify_form_matrix_json(capsys, tmp_path):
    from heiskod.fplinalg import AlternatingForm

    path = tmp_path / "omega.json"
    path.write_text(json.dumps(AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2).to_lists()))
    code, out, _ = run(
        capsys, "classify-form", "--p", "3", "--matrix-json", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["heisenberg_type"] is True and payload["symplectic"] is False
    assert payload["kernel_dim"] == 4


def test_classify_form_ranks_only_a_singular_form(capsys, monkeypatch):
    # a nonzero det already says the kernel is 0, so one elimination suffices
    from heiskod.fplinalg import FpMatrix

    ranked = []
    rank = FpMatrix.rank
    monkeypatch.setattr(FpMatrix, "rank", lambda m: ranked.append(m) or rank(m))
    family = ("classify-form", "--b", "2", "--format", "json", "--lambda")
    code, out, _ = run(capsys, *family, "3,3", "--mu", "3,3", "--p", "5")
    assert code == 0 and json.loads(out)["kernel_dim"] == 0 and ranked == []
    code, out, _ = run(capsys, *family, "2,2", "--mu", "2,2", "--p", "3")  # Omega_2(-1, -1)
    assert code == 0 and json.loads(out)["kernel_dim"] == 4 and len(ranked) == 1


def test_classify_form_matrix_json_refuses_family_flags(capsys, tmp_path):
    # the matrix is the whole form: an 8x8 matrix is a b = 2 form, so --b 3,
    # --lambda and --mu would go unread while the report says b: 2
    from heiskod.fplinalg import AlternatingForm

    path = tmp_path / "omega.json"
    path.write_text(json.dumps(AlternatingForm.family(2, 5, (3, 3), (3, 3)).to_lists()))
    argv = ("classify-form", "--p", "5", "--matrix-json", str(path))
    for extra in (("--b", "3", "--lambda", "1,2", "--mu", "3,4"), ("--b", "2"), ("--lambda", "3,3")):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and "--matrix-json" in err and out == ""
    assert run(capsys, *argv)[0] == 0


def test_classify_form_beyond_int64(capsys):
    code, out, _ = run(capsys, "classify-form", *LARGE_P_FAMILY, "--format", "json")
    assert code == 0
    record = json.loads(out)
    # (1 - 3 * 5)^2 (1 - (q - 2)(q - 4))^2 = 14^2 * 7^2 mod q
    assert record["det"] == 9604
    assert record["diagonal_multiple"] == 1 and record["heisenberg_type"] is True


def test_search_forms_first_hit(capsys):
    code, out, _ = run(capsys, "search-forms", "--b", "2", "--p", "5", "--count", "1")
    assert code == 0
    assert "lambda = 2,4" in out and "mu = 4,2" in out


def test_search_forms_empty_mod3_notes_obstruction(capsys):
    code, out, _ = run(capsys, "search-forms", "--b", "2", "--p", "3")
    assert code == 0
    assert "no valid" in out
    assert "obstruction" in out


def test_search_forms_count_below_one_exits_2(capsys):
    for count in ("0", "-3"):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "search-forms", "--b", "2", "--p", "5", "--count", count, "--format", fmt)
            assert code == 2 and out == "" and "count must be >= 1" in err


def test_search_forms_json(capsys):
    code, out, _ = run(capsys, "search-forms", "--b", "3", "--p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hits"] == [] and payload["exhaustive"] is True


def test_search_forms_refuses_before_writing(capsys, tmp_path):
    target = tmp_path / "F"
    for argv in (("--b", "8", "--p", "97"), ("--b", "2", "--p", "5", "--count", "0")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "search-forms", *argv, "--format", fmt, "--output", str(target))
            assert code == 2 and out == "" and err.startswith("error: ")
            assert not target.exists()


def _search_reference(b, p, count):
    """What search-forms printed when it built the whole payload first."""
    from heiskod.cohomology import search_family_params

    hits = list(search_family_params(b, p, count))
    payload = {
        "b": b,
        "p": p,
        "hits": [{"lambda": list(l), "mu": list(m)} for l, m in hits],
        "exhaustive": count is None or len(hits) < count,
    }
    lines = [f"lambda = {','.join(map(str, l))}  mu = {','.join(map(str, m))}" for l, m in hits]
    if not hits:
        lines.append(f"no valid (lambda, mu) exist for b = {b}, p = {p} (exhaustive search)")
        if p == 3:
            lines.append(
                "obstruction: mod 3, lambda_j*mu_j != 1 forces mu_j = -lambda_j, "
                "so sum(lambda) = 1 would give sum(mu) = -1 != 1"
            )
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [None, 1, 7])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("b", [2, 3, 4])
def test_search_forms_streams_the_whole_payload(capsys, b, p, count):
    argv = ["search-forms", "--b", str(b), "--p", str(p)]
    if count is not None:
        argv += ["--count", str(count)]
    want_json, want_text = _search_reference(b, p, count)
    assert run(capsys, *argv, "--format", "json") == (0, want_json, "")
    assert run(capsys, *argv) == (0, want_text, "")


# A launcher between pytest and the CLI: a child's ru_maxrss starts at the
# peak RSS of the process that exec'd it, which for pytest itself can exceed
# the bound under test; the launcher is a fresh small interpreter.
_MAXRSS_LAUNCHER = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def peak_rss_kib(*argv):
    """Exit code and peak RSS in KiB of ``heiskod *argv``, started from the launcher."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, sys.executable, "-m", "heiskod", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, maxrss_kib = map(int, proc.stdout.split())
    return code, maxrss_kib


def run_capped(*argv, python=("-m", "heiskod")):
    """Exit code, stdout, stderr and wall time of ``heiskod *argv``, or of
    ``python *python, *argv``, in a fresh interpreter under a 600 MB
    address-space cap, so that a run that would build a huge range fails
    inside the cap and not in the machine's memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *python, *argv], env=env, capture_output=True, text=True, preexec_fn=cap, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def test_search_forms_memory_stays_flat():
    # (4, 11) prints 542,001 hits, 80,650,306 bytes of JSON; held whole it peaked at 924 MB
    code, maxrss_kib = peak_rss_kib("search-forms", "--b", "4", "--p", "11", "--format", "json")
    assert code == 0
    assert maxrss_kib < 100 * 1024


@pytest.mark.parametrize(
    "argv",
    [
        # 320,802 relators; holding them as words and sources peaked at 162 MB
        ("verify", "--family", "degenerate", "--b", "200", "--p", "67"),
        # 80,402 relators; holding them and their JSON records peaked at 207 MB
        ("presentation", "--b", "100", "--format", "json"),
    ],
    ids=lambda a: a[0],
)
def test_large_genus_streams_its_relators(argv):
    code, maxrss_kib = peak_rss_kib(*argv)
    assert code == 0
    assert maxrss_kib < 60 * 1024


@pytest.mark.parametrize(
    "argv,expected",
    [
        # itertools.product was asked for 2^63 - 1 repeats: OverflowError, exit 1
        (("--b", str(2**63), "--p", "2"), f"no valid (lambda, mu) exist for b = {2**63}, p = 2 (exhaustive search)\n"),
        # islice takes no stop past sys.maxsize: ValueError, exit 1
        (
            ("--b", "2", "--p", "5", "--count", str(10**20)),
            "lambda = 2,4  mu = 4,2\nlambda = 3,3  mu = 3,3\nlambda = 4,2  mu = 2,4\n",
        ),
    ],
    ids=["p2-genus-past-maxsize", "count-past-maxsize"],
)
def test_search_forms_past_sys_maxsize(capsys, argv, expected):
    assert run(capsys, "search-forms", *argv) == (0, expected, "")


# -- invariants / census / kappa ----------------------------------------------------


def test_invariants_kirby_values(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "degenerate", "--b", "2", "--p", "3")
    assert code == 0
    assert "sigma: 144" in out
    assert "g1: 325" in out
    assert "nu: 7/3" in out


def test_invariants_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "invariants", "--family", "nondegenerate", "--b", "2", "--p", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == 1250000
    assert payload["nu_num"] == 82 and payload["nu_den"] == 35
    assert payload["degree"] == 5


def test_invariants_csv(capsys):
    code, out, _ = run(
        capsys, "invariants", "--family", "degenerate", "--b", "3", "--p", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,b,p,")
    assert lines[1] == "degenerate,3,2,3,3,289,289,4992,2304,13,6,128,128"


def test_invariants_huge_prime_exits_2_quickly(capsys):
    # 10^18 + 3 is prime; trial division would need 10^9 divisions to show it
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "invariants", "--family", "degenerate", "--b", str(10**18), "--p", str(10**18 + 3)
    )
    assert code == 2 and "does not divide" in err
    assert time.perf_counter() - t0 < 1.0


def test_classify_form_entry_beyond_int64_exits_2(capsys, tmp_path):
    path = tmp_path / "omega.json"
    path.write_text("[[0, 1], [-1, 1000000000000000000000000000000]]")
    code, _, err = run(capsys, "classify-form", "--p", "3", "--matrix-json", str(path))
    # the entry is reduced exactly (10^30 = 1 mod 3), and the form it gives is
    # refused for what it is
    assert code == 2 and "not skew-symmetric" in err


def test_classify_form_non_integer_entry_exits_2(capsys, tmp_path):
    # the degenerate (2, 3) form with 2.5 and -2.5 at (0, 1) and (1, 0): the
    # entries used to be truncated to 2 and -2 and the command exited 0
    from heiskod.fplinalg import AlternatingForm

    omega = AlternatingForm.family(2, 3, [-1] * 2, [-1] * 2).to_lists()
    omega[0][1], omega[1][0] = 2.5, -2.5
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(omega))
    code, _, err = run(capsys, "classify-form", "--p", "3", "--matrix-json", str(path))
    assert code == 2 and "error: matrix entry must be an integer, got 2.5" in err


def test_classify_form_boolean_entry_exits_2(capsys, tmp_path):
    # JSON true off the diagonal of an 8x8 matrix mod 2 used to be read as 1,
    # and the command printed a classification and exited 0
    path = tmp_path / "omega.json"
    path.write_text(json.dumps([[True if i != j else 0 for j in range(8)] for i in range(8)]))
    code, out, err = run(capsys, "classify-form", "--p", "2", "--matrix-json", str(path))
    assert (code, out) == (2, "") and "error: matrix entry must be an integer, got True" in err


@pytest.mark.parametrize(
    "matrix,argv,message",
    [
        ([[0] * 6] * 6, ("--p", "5"), "form dimension 6 is not 4b"),
        ([[0, 1, 0], [-1, 0, 0]], ("--p", "5"), "alternating form must be square"),
        ([1, 2], ("--p", "5"), "matrix entries must be two-dimensional"),
        (
            None,
            ("--b", "2", "--p", "5", "--lambda", "3,x", "--mu", "3,3"),
            "argument --lambda: cannot parse list '3,x'",
        ),
        (None, ("--b", "2", "--p", "5", "--lambda", "3,3"), "give either --matrix-json or both"),
        (None, ("--p", "5", "--lambda", "3,3", "--mu", "3,3"), "--b is required"),
        (None, ("--b", "3", "--p", "5", "--lambda", "3,3", "--mu", "3,3"), "need 3 lambdas and 3 mus, got 2 and 2"),
    ],
    ids=["6x6", "not-square", "one-dimensional", "unparsed-lambda", "lambda-without-mu", "no-b", "short-lambda"],
)
def test_classify_form_refusals_exit_2(capsys, tmp_path, matrix, argv, message):
    if matrix is not None:
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(matrix))
        argv += ("--matrix-json", str(path))
    code, out, err = run(capsys, "classify-form", *argv)
    assert (code, out) == (2, "") and f"error: {message}" in err


def test_classify_form_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify-form", "--p", "3", "--matrix-json", "/no/such/file.json")
    assert code == 2 and "file" in err.lower()


def test_classify_form_truncated_json_exits_2(capsys, tmp_path):
    path = tmp_path / "omega.json"
    path.write_text("[[0, 1], [")
    code, out, err = run(capsys, "classify-form", "--p", "3", "--matrix-json", str(path))
    message = "argument --matrix-json: Expecting value: line 1 column 11 (char 10)"
    assert (code, out) == (2, "") and refused_by_argparse(err, "classify-form", message)


@pytest.mark.parametrize(
    "content,message",
    [
        (b"\xff\xfe[[0]]", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        # read under the digit limit that argparse reads argv under
        (b"[[0, 1" + b"7" * 5000 + b"], [1, 0]]", "Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["not-utf8", "deep", "5000-digit-entry"],
)
def test_classify_form_unreadable_json_exits_2(capsys, tmp_path, content, message):
    # each exited 1 with a UnicodeDecodeError, RecursionError or ValueError
    # traceback: only JSONDecodeError was mapped to a refusal
    path = tmp_path / "omega.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "classify-form", "--p", "5", "--matrix-json", str(path))
    assert (code, out) == (2, "") and err.startswith("usage: heiskod classify-form ") and err.count(": error: ") == 1
    assert err.splitlines()[-1].startswith(f"heiskod classify-form: error: argument --matrix-json: {message}")


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (InconsistencyError("x"), 1, "inconsistency: "),
        (PreconditionError("x"), 2, "error: "),
        # any package error, not only the subclasses raised today
        (HeiskodError("x"), 2, "error: "),
        (OSError("x"), 2, "error: "),
        # an unreadable --matrix-json path
        (FileNotFoundError("x"), 2, "error: "),
        # an out-of-memory run is not a refuted claim
        (MemoryError(), 2, "error: out of memory"),
    ],
)
def test_main_maps_each_exception_to_its_exit_code(capsys, monkeypatch, exc, code, prefix):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_kappa", raising)
    assert run(capsys, "kappa", "--b", "2") == (code, "", f"{prefix}{exc}\n")


def test_census_nondegenerate_all_claims(capsys):
    code, out, _ = run(
        capsys, "census", "--family", "nondegenerate", "--b", "2..6", "--p", "5..13"
    )
    assert code == 0
    assert "claim [ok]" in out and "FAILED" not in out


def test_census_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "census", "--family", "degenerate", "--b", "2..12", "--p", "2..13", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,b,p,b1,b2,g1,g2,c1sq,c2,nu_num,nu_den,sigma,degree"
    assert any(line.startswith("degenerate,2,3,2,2,325,325,3024,1296,7,3,144,") for line in lines)


CENSUS_DEGENERATE_TEXT = (
    "family,b,p,b1,b2,g1,g2,c1sq,c2,nu_num,nu_den,sigma,degree\n"
    "degenerate,2,3,2,2,325,325,3024,1296,7,3,144,243\n"
    "degenerate,3,2,3,3,289,289,4992,2304,13,6,128,128\n"
    "\n"
    "claim [ok] degenerate: slope in (2, 7/3]: all rows in window\n"
    "claim [ok] degenerate: slope maximum attained exactly at [(2, 3)]: attained at [(2, 3)]\n"
    "claim [ok] degenerate: signature divisible by 16: all rows divisible\n"
    "claim [ok] degenerate: minimum signature 128 at (3, 2): minimum 128 at (3, 2)\n"
    "claim [ok] degenerate: slope = 2 + (p^2-1)/(2kp^3 - 3p^2 - p) with b = kp - 1: identity holds row by row\n"
    "claim [ok] degenerate: fibre genus satisfies 2g - 2 = p^{2b+1}(2b - 2 + 1 - 1/p): matches\n"
    "claim [ok] degenerate: for fixed b the signature is strictly increasing in p: monotone for every b with two admissible primes\n"
)


def test_census_text_exact(capsys):
    argv = ("census", "--family", "degenerate", "--b", "2..3", "--p", "2..3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == CENSUS_DEGENERATE_TEXT
    # csv: the same table on stdout, the same claim lines on stderr
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    table, claims = CENSUS_DEGENERATE_TEXT.split("\n\n")
    assert out == table + "\n"
    assert err == claims


def test_census_output_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "census", "--family", "degenerate", "--b", "2..5", "--p", "2..5",
        "--format", "csv", "--output", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text().startswith("family,b,p,")


# every subcommand that takes --output, with arguments on which it exits 0
WITH_OUTPUT = [
    ("presentation", "--b", "2"),
    ("verify", "--family", "degenerate", "--b", "2", "--p", "3"),
    ("classify-form", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3"),
    ("search-forms", "--b", "2", "--p", "5"),
    ("invariants", "--family", "degenerate", "--b", "2", "--p", "3"),
    ("census", "--family", "degenerate", "--b", "2..3", "--p", "2..3"),
    ("kappa", "--b", "2..10"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", WITH_OUTPUT, ids=lambda a: a[0])
def test_output_file_holds_stdout_without_its_final_newline(capsys, tmp_path, argv, fmt):
    # main writes every subcommand's output: stdout adds a final newline, a file gets the chunks alone
    subparsers = next(action.choices for action in cli.build_parser()._actions if action.dest == "command")
    takes_output = {name for name, sp in subparsers.items() if any(a.dest == "output" for a in sp._actions)}
    assert takes_output == {a[0] for a in WITH_OUTPUT}
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    path = tmp_path / "out"
    assert run(capsys, *argv, "--format", fmt, "--output", str(path)) == (0, "", "")
    assert out == path.read_text() + "\n"


def test_kappa_range(capsys):
    code, out, _ = run(capsys, "kappa", "--b", "2..10")
    assert code == 0
    assert "kappa(2) = 1" in out
    assert "kappa(5) = 2" in out
    assert out.count("kappa(") == 9


def test_kappa_prime_cofactor_is_quick(capsys):
    # b + 1 = 10^18 + 3 is prime; trial division up to its root never ended
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "kappa", "--b", str(10**18 + 2))
    assert code == 0 and out == f"kappa({10**18 + 2}) = 1\n"
    assert time.perf_counter() - t0 < 1.0


def test_kappa_hard_semiprime_exits_2(capsys):
    # both prime factors of b + 1 lie above the trial-division bound 10^6
    t0 = time.perf_counter()
    code, _, err = run(capsys, "kappa", "--b", str(1000003 * 1000033 - 1))
    assert code == 2 and "no prime factor up to" in err
    assert time.perf_counter() - t0 < 2.0


def test_kappa_json(capsys):
    code, out, _ = run(capsys, "kappa", "--b", "29", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"b": 29, "kappa": 3}]


# -- integers in full, powers too large to form -------------------------------------


@contextlib.contextmanager
def unlimited_digits():
    """The test's own conversions of numbers over 4300 digits, under the
    digit limit of Python 3.10.7 on, lifted here and restored on exit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_invariants_print_integers_in_full(capsys, fmt):
    # c2 = 13^3856 * 1926 * 25050 has 4304 digits: str() refused it, and the
    # run exited 1 with a ValueError traceback
    limit = getattr(sys, "get_int_max_str_digits", int)()
    code, out, err = run(capsys, "invariants", "--family", "nondegenerate", "--b", "964", "--p", "13", "--format", fmt)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", int)() == limit  # main restores the limit
    b, p = 964, 13
    with unlimited_digits():
        record = json.loads(out) if fmt == "json" else dict(line.split(": ", 1) for line in out.splitlines())
        expected = {
            "group_order": p ** (4 * b + 1),
            "b1": p ** (2 * b) * (b - 1) + 1,
            "g1": p ** (2 * b) * ((2 * b - 1) * p - 1) // 2 + 1,
            "c2": p ** (4 * b) * (2 * b - 2) * ((2 * b - 1) * p - 1),
            "sigma": (2 * b - 2) * p ** (4 * b - 1) * (p * p - 1) // 3,
        }
        assert len(str(expected["c2"])) > 4300
        assert {k: int(record[k]) for k in expected} == expected


def test_verify_report_prints_the_target_order_in_full(capsys):
    # |G| = (2^61 - 1)^241 has 4426 digits: the report of a passing proof
    # ended in a ValueError traceback and exit 1
    b, p = 60, MERSENNE_61
    lam, mu = ",".join(["1"] * (b - 1) + [str(2 - b)]), ",".join(["2"] * (b - 1) + [str(3 - 2 * b)])
    argv = ("--family", "nondegenerate", "--b", str(b), "--p", str(p), "--lambda", lam, "--mu", mu)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    with unlimited_digits():
        assert out.splitlines()[:4] == [
            f"family nondegenerate, b = {b}, p = {p}, target order {p ** (4 * b + 1)}",
            f"relators passed: {8 * b * b + 4 * b + 2}/{8 * b * b + 4 * b + 2}",
            f"A12 image order: {p}",
            f"kernel-set image indices: m1 = {p ** (2 * b)}, m2 = {p ** (2 * b)}",
        ]


def test_an_integer_too_long_to_parse_is_still_refused(capsys):
    # main lifts the digit limit only after argparse has read argv, ranges
    # included: kappa of a 30,000-digit b ran past 20 s factoring it
    code, out, err = run(capsys, "presentation", "--b", "7" * 4301)
    assert (code, out) == (2, "") and err.startswith("usage: ") and "invalid int value" in err
    code, out, err = run(capsys, "kappa", "--b", "7" * 4301)
    message = f"argument --b: cannot parse range '{'7' * 4301}'; use forms like 5, 2..6 or 5,7,11"
    assert (code, out) == (2, "") and refused_by_argparse(err, "kappa", message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("invariants", "--family", "nondegenerate", "--b", "99999999999", "--p", "1117"),
            "|G| = 1117^399999999997 has up to 4399999999967 bits, more than 131072",
        ),
        (
            ("census", "--family", "nondegenerate", "--b", "4294967311", "--p", "4294967311"),
            "|G| = 4294967311^17179869245 has up to 566935685085 bits, more than 131072",
        ),
        (
            ("search-forms", "--b", "99999999999", "--p", "7"),
            "search space (p-1)^(2b-2) at b = 99999999999, p = 7 is more than 200000000, too large to exhaust",
        ),
        (
            ("search-forms", "--b", "1000000", "--p", "13"),
            "search space (p-1)^(2b-2) at b = 1000000, p = 13 is more than 200000000, too large to exhaust",
        ),
    ],
    ids=["invariants", "census", "search-huge-genus", "search-million"],
)
def test_a_power_too_large_to_form_is_refused_before_it_is_formed(argv, message):
    # the first three ran past 60 s under a 2 GB cap forming p^(4b+1) or
    # (p-1)^(2b-2); the last formed its power and exited 1 printing it
    code, out, err, seconds = run_capped(*argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert seconds < 1.0


# -- selftest and usage ------------------------------------------------------------


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "11/11 criteria passed" in out
    assert run(capsys, "selftest", "--quick")[0] == 2  # no such option


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_malformed_range_exits_2(capsys):
    code, _, err = run(capsys, "census", "--family", "degenerate", "--b", "xx", "--p", "3")
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("kappa", "--b", "6..2"),
        ("kappa", "--b", ","),
        ("census", "--family", "degenerate", "--b", "2..6", "--p", "13..2"),
    ],
)
def test_empty_range_exits_2(capsys, argv):
    # used to print nothing, or vacuous claims, and exit 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "empty" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("kappa", "--b", "2..1000000000"),
        ("kappa", "--b", f"2..{10**30}"),
        ("census", "--family", "nondegenerate", "--b", "2", "--p", "5..1000000000"),
    ],
)
def test_huge_range_exits_2_before_it_is_built(argv):
    # the whole list used to be built first: a MemoryError traceback and
    # exit 1 under this cap
    code, out, err, seconds = run_capped(*argv)
    assert (code, out) == (2, "") and "more than 10^6 values" in err
    assert seconds < 1.0


def test_census_of_too_many_cells_exits_2_before_any_is_tested():
    # each range is admitted, but 1001 x 1001 cells are more than 10^6
    code, out, err, seconds = run_capped("census", "--family", "degenerate", "--b", "2..1002", "--p", "2..1002")
    assert (code, out) == (2, "") and "more than 10^6" in err
    assert seconds < 1.0


def test_census_of_too_many_group_bits_exits_2_before_any_row_is_computed():
    # every row is under GROUP_BITS_BOUND, but 1384 of them hold 173,744,592
    # bits of |G| in all; computed, they took 45 s and 405 MB for 157 MB of CSV
    # (2-core x86 box, Python 3.11)
    code, out, err, seconds = run_capped("census", "--family", "degenerate", "--b", "30001..32767", "--p", "2")
    assert (code, out) == (2, "")
    assert err == "error: the 1384 rows' |G| have up to 173744592 bits in all, more than 67108864\n"
    assert seconds < 1.0


def test_census_tests_each_modulus_once_before_its_bit_bound_refuses():
    # 10^6 cells over 1000 moduli; testing primality per cell, not per
    # modulus, made 10^6 is_prime calls and took 1.4-1.6 s to refuse
    # (2-core x86 box, Python 3.11)
    code, out, err, seconds = run_capped("census", "--family", "nondegenerate", "--b", "2..1001", "--p", "2..1001")
    assert (code, out) == (2, "")
    assert err == "error: the 166000 rows' |G| have up to 2916171000 bits in all, more than 67108864\n"
    assert seconds < 1.0


@pytest.mark.parametrize("family", ["degenerate", "nondegenerate"])
def test_verify_at_a_huge_genus_exits_2_before_a_form_is_built(family):
    # the dense images of the degenerate (100000, 11) lifting, 80,000,200,000
    # entries, used to exhaust a 2 GB cap after about 9 s
    code, out, err, seconds = run_capped("verify", "--family", family, "--b", "100000", "--p", "11")
    entries = 400001 * 100000 * (2 if family == "degenerate" else 4)
    assert (code, out) == (2, "")
    assert err == f"error: the lifting's images would hold {entries} entries, more than 10000000\n"
    assert seconds < 1.0


@pytest.mark.parametrize("family", ["degenerate", "nondegenerate"])
def test_a_library_call_at_a_huge_genus_is_refused_before_a_form_is_built(family):
    # the library's degenerate (100000, 11) lifting ran 7.2 s and then raised
    # MemoryError under a 1 GB cap, while the CLI refused it at once
    script = (
        "import sys\n"
        "from heiskod.errors import PreconditionError\n"
        "from heiskod.verify import standard_assignment\n"
        "try:\n"
        "    standard_assignment(sys.argv[1], 100000, 11)\n"
        "except PreconditionError as exc:\n"
        "    print(exc)\n"
    )
    code, out, err, seconds = run_capped(family, python=("-c", script))
    entries = 400001 * 100000 * (2 if family == "degenerate" else 4)
    assert (code, out, err) == (0, f"the lifting's images would hold {entries} entries, more than 10000000\n", "")
    assert seconds < 1.0


@pytest.mark.parametrize(
    "call,message",
    [
        ('census("degenerate", range(2, 10**12), [3])', "genus b takes more than 10^6 values"),
        ("kappas(range(2, 10**12))", "genus b takes more than 10^6 values"),
        ('census("degenerate", [2, "a"], [3])', "genus b must be an integer, got 'a'"),
    ],
)
def test_a_library_range_past_the_bound_is_refused_before_it_is_read(call, message):
    # the first two built the whole range, a MemoryError under a 1 GB cap,
    # and the third raised TypeError sorting an int with a str
    script = (
        "from heiskod.errors import PreconditionError\n"
        "from heiskod.invariants import census\n"
        "from heiskod.primes import kappas\n"
        "try:\n"
        f"    {call}\n"
        "except PreconditionError as exc:\n"
        "    print(exc)\n"
    )
    code, out, err, seconds = run_capped(python=("-c", script))
    assert (code, out, err) == (0, message + "\n", "")
    assert seconds < 1.0


@pytest.mark.parametrize(
    "call,message",
    [
        ("diagonal_class(10**6, 5)", "the wedge square at genus 1000000 has 7999998000000 pairs, more than 200000"),
        ("xi_matrix(10**5, 5)", "the wedge square at genus 100000 has 79999800000 pairs, more than 200000"),
        ("eta_matrix(10**5, 5)", "the wedge square at genus 100000 has 79999800000 pairs, more than 200000"),
        (
            "count_heisenberg_candidates(10**5, 5)",
            "the wedge square at genus 100000 has 79999800000 pairs, more than 200000",
        ),
        (
            "classify_form(AlternatingForm.sparse([{}] * 40000, 40000, 5))",
            "the wedge square at genus 10000 has 799980000 pairs, more than 200000",
        ),
        (
            "AlternatingForm.standard_symplectic(10**11, 5)",
            "F_p^2n at n = 100000000000 has more than 100000 coordinates",
        ),
    ],
)
def test_a_builder_past_its_bound_is_refused_before_anything_is_built(call, message):
    # each raised MemoryError under a 1 GB cap, the first at once and the
    # others after 1.3-2.1 s: vec_of_form densified the 40000-dim form
    script = (
        "from heiskod.cohomology import classify_form, count_heisenberg_candidates, diagonal_class\n"
        "from heiskod.cohomology import eta_matrix, xi_matrix\n"
        "from heiskod.errors import PreconditionError\n"
        "from heiskod.fplinalg import AlternatingForm\n"
        "try:\n"
        f"    {call}\n"
        "except PreconditionError as exc:\n"
        "    print(exc)\n"
    )
    code, out, err, seconds = run_capped(python=("-c", script))
    assert (code, out, err) == (0, message + "\n", "")
    assert seconds < 1.0


def test_kappa_refuses_a_4299_digit_genus_quickly(capsys):
    # b + 1 was trial-divided by every d up to 10^6, not only the primes: 4.1 s
    b = "7" * 4299
    t0 = time.perf_counter()
    code, out, err = run(capsys, "kappa", "--b", b)
    seconds = time.perf_counter() - t0
    cofactor = err.removeprefix("error: ").split(" ", 1)[0]
    assert (code, out) == (2, "") and cofactor.isdigit() and (int(b) + 1) % int(cofactor) == 0
    assert err == f"error: {cofactor} has no prime factor up to 1000000; factoring it is out of range\n"
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv,message",
    [
        # a malformed list is refused by argparse, before the lifting's rules are read
        (
            ("--family", "degenerate", "--b", "100000", "--p", "11", "--lambda", "3,x"),
            "argument --lambda: cannot parse list '3,x'",
        ),
        # the genus and the family's prime come before the presence of --lambda and --mu
        (("--family", "nondegenerate", "--b", "1", "--p", "5"), "genus b must be >= 2, got 1"),
        (("--family", "nondegenerate", "--b", "2", "--p", "3"), "the non-degenerate family needs a prime p >= 5, got 3"),
        (
            ("--family", "degenerate", "--b", "2", "--p", "2", "--lambda", "1,2", "--mu", "3,4"),
            "the degenerate family needs p | b+1; 2 does not divide 3",
        ),
    ],
    ids=["malformed-lambda", "genus", "nondegenerate-prime", "degenerate-prime"],
)
def test_verify_refusal_precedence(capsys, argv, message):
    # each of these inputs breaks two rules, and the message names the one
    # that argparse or standard_assignment checks first
    code, out, err = run(capsys, "verify", *argv)
    if message.startswith("argument "):
        assert (code, out) == (2, "") and refused_by_argparse(err, "verify", message)
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_presentation_at_a_huge_genus_exits_2_before_a_byte_is_written(tmp_path):
    # 8 * 10^10 + 400002 relators; the file used to grow by about 7 MB a second
    path = tmp_path / "F"
    code, out, err, seconds = run_capped("presentation", "--b", "100000", "--output", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the presentation at genus 100000 has 80000400002 relators, more than 10000000\n"
    assert not path.exists()
    assert seconds < 1.0


def test_kappa_over_the_largest_range_is_quick():
    # the 10^6 values the range check admits; factoring each b + 1 alone ran past 20 s
    code, out, _, seconds = run_capped("kappa", "--b", "2..1000001")
    assert code == 0 and out.count("\n") == 10**6
    assert out.endswith("kappa(999999) = 2\nkappa(1000000) = 2\nkappa(1000001) = 3\n")
    assert seconds < 3.0


def test_kappa_json_over_the_largest_range_fits_the_cap():
    # the JSON of the 10^6 records was built whole: 870 MB, "out of memory" under this cap
    code, out, err, seconds = run_capped("kappa", "--b", "2..1000001", "--format", "json")
    assert (code, err) == (0, "")
    assert out.endswith('  {\n    "b": 1000001,\n    "kappa": 3\n  }\n]\n')
    assert seconds < 3.0


@pytest.mark.parametrize("bs", ["2..100001", f"2,{10**18},3,{10**18 + 2},3"])
def test_kappa_streams_what_it_printed_whole(capsys, bs):
    from heiskod.primes import kappas

    values = {b: kappas([b])[0] for b in cli._parse_range(bs)}
    code, out, _ = run(capsys, "kappa", "--b", bs, "--format", "json")
    assert code == 0 and out == json.dumps([{"b": b, "kappa": k} for b, k in values.items()], indent=2) + "\n"
    code, out, _ = run(capsys, "kappa", "--b", bs)
    assert code == 0 and out == "\n".join(f"kappa({b}) = {k}" for b, k in values.items()) + "\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv", [("presentation", "--b", "300", "--format", "json"), ("kappa", "--b", "2..100000")], ids=lambda a: a[0]
)
def test_a_closed_stdout_is_no_error(argv, unbuffered):
    # a reader that stops early, like head -c 100, used to get "error: [Errno
    # 32] Broken pipe" and exit 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "heiskod", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.mark.parametrize(
    "family,b,refused",
    # (4b + 1) 2b entries in the degenerate family and (4b + 1) 4b in the other,
    # on either side of the bound 10^7
    [("degenerate", 1117, False), ("degenerate", 1118, True), ("nondegenerate", 790, False), ("nondegenerate", 791, True)],
)
def test_verify_image_bound_is_exact(capsys, family, b, refused):
    # p = 4 is refused at once, so an admitted genus exits 2 without a form built
    code, out, err = run(capsys, "verify", "--family", family, "--b", str(b), "--p", "4")
    assert (code, out) == (2, "")
    assert ("entries" in err) == refused


def test_census_omits_a_claim_its_ranges_do_not_reach(capsys):
    # the least non-degenerate signature is at (2, 5), outside b = 3..4
    code, out, _ = run(capsys, "census", "--family", "nondegenerate", "--b", "3..4", "--p", "5..7")
    assert code == 0 and "FAILED" not in out
    assert out.count("claim [ok]") == 4 and "minimum signature" not in out


def test_census_without_admissible_rows_exits_2(capsys):
    # p in 2..3 admits no non-degenerate row; every claim used to print [ok]
    code, out, err = run(capsys, "census", "--family", "nondegenerate", "--b", "2", "--p", "2..3")
    assert code == 2 and out == ""
    assert "no admissible" in err


HUGE = "3317044064679887385961981"  # the first modulus beyond the exact primality test


@pytest.mark.parametrize(
    "family,b_range,p_range,message",
    [
        # b = 1 is refused wherever it sits; at --p 3 the degenerate census
        # used to skip it and exit 0 with the b = 2 row alone
        ("degenerate", "1..3", "3", "genus b must be >= 2, got 1"),
        ("degenerate", "1..3", "2..3", "genus b must be >= 2, got 1"),
        ("nondegenerate", "1..3", "5..7", "genus b must be >= 2, got 1"),
        # a b = 1 row with an admissible prime
        ("degenerate", "1", "2", "genus b must be >= 2, got 1"),
        ("nondegenerate", "1", "5", "genus b must be >= 2, got 1"),
        # the primality test refuses a modulus beyond its range for both families
        ("degenerate", "2..4", f"5,{HUGE}", "too large for the exact primality test"),
        ("nondegenerate", "2..4", f"5,{HUGE}", "too large for the exact primality test"),
    ],
)
def test_census_refusals_exit_2(capsys, family, b_range, p_range, message):
    code, out, err = run(capsys, "census", "--family", family, "--b", b_range, "--p", p_range)
    assert code == 2 and out == ""
    assert message in err


def test_no_subcommand_exits_2(capsys):
    assert run(capsys)[0] == 2


# -- import surface ------------------------------------------------------------
#
# Each case is a fresh interpreter, so that modules loaded by other tests do
# not hide what one subcommand imports.

SRC = Path(__file__).resolve().parents[1] / "src"

_CLI_PROBE = (
    "import contextlib, io, json, sys\n"
    "from heiskod.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)


def fresh_process(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def cli_modules(*argv):
    result = fresh_process(_CLI_PROBE, *argv)
    assert result["code"] == 0
    return set(result["modules"])


def test_import_package_loads_no_submodule():
    modules = fresh_process("import heiskod, json, sys; print(json.dumps(sorted(sys.modules)))")
    assert "heiskod" in modules
    assert not [m for m in modules if m.startswith("heiskod.")]
    assert "numpy" not in modules


NUMPY_FREE = [
    ("kappa", "--b", "2"),
    ("invariants", "--family", "degenerate", "--b", "2", "--p", "3"),
    ("census", "--family", "degenerate", "--b", "2..6", "--p", "2..13"),
    ("presentation", "--b", "3"),
    ("classify-form", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3"),
    ("search-forms", "--b", "2", "--p", "5", "--count", "1"),
    ("verify", "--family", "degenerate", "--b", "2", "--p", "3"),
    ("verify", "--family", "degenerate", "--b", "2", "--p", "3", "--bfs-oracle"),
]


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda a: a[0] + " --bfs-oracle" * ("--bfs-oracle" in a))
def test_exact_subcommands_never_import_numpy(argv):
    modules = cli_modules(*argv)
    assert "numpy" not in modules
    # only selftest imports acceptance, and the probe sees what is loaded
    assert "heiskod.acceptance" not in modules
    # only verify imports the verifier: the parser, built by every start
    # (kappa's is the benchmark's start-up probe), does not
    assert ("heiskod.verify" in modules) == (argv[0] == "verify")
    # kappa counts in primes, so only the invariants and the census load
    # the invariants and their fractions
    assert ("heiskod.invariants" in modules) == ("fractions" in modules) == (argv[0] in ("invariants", "census"))
    assert "heiskod.cli" in modules


@pytest.mark.parametrize("argv", NUMPY_FREE + [("selftest",)], ids=" ".join)
def test_no_subcommand_imports_dataclasses(argv):
    # the records are NamedTuples: on a 2-core x86 box importing dataclasses
    # took 3.4 ms, and each frozen dataclass about 0.26 ms more
    assert "dataclasses" not in cli_modules(*argv)


GOLDEN = Path(__file__).parent / "golden"
DEGENERATE_B3_P2 = ("verify", "--family", "degenerate", "--b", "3", "--p", "2")
NONDEGENERATE_B2_P5 = ("verify", "--family", "nondegenerate", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3")
# every subcommand, each with the golden file of its output where one exists
WITHOUT_NUMPY = [
    ("presentation_b2.txt", ("presentation", "--b", "2")),
    ("verify_degenerate_b3_p2.txt", DEGENERATE_B3_P2),
    ("verify_degenerate_b3_p2_oracle.txt", (*DEGENERATE_B3_P2, "--bfs-oracle")),
    ("verify_nondegenerate_b2_p5_oracle.json", (*NONDEGENERATE_B2_P5, "--bfs-oracle", "--format", "json")),
    ("census_degenerate_b2-12_p2-13.txt", ("census", "--family", "degenerate", "--b", "2..12", "--p", "2..13")),
    ("invariants_nondegenerate_b2_p5.csv", ("invariants", "--family", "nondegenerate", "--b", "2", "--p", "5", "--format", "csv")),
    ("search_forms_b3_p5.txt", ("search-forms", "--b", "3", "--p", "5")),
    (None, ("classify-form", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3")),
    (None, ("kappa", "--b", "2..30")),
    (None, ("selftest",)),
]

_NO_NUMPY_PROBE = (
    "import contextlib, io, json, sys\n"
    "sys.modules['numpy'] = None  # from here on, importing numpy raises ImportError\n"
    "from heiskod.cli import main\n"
    "runs = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        runs.append(main(argv))\n"
    "    runs.append(out.getvalue())\n"
    "print(json.dumps(runs))\n"
)


def test_every_subcommand_runs_without_numpy(capsys):
    runs = fresh_process(_NO_NUMPY_PROBE, json.dumps([argv for _, argv in WITHOUT_NUMPY]))
    commands = next(action.choices for action in cli.build_parser()._actions if action.dest == "command")
    assert set(commands) == {argv[0] for _, argv in WITHOUT_NUMPY}
    for (golden, argv), code, out in zip(WITHOUT_NUMPY, runs[::2], runs[1::2]):
        assert code == 0, argv
        if argv == ("selftest",):
            assert out.endswith("11/11 criteria passed\n")
        elif golden:
            assert out == (GOLDEN / golden).read_text(), golden
        else:
            # the same bytes as a run that could import numpy
            assert main(list(argv)) == 0
            assert out == capsys.readouterr().out


def test_cohomology_import_is_numpy_free():
    # all that the benchmark's candidate-count script loads
    modules = fresh_process("import heiskod.cohomology, json, sys; print(json.dumps(sorted(sys.modules)))")
    assert "heiskod.cohomology" in modules
    assert "numpy" not in modules


def test_verify_path_imports_no_invariants_or_fractions():
    # the primality test is a leaf module, and the CLI needs Fraction only
    # in an annotation
    modules = fresh_process(
        "import heiskod.cli, heiskod.verify, heiskod.cohomology, json, sys; print(json.dumps(sorted(sys.modules)))"
    )
    assert "heiskod.primes" in modules
    assert "heiskod.invariants" not in modules
    assert "fractions" not in modules


def test_group_and_verify_imports_are_numpy_free():
    modules = fresh_process(
        "import heiskod.verify, heiskod.heisenberg, heiskod.acceptance, json, sys;"
        " print(json.dumps(sorted(sys.modules)))"
    )
    assert "heiskod.verify" in modules and "heiskod.heisenberg" in modules
    assert "heiskod.acceptance" in modules
    assert "numpy" not in modules


def imports_of(package, tree, module):
    """(module, enclosing function) of every import of ``package`` in ``tree``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name.split(".")[0] == package for name in names):
            found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def package_imports(package):
    found = []
    for path in sorted((SRC / "heiskod").glob("*.py")):
        found += imports_of(package, ast.parse(path.read_text()), path.stem)
    return found


def test_no_module_imports_numpy():
    assert package_imports("typing")  # the scan sees the NamedTuple imports
    assert package_imports("numpy") == []


def test_no_module_imports_another_modules_private_name():
    # a private name belongs to its module: what two modules share is public
    # and lives with its owner
    imported = []
    for path in sorted((SRC / "heiskod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported += [(path.stem, node.module, alias.name) for alias in node.names]
    assert imported  # the scan sees the package's relative imports
    assert [entry for entry in imported if entry[2].startswith("_")] == []


def test_every_import_is_read():
    # every name an import binds, at module level or inside a function, is
    # read as a bare name in its module, so a deletion cannot leave behind
    # the import it was the last reader of
    bound, unread = 0, []
    for path in sorted((SRC / "heiskod").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                bound += len(names)
                unread += [f"{path.stem}.{name}" for name in names if name not in reads]
    assert bound > 50  # the scan sees the package's imports, function-level ones included
    assert unread == []


def unreferenced(selected):
    """The module-level functions and classes and the methods of the package
    whose names ``selected`` admits, and those that nothing in the package
    references outside their own definition, a method named ``Class.name``.

    A module-level name counts as used wherever it is read, bare or as an
    attribute; a method only where an attribute of that name is read
    (``x.name``), so a local variable or another module's function of the
    same name does not keep a method alive."""
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "heiskod").glob("*.py"))]
    defined = []  # (definition, name to report, whether it is a method)
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defined += [
                (d, f"{node.name}.{d.name}" if d is not node else d.name, d is not node)
                for d in (node, *members)
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and selected(d.name)
            ]
    attributes = [(n.attr, n) for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    bare = [(n.id, n) for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Name)]
    unused = []
    for d, label, method in defined:
        inside = {id(n) for n in ast.walk(d)}
        reads = attributes if method else attributes + bare
        if not any(name == d.name and id(n) not in inside for name, n in reads):
            unused.append(label)
    return [d for d, _, _ in defined], unused


def test_no_private_helper_is_dead():
    # every private module-level function or class and every private method
    # is used somewhere in the package besides its own definition, so a
    # refactor cannot leave behind a helper that only tests call
    defined, dead = unreferenced(lambda name: name.startswith("_") and not name.endswith("__"))
    assert len(defined) > 50  # the scan sees the package's private helpers
    assert dead == []


def test_no_library_string_names_a_command_line_flag():
    # the library words its refusals in its own terms (lambdas, mus, bounds);
    # only cli.py knows the flags, so a library caller never reads "--lambda"
    named = set()
    for path in sorted((SRC / "heiskod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.search("--[A-Za-z]", node.value):
                named.add(path.name)
    assert named == {"cli.py"}  # the scan sees the parser's flags


def test_every_option_is_read():
    # every add_argument destination is read as args.<dest> in the CLI, so
    # no option outlives its reader, as no function outlives its caller above
    tree = ast.parse((SRC / "heiskod" / "cli.py").read_text())
    dests = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            named = [k.value.value for k in node.keywords if k.arg == "dest"]
            dests.add(named[0] if named else node.args[0].value.lstrip("-").replace("-", "_"))
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args"}
    assert {"lam", "bfs_oracle", "matrix_json", "format"} <= dests  # the scan sees dest= and derived names
    assert sorted(dests - reads) == []


def test_every_record_field_is_read():
    # every field of a NamedTuple record, or of a record subclassing one, is
    # read as x.<field> in the package, in the record's own methods or
    # elsewhere, so no record stores a value that nothing reads
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "heiskod").glob("*.py"))]
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    records = {"NamedTuple"}
    while grown := {n.name for n in classes if any(getattr(b, "id", None) in records for b in n.bases)} - records:
        records |= grown
    annotated = [(n.name, f) for n in classes if n.name in records for f in n.body]
    fields = [(record, f.target.id) for record, f in annotated if isinstance(f, ast.AnnAssign)]
    reads = {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert {"VerificationReport", "FibrationInvariants", "HeisElement"} <= records  # the scan sees subclasses
    assert len(fields) > 40
    assert [f"{record}.{field}" for record, field in fields if field not in reads] == []


def test_no_public_name_without_a_caller():
    # every public module-level function or class and every public method is
    # used in the package besides its own definition, or is a name the
    # benchmark's tracer wraps, so no public entry point exists for tests alone
    spec = importlib.util.spec_from_file_location("proofbench_tracer", SRC.parent / "proofbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {function for _, function, _ in tracer.FUNCTIONS}
    defined, unused = unreferenced(lambda name: not name.startswith("_"))
    assert len(defined) > 50  # the scan sees the package's public names
    assert [name for name in unused if name not in traced] == []


def test_integer_gate_lives_in_primes():
    # primes.integer is the one rule for what an integer is: outside primes.py
    # no module tests isinstance(x, int) or isinstance(x, bool) or imports
    # operator.index; type(x) is int, the exact-int rule of letters and
    # stored images, is a different check and stays allowed
    calls, gates = 0, []
    for path in sorted((SRC / "heiskod").glob("*.py")):
        if path.stem == "primes":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                calls += 1
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                gates += [f"{path.stem}:{node.lineno}" for k in kinds if getattr(k, "id", None) in ("int", "bool")]
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                gates += [f"{path.stem}:{node.lineno}" for alias in node.names if alias.name == "index"]
            elif isinstance(node, ast.Attribute) and node.attr == "index":
                if getattr(node.value, "id", None) == "operator":
                    gates.append(f"{path.stem}:{node.lineno}")
    assert calls >= 3  # the scan sees the isinstance calls of fplinalg and verify
    assert gates == []


def test_lift_is_the_one_lifting_builder():
    # verify builds a target group in lift alone, so no family builds its own
    # images on a group of its own
    tree = ast.parse((SRC / "heiskod" / "verify.py").read_text())

    def builds(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "HeisGroup"]

    (lift,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "lift"]
    assert builds(lift)  # the scan sees lift's call
    assert len(builds(tree)) == len(builds(lift))


def test_no_module_imports_dataclasses():
    assert package_imports("typing")  # the scan sees the NamedTuple imports
    assert package_imports("dataclasses") == []


def test_no_module_imports_heapq():
    # the forward elimination clears the smallest stored pivot column by a
    # plain scan, in the order a heap would give
    assert package_imports("heapq") == []
