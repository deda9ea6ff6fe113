"""Byte-exact pins of the presentation and of verification reports.

Every file under ``tests/golden/`` was written by the program before relator
words became integer tuples and before relators were checked in one batched
pass; these tests hold both changes to the exact bytes the earlier code
printed, including the order of failures (relator index order) and the
repr of each failing value.  The ``search_forms_*`` files were written while
search-forms still built its whole payload before printing it; they hold the
streamed output to those bytes.  The ``*_oracle`` files were written while
``verify --bfs-oracle`` still enumerated both kernel sets, even when their
images are the same; they hold the single enumeration to those bytes.  The
``census_*`` and ``invariants_*`` files were written while each family had
its own invariants function and its own census; they hold the shared
function and claim table to those bytes.  The failing ``verify_*`` text files
and the ``*_oracle_contradicts`` files were written while ``cmd_verify``
built the report text, the oracle cross-check and the verdict itself; they
hold ``verify_assignment``'s report to those bytes.  The ``classify_form_*``
files were written while ``classify_form`` returned a four-field record with
the determinant and the image of xi; they hold the bare multiple k to those
bytes.  The ``verify_*`` and ``report_*`` files were written while each
family built its own images, the degenerate one on its own 2b-dimensional
form J_b; they hold ``lift`` of each family's 4b-dimensional form to those
bytes.  The ``help_*`` files are each subcommand's ``--help`` at 80 columns,
written before ``--lambda`` and ``--mu`` shared one converter; they hold the
option surface to those bytes (the top-level help wraps differently from
Python 3.13 on, so it is not pinned).
"""

import json
from pathlib import Path

import pytest

from heiskod import braid, verify
from heiskod.cli import main
from heiskod.verify import (
    GeneratorAssignment,
    standard_assignment,
    tau2_to_r2_variant,
    verify_assignment,
)

GOLDEN = Path(__file__).parent / "golden"

CLI_PINS = [
    ("presentation_b2.txt", ("presentation", "--b", "2")),
    ("presentation_b3.json", ("presentation", "--b", "3", "--format", "json")),
    ("verify_degenerate_b3_p2.txt", ("verify", "--family", "degenerate", "--b", "3", "--p", "2")),
    (
        "verify_degenerate_b3_p2.json",
        ("verify", "--family", "degenerate", "--b", "3", "--p", "2", "--format", "json"),
    ),
    (
        "verify_nondegenerate_b2_p5.txt",
        ("verify", "--family", "nondegenerate", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3"),
    ),
    (
        "verify_nondegenerate_b2_p5.json",
        (
            "verify", "--family", "nondegenerate", "--b", "2", "--p", "5",
            "--lambda", "3,3", "--mu", "3,3", "--format", "json",
        ),
    ),
    # the criterion-9 ranges
    ("census_nondegenerate_b2-6_p5-13.txt", ("census", "--family", "nondegenerate", "--b", "2..6", "--p", "5..13")),
    (
        "census_nondegenerate_b2-6_p5-13.json",
        ("census", "--family", "nondegenerate", "--b", "2..6", "--p", "5..13", "--format", "json"),
    ),
    ("census_degenerate_b2-12_p2-13.txt", ("census", "--family", "degenerate", "--b", "2..12", "--p", "2..13")),
    (
        "census_degenerate_b2-12_p2-13.json",
        ("census", "--family", "degenerate", "--b", "2..12", "--p", "2..13", "--format", "json"),
    ),
] + [
    (
        f"invariants_{family}_b{b}_p{p}.{ext}",
        ("invariants", "--family", family, "--b", str(b), "--p", str(p), "--format", fmt),
    )
    for family, b, p in (("degenerate", 2, 3), ("nondegenerate", 2, 5))
    for fmt, ext in (("text", "txt"), ("json", "json"), ("csv", "csv"))
] + [
    # k = 1 symplectic; k = 1 with det 0 and kernel_dim 4; k None, not Heisenberg type
    (
        f"classify_form_b2_p{p}_l{lam}{lam}_m{lam}{lam}.{ext}",
        (
            "classify-form", "--b", "2", "--p", str(p),
            "--lambda", f"{lam},{lam}", "--mu", f"{lam},{lam}", "--format", fmt,
        ),
    )
    for p, lam in ((5, 3), (3, 2), (5, 1))
    for fmt, ext in (("text", "txt"), ("json", "json"))
]


@pytest.mark.parametrize("name,argv", CLI_PINS, ids=[name for name, _ in CLI_PINS])
def test_cli_output_is_pinned(capsys, name, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


COMMANDS = ("presentation", "verify", "classify-form", "search-forms", "invariants", "census", "kappa", "selftest")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text()


SEARCH_PINS = [
    ("search_forms_b3_p5.txt", ("search-forms", "--b", "3", "--p", "5")),
    ("search_forms_b3_p5.json", ("search-forms", "--b", "3", "--p", "5", "--format", "json")),
]


@pytest.mark.parametrize("name,argv", SEARCH_PINS, ids=[name for name, _ in SEARCH_PINS])
def test_search_forms_output_is_pinned(capsys, tmp_path, name, argv):
    golden = (GOLDEN / name).read_text()
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == golden
    # a file gets the same bytes without the newline stdout ends with
    target = tmp_path / name
    assert main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() + "\n" == golden


ORACLE_PINS = [
    # the two strands have the same images, so one enumeration serves m1 and m2
    ("verify_degenerate_b3_p2_oracle", ("verify", "--family", "degenerate", "--b", "3", "--p", "2"), 1),
    (
        "verify_nondegenerate_b2_p5_oracle",
        ("verify", "--family", "nondegenerate", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3"),
        2,
    ),
]


@pytest.mark.parametrize("stem,argv,runs", ORACLE_PINS, ids=[stem for stem, _, _ in ORACLE_PINS])
def test_oracle_runs_once_per_distinct_generating_set(capsys, monkeypatch, stem, argv, runs):
    calls = []
    enumerate_subgroup = verify.bfs_subgroup_order

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_subgroup(*args, **kwargs)

    monkeypatch.setattr(verify, "bfs_subgroup_order", counted)
    for suffix, fmt in ((".txt", "text"), (".json", "json")):
        calls.clear()
        assert main([*argv, "--bfs-oracle", "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / (stem + suffix)).read_text()
        assert len(calls) == runs


def _nondegenerate_b2_p5():
    return standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3))


def _a12_killed(base):
    images = base.images[:-1] + (base.target.identity,)
    return GeneratorAssignment("a12-killed", base.target, images)


@pytest.mark.parametrize(
    "name,make",
    [
        ("report_tau2_variant_b2_p5.json", tau2_to_r2_variant),
        ("report_a12_killed_b2_p5.json", _a12_killed),
    ],
)
def test_failing_report_is_pinned(name, make):
    report = verify_assignment(make(_nondegenerate_b2_p5()))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert text == (GOLDEN / name).read_text()
    indices = [i for i, _, _ in report.failures]
    assert indices == sorted(indices)


def test_failing_report_reads_sources_without_building_words(monkeypatch):
    # the sources of the failing relators come from the evaluator's own
    # pattern and substitution walk, so no relator word is built
    def no_words(self):
        raise AssertionError("a relator word was built")

    monkeypatch.setattr(braid._Templates, "__iter__", no_words)
    report = verify_assignment(tau2_to_r2_variant(_nondegenerate_b2_p5()))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert text == (GOLDEN / "report_tau2_variant_b2_p5.json").read_text()


NONDEGENERATE_B2_P5 = ("verify", "--family", "nondegenerate", "--b", "2", "--p", "5", "--lambda", "3,3", "--mu", "3,3")


@pytest.mark.parametrize(
    "name,make",
    [
        ("verify_tau2_variant_b2_p5.txt", tau2_to_r2_variant),
        ("verify_a12_killed_b2_p5.txt", _a12_killed),
    ],
)
def test_failing_verify_text_is_pinned(capsys, monkeypatch, name, make):
    # the CLI verifies whatever assignment the family builder returns
    assignment = make(_nondegenerate_b2_p5())
    monkeypatch.setattr(verify, "standard_assignment", lambda *args: assignment)
    assert main(list(NONDEGENERATE_B2_P5)) == 1
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
def test_oracle_contradiction_is_pinned(capsys, monkeypatch, fmt, ext):
    # an oracle order that disagrees with the fast index fails the run
    monkeypatch.setattr(verify, "bfs_subgroup_order", lambda *args, **kwargs: 1)
    argv = ["verify", "--family", "degenerate", "--b", "3", "--p", "2", "--bfs-oracle", "--format", fmt]
    assert main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / f"verify_degenerate_b3_p2_oracle_contradicts.{ext}").read_text()
