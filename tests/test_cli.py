"""CLI contract tests: exit codes, formats, round-trips.

Everything runs in-process through ``main(argv)``; stdout is captured by
pytest's capsys.  Exit codes: 0 success, 1 verified-false claim, 2 usage or
precondition error.
"""

import json
import time

from heiskod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_bfs_oracle_flag(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "nondegenerate", "--b", "2", "--p", "5",
        "--lambda", "3,3", "--mu", "3,3", "--bfs-oracle", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bfs_oracle"] == [
        {"index": "m1", "subgroup_order": 3125, "agrees": True},
        {"index": "m2", "subgroup_order": 3125, "agrees": True},
    ]


def test_verify_enumeration_bound_override(capsys):
    code, _, err = run(
        capsys,
        "verify", "--family", "degenerate", "--b", "2", "--p", "3",
        "--bfs-oracle", "--enumeration-bound", "100",
    )
    assert code == 2
    assert "bound" in err


def test_verify_inadmissible_prime_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "degenerate", "--b", "2", "--p", "2")
    assert code == 2
    assert "divide" in err


def test_verify_missing_lambda_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--family", "nondegenerate", "--b", "2", "--p", "5")
    assert code == 2


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
    path.write_text(json.dumps(AlternatingForm.degenerate_family(2, 3).omega.to_lists()))
    code, out, _ = run(
        capsys, "classify-form", "--p", "3", "--matrix-json", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["heisenberg_type"] is True and payload["symplectic"] is False
    assert payload["kernel_dim"] == 4


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


def test_classify_form_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify-form", "--p", "3", "--matrix-json", "/no/such/file.json")
    assert code == 2 and "file" in err.lower()


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


# -- selftest and usage ------------------------------------------------------------


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "11/11 criteria passed" in out


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_malformed_range_exits_2(capsys):
    code, _, err = run(capsys, "census", "--family", "degenerate", "--b", "xx", "--p", "3")
    assert code == 2
    assert "range" in err


def test_no_subcommand_exits_2(capsys):
    assert run(capsys)[0] == 2
