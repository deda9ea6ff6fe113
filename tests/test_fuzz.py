"""Fuzz gate for the command line: whatever argument vector ``cli.main`` is
given, it returns 0, or 2 with one ``error:`` line or argparse's usage on
stderr.  No exception escapes, and no vector gives exit 1, which means a
refuted claim: none of the standard liftings, census claims or classifier
verdicts drawn here can be refuted.

Argument vectors are drawn per subcommand from a grammar:

* integers: the edges -1, 0, 2, 3, 13, 10^6, 2^61 - 1, 10^11 and 2^63 (one
  past ``sys.maxsize`` on 64-bit builds), small genera and primes, and
  non-numeric text;
* ranges ``lo..hi`` and lists over the same edges, and malformed ones;
* lambda/mu lists: the valid-looking (1, ..., 1, 2 - b) and
  (2, ..., 2, 3 - 2b) at the drawn genus, short lists of edges, garbage;
* ``--matrix-json`` files: a valid form, ragged, bool, float and string
  entries, a 5000-digit entry, 100,000 nested brackets, bytes that are not
  UTF-8, a JSON object and truncated JSON;
* formats, valid and not, and ``--output`` to a file or into a missing
  directory.

Hypothesis runs derandomized, 60 examples per subcommand, so tier-1 sees
the same vectors every run; the 420 runs take about 4 s on a 2-core x86
box.

Budget.  Some admitted work is slow by design, as the README's bounds table
times: ``verify`` admits up to 10^7 image entries, ``presentation`` up to
10^7 relators, ``census`` up to 10^6 cells, ``search-forms`` up to 2 * 10^8
candidates and ``kappa`` up to 10^6 values.  A vector is discarded
(``assume``) when the program would admit it and its work exceeds this
budget:

* ``search-forms``: more than 10^4 candidates (p - 1)^(2b - 2);
* ``census``: more than 10^3 cells (b, p) with every b a genus;
* ``kappa``: more than 10^3 values;
* ``verify --bfs-oracle``: none; the flag takes no value, so the values
  still drawn after it (the edges up to 10^6, non-numeric text) are stray
  arguments that argparse refuses, and only the bare flag runs the oracle,
  whose bound is ``heiskod.verify.ENUMERATION_BOUND``.

Genera come from the edges and 4..6, so ``presentation``, ``verify`` and
``classify-form`` stay within 1406 relators without a filter.  Every vector
the program refuses stays in, the edges 10^6, 10^11, 2^61 - 1 and 2^63
included.  Each subcommand's examples run in a forked process under an
address-space cap 1 GiB above its size at the fork, each example under a
20 s alarm, so a runaway allocation or a hang fails the test instead of the
machine.

The library gate calls eighteen entry points the same way, 30
derandomized examples each: ``standard_assignment``, ``lift``,
``classify_form``, ``general_invariants``, ``family_invariants``, ``census``,
``kappas``, ``distinct_prime_factors``, ``search_family_params``, whose hits
are consumed, ``build_presentation``, whose relators are read,
``word_display``, ``involution_substitute``, ``evaluate_word`` (on a standard
lifting at b = 2), ``diagonal_class``, ``xi_matrix``, ``eta_matrix``,
``count_heisenberg_candidates`` and ``AlternatingForm.standard_symplectic``.
Scalars are the edges above, 10^5000 and its negative, bools, floats, a
fraction over 10^5000 and strings; a family is one of the names, "other" or
any scalar; words are short lists of letters and scalars; ranges go up to
range(2, 10**12); forms are alternating, of dimension 0 to 12, or, for
``classify_form``, rarely the zero form of dimension 40000.  A call
returns, or raises a ``HeiskodError``; nothing else may escape.  The same
work budget applies: ``census`` over more than 10^3 admitted cells and
``kappas`` over more than 10^3 admitted values are discarded, as are
searches of more than 10^4 candidates.

Out of scope, as Python's own errors: a non-iterable where a sequence is
documented (a range, lambdas, mus) raises ``TypeError``, and an argument that
is not an ``AlternatingForm`` where a form is documented raises
``TypeError`` or ``AttributeError``.
"""

import contextlib
import io
import json
import os
import resource
import signal
import traceback
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import heiskod.cohomology
import heiskod.invariants
import heiskod.primes
from heiskod.braid import build_presentation, involution_substitute, word_display
from heiskod.cli import main
from heiskod.errors import HeiskodError
from heiskod.fplinalg import AlternatingForm, FpMatrix
from heiskod.heisenberg import HeisElement, HeisGroup, verify_extra_special
from heiskod.verify import GeneratorAssignment, bfs_subgroup_order, evaluate_word, lift, standard_assignment

EDGES = [-1, 0, 2, 3, 13, 10**6, 2**61 - 1, 10**11, 2**63]
GENERA = EDGES + [4, 5, 6]
MODULI = EDGES + [5, 7, 11]
PRIMES = [2, 3, 5, 7, 11, 13, 2**61 - 1]  # the primes among the drawn integers
NON_NUMERIC = ["x", "", "1.5", "2..3", "0x10"]
FAMILIES = ["degenerate", "nondegenerate"]
ALARM_S = 20


def rarely(draw):
    """True one time in eight, so that malformed text and unknown choices
    stay in the grammar without taking most of the examples."""
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def number(draw, values):
    """argv text for one of ``values`` or, rarely, non-numeric text."""
    return draw(st.sampled_from(NON_NUMERIC)) if rarely(draw) else str(draw(st.sampled_from(values)))


def value(text):
    """The int that argv text names, or None."""
    return int(text) if text.lstrip("-").isdigit() else None


@st.composite
def modulus(draw, family, b):
    """Half the time a prime that ``family`` admits at genus b, when there is
    one among PRIMES; otherwise any drawn modulus."""
    b = value(b)
    if b is not None and draw(st.booleans()):
        fits = [q for q in PRIMES if (q >= 5 if family == "nondegenerate" else (b + 1) % q == 0)]
        if fits:
            return str(draw(st.sampled_from(fits)))
    return draw(number(MODULI))


@st.composite
def ranges(draw):
    """Range text, the number of values it names and the least of them, or
    (text, None, None) when it is malformed."""
    if rarely(draw):
        return draw(st.sampled_from(["", "..", "2..", "..5", "a..b", "2..3..4", ","])), None, None
    ends = st.sampled_from(EDGES + [5, 7])
    kind = draw(st.sampled_from(["one", "span", "list"]))
    if kind == "one":
        n = draw(ends)
        return str(n), 1, n
    if kind == "span":
        lo, hi = draw(ends), draw(ends)
        return f"{lo}..{hi}", max(0, hi - lo + 1), lo
    values = draw(st.lists(ends, min_size=1, max_size=4))
    return ",".join(map(str, values)), len(values), min(values)


@st.composite
def parameters(draw, b):
    """``--lambda`` and ``--mu`` options: both absent, the lists
    (1, ..., 1, 2 - b) and (2, ..., 2, 3 - 2b), which the non-degenerate
    family admits at most primes, or each one absent, a short list of edges
    or garbage."""
    b = value(b)
    kind = draw(st.sampled_from(["none", "family", "family", "any"]))
    if kind == "family" and b is not None and 2 <= b <= 64:
        lam, mu = [1] * (b - 1) + [2 - b], [2] * (b - 1) + [3 - 2 * b]
        return ["--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu))]
    argv = []
    for flag in ("--lambda", "--mu") if kind != "none" else ():
        if draw(st.booleans()):
            items = st.lists(st.sampled_from(EDGES + [1, 4, -58]), max_size=4).map(lambda xs: ",".join(map(str, xs)))
            argv += [flag, draw(st.sampled_from(["1,x", "1,,2", "1.5,2"]) if rarely(draw) else items)]
    return argv


@st.composite
def common(draw, formats, workdir):
    """``--format``, mostly one the subcommand takes, and, rarely,
    ``--output`` to a file or into a missing directory."""
    argv = []
    if draw(st.booleans()):
        argv += ["--format", "yaml" if rarely(draw) else draw(st.sampled_from(formats))]
    if rarely(draw):
        argv += ["--output", os.path.join(workdir, draw(st.sampled_from(["out.txt", "missing/out.txt"])))]
    return argv


@st.composite
def presentation(draw, files, workdir):
    return ["presentation", "--b", draw(number(GENERA)), *draw(common(["text", "json"], workdir))]


@st.composite
def verify(draw, files, workdir):
    family, b = draw(st.sampled_from(FAMILIES)), draw(number(GENERA))
    argv = ["verify", "--family", family, "--b", b, "--p", draw(modulus(family, b)), *draw(parameters(b))]
    if draw(st.booleans()):
        # the flag takes no value: one drawn after it is a stray argument
        argv += ["--bfs-oracle", *draw(st.sampled_from([[], ["-1"], ["0"], ["2"], ["13"], [str(10**6)], ["x"]]))]
    return argv + draw(common(["text", "json"], workdir))


@st.composite
def classify_form(draw, files, workdir):
    p = draw(number(MODULI))
    if draw(st.booleans()):
        argv = ["classify-form", "--p", p, "--matrix-json", draw(st.sampled_from(files))]
        return argv + (["--b", "2"] if rarely(draw) else []) + draw(common(["text", "json"], workdir))
    b = draw(number(GENERA))
    argv = ["classify-form", "--p", draw(modulus("nondegenerate", b))]
    argv += [] if rarely(draw) else ["--b", b]
    return argv + draw(parameters(b)) + draw(common(["text", "json"], workdir))


@st.composite
def search_forms(draw, files, workdir):
    b = draw(number(GENERA))
    p = draw(modulus("nondegenerate", b))
    if value(b) is not None and value(p) in PRIMES and value(b) >= 2 and value(p) >= 3:
        # capped like the program's own guard, so that no huge power is formed here
        candidates = (value(p) - 1) ** min(2 * value(b) - 2, 64)
        assume(candidates <= 10**4 or candidates > 2 * 10**8)
    argv = ["search-forms", "--b", b, "--p", p]
    if draw(st.booleans()):
        argv += ["--count", draw(number(EDGES))]
    return argv + draw(common(["text", "json"], workdir))


@st.composite
def invariants(draw, files, workdir):
    family, b = draw(st.sampled_from(FAMILIES)), draw(number(GENERA))
    argv = ["invariants", "--family", family, "--b", b, "--p", draw(modulus(family, b))]
    return argv + draw(common(["text", "json", "csv"], workdir))


@st.composite
def census(draw, files, workdir):
    (b_text, nb, least_b), (p_text, np_, _) = draw(ranges()), draw(ranges())
    if None not in (nb, np_) and 0 < nb <= 10**6 and 0 < np_ <= 10**6 and least_b >= 2:
        assume(nb * np_ <= 10**3 or nb * np_ > 10**6)
    argv = ["census", "--family", draw(st.sampled_from(FAMILIES)), "--b", b_text, "--p", p_text]
    return argv + draw(common(["text", "json", "csv"], workdir))


@st.composite
def kappa(draw, files, workdir):
    b_text, n, _ = draw(ranges())
    if n is not None:
        assume(n <= 10**3 or n > 10**6)
    return ["kappa", "--b", b_text, *draw(common(["text", "json"], workdir))]


GRAMMAR = {
    "presentation": presentation,
    "verify": verify,
    "classify-form": classify_form,
    "search-forms": search_forms,
    "invariants": invariants,
    "census": census,
    "kappa": kappa,
}

FORM = [[0, 1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0, 0]] + [[0] * 8 for _ in range(6)]
MATRIX_FILES = {
    "form": json.dumps(FORM).encode(),
    "ragged": b"[[0, 1], [1]]",
    "bool": b"[[false, true], [true, false]]",
    "float": b"[[0, 1.5], [-1.5, 0]]",
    "string": b'[["0", "1"], ["1", "0"]]',
    "huge": f"[[0, 1{'7' * 5000}], [1, 0]]".encode(),
    "deep": b"[" * 100_000,
    "not-utf8": b"\xff\xfe[[0]]",
    "object": b'{"rows": [[0, 1], [-1, 0]]}',
    "truncated": b"[[0, 1], [",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the matrix files, where ``--output`` writes."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in MATRIX_FILES.items():
        (root / f"{name}.json").write_bytes(content)
    return root


class Overrun(BaseException):
    """A run past the alarm; a BaseException, so no handler in the program catches it."""


@contextlib.contextmanager
def alarmed():
    """An alarm after ALARM_S seconds, lifted on exit."""

    def overrun(signum, frame):
        raise Overrun(f"run exceeded {ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_fresh_process(examples):
    """Run ``examples()`` in a forked process under an address-space cap 1 GiB
    above that process's size at the fork, where /proc tells it; whatever
    escapes it fails the test with its traceback.  Each entry of a gate gets
    its own process and its cap is read once, so no cap depends on what an
    earlier entry or example left mapped: the test process runs none."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(read)
            with contextlib.suppress(OSError):
                with open("/proc/self/statm") as fh:
                    cap = int(fh.read().split()[0]) * resource.getpagesize() + (1 << 30)
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
                resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            try:
                examples()
                failure = ""
            except BaseException:
                failure = traceback.format_exc()
            with os.fdopen(write, "w") as fh:
                fh.write(f"failed: {failure}" if failure else "passed")
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        outcome = fh.read()
    status = os.waitpid(pid, 0)[1]
    assert outcome == "passed", outcome or f"the examples' process ended with wait status {status}"


GATE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_every_argument_vector_exits_0_or_2(command, workdir):
    files = [str(workdir / f"{name}.json") for name in sorted(MATRIX_FILES)]

    @settings(GATE, max_examples=60)
    @given(data=st.data())
    def examples(data):
        argv = data.draw(GRAMMAR[command](files, str(workdir)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with alarmed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 2), err.getvalue()
        if code == 2:
            one_error = len(lines) == 1 and lines[0].startswith("error: ")
            usage = bool(lines) and lines[0].startswith("usage: ") and ": error: " in lines[-1]
            assert one_error or usage, err.getvalue()

    in_fresh_process(examples)


# -- the library ---------------------------------------------------------------

HUGE = 10**5000  # past Python's limit on the digits it prints
SCALARS = EDGES + [HUGE, -HUGE, True, False, 1.5, 2.0, Fraction(HUGE, 3), "7", "x"]
SPAN_ENDS = [-1, 0, 2, 3, 5, 7, 13, 1000, 10**6, 10**12]


def value_of(values):
    """Half the time one of ``values``, otherwise any scalar."""
    return st.one_of(st.sampled_from(values), st.sampled_from(SCALARS))


def is_int(x):
    return type(x) is int


@st.composite
def residue_lists(draw, b):
    """``lambdas`` and ``mus``: each None, a short list of scalars, or, at a
    small genus, the lists (1, ..., 1, 2 - b) and (2, ..., 2, 3 - 2b)."""
    if is_int(b) and 2 <= b <= 64 and draw(st.booleans()):
        return [1] * (b - 1) + [2 - b], [2] * (b - 1) + [3 - 2 * b]
    return tuple(draw(st.one_of(st.none(), st.lists(st.sampled_from(SCALARS), max_size=4))) for _ in range(2))


@st.composite
def forms(draw):
    """An alternating form of dimension 0 to 12 over one of PRIMES, its
    entries above the diagonal drawn from small values and the edges."""
    dim, p = draw(st.integers(0, 12)), draw(st.sampled_from(PRIMES))
    entries = st.sampled_from([0, 0, 1, -1, 2] + EDGES + [HUGE])
    rows = [{} for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            x = draw(entries)
            rows[i][j], rows[j][i] = x, -x
    return AlternatingForm.sparse(rows, dim, p)


@st.composite
def spans(draw):
    """A range up to range(2, 10**12), or a short list of scalars."""
    if draw(st.booleans()):
        return range(draw(st.sampled_from(SPAN_ENDS)), draw(st.sampled_from(SPAN_ENDS)))
    return draw(st.lists(st.sampled_from(SCALARS + [4, 5, 6, 11]), max_size=4))


def admitted_count(values, genus=False):
    """How many distinct values the library reads from ``values``, or None
    when it refuses them: more than 10^6 of them, one that is not an int, or
    one below 2 where they are genera."""
    if isinstance(values, range):
        refused = len(values) > 10**6 or genus and values and values[0] < 2
    else:
        refused = not all(map(is_int, values)) or genus and values and min(values) < 2
    return None if refused else len(values if isinstance(values, range) else set(values))


@st.composite
def lib_standard_assignment(draw):
    family, b = draw(value_of(FAMILIES + ["other"])), draw(value_of([2, 3, 4, 5, 6]))
    return (family, b, draw(value_of(PRIMES)), *draw(residue_lists(b)))


@st.composite
def lib_lift(draw):
    return draw(forms()), draw(value_of(FAMILIES + ["other"]))


@st.composite
def lib_classify_form(draw):
    if rarely(draw):
        return (AlternatingForm.sparse([{}] * 40000, 40000, 5),)  # genus 10^4: densified, 1.6 * 10^9 entries
    return (draw(forms()),)


@st.composite
def lib_general_invariants(draw):
    b = draw(value_of([2, 3, 4]))
    return b, draw(value_of([1, 5**9, 3**5, 2**7])), *(draw(value_of([1, 2, 3, 5, 25])) for _ in range(3))


@st.composite
def lib_family_invariants(draw):
    return draw(value_of(FAMILIES + ["other"])), draw(value_of([2, 3, 4, 5, 6, 964])), draw(value_of(PRIMES))


@st.composite
def lib_census(draw):
    b_range, p_range = draw(spans()), draw(spans())
    nb, np_ = admitted_count(b_range, genus=True), admitted_count(p_range)
    if None not in (nb, np_):
        assume(nb * np_ <= 10**3 or nb * np_ > 10**6)
    return draw(value_of(FAMILIES + ["other"])), b_range, p_range


@st.composite
def lib_kappas(draw):
    bs = draw(spans())
    if (n := admitted_count(bs)) is not None:
        assume(n <= 10**3)
    return (bs,)


@st.composite
def lib_distinct_prime_factors(draw):
    return (draw(value_of([1, 6, 7**5, 2**89 - 1, 999983**2 * 1000003, 7 * (10**4400 - 1) // 9])),)


@st.composite
def lib_search_family_params(draw):
    b, p = draw(value_of([2, 3, 4])), draw(value_of([2, 3, 5, 7, 11, 13]))
    if is_int(b) and is_int(p) and b >= 2 and p in PRIMES:
        candidates = (p - 1) ** min(2 * b - 2, 64)
        assume(candidates <= 10**4 or candidates > 2 * 10**8)
    return b, p, draw(value_of([None, 1, 5]))


def words():
    """A word: a short list of letters at genus 2 and scalars."""
    return st.lists(value_of([1, -1, 2, 8, -9]), max_size=4)


@st.composite
def lib_word(draw):
    return draw(words()), draw(value_of([2, 3, 4, 5, 6]))


ASSIGNMENTS = [
    standard_assignment("degenerate", 2, 3),
    standard_assignment("nondegenerate", 2, 5, (3, 3), (3, 3)),
]


@st.composite
def lib_evaluate_word(draw):
    return draw(st.sampled_from(ASSIGNMENTS)), draw(words())


@st.composite
def lib_genus(draw):
    return (draw(value_of([2, 3, 4, 5, 6])),)


@st.composite
def lib_size_prime(draw):
    """A genus or half-dimension and a modulus."""
    return draw(value_of([1, 2, 3, 4, 5, 6])), draw(value_of(PRIMES))


LIBRARY = {
    "standard_assignment": (standard_assignment, lib_standard_assignment),
    "lift": (lift, lib_lift),
    "classify_form": (heiskod.cohomology.classify_form, lib_classify_form),
    "general_invariants": (heiskod.invariants.general_invariants, lib_general_invariants),
    "family_invariants": (heiskod.invariants.family_invariants, lib_family_invariants),
    "census": (heiskod.invariants.census, lib_census),
    "kappas": (heiskod.primes.kappas, lib_kappas),
    "distinct_prime_factors": (heiskod.primes.distinct_prime_factors, lib_distinct_prime_factors),
    "search_family_params": (lambda *a: list(heiskod.cohomology.search_family_params(*a)), lib_search_family_params),
    "build_presentation": (lambda b: list(build_presentation(b).relators), lib_genus),
    "word_display": (word_display, lib_word),
    "involution_substitute": (involution_substitute, lib_word),
    "evaluate_word": (evaluate_word, lib_evaluate_word),
    "diagonal_class": (heiskod.cohomology.diagonal_class, lib_size_prime),
    "xi_matrix": (heiskod.cohomology.xi_matrix, lib_size_prime),
    "eta_matrix": (heiskod.cohomology.eta_matrix, lib_size_prime),
    "count_heisenberg_candidates": (heiskod.cohomology.count_heisenberg_candidates, lib_size_prime),
    "standard_symplectic": (AlternatingForm.standard_symplectic, lib_size_prime),
}


@pytest.mark.parametrize("entry", sorted(LIBRARY))
def test_every_library_call_returns_or_raises_a_heiskod_error(entry):
    function, arguments = LIBRARY[entry]

    @settings(GATE, max_examples=30)
    @given(data=st.data())
    def examples(data):
        args = data.draw(arguments(), label="args")
        with alarmed(), contextlib.suppress(HeiskodError):
            function(*args)

    in_fresh_process(examples)


# -- the gate's findings -------------------------------------------------------


def test_shown_prints_in_full_up_to_4300_digits():
    assert heiskod.primes.shown(10**4300 - 1) == "9" * 4300
    assert heiskod.primes.shown(1 - 10**4300) == "-" + "9" * 4300
    assert heiskod.primes.shown(10**4300) == "<14285-bit integer>"
    assert heiskod.primes.shown(-(10**4300)) == "-<14285-bit integer>"
    assert heiskod.primes.shown("a") == "'a'" and heiskod.primes.shown(Fraction(1, 2)) == "Fraction(1, 2)"
    assert heiskod.primes.shown(Fraction(HUGE, 3)) == "a Fraction"


BIG_GROUP = HeisGroup(AlternatingForm.standard_symplectic(120, 2**61 - 1))  # order (2^61 - 1)^241, 4426 digits
GROUP = HeisGroup(AlternatingForm.standard_symplectic(4, 5))
H = "<16610-bit integer>"  # how a refusal prints 10^5000


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: heiskod.primes.is_prime(43**3000),
            "<16279-bit integer> is too large for the exact primality test (limit 3317044064679887385961981)",
        ),
        (lambda: heiskod.primes.check_prime(-HUGE), f"modulus -{H} is not prime"),
        (lambda: heiskod.primes.check_genus(-HUGE), f"genus b must be >= 2, got -{H}"),
        (
            lambda: heiskod.primes.check_family("degenerate", HUGE, 3),
            f"the degenerate family needs p | b+1; 3 does not divide {H}",
        ),
        (lambda: heiskod.primes.check_family("degenerate", 2, HUGE), f"modulus {H} is not prime"),
        (
            lambda: heiskod.primes.check_family("nondegenerate", 2, -HUGE),
            f"the non-degenerate family needs a prime p >= 5, got -{H}",
        ),
        (lambda: heiskod.primes.distinct_prime_factors(-HUGE), f"need a positive integer, got -{H}"),
        (
            lambda: heiskod.primes.distinct_prime_factors(1000003**750),
            "<14949-bit integer> has no prime factor up to 1000000; factoring it is out of range",
        ),
        (
            lambda: heiskod.invariants.general_invariants(2, HUGE, 3, 1, 1),
            f"(|G|, n, m1, m2) = ({H}, 3, 1, 1) is not admissible at b = 2 (non-integral g1, g2, c1^2, c2, signature)",
        ),
        (
            lambda: heiskod.invariants.general_invariants(2, -HUGE, 2, 1, 1),
            f"need |G|, m1, m2 >= 1 and m1 m2 | |G|, got |G| = -{H}, m1 = 1, m2 = 1",
        ),
        (lambda: heiskod.invariants.general_invariants(2, 4, -HUGE, 1, 1), f"branching order must exceed 1, got -{H}"),
        (
            lambda: heiskod.invariants.family_invariants("nondegenerate", HUGE, 5),
            "|G| = 5^<16612-bit integer> has up to <16614-bit integer> bits, more than 131072",
        ),
        (
            lambda: standard_assignment("degenerate", HUGE, 3),
            "the lifting's images would hold <33223-bit integer> entries, more than 10000000",
        ),
        (
            lambda: build_presentation(HUGE),
            f"the presentation at genus {H} has <33223-bit integer> relators, more than 10000000",
        ),
        (
            lambda: heiskod.cohomology.search_family_params(HUGE, 5),
            f"search space (p-1)^(2b-2) at b = {H}, p = 5 is more than 200000000, too large to exhaust",
        ),
        (lambda: heiskod.cohomology.search_family_params(2, 5, -HUGE), f"count must be >= 1, got -{H}"),
        (
            lambda: bfs_subgroup_order(BIG_GROUP, []),
            "group order <14701-bit integer> exceeds the enumeration bound 10000000",
        ),
        (
            lambda: verify_extra_special(BIG_GROUP),
            "group order <14701-bit integer> exceeds the structure suite's bound 200000",
        ),
        (lambda: FpMatrix.sparse([], -HUGE, 5), f"column count -{H} is negative"),
        (lambda: FpMatrix.sparse([{HUGE: 1}], 2, 5), f"column {H} out of range 0..1"),
        (lambda: AlternatingForm.family(HUGE, 5, [], []), f"need {H} lambdas and {H} mus, got 0 and 0"),
        (lambda: heiskod.primes.integer(Fraction(HUGE, 3), "genus b"), "genus b must be an integer, got a Fraction"),
        (
            lambda: GeneratorAssignment("any", GROUP, (HeisElement((HUGE,) + (0,) * 7, 0),) * 9),
            "image a HeisElement is not an element of HeisGroup(dim=8, p=5, order=1953125) reduced mod 5",
        ),
        (lambda: word_display((HUGE,), 2), f"letter {H} is not a generator index in +-1..+-9"),
        (lambda: involution_substitute((-HUGE,), 2), f"letter -{H} is not a generator index in +-1..+-9"),
        (lambda: evaluate_word(ASSIGNMENTS[0], (HUGE,)), f"letter {H} is not a generator index in +-1..+-9"),
        (
            lambda: word_display((0,), HUGE),
            "letter 0 is not a generator index in +-1..+-<16612-bit integer>",
        ),
        (lambda: heiskod.primes.admits(HUGE, 2, 5), f"unknown family {H}"),
        (lambda: heiskod.primes.check_family(HUGE, 2, 5), f"unknown family {H}"),
        (lambda: heiskod.invariants.census(HUGE, [2], [5]), f"unknown family {H}"),
        (
            lambda: heiskod.invariants.census(HUGE, [], [5]),
            f"no admissible (b, p) for the {H} family in the given ranges",
        ),
    ],
    ids=[
        "is_prime",
        "check_prime",
        "check_genus",
        "degenerate-divides",
        "degenerate-prime",
        "nondegenerate-prime",
        "factor-nonpositive",
        "factor-out-of-range",
        "invariants-non-integral",
        "invariants-order",
        "invariants-n",
        "family-invariants",
        "standard-assignment",
        "presentation",
        "search-genus",
        "search-count",
        "oracle-bound",
        "extra-special",
        "column-count",
        "column",
        "family-form",
        "integer-gate",
        "assignment-image",
        "word-letter",
        "involution-letter",
        "evaluate-letter",
        "letter-range",
        "admits-family",
        "check_family-family",
        "census-family",
        "census-no-rows",
    ],
)
def test_a_refusal_prints_an_integer_past_4300_digits_by_its_size(call, message):
    # under Python's digit limit, formatting each of these integers raised
    # ValueError in place of the refusal
    with pytest.raises(HeiskodError) as refusal:
        call()
    assert str(refusal.value) == message


def test_a_group_past_4300_digits_is_named_by_the_size_of_its_order():
    # the repr formatted the order in full, so it raised ValueError past the
    # limit and a refusal naming the group read "a HeisGroup"
    name = "HeisGroup(dim=240, p=2305843009213693951, order=<14701-bit integer>)"
    assert repr(BIG_GROUP) == name
    assert repr(GROUP) == "HeisGroup(dim=8, p=5, order=1953125)"
    with pytest.raises(HeiskodError) as refusal:
        GeneratorAssignment("any", BIG_GROUP, (GROUP.identity,) * 9)
    assert str(refusal.value) == f"image {GROUP.identity!r} is not an element of {name} reduced mod 2305843009213693951"
