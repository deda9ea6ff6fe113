"""The pure braid group on two strings of a genus-b surface, as explicit data.

Generators: rho_{1j}, tau_{1j}, rho_{2j}, tau_{2j} for j = 1..b, plus the
winding generator A12.  The presentation has 8b^2 + 4b + 2 defining relations:
two surface relations and, for each of the four actors rho_1j, rho_1j^-1,
tau_1j, tau_1j^-1 and each j, one relation per target rho_2k, tau_2k (k=1..b)
and one for A12.  A relation L = R is stored as the single relator word
L . R^-1, freely reduced; the commutator convention is [x, y] = x y x^-1 y^-1.

The action relations are one table of printed right-hand sides w in
[x, y] = w, one entry per actor, target and j-versus-k case, written over
"handle j", "handle k" and A12.  Each entry's relator x y x^-1 y^-1 w^-1 is
freely reduced once as a pattern over six symbols; ``build_presentation``
keeps only these patterns and the two surface words.  Relator i is a pattern
read through a substitution s, a tuple indexed by signed symbol: s[y] is the
letter of symbol y and s[-y], a negative index, its inverse; a plain word is
its own pattern under ``identity_substitution``.  Words and sources are built
only when the relators are read, so ``verify`` streams them in O(b) memory.
The inverse-actor families are consequences of the direct ones (the test
``test_inverse_actor_rows_follow_from_the_direct_ones`` in
``tests/test_braid.py`` derives each row of one from the other by free
reduction), but they are emitted anyway: redundancy strengthens homomorphism
verification, and keeping the three j-versus-k cases separate means a
failure pinpoints one precise relation.

The presentation is invariant under the order-2 substitution

    A12 <-> A12^-1,  tau_1j <-> tau_{2, b+1-j}^-1,  rho_1j <-> rho_{2, b+1-j},

the automorphism induced by reflecting the surface so that handle j swaps
with handle b+1-j; ``involution_substitute`` applies it letter by letter.

Signed int letters are the generators' only names.  At genus b the letters
1..4b+1 are rho_11, tau_11, ..., rho_1b, tau_1b, rho_21, tau_21, ...,
rho_2b, tau_2b, A12, the order of the homology basis, and -x is the inverse
of x.  Words are tuples of letters, so reduction compares ints, the
substitution is a signed permutation of letters, a generator assignment is a
tuple of images indexed by letter, and ``word_display`` prints letters.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionError
from .primes import check_genus

# A word is a tuple of signed letters.  Letters carry no genus, so a word is
# read against the b of its presentation.
Word = tuple[int, ...]


def check_letters(w: Iterable[int], b: int) -> None:
    """Refuse a genus that check_genus refuses and a letter of w that is not
    an int in +-1..+-(4b + 1).  Only an exact int is a letter: a bool would be
    read as 0 or 1, and a float or a numpy integer as the generator it equals."""
    check_genus(b)
    n = 4 * b + 1
    for x in w:
        if type(x) is not int or not 0 < abs(x) <= n:
            raise PreconditionError(f"letter {x!r} is not a generator index in +-1..+-{n}")


def rho(b: int, strand: int, j: int, exp: int = 1) -> Word:
    return (exp * (2 * b * (strand - 1) + 2 * j - 1),)


def tau(b: int, strand: int, j: int, exp: int = 1) -> Word:
    return (exp * (2 * b * (strand - 1) + 2 * j),)


def winding(b: int, exp: int = 1) -> Word:
    return (exp * (4 * b + 1),)


def concat(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def inverse_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return concat(x, y, inverse_word(x), inverse_word(y))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def word_display(w: Word, b: int) -> list[str]:
    """The printed names of the letters of w at genus b: r<strand>_<j>,
    t<strand>_<j> or A12, with ^-1 for an inverse; w is checked once, not
    letter by letter."""
    check_letters(w, b)
    names = []
    for x in w:
        i = abs(x) - 1
        name = "A12" if i == 4 * b else f"{'rt'[i % 2]}{i // (2 * b) + 1}_{i % (2 * b) // 2 + 1}"
        names.append(name if x > 0 else name + "^-1")
    return names


class Relator(NamedTuple):
    """A freely reduced word equal to the identity, with its printed source."""

    word: Word
    source: str


class Presentation(NamedTuple):
    """The relators of ``build_presentation(b)``, a sized iterable of
    :class:`Relator` read as templates."""

    b: int
    relators: _Templates


def identity_substitution(b: int) -> Word:
    """The substitution under which a word at genus b is its own pattern."""
    n = 4 * b + 1
    return (0, *range(1, n + 1), *range(-n, 0))


def _surface_words(b: int) -> tuple[Word, Word]:
    # relation 1: [rho_1b^-1, tau_1b^-1] tau_1b^-1 ... [rho_11^-1, tau_11^-1]
    #             tau_11^-1 (tau_11 tau_12 ... tau_1b) = A12
    rel1 = concat(
        *(commutator(rho(b, 1, j, -1), tau(b, 1, j, -1)) + tau(b, 1, j, -1) for j in range(b, 0, -1)),
        *(tau(b, 1, j) for j in range(1, b + 1)),
        winding(b, -1),
    )
    # relation 2: [rho_21^-1, tau_21] tau_21 ... [rho_2b^-1, tau_2b] tau_2b
    #             (tau_2b^-1 ... tau_21^-1) = A12^-1
    rel2 = concat(
        *(commutator(rho(b, 2, j, -1), tau(b, 2, j)) + tau(b, 2, j) for j in range(1, b + 1)),
        *(tau(b, 2, j, -1) for j in range(b, 0, -1)),
        winding(b),
    )
    return free_reduce(rel1), free_reduce(rel2)


# The action relations [x, y] = w as printed (Bellingeri, "On presentations of
# surface braid groups", J. Algebra 274, 2004), keyed (actor, target, case).
# The actor x is rho_1j, rho_1j^-1, tau_1j or tau_1j^-1; the target y is
# rho_2k or tau_2k, in the cases j<k, j=k and j>k, or A12.  Each w is written
# over the symbols rj, rk, tj, tk, a (rho_2j, rho_2k, tau_2j, tau_2k, A12),
# upper case for an inverse; the j=k entries use handle j only.
_ACTION_RIGHT_SIDES: dict[tuple[str, str, str], str] = {
    ("rho_1j", "rho_2k", "j<k"): "",
    ("rho_1j", "rho_2k", "j=k"): "",
    ("rho_1j", "rho_2k", "j>k"): "A rk Rj a rj Rk",
    ("rho_1j", "tau_2k", "j<k"): "",
    ("rho_1j", "tau_2k", "j=k"): "A",
    ("rho_1j", "tau_2k", "j>k"): "A tk a Tk",
    ("rho_1j", "A12", ""): "Rj a rj A",
    ("rho_1j^-1", "rho_2k", "j<k"): "",
    ("rho_1j^-1", "rho_2k", "j=k"): "",
    ("rho_1j^-1", "rho_2k", "j>k"): "rj a Rj rk A Rk",
    ("rho_1j^-1", "tau_2k", "j<k"): "",
    ("rho_1j^-1", "tau_2k", "j=k"): "rj a Rj",
    ("rho_1j^-1", "tau_2k", "j>k"): "rj a Rj tk rj A Rj Tk",
    ("rho_1j^-1", "A12", ""): "rj a Rj A",
    ("tau_1j", "rho_2k", "j<k"): "",
    ("tau_1j", "rho_2k", "j=k"): "Tj a tj",
    ("tau_1j", "rho_2k", "j>k"): "Tj a tj A",
    ("tau_1j", "tau_2k", "j<k"): "",
    ("tau_1j", "tau_2k", "j=k"): "Tj a tj A",
    ("tau_1j", "tau_2k", "j>k"): "Tj a tj A tk a Tj A tj Tk",
    ("tau_1j", "A12", ""): "Tj a tj A",
    ("tau_1j^-1", "rho_2k", "j<k"): "",
    ("tau_1j^-1", "rho_2k", "j=k"): "A",
    ("tau_1j^-1", "rho_2k", "j>k"): "A tj a Tj",
    ("tau_1j^-1", "tau_2k", "j<k"): "",
    ("tau_1j^-1", "tau_2k", "j=k"): "A tj a Tj",
    ("tau_1j^-1", "tau_2k", "j>k"): "A tj a Tj tk tj A Tj a Tk",
    ("tau_1j^-1", "A12", ""): "A tj a Tj",
}

# A pattern letter +-(i + 1) stands for _SYMBOLS[i] or its inverse.
_SYMBOLS = ("x", "rj", "rk", "tj", "tk", "a")

# Actors in relator order: name, generator, exponent.
_ACTORS = (("rho_1j", rho, 1), ("rho_1j^-1", rho, -1), ("tau_1j", tau, 1), ("tau_1j^-1", tau, -1))


def _symbols(text: str) -> Word:
    return tuple((-1 if s[0].isupper() else 1) * (_SYMBOLS.index(s.lower()) + 1) for s in text.split())


def _action_pattern(target: str, case: str, right: str) -> Word:
    """The relator x y x^-1 y^-1 w^-1 over the symbols, freely reduced.  Its
    symbols name distinct generators at every (j, k), a j=k pattern handle j
    only, so this one reduction reduces every relator it yields."""
    y = {"rho_2k": "rk", "tau_2k": "tk", "A12": "a"}[target]
    if case == "j=k":
        y = y.replace("k", "j")
    return free_reduce(concat(commutator(_symbols("x"), _symbols(y)), inverse_word(_symbols(right))))


# The reduced relator of every (actor, target, case), over the symbols.
_PATTERNS = {key: _action_pattern(*key[1:], right) for key, right in _ACTION_RIGHT_SIDES.items()}


class _Templates:
    """The relators of ``build_presentation(b)``: the two surface words, then
    per actor and j one action relator per rho_2k (k = 1..b), one per tau_2k,
    and the one on A12.  Only the surface words are stored; an action relator
    is its pattern under the substitution of its letters (x, rj, rk, tj, tk,
    a), and its word and source are built only when it is read."""

    __slots__ = ("b", "surface")

    def __init__(self, b: int):
        self.b, self.surface = b, _surface_words(b)

    def __len__(self) -> int:
        return 8 * self.b * self.b + 4 * self.b + 2

    def __iter__(self) -> Iterator[Relator]:
        for pattern, sub, source in self.walk(sources=True):
            yield Relator(tuple(map(sub.__getitem__, pattern)), source)

    def walk(self, sources: bool = False) -> Iterator[tuple[Word, Word, str | None]]:
        """(pattern, substitution, source or None) of every relator, in order."""
        b, a = self.b, 4 * self.b + 1
        yield from zip(self.surface, (identity_substitution(b),) * 2, ("surface relation 1", "surface relation 2"))
        rho_2 = range(2 * b + 1, 4 * b, 2)  # rho_2k for k = 1..b; tau_2k is the letter after it
        for actor, generator, exp in _ACTORS:
            for j in range(1, b + 1):
                (x,), (rj,) = generator(b, 1, j, exp), rho(b, 2, j)
                # the substitutions of (x, rj, rk, tj, tk, a) for k = 1..b
                subs = [(0, x, rj, rk, rj + 1, rk + 1, a, -a, -rk - 1, -rj - 1, -rk, -rj, -x) for rk in rho_2]
                cases = ("j>k",) * (j - 1) + ("j=k",) + ("j<k",) * (b - j)  # k = 1..b
                for target in ("rho_2k", "tau_2k"):
                    patterns = [_PATTERNS[actor, target, case] for case in cases]
                    named = (f"action {actor} on {target}, j={j}, k={k} ({case})" for k, case in enumerate(cases, 1))
                    yield from zip(patterns, subs, named if sources else itertools.repeat(None))
                yield _PATTERNS[actor, "A12", ""], subs[j - 1], f"action {actor} on A12, j={j}" if sources else None


def build_presentation(b: int) -> Presentation:
    """The full presentation at genus b: 8b^2 + 4b + 2 relators, as templates."""
    check_genus(b)
    return Presentation(b, _Templates(b))


def involution_substitute(w: Word, b: int) -> Word:
    """Apply the order-2 handle-reflection substitution letter by letter, a
    signed permutation of the letters: for x > 0, rho_sj (x odd) goes to
    rho_{3-s, b+1-j} = 4b - x, tau_sj (x even) to tau_{3-s, b+1-j}^-1 =
    x - 4b - 2, A12 to A12^-1, and -x to the inverse of the image of x."""
    check_letters(w, b)
    out = []
    for x in w:
        y = abs(x)
        image = -y if y == 4 * b + 1 else 4 * b - y if y % 2 else y - 4 * b - 2
        out.append(image if x > 0 else -image)
    return tuple(out)


def kernel_generator_sets(b: int) -> tuple[Word, Word]:
    """Generators of the kernels of the two projections to the one-point braid
    group: (rho_2*, tau_2*, A12) for the first projection, (rho_1*, tau_1*,
    A12) for the second."""
    check_genus(b)
    # rho_sj is the odd letter 2b(s - 1) + 2j - 1 and tau_sj the even one after it
    a12 = (4 * b + 1,)
    first = (*range(2 * b + 1, 4 * b, 2), *range(2 * b + 2, 4 * b + 1, 2), *a12)
    second = (*range(1, 2 * b, 2), *range(2, 2 * b + 1, 2), *a12)
    return first, second

