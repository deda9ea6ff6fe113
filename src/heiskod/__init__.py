"""heiskod: finite Heisenberg quotients of surface braid groups and the exact
invariants of the double Kodaira fibrations they produce.

The pipeline, bottom up: exact linear algebra over F_p (:mod:`fplinalg`),
cup products and the Heisenberg-type classifier on the product of two curves
(:mod:`cohomology`), finite Heisenberg groups of alternating forms
(:mod:`heisenberg`), the explicit two-string braid presentation
(:mod:`braid`), relator-by-relator verification of the standard liftings
(:mod:`verify`), and exact integer/rational fibration invariants with a
claim-checking census (:mod:`invariants`).  :mod:`cli` ties it together and
:mod:`acceptance` holds the self-test criteria.

Importing the package loads none of these modules: import names from the
submodule that defines them (``from heiskod.primes import kappa``).
Everything is pure Python on the standard library, the exhaustive
subgroup oracle (Python-int bitmaps in :mod:`verify`) included, and only
``selftest`` imports :mod:`acceptance`.
"""

__version__ = "0.1.0"
# the arithmetic every layer runs on, recorded in benchmark run records
BACKEND = "python"
