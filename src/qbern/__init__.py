"""Exact q-deformed Bernoulli machinery with built-in identity verification.

Everything is computed over the rationals (stdlib Fraction); there is no
floating point anywhere.  The package exposes the value computations
(bernoulli, series), the permutation-invariance expressions and their
verifier (symmetry), two independent oracles (padic Riemann sums and the
q -> 1 rational-function limit), and seeded suites behind the `qbern` CLI.
Its public names are exactly its modules' ``__all__`` lists.
"""

from .exactnum import *
from .qcore import *
from .bernoulli import *
from .series import *
from .symmetry import *
from .padic import *
from .suites import *

__version__ = "0.1.0"

__all__ = (exactnum.__all__ + qcore.__all__ + bernoulli.__all__ + series.__all__
           + symmetry.__all__ + padic.__all__ + suites.__all__ + ["__version__"])
