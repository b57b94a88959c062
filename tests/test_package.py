"""The package namespace: exactly the public names of its modules, and their input checks."""

from fractions import Fraction

import pytest

import qbern
from qbern import bernoulli, exactnum, padic, qcore, series, suites, symmetry

MODULES = (exactnum, qcore, bernoulli, series, symmetry, padic, suites)


def test_exports_exactly_the_modules_public_names():
    assert len(qbern.__all__) == len(set(qbern.__all__))
    assert set(qbern.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qbern, name) is getattr(module, name), (module.__name__, name)


_VIEW = next(qbern.WeightVector((2, 3)).views())
_P5 = qbern.PadicParams(q=Fraction(6), p=5)

# (call, message) for each public function's check on a degree, level or length below its floor
_INPUT_CHECKS = {
    "carlitz_poly": (lambda: qbern.carlitz_poly(-1, 0, qbern.QContext(2)), "n must be >= 0"),
    "classical_numbers": (lambda: qbern.classical_numbers(-1), "nmax must be >= 0"),
    "classical_poly": (lambda: qbern.classical_poly(-1, 0), "m must be >= 0"),
    "carlitz_numbers_ratfunc": (lambda: qbern.carlitz_numbers_ratfunc(-1), "nmax must be >= 0"),
    "stirling1": (lambda: qbern.stirling1(-1, 0), "stirling1 needs n >= 0"),
    "riemann_sum_carlitz": (lambda: qbern.riemann_sum_carlitz(-1, 0, _P5, 1), "n must be >= 0"),
    "riemann_sum_mu1": (lambda: qbern.riemann_sum_mu1(-1, 0, 0, 5, 1), "n must be >= 0"),
    "riemann_sum_mu1 N": (lambda: qbern.riemann_sum_mu1(1, 0, 0, 5, 0), "level N must be >= 1"),
    "binom_series": (lambda: qbern.binom_series(1, 2, -1), "order must be >= 0"),
    "kim_degenerate": (lambda: qbern.kim_degenerate(-1, 0, 1), "n must be >= 0"),
    "oracle_report": (lambda: qbern.oracle_report("carlitz", -1), "n must be >= 0"),
    "thm2_expr": (lambda: qbern.thm2_expr(_VIEW, -1, 0, 0, 2), "m must be >= 0"),
    "thm3_expr": (lambda: qbern.thm3_expr(_VIEW, -1, 0, 0, 2), "m must be >= 0"),
    "thm1_coeffs": (lambda: qbern.thm1_coeffs(_VIEW, -1, 0, 0, 2), "order must be >= 0"),
    "TruncSeries": (lambda: qbern.TruncSeries(()), "needs at least the constant term"),
    "TruncSeries.t": (lambda: qbern.TruncSeries.t(0), "order must be >= 1"),
}


@pytest.mark.parametrize("call, message", list(_INPUT_CHECKS.values()), ids=list(_INPUT_CHECKS))
def test_input_below_its_floor_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
