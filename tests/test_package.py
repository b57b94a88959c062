"""The package namespace: exactly the public names of its modules, their input checks,
the frozen value classes' semantics, and what a cold import loads."""

import collections.abc
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from unittest.mock import ANY

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
    "TruncSeries.constant": (lambda: qbern.TruncSeries.constant(1, -1),
                             "order must be >= 0, got -1"),
    "log1p_series": (lambda: qbern.log1p_series(1, -1), "order must be >= 0, got -1"),
    "log_factor_series": (lambda: qbern.log_factor_series(1, -1), "order must be >= 0, got -1"),
    "carlitz_series": (lambda: qbern.carlitz_series(0, 1, -1), "order must be >= 0, got -1"),
    "kim_series": (lambda: qbern.kim_series(0, 1, -1), "order must be >= 0, got -1"),
    "kernel_K i": (lambda: qbern.kernel_K((2,), -1, 0, 3), "i must be >= 0, got -1"),
    "kernel_K t": (lambda: qbern.kernel_K((2,), 0, -1, 3), "t must be >= 0, got -1"),
}


@pytest.mark.parametrize("call, message", list(_INPUT_CHECKS.values()), ids=list(_INPUT_CHECKS))
def test_input_below_its_floor_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_float_degree_is_refused_in_a_block_that_holds_its_int():
    # the block's memo key (x, 2.0, lam) equals (x, 2, lam), so only the check can refuse it
    with exactnum.shared_rows():
        assert qbern.thm2_expr(_VIEW, 2, 0, 0, 2) == qbern.thm2_expr(_VIEW, 2, 0, 0, 2)
        with pytest.raises(TypeError):
            qbern.thm2_expr(_VIEW, 2.0, 0, 0, 2)


# one sample per value class: (keyword arguments, a field to change and its new value, exact repr)
_VALUES = {
    "RatFuncQ": (qbern.RatFuncQ, dict(num=(1, Fraction(1, 2)), den=(3,)), ("den", (4,)),
                 "RatFuncQ(num=(Fraction(1, 1), Fraction(1, 2)), den=(Fraction(3, 1),))"),
    "QContext": (qbern.QContext, dict(q=Fraction(2, 3), c=2), ("c", 3),
                 "QContext(q=Fraction(2, 3), c=2)"),
    "TruncSeries": (qbern.TruncSeries, dict(coeffs=(1, Fraction(-1, 2))), ("coeffs", (1,)),
                    "TruncSeries(coeffs=(Fraction(1, 1), Fraction(-1, 2)))"),
    "PadicParams": (qbern.PadicParams, dict(q=6, lam=5, p=5), ("lam", 10),
                    "PadicParams(q=Fraction(6, 1), lam=Fraction(5, 1), p=5)"),
    "SuiteResult": (qbern.SuiteResult, dict(name="s", params={"m": 1}, items=({"equal": True},)),
                    ("name", "t"),
                    "SuiteResult(name='s', params={'m': 1}, items=({'equal': True},))"),
    "OracleReport": (qbern.OracleReport,
                     dict(family="mu1", p=5, q=Fraction(1), lam=Fraction(0), n=1, x0=Fraction(0),
                          target=Fraction(-1, 2), rows=((1, 1), (2, 2)), monotone=True),
                     ("monotone", False),
                     "OracleReport(family='mu1', p=5, q=Fraction(1, 1), lam=Fraction(0, 1), n=1, "
                     "x0=Fraction(0, 1), target=Fraction(-1, 2), rows=((1, 1), (2, 2)), "
                     "monotone=True)"),
    "WeightVector": (qbern.WeightVector, dict(w=(2, 3)), ("w", (3, 2)), "WeightVector(w=(2, 3))"),
    "SigmaView": (qbern.SigmaView, dict(base=qbern.WeightVector((2, 3, 5)), sigma=(2, 3, 1)),
                  ("sigma", (3, 2, 1)),
                  "SigmaView(base=WeightVector(w=(2, 3, 5)), sigma=(2, 3, 1), permuted=(3, 5, 2), "
                  "W=15, v=2, P=(5, 3))"),
    "SymmetryReport": (qbern.SymmetryReport,
                       dict(kind="thm2", weights=(2, 3), params={"m": "1"},
                            values=(((1, 2), Fraction(3)), ((2, 1), Fraction(3))), verdict="pass",
                            counterexample=None),
                       ("verdict", "fail"),
                       "SymmetryReport(kind='thm2', weights=(2, 3), params={'m': '1'}, "
                       "values=(((1, 2), Fraction(3, 1)), ((2, 1), Fraction(3, 1))), "
                       "verdict='pass', counterexample=None)"),
}


@pytest.mark.parametrize("cls, kwargs, change, text", list(_VALUES.values()), ids=list(_VALUES))
def test_value_classes_are_frozen_and_compare_by_their_fields(cls, kwargs, change, text):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    name, other = change
    c = cls(**{**kwargs, name: other})
    assert a != c and not a == c
    assert a != object() and a != text and a != tuple(vars(a).values())
    assert a == ANY                                   # another type decides: NotImplemented
    if any(isinstance(v, dict) for v in kwargs.values()):
        assert not isinstance(a, collections.abc.Hashable)
        with pytest.raises(TypeError):                 # a dict field makes the value unhashable
            hash(a)
    else:
        assert isinstance(a, collections.abc.Hashable)
        assert hash(a) == hash(b)
    for field in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, other)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b
    with pytest.raises(TypeError):
        cls()
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


def test_a_qcontext_is_not_its_field_tuple():
    assert qbern.QContext(2) != (Fraction(2), 1)
    assert qbern.QContext(2) == qbern.QContext(Fraction(2), c=1)


def test_importing_qbern_and_its_cli_loads_neither_dataclasses_nor_inspect():
    # the set difference leaves out whatever the interpreter's start-up already loaded
    code = ("import sys; b = set(sys.modules); import qbern, qbern.cli; "
            "print(' '.join(sorted(set(sys.modules) - b)))")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qbern.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qbern.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded
