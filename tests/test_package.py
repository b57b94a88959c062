"""The package namespace: exactly the public names of its modules."""

import qbern
from qbern import bernoulli, exactnum, padic, qcore, series, suites, symmetry

MODULES = (exactnum, qcore, bernoulli, series, symmetry, padic, suites)


def test_exports_exactly_the_modules_public_names():
    assert len(qbern.__all__) == len(set(qbern.__all__))
    assert set(qbern.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qbern, name) is getattr(module, name), (module.__name__, name)
