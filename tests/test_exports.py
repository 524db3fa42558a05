import importlib

import pytest

MODULES = [
    "mulbasis",
    "mulbasis.numtheory",
    "mulbasis.productsets",
    "mulbasis.reduction",
    "mulbasis.spherelab",
    "mulbasis.certificates",
    "mulbasis.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must not leave its name behind in __all__
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_invariant_violation_is_one_class():
    import mulbasis
    from mulbasis import numtheory, reduction

    assert mulbasis.InvariantViolationError is numtheory.InvariantViolationError
    assert reduction.InvariantViolationError is numtheory.InvariantViolationError
