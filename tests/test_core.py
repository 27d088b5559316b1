"""Tests for the shared result record."""

import pickle

import pytest

from legnu.core import EvalResult
from legnu.polylog import dilog


def test_fields_cannot_be_assigned():
    r = EvalResult(1.0, 2e-16, True)
    for name in ("value", "abs_err_est", "converged"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0.0)
    with pytest.raises(AttributeError):
        r.extra = 1  # no instance dict


def test_repr_names_every_field():
    assert repr(EvalResult(0.5, 1e-16, False)) == (
        "EvalResult(value=0.5, abs_err_est=1e-16, converged=False)"
    )


def test_equal_results_compare_and_hash_equal():
    a, b = dilog(0.7), dilog(0.7)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != dilog(0.3)
    assert EvalResult(value=1.0, abs_err_est=0.0, converged=True) == EvalResult(1.0, 0.0, True)


def test_asdict_returns_the_fields_in_order():
    d = EvalResult(0.25, 1e-17, True)._asdict()
    assert list(d.items()) == [("value", 0.25), ("abs_err_est", 1e-17), ("converged", True)]


def test_pickle_round_trip():
    r = dilog(0.9)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is EvalResult
    assert back == r
