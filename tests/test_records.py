"""The frozen value records behave as the frozen dataclasses they replace."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

import enumtree
from enumtree.analytics import PrimeRepresentation, RowStats
from enumtree.classify import ViolationCertificate
from enumtree.maps import InverseTrace
from enumtree.monoid import IDENTITY, Mat2
from enumtree.pairs import PHI0, DivisorPair, EnumerablePoly, Poly
from enumtree.sseq import SSeqKernel

X2_1 = Poly(coeffs=(1, 0, 1))


def _pair(m, n):
    return DivisorPair(m=m, n=n, poly=X2_1)


def _kernel():
    return SSeqKernel(poly=PHI0, start=1, initial=(0, 0, 1, 1))


# Each record built by keyword, twice, and a record of the same class that
# differs in one field; then the repr a frozen dataclass gave it.
VALUE_RECORDS = [
    (lambda: Poly(coeffs=(1, 0, 1)), Poly(coeffs=(1, 1, 1)), "Poly(coeffs=(1, 0, 1))"),
    (
        lambda: EnumerablePoly(name="phi0", poly=X2_1),
        EnumerablePoly(name="phi0", poly=Poly(coeffs=(1, 1, 1))),
        "EnumerablePoly(name='phi0', poly=Poly(coeffs=(1, 0, 1)))",
    ),
    (
        lambda: DivisorPair(m=5, n=3, poly=X2_1),
        DivisorPair(m=2, n=3, poly=X2_1),
        "DivisorPair(m=5, n=3, poly=Poly(coeffs=(1, 0, 1)))",
    ),
    (lambda: Mat2(a=3, b=4, c=8, d=11), Mat2(a=3, b=1, c=2, d=1), "Mat2(a=3, b=4, c=8, d=11)"),
    (
        lambda: InverseTrace(
            exponents=(0, 1), pairs=(_pair(2, 1), _pair(1, 1), _pair(1, 0)), word="T", index=3
        ),
        InverseTrace(exponents=(1,), pairs=(_pair(1, 1), _pair(1, 0)), word="S", index=2),
        "InverseTrace(exponents=(0, 1), pairs=(DivisorPair(m=2, n=1, poly=Poly(coeffs=(1, 0, 1))),"
        " DivisorPair(m=1, n=1, poly=Poly(coeffs=(1, 0, 1))),"
        " DivisorPair(m=1, n=0, poly=Poly(coeffs=(1, 0, 1)))), word='T', index=3)",
    ),
    (
        lambda: RowStats(k=2, m_sum=13, n_sum=10, ratio_sum=Fraction(9, 2)),
        RowStats(k=2, m_sum=13, n_sum=10, ratio_sum=Fraction(9, 4)),
        "RowStats(k=2, m_sum=13, n_sum=10, ratio_sum=Fraction(9, 2))",
    ),
    (
        lambda: PrimeRepresentation(p=13, f=PHI0, n_values=(1, 5), exponents=(-1, 1)),
        PrimeRepresentation(p=5, f=PHI0, n_values=(2,), exponents=(1,)),
        "PrimeRepresentation(p=13, f=EnumerablePoly(name='phi0',"
        " poly=Poly(coeffs=(1, 0, 1))), n_values=(1, 5), exponents=(-1, 1))",
    ),
    (
        lambda: ViolationCertificate(
            f=Poly((1, 5, 1)), m=5, n=3, side="LEFT", detail="min(5, 5) = 5 > n = 3"
        ),
        ViolationCertificate(f=Poly((1, 5, 1)), m=5, n=3, side="RIGHT", detail="?"),
        "ViolationCertificate(f=Poly(coeffs=(1, 5, 1)), m=5, n=3, side='LEFT',"
        " detail='min(5, 5) = 5 > n = 3')",
    ),
    (
        _kernel,
        SSeqKernel(poly=PHI0, start=2, initial=(0, 0, 1, 1)),
        "SSeqKernel(poly=EnumerablePoly(name='phi0', poly=Poly(coeffs=(1, 0, 1))),"
        " start=1, initial=(0, 0, 1, 1))",
    ),
]

ALL_RECORDS = [make for make, _, _ in VALUE_RECORDS]


@pytest.mark.parametrize("make, other, text", VALUE_RECORDS)
def test_records_compare_and_hash_by_value(make, other, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == text
    stranger = X2_1 if isinstance(a, Mat2) else IDENTITY
    assert a.__eq__(stranger) is NotImplemented and a != stranger


@pytest.mark.parametrize("make", ALL_RECORDS)
def test_records_are_frozen_and_slotted(make):
    a = make()
    field = a.__slots__[0]
    value = getattr(a, field)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, value)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    with pytest.raises(FrozenInstanceError):
        a.extra = 1
    assert getattr(a, field) is value
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("make", ALL_RECORDS)
def test_records_survive_pickle_and_copy(make):
    a = make()
    fields = [getattr(a, k) for k in a.__slots__]
    for b in (
        pickle.loads(pickle.dumps(a)),
        pickle.loads(pickle.dumps(a, protocol=0)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert type(b) is type(a) and [getattr(b, k) for k in b.__slots__] == fields
        assert b == a


@pytest.mark.parametrize("make", ALL_RECORDS)
def test_records_built_by_position_equal_those_built_by_keyword(make):
    a = make()
    names = a.__slots__
    fields = [getattr(a, k) for k in names]
    for b in (type(a)(*fields), type(a)(fields[0], **dict(zip(names[1:], fields[1:])))):
        assert [getattr(b, k) for k in names] == fields
        assert b == a


@pytest.mark.parametrize("make", ALL_RECORDS)
def test_records_refuse_missing_unknown_extra_and_repeated_fields(make):
    a = make()
    names = a.__slots__
    fields = [getattr(a, k) for k in names]
    for args, kwargs in [
        (fields[:-1], {}),  # a field missing
        (fields, {"extra": 1}),  # an unknown field
        (fields + fields[:1], {}),  # too many positional arguments
        (fields, {names[0]: fields[0]}),  # a field by position and by keyword
    ]:
        with pytest.raises(TypeError):
            type(a)(*args, **kwargs)


def test_cli_import_skips_unused_standard_modules():
    # -S: no site hooks, so whatever is loaded was loaded by enumtree.
    unused = ("dataclasses", "inspect", "fractions", "decimal", "json")
    code = f"import sys, enumtree.cli; print([m for m in {unused!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(enumtree.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_primerep_run_skips_the_rational_modules():
    # the representation is returned as proved, not multiplied out as a Fraction
    unused = ("fractions", "decimal", "numbers")
    code = (
        "import sys; from enumtree.cli import main; code = main(['primerep', 'phi0', '113', '98']);"
        f" print(code, [m for m in {unused!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(enumtree.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout.splitlines()[-1], proc.stderr) == (0, "0 []", "")
