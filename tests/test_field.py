import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthcodes import (
    CompositeModulusError,
    DivisionByZeroError,
    FieldMismatchError,
    FieldTooLargeError,
    is_prime,
    make_field,
)

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_make_field_accepts_primes():
    assert make_field(2).p == 2
    assert make_field(5).p == 5
    assert make_field(101).p == 101


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100])
def test_make_field_rejects_composites(bad):
    with pytest.raises(CompositeModulusError):
        make_field(bad)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**32 + 1)


PSI_12 = 399165290221 * 798330580441  # strong pseudoprime to the bases 2..37
PSI_13 = 1287836182261 * 2575672364521  # strong pseudoprime to the bases 2..41


def test_primality_is_exact_below_psi_13_and_refused_from_it():
    assert PSI_12 == 318665857834031151167461 and PSI_13 == 3317044064679887385961981
    with pytest.raises(CompositeModulusError):
        make_field(PSI_12)
    assert not is_prime(PSI_12) and not is_prime(PSI_13 - 2) and not is_prime(PSI_13 + 1)
    with pytest.raises(FieldTooLargeError, match="cannot be certified"):
        make_field(PSI_13)
    with pytest.raises(FieldTooLargeError, match="cannot be certified"):
        is_prime(2**89 - 1)  # a Mersenne prime, but past the proven bound
    assert make_field(2**61 - 1).p == 2**61 - 1
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


def test_arithmetic_examples():
    f5 = make_field(5)
    assert int(f5.element(2) + f5.element(4)) == 1
    assert int(f5.element(3).inv()) == 2
    f2 = make_field(2)
    assert int(-f2.element(1)) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZeroError):
        make_field(7).zero().inv()


def test_mixed_fields_rejected():
    a = make_field(5).element(2)
    b = make_field(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_canonical_representatives():
    f7 = make_field(7)
    assert int(f7.element(-1)) == 6
    assert int(f7.element(15)) == 1
    assert f7.element(9) == f7.element(2)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_inverses_exhaustive(p):
    field = make_field(p)
    one = field.one()
    for v in range(1, p):
        e = field.element(v)
        assert e.inv() * e == one


@given(
    p=st.sampled_from([2, 3, 5, 7, 101]),
    a=st.integers(0, 200),
    b=st.integers(0, 200),
    c=st.integers(0, 200),
)
def test_field_axioms(p, a, b, c):
    field = make_field(p)
    x, y, z = field.element(a), field.element(b), field.element(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + field.zero() == x
    assert x * field.one() == x
    assert x + (-x) == field.zero()
    if int(y) != 0:
        assert y * y.inv() == field.one()
