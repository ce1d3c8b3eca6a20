"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositeModulusError, DivisionByZeroError, FieldMismatchError, FieldTooLargeError

# The first 13 primes as Miller-Rabin bases decide primality exactly for every
# n below psi_13 = 3317044064679887385961981 (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); the first 12
# suffice only below psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality. A witness of compositeness is proof at any size, but
    from psi_13 on, passing all the bases is not, so such an n raises
    FieldTooLargeError rather than be reported prime."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise FieldTooLargeError(
            f"primality of {n} cannot be certified: the Miller-Rabin bases 2..41 are proven only below {_MR_EXACT_BELOW}"
        )
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p); elements are canonical residues in 0..p-1."""

    p: int

    def __post_init__(self):
        if self.p < 2 or not is_prime(self.p):
            raise CompositeModulusError(f"modulus {self.p} is not prime")

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def elements(self):
        """All field elements in ascending residue order."""
        return (FieldElement(v, self) for v in range(self.p))

    def __repr__(self):
        return f"GF({self.p})"


def make_field(p: int) -> PrimeField:
    """Arithmetic context for GF(p); raises CompositeModulusError otherwise."""
    return PrimeField(p)


class FieldElement:
    """A residue in a fixed prime field, stored canonically."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        object.__setattr__(self, "value", value % field.p)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldElement is immutable ({name})")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.p != self.field.p:
            raise FieldMismatchError(f"mixed fields GF({self.field.p}) and GF({other.field.p})")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.value + other.value, self.field)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.value - other.value, self.field)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.value * other.value, self.field)

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZeroError("0 has no multiplicative inverse")
        return FieldElement(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.field.p == other.field.p

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"
