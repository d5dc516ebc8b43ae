"""Exact number kernel.

Everything downstream reduces to three value kinds, all exact:

* ``Dyadic``      -- probabilities num / 2**exp with unbounded integers,
* ``Threshold``   -- reals of the form sign * sqrt(p/q), covering both
                     rational thresholds (stored as sqrt of their square)
                     and genuine surds such as sqrt(3),
* ``LatticeValue``-- atoms a / sqrt(k) of the equal-weight sum with k
                     active coordinates (a and k share parity).

Comparisons never touch floating point: a/sqrt(k) versus sign*sqrt(p/q)
is decided by the sign first and then by cross-multiplied squares
a*a*q versus p*k.  All values are immutable and safe to share between
threads.

Threshold input grammar (used by the CLI and parsers):

    INT | INT/INT | DECIMAL | sqrt(INT) | sqrt(INT/INT)

with an optional leading ``-``.  Decimal text such as ``1.85`` converts
exactly to the ratio 37/20, never to a binary float, so parsed quantile
boundaries are reproducible.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError

# Rationals are plain fractions.Fraction values: gcd-reduced, positive
# denominator, canonical zero 0/1 -- exactly the Ratio contract.
Ratio = Fraction

RATIONAL = "rational"
SURD = "surd"


class Ordering(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def _ordering(diff_sign: int) -> Ordering:
    if diff_sign < 0:
        return Ordering.LT
    if diff_sign > 0:
        return Ordering.GT
    return Ordering.EQ


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _square_root_exact(q: Fraction) -> Fraction | None:
    """Return sqrt(q) when q >= 0 is the square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# Dyadic
# ---------------------------------------------------------------------------

def _require_str_digits(x: int) -> None:
    """Raise ``DomainError`` when ``str(x)`` would exceed CPython's limit on
    decimal digits for int-to-str conversion (``sys.get_int_max_str_digits``,
    4300 by default; 0 or an interpreter without it means no limit).  The
    limit is never lifted here: it is the interpreter's defence against
    quadratic-time conversions.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # 2^(3 limit) < 10^limit, so shorter integers pass without a power of 10
    if limit and abs(x).bit_length() > 3 * limit and abs(x) >= 10 ** limit:
        raise DomainError(f"the result has more than {limit} decimal digits, the "
                          "interpreter's int-to-str limit (sys.set_int_max_str_digits)")


@dataclass(frozen=True)
class Dyadic:
    """Nonnegative dyadic rational num / 2**exp in canonical form.

    Canonical means num is odd, or num == 0 with exp == 0.  Arithmetic is
    exact; overflow is impossible.
    """

    num: int
    exp: int

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        if num < 0:
            raise ValueError("dyadic numerator must be >= 0")
        if exp < 0:
            raise ValueError("dyadic exponent must be >= 0")
        if num == 0:
            exp = 0
        else:
            # strip the trailing zero bits of num, at most exp of them
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        den = q.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{q} is not dyadic")
        return cls(q.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def add(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def sub(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        if num < 0:
            raise ValueError("dyadic subtraction went negative")
        return Dyadic(num, e)

    def halve(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def compare(self, other: "Dyadic") -> Ordering:
        return _ordering(_sign((self.num << other.exp) - (other.num << self.exp)))

    def compare_to_ratio(self, r: Fraction) -> Ordering:
        # num/2^exp vs a/b  <=>  num*b vs a*2^exp   (b > 0 by Fraction contract)
        return _ordering(_sign(self.num * r.denominator - r.numerator * (1 << self.exp)))

    def to_decimal(self, digits: int) -> str:
        """Round-half-even decimal expansion with exactly ``digits`` places."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scaled = self.num * 10 ** digits
        q, r = divmod(scaled, 1 << self.exp)
        twice = 2 * r
        if twice > (1 << self.exp) or (twice == (1 << self.exp) and q & 1):
            q += 1
        ip, fp = divmod(q, 10 ** digits)
        return f"{ip}.{str(fp).zfill(digits)}"

    def dyadic_str(self) -> str:
        """``num/2^exp`` in decimal, or ``num`` when exp is 0.

        Raises ``DomainError`` before formatting when either integer has
        more decimal digits than the interpreter converts to text.
        """
        den = 1 << self.exp
        _require_str_digits(max(self.num, den))
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{den}"

    def __float__(self) -> float:
        return dyadic_to_float(self.num, self.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        return self.compare(other) is Ordering.LT

    def __le__(self, other: "Dyadic") -> bool:
        return self.compare(other) is not Ordering.GT

    def __gt__(self, other: "Dyadic") -> bool:
        return self.compare(other) is Ordering.GT

    def __ge__(self, other: "Dyadic") -> bool:
        return self.compare(other) is not Ordering.LT


DYADIC_ZERO = Dyadic(0, 0)
DYADIC_ONE = Dyadic(1, 0)
DYADIC_HALF = Dyadic(1, 1)


def dyadic_to_float(num: int, exp: int) -> float:
    """num / 2**exp as a double, safe for numerators wider than 1024 bits."""
    if num == 0:
        return 0.0
    shift = num.bit_length() - 54
    if shift > 0:
        return math.ldexp(float(num >> shift), shift - exp)
    return math.ldexp(float(num), -exp)


# ---------------------------------------------------------------------------
# LatticeValue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeValue:
    """Atom a / sqrt(k) of the k-coordinate equal-weight sum.

    Requires k >= 1, |a| <= k and a == k (mod 2); these are exactly the
    values 2m - k for m in 0..k.
    """

    a: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if abs(self.a) > self.k:
            raise ValueError("|a| must be <= k")
        if (self.a - self.k) % 2 != 0:
            raise ValueError("a and k must have equal parity")

    @property
    def signed_square(self) -> Fraction:
        """a*|a|/k: strictly monotone image of a/sqrt(k), exact sort key."""
        return Fraction(self.a * abs(self.a), self.k)

    def to_threshold(self) -> "Threshold":
        return Threshold.from_square(_sign(self.a), Fraction(self.a * self.a, self.k))


# ---------------------------------------------------------------------------
# Threshold
# ---------------------------------------------------------------------------

_THRESHOLD_RE = re.compile(
    r"""^(?P<neg>-)?
        (?:
            (?P<int>\d+)(?:\.(?P<frac>\d+))?   # INT or DECIMAL
          | (?P<rnum>\d+)/(?P<rden>\d+)        # INT/INT
          | sqrt\((?P<snum>\d+)(?:/(?P<sden>\d+))?\)
        )$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Threshold:
    """Exact real sign * sqrt(sq) with sq a nonnegative rational.

    ``display_hint`` records whether sq is the square of a rational (so the
    value prints as INT or INT/INT) or a genuine surd (prints as sqrt(...)).
    The hint is derived from sq, so structural equality is value equality.
    """

    sign: int
    sq: Fraction
    display_hint: str

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sq < 0:
            raise ValueError("squared magnitude must be >= 0")
        if (self.sign == 0) != (self.sq == 0):
            raise ValueError("sign is 0 exactly when the value is 0")
        if self.display_hint not in (RATIONAL, SURD):
            raise ValueError("bad display hint")
        if self.display_hint == RATIONAL and _square_root_exact(self.sq) is None:
            raise ValueError("rational hint on a non-square magnitude")

    @classmethod
    def from_square(cls, sign: int, sq: Fraction) -> "Threshold":
        hint = RATIONAL if _square_root_exact(sq) is not None else SURD
        return cls(sign, sq, hint)

    @classmethod
    def from_rational(cls, r: Fraction) -> "Threshold":
        return cls(_sign(r), r * r, RATIONAL)

    @classmethod
    def zero(cls) -> "Threshold":
        return cls(0, Fraction(0), RATIONAL)

    @classmethod
    def parse(cls, text: str) -> "Threshold":
        m = _THRESHOLD_RE.match(text.strip())
        if m is None:
            raise ParseError(f"bad threshold {text!r}: expected INT, INT/INT, "
                             "DECIMAL, sqrt(INT) or sqrt(INT/INT)")
        neg = -1 if m.group("neg") else 1
        try:
            if m.group("int") is not None:
                frac = m.group("frac")
                r = Fraction(f"{m.group('int')}.{frac}" if frac else m.group("int"))
                return cls.from_rational(neg * r)
            if m.group("rnum") is not None:
                r = Fraction(int(m.group("rnum")), int(m.group("rden")))
                return cls.from_rational(neg * r)
            sden = m.group("sden")
            sq = Fraction(int(m.group("snum")), int(sden) if sden else 1)
        except ZeroDivisionError as exc:
            raise ParseError(f"bad threshold {text!r}: zero denominator") from exc
        if sq == 0:
            return cls.zero()
        return cls.from_square(neg, sq)

    @property
    def signed_square(self) -> Fraction:
        return self.sign * self.sq

    def negated(self) -> "Threshold":
        return Threshold(-self.sign, self.sq, self.display_hint)

    def compare(self, other: "Threshold") -> Ordering:
        return _ordering(_sign(self.signed_square - other.signed_square))

    def __float__(self) -> float:
        mag = math.sqrt(self.sq.numerator / self.sq.denominator)
        return self.sign * mag

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        root = _square_root_exact(self.sq)
        if root is not None:
            if root.denominator == 1:
                return f"{prefix}{root.numerator}"
            return f"{prefix}{root.numerator}/{root.denominator}"
        if self.sq.denominator == 1:
            return f"{prefix}sqrt({self.sq.numerator})"
        return f"{prefix}sqrt({self.sq.numerator}/{self.sq.denominator})"

    def __lt__(self, other: "Threshold") -> bool:
        return self.compare(other) is Ordering.LT

    def __le__(self, other: "Threshold") -> bool:
        return self.compare(other) is not Ordering.GT

    def __gt__(self, other: "Threshold") -> bool:
        return self.compare(other) is Ordering.GT

    def __ge__(self, other: "Threshold") -> bool:
        return self.compare(other) is not Ordering.LT


# ---------------------------------------------------------------------------
# Cross-kind comparisons
# ---------------------------------------------------------------------------

def cmp_lattice_threshold(v: LatticeValue, t: Threshold) -> Ordering:
    """Order a/sqrt(k) against sign*sqrt(p/q) exactly.

    Sign comparison first; equal nonzero signs reduce to the integer
    comparison a*a*q versus p*k, reversed on the negative axis.
    """
    sv = _sign(v.a)
    if sv != t.sign:
        return _ordering(sv - t.sign)
    if sv == 0:
        return Ordering.EQ
    p, q = t.sq.numerator, t.sq.denominator
    square_cmp = _sign(v.a * v.a * q - p * v.k)
    return _ordering(square_cmp if sv > 0 else -square_cmp)


def cmp_lattice_lattice(u: LatticeValue, v: LatticeValue) -> Ordering:
    """Order a/sqrt(k) against b/sqrt(k') via signs then a*a*k' vs b*b*k."""
    su, sv = _sign(u.a), _sign(v.a)
    if su != sv:
        return _ordering(su - sv)
    if su == 0:
        return Ordering.EQ
    square_cmp = _sign(u.a * u.a * v.k - v.a * v.a * u.k)
    return _ordering(square_cmp if su > 0 else -square_cmp)


# ---------------------------------------------------------------------------
# Ratio parsing (alphas, weights)
# ---------------------------------------------------------------------------

_RATIO_RE = re.compile(r"^-?(?:\d+(?:\.\d+)?|\d+/\d+)$")


def parse_ratio(text: str) -> Fraction:
    """Parse INT, INT/INT or DECIMAL (optional leading -) into an exact ratio."""
    s = text.strip()
    if not _RATIO_RE.match(s):
        raise ParseError(f"bad ratio {text!r}: expected INT, INT/INT or DECIMAL")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad ratio {text!r}: zero denominator") from exc
