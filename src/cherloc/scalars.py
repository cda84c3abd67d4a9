"""Exact scalars of the form a + b*kappa with rational a, b.

kappa is either a fixed rational number (substituted eagerly, so b is
always 0 after canonicalization) or a formal transcendental.  Every
operation is exact; nothing here ever touches a float.
"""

from __future__ import annotations

import re
from fractions import Fraction

RationalLike = int | Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Canonical 'num/den' string: den > 0, gcd(num, den) = 1, zero is '0/1'."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class KappaMode:
    """Interpretation of the kappa symbol.

    ``value`` is the substituted rational in rational mode and None in
    formal mode, where kappa is treated as transcendental over Q.
    """

    def __init__(self, value: Fraction | None = None) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))

    @classmethod
    def rational(cls, value: RationalLike) -> KappaMode:
        return cls(Fraction(value))

    @classmethod
    def formal(cls) -> KappaMode:
        return cls(None)

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def scalar(self, a: RationalLike = 0, b: RationalLike = 0) -> ParamScalar:
        return ParamScalar(Fraction(a), Fraction(b), self)

    def kappa(self) -> ParamScalar:
        return ParamScalar(Fraction(0), Fraction(1), self)

    def zero(self) -> ParamScalar:
        return ParamScalar(Fraction(0), Fraction(0), self)

    def label(self) -> str:
        return format_rational(self.value) if self.is_rational else "formal"

    @classmethod
    def from_label(cls, text: str) -> KappaMode:
        if isinstance(text, str) and text.strip() == "formal":
            return cls.formal()
        return cls.rational(parse_rational(text))


class ParamScalar:
    """An element a + b*kappa of the coefficient field.

    In rational mode kappa is substituted at construction time, so the
    canonical representative always has b = 0 there.
    """

    def __init__(self, a: Fraction, b: Fraction, mode: KappaMode) -> None:
        self.a, self.b, self.mode = a, b, mode
        self.__post_init__()

    def __post_init__(self) -> None:
        # Looked up on the class by every construction, so perfbench's
        # tracer counts the scalars built by wrapping this one method.
        a, b = Fraction(self.a), Fraction(self.b)
        if self.mode.is_rational and b != 0:
            a, b = a + b * self.mode.value, Fraction(0)
        self.a, self.b = a, b

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and (self.a, self.b, self.mode) == (other.a, other.b, other.mode))

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.mode))

    def _coerce(self, other: ParamScalar | RationalLike) -> ParamScalar:
        if isinstance(other, ParamScalar):
            if other.mode != self.mode:
                raise ValueError("cannot mix scalars from different kappa modes")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamScalar(Fraction(other), Fraction(0), self.mode)
        return NotImplemented

    def __add__(self, other: ParamScalar | RationalLike) -> ParamScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamScalar(self.a + other.a, self.b + other.b, self.mode)

    __radd__ = __add__

    def __sub__(self, other: ParamScalar | RationalLike) -> ParamScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamScalar(self.a - other.a, self.b - other.b, self.mode)

    def __rsub__(self, other: RationalLike) -> ParamScalar:
        return (-self) + other

    def __neg__(self) -> ParamScalar:
        return ParamScalar(-self.a, -self.b, self.mode)

    def __mul__(self, factor: RationalLike) -> ParamScalar:
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        return ParamScalar(self.a * factor, self.b * factor, self.mode)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> ParamScalar:
        if not isinstance(divisor, (int, Fraction)):
            return NotImplemented
        if divisor == 0:
            raise ZeroDivisionError("scalar division by zero")
        return ParamScalar(self.a / divisor, self.b / divisor, self.mode)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def in_integers_plus(self, offset: RationalLike) -> bool:
        """Whether this scalar lies in Z + offset.

        In formal mode the kappa coefficient must vanish exactly; no
        modular reduction is applied to the offset by this predicate.
        """
        if self.b != 0:
            return False
        return (self.a - Fraction(offset)).denominator == 1

    def to_json(self) -> dict:
        if self.mode.is_rational:
            return {"a": format_rational(self.a)}
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    @classmethod
    def from_json(cls, data: dict, mode: KappaMode) -> ParamScalar:
        if not isinstance(data, dict):
            raise ValueError("a scalar must be a JSON object")
        refuse_foreign_keys(data, ("a", "b"), "a scalar")
        a = parse_rational(data["a"])
        b = parse_rational(data.get("b", "0/1"))
        return cls(a, b, mode)


def refuse_foreign_keys(data: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a JSON object holding a key outside keys, naming the first."""
    foreign = [key for key in data if key not in keys]
    if foreign:
        raise ValueError(f"{what} takes no field {foreign[0]!r}")


def parse_scalar(text: str, mode: KappaMode) -> ParamScalar:
    """Parse scalar syntax like '3', '-1/2', 'k', '-k', '3/4k', '1/2-3k'.

    The trailing 'k' marks the kappa coefficient.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith("k"):
        return mode.scalar(parse_rational(s))
    body = s[:-1]
    split = max(body.rfind("+", 1), body.rfind("-", 1))
    a_text, b_text = (body[:split], body[split:]) if split > 0 else ("", body)
    a = parse_rational(a_text) if a_text else Fraction(0)
    if b_text in ("", "+"):
        b = Fraction(1)
    elif b_text == "-":
        b = Fraction(-1)
    else:
        b = parse_rational(b_text)
    return mode.scalar(a, b)
