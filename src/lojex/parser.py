"""Input formats for germs.

Text grammar (one polynomial expression, optional directive lines):

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := coefficient | variable ['^' integer]
    coefficient:= integer ['/' integer]
    variable   := 'x'<digits>  (aliases x, y, z for dimensions up to 3)

    @remainder exp=(2,0) flat=(x2)      declares x^(2,0) * phi, phi flat in x2
    @remainder exp=(3,1) unit           declares x^(3,1) * phi, phi(0) != 0

The dimension is inferred from the largest variable index and the remainder
exponent lengths.  JSON input is an object:

    {"n": 2,
     "terms": [{"coeff": {"num": 1, "den": 1}, "exp": [2, 2]}],
     "remainders": [{"exp": [2, 0], "flat": [2]}, {"exp": [3, 1], "unit": true}]}

where coefficients may also be integers or "p/q" strings, and "flat" lists
1-based variable indices.  Exponents, indices and "n" are JSON integers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError, ParseError
from .taylor import RemainderDescriptor, TaylorModel

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^()]))")
_ALIASES = {"x": 1, "y": 2, "z": 3}


class _Tokenizer:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                stripped = text[self.pos :].lstrip()
                col = len(text) - len(stripped) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
            self.pos = m.end()
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else (None, "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok


def _var_index(name: str, line: int, col: int) -> int:
    """1-based variable index from a name like x3 (or the x/y/z aliases)."""
    if name in _ALIASES:
        return _ALIASES[name]
    m = re.fullmatch(r"x(\d+)", name)
    if not m:
        raise ParseError(
            f"unknown variable {name!r} (use x1..xn, or x/y/z for n <= 3)", line, col
        )
    idx = int(m.group(1))
    if idx < 1:
        raise ParseError(f"variable index must be >= 1, got {name!r}", line, col)
    return idx


def _parse_factor(tz: _Tokenizer, powers: dict[int, int]) -> Fraction | None:
    """Consume one factor; variable powers accumulate, a coefficient is returned."""
    kind, value, col = tz.next()
    if kind == "num":
        numer = int(value)
        if tz.peek()[0] == "op" and tz.peek()[1] == "/":
            tz.next()
            kind2, value2, col2 = tz.next()
            if kind2 != "num":
                raise ParseError("expected an integer denominator", tz.line, col2)
            if int(value2) == 0:
                raise ParseError("zero denominator", tz.line, col2)
            return Fraction(numer, int(value2))
        return Fraction(numer)
    if kind == "name":
        var = _var_index(value, tz.line, col)
        power = 1
        if tz.peek()[0] == "op" and tz.peek()[1] == "^":
            tz.next()
            kind2, value2, col2 = tz.next()
            if kind2 != "num":
                raise ParseError(
                    "expected a nonnegative integer exponent after '^'", tz.line, col2
                )
            power = int(value2)
        powers[var] = powers.get(var, 0) + power
        return None
    raise ParseError(f"expected a coefficient or variable, got {value!r}", tz.line, col)


def _parse_expression(text: str, line: int) -> list[tuple[dict[int, int], Fraction]]:
    """Terms of one polynomial line as sparse ({1-based var: power}, coeff) pairs."""
    tz = _Tokenizer(text, line)
    if not tz.tokens:
        return []
    sparse_terms: list[tuple[dict[int, int], Fraction]] = []
    sign = Fraction(1)
    kind, value, _ = tz.peek()
    if kind == "op" and value in "+-":
        tz.next()
        sign = Fraction(-1) if value == "-" else Fraction(1)
    while True:
        powers: dict[int, int] = {}
        coeff = sign
        while True:
            c = _parse_factor(tz, powers)
            if c is not None:
                coeff *= c
            kind, value, col = tz.peek()
            if kind == "op" and value == "*":
                tz.next()
                continue
            break
        sparse_terms.append((powers, coeff))
        kind, value, col = tz.peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            tz.next()
            sign = Fraction(-1) if value == "-" else Fraction(1)
            continue
        raise ParseError(f"expected '+', '-' or '*', got {value!r}", line, col)
    return sparse_terms


_REMAINDER_RE = re.compile(
    r"@remainder\s+exp\s*=\s*\(([^)]*)\)\s*(?:(unit)|flat\s*=\s*\(([^)]*)\))\s*$"
)


def _parse_remainder(text: str, line: int) -> RemainderDescriptor:
    m = _REMAINDER_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(
            "remainder directive must be '@remainder exp=(..) unit' or "
            "'@remainder exp=(..) flat=(x..)'; a factor vanishing at 0 but not "
            "flat is not accepted",
            line,
            1,
        )
    try:
        exp = tuple(int(part) for part in m.group(1).split(","))
    except ValueError:
        raise ParseError("remainder exponent entries must be integers", line, 1)
    if m.group(2) == "unit":
        return RemainderDescriptor(exp, frozenset(), True)
    flat = []
    for part in m.group(3).split(","):
        part = part.strip()
        idx = _var_index(part, line, 1)
        flat.append(idx - 1)
    return RemainderDescriptor(exp, frozenset(flat), False)


def _pad(exp: tuple[int, ...], n: int) -> tuple[int, ...]:
    return exp + (0,) * (n - len(exp))


def parse_text(text: str) -> TaylorModel:
    poly_lines: list[tuple[str, int]] = []
    remainders: list[RemainderDescriptor] = []
    for lineno, raw in enumerate(text.splitlines() or [text], start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("@remainder"):
            remainders.append(_parse_remainder(stripped, lineno))
        elif stripped.startswith("@"):
            raise ParseError(f"unknown directive {stripped.split()[0]!r}", lineno, 1)
        else:
            poly_lines.append((stripped, lineno))
    # every term is padded once, after n is known
    terms = [t for chunk, lineno in poly_lines for t in _parse_expression(chunk, lineno)]
    n = max([max(p) for p, _ in terms if p] + [len(r.exp) for r in remainders] + [1])
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for powers, c in terms:
        exp = tuple(powers.get(i + 1, 0) for i in range(n))
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    remainders = [
        RemainderDescriptor(_pad(r.exp, n), r.flat_vars, r.is_unit) for r in remainders
    ]
    if not coeffs and not remainders:
        raise InputError("empty germ: no terms and no remainders")
    return TaylorModel.from_dict(n, coeffs, remainders)


def _coeff_from_json(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    if isinstance(value, dict) and set(value) <= {"num", "den"}:
        num, den = value.get("num"), value.get("den", 1)
        if type(num) is int and type(den) is int and den:
            return Fraction(num, den)
    raise InputError(f"invalid coefficient {value!r}")


def _json_ints(value, what: str) -> tuple[int, ...]:
    # type() rather than isinstance: a JSON true is not the integer 1
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def parse_json(data: dict | str) -> TaylorModel:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    if not isinstance(data, dict):
        raise InputError("JSON germ must be an object")
    terms = data.get("terms", [])
    remainders_raw = data.get("remainders", [])
    for key, entries in (("terms", terms), ("remainders", remainders_raw)):
        if not isinstance(entries, list) or not all(isinstance(e, dict) and "exp" in e for e in entries):
            raise InputError(f'"{key}" must be a list of objects with an "exp"')
    exps = [_json_ints(t["exp"], '"exp"') for t in terms + remainders_raw]
    n = data.get("n", max((len(e) for e in exps), default=1))
    if "n" in data and (type(n) is not int or n < 1):
        raise InputError(f'"n" must be an integer >= 1, got {n!r}')
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for t, exp in zip(terms, exps):
        exp = _pad(exp, n)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + _coeff_from_json(t.get("coeff"))
    remainders = []
    for r, exp in zip(remainders_raw, exps[len(terms):]):
        exp = _pad(exp, n)
        unit = r.get("unit", False)
        if type(unit) is not bool:
            raise InputError(f'"unit" must be true or false, got {unit!r}')
        # a unit with flat variables is refused by the descriptor
        flat = frozenset(i - 1 for i in _json_ints(r.get("flat", []), '"flat"'))
        remainders.append(RemainderDescriptor(exp, flat, unit))
    if not coeffs and not remainders:
        raise InputError("empty germ: no terms and no remainders")
    return TaylorModel.from_dict(n, coeffs, remainders)


def parse_germ(text: str) -> TaylorModel:
    """Dispatch on the leading character: '{' means JSON, anything else text."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_text(text)


# ---------------------------------------------------------------------------
# canonical serialization (round-trips through parse_germ)

def model_to_text(model: TaylorModel) -> str:
    chunks: list[tuple[str, str]] = []
    for term in sorted(model.terms, key=lambda t: t.exp, reverse=True):
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(term.exp)
            if e
        ]
        mag = abs(term.coeff)
        body = "*".join(factors) if factors else "1"
        if mag != 1 or not factors:
            mag_str = (
                str(mag.numerator)
                if mag.denominator == 1
                else f"{mag.numerator}/{mag.denominator}"
            )
            body = mag_str + ("*" + "*".join(factors) if factors else "")
        chunks.append(("-" if term.coeff < 0 else "+", body))
    lines = []
    if chunks:
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        lines.append(text)
    for r in model.remainders:
        exp = ",".join(str(e) for e in r.exp)
        if r.is_unit:
            lines.append(f"@remainder exp=({exp}) unit")
        else:
            flats = ",".join(f"x{i + 1}" for i in sorted(r.flat_vars))
            lines.append(f"@remainder exp=({exp}) flat=({flats})")
    return "\n".join(lines)
