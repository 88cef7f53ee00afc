"""Expression language for operator tables.

Grammar (tensor is spelled "(x)", binding tighter than "*"):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := scalar factor | atom ("(x)" atom)*
    atom   := WORD | GATE "(" args ")" | "(" expr ")"
    scalar := number | INT "/" INT | "sqrt(" INT ")" | "1/sqrt(" INT ")"
    number := INT ["." [INT]] [("e" | "E") ["+" | "-"] INT]
    WORD   := [IXZW]+

Word literals are uppercase; gate names are case-insensitive and only
recognized when followed by "(".  Gate arguments are scalars, optionally
negated, and the trailing argument may give the register size m (default:
the largest slot mentioned).  Evaluation runs complex-aware so phaseful
gates may appear in products whose imaginary parts cancel; the final
result must be real.  Structured gate forms (MCZ, CARTAN) are expanded
explicitly during evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import EvaluationError, ParseError
from .gates import bell_transform, lifted_gate, mcz, single_gate, two_gate
from .operators import NqaOperator, FactoredOperator, Reflection
from .realify import ComplexNqaOperator

__all__ = ["parse", "format_expr", "evaluate", "Expr"]

_WORD_CHARS = set("IXZW")
_EXPONENT = re.compile(r"[eE][+-]?[0-9]+")


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if source.startswith("(x)", i):
            tokens.append(_Token("TENSOR", "(x)", i))
            i += 3
            continue
        if ch in "+-*/(),":
            kind = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
                    "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}[ch]
            tokens.append(_Token(kind, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            exponent = _EXPONENT.match(source, j)
            if exponent:
                j = exponent.end()
            tokens.append(_Token("NUMBER", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True, slots=True)
class Scalar:
    text: str
    value: float
    pos: int


@dataclass(frozen=True, slots=True)
class Word:
    label: str
    pos: int


@dataclass(frozen=True, slots=True)
class Arg:
    text: str
    value: float
    pos: int


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    args: tuple[Arg, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class Sum:
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True, slots=True)
class Difference:
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True, slots=True)
class Product:
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True, slots=True)
class Tensor:
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True, slots=True)
class Scaled:
    scalar: Scalar
    operand: "Expr"
    pos: int


Expr = Union[Scalar, Word, Gate, Sum, Difference, Product, Tensor, Scaled]


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {what}, found {self.cur.text or 'end of input'!r}", self.cur.pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.parse_expr()
        if self.cur.kind != "END":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.parse_term()
            cls = Sum if op.kind == "PLUS" else Difference
            node = cls(node, rhs, op.pos)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.cur.kind == "STAR":
            op = self.advance()
            rhs = self.parse_factor()
            node = Product(node, rhs, op.pos)
        return node

    def _at_scalar(self) -> bool:
        tok = self.cur
        if tok.kind == "NUMBER":
            return True
        return tok.kind == "IDENT" and tok.text.lower() == "sqrt"

    def _at_factor(self) -> bool:
        return self.cur.kind in ("NUMBER", "IDENT", "LPAREN")

    def parse_factor(self) -> Expr:
        if self._at_scalar():
            scalar = self.parse_scalar()
            if self._at_factor():
                operand = self.parse_factor()
                return Scaled(scalar, operand, scalar.pos)
            return scalar
        node = self.parse_atom()
        while self.cur.kind == "TENSOR":
            op = self.advance()
            rhs = self.parse_atom()
            node = Tensor(node, rhs, op.pos)
        return node

    def parse_scalar(self) -> Scalar:
        tok = self.cur
        if tok.kind == "IDENT":  # sqrt(n)
            self.advance()
            self.expect("LPAREN", "'(' after sqrt")
            num = self.expect("NUMBER", "an integer under sqrt")
            if not num.text.isdigit():
                raise ParseError("sqrt takes an integer", num.pos)
            self.expect("RPAREN", "')'")
            return Scalar(f"sqrt({num.text})", float(int(num.text)) ** 0.5, tok.pos)
        num = self.expect("NUMBER", "a number")
        if self.cur.kind == "SLASH":
            if not num.text.isdigit():
                raise ParseError("rational scalars need integer parts", num.pos)
            self.advance()
            if self.cur.kind == "IDENT" and self.cur.text.lower() == "sqrt":
                self.advance()
                self.expect("LPAREN", "'(' after sqrt")
                den = self.expect("NUMBER", "an integer under sqrt")
                if not den.text.isdigit():
                    raise ParseError("sqrt takes an integer", den.pos)
                self.expect("RPAREN", "')'")
                value = int(num.text) / float(int(den.text)) ** 0.5
                return Scalar(f"{num.text}/sqrt({den.text})", value, tok.pos)
            den = self.expect("NUMBER", "a denominator")
            if not den.text.isdigit() or int(den.text) == 0:
                raise ParseError("rational scalars need a nonzero integer denominator", den.pos)
            return Scalar(f"{num.text}/{den.text}", int(num.text) / int(den.text), tok.pos)
        return Scalar(num.text, float(num.text), tok.pos)

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            self.advance()
            if self.cur.kind == "LPAREN":
                return self.parse_gate_call(tok)
            if all(ch in _WORD_CHARS for ch in tok.text):
                return Word(tok.text, tok.pos)
            raise ParseError(
                f"{tok.text!r} is neither a word over I/X/Z/W nor a gate call", tok.pos
            )
        raise ParseError(f"expected a word, gate, or '(', found {tok.text or 'end of input'!r}", tok.pos)

    def parse_gate_call(self, name: _Token) -> Gate:
        self.expect("LPAREN", "'('")
        args: list[Arg] = []
        if self.cur.kind != "RPAREN":
            while True:
                args.append(self.parse_arg())
                if self.cur.kind != "COMMA":
                    break
                self.advance()
        self.expect("RPAREN", "')'")
        return Gate(name.text, tuple(args), name.pos)

    def parse_arg(self) -> Arg:
        neg = False
        pos = self.cur.pos
        if self.cur.kind == "MINUS":
            neg = True
            self.advance()
        if not self._at_scalar():
            raise ParseError("gate arguments are scalars", self.cur.pos)
        scalar = self.parse_scalar()
        text = ("-" if neg else "") + scalar.text
        return Arg(text, -scalar.value if neg else scalar.value, pos)


def parse(source: str) -> Expr:
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# canonical printing

_PREC = {Sum: 1, Difference: 1, Product: 2, Scaled: 2, Tensor: 3}


def format_expr(node: Expr) -> str:
    return _fmt(node, 0)


def _fmt(node: Expr, min_prec: int) -> str:
    prec = _PREC.get(type(node), 9)
    if isinstance(node, Scalar):
        body = node.text
    elif isinstance(node, Word):
        body = node.label
    elif isinstance(node, Gate):
        body = f"{node.name.upper()}({','.join(a.text for a in node.args)})"
    elif isinstance(node, Sum):
        body = f"{_fmt(node.left, 1)} + {_fmt(node.right, 2)}"
    elif isinstance(node, Difference):
        body = f"{_fmt(node.left, 1)} - {_fmt(node.right, 2)}"
    elif isinstance(node, Product):
        body = f"{_fmt(node.left, 2)}*{_fmt(node.right, 3)}"
    elif isinstance(node, Scaled):
        body = f"{node.scalar.text}*{_fmt(node.operand, 3)}"
    else:  # Tensor
        body = f"{_fmt(node.left, 3)}(x){_fmt(node.right, 4)}"
    return f"({body})" if prec < min_prec else body


# ---------------------------------------------------------------------------
# evaluation

_Value = Union[float, ComplexNqaOperator]

_SLOT_ONLY = {"H", "X", "Z", "W", "S", "T", "P0", "P1"}
_ANGLE_SLOT = {"RY", "ROT", "REF"}
_TWO_SLOT = {"CZ", "CNOT", "SWAP", "PI_EVEN", "PI_ODD"}


def evaluate(source: str | Expr) -> NqaOperator:
    """Evaluate to a real operator; complex leftovers are an error."""
    node = parse(source) if isinstance(source, str) else source
    value = _eval(node)
    if isinstance(value, float):
        raise EvaluationError("expression denotes a bare scalar, not an operator")
    if not value.is_real():
        raise EvaluationError(
            "expression evaluates to a complex operator; phaseful gates must "
            "appear in combinations whose imaginary part cancels"
        )
    return value.re


def _eval(node: Expr) -> _Value:
    if isinstance(node, Scalar):
        return node.value
    if isinstance(node, Word):
        return ComplexNqaOperator.from_real(NqaOperator.from_label(node.label))
    if isinstance(node, Gate):
        return _eval_gate(node)
    if isinstance(node, (Sum, Difference)):
        lhs = _eval(node.left)
        rhs = _eval(node.right)
        if isinstance(lhs, float) and isinstance(rhs, float):
            return lhs + rhs if isinstance(node, Sum) else lhs - rhs
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise EvaluationError("cannot add a scalar and an operator", node.pos)
        _match_m(lhs, rhs, node.pos)
        return lhs + rhs if isinstance(node, Sum) else lhs - rhs
    if isinstance(node, Product):
        lhs = _eval(node.left)
        rhs = _eval(node.right)
        if isinstance(lhs, float) and isinstance(rhs, float):
            return lhs * rhs
        if isinstance(lhs, float):
            return lhs * rhs
        if isinstance(rhs, float):
            return rhs * lhs
        _match_m(lhs, rhs, node.pos)
        return lhs @ rhs
    if isinstance(node, Scaled):
        operand = _eval(node.operand)
        if isinstance(operand, float):
            return node.scalar.value * operand
        return node.scalar.value * operand
    # Tensor
    lhs = _eval(node.left)
    rhs = _eval(node.right)
    if isinstance(lhs, float) or isinstance(rhs, float):
        raise EvaluationError("tensor needs operators on both sides", node.pos)
    return lhs.tensor(rhs)


def _match_m(lhs: ComplexNqaOperator, rhs: ComplexNqaOperator, pos: int) -> None:
    if lhs.m != rhs.m:
        raise EvaluationError(f"operands act on {lhs.m} and {rhs.m} slots", pos)


def _as_complex(value) -> ComplexNqaOperator:
    if isinstance(value, ComplexNqaOperator):
        return value
    if isinstance(value, (FactoredOperator, Reflection)):
        return ComplexNqaOperator.from_real(value.expand())
    return ComplexNqaOperator.from_real(value)


def _int_arg(arg: Arg, what: str) -> int:
    if not arg.value.is_integer() or arg.value < 0:
        raise EvaluationError(f"{what} must be a nonnegative integer", arg.pos)
    return int(arg.value)


def _slots_and_m(name: str, args: tuple[Arg, ...], slot_count: int, pos: int) -> tuple[list[int], int]:
    if len(args) == slot_count:
        slots = [_int_arg(a, "slot") for a in args]
        return slots, max(slots)
    if len(args) == slot_count + 1:
        slots = [_int_arg(a, "slot") for a in args[:-1]]
        return slots, _int_arg(args[-1], "register size")
    raise EvaluationError(
        f"gate {name} takes {slot_count} slot(s) plus an optional register size, "
        f"got {len(args)} argument(s)",
        pos,
    )


def _eval_gate(node: Gate) -> ComplexNqaOperator:
    key = node.name.upper()
    args = node.args
    try:
        if key == "BELL":
            _need(key, args, 0, node.pos)
            return _as_complex(bell_transform())
        if key == "MCZ":
            if not args:
                raise EvaluationError("MCZ needs control slots", node.pos)
            controls = [_int_arg(a, "control slot") for a in args]
            return _as_complex(mcz(controls, max(controls)))
        if key in ("ISWAP", "SQRTSWAP"):
            _need(key, args, 0, node.pos)
            return _as_complex(lifted_gate(key))
        if key == "CPHASE":
            _need(key, args, 1, node.pos)
            return _as_complex(lifted_gate(key, args[0].value))
        if key == "CARTAN":
            _need(key, args, 3, node.pos)
            return _as_complex(lifted_gate(key, *(a.value for a in args)))
        if key == "RZ" and len(args) == 1:
            return _as_complex(lifted_gate("RZ", args[0].value))
        if key in _SLOT_ONLY:
            slots, m = _slots_and_m(key, args, 1, node.pos)
            return _as_complex(single_gate(key, slots[0], m))
        if key == "RZ" or key in _ANGLE_SLOT:
            if not args:
                raise EvaluationError(f"gate {key} needs an angle", node.pos)
            slots, m = _slots_and_m(key, args[1:], 1, node.pos)
            return _as_complex(single_gate(key, slots[0], m, args[0].value))
        if key in _TWO_SLOT:
            slots, m = _slots_and_m(key, args, 2, node.pos)
            return _as_complex(two_gate(key, tuple(slots), m))
        if key in ("BASIS_PROJECTOR", "PROJ"):
            if not args:
                raise EvaluationError(f"{key} needs a bit pattern", node.pos)
            bits = args[0].text
            slots, m = _slots_and_m(key, args[1:], 2, node.pos)
            return _as_complex(two_gate("BASIS_PROJECTOR", tuple(slots), m, bits))
    except EvaluationError:
        raise
    except ValueError as exc:
        raise EvaluationError(str(exc), node.pos) from exc
    raise EvaluationError(f"unknown gate {node.name!r}", node.pos)


def _need(name: str, args: tuple[Arg, ...], count: int, pos: int) -> None:
    if len(args) != count:
        raise EvaluationError(f"gate {name} takes {count} argument(s), got {len(args)}", pos)
