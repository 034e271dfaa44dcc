"""Parser and evaluator for coefficient expressions in the variables s, t.

Grammar (EBNF, also shipped in docs/grammar.ebnf):

    expr    = term   { ("+" | "-") term } ;
    term    = unary  { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus, so
"-2^2" is -(2^2) = -4.  There is no implicit multiplication: "2s" is a
syntax error.  NAME is a variable (s or t), a known function
(sin, cos, exp, log, sqrt, abs), or a free parameter bound at evaluation
time.  Whitespace is insignificant.  NUMBER must be a finite double: a
literal that overflows, such as 1e999, is a syntax error.

Evaluation is plain IEEE double arithmetic.  An expression is compiled
once (compile_expr) into generated straight-line Python code, one
statement group per node, which performs the same IEEE operations in the
same order as a walk of the tree, so compiling changes no result bit.
The generated source holds no literal or parameter value: those are bound
on every compile, and the compiled code is cached per tree.  Domain
violations (log of a nonpositive value, division by zero, fractional
power of a negative base, overflow to infinity) raise EvalError naming
the offending subexpression instead of propagating silent NaNs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "CoeffExpr",
    "ParseError",
    "EvalError",
    "PositivityReport",
    "parse",
    "to_text",
    "compile_expr",
    "check_param_values",
    "eval_expr",
    "eval_array",
    "positivity_scan",
    "FUNCTIONS",
    "VARIABLES",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
VARIABLES = ("s", "t")


class ParseError(ValueError):
    """Syntax error with byte offset and the set of tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        text = f"{message} at offset {offset}"
        if expected:
            text += " (expected " + " | ".join(expected) + ")"
        super().__init__(text)


class EvalError(ValueError):
    """Evaluation failure; carries the offending subexpression as text."""

    def __init__(self, message: str, subexpr: "Node | None" = None):
        self.subexpr = subexpr
        if subexpr is not None:
            message += f" in subexpression '{_print(subexpr)}'"
        super().__init__(message)


# ----------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Name, Neg, Bin, Call]


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient expression over {s, t} and named parameters."""

    ast: Node

    def text(self) -> str:
        return _print(self.ast)

    def free_names(self) -> frozenset[str]:
        return frozenset(node.ident for node in _postorder(self.ast, [])
                         if isinstance(node, Name))

    def free_parameters(self) -> frozenset[str]:
        return frozenset(n for n in self.free_names() if n not in VARIABLES)


# ----------------------------------------------------------------------
# tokenizer

_OPS = "+-*/^"


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | lparen | rparen | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number out of range '{text}'", i)
            tokens.append(_Token("number", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ----------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.offset, expected)

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset,
                                     FUNCTIONS)
                self.advance()
                arg = self.expr()
                if self.peek().kind != "rparen":
                    self.fail(("')'",))
                self.advance()
                return Call(tok.text, arg)
            if tok.text in FUNCTIONS:
                raise ParseError(f"function {tok.text!r} needs an argument list",
                                 tok.offset, ("'('",))
            return Name(tok.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            if self.peek().kind != "rparen":
                self.fail(("')'",))
            self.advance()
            return node
        self.fail(("number", "name", "'('", "'-'"))


def parse(src: str) -> CoeffExpr:
    """Parse source text into a CoeffExpr; raises ParseError with position."""
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    if parser.peek().kind != "end":
        parser.fail(("operator", "end of input"))
    return CoeffExpr(ast=node)


# ----------------------------------------------------------------------
# printer (output reparses to a structurally identical tree)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


def _print(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Neg):
        inner = _print(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        op = node.op
        lp, rp = _prec(node.left), _prec(node.right)
        left = _print(node.left)
        right = _print(node.right)
        if op == "^":
            # right-associative: parenthesize any left child at or below ^
            if lp <= _PREC["^"]:
                left = f"({left})"
            if rp < _PREC["^"]:
                right = f"({right})"
        else:
            if lp < _PREC[op]:
                left = f"({left})"
            if rp <= _PREC[op]:
                right = f"({right})"
        return f"{left} {op} {right}" if op in "+-" else f"{left}{op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def to_text(expr: CoeffExpr) -> str:
    return expr.text()


# ----------------------------------------------------------------------
# evaluation


_Fn = Callable[[float, float], float]

# what generated code calls; every other name it reads is an argument (s,
# t), a temporary, or a slot bound per compile_expr call (see _generate)
_RUNTIME = {"_EvalError": EvalError, "_isinf": math.isinf, "_isfinite": math.isfinite,
            "_floor": math.floor, "_pow": math.pow, "_log": math.log, "_sqrt": math.sqrt,
            "_exp": math.exp, "_sin": math.sin, "_cos": math.cos, "_abs": abs}


def compile_expr(expr: CoeffExpr, params: dict[str, float] | None = None,
                 variables: tuple[str, ...] = VARIABLES) -> _Fn:
    """Compile expr once into a function f(s, t) -> float of two floats.

    Names in ``variables`` are read from the arguments; every other name is
    bound from params now, converted by float(), and an unbound one raises
    EvalError when f reaches it.  f is generated straight-line code, one
    statement group per node in evaluation order, so it makes the same math
    calls and float operations, in the same order, as evaluating the tree
    node by node, and raises the same EvalError (message and subexpression)
    at the same point; like eval_expr, it rejects a non-finite result.

    The generated source depends only on the tree's shape, ``variables`` and
    which names params binds; literals, parameter values and the nodes named
    in errors reach f through its globals, bound afresh on every call.  The
    compiled code is cached on (tree, variables, bound names), so compiling
    the same expression again costs one tree walk and no compile().
    """
    env = params or {}
    nodes = _postorder(expr.ast, [])
    code, slots = _generate(expr.ast, tuple(variables), frozenset(env))
    scope = dict(_RUNTIME)
    scope.update((f"n{i}", node) for i, node in enumerate(nodes))
    for i in slots:
        node = nodes[i]
        scope[f"k{i}"] = node.value if isinstance(node, Num) else float(env[node.ident])
    exec(code, scope)
    return scope["_f"]


def check_param_values(params: dict[str, float]) -> None:
    """Raise ValueError naming the first parameter that is not a finite number.

    A non-finite value would reach math calls that raise outside the
    EvalError contract (sin(inf) is a bare "math domain error").
    """
    for name, value in params.items():
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"parameter {name!r} must be a finite number, got {value!r}")


def eval_expr(expr: CoeffExpr, s: float | None = None, t: float | None = None,
              params: dict[str, float] | None = None) -> float:
    """Evaluate at (s, t) with all free parameters bound.

    Raises EvalError for unbound names, domain violations and non-finite
    results; the message carries the offending subexpression.
    """
    env = dict(params or {})
    if s is not None:
        env["s"] = float(s)
    if t is not None:
        env["t"] = float(t)
    # every name, s and t included, is bound from env; the arguments are unused
    return compile_expr(expr, env, variables=())(s, t)


def _postorder(node: Node, out: list) -> list:
    """The nodes of a tree in evaluation order: children left to right, then the node."""
    if isinstance(node, Neg):
        _postorder(node.operand, out)
    elif isinstance(node, Bin):
        _postorder(node.left, out)
        _postorder(node.right, out)
    elif isinstance(node, Call):
        _postorder(node.arg, out)
    elif not isinstance(node, (Num, Name)):
        raise TypeError(f"not an expression node: {node!r}")
    out.append(node)
    return out


@functools.lru_cache(maxsize=256)
def _generate(ast: Node, variables: tuple[str, ...],
              bound: frozenset) -> tuple[object, tuple[int, ...]]:
    """Code defining ``_f(s, t)`` for one tree, and the indices of its value slots.

    Node i of the evaluation order is global ``n{i}``; its result is local
    ``v{i}``, or for a leaf the argument or value slot ``k{i}`` itself.
    Every check, operation and error below mirrors one step of a node-by-node
    evaluation, in the same order.
    """
    nodes = _postorder(ast, [])
    lines: list[str] = []
    slots: list[int] = []
    stack: list[str] = []
    for i, node in enumerate(nodes):
        n, v = f"n{i}", f"v{i}"
        if isinstance(node, Num):
            slots.append(i)
            stack.append(f"k{i}")
            continue
        if isinstance(node, Name):
            if node.ident in variables:
                stack.append("s" if node.ident == "s" else "t")
            elif node.ident in bound:
                slots.append(i)
                stack.append(f"k{i}")
            else:
                lines.append(f"raise _EvalError(f'unbound parameter {{{n}.ident!r}}', {n})")
                stack.append(v)
            continue
        if isinstance(node, Neg):
            lines.append(f"{v} = -{stack.pop()}")
        elif isinstance(node, Call):
            x = stack.pop()
            if node.func == "log":
                lines += [f"if {x} <= 0.0:",
                          f"    raise _EvalError(f'log of nonpositive value {{{x}!r}}', {n})",
                          f"{v} = _log({x})"]
            elif node.func == "sqrt":
                lines += [f"if {x} < 0.0:",
                          f"    raise _EvalError(f'sqrt of negative value {{{x}!r}}', {n})",
                          f"{v} = _sqrt({x})"]
            elif node.func == "exp":
                lines += ["try:",
                          f"    {v} = _exp({x})",
                          "except OverflowError:",
                          f"    raise _EvalError(f'exp overflow at argument {{{x}!r}}', {n}) from None"]
            elif node.func in ("sin", "cos", "abs"):
                lines.append(f"{v} = _{node.func}({x})")
            else:
                lines.append(f"raise _EvalError(f'unknown function {{{n}.func!r}}', {n})")
        else:  # Bin
            b = stack.pop()
            a = stack.pop()
            if node.op in ("+", "-", "*"):
                step = [f"{v} = {a} {node.op} {b}"]
            elif node.op == "/":
                lines += [f"if {b} == 0.0:",
                          f"    raise _EvalError('division by zero', {n})"]
                step = [f"{v} = {a} / {b}"]
            elif node.op == "^":
                lines += [f"if {a} == 0.0 and {b} < 0.0:",
                          f"    raise _EvalError('zero raised to a negative power', {n})"]
                # floor raises OverflowError for an infinite exponent
                step = [f"if {a} < 0.0 and {b} != _floor({b}):",
                        f"    raise _EvalError(f'negative base {{{a}!r}} with non-integer "
                        f"exponent {{{b}!r}}', {n})",
                        f"{v} = _pow({a}, {b})"]
            else:
                lines.append(f"raise _EvalError(f'unknown operator {{{n}.op!r}}', {n})")
                stack.append(v)
                continue
            lines += ["try:", *("    " + line for line in step),
                      "except OverflowError:",
                      f"    raise _EvalError('overflow', {n}) from None",
                      f"if _isinf({v}):",
                      f"    raise _EvalError('overflow to infinity', {n})"]
        stack.append(v)
    result, root = stack.pop(), f"n{len(nodes) - 1}"
    lines += [f"if not _isfinite({result}):",
              f"    raise _EvalError(f'non-finite result {{{result}!r}}', {root})",
              f"return {result}"]
    source = "def _f(s, t):\n" + "".join(f"    {line}\n" for line in lines)
    return compile(source, "<coefficient expression>", "exec"), tuple(slots)


def eval_array(expr: CoeffExpr, s=None, t=None,
               params: dict[str, float] | None = None) -> np.ndarray:
    """Vectorized evaluation on numpy arrays.

    Domain violations surface as NaN/inf in the result instead of raising
    (invalid-operation warnings are suppressed); callers scanning grids
    inspect finiteness themselves.  Unbound names still raise EvalError.
    The result has the broadcast shape of s and t, also when the
    expression uses neither.
    """
    env: dict[str, object] = dict(params or {})
    if s is not None:
        env["s"] = np.asarray(s, dtype=float)
    if t is not None:
        env["t"] = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = np.asarray(_eval_np(expr.ast, env), dtype=float)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (s, t) if v is not None))
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "sqrt": np.sqrt, "abs": np.abs}


def _eval_np(node: Node, env: dict[str, object]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        try:
            return env[node.ident]
        except KeyError:
            raise EvalError(f"unbound parameter {node.ident!r}", node) from None
    if isinstance(node, Neg):
        return -_eval_np(node.operand, env)
    if isinstance(node, Call):
        return _NP_FUNCS[node.func](_eval_np(node.arg, env))
    if isinstance(node, Bin):
        a = _eval_np(node.left, env)
        b = _eval_np(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return np.power(a, b)
    raise TypeError(f"not an expression node: {node!r}")


# ----------------------------------------------------------------------
# positivity scan


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    counterexample: tuple[float, float] | None = None
    value: float | None = None


def positivity_scan(expr: CoeffExpr, params: dict[str, float] | None,
                    s_range: tuple[float, float], t_range: tuple[float, float],
                    n: int = 32) -> PositivityReport:
    """Probe positivity on an n x n log-spaced grid over s_range x t_range.

    Advisory only: a passing scan cannot prove positivity.  The first
    nonpositive or non-finite grid value is returned as a counterexample;
    unbound parameters raise EvalError.
    """
    if n < 2:
        raise ValueError("grid size n must be at least 2")
    for name, (lo, hi) in (("s", s_range), ("t", t_range)):
        if not (0.0 < lo < hi):
            raise ValueError(f"{name}_range must satisfy 0 < lo < hi, got {(lo, hi)!r}")
    s_vals = np.geomspace(s_range[0], s_range[1], n)
    t_vals = np.geomspace(t_range[0], t_range[1], n)
    ss, tt = np.meshgrid(s_vals, t_vals, indexing="ij")
    out = eval_array(expr, ss, tt, params)
    bad = ~np.isfinite(out) | (out <= 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return PositivityReport(ok=False,
                                counterexample=(float(s_vals[i]), float(t_vals[j])),
                                value=float(out[i, j]))
    return PositivityReport(ok=True)
