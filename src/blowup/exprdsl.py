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

Evaluation is plain IEEE double arithmetic, in code generated from one
plan of the tree for two targets (_generate).  The scalar target
(compile_expr, eval_expr) is straight-line Python, one statement group per
node, performing the same IEEE operations in the same order as a walk of
the tree; a domain violation (log of a nonpositive value, division by
zero, fractional power of a negative base, overflow to infinity) raises
EvalError naming the offending subexpression instead of propagating a
silent NaN.  The array target (eval_array) makes one numpy operation per
node and raises nothing but for an unbound name: it gives NaN where the
scalar target raises for division by zero, zero to a negative power or
log of a nonpositive value, and +-inf only for overflow.  Generated code
holds no literal or parameter value: it is cached per tree shape, and
each use binds its own tree's literals and parameters.
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
# t), a temporary, or a node or slot its factory binds (see _generate)
_RUNTIME = {"_EvalError": EvalError, "_isinf": math.isinf, "_isfinite": math.isfinite,
            "_floor": math.floor, "_pow": math.pow, "_log": math.log, "_sqrt": math.sqrt,
            "_exp": math.exp, "_sin": math.sin, "_cos": math.cos, "_abs": abs,
            "_np": np, "_nan": math.nan}

# domain points as (operand index, test) terms and a message: where every
# term holds, the scalar target raises EvalError and the array target NaN
_DOMAIN = {"/": (((1, "== 0.0"),), "'division by zero'"),
           "^": (((0, "== 0.0"), (1, "< 0.0")), "'zero raised to a negative power'"),
           "log": (((0, "<= 0.0"),), "f'log of nonpositive value {{{0}!r}}'")}


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

    The generated code depends only on the tree's shape, ``variables`` and
    which names params binds, and is cached on them; its factory reads the
    literals, parameter values and nodes named in errors from this tree and
    params, so compiling the same expression again makes no compile().
    """
    env = params or {}
    _, make = _generate(expr.ast, tuple(variables), frozenset(env))
    return make(expr.ast, env)


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


def eval_array(expr: CoeffExpr, s=None, t=None,
               params: dict[str, float] | None = None) -> np.ndarray:
    """Vectorized evaluation on numpy arrays, by generated numpy code.

    Only an unbound name raises (EvalError).  A domain violation gives NaN
    (warnings are suppressed; callers scanning grids inspect finiteness
    themselves), and +-inf means overflow.  The result has the broadcast
    shape of s and t, also when the expression uses neither.
    """
    env = params or {}
    s = None if s is None else np.asarray(s, dtype=float)
    t = None if t is None else np.asarray(t, dtype=float)
    variables = ("s",) * (s is not None) + ("t",) * (t is not None)
    _, make = _generate(expr.ast, variables, frozenset(env), True)
    with np.errstate(all="ignore"):
        out = np.asarray(make(expr.ast, env)(s, t), dtype=float)
    shape = np.broadcast(*[x for x in (s, t) if x is not None]).shape
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


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
def _generate(ast: Node, variables: tuple[str, ...], bound: frozenset,
              array: bool = False) -> tuple[object, Callable]:
    """Code for one tree in one target, and the factory ``_make(e, env)`` it defines.

    The plan is shared: node i of the evaluation order is local ``n{i}`` of
    _make, read from its parent (the root is e); a literal or a name in
    ``bound`` is slot ``k{i}`` (its value, or float(env[name])); a name in
    ``variables`` is the argument s or t of the ``_f(s, t)`` that _make
    returns; any other name raises EvalError where _f reaches it.  Every
    other node is one statement group of _f, with result ``v{i}``.  The
    scalar target mirrors each step of a node-by-node float evaluation,
    check for check.  The array target makes one numpy operation per node
    and answers NaN at the _DOMAIN points, elementwise where s or t lies
    below the operand tested.
    """
    nodes = _postorder(ast, [])
    links, slots, body = [], [], []
    stack: list[tuple[int, str]] = []
    arrays: set[str] = set()
    for i, node in enumerate(nodes):
        n, v = f"n{i}", f"v{i}"
        ident = getattr(node, "ident", None)
        if ident in variables:
            v = "s" if ident == "s" else "t"
            arrays.add(v)
        elif isinstance(node, Num) or ident in bound:
            v = f"k{i}"
            slots.append(f"{v} = {n}.value" if ident is None else f"{v} = float(env[{n}.ident])")
        elif ident is not None:
            body.append(f"raise _EvalError(f'unbound parameter {{{n}.ident!r}}', {n})")
        else:
            fields = {Bin: ("left", "right"), Neg: ("operand",), Call: ("arg",)}[type(node)]
            children = stack[-len(fields):]
            del stack[-len(fields):]
            links += [f"n{j} = {n}.{field}" for field, (j, _) in zip(fields, children)]
            ops = [x for _, x in children]
            if isinstance(node, Call) and node.func not in FUNCTIONS:
                body.append(f"raise _EvalError(f'unknown function {{{n}.func!r}}', {n})")
            elif isinstance(node, Bin) and node.op not in _OPS:
                body.append(f"raise _EvalError(f'unknown operator {{{n}.op!r}}', {n})")
            elif array:
                body.append(f"{v} = {_array_step(node, ops, arrays)}")
                if arrays.intersection(ops):
                    arrays.add(v)
            else:
                body += _scalar_step(node, n, v, ops)
        stack.append((i, v))
    result, root = stack.pop()[1], f"n{len(nodes) - 1}"
    if not array:
        body += [f"if not _isfinite({result}):",
                 f"    raise _EvalError(f'non-finite result {{{result}!r}}', {root})"]
    # reversed, the links bind each parent before its children
    source = "".join([f"def _make(e, env):\n    {root} = e\n",
                      *(f"    {line}\n" for line in [*reversed(links), *slots]),
                      "    def _f(s, t):\n", *(f"        {line}\n" for line in body),
                      f"        return {result}\n    return _f\n"])
    code = compile(source, "<coefficient expression>", "exec")
    scope = dict(_RUNTIME)
    exec(code, scope)
    return code, scope["_make"]


def _scalar_step(node: Node, n: str, v: str, ops: list[str]) -> list[str]:
    """Scalar target: the statements of one Neg, Call or Bin node."""
    a, b = ops[0], ops[-1]
    if isinstance(node, Neg):
        return [f"{v} = -{a}"]
    key = node.func if isinstance(node, Call) else node.op
    check = []
    if key in _DOMAIN:
        terms, message = _DOMAIN[key]
        check = ["if " + " and ".join(f"{ops[k]} {test}" for k, test in terms) + ":",
                 f"    raise _EvalError({message.format(*ops)}, {n})"]
    if key == "log":
        return check + [f"{v} = _log({a})"]
    if key == "sqrt":
        return [f"if {a} < 0.0:",
                f"    raise _EvalError(f'sqrt of negative value {{{a}!r}}', {n})",
                f"{v} = _sqrt({a})"]
    if key == "exp":
        return ["try:",
                f"    {v} = _exp({a})",
                "except OverflowError:",
                f"    raise _EvalError(f'exp overflow at argument {{{a}!r}}', {n}) from None"]
    if isinstance(node, Call):
        return [f"{v} = _{key}({a})"]
    step = [f"{v} = {a} {key} {b}"]
    if key == "^":
        # floor raises OverflowError for an infinite exponent
        step = [f"if {a} < 0.0 and {b} != _floor({b}):",
                f"    raise _EvalError(f'negative base {{{a}!r}} with non-integer "
                f"exponent {{{b}!r}}', {n})",
                f"{v} = _pow({a}, {b})"]
    return check + ["try:", *("    " + line for line in step),
                    "except OverflowError:",
                    f"    raise _EvalError('overflow', {n}) from None",
                    f"if _isinf({v}):",
                    f"    raise _EvalError('overflow to infinity', {n})"]


def _array_step(node: Node, ops: list[str], arrays: set[str]) -> str:
    """Array target: the numpy expression of one Neg, Call or Bin node."""
    if isinstance(node, Neg):
        return f"-{ops[0]}"
    key = node.func if isinstance(node, Call) else node.op
    expr = (f"_np.{key}({ops[0]})" if isinstance(node, Call) else
            f"_np.power({ops[0]}, {ops[1]})" if key == "^" else f"{ops[0]} {key} {ops[1]}")
    if key not in _DOMAIN:
        return expr
    # NaN where every term holds: one test of a scalar operand, an
    # elementwise one of an array
    terms = [(ops[k], test) for k, test in _DOMAIN[key][0]]
    each = " & ".join(f"({x} {test})" for x, test in terms if x in arrays)
    once = " and ".join(f"{x} {test}" for x, test in terms if x not in arrays)
    nan = f"_np.where({each}, _nan, {expr})" if each else "_nan"
    return f"{nan} if {once} else {expr}" if once else nan


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
