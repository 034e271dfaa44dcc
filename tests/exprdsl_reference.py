"""The tree-walking evaluators that generated coefficient code replaced.

Kept as the references that `exprdsl.compile_expr`, `exprdsl.eval_array`
and `bifurcation`'s scalar g kernel are compared against, bit for bit and
error for error.
"""

import math

import numpy as np

from blowup.bifurcation import CoefficientError
from blowup.exprdsl import Bin, Call, EvalError, Name, Neg, Num


def reference_eval_expr(expr, s=None, t=None, params=None) -> float:
    env = dict(params or {})
    if s is not None:
        env["s"] = float(s)
    if t is not None:
        env["t"] = float(t)
    value = _eval(expr.ast, env)
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r}", expr.ast)
    return value


def reference_g_of_s(spec, table, s: float) -> float:
    """g(s) as computed before the scalar kernel, evaluating by tree walk."""
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"g is defined for finite s > 0, got {s!r}")
    n1 = table.n_q1
    t1a, s2a, t2a = table.m_r1 / n1 * s, table.n_q2 / n1 * s, table.m_r2 / n1 * s
    bound = spec.bound_params()
    try:
        a_val = reference_eval_expr(spec.A, s, t1a, bound)
    except EvalError as exc:
        raise CoefficientError("A", s, t1a, str(exc)) from exc
    try:
        b_val = reference_eval_expr(spec.B, s2a, t2a, bound)
    except EvalError as exc:
        raise CoefficientError("B", s2a, t2a, str(exc)) from exc
    if a_val <= 0.0:
        raise CoefficientError("A", s, t1a, f"nonpositive value {a_val!r}")
    if b_val <= 0.0:
        raise CoefficientError("B", s2a, t2a, f"nonpositive value {b_val!r}")
    return s ** (1.0 - spec.p) * a_val / b_val


def _eval(node, env: dict[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        try:
            return float(env[node.ident])
        except KeyError:
            raise EvalError(f"unbound parameter {node.ident!r}", node) from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        if node.func == "log":
            if arg <= 0.0:
                raise EvalError(f"log of nonpositive value {arg!r}", node)
            return math.log(arg)
        if node.func == "sqrt":
            if arg < 0.0:
                raise EvalError(f"sqrt of negative value {arg!r}", node)
            return math.sqrt(arg)
        if node.func == "exp":
            try:
                return math.exp(arg)
            except OverflowError:
                raise EvalError(f"exp overflow at argument {arg!r}", node) from None
        if node.func == "sin":
            return math.sin(arg)
        if node.func == "cos":
            return math.cos(arg)
        if node.func == "abs":
            return abs(arg)
        raise EvalError(f"unknown function {node.func!r}", node)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        try:
            if node.op == "+":
                out = a + b
            elif node.op == "-":
                out = a - b
            elif node.op == "*":
                out = a * b
            elif node.op == "/":
                if b == 0.0:
                    raise EvalError("division by zero", node)
                out = a / b
            elif node.op == "^":
                if a == 0.0 and b < 0.0:
                    raise EvalError("zero raised to a negative power", node)
                if a < 0.0 and b != math.floor(b):
                    raise EvalError(
                        f"negative base {a!r} with non-integer exponent {b!r}", node)
                out = math.pow(a, b)
            else:
                raise EvalError(f"unknown operator {node.op!r}", node)
        except OverflowError:
            raise EvalError("overflow", node) from None
        if math.isinf(out):
            raise EvalError("overflow to infinity", node)
        return out
    raise TypeError(f"not an expression node: {node!r}")


def reference_eval_array(expr, s=None, t=None, params=None):
    """eval_array by the recursive numpy walk, NaN at the domain points."""
    env = dict(params or {})
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


def _nan_where(cond, value):
    """value, but NaN where the scalar evaluator raises: a domain point."""
    if np.ndim(cond):
        return np.where(cond, np.nan, value)
    return np.nan if cond else value


def _eval_np(node, env):
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
        arg = _eval_np(node.arg, env)
        value = _NP_FUNCS[node.func](arg)
        return _nan_where(arg <= 0.0, value) if node.func == "log" else value
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
            return _nan_where(b == 0.0, np.divide(a, b))
        return _nan_where((a == 0.0) & (b < 0.0), np.power(a, b))
    raise TypeError(f"not an expression node: {node!r}")
