"""The benchmark's own Lisp grammar: seeded form generators and an
independent reference evaluator.

Every request the benchmark sends is built here, and its expected
output is computed here by a small Python reader and evaluator that
shares no code with the system under test. The grammar is a subset of
CuLi: integers, tenant variables, ``+ - * /``, ``< >`` inside ``if``,
``list``/``car``/``cons``, ``setq`` and one-parameter ``defun``.

A deliberate share of requests are Lisp errors (see ``ERROR_KINDS``).
Their expected result is the error, named by a fragment of CuLi's
message, so a run checks that the error path was taken for the right
reason.
"""

from __future__ import annotations

import random
import re

#: Deliberate Lisp errors, kind -> form template. The reference names
#: each by a fragment of CuLi's message (see ``_builtin``).
ERROR_KINDS = {
    "cons-pair": "(car (cons {a} {b}))",
    "div-zero": "(/ {a} 0)",
    "car-nil": "(+ {a} (car nil))",
}


class RefError(Exception):
    """A Lisp error the reference predicts; ``fragment`` names it."""

    def __init__(self, fragment: str) -> None:
        super().__init__(fragment)
        self.fragment = fragment


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def read(text: str):
    """Parse one form into nested Python lists of int / str atoms."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def form():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(form())
            pos += 1
            return items
        try:
            return int(tok)
        except ValueError:
            return tok

    result = form()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return result


class Tenant:
    """One tenant's persistent REPL state, as the reference sees it."""

    def __init__(self) -> None:
        self.vars: dict[str, int] = {}
        self.funcs: dict[str, tuple[str, object]] = {}

    def run(self, text: str):
        """Evaluate one command; return its printed output, or raise
        :class:`RefError` for a predicted Lisp error."""
        return render(self.eval(read(text), {}))

    def eval(self, f, local: dict):
        if isinstance(f, int):
            return f
        if isinstance(f, str):
            if f == "nil":
                return []
            if f in local:
                return local[f]
            return self.vars[f]
        head, args = f[0], f[1:]
        if head == "setq":
            value = None
            for name, expr in zip(args[::2], args[1::2]):
                value = self.eval(expr, local)
                self.vars[name] = value
            return value
        if head == "defun":
            name, params, body = args
            self.funcs[name] = (params[0], body)
            return name
        if head == "if":
            test = self.eval(args[0], local)
            return self.eval(args[1] if test else args[2], local)
        values = [self.eval(a, local) for a in args]
        if head in self.funcs:
            param, body = self.funcs[head]
            return self.eval(body, {param: values[0]})
        return _builtin(head, values)


def _number(x):
    if not isinstance(x, int) or isinstance(x, bool):
        raise RefError("expected a number")
    return x


def _builtin(head: str, values: list):
    if head == "+":
        return sum(_number(v) for v in values)
    if head == "*":
        out = 1
        for v in values:
            out *= _number(v)
        return out
    if head == "-":
        if len(values) == 1:
            return -_number(values[0])
        out = _number(values[0])
        for v in values[1:]:
            out -= _number(v)
        return out
    if head == "/":
        if _number(values[1]) == 0:
            raise RefError("division by zero")
        raise ValueError("the grammar only divides by zero")
    if head == "<":
        return _number(values[0]) < _number(values[1])
    if head == ">":
        return _number(values[0]) > _number(values[1])
    if head == "list":
        return list(values)
    if head == "cons":
        if not isinstance(values[1], list):
            raise RefError("second argument must be a list")
        return [values[0]] + values[1]
    if head == "car":
        if not isinstance(values[0], list):
            raise RefError("car of a non-list")
        return values[0][0] if values[0] else []
    raise ValueError(f"{head!r} is outside the benchmark grammar")


def render(value) -> str:
    """Print a value the way CuLi's REPL does."""
    if value is True:
        return "T"
    if value is False or value == []:
        return "nil"
    if isinstance(value, list):
        return "(" + " ".join(render(v) for v in value) + ")"
    return str(value)


def expected(tenant: Tenant, text: str) -> tuple[bool, str]:
    """``(True, output)`` for a clean result, ``(False, fragment)`` for a
    predicted Lisp error. Updates ``tenant`` like the REPL would."""
    try:
        return True, tenant.run(text)
    except RefError as err:
        return False, err.fragment


# -- seeded form generators --------------------------------------------------------


def cheap_form(rng: random.Random) -> str:
    """A small stateless command, the common interactive case."""
    a, b, c = rng.randint(1, 99), rng.randint(1, 99), rng.randint(1, 99)
    return rng.choice(
        [
            f"(+ {a} {b})",
            f"(* {a} {b})",
            f"(- {a} {b})",
            f"(if (< {a} {b}) {a} {b})",
            f"(car (list {a} {b} {c}))",
        ]
    )


def heavy_form(rng: random.Random, depth: int, leaf: str = "") -> str:
    """Nested arithmetic ``depth`` levels deep (service demand grows
    with depth); ``leaf`` replaces the innermost literal."""
    expr = leaf or str(rng.randint(1, 9))
    for _ in range(depth):
        expr = f"({rng.choice(['+', '*'])} {rng.randint(1, 9)} {expr})"
    return expr


def error_form(rng: random.Random) -> str:
    """One deliberate Lisp error, kind drawn from ``ERROR_KINDS``."""
    kind = rng.choice(sorted(ERROR_KINDS))
    return ERROR_KINDS[kind].format(a=rng.randint(1, 99), b=rng.randint(1, 99))


def stateful_form(rng: random.Random, tenant: Tenant, var: str) -> str:
    """A read or write of the tenant's retained bindings."""
    if var not in tenant.vars or rng.random() < 0.4:
        return f"(setq {var} {cheap_form(rng)})"
    return rng.choice(
        [
            f"(setq {var} (+ {var} {rng.randint(1, 9)}))",
            f"(+ {var} {rng.randint(1, 99)})",
            f"(if (> {var} 50) (- {var} 50) {var})",
        ]
    )
