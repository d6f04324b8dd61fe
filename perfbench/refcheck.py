"""Output checks computed apart from the program.

The program's answers are compared with:

* small Python evaluators of the semantics the repaired functions must
  keep (Figure 16's ``eval`` over ``EpsilonLogic``, ``list``
  ``app``/``rev``/``length``, an enum's ``to_nat``), applied to seeded
  concrete inputs and compared with the kernel normal form of the
  repaired function on the same inputs;
* this module's own term walk, which lists the globals a repaired term
  mentions (no old-type global may survive);
* the constructor mapping the workload generator applied, and the
  number of type-correct mappings counted from the signature groups.

Only the term node classes are taken from the program; every rule
above is written out here.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.kernel.term import App, Const, Constr, Elim, Ind, Lam, Pi, Rel, Sort, Term


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


# -- Term walk ---------------------------------------------------------------


def globals_of(term: Term) -> Set[str]:
    """Every global name the term mentions (types, constructors, constants)."""
    found: Set[str] = set()
    seen: Set[int] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, App):
            stack.append(node.fn)
            stack.append(node.arg)
        elif isinstance(node, (Lam, Pi)):
            stack.append(node.domain)
            stack.append(node.body if isinstance(node, Lam) else node.codomain)
        elif isinstance(node, Elim):
            found.add(node.ind)
            stack.append(node.motive)
            stack.extend(node.cases)
            stack.append(node.scrut)
        elif isinstance(node, Const):
            found.add(node.name)
        elif isinstance(node, Ind):
            found.add(node.name)
        elif isinstance(node, Constr):
            found.add(node.ind)
        elif not isinstance(node, (Rel, Sort)):
            raise CheckFailed(f"unknown term node {type(node).__name__}")
    return found


def check_residual_free(terms: Iterable[Term], old: Iterable[str]) -> None:
    """No repaired term may mention the old type or an old constant."""
    old = set(old)
    for term in terms:
        left = globals_of(term) & old
        if left:
            raise CheckFailed(f"repaired term still mentions {sorted(left)}")


# -- Values ------------------------------------------------------------------


def numeral(n: int) -> Term:
    term: Term = Constr("nat", 0)
    for _ in range(n):
        term = App(Constr("nat", 1), term)
    return term


def spine(term: Term) -> Tuple[Term, List[Term]]:
    args: List[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def read_nat(term: Term) -> int:
    count = 0
    while True:
        head, args = spine(term)
        if head == Constr("nat", 0) and not args:
            return count
        if head == Constr("nat", 1) and len(args) == 1:
            count += 1
            term = args[0]
            continue
        raise CheckFailed(f"normal form is not a numeral: {term!r}"[:200])


# -- Figure 16: the Term language and its EpsilonLogic semantics --------------

#: Constructor layout of Figure 16, written out independently of
#: ``repro.cases.replica``: name -> argument kinds.
TERM_LAYOUT: Dict[str, Tuple[str, ...]] = {
    "Var": ("Identifier",),
    "Int": ("Z",),
    "Eq": ("self", "self"),
    "Plus": ("self", "self"),
    "Times": ("self", "self"),
    "Minus": ("self", "self"),
    "Choose": ("Identifier", "self"),
}

def type_correct_mappings(layout: Dict[str, Tuple[str, ...]]) -> int:
    """Mappings that send each constructor to one of the same signature."""
    groups = Counter(layout.values())
    return math.prod(math.factorial(size) for size in groups.values())


def eval_expr(expr: Tuple, logic: Tuple[int, int], offset: int) -> int:
    """Figure 16's ``eval``: ``env0 i = i + offset``; ``Eq`` yields the
    logic's true/false value; ``Minus`` truncates at zero."""
    ctor = expr[0]
    if ctor == "Var":
        return expr[1] + offset
    if ctor == "Int":
        return expr[1]
    if ctor == "Choose":
        return eval_expr(expr[2], logic, offset)
    left = eval_expr(expr[1], logic, offset)
    right = eval_expr(expr[2], logic, offset)
    if ctor == "Eq":
        return logic[0] if left == right else logic[1]
    if ctor == "Plus":
        return left + right
    if ctor == "Times":
        return left * right
    if ctor == "Minus":
        return max(0, left - right)
    raise ValueError(ctor)


def random_expr(rng: random.Random, depth: int) -> Tuple:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ("Var", rng.randrange(3))
        return ("Int", rng.randrange(4))
    ctor = rng.choice(["Eq", "Plus", "Times", "Minus", "Choose"])
    if ctor == "Choose":
        return ("Choose", rng.randrange(3), random_expr(rng, depth - 1))
    return (ctor, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def expr_term(expr: Tuple, ind: str, position: Dict[str, int]) -> Term:
    """The expression as a value of the new type ``ind``."""
    ctor = expr[0]
    head = Constr(ind, position[ctor])
    if ctor in ("Var", "Int"):
        return App(head, numeral(expr[1]))
    if ctor == "Choose":
        return App(App(head, numeral(expr[1])), expr_term(expr[2], ind, position))
    return App(
        App(head, expr_term(expr[1], ind, position)),
        expr_term(expr[2], ind, position),
    )


def eval_call(
    eval_name: str, expr: Tuple, ind: str, position: Dict[str, int],
    logic: Tuple[int, int], offset: int,
) -> Term:
    logic_term = App(App(Constr("EpsilonLogic", 0), numeral(logic[0])), numeral(logic[1]))
    env0 = Lam(
        "i",
        Const("Identifier"),
        App(App(Const("add"), Rel(0)), numeral(offset)),
    )
    return App(
        App(App(Const(eval_name), logic_term), env0),
        expr_term(expr, ind, position),
    )


def term_cases(rng: random.Random, count: int) -> List[Tuple[Tuple, Tuple[int, int], int]]:
    """Seeded (expression, logic, env offset) triples with small values."""
    out = []
    while len(out) < count:
        expr = random_expr(rng, 3)
        logic = (rng.randrange(1, 4), rng.randrange(0, 3))
        offset = rng.randrange(3)
        if eval_expr(expr, logic, offset) <= 24:
            out.append((expr, logic, offset))
    return out


# -- Section 2: lists -----------------------------------------------------------


def list_term(items: Sequence[int], ind: str, nil: int, cons: int) -> Term:
    term: Term = App(Constr(ind, nil), Ind("nat"))
    for item in reversed(items):
        term = App(App(App(Constr(ind, cons), Ind("nat")), numeral(item)), term)
    return term


def read_list(term: Term, ind: str, nil: int, cons: int) -> List[int]:
    items = []
    while True:
        head, args = spine(term)
        if head == Constr(ind, nil) and len(args) == 1:
            return items
        if head == Constr(ind, cons) and len(args) == 3:
            items.append(read_nat(args[1]))
            term = args[2]
            continue
        raise CheckFailed(f"normal form is not a {ind} value: {term!r}"[:200])


LIST_FUNCTIONS = {
    "app": lambda xs, ys: xs + ys,
    "rev": lambda xs, ys: list(reversed(xs)),
    "length": lambda xs, ys: len(xs),
}
