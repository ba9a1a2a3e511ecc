"""Decision procedure for subtyping in the intersection/union type theory.

Both sides are first strongly normalized.  The right side is rewritten to a
conjunctive normal form; the left keeps its own `&`/`|` tree, with only its
atoms put in arrow-normal form.  A structural recursion then decides the
ordering:

  - a union on the left and an intersection on the right split conjunctively;
  - an intersection on the left and a union on the right split disjunctively;
  - arrows compare contravariantly in the domain, covariantly in the codomain;
  - anything else must be alpha-equal (`==`).

Against one conjunct C of the right, "every disjunct of the left's DNF has
an atom below some atom of C" is the left tree evaluated with `|` as and,
`&` as or and each atom as "below some atom of C": DNF is a Boolean identity,
so the left's DNF, exponential in its number of conjuncts, is never built.

`anf` distributes each arrow over unions in its domain and intersections in
its codomain, by the one distribution step all three normal forms share.
Dependent instances are compared via the alpha-equality base case, best effort.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from proofun.env import GlobalEnv, LocalEnv
from proofun.errors import InternalError, too_deep_as_error
from proofun.normalize import strongly_normalize
from proofun.syntax import Inter, NOWHERE, Prod, Term, Union, contains_meta


def _spread(a: Term, b: Term, left: type, right: type,
            join: Callable[[Term, Term], Term]) -> Term:
    """`join(a, b)` distributed over the `left` nodes at the top of `a`, then the
    `right` nodes at the top of `b`: a `right` tree at the split nodes' locations."""
    def go(a: Term, b: Term) -> Term:
        if type(a) is left:
            return right(a.loc, go(a.left, b), go(a.right, b))
        if type(b) is right:
            return right(b.loc, go(a, b.left), go(a, b.right))
        return join(a, b)
    return go(a, b)


def anf(t: Term) -> Term:
    """Arrow-normal form: distribute each arrow over unions in its (danf-ed)
    domain and intersections in its (canf-ed) codomain."""
    if type(t) is not Prod:
        return t
    return _spread(danf(t.domain), canf(t.codomain), Union, Inter, partial(Prod, t.loc, t.name))


def canf(t: Term) -> Term:
    """Conjunctive normal form: an intersection of unions of anf atoms."""
    if type(t) is Inter:
        return Inter(t.loc, canf(t.left), canf(t.right))
    if type(t) is Union:
        return _spread(canf(t.left), canf(t.right), Inter, Inter, partial(Union, NOWHERE))
    return anf(t)


def danf(t: Term) -> Term:
    """Disjunctive normal form: a union of intersections of anf atoms."""
    if type(t) is Union:
        return Union(t.loc, danf(t.left), danf(t.right))
    if type(t) is Inter:
        return _spread(danf(t.left), danf(t.right), Union, Union, partial(Inter, NOWHERE))
    return anf(t)


def _anf_atoms(t: Term) -> Term:
    """Arrow-normal form at the atoms of an `&`/`|` tree, the tree kept."""
    if type(t) is Inter or type(t) is Union:
        return type(t)(t.loc, _anf_atoms(t.left), _anf_atoms(t.right))
    return anf(t)


@too_deep_as_error
def is_subtype(genv: GlobalEnv, ctx: LocalEnv, a: Term, b: Term) -> bool:
    """Decide a <= b; both sides must be meta-free."""
    if contains_meta(a) or contains_meta(b):
        raise InternalError("is_subtype: meta-variable in input")
    a = _anf_atoms(strongly_normalize(genv, ctx, a))
    b = canf(strongly_normalize(genv, ctx, b))

    def compare(a: Term, b: Term) -> bool:
        ka, kb = type(a), type(b)
        if ka is Union:
            return compare(a.left, b) and compare(a.right, b)
        # Splitting the right's conjunction before the left's intersection keeps
        # "or" over the left inside "and" over the conjuncts: a non-DNF left is sound.
        if kb is Inter:
            return compare(a, b.left) and compare(a, b.right)
        if ka is Inter:
            return compare(a.left, b) or compare(a.right, b)
        if kb is Union:
            return compare(a, b.left) or compare(a, b.right)
        if ka is Prod and kb is Prod:
            return compare(b.domain, a.domain) and compare(a.codomain, b.codomain)
        return a == b

    return compare(a, b)
