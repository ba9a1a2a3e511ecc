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

`anf` puts arrows themselves in normal form by distributing them over unions
in the domain and intersections in the codomain.  Descending under a product
pushes a dummy context entry; dependent instances are compared via the
alpha-equality base case, best effort.
"""

from __future__ import annotations

from proofun.env import GlobalEnv, LocalEnv
from proofun.errors import InternalError, too_deep_as_error
from proofun.normalize import strongly_normalize
from proofun.syntax import Inter, Location, NOWHERE, Prod, Term, Union, contains_meta


def anf(t: Term) -> Term:
    """Arrow-normal form: distribute each arrow over unions in its (danf-ed)
    domain and intersections in its (canf-ed) codomain."""

    def distr(loc: Location, name: str, a: Term, b: Term) -> Term:
        match (a, b):
            case (Union(l, a1, a2), _):
                return Inter(l, distr(loc, name, a1, b), distr(loc, name, a2, b))
            case (_, Inter(l, b1, b2)):
                return Inter(l, distr(loc, name, a, b1), distr(loc, name, a, b2))
            case _:
                return Prod(loc, name, a, b)

    match t:
        case Prod(loc, name, a, b):
            return distr(loc, name, danf(a), canf(b))
        case _:
            return t


def canf(t: Term) -> Term:
    """Conjunctive normal form: an intersection of unions of anf atoms."""

    def distr(a: Term, b: Term) -> Term:
        match (a, b):
            case (Inter(l, a1, a2), _):
                return Inter(l, distr(a1, b), distr(a2, b))
            case (_, Inter(l, b1, b2)):
                return Inter(l, distr(a, b1), distr(a, b2))
            case _:
                return Union(NOWHERE, a, b)

    match t:
        case Inter(l, a, b):
            return Inter(l, canf(a), canf(b))
        case Union(_, a, b):
            return distr(canf(a), canf(b))
        case _:
            return anf(t)


def danf(t: Term) -> Term:
    """Disjunctive normal form: a union of intersections of anf atoms."""

    def distr(a: Term, b: Term) -> Term:
        match (a, b):
            case (Union(l, a1, a2), _):
                return Union(l, distr(a1, b), distr(a2, b))
            case (_, Union(l, b1, b2)):
                return Union(l, distr(a, b1), distr(a, b2))
            case _:
                return Inter(NOWHERE, a, b)

    match t:
        case Inter(_, a, b):
            return distr(danf(a), danf(b))
        case Union(l, a, b):
            return Union(l, danf(a), danf(b))
        case _:
            return anf(t)


def _anf_atoms(t: Term) -> Term:
    """Arrow-normal form at the atoms of an `&`/`|` tree, the tree kept."""
    match t:
        case Inter(l, a, b):
            return Inter(l, _anf_atoms(a), _anf_atoms(b))
        case Union(l, a, b):
            return Union(l, _anf_atoms(a), _anf_atoms(b))
        case _:
            return anf(t)


@too_deep_as_error
def is_subtype(genv: GlobalEnv, ctx: LocalEnv, a: Term, b: Term) -> bool:
    """Decide a <= b; both sides must be meta-free."""
    if contains_meta(a) or contains_meta(b):
        raise InternalError("is_subtype: meta-variable in input")
    a = _anf_atoms(strongly_normalize(False, genv, ctx, a))
    b = canf(strongly_normalize(False, genv, ctx, b))

    def compare(ctx: LocalEnv, a: Term, b: Term) -> bool:
        match (a, b):
            case (Union(_, a1, a2), _):
                return compare(ctx, a1, b) and compare(ctx, a2, b)
            # Splitting the right's conjunction before the left's
            # intersection keeps "or" over the left inside "and" over the
            # conjuncts, which is what makes a left side not in DNF sound.
            case (_, Inter(_, b1, b2)):
                return compare(ctx, a, b1) and compare(ctx, a, b2)
            case (Inter(_, a1, a2), _):
                return compare(ctx, a1, b) or compare(ctx, a2, b)
            case (_, Union(_, b1, b2)):
                return compare(ctx, a, b1) or compare(ctx, a, b2)
            case (Prod(_, _, a1, a2), Prod(_, _, b1, b2)):
                return compare(ctx, b1, a1) and compare(ctx.push_dummy(), a2, b2)
            case _:
                return a == b

    return compare(ctx, a, b)
