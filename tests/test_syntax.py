"""Core term machinery: traversals, lifting, substitution, equality."""

import cProfile
import io
import pstats
import random

import pytest

from proofun import syntax
from proofun.env import GlobalEnv, LocalEnv, MetaEnv, TypedMeta
from proofun.errors import InternalError
from proofun.normalize import delta_phi_expand, zonk
from proofun.parser import fix_index, parse_script, parse_term
from proofun.pretty import show_term
from proofun.repl import Session, load_file
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta, NOWHERE, Prod, SInLeft,
    SInRight, SMatch, Sort, SortKind, SPair, SPrLeft, SPrRight, Term, Underscore, Union,
    Var, beta_redex, binders, changes_essence, children, contains_meta,
    contains_underscore, erase_context, first_meta, free_in, instantiate, lift,
    loose, map_term, mk_app, msubst, subterms, visit_term,
)

from helpers import (
    CORPUS_FILES, P, corpus_path, enumerate_closed_named, named_subst,
    named_to_syntax, push_dummy, random_named_term, random_printable_term,
    random_refined_term,
)
from test_growth import count_calls

L = NOWHERE

# The fields of each node kind in constructor order, written out here so
# that the tests below do not read the code's own metadata.  A hint (the
# location or a binder's name) is invisible to `==` and `hash`; a child is
# a `Term` field or each entry of a `Term`-tuple field; data is compared.
HINT, CHILD, CHILDREN, DATA = "hint", "child", "children", "data"
FIELDS = {
    Sort: (("loc", HINT), ("kind", DATA)),
    Let: (("loc", HINT), ("name", HINT), ("annot", CHILD), ("bound", CHILD),
          ("body", CHILD)),
    Prod: (("loc", HINT), ("name", HINT), ("domain", CHILD), ("codomain", CHILD)),
    Abs: (("loc", HINT), ("name", HINT), ("domain", CHILD), ("body", CHILD)),
    App: (("loc", HINT), ("head", CHILD), ("spine", CHILDREN)),
    Inter: (("loc", HINT), ("left", CHILD), ("right", CHILD)),
    Union: (("loc", HINT), ("left", CHILD), ("right", CHILD)),
    SPair: (("loc", HINT), ("left", CHILD), ("right", CHILD)),
    SPrLeft: (("loc", HINT), ("body", CHILD)),
    SPrRight: (("loc", HINT), ("body", CHILD)),
    SMatch: (("loc", HINT), ("scrutinee", CHILD), ("motive", CHILD), ("name1", HINT),
             ("annot1", CHILD), ("branch1", CHILD), ("name2", HINT), ("annot2", CHILD),
             ("branch2", CHILD)),
    SInLeft: (("loc", HINT), ("other", CHILD), ("body", CHILD)),
    SInRight: (("loc", HINT), ("other", CHILD), ("body", CHILD)),
    Coercion: (("loc", HINT), ("target", CHILD), ("body", CHILD)),
    Var: (("loc", HINT), ("index", DATA)),
    Const: (("loc", HINT), ("name", DATA)),
    Underscore: (("loc", HINT),),
    Meta: (("loc", HINT), ("mid", DATA), ("susp", CHILDREN)),
}


def _c(name):
    return Const(L, name)


def _rebuild(t, **changes):
    """A new node of `t`'s kind with `t`'s fields, `changes` applied."""
    return type(t)(*(changes.get(name, getattr(t, name)) for name, _ in FIELDS[type(t)]))


# ------------- visit_term -------------


def test_visit_identity_is_bit_equal():
    t = P("fun x : A => smatch x as q return B with y : C => f y, z : D => g z end")
    out = visit_term(lambda c: c, lambda _s, c: c, t)
    assert repr(out) == repr(t)  # `==` alone ignores locations and hints


def test_visit_abs_contract():
    t = Abs(L, "x", _c("A"), Var(L, 0))
    names = []
    out = visit_term(lambda c: _c("F"), lambda s, c: names.append(s) or _c("G"), t)
    out = _rebuild(out, name=out.name + "!")
    assert names == ["x"]
    assert out == Abs(L, "x!", _c("F"), _c("G"))
    assert out.name == "x!"


def test_visit_app_spine_children():
    t = App(L, _c("hd"), (_c("a"), _c("b")))
    seen = []
    visit_term(lambda c: seen.append(c) or c, lambda _s, c: c, t)
    assert seen == [_c("hd"), _c("a"), _c("b")]


def _collect_direct(t, under=0, acc=None):
    """Direct recursive traversal used as the oracle for visit_term."""
    if acc is None:
        acc = []
    match t:
        case Var(_, n):
            acc.append((under, n))
        case _:
            from proofun.syntax import children, Abs, Prod, Let, SMatch
            binder_children = set()
            match t:
                case Abs(_, _, _, b) | Prod(_, _, _, b):
                    binder_children = {id(b)}
                case Let(_, _, _, _, b):
                    binder_children = {id(b)}
                case SMatch(_, _, _, _, _, b1, _, _, b2):
                    binder_children = {id(b1), id(b2)}
            for c in children(t):
                _collect_direct(c, under + (1 if id(c) in binder_children else 0), acc)
    return acc


def test_visit_matches_direct_recursion_on_random_terms():
    rng = random.Random(7)
    for _ in range(100):
        t = fix_index(named_to_syntax(random_named_term(rng, rng.randint(2, 10))))
        via_visit = []

        def walk(t, depth):
            if isinstance(t, Var):
                via_visit.append((depth, t.index))
                return t
            return visit_term(lambda c: walk(c, depth),
                              lambda _s, c: walk(c, depth + 1), t)

        walk(t, 0)
        assert via_visit == _collect_direct(t)


# ------------- map_term / lift -------------


def test_map_identity():
    t = P("fun x : A => f x y")
    assert repr(map_term(0, lambda k, l, n: Var(l, n), t)) == repr(t)


def test_lift_zero_is_identity():
    t = P("fun x : A => f x")
    assert repr(lift(0, 0, t)) == repr(t)


def test_lift_free_var():
    assert lift(0, 2, Var(L, 0)) == Var(L, 2)


def test_lift_cutoff_counts_from_the_root():
    # Inside the binder the cutoff becomes 2, so Var 1 (root-level index 0,
    # below the cutoff 1) stays put; this matches the defining listing and
    # the named weakening oracle.
    t = Abs(L, "x", _c("A"), App(L, Var(L, 0), (Var(L, 1),)))
    assert lift(1, 1, t) == t
    shifted = Abs(L, "x", _c("A"), App(L, Var(L, 0), (Var(L, 2),)))
    assert lift(0, 1, t) == shifted


def test_lift_closed_term_unchanged():
    t = P("fun x : A => x")
    assert repr(lift(0, 5, t)) == repr(t)


def test_lift_matches_scope_weakening_oracle():
    # Lifting free indices by one agrees with re-indexing the named term
    # under a scope with one extra (never-occurring) name pushed in front.
    rng = random.Random(11)
    for _ in range(100):
        named = random_named_term(rng, rng.randint(1, 9), scope=("u", "w"))
        t = named_to_syntax(named)
        lifted = lift(0, 1, fix_index(t, ["u", "w"]))
        weakened = fix_index(t, ["#fresh", "u", "w"])
        assert lifted == weakened


def test_lift_composition():
    rng = random.Random(13)
    for _ in range(1000):
        named = random_named_term(rng, rng.randint(1, 8), scope=("u",))
        t = fix_index(named_to_syntax(named), ["u"])
        k = rng.randint(0, 2)
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        assert lift(k, n, lift(k, m, t)) == lift(k, n + m, t)


def test_negative_lift_underflow_asserts():
    with pytest.raises(InternalError):
        lift(0, -1, Var(L, 0))


# ------------- beta_redex -------------


def test_beta_var_zero():
    assert beta_redex(Var(L, 0), _c("c")) == _c("c")


def test_beta_enclosing_binder_removed():
    assert beta_redex(Var(L, 1), _c("c")) == Var(L, 0)


def test_beta_propagates_into_suspension():
    body = Meta(L, 0, (Var(L, 0),))
    assert beta_redex(body, _c("c")) == Meta(L, 0, (_c("c"),))


def test_beta_agrees_with_named_substitution_oracle():
    # Every closed term of size <= 8 over two constants whose shape is a
    # beta-redex, contracted both ways.
    checked = 0
    for t in enumerate_closed_named(8):
        if not (t[0] == "app" and t[1][0] == "lam"):
            continue
        (_, (_, x, body), arg) = t
        via_debruijn = beta_redex(
            fix_index(named_to_syntax(body), [x]),
            fix_index(named_to_syntax(arg)))
        counter = [0]
        named_result = named_subst(body, x, arg, counter)
        via_named = fix_index(named_to_syntax(named_result))
        assert via_debruijn == via_named
        checked += 1
    assert checked > 500


def test_instantiate_is_successive_beta_from_the_outermost_binder():
    # The body is scoped over z, x, y (y innermost); the arguments over z.
    rng = random.Random(11)
    for _ in range(200):
        named = random_named_term(rng, rng.randint(1, 10), ("z", "x", "y"))
        body = fix_index(named_to_syntax(named), ["y", "x", "z"])
        ax, ay = (fix_index(named_to_syntax(random_named_term(rng, 3, ("z",))), ["z"])
                  for _ in range(2))
        stepwise = beta_redex(beta_redex(body, lift(0, 1, ay)), ax)
        assert instantiate(body, (ax, ay)) == stepwise
    assert instantiate(body, ()) is body


def test_subterms_is_preorder_at_any_depth():
    def preorder(t):
        return [t] + [s for c in children(t) for s in preorder(c)]

    rng = random.Random(5)
    for _ in range(100):
        t = fix_index(named_to_syntax(random_named_term(rng, rng.randint(1, 12))))
        t = App(L, Meta(L, 0, (t, Underscore(L))), (t, Meta(L, 1, ())))
        assert [id(s) for s in subterms(t)] == [id(s) for s in preorder(t)]
    deep = Var(L, 0)
    for _ in range(5000):
        deep = Abs(L, "x", Underscore(L), deep)
    assert sum(1 for _ in subterms(deep)) == 10001


def test_children_are_the_term_fields_in_field_order():
    def by_fields(t):
        out = []
        for name, role in FIELDS[type(t)]:
            if role == CHILD:
                out.append(getattr(t, name))
            elif role == CHILDREN:
                out.extend(getattr(t, name))
        return out

    rng = random.Random(43)
    kinds = set()
    for _ in range(300):
        for s in subterms(_random_term(rng)):
            kinds.add(type(s))
            got, want = children(s), by_fields(s)
            assert type(got) is tuple and len(got) == len(want), s
            assert all(a is b for a, b in zip(got, want)), s
    assert kinds == set(Term.__subclasses__())
    with pytest.raises(InternalError):
        children(object())


def test_the_field_table_is_each_node_kinds_match_and_constructor_order():
    assert set(FIELDS) == set(Term.__subclasses__())
    for kind, table in FIELDS.items():
        code = kind.__init__.__code__
        params = code.co_varnames[1:code.co_argcount]
        assert kind.__match_args__ == params == tuple(name for name, _ in table), kind


def test_nodes_are_frozen():
    rng = random.Random(47)
    for _ in range(50):
        for s in subterms(_random_term(rng)):
            for name, _ in FIELDS[type(s)]:
                before = getattr(s, name)
                with pytest.raises(AttributeError):
                    setattr(s, name, _c("z"))
                assert getattr(s, name) is before


def _layout_subterms():
    """Every subterm of the corpus (parsed, indexed and elaborated), of
    random well-typed terms and of random terms over every node kind."""
    roots = []
    for name in CORPUS_FILES:
        with open(corpus_path(name), encoding="utf-8") as handle:
            script = parse_script(handle.read(), name)
        for cmd in (c for group in script for c in group):
            for t in (getattr(cmd, "type", None), getattr(cmd, "body", None)):
                if isinstance(t, Term):
                    roots += [t, fix_index(t)]
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
        roots += [part for _const, info in session.genv.items()
                  for part in vars(info).values() if part is not None]
    rng = random.Random(47)
    roots += [random_refined_term(rng)[0] for _ in range(100)]
    roots += [_random_term(rng) for _ in range(200)]
    return [s for root in roots for s in subterms(root)]


def test_every_node_kind_has_one_layout():
    kinds = set(Term.__subclasses__())
    assert set(syntax._CHILDREN) == set(syntax._BINDERS) == set(syntax._REBUILD) == kinds
    for walk in (children, binders, lambda t: visit_term(lambda c: c, lambda _s, c: c, t)):
        with pytest.raises(InternalError):
            walk(object())


def test_binders_name_the_binder_each_child_sits_under():
    a, b, c, d = _c("A"), _c("B"), _c("C"), _c("D")
    cases = [
        (Let(L, "x", a, b, c), [None, None, ("x", a)]),
        (Prod(L, "y", a, b), [None, ("y", a)]),
        (Abs(L, "z", b, c), [None, ("z", b)]),
        (SMatch(L, a, b, "p", c, a, "q", d, b), [None, None, None, ("p", c), None, ("q", d)]),
        (App(L, a, (b, c)), [None, None, None]),
    ]
    for t, expected in cases:
        got = binders(t)
        assert len(got) == len(children(t)) == len(expected)
        for g, e in zip(got, expected):
            assert g is None if e is None else g[0] == e[0] and g[1] is e[1]
    kinds = set()
    for s in _layout_subterms():
        got = binders(s)
        assert type(got) is tuple and len(got) == len(children(s)), s
        if type(s) not in (Let, Prod, Abs, SMatch):
            assert got == (None,) * len(got), s
        kinds.add(type(s))
    assert {Let, Prod, Abs, SMatch, App, Meta} <= kinds


def test_a_node_rebuilt_from_its_own_children_is_itself():
    for s in _layout_subterms():
        again = syntax._REBUILD[type(s)](s, list(children(s)))
        assert type(again) is type(s) and again == s and repr(again) == repr(s), s
        assert again._facts == s._facts, s
        assert visit_term(lambda c: c, lambda _s, c: c, s) is s


def test_a_profile_tells_the_generated_functions_of_each_node_kind_apart():
    # Each generated function is compiled under a file name that names its
    # node kind (and role), so a profile keeps one entry per kind and role.
    profile = cProfile.Profile()
    profile.enable()
    leaves = [Const(L, "c") for _ in range(5)]
    apps = [App(L, leaves[0], (leaves[1],)) for _ in range(3)]
    children(apps[0]), binders(apps[0]), binders(leaves[0])
    profile.disable()
    calls = {(file, name): stat[1] for (file, _line, name), stat
             in pstats.Stats(profile).stats.items() if file.startswith("<")}
    assert calls == {("<Const.__init__>", "__init__"): 5, ("<App.__init__>", "__init__"): 3,
                     ("<App.children>", "<lambda>"): 1, ("<App.binders>", "<lambda>"): 1,
                     ("<Const.binders>", "<lambda>"): 1}


# ------------- erase_context -------------


def test_erase_empty():
    assert erase_context(0) == ()


def test_erase_singleton():
    assert erase_context(1) == (Var(L, 0),)


def test_erase_two():
    assert erase_context(2) == (Var(L, 1), Var(L, 0))


def test_identity_suspension_invariant_under_projection():
    # ?m[erase_context(G)] expands to exactly the variable ?m was
    # instantiated with, for every variable of G.
    ctx = LocalEnv().push_decl("x", _c("A")).push_decl("y", _c("B"))
    for i in range(2):
        phi = MetaEnv(GlobalEnv())
        mid = phi.fresh_meta(TypedMeta(ctx, _c("A")))
        phi.instantiate_meta(mid, Var(L, i))
        expanded = delta_phi_expand(phi, Meta(L, mid, erase_context(2)))
        assert expanded == Var(L, i)


# ------------- equality (alpha-equivalence) / free_in -------------


_ELSEWHERE = Location("elsewhere", (7, 3), (7, 9))


def _random_indexed(rng, size):
    return fix_index(named_to_syntax(random_named_term(rng, size)))


def test_term_eq_reflexive_on_samples():
    rng = random.Random(17)
    for _ in range(50):
        t = _random_indexed(rng, rng.randint(1, 8))
        assert t == t


def test_term_eq_ignores_hints_and_locations():
    t1 = Abs(L, "x", _c("A"), Var(L, 0))
    t2 = Abs(_ELSEWHERE, "y", Const(_ELSEWHERE, "A"), Var(_ELSEWHERE, 0))
    assert t1 == t2
    assert hash(t1) == hash(t2)


def test_term_eq_distinguishes_indices_and_constants():
    assert Var(L, 0) != Var(L, 1)
    assert Const(L, "a") != Const(L, "b")
    assert Var(L, 0) != Const(L, "a")


def test_term_eq_equivalence_relation_on_triples():
    rng = random.Random(19)
    pool = [_random_indexed(rng, rng.randint(1, 6)) for _ in range(30)]
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert a == a
        assert (a == b) == (b == a)
        if a == b and b == c:
            assert a == c


def _rehint(t):
    """`t` rebuilt with every location moved and every binder hint renamed."""
    out = visit_term(_rehint, lambda _s, c: _rehint(c), t)
    hints = [name for name, role in FIELDS[type(out)] if role == HINT and name != "loc"]
    return _rebuild(out, loc=_ELSEWHERE, **{h: getattr(out, h) + "'" for h in hints})


def test_term_eq_and_hash_survive_moved_locations_and_renamed_binders():
    rng = random.Random(23)
    for _ in range(200):
        a, b, c = (_random_indexed(rng, rng.randint(1, 8)) for _ in range(3))
        t = Let(L, "l", Prod(L, "p", a, b), c,
                SMatch(L, Var(L, 0), Abs(L, "m", Underscore(L), b),
                       "y", a, b, "z", c, a))
        moved = _rehint(t)
        assert moved == t and t == moved
        assert hash(moved) == hash(t)
        assert all(s.loc == _ELSEWHERE for s in subterms(moved))
        assert (moved.name, moved.annot.name) == ("l'", "p'")
        body = moved.body
        assert (body.motive.name, body.name1, body.name2) == ("m'", "y'", "z'")
    assert {Let, Prod, Abs, SMatch} <= {type(s) for s in subterms(t)}


def test_free_in_var_itself():
    assert free_in(0, Var(L, 0))


def test_free_in_bound_occurrence_is_not_free():
    assert not free_in(0, Abs(L, "x", _c("A"), Var(L, 0)))


def test_free_in_shifted_under_binder():
    assert free_in(0, Abs(L, "x", _c("A"), Var(L, 1)))


def test_sorts_and_underscore_compare():
    assert Sort(L, SortKind.TYPE) == Sort(L, SortKind.TYPE)
    assert Sort(L, SortKind.TYPE) != Sort(L, SortKind.KIND)
    assert Underscore(L) == Underscore(L)


# ------------- node facts (loose, contains_meta, contains_underscore, changes_essence) -------------

# The node kinds the essence erases or rebuilds.
_ESSENCE_NODES = (Abs, Let, SPair, SPrLeft, SPrRight, SInLeft, SInRight, Coercion, SMatch,
                  Meta, Underscore)


def _reference_facts(t):
    """`(loose(t), contains_meta(t), contains_underscore(t),
    changes_essence(t))` by direct recursion over the fields."""

    def free(t):
        match t:
            case Var(_, n):
                return {n}
            case Let(_, _, a, b, c):
                return free(a) | free(b) | down(c)
            case Prod(_, _, a, b) | Abs(_, _, a, b):
                return free(a) | down(b)
            case SMatch(_, s, m, _, a1, b1, _, a2, b2):
                return free(s) | free(m) | free(a1) | down(b1) | free(a2) | down(b2)
        return set().union(*map(free, children(t)))

    def down(t):
        return {n - 1 for n in free(t) if n}

    def changes(t):
        if isinstance(t, _ESSENCE_NODES):
            return True
        if isinstance(t, App) and (isinstance(t.head, App) or not t.spine):
            return True  # `mk_app` merges it
        return any(map(changes, children(t)))

    indices = free(t)
    kinds = {type(s) for s in subterms(t)}
    return (max(indices) + 1 if indices else 0, Meta in kinds, Underscore in kinds, changes(t))


def _twin(t, relocate=False, counter=None):
    """A copy of `t` built node by node, so it shares no node object with
    `t`; with `relocate`, every node gets its own location (pre-order
    number)."""
    counter = [0] if counter is None else counter
    counter[0] += 1
    loc = Location("t", (counter[0], 1), (counter[0], 2)) if relocate else t.loc
    args = []
    for name, role in FIELDS[type(t)][1:]:
        v = getattr(t, name)
        if role == CHILD:
            v = _twin(v, relocate, counter)
        elif role == CHILDREN:
            v = tuple(_twin(c, relocate, counter) for c in v)
        args.append(v)
    return type(t)(loc, *args)


def _random_term(rng):
    """A random term over every node kind (metas with suspensions, `SMatch`
    binders), free variables included, with distinct locations."""
    t = random_printable_term(rng, rng.randint(1, 14), depth=rng.randint(0, 3))
    return _twin(t, relocate=True)


def _assert_facts_match(root):
    for s in subterms(root):
        facts = (loose(s), contains_meta(s), contains_underscore(s), changes_essence(s))
        assert facts == _reference_facts(s), s


@pytest.mark.parametrize("t, changes", [
    (App(L, App(L, _c("f"), (_c("a"),)), (_c("b"),)), True),  # merged by `mk_app`
    (App(L, _c("f"), ()), True),
    (App(L, _c("f"), (_c("a"), Var(L, 0))), False),
    (Prod(L, "x", _c("A"), Prod(L, "y", Var(L, 0), P("fun z : A => z"))), True),
    (Prod(L, "x", _c("A"), App(L, _c("P"), (Meta(L, 3, (Var(L, 0),)),))), True),
    (Prod(L, "x", Sort(L, SortKind.TYPE), P("(A -> B) & (A | B)")), False),
    (Underscore(L), True),
    (P("proj_l p"), True),
])
def test_changes_essence_by_hand(t, changes):
    assert changes_essence(t) is changes
    _assert_facts_match(t)


def test_facts_of_every_subterm_match_the_reference():
    rng = random.Random(31)
    kinds = set()
    for _ in range(400):
        t, other = _random_term(rng), _random_term(rng)
        args = tuple(_random_term(rng) for _ in range(rng.randint(1, 3)))
        susp = args + tuple(Var(L, i) for i in range(_reference_facts(t)[0]))
        pick = lambda c: rng.choice((c, other, Var(L, rng.randrange(4)), Meta(L, 1, (c,))))
        roots = [
            t,
            App(L, t, (t, Meta(L, 7, (t,)))),  # shared subterms
            _rebuild(t, loc=_ELSEWHERE) if type(t) is not Var else t,
            visit_term(pick, lambda _s, c: pick(c), t),
            lift(rng.randint(0, 3), rng.randint(0, 3), t),
            instantiate(t, args),
            msubst(t, susp),
            mk_app(L, t, args),
            mk_app(L, App(L, other, args), (t,)),
        ]
        if type(t) is App:  # a replaced node gets facts of its own
            roots.append(_rebuild(t, spine=t.spine + (Var(L, 9), Meta(L, 0, ()))))
        for root in roots:
            kinds.update(type(s) for s in subterms(root))
            _assert_facts_match(root)
    assert {Let, Prod, Abs, App, SMatch, Meta, Var} <= kinds

    scopes = [(), ("x",), ("x0", "x", "y")]
    for _ in range(300):  # parsed, then indexed
        scope = rng.choice(scopes)
        t = random_printable_term(rng, rng.randint(1, 16), len(scope))
        if first_meta(t) is not None:  # metas have no concrete syntax
            continue
        parsed = parse_term(show_term(t, scope))
        _assert_facts_match(parsed)
        _assert_facts_match(fix_index(parsed, scope))

    parts = 0
    for name in CORPUS_FILES:
        with open(corpus_path(name), encoding="utf-8") as handle:
            script = parse_script(handle.read(), name)
        for cmd in (c for group in script for c in group):
            for t in (getattr(cmd, "type", None), getattr(cmd, "body", None)):
                if isinstance(t, Term):
                    _assert_facts_match(t)
                    _assert_facts_match(fix_index(t))
        # the parts `elaborate` stores: term, type, essence, type essence
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
        for _const, info in session.genv.items():
            for part in vars(info).values():
                if part is not None:  # an axiom has no essence and no body
                    _assert_facts_match(part)
                    parts += 1
    assert parts > 100


def _solve_some_metas(rng, t):
    """`t` with every meta renumbered to a fresh one over a context as long
    as its suspension, about half of them solved, and the environment."""
    phi = MetaEnv(GlobalEnv())

    def go(t):
        if type(t) is not Meta:
            return visit_term(go, lambda _s, c: go(c), t)
        susp = tuple(go(c) for c in t.susp)
        ctx = LocalEnv()
        for _ in susp:
            ctx = push_dummy(ctx)
        mid = phi.fresh_meta(TypedMeta(ctx, _c("A")))
        if rng.random() < 0.5:
            j = rng.randrange(len(susp)) if susp else None
            sol = _c("s") if j is None else App(L, _c("s"), (Var(L, j), Var(L, 0)))
            phi.instantiate_meta(mid, sol)
        return Meta(t.loc, mid, susp)

    t = go(t)
    return phi, t


def test_traversals_agree_on_a_cached_term_and_an_uncached_twin():
    rng = random.Random(37)
    for _ in range(400):
        phi, t = _solve_some_metas(rng, _random_term(rng))
        cached, twin = t, _twin(t)
        _assert_facts_match(twin)
        n = _reference_facts(twin)[0]
        args = tuple(_random_term(rng) for _ in range(rng.randint(1, 3)))
        k, by = rng.randint(0, 3), rng.randint(-1, 3)
        if by >= 0 or not free_in(0, twin):
            assert repr(lift(k, by, cached)) == repr(lift(k, by, twin))
        assert repr(instantiate(cached, args)) == repr(instantiate(twin, args))
        susp = args + tuple(Var(L, i) for i in range(n))
        assert repr(msubst(cached, susp)) == repr(msubst(twin, susp))
        for i in range(n + 2):
            assert free_in(i, cached) == free_in(i, twin)
        assert repr(zonk(phi, cached)) == repr(zonk(phi, twin))
        m1, m2 = first_meta(cached), first_meta(_twin(t))
        first = next((s for s in subterms(twin) if type(s) is Meta), None)
        assert (m1 is None) == (m2 is None) == (first is None)
        if m1 is not None:
            assert (m1.mid, m1.loc) == (m2.mid, m2.loc) == (first.mid, first.loc)


def test_cache_leaves_eq_hash_repr_and_fields_alone():
    rng = random.Random(41)
    for _ in range(200):
        t = _random_term(rng)
        twin = _twin(t)
        assert (repr(t), hash(t)) == (repr(twin), hash(twin))
        assert t == twin and twin == t
        assert "_facts" not in repr(t)
        assert "_facts" not in type(t).__match_args__
        copy = _rebuild(t)
        _assert_facts_match(copy)
        vars(copy)["_facts"] ^= 1  # facts that disagree change none of them
        assert (copy == t, hash(copy), repr(copy)) == (True, hash(t), repr(t))


def test_summarised_closed_term_is_queried_and_shifted_in_constant_calls():
    # Freshly built and never queried before the calls are counted.
    t = App(L, _c("f"), tuple(Abs(L, "x", _c("A"), App(L, Var(L, 0), (_c("a"),)))
                              for _ in range(400)))
    queries = [lambda: contains_meta(t), lambda: first_meta(t),
               lambda: zonk(MetaEnv(GlobalEnv()), t), lambda: lift(0, 3, t)]
    for query in queries:
        calls, _ = count_calls(query)
        assert calls <= 5, calls
    assert lift(0, 3, t) is t
    assert zonk(MetaEnv(GlobalEnv()), t) is t
    assert sum(1 for _ in subterms(t)) == 2002


def test_rebuilds_share_unchanged_subterms():
    t = P("fun x : A => f (g x) (h c)")
    out = lift(0, 1, t)
    assert out is t  # closed: nothing to shift
    body = Abs(L, "y", _c("B"), App(L, Var(L, 1), (Var(L, 0), P("h c"))))
    shifted = lift(0, 2, body)
    assert shifted.domain is body.domain
    assert shifted.body.spine[1] is body.body.spine[1]
    assert shifted.body.head == Var(L, 3)
