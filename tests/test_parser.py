"""Concrete syntax: grammar, desugarings, commands, and the named/indexed
round trips."""

import io
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from proofun import parser as parser_module
from proofun.errors import TOO_DEEP, LexError, ParseError, ProverError, TypeCheckError
from proofun.parser import (
    Axiom, Definition, Load, Print, Quit, fix_id, fix_index, parse_command,
    parse_script, parse_term, tokenize, _Parser,
)
from proofun.pretty import render_error, show_term
from proofun.repl import Session, run_source
from proofun.syntax import (
    NOWHERE, Abs, App, Const, ConstOccurrences, Inter, Let, Location, Prod, SInRight,
    SMatch, SPair, SPrLeft, Underscore, Union, Var, span,
)

from helpers import (
    CORPUS_FILES, corpus_path, line_col_location, named_to_syntax, random_named_term,
    random_printable_term, reference_fix_id, reference_fix_index,
    reference_render, reference_render_error, reference_tokenize,
)
from test_growth import FAMILIES, chain_of_holes, church_product


# ------------- terms -------------


def test_untyped_fun_gets_placeholder_domain():
    t = parse_term("fun x => x")
    assert isinstance(t, Abs) and t.name == "x"
    assert isinstance(t.domain, Underscore)
    assert t.body == Var(t.body.loc, 0)


def test_smatch_desugars_to_motive_abstraction():
    t = parse_term("smatch foo as x return T with y : T1 => bar, z : T2 => baz end")
    assert isinstance(t, SMatch)
    assert t.scrutinee == Const(t.scrutinee.loc, "foo")
    assert isinstance(t.motive, Abs) and t.motive.name == "x"
    assert isinstance(t.motive.domain, Underscore)
    assert t.motive.body == Const(t.motive.body.loc, "T")
    assert (t.name1, t.name2) == ("y", "z")
    assert t.annot1 == Const(t.annot1.loc, "T1")
    assert t.branch2 == Const(t.branch2.loc, "baz")


def test_smatch_omitted_pieces_become_underscores():
    t = parse_term("smatch v with y => a, z => b end")
    assert isinstance(t.motive, Abs) and t.motive.name == ""
    assert isinstance(t.motive.body, Underscore)
    assert isinstance(t.annot1, Underscore) and isinstance(t.annot2, Underscore)


def test_precedence_app_inter_union_arrow():
    t = parse_term("s & (s -> t)")
    assert isinstance(t, Inter) and isinstance(t.right, Prod)
    t = parse_term("a & b | c -> d")
    assert isinstance(t, Prod)  # -> loosest
    assert isinstance(t.domain, Union)
    assert isinstance(t.domain.left, Inter)  # & tighter than |
    t = parse_term("f a b")
    assert isinstance(t, App) and len(t.spine) == 2  # application is a spine


def test_arrow_is_right_associative():
    t = parse_term("a -> b -> c")
    assert isinstance(t, Prod) and isinstance(t.codomain, Prod)
    assert isinstance(t.domain, Const)


def test_prefix_keywords_consume_atoms_at_application_precedence():
    t = parse_term("proj_l impl p g")
    assert isinstance(t, App) and isinstance(t.head, SPrLeft)
    assert t.head.body == Const(t.head.body.loc, "impl")
    t = parse_term("inj_r atom (proj_l impl p g)")
    assert isinstance(t, SInRight)
    assert isinstance(t.body, App)
    t = parse_term("coe (Pos -> F) Is_0 x")
    assert isinstance(t, App) and len(t.spine) == 1


def test_multi_binder_groups_share_the_annotation():
    t = parse_term("fun (x y : nat) => x")
    assert isinstance(t, Abs) and isinstance(t.body, Abs)
    assert repr(t.domain) == repr(t.body.domain)


def test_unparenthesized_typed_args():
    t = parse_term("fun x y : A => x")
    assert isinstance(t.domain, Const) and isinstance(t.body.domain, Const)


def test_let_desugars_args_into_lambdas():
    t = parse_term("let id1 x := x in id1")
    assert isinstance(t, Let)
    assert isinstance(t.annot, Underscore)
    assert isinstance(t.bound, Abs)


def test_let_with_annotation_wraps_products():
    t = parse_term("let f (x : A) : B := g x in f")
    assert isinstance(t.annot, Prod)
    assert isinstance(t.bound, Abs)


def test_nested_comments():
    t = parse_term("(* outer (* inner *) still out *) Type")
    assert reference_render(t) == "Type"


def test_numeric_identifier_allowed():
    t = parse_term("eq 0 0")
    assert isinstance(t, App) and t.spine[0] == Const(t.spine[0].loc, "0")


def test_strong_pair_atom():
    t = parse_term("< a , b >")
    assert isinstance(t, SPair)


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as info:
        parse_term("fun x =>")
    assert info.value.loc is not None
    with pytest.raises(LexError):
        parse_term("a # b")


def test_unterminated_comment_is_a_lex_error():
    with pytest.raises(LexError):
        parse_term("(* never closed")


@pytest.mark.parametrize("entry", [parse_term, parse_command, parse_script])
def test_too_deep_input_is_a_prover_error(entry):
    depth = 2000
    nested = "f (" * depth + "x" + ")" * depth
    text = nested if entry is parse_term else f"Definition d := {nested}."
    with pytest.raises(ProverError) as info:
        entry(text)
    assert info.value.message == TOO_DEEP and info.value.loc is None


# ------------- commands -------------


def test_axiom_group_expands_to_three_atomic_commands():
    cmds = parse_command("Axiom (a b : Type) (f : a -> b).")
    assert [c.name for c in cmds] == ["a", "b", "f"]
    assert all(isinstance(c, Axiom) for c in cmds)
    assert isinstance(cmds[2].type, Prod)


def test_quit_is_single_atomic_command():
    cmds = parse_command("Quit.")
    assert len(cmds) == 1 and isinstance(cmds[0], Quit)


def test_definition_poly_id_parses():
    cmds = parse_command(
        "Definition poly_id : (s->s)&(t->t) := <fun x:s=>x, fun x:t=>x>.")
    (cmd,) = cmds
    assert isinstance(cmd, Definition) and cmd.name == "poly_id"
    assert isinstance(cmd.type, Inter)
    assert isinstance(cmd.body, SPair)


def test_definition_args_desugar_into_body():
    (cmd,) = parse_command("Definition impl_1 p g := inj_r atom (proj_l impl p g).")
    assert cmd.type is None
    assert isinstance(cmd.body, Abs) and isinstance(cmd.body.body, Abs)


def test_command_reprs_list_every_field_in_order():
    (axiom,), (definition,) = parse_script(
        "Axiom a : A -> A. Definition d : Type := fun x : A => x.", "f.bull")

    def at(start, end):  # offsets into the one line
        return f"Location(source='f.bull', start={start}, end={end})"

    assert repr(axiom) == (
        f"Axiom(loc={at(0, 5)}, name='a', type=Prod(loc={at(10, 16)}, name='', "
        f"domain=Const(loc={at(10, 11)}, name='A'), "
        f"codomain=Const(loc={at(15, 16)}, name='A')))")
    assert repr(definition) == (
        f"Definition(loc={at(18, 28)}, name='d', type=Sort(loc={at(33, 37)}, "
        f"kind=<SortKind.TYPE: 'Type'>), body=Abs(loc={at(41, 55)}, name='x', "
        f"domain=Const(loc={at(49, 50)}, name='A'), body=Var(loc={at(54, 55)}, index=0)))")


def test_commands_are_frozen():
    (cmd,) = parse_command("Print a.")
    with pytest.raises(AttributeError):
        cmd.name = "b"
    assert cmd.name == "a"


def test_load_and_print_commands():
    (cmd,) = parse_command('Load "corpus/pierce.bull".')
    assert isinstance(cmd, Load) and cmd.path == "corpus/pierce.bull"
    (cmd,) = parse_command("Print poly_id.")
    assert isinstance(cmd, Print) and cmd.name == "poly_id"


def test_parse_command_never_yields_empty_success():
    for src in ["Help.", "Printall.", "Axiom x : Type.", "Compute x."]:
        assert len(parse_command(src)) >= 1
    with pytest.raises(ParseError):
        parse_command("")
    with pytest.raises(ParseError):
        parse_command("Frobnicate x.")


def test_parse_script_splits_source_commands():
    chunks = parse_script("Axiom a : Type. Axiom (b c : Type). Quit.")
    assert [len(c) for c in chunks] == [1, 2, 1]


# ------------- fix_index / fix_id -------------


def test_fix_index_binds_enclosing_binders():
    t = fix_index(parse_term("fun x : A => x"))
    assert t.body == Var(t.body.loc, 0)
    assert t.domain == Const(t.domain.loc, "A")


def test_fix_index_nested():
    t = fix_index(parse_term("fun x : A => fun y : B => x"))
    assert t.body.body == Var(t.body.body.loc, 1)


def test_fix_index_applied_abstraction_keeps_free_names():
    t = fix_index(parse_term("(fun (x y : nat) => x) y"))
    assert isinstance(t, App)
    assert t.head.body.body == Var(t.head.body.body.loc, 1)
    assert t.spine[0] == Const(t.spine[0].loc, "y")  # free name stays a constant


def test_fix_id_simple():
    t = fix_index(parse_term("fun x : A => x"))
    assert reference_render(fix_id(t)) == "fun x : A => x"


def test_fix_id_renames_on_constant_capture():
    # A binder hint that would capture a constant in its scope gets the
    # first free numeric suffix.
    t = fix_index(parse_term("fun y : nat => q"))
    body = Abs(t.loc, "y", t.domain, Const(t.loc, "y"))  # body mentions global y
    assert reference_render(fix_id(body)) == "fun y0 : nat => y"


def test_fix_id_renames_shadowing_in_scope():
    inner = fix_index(parse_term("fun x : A => fun x : A => x"))
    printed = reference_render(fix_id(inner))
    assert printed == "fun x : A => fun x0 : A => x0"


def test_show_term_matches_the_reference_printer():
    rng = random.Random(41)
    scopes = [(), ("x",), ("x0", "x", "y"), ("c", "x", "x"), ("x", "x0", "x1")]
    for _ in range(3000):
        scope = rng.choice(scopes)
        t = random_printable_term(rng, rng.randint(1, 16), len(scope))
        assert show_term(t, scope) == reference_render(reference_fix_id(t, scope))


@pytest.mark.parametrize("shape, n", [("arrow", 450), ("fun", 450), ("parens", 400)])
def test_parse_term_nests_deeply_at_the_default_recursion_limit(shape, n):
    # The parser keeps at most two Python frames per nesting level: an
    # arrow's right operand re-enters `term` directly, a `fun` body passes
    # through `binder` and a parenthesis through `atom`.  With one frame
    # more per level, the parentheses are too deep.
    assert sys.getrecursionlimit() == 1000
    text = {"arrow": "a" + " -> a" * n, "fun": "fun x => " * n + "x",
            "parens": "(" * n + "x" + ")" * n}[shape]
    t, depth = parse_term(text), 0
    while type(t) in (Prod, Abs):
        t, depth = (t.codomain if type(t) is Prod else t.body), depth + 1
    assert depth == (0 if shape == "parens" else n)
    assert t == {"arrow": Const(NOWHERE, "a"), "fun": Var(NOWHERE, 0),
                 "parens": Const(NOWHERE, "x")}[shape]


@pytest.mark.parametrize("shape", ["app", "fun", "forall"])
def test_show_term_prints_950_nested_levels_at_the_default_recursion_limit(shape):
    # The printer keeps one Python frame per nesting level; a walk with a
    # helper frame between levels reaches only about half this depth.
    assert sys.getrecursionlimit() == 1000
    n, loc = 950, NOWHERE
    if shape == "app":  # f (f (... (f x)))
        t = Const(loc, "x")
        for _ in range(n):
            t = App(loc, Const(loc, "f"), (t,))
        text = "f (" * (n - 1) + "f x" + ")" * (n - 1)
    elif shape == "fun":  # fun x => fun x0 => ... => x948
        t = Var(loc, 0)
        for _ in range(n):
            t = Abs(loc, "x", Underscore(loc), t)
        text = "fun x => " + "".join(f"fun x{i} => " for i in range(n - 1)) + f"x{n - 2}"
    else:  # forall x : A, forall x0 : P x, ..., P x948 -> B
        t = Const(loc, "B")
        for _ in range(n):
            t = Prod(loc, "x", App(loc, Const(loc, "P"), (Var(loc, 0),)), t)
        t = Prod(loc, "x", Const(loc, "A"), t)
        names = ["x"] + [f"x{i}" for i in range(n)]
        text = "forall x : A, " + "".join(
            f"forall {names[i + 1]} : P {names[i]}, " for i in range(n - 1)) + \
            f"P {names[n - 1]} -> B"
    assert show_term(t) == text


def test_fix_id_leaves_an_unused_product_or_motive_binder_unnamed():
    t = fix_id(fix_index(parse_term("forall x : A, forall y : x -> B, B")))
    assert (t.name, t.codomain.name, t.codomain.domain.name) == ("x", "", "")
    motives = [fix_id(fix_index(parse_term(
        f"smatch s as w return {body} with y => y, z => z end"))).motive
        for body in ("P w", "P")]
    assert [m.name for m in motives] == ["w", ""]
    # Abstractions keep their name: `fun` always prints it.
    assert fix_id(fix_index(parse_term("fun y : A => B"))).name == "y"


def test_printing_without_dependent_products_builds_no_occurrence_index(monkeypatch):
    def no_index(self):
        raise AssertionError("occurrence index built")

    monkeypatch.setattr(ConstOccurrences, "_index", no_index)
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, church_product(3)), s.err.getvalue()
    assert s.out.getvalue() == "fun f : o -> o => fun x : o => f (f (f (f (f (f x)))))\n"
    hinted = fix_index(parse_term("forall x : (forall x : o, o), forall x : o, o"))
    assert show_term(hinted) == "(o -> o) -> o -> o"
    assert show_term(hinted, ("x",)) == "(o -> o) -> o -> o"
    monkeypatch.undo()
    assert show_term(fix_index(parse_term("forall A : Type, A -> A"))) == \
        "forall A : Type, A -> A"


@pytest.mark.parametrize("src", [
    "fun x : A => fun x : A => x",
    "forall x : A, forall x : A, P x",
    "forall x : A, forall x : A, P",
    "forall x : (forall x : A, P x), Q x",
    "smatch s as x return (forall x : A, P x) with y => y, z => z end",
    "smatch s as x return (forall y : A, P x) with y => y, z => z end",
])
def test_render_of_shadowing_parsed_terms_matches_the_reference(src):
    t = fix_index(parse_term(src))
    expected = reference_render(reference_fix_id(t))
    assert reference_render(fix_id(t)) == expected
    assert show_term(t) == expected


def test_fix_roundtrip_on_clash_free_terms():
    rng = random.Random(23)
    for _ in range(200):
        named = named_to_syntax(random_named_term(rng, rng.randint(1, 10)))
        assert reference_render(fix_id(fix_index(named))) == reference_render(named)


def test_print_reparse_roundtrip():
    rng = random.Random(29)
    sources = [
        "fun x : A => smatch g x as w return B | A with p : B => inj_l A p, "
        "q : A => inj_r B q end",
        "let r : (A -> A) & (B -> B) := <fun v : A => v, fun v : B => v> in "
        "proj_l r",
        "coe (A | B) (inj_l B a)",
        "forall P : A -> Type, P a -> P (f a)",
    ]
    for _ in range(1000):
        sources.append(reference_render(named_to_syntax(random_named_term(rng, rng.randint(1, 10)))))
    for src in sources:
        t = fix_index(parse_term(src))
        printed = reference_render(fix_id(t))
        again = fix_index(parse_term(printed))
        assert t == again, (src, printed)
        assert fix_index(parse_term(show_term(t))) == t, (src, show_term(t))


def test_print_reparse_over_type_expressions():
    from helpers import enumerate_types
    rng = random.Random(103)
    for t in enumerate_types(2):
        printed = reference_render(fix_id(t))
        assert t == fix_index(parse_term(printed)), printed
        assert t == fix_index(parse_term(show_term(t))), show_term(t)
    deeper = enumerate_types(3)
    for t in rng.sample(deeper, 400):
        printed = reference_render(fix_id(t))
        assert t == fix_index(parse_term(printed)), printed
        assert t == fix_index(parse_term(show_term(t))), show_term(t)


def test_utf8_tolerated_in_comments():
    t = parse_term("(* théorème ✓ *) Type")
    assert reference_render(t) == "Type"


# ------------- the front end against the reference -------------


def _front_end_texts() -> list[tuple[str, str]]:
    """(source name, text): the corpus and the growth-test shapes."""
    texts = []
    for name in CORPUS_FILES:
        with open(corpus_path(name), encoding="utf-8") as handle:
            texts.append((name, handle.read()))
    for family, size in FAMILIES + [(chain_of_holes, 20)]:
        texts.append((family.__name__, family(size // 4 or 1)))
    return texts


def _lex_outcome(text: str, source: str = "t.bull"):
    """The tokens of `text` as `(kind, text, location)`, each offset turned
    into a `(line, column)` by `line_col`, or the lexer's error."""
    try:
        toks = tokenize(text, source)
    except LexError as exc:
        return "LexError", exc.message, line_col_location(text, exc.loc)
    return [(kind, word, line_col_location(text, Location(source, start, end)))
            for kind, word, start, end in zip(toks.kinds, toks.texts, toks.starts, toks.ends)]


def _reference_lex_outcome(text: str, source: str = "t.bull"):
    try:
        return [(t.kind, t.text, t.loc) for t in reference_tokenize(text, source)]
    except LexError as exc:
        return "LexError", exc.message, exc.loc


def test_tokens_match_the_reference_on_corpus_and_growth_shapes():
    for name, text in _front_end_texts():
        toks = _lex_outcome(text, name)
        assert toks[-1][0] == "EOF"
        assert toks == _reference_lex_outcome(text, name)


# Fragments chosen to straddle every lexer state: nested and unterminated
# comments and strings, tabs, CR, multi-character operators and non-ASCII.
_LEX_PIECES = ["(*", "*)", "(", ")", "*", '"', "\n", "\t", "\r", " ", "->", "-",
               "=>", "=", ":=", ":", ".", ",", "<", ">", "&", "|", "_", "x'",
               "Type", "fun", "A0", "é", "λ", "✓", "#", "Kind"]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join)
       | st.text(max_size=40))
def test_lexer_matches_the_reference_on_arbitrary_text(text):
    assert _lex_outcome(text) == _reference_lex_outcome(text)


def _reports(text: str) -> list[tuple[str, str]]:
    """For each token of `text`, and for each span from one token to the
    next one, the error report at it and the reference report at the same
    `(line, column)` location; the lexer's error when there is one."""
    try:
        toks = tokenize(text, "t.bull")
    except LexError as exc:
        (_, message, loc) = _reference_lex_outcome(text)
        return [(render_error(text, exc), reference_render_error(text, message, loc))]
    ref = reference_tokenize(text, "t.bull")
    out = []
    for i in range(len(toks)):
        for j in range(i, min(i + 2, len(toks))):
            err = TypeCheckError("m", span(toks.loc(i), toks.loc(j)))
            loc = Location("t.bull", ref[i].loc.start, ref[j].loc.end)
            out.append((render_error(text, err), reference_render_error(text, "m", loc)))
    return out


@pytest.mark.parametrize("text", [
    "a\tb :\t\tc.", "a b\r\nc\r\n", "a\nb c", "f (x\n  y) z\n", "\ta\n\n\tb\r",
    "(* c *)\tx\r\n\r\n", "x\n#", 'Load "p\n', "", "\n\n",
])
def test_error_reports_match_the_reference_on_tabs_crs_and_last_lines(text):
    for report, expected in _reports(text):
        assert report == expected


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_error_reports_match_the_reference_at_every_token(text):
    for report, expected in _reports(text):
        assert report == expected


def test_fix_index_matches_the_reference_on_parsed_commands():
    # The named parse leaves every name a `Const`, so `fix_index` has names
    # to resolve.  `repr` shows locations and binder names too, not only
    # the indices.
    resolved = 0
    for name, text in _front_end_texts():
        for group in _named_script(text, name):
            for cmd in group:
                for t in (getattr(cmd, "type", None), getattr(cmd, "body", None)):
                    if t is not None:
                        assert repr(fix_index(t)) == repr(reference_fix_index(t)), name
                        resolved += fix_index(t) != t
    assert resolved > 20, resolved


# Shadowing names and binder groups whose type mentions a name of the group.
_SHADOWING_SOURCES = (
    "fun (x : A) (x : x) => x y", "fun (x y z : x) => forall (w v : y), z",
    "fun x y : y => let f (y x : x) := x in f", "forall (y x : x) (z : x), y",
)


def test_fix_index_matches_the_reference_on_random_shadowing_terms():
    rng = random.Random(9)
    names = ("x", "x0", "y", "c", "")
    for _ in range(400):
        t = random_printable_term(rng, rng.randint(1, 30), indexed=False)
        scope = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
        assert repr(fix_index(t, scope)) == repr(reference_fix_index(t, scope)), (t, scope)
    for src in _SHADOWING_SOURCES:
        t = parse_term(src)
        assert repr(fix_index(t, ("y", "x", "y"))) == repr(reference_fix_index(t, ("y", "x", "y")))


class _NamedParser(_Parser):
    """The parser with names left unresolved: every binder binds the empty
    name, which no identifier is, so every name comes back a `Const`."""

    def bind(self, name: str) -> None:
        super().bind("")


def _named_script(text: str, source: str) -> list[list]:
    p = _NamedParser(tokenize(text, source))
    out = []
    while not p.at("EOF"):
        out.append(p.command())
    return out


def _random_source(rng: random.Random, size: int) -> str:
    """A random term over every binding site, its names drawn from three so
    that binders shadow each other and groups mention their own names."""
    if size <= 1:
        return rng.choice("xyzc")
    x, y, z = rng.choices("xyz", k=3)
    a, b, c, d = (f"({_random_source(rng, size // 3)})" for _ in range(4))
    args = rng.choice([x, f"{x} ({y} {z} : {a})", f"({x} {y} : {a}) {z}"])
    return rng.choice([
        f"fun {args} => {b}", f"forall {args}, {b}", f"fun {x} {y} : {a} => {b}",
        f"{a} -> {b}", f"{a} {b}", f"let {x} {args} : {b} := {c} in {d}",
        f"let {x} := {a} in {b}",
        f"smatch {a} as {x} return {b} with {y} : {c} => {d}, {z} => {a} end",
        f"smatch {a} with {x} => {b}, {y} : {c} => {d} end",
    ])


def test_the_parser_resolves_names_as_the_reference_indexes_a_named_parse():
    # `repr` compares locations and binder names as well as the indices.
    rng = random.Random(27)
    sources = [*_SHADOWING_SOURCES,
               "forall x : A, A -> x", "fun (x : A) => B -> forall y : x -> x, y -> x",
               "forall x, (forall y, y -> x) -> x -> forall x : x, x",
               "smatch s as x return P x -> x with y : x => y x, z : P z => z end",
               "fun x => smatch x with x => x, y : x => y x end",
               "let f (x y : A) (z : x) : P x y z := g z x in f f",
               "let x x : x := x in x"]
    sources += [_random_source(rng, rng.randint(1, 40)) for _ in range(400)]
    texts = [*_front_end_texts(), *(("t.bull", f"Definition d := {src}.") for src in sources),
             ("t.bull", "Definition d (x : A) (y z : x) : P x y -> z := fun w => g x w z.")]
    for name, text in texts:
        for group, named_group in zip(parse_script(text, name), _named_script(text, name),
                                      strict=True):
            for cmd, named in zip(group, named_group, strict=True):
                for field in ("type", "body"):
                    named_t = getattr(named, field, None)
                    expected = None if named_t is None else reference_fix_index(named_t)
                    assert repr(getattr(cmd, field, None)) == repr(expected), (name, text)


def test_every_name_of_a_binder_group_reads_the_type_outside_the_group():
    t = fix_index(parse_term("fun (x y z : x) => z"), ("x",))
    assert [t.domain, t.body.domain, t.body.body.domain] == [Var(NOWHERE, i) for i in range(3)]
    t = fix_index(parse_term("fun (x : x) (y : x) => y"), ("x",))
    assert [t.domain, t.body.domain] == [Var(NOWHERE, 0), Var(NOWHERE, 0)]


def _python_calls(fn, *args) -> list[str]:
    """The names of the Python functions that run during `fn(*args)`."""
    calls = []
    sys.setprofile(lambda frame, event, _arg: event == "call" and calls.append(
        frame.f_code.co_name))
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_the_lexer_makes_no_python_call_per_token():
    # The columns are built by C-level calls (`split`, `accumulate`, `map`),
    # so the Python code that runs does not grow with the text.
    line = "a : (A -> B) & C.\n"  # ten tokens
    assert len(tokenize(line)) == 11 and len(tokenize(line * 1000)) == 10_001
    assert _python_calls(tokenize, line) == _python_calls(tokenize, line * 1000)


def test_span_builds_a_location_without_calling_python_code():
    # `Location(...)` runs Python code; `span` builds the tuple with
    # `tuple.__new__`.
    toks = tokenize("Definition d :=\n  (* c *) fun x => x.", "t.bull")
    a, b = toks.loc(0), toks.loc(len(toks) - 2)
    assert _python_calls(span, a, b) == ["span"]
    loc = span(a, b)
    assert loc == Location("t.bull", 0, 37) and hash(loc) == hash(Location(*loc))
    assert repr(loc) == "Location(source='t.bull', start=0, end=37)"
    assert (loc.source, loc.start, loc.end) == ("t.bull", 0, 37)


class _SplitRecorder:
    """Stands for the lexer's split pattern and records the length of every
    string it is given."""

    def __init__(self, pattern):
        self.pattern, self.lengths = pattern, []

    def split(self, text):
        self.lengths.append(len(text))
        return self.pattern.split(text)


_COMMENTED_SCRIPTS = {
    "a comment per line": "".join(f"Axiom a{i} : A. (* c{i} *)\n" for i in range(2000)),
    "code after comments on one line": " ".join(f"(* c{i} *) a{i}" for i in range(2000)),
    "an opener in a string": "".join(f'Load "a(*b". (* c *) x{i}\n' for i in range(2000)),
    "nested comments": "".join(f"(* a (* b{i} *) (* *) c *) x\n" for i in range(2000)),
    "an unterminated comment": "x (* c *) y\n" * 2000 + "z (* (* *) never closed",
}


@pytest.mark.parametrize("name", list(_COMMENTED_SCRIPTS))
def test_lexing_stays_linear_in_the_text(monkeypatch, name):
    text = _COMMENTED_SCRIPTS[name]
    recorder = _SplitRecorder(parser_module._TOKEN)
    monkeypatch.setattr(parser_module, "_TOKEN", recorder)
    try:
        outcome = _lex_outcome(text)
    finally:
        monkeypatch.undo()
    assert outcome == _reference_lex_outcome(text)
    assert text.count("(*") >= 2000 and sum(recorder.lengths) < 2 * len(text), name


def test_an_unterminated_comment_is_located_at_its_opener_on_its_own_line():
    with pytest.raises(LexError) as info:
        tokenize("a\n(* x\ny\n", "t.bull")
    assert info.value.message == "unterminated comment"
    assert (info.value.loc.start, info.value.loc.end) == (2, 4)  # (2, 1) to (2, 3)


def test_fix_id_eta_expands_a_motive_that_is_not_an_abstraction():
    t = fix_index(parse_term("smatch s with y => y, z => z end"))
    loc = t.loc
    cases = [(Var(loc, 0), "smatch s as x return P x with"),
             (App(loc, Const(loc, "x"), (Var(loc, 0),)), "smatch s as x0 return x P x0 with")]
    for motive, text in cases:
        u = SMatch(loc, t.scrutinee, motive, t.name1, t.annot1, t.branch1,
                   t.name2, t.annot2, t.branch2)
        assert show_term(u, ("P",)).startswith(text)
