"""Command loop: atomic backtracking, output goldens, scripts, exit codes."""

import io
import os
import subprocess
import sys

import pytest

import proofun
from proofun import normalize
from proofun.repl import (
    HELP_TEXT, QuitRequested, Session, load_file, main, run_source,
)

from proofun.errors import TypeCheckError
from proofun.pretty import render_error
from proofun.refine import elaborate_type
from proofun.syntax import Location

from helpers import corpus_path
from test_growth import church_product

with open(os.path.join(os.path.dirname(__file__), "golden", "help.txt"),
          encoding="utf-8") as _f:
    HELP_GOLDEN = _f.read().rstrip("\n")


def session():
    return Session(quiet=True, out=io.StringIO(), err=io.StringIO())


def out_of(s: Session) -> str:
    return s.out.getvalue()


def printall(s: Session) -> str:
    saved = s.out
    s.out = io.StringIO()
    assert run_source(s, "Printall.")
    text = s.out.getvalue()
    s.out = saved
    return text


def test_sessions_share_no_signature_or_load_set():
    a, b = Session(), Session()
    assert a.genv is not b.genv and a.loading is not b.loading
    assert a.genv.names() == b.genv.names() == [] and a.loading == b.loading == set()


def test_help_matches_the_command_table():
    s = session()
    assert run_source(s, "Help.")
    assert out_of(s).rstrip("\n") == HELP_GOLDEN
    assert HELP_TEXT == HELP_GOLDEN


def test_axiom_list_extends_signature_by_three():
    s = session()
    assert run_source(s, "Axiom (a b : Type) (f : a -> b).")
    assert s.genv.names() == ["a", "b", "f"]


def test_failing_list_is_atomic():
    s = session()
    assert run_source(s, "Axiom (a : Type).")
    before = printall(s)
    ok = run_source(s, "Axiom (b : Type) (c : broken_name) (d : Type).")
    assert not ok
    assert printall(s) == before
    assert "b" not in s.genv and "d" not in s.genv


def test_duplicate_name_fails_atomically():
    s = session()
    before = printall(s)
    assert not run_source(s, "Axiom (a : Type) (a : Type).")
    assert printall(s) == before


def test_quit_raises_quit_requested():
    s = session()
    with pytest.raises(QuitRequested):
        run_source(s, "Quit.")


def test_print_and_printall_formats():
    s = session()
    assert run_source(s, 'Axiom s : Type. Definition idty : s -> s := fun x : s => x.')
    s.out = io.StringIO()
    assert run_source(s, "Print idty.")
    assert out_of(s) == "idty : s -> s\nidty := fun x : s => x\n"
    s.out = io.StringIO()
    assert run_source(s, "Printall.")
    assert out_of(s) == "Axiom s : Type\nDefinition idty : s -> s\n"


def test_print_unknown_name_fails():
    s = session()
    assert not run_source(s, "Print ghost.")
    assert "unknown" in s.err.getvalue()


def test_compute_normalizes_and_prints():
    s = session()
    assert run_source(s, "Axiom nat : Type. Axiom y : nat.")
    assert run_source(s, "Definition t := (fun (x y : nat) => x) y.")
    s.out = io.StringIO()
    assert run_source(s, "Compute t.")
    assert out_of(s) == "fun y0 : nat => y\n"


def test_chain_of_local_definitions_in_a_binder_type():
    # the type of z unfolds y, then x, to A
    s = session()
    assert run_source(s, "Axiom (A : Type) (g : A -> A).")
    assert run_source(s, "Definition d := let x : Type := A in "
                         "let y : Type := x in fun (z : y) => g z."), s.err.getvalue()
    s.out = io.StringIO()
    assert run_source(s, "Print d.")
    assert out_of(s).splitlines()[0] == "d : A -> A"


@pytest.mark.parametrize("definition, printed", [
    ("Definition d := fun (x y : x) => y.", "d : x -> x -> x"),
    ("Definition d := fun x y : x => y.", "d : x -> x -> x"),
    ("Definition d := forall (x y : x), T.", "d : Type"),
    ("Definition d := let f (x y : x) := y in f.", "d : x -> x -> x"),
    ("Definition d (x y : x) := y.", "d : x -> x -> x"),
    ("Definition d (x y z : x) := z.", "d : x -> x -> x -> x"),
], ids=["fun", "fun_typed_tail", "forall", "let", "definition", "definition_three"])
def test_a_binder_group_reads_its_type_outside_the_group(definition, printed):
    # in `(x y : x)` both names get the global `x`, as in Coq
    s = session()
    assert run_source(s, "Axiom (T : Type) (x : Type).")
    assert run_source(s, definition), s.err.getvalue()
    s.out = io.StringIO()
    assert run_source(s, "Print d.")
    assert out_of(s).splitlines()[0] == printed


def test_separate_binders_read_a_type_under_the_earlier_name():
    s = session()
    assert run_source(s, "Axiom (T : Type) (x : Type).")
    assert not run_source(s, "Definition d := fun (x : x) (y : x) => y.")
    assert 'the term "x" is not a type' in s.err.getvalue()


def test_compute_axiom_is_its_own_normal_form():
    s = session()
    assert run_source(s, "Axiom nat : Type.")
    s.out = io.StringIO()
    assert run_source(s, "Compute nat.")
    assert out_of(s) == "nat\n"


def test_load_keeps_earlier_successes_on_failure(tmp_path):
    script = tmp_path / "partial.bull"
    script.write_text(
        "Axiom ok1 : Type.\nAxiom bad : missing_thing.\nAxiom ok2 : Type.\n")
    s = session()
    assert not load_file(s, str(script))
    assert "ok1" in s.genv
    assert "bad" not in s.genv and "ok2" not in s.genv  # remainder aborted


def test_load_missing_file_reports():
    s = session()
    assert not run_source(s, 'Load "does/not/exist.bull".')
    assert "cannot open" in s.err.getvalue()


def test_replay_determinism():
    outputs = []
    for _ in range(2):
        s = session()
        assert load_file(s, corpus_path("basics.bull"))
        outputs.append(printall(s))
    assert outputs[0] == outputs[1]


def test_error_report_echoes_line_and_caret():
    s = session()
    src = "Definition broken : s := t."
    assert run_source(s, "Axiom (s t0 : Type).")
    assert not run_source(s, src)
    report = s.err.getvalue()
    assert src.splitlines()[0] in report
    assert "^" in report
    assert report.index("^") > report.index(src.splitlines()[0])


def test_error_report_echoes_the_lexers_line_across_other_line_breaks():
    # The lexer ends a line only at "\n": a form feed, U+2028, U+0085 or a
    # lone "\r" inside a comment leaves the blamed token on the same line.
    for brk in ("\f", "\u2028", "\r", "\x85"):
        s = session()
        src = f"Axiom (A : Type). (* a{brk}b *) Axiom a : B."
        assert not run_source(s, src)
        column = src.index(" B.") + 1
        assert s.err.getvalue() == (
            f"{src}\n{' ' * column}^\nError: unknown identifier \"B\"\n")


@pytest.mark.parametrize("setup, command, report", [
    ("Axiom a : Type.", "Axiom a : Type.", "^^^^^\nError: the name \"a\" is already defined"),
    ("Axiom (A : Type) (a : A).\nDefinition d := a.", "Definition d := a.",
     "^^^^^^^^^^\nError: the name \"d\" is already defined"),
], ids=["axiom", "definition"])
def test_a_duplicate_name_is_reported_at_its_command(setup, command, report):
    s = session()
    assert run_source(s, setup)
    names = s.genv.names()
    assert not run_source(s, command + "\n")
    assert s.genv.names() == names
    assert s.err.getvalue() == f"{command}\n{report}\n"


@pytest.mark.parametrize("command, report", [
    ("Definition d := coe _ a.",
     "                ^^^^^^^\nError: cannot decide subtyping against an incomplete type"),
    ("Compute nope.", "^^^^^^^\nError: unknown identifier \"nope\""),
    ("Axiom a Type.", "        ^^^^\nError: expected \":\" but found \"Type\""),
    ("Definition d (x : A := x.",
     "                    ^^\nError: expected \")\" but found \":=\""),
    ("Definition d := fun => x.",
     "                    ^^\nError: expected at least one argument"),
    ("Axiom .", "      ^\nError: expected a name or a parenthesized group"),
], ids=["coe_incomplete_type", "compute_unknown", "axiom_colon", "binder_paren",
        "fun_without_binder", "axiom_without_name"])
def test_command_errors_are_reported_whole(command, report):
    s = session()
    assert run_source(s, "Axiom (A : Type) (a : A).")
    assert not run_source(s, command + "\n")
    assert s.genv.names() == ["A", "a"]
    assert s.err.getvalue() == f"{command}\n{report}\n"


def test_too_deep_is_reported_at_the_running_command_only():
    # Normalising `mul c125 c8` nests 1,000 applications: too deep for the
    # read-back, which runs inside `Compute q`.
    s = session()
    c8 = "fun (f : o -> o) (x : o) => " + "f (" * 8 + "x" + ")" * 8
    assert run_source(s, church_product(125).replace("Compute p.\n", "")
                      + f"Definition c8 := {c8}.\nDefinition q := mul c125 c8.\n")
    assert not run_source(s, "Compute q.\n")
    assert s.err.getvalue() == "Compute q.\n^^^^^^^\nError: the input is nested too deeply to process\n"
    # Parsing runs before any command: no place to report at.
    s = session()
    depth = 3000
    assert not run_source(s, "Axiom x : " + "(" * depth + "Type" + ")" * depth + ".")
    assert s.err.getvalue() == "Error: the input is nested too deeply to process\n"


def test_error_report_marks_the_start_of_a_span_across_a_line_break():
    err = TypeCheckError("boom", Location("<input>", 4, 12))  # from (1, 5) to (2, 3)
    assert render_error("abc defgh\nij kl.\n", err) == "abc defgh\n    ^\nError: boom"


def test_error_report_drops_the_carriage_return_of_a_crlf_line():
    s = session()
    assert not run_source(s, "Axiom (A : Type).\r\nAxiom a : B.\r\n")
    assert s.err.getvalue() == (
        "Axiom a : B.\n          ^\nError: unknown identifier \"B\"\n")


def test_error_report_keeps_the_lines_tabs_under_the_caret():
    s = session()
    assert not run_source(s, "Axiom (A : Type).\n\tAxiom a :\t B.\n")
    assert s.err.getvalue() == (
        "\tAxiom a :\t B.\n\t         \t ^\nError: unknown identifier \"B\"\n")


def test_error_report_keeps_the_tabs_inside_the_blamed_span():
    s = session()
    assert run_source(s, "Axiom (A : Type) (P : A -> Type).")
    src = "Definition d := fun (X :\tType) => X."
    assert not run_source(s, src)
    assert s.err.getvalue() == (
        f"{src}\n{' ' * 16}{'^' * 8}\t{'^' * 10}\n"
        "Error: this product is not allowed by the sort discipline\n")


def test_multiline_commands_and_comments():
    s = session()
    text = """(* a comment
    spanning lines *)
    Axiom s : Type.
    Definition two_lines : s -> s :=
      fun x : s => x.
    """
    assert run_source(s, text)
    assert s.genv.names() == ["s", "two_lines"]


def test_cli_runs_scripts_and_reports_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.bull"
    good.write_text("Axiom s : Type.\nQuit.\n")
    assert main([str(good), "--quiet"]) == 0
    bad = tmp_path / "bad.bull"
    bad.write_text("Axiom s : broken.\n")
    assert main([str(bad), "--quiet", "--no-color"]) == 1
    assert main(["--definitely-not-a-flag"]) == 2
    capsys.readouterr()


def test_cli_flags_of_one_call_do_not_carry_into_the_next(tmp_path, capsys):
    # The argument parser is built once and reused by every call.
    script = tmp_path / "s.bull"
    script.write_text("Axiom s : Type.\n")
    assert main([str(script)]) == 0
    assert capsys.readouterr().out == "s is declared.\n"
    assert main([str(script), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main([str(script)]) == 0
    assert capsys.readouterr().out == "s is declared.\n"
    assert main(["--help"]) == 0
    assert "--no-color" in capsys.readouterr().out
    assert main(["--quiet", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_public_api_names_all_resolve():
    namespace: dict = {}
    exec("from proofun import *", namespace)
    for name in proofun.__all__:
        assert namespace[name] is getattr(proofun, name), name


def test_python_dash_m_proofun_runs_scripts(tmp_path):
    script = tmp_path / "ok.bull"
    script.write_text("Axiom s : Type.\nCompute s.\n")
    src_dir = os.path.dirname(os.path.dirname(proofun.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    done = subprocess.run([sys.executable, "-m", "proofun", "--quiet", str(script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "s\n", "")


def test_cli_loads_corpus_files(capsys):
    paths = [corpus_path(n) for n in
             ("basics.bull", "pierce.bull", "harrop.bull")]
    assert main([*paths, "--quiet"]) == 0
    capsys.readouterr()


def test_quiet_suppresses_acknowledgements():
    loud = Session(quiet=False, out=io.StringIO(), err=io.StringIO())
    assert run_source(loud, "Axiom s : Type.")
    assert "s is declared." in loud.out.getvalue()
    silent = session()
    assert run_source(silent, "Axiom s : Type.")
    assert silent.out.getvalue() == ""


def test_interactive_loop_accumulates_until_period(monkeypatch):
    lines = iter([
        "Axiom s : Type.",
        "Definition two :",     # incomplete: no period yet
        "  s -> s := fun x : s => x.",
        "Print two.",
        "Quit.",
    ])
    monkeypatch.setattr("builtins.input", lambda _prompt="": next(lines))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert "two : s -> s" in out_of(s)


def test_interactive_loop_recovers_after_error(monkeypatch):
    lines = iter(["Axiom bad : nope.", "Axiom s : Type.", "Printall."])

    def reader(_prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", reader)
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert "Axiom s : Type" in out_of(s)
    assert "unknown identifier" in s.err.getvalue()


def _interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt


def test_interrupted_compute_is_a_located_error_and_the_session_continues(
        monkeypatch, capsys, tmp_path):
    lines = iter(["Axiom (o : Type) (a : o).", "Definition d := a.", "Compute d.",
                  "Axiom b : o.", "Printall."])

    def reader(_prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", reader)
    monkeypatch.setattr("proofun.repl.strongly_normalize", _interrupt)
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert s.err.getvalue() == "Compute d.\n^^^^^^^\nError: interrupted\n"
    assert s.genv.names() == ["o", "a", "d", "b"]
    assert "Axiom b : o" in out_of(s)
    script = tmp_path / "interrupted.bull"
    script.write_text("Axiom (o : Type) (a : o).\nDefinition d := a.\nCompute d.\nAxiom b : o.\n")
    assert main([str(script), "--quiet", "--no-color"]) == 1
    assert capsys.readouterr().err.endswith("Error: interrupted\n")


def test_interrupt_rolls_back_the_whole_source_command(monkeypatch):
    s = session()
    assert run_source(s, "Axiom (o : Type) (a : o).")
    calls = []

    def elaborate_type_then_interrupt(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return elaborate_type(*args)

    monkeypatch.setattr("proofun.repl.elaborate_type", elaborate_type_then_interrupt)
    # Two groups: one group's names share one elaboration of its type.
    assert not run_source(s, "Axiom (b : o) (c : o).")
    assert s.genv.names() == ["o", "a"]  # `b` was added, then rolled back
    assert s.err.getvalue().endswith("Error: interrupted\n")
    monkeypatch.undo()
    assert run_source(s, "Axiom (b : o) (c : o).")
    assert s.genv.names() == ["o", "a", "b", "c"]


def _counting_elaborate_type(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return elaborate_type(*args)
    monkeypatch.setattr("proofun.repl.elaborate_type", counting)
    return calls


def test_an_axiom_group_elaborates_its_shared_type_once(monkeypatch):
    s = session()
    calls = _counting_elaborate_type(monkeypatch)
    assert run_source(s, "Axiom (o : Type).\nAxiom (a b c d e : o -> o) (f : o).")
    assert len(calls) == 3
    assert s.genv.names() == ["o", "a", "b", "c", "d", "e", "f"]
    assert len({id(s.genv.lookup(name)) for name in "abcde"}) == 1
    assert run_source(s, "Print e.") and s.out.getvalue() == "e : o -> o\n"


def test_a_duplicate_name_in_an_axiom_group_rolls_back_the_group(monkeypatch):
    s = session()
    calls = _counting_elaborate_type(monkeypatch)
    assert not run_source(s, "Axiom (a a : Type).")
    assert len(calls) == 1 and s.genv.names() == []
    assert s.err.getvalue() == (
        'Axiom (a a : Type).\n^^^^^\nError: the name "a" is already defined\n')
    assert run_source(s, "Axiom (o : Type).")
    assert not run_source(s, "Axiom (a b : o) (b c : o -> o).")
    assert s.genv.names() == ["o"]
    assert s.err.getvalue().endswith(
        'Axiom (a b : o) (b c : o -> o).\n^^^^^\nError: the name "b" is already defined\n')


def test_an_axiom_group_whose_type_names_the_group_is_an_unknown_identifier():
    s = session()
    assert not run_source(s, "Axiom (x y : x).")
    assert s.genv.names() == []
    assert s.err.getvalue() == (
        'Axiom (x y : x).\n             ^\nError: unknown identifier "x"\n')


def test_cli_piped_stdin(tmp_path):
    import subprocess
    import sys as _sys
    proc = subprocess.run(
        [_sys.executable, "-m", "proofun.repl", "--quiet"],
        input="Axiom s : Type.\nPrint s.\nQuit.\n",
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "s : Type\n"


def test_piped_stdin_waits_for_a_command_that_ends_on_a_later_line():
    # A line that ends inside a command is held until the buffer's last
    # token is ".", even when an earlier command on that line is complete.
    proc = subprocess.run(
        [sys.executable, "-m", "proofun", "--no-color"],
        input="Axiom (A : Type).\nAxiom a : A. Axiom b\n: A.\nPrint b.\n",
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "A is declared.\na is declared.\nb is declared.\nb : A\n"


def test_nested_load(tmp_path):
    inner = tmp_path / "inner.bull"
    inner.write_text("Axiom s : Type.\n")
    outer = tmp_path / "outer.bull"
    outer.write_text(f'Load "{inner}".\nAxiom t : Type.\n')
    s = session()
    assert load_file(s, str(outer))
    assert s.genv.names() == ["s", "t"]


def test_a_file_that_loads_itself_is_a_located_error(tmp_path):
    script = tmp_path / "self.bull"
    script.write_text(f'Axiom s : Type.\nLoad "{script}".\nAxiom t : Type.\n')
    s = session()
    assert not load_file(s, str(script))
    report = s.err.getvalue()
    assert f'Load "{script}".\n^' in report
    assert report.rstrip("\n").endswith(f'Error: cyclic Load: "{script}" is already being loaded')
    assert s.genv.names() == ["s"]  # earlier successes kept, the rest aborted
    assert not s.loading


def test_a_load_cycle_through_two_files_is_reported_at_the_closing_load(tmp_path):
    a, b = tmp_path / "a.bull", tmp_path / "b.bull"
    a.write_text(f'Load "{b}".\n')
    b.write_text(f'\nLoad "{tmp_path}/../{tmp_path.name}/a.bull".\n')
    s = session()
    assert not run_source(s, f'Load "{a}".')
    report = s.err.getvalue()
    assert report.count("Error:") == 1
    assert report.startswith(f'Load "{tmp_path}/../{tmp_path.name}/a.bull".\n^')
    assert "cyclic Load" in report and "a.bull" in report
    assert not s.loading


def test_a_file_loaded_twice_outside_a_cycle_runs_twice(tmp_path):
    inner = tmp_path / "inner.bull"
    inner.write_text("Print s.\n")
    outer = tmp_path / "outer.bull"
    outer.write_text(f'Load "{inner}".\nLoad "{inner}".\n')
    s = session()
    assert run_source(s, "Axiom s : Type.")
    assert load_file(s, str(outer))
    assert out_of(s) == "s : Type\ns : Type\n"


def test_color_wraps_error_reports():
    s = Session(quiet=True, color=True, out=io.StringIO(), err=io.StringIO())
    assert not run_source(s, "Print ghost.")
    report = s.err.getvalue()
    assert report.startswith("\x1b[31m") and report.rstrip("\n").endswith("\x1b[0m")


def test_garbage_input_never_escapes_as_raw_exceptions():
    import random
    import string
    from proofun.errors import ProverError
    rng = random.Random(107)
    alphabet = string.ascii_letters + string.digits + " ()<>&|:=.,->_'\"\n*"
    soup = ["Axiom", "Definition", "fun", "forall", "let", "in", "smatch",
            "with", "end", "coe", "proj_l", "inj_r", "Type", ":=", "->",
            "=>", ":", ".", "(", ")", "<", ">", "&", "|", "_", "x", "y",
            "s", '"f"', "(*", "*)"]
    for _ in range(600):
        if rng.random() < 0.5:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        else:
            text = " ".join(rng.choice(soup) for _ in range(rng.randint(1, 25)))
        s = session()
        try:
            run_source(s, text)
        except (QuitRequested, ProverError):
            pass  # anything else is a defect and fails the test


def test_deeply_nested_input_reports_instead_of_crashing():
    depth = 2000
    src = "Axiom x : " + "(" * depth + "Type" + ")" * depth + "."
    s = session()
    ok = run_source(s, src)
    if ok:  # small enough for the interpreter stack: fine
        assert "x" in s.genv
    else:
        assert "nested too deeply" in s.err.getvalue()


def test_compute_prints_a_normal_form_250_applications_deep():
    # `mul c125 c2` normalises to `fun f x => f (f (... (f x)))`.
    s = session()
    assert run_source(s, church_product(125)), s.err.getvalue()
    assert out_of(s) == ("fun f : o -> o => fun x : o => "
                         + "f (" * 249 + "f x" + ")" * 249 + "\n")


def test_compute_prints_a_normal_form_500_applications_deep():
    # `mul c125 c4`: normalising and rendering take one Python frame per
    # nested application, so this fits the default recursion limit.
    s = session()
    c4 = "fun (f : o -> o) (x : o) => f (f (f (f x)))"
    script = church_product(125) + f"Definition c4 := {c4}.\nDefinition q := mul c125 c4.\n"
    assert run_source(s, script), s.err.getvalue()
    s.out = io.StringIO()
    assert run_source(s, "Compute q."), s.err.getvalue()
    assert out_of(s) == ("fun f : o -> o => fun x : o => "
                         + "f (" * 499 + "f x" + ")" * 499 + "\n")


def test_a_definition_checked_against_its_own_type_450_applications_deep():
    # `unify` first tests the annotation and the inferred type with `!=`,
    # which walks them with an explicit stack, not a frame per level.
    spine = "f (" * 449 + "f a" + ")" * 449
    s = session()
    script = ("Axiom (A : Type) (f : A -> A) (a : A) (P : A -> Type).\n"
              f"Axiom p : P ({spine}).\nDefinition d : P ({spine}) := p.\n")
    assert run_source(s, script), s.err.getvalue()
    assert "d" in s.genv


def test_show_term_reports_excessive_depth_as_a_prover_error():
    from proofun.errors import ProverError
    from proofun.pretty import show_term
    from proofun.syntax import NOWHERE, Const, Prod
    t = Const(NOWHERE, "A")
    for _ in range(5000):
        t = Prod(NOWHERE, "", Const(NOWHERE, "A"), t)
    with pytest.raises(ProverError, match="nested too deeply"):
        show_term(t)


def doubling_script(k: int) -> str:
    """`dk a` has a normal form with 2^(k+1) - 1 applications of `g`."""
    lines = ["Axiom (A : Type) (g : A -> A -> A) (a : A).",
             "Definition d0 (x : A) : A := g x x."]
    lines += [f"Definition d{i} (x : A) : A := g (d{i - 1} x) (d{i - 1} x)."
              for i in range(1, k + 1)]
    lines.append(f"Definition top : A := d{k} a.")
    return "\n".join(lines) + "\n"


def test_fuel_exhaustion_is_a_located_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(normalize, "DEFAULT_FUEL", 2000)
    s = session()
    assert run_source(s, doubling_script(10)), s.err.getvalue()
    names = s.genv.names()
    assert not run_source(s, "Print top.\nCompute top.")
    assert s.genv.names() == names
    assert s.err.getvalue() == (
        "Compute top.\n^^^^^^^\n"
        "Error: normalization did not terminate within the step budget\n")
    script = tmp_path / "doubling.bull"
    script.write_text(doubling_script(10) + "Compute top.\nAxiom after : A.\n")
    assert main([str(script), "--quiet", "--no-color"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("Error: normalization did not terminate within the step budget\n")


# ------------- one token list per script, one failure path -------------


def test_an_unterminated_final_command_is_reported_before_anything_runs():
    s = session()
    assert not run_source(s, "Axiom s : Type.\nAxiom t : s")
    assert s.genv.names() == []
    assert s.err.getvalue() == (
        'Axiom t : s\n          ^\nError: expected "." at the end of the command\n')


def test_a_parse_error_in_the_third_command_keeps_the_first_two():
    s = session()
    assert not run_source(s, "Axiom a : Type.\nAxiom b : a.\nAxiom c : ).\nAxiom d : a.")
    assert s.genv.names() == ["a", "b"]
    assert s.err.getvalue() == 'Axiom c : ).\n          ^\nError: expected a term but found ")"\n'


def test_run_source_and_parse_script_split_texts_into_the_same_commands(monkeypatch):
    from test_parser import _front_end_texts
    from proofun.parser import parse_script
    for name, text in _front_end_texts():
        ran = []
        monkeypatch.setattr("proofun.repl.exec_command",
                            lambda _s, cmd, _typed: ran.append(cmd))
        assert run_source(session(), text, name)
        parsed = [cmd for group in parse_script(text, name) for cmd in group]
        assert repr(ran) == repr(parsed), name


def _lines_then_eof(lines):
    lines = iter(lines)

    def reader(_prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError
    return reader


def test_an_interrupt_while_parsing_is_reported_and_the_session_continues(
        monkeypatch, capsys, tmp_path):
    from proofun import repl as repl_module
    parse_chunk, calls = repl_module._parse_chunk, []

    def interrupt_the_second_parse(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return parse_chunk(*args)

    monkeypatch.setattr("proofun.repl._parse_chunk", interrupt_the_second_parse)
    script = tmp_path / "interrupted.bull"
    script.write_text("Axiom o : Type.\nAxiom a : o.\nAxiom b : o.\n")
    try:
        assert main(["--quiet", "--no-color", str(script)]) == 1
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped from main")
    assert capsys.readouterr().err == "Error: interrupted\n"
    monkeypatch.setattr("builtins.input", _lines_then_eof(
        ["Axiom o : Type.", "Axiom a : o.", "Axiom b : o.", "Printall."]))
    calls.clear()
    s = session()
    try:
        assert repl_module.repl(s) == 0
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped from the interactive loop")
    assert s.err.getvalue() == "Error: interrupted\n"
    assert s.genv.names() == ["o", "b"]
    assert out_of(s) == "Axiom o : Type\nAxiom b : o\n"


def test_a_comment_spanning_lines_can_be_typed_at_the_prompt(monkeypatch):
    monkeypatch.setattr("builtins.input", _lines_then_eof(
        ["Axiom A : Type. (* a", "multi-line comment *)", "Axiom a : A.", "Print a.",
         "Axiom b : A. (* (* nested", "*) still open", "*) Print b."]))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert s.err.getvalue() == ""
    assert s.genv.names() == ["A", "a", "b"]
    assert out_of(s) == "a : A\nb : A\n"


def test_other_lex_errors_are_reported_at_the_prompt_at_once(monkeypatch):
    monkeypatch.setattr("builtins.input", _lines_then_eof(['Load "no end', "Axiom A : Type."]))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert s.err.getvalue() == 'Load "no end\n     ^\nError: unterminated string\n'
    assert s.genv.names() == ["A"]


def _reported_by_a_script(text: str) -> str:
    s = session()
    assert not run_source(s, text)
    return s.err.getvalue()


def test_an_unfinished_command_at_end_of_input_is_reported(monkeypatch):
    monkeypatch.setattr("builtins.input", _lines_then_eof(
        ["Axiom s : Type.", "Print s.", "Axiom t : s"]))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert out_of(s) == "s : Type\n"
    assert s.err.getvalue() == _reported_by_a_script("Axiom t : s\n")
    assert 'expected "." at the end of the command' in s.err.getvalue()
    assert s.genv.names() == ["s"]


def test_a_comment_open_at_end_of_input_is_reported_at_its_opener(monkeypatch):
    monkeypatch.setattr("builtins.input", _lines_then_eof(
        ["Axiom s : Type.", "Axiom t : s. (* open", "still open"]))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    expected = _reported_by_a_script("Axiom t : s. (* open\nstill open\n")
    assert s.err.getvalue() == expected
    assert expected == "Axiom t : s. (* open\n             ^^\nError: unterminated comment\n"
    assert s.genv.names() == ["s"]


def test_blanks_and_closed_comments_at_end_of_input_stay_silent(monkeypatch):
    monkeypatch.setattr("builtins.input", _lines_then_eof(
        ["Axiom s : Type.", "   ", "(* a closed", "comment *)", ""]))
    s = session()
    from proofun.repl import repl
    assert repl(s) == 0
    assert s.err.getvalue() == ""
    assert s.genv.names() == ["s"]


def test_compute_prints_an_eta_reduced_smatch_motive_as_print_does():
    s = session()
    assert run_source(s, """
        Axiom (A B : Type) (P : A | B -> Type) (f : forall x : A | B, P x) (s : A | B).
        Definition d := smatch s as x return P x with y => f (inj_l B y), z => f (inj_r A z) end.
        Print d.
        Compute d.""")
    printed, computed = out_of(s).splitlines()[1:]
    assert printed == "d := " + computed
    assert computed == ("smatch s as x return P x with "
                        "y : A => f (inj_l B y), z : B => f (inj_r A z) end")
