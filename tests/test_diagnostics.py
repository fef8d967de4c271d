"""Diagnostic rendering: human text, machine lines, locales."""
from __future__ import annotations

import hashlib
import io
import pickle

import pytest

from ozcheck import check_text
from ozcheck.cli import RunConfig, run
from ozcheck.diagnostics import (
    CODE_CATALOG,
    _EN_MESSAGES,
    _FR_MESSAGES,
    Diagnostic,
    _en_message,
    render_human,
    render_machine,
)
from ozcheck.lexer import LexError, UnknownTokenError, tokenize
from ozcheck.ozgrammar import oz_parse_table, parse_spec
from ozcheck.parser import ParseError, parse_with_trace

from conftest import corpus_text


def test_catalog_covers_every_emitted_code():
    assert set(CODE_CATALOG) == {
        "OZ-LEX-001", "OZ-SYN-001", "OZ-SEM-101", "OZ-SEM-102", "OZ-SEM-103",
        "OZ-SEM-104", "OZ-SEM-105", "OZ-INH-201", "OZ-INH-202",
    }


def test_every_code_has_a_message_in_each_locale():
    # rendering looks each code up with no fallback
    assert set(CODE_CATALOG) == set(_EN_MESSAGES) == set(_FR_MESSAGES)


def test_human_rendering_of_syntax_error():
    d = check_text(corpus_text("queue_syntax_error.tex"))[0]
    text = render_human(d)
    assert 'class "Queue"' in text
    assert "state-schema" in text
    assert '"="' in text
    assert "line 5 col 7" in text


def test_human_rendering_of_undefined_type():
    ds = check_text(corpus_text("queue_semantic_errors.tex"))
    text = render_human(ds[1])
    assert '"mess"' in text and "is not defined" in text


def test_human_rendering_without_class_clause():
    d = Diagnostic(code="OZ-LEX-001", symbol="\x07", line=3, column=2,
                   detail="unsupported control character")
    text = render_human(d)
    assert "class" not in text
    assert text.startswith("error[OZ-LEX-001]:")


def test_rendering_is_pure():
    d = check_text(corpus_text("queue_syntax_error.tex"))[0]
    assert render_human(d) == render_human(d)
    assert render_machine([d]) == render_machine([d])


def test_machine_rendering_empty_list():
    assert render_machine([]) == ""


def test_machine_rendering_fields_and_order():
    ds = check_text(corpus_text("queue_semantic_errors.tex"))
    text = render_machine(ds)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    first, second = (line.split("\t") for line in lines)
    assert first[0] == "OZ-SEM-101" and second[0] == "OZ-SEM-102"
    assert first[1] == "Queue" and first[2] == "state-schema"
    assert first[3] == "mess" and first[4] == second[4]  # tie on position


def test_machine_rendering_round_trips():
    ds = check_text(corpus_text("queue_semantic_errors.tex"))
    for line, d in zip(render_machine(ds).strip().split("\n"), ds):
        code, cls, block, symbol, pos, message = line.split("\t")
        assert code == d.code
        assert cls == (d.class_name or "-")
        assert block == (d.block or "-")
        assert symbol == d.symbol
        assert pos == f"{d.line}:{d.column}"
        assert message == _en_message(d)


def test_machine_rendering_absent_fields_dashed():
    d = Diagnostic(code="OZ-LEX-001", symbol="junk", line=1, column=1,
                   detail="cannot classify unit")
    line = render_machine([d]).strip()
    assert line.split("\t")[1] == "-"
    assert line.split("\t")[2] == "-"


def test_duplicate_line_has_expected_code():
    ds = check_text(corpus_text("duplicate_decl.tex"))
    line = render_machine(ds).strip()
    assert line.startswith("OZ-SEM-103\t")


# ---------------------------------------------------------------------------
# French locale reproduces the published phrasings


def test_french_syntax_error_message():
    d = check_text(corpus_text("queue_syntax_error.tex"))[0]
    assert render_human(d, locale="fr") == (
        'Classe "Queue", une erreur dans le schéma d\'état : la syntaxe est '
        'incorrecte et ceci est causé par la chaîne "=".'
    )


def test_french_semantic_error_messages():
    ds = check_text(corpus_text("queue_semantic_errors.tex"))
    assert render_human(ds[0], locale="fr") == (
        'Erreur dans la classe "Queue" : déclaration circulaire dans '
        'l\'opération "schéma d\'état" causée par la variable "mess".'
    )
    assert render_human(ds[1], locale="fr") == (
        'Erreur de type dans l\'opération "schéma d\'état" de la classe '
        '"Queue". Le type "mess" n\'est pas défini.'
    )


def test_french_rendering_of_other_codes():
    ds = check_text(corpus_text("duplicate_decl.tex"))
    text = render_human(ds[0], locale="fr")
    assert "déclarée plusieurs fois" in text and '"a"' in text
    ds = check_text(corpus_text("delta_not_state_var.tex"))
    text = render_human(ds[0], locale="fr")
    assert "variable" in text and '"cste"' in text and "Ajouter" in text


# ---------------------------------------------------------------------------
# Every code in both locales, pinned


# SHA-256 over ``rendering_transcript``: render_human and render_machine, in
# English and French, of one diagnostic per code for each localization and
# detail below.  Recorded before the semantic checks shared one constructor
# for their findings; the text must not change.  Re-recorded once since, when
# French output named an unnamed operation block "l'opération" instead of
# leaving it as the English "operation".
RENDERING_DIGEST = "f7aa79d9f65fbcf321b637d06b5b8e8f47ff8d2de34a4c41e6ce509a23218a89"

LOCALIZATIONS = [
    (None, None),
    (None, "top-level"),
    ("Queue", "state-schema"),
    ("Queue", "operation(Join)"),
    ("Queue", "operation"),
    ("Queue", "inheritance"),
]


def rendering_transcript() -> str:
    ds = [
        Diagnostic(code, "x'", 3, 7, class_name, block, detail)
        for code in sorted(CODE_CATALOG)
        for class_name, block in LOCALIZATIONS
        for detail in (None, "A -> B -> A")
    ]
    pieces = []
    for locale in ("en", "fr"):
        pieces += [render_human(d, locale=locale) + "\n" for d in ds]
        pieces.append(render_machine(ds, locale=locale))
    return "".join(pieces)


def test_rendering_of_every_code_in_both_locales_is_pinned():
    digest = hashlib.sha256(rendering_transcript().encode()).hexdigest()
    assert digest == RENDERING_DIGEST


def test_french_rendering_leaves_no_english_block_name():
    for code in sorted(CODE_CATALOG):
        for class_name, block in LOCALIZATIONS:
            d = Diagnostic(code, "x'", 3, 7, class_name, block)
            assert " dans operation" not in render_human(d, locale="fr")


def test_french_rendering_of_lexical_inheritance_and_top_level_errors():
    def fr(code, class_name=None, block=None, detail=None):
        return render_human(Diagnostic(code, "Z", 1, 2, class_name, block,
                                       detail), locale="fr")

    assert fr("OZ-LEX-001", detail="unsupported control character") == (
        'Erreur lexicale : unité "Z" non reconnue.')
    assert fr("OZ-INH-201", "A", "inheritance") == (
        'Erreur dans la classe "A" : la classe héritée "Z" n\'est pas '
        'définie.')
    assert fr("OZ-INH-202", "A", "inheritance", "A -> Z -> A") == (
        'Erreur dans la classe "A" : héritage circulaire (A -> Z -> A).')
    assert fr("OZ-SYN-001", None, "top-level", '"["') == (
        'Une erreur dans le niveau supérieur : la syntaxe est incorrecte et '
        'ceci est causé par la chaîne "Z".')


# Unicode category Cc, and the right-to-left override as one format character
NOT_PRINTABLE = [*map(chr, range(0x20)), *map(chr, range(0x7f, 0xa0)), "\u202e"]


def escaped(ch: str) -> str:
    return f"\\x{ord(ch):02x}" if ord(ch) < 0x100 else f"\\u{ord(ch):04x}"


@pytest.mark.parametrize("ch", NOT_PRINTABLE, ids=lambda ch: f"U+{ord(ch):04X}")
def test_characters_that_are_not_printable_render_escaped(ch):
    raw, shown = f"a{ch}]0;b", f"a{escaped(ch)}]0;b"
    for d in [
        Diagnostic("OZ-LEX-001", raw, 1, 1, detail="unsupported control character"),
        Diagnostic("OZ-LEX-001", raw, 1, 1,
                   detail=f'the unit "{raw}" is not part of the input vocabulary'),
        Diagnostic("OZ-SEM-102", raw, 2, 3, "Queue", "operation(Join)"),
    ]:
        visible = d._replace(symbol=shown, detail=d.detail and d.detail.replace(raw, shown))
        assert d.symbol == raw  # the record keeps the input's text
        for locale in ("en", "fr"):
            human, machine = render_human(d, locale), render_machine([d], locale)
            assert human == render_human(visible, locale) and human.isprintable()
            assert machine == render_machine([visible], locale)
            fields = machine.removesuffix("\n").split("\t")
            assert len(fields) == 6 and all(map(str.isprintable, fields))


@pytest.mark.parametrize("ch", [ch for ch in NOT_PRINTABLE if not ch.isspace()],
                         ids=lambda ch: f"U+{ord(ch):04X}")
def test_cli_output_escapes_the_unit_that_failed_to_lex(ch, tmp_path):
    unit = f"a\x1b]0;pwned{ch}b"
    path = tmp_path / "spec.tex"
    path.write_text(f"{unit}\n", encoding="utf-8")
    with pytest.raises(LexError) as exc:
        tokenize(unit)
    assert exc.value.diagnostic.symbol == unit  # the raw text is kept
    shown = unit.replace("\x1b", "\\x1b").replace(ch, escaped(ch))
    for fmt in ("text", "machine"):
        for locale in ("en", "fr"):
            out = io.StringIO()
            assert run(RunConfig(inputs=[str(path)], format=fmt, locale=locale),
                       stdout=out) == 1
            lines = out.getvalue().removesuffix("\n").split("\n")
            assert len(lines) == 1 and shown in lines[0]
            assert all(map(str.isprintable, lines[0].split("\t")))


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as e:
        return e
    raise AssertionError(f"{fn.__name__} did not raise")


def test_raised_diagnostics_survive_pickling():
    # an error raised in a worker process comes back as itself
    table = oz_parse_table()
    broken = tokenize("\\begin{class} { Q = } \\end{class}")
    errors = [
        _raised(tokenize, "a \x07 b"),
        _raised(parse_spec, tokenize("\\foo")),
        _raised(parse_spec, broken),
        _raised(parse_with_trace, broken, table),
    ]
    assert [type(e) for e in errors] == [
        LexError, UnknownTokenError, ParseError, ParseError]
    assert errors[2].trace is None and errors[3].trace
    for e in errors:
        assert e.args == (e.diagnostic,)  # the one record of the finding
        assert str(e) == render_human(e.diagnostic)
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e) and str(back) == str(e)
        assert back.args == e.args and back.diagnostic == e.diagnostic
        assert getattr(back, "trace", None) == getattr(e, "trace", None)
