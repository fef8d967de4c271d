"""Diagnostic rendering: human text, machine lines, locales."""
from __future__ import annotations

import hashlib

from ozcheck import check_text
from ozcheck.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    _en_message,
    render_human,
    render_machine,
)

from conftest import corpus_text


def test_catalog_covers_every_emitted_code():
    assert set(CODE_CATALOG) == {
        "OZ-LEX-001", "OZ-SYN-001", "OZ-SEM-101", "OZ-SEM-102", "OZ-SEM-103",
        "OZ-SEM-104", "OZ-SEM-105", "OZ-INH-201", "OZ-INH-202",
    }


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
# for their findings; the text must not change.
RENDERING_DIGEST = "1893d2ca1ca88a7c445938c7b3c3678c35b8c6c460941de9ed385d3fa53c0e53"

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
