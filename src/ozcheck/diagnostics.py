"""Diagnostic records and their human/machine renderings.

Every finding the checker emits is a :class:`Diagnostic` with a stable code
and a three-level localization: the class it occurred in, the block inside
that class, and the offending symbol.  Rendering is a pure function of the
diagnostic, so identical findings always produce identical text.
"""
from typing import NamedTuple

from .records import record

# Stable diagnostic codes (public contract).
LEX_ERROR = "OZ-LEX-001"
SYNTAX_ERROR = "OZ-SYN-001"
CIRCULAR_DECL = "OZ-SEM-101"
UNDEFINED_TYPE = "OZ-SEM-102"
DUPLICATE_DECL = "OZ-SEM-103"
TYPE_NAME_CLASH = "OZ-SEM-104"
DELTA_NOT_STATE_VAR = "OZ-SEM-105"
UNKNOWN_PARENT = "OZ-INH-201"
INHERITANCE_CYCLE = "OZ-INH-202"

CODE_CATALOG = {
    LEX_ERROR: "input text cannot be split into supported lexical units",
    SYNTAX_ERROR: "token sequence rejected by the shift-reduce parser",
    CIRCULAR_DECL: "variable declared from a variable of the same schema",
    UNDEFINED_TYPE: "declaration uses a type name that is not defined",
    DUPLICATE_DECL: "variable declared more than once in one schema",
    TYPE_NAME_CLASH: "variable reuses the name of a type",
    DELTA_NOT_STATE_VAR: "delta list entry is not a state variable",
    UNKNOWN_PARENT: "inherited class is not defined in the specification",
    INHERITANCE_CYCLE: "class inheritance chain reaches itself",
}

# Block labels (second localization level).
BLOCK_CLASS_HEADING = "class-heading"
BLOCK_VISIBILITY = "visibility"
BLOCK_INHERITANCE = "inheritance"
BLOCK_LOCAL_DEFS = "local-definitions"
BLOCK_STATE = "state-schema"
BLOCK_INIT = "init-schema"
BLOCK_TOP_LEVEL = "top-level"


def operation_block(name: str | None) -> str:
    """Block label for an operation schema, e.g. ``operation(Join)``."""
    return f"operation({name})" if name else "operation"


@record()
class Diagnostic(NamedTuple):
    """A coded finding with (class, block, symbol) localization.

    ``detail`` carries the code-specific extra datum (the declared variable
    for circular declarations, the expected-token list for syntax errors,
    the cycle for inheritance loops).
    """

    code: str
    symbol: str
    line: int
    column: int
    class_name: str | None = None
    block: str | None = None
    detail: str | None = None

    def sort_key(self) -> tuple:
        return (self.line, self.column, self.code, self.symbol)


class DiagnosticError(Exception):
    """A failure that ends the check of a source, raised as the one
    :class:`Diagnostic` it reports."""

    def __init__(self, message: str, diagnostic: Diagnostic):
        super().__init__(message)
        self.diagnostic = diagnostic


_EN_MESSAGES = {
    LEX_ERROR: "{detail}",
    SYNTAX_ERROR: "the syntax is incorrect; expected one of: {detail}",
    CIRCULAR_DECL: (
        'circular declaration: variable "{detail}" is declared from '
        'variable "{symbol}" of the same schema'
    ),
    UNDEFINED_TYPE: 'the type "{symbol}" is not defined',
    DUPLICATE_DECL: (
        'the variable "{symbol}" is declared more than once in the same schema'
    ),
    TYPE_NAME_CLASH: 'the variable "{symbol}" reuses the name of a type',
    DELTA_NOT_STATE_VAR: (
        'the delta list contains "{symbol}" which is not a state variable'
    ),
    UNKNOWN_PARENT: 'the inherited class "{symbol}" is not defined',
    INHERITANCE_CYCLE: "inheritance cycle: {detail}",
}

_FR_MESSAGES = {
    SYNTAX_ERROR: (
        "{where} : la syntaxe est incorrecte et ceci est causé par "
        'la chaîne "{symbol}".'
    ),
    LEX_ERROR: 'Erreur lexicale : unité "{symbol}" non reconnue.',
    CIRCULAR_DECL: (
        'Erreur dans la classe "{cls}" : déclaration circulaire dans '
        'l\'opération "{bare}" causée par la variable "{symbol}".'
    ),
    UNDEFINED_TYPE: (
        'Erreur de type dans l\'opération "{bare}" de la classe '
        '"{cls}". Le type "{symbol}" n\'est pas défini.'
    ),
    DUPLICATE_DECL: (
        'Erreur dans la classe "{cls}" : la variable "{symbol}" est '
        'déclarée plusieurs fois dans l\'opération "{bare}".'
    ),
    TYPE_NAME_CLASH: (
        'Erreur dans la classe "{cls}" : la variable "{symbol}" '
        "porte un nom réservé pour un type."
    ),
    DELTA_NOT_STATE_VAR: (
        'Erreur dans la classe "{cls}" : la liste Δ de l\'opération '
        '"{bare}" contient "{symbol}" qui n\'est pas une variable '
        "d'état."
    ),
    UNKNOWN_PARENT: (
        'Erreur dans la classe "{cls}" : la classe héritée '
        '"{symbol}" n\'est pas définie.'
    ),
    INHERITANCE_CYCLE: (
        'Erreur dans la classe "{cls}" : héritage circulaire ({detail}).'
    ),
}

# French block names: (form with article, bare form).
_FR_BLOCKS = {
    BLOCK_CLASS_HEADING: ("l'entête de la classe", "entête de la classe"),
    BLOCK_VISIBILITY: ("la liste de visibilité", "liste de visibilité"),
    BLOCK_INHERITANCE: ("la liste d'héritage", "liste d'héritage"),
    BLOCK_LOCAL_DEFS: ("les définitions locales", "définitions locales"),
    BLOCK_STATE: ("le schéma d'état", "schéma d'état"),
    BLOCK_INIT: ("le schéma d'état initial", "schéma d'état initial"),
    operation_block(None): ("l'opération", "opération"),
    BLOCK_TOP_LEVEL: ("le niveau supérieur", "niveau supérieur"),
}


def _fr_block(block: str | None) -> tuple[str, str]:
    if block is None:
        return ("la spécification", "spécification")
    if block.startswith("operation(") and block.endswith(")"):
        name = block[len("operation(") : -1]
        return (f'l\'opération "{name}"', name)
    return _FR_BLOCKS.get(block, (block, block))


def _en_message(d: Diagnostic) -> str:
    return _EN_MESSAGES[d.code].format(symbol=d.symbol, detail=d.detail or "")


def _render_human_en(d: Diagnostic) -> str:
    where = []
    if d.class_name is not None:
        where.append(f'class "{d.class_name}"')
    if d.block is not None:
        where.append(f"block {d.block}")
    prefix = f"error[{d.code}]"
    if where:
        prefix += " " + ", ".join(where)
    return (
        f"{prefix}: {_en_message(d)} "
        f'(caused by "{d.symbol}", line {d.line} col {d.column})'
    )


def _render_human_fr(d: Diagnostic) -> str:
    cls = d.class_name
    article, bare = _fr_block(d.block)
    where = (f'Classe "{cls}", une erreur dans {article}' if cls
             else f"Une erreur dans {article}")
    return _FR_MESSAGES[d.code].format(where=where, cls=cls, bare=bare,
                                       symbol=d.symbol, detail=d.detail)


def _visible(text: str) -> str:
    """``text`` with each character that ``str.isprintable`` rejects as its
    ``\\xNN``, ``\\uNNNN`` or ``\\UNNNNNNNN`` escape: echoed input must not
    reach a terminal as a control sequence."""
    return text if text.isprintable() else "".join(
        c if c.isprintable() else f"\\x{ord(c):02x}" if ord(c) < 0x100
        else ascii(c)[1:-1] for c in text)


def render_human(d: Diagnostic, locale: str = "en") -> str:
    """One human-readable line for a diagnostic."""
    return _visible(_render_human_fr(d) if locale == "fr" else _render_human_en(d))


def render_machine(diagnostics: list[Diagnostic], locale: str = "en") -> str:
    """Tab-separated machine format, one line per diagnostic.

    Columns: code, class, block, symbol, line:col, message.  Empty fields
    render as ``-``; lines follow the order of ``diagnostics``, which
    :func:`ozcheck.semantics.analyze` already sorts by position.
    """
    lines = []
    for d in diagnostics:
        message = _render_human_fr(d) if locale == "fr" else _en_message(d)
        lines.append(
            "\t".join(
                map(_visible, [
                    d.code,
                    d.class_name or "-",
                    d.block or "-",
                    d.symbol or "-",
                    f"{d.line}:{d.column}",
                    message,
                ])
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
