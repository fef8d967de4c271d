"""Read the diagnostic codes back out of ozcheck's output and judge a check.

The machine format and the English text format carry each code verbatim.
The French text format does not, so each French message is recognised by
the phrase its template always contains.
"""
from __future__ import annotations

import re

# Patterns start with a literal newline (the output is searched with one
# prepended), which lets the regex engine skip through long traces quickly.
_MACHINE_CODE = re.compile(r"\n(OZ-[A-Z]+-\d{3})\t")
_EN_CODE = re.compile(r"error\[(OZ-[A-Z]+-\d{3})\]")
_FR_PHRASES = (
    ("la syntaxe est incorrecte", "OZ-SYN-001"),
    ("Erreur lexicale", "OZ-LEX-001"),
    ("déclaration circulaire", "OZ-SEM-101"),
    ("Erreur de type dans", "OZ-SEM-102"),
    ("est déclarée plusieurs fois", "OZ-SEM-103"),
    ("porte un nom réservé pour un type", "OZ-SEM-104"),
    ("la liste Δ", "OZ-SEM-105"),
    ("la classe héritée", "OZ-INH-201"),
    ("héritage circulaire", "OZ-INH-202"),
)


def _fr_code(message: str) -> str:
    for phrase, code in _FR_PHRASES:
        if phrase in message:
            return code
    return f"unrecognised message: {message[:80]}"


def codes_in(output: str, name: str, fmt: str, locale: str) -> list[str]:
    """The diagnostic codes in the output of one file, sorted."""
    output = "\n" + output
    if fmt == "machine":
        return sorted(_MACHINE_CODE.findall(output))
    messages = re.findall(rf"\n{re.escape(name)}: ([^\n]*)", output)
    if locale == "fr":
        return sorted(_fr_code(m) for m in messages)
    return sorted(m.group(1) if (m := _EN_CODE.match(msg)) else
                  f"unrecognised message: {msg[:80]}" for msg in messages)


def failure(f: dict, status, crash, output: str, errors: str) -> str | None:
    """Why one check disagrees with the generator's verdict, or None."""
    if crash is not None:
        return f"raised {type(crash).__name__}: {str(crash)[:200]}"
    expected_status = 1 if f["codes"] else 0
    if status != expected_status:
        return f"exit status {status}, expected {expected_status}"
    if errors:
        return f"wrote to stderr: {errors[:200]}"
    if f["trace"] and not output.startswith(f"# trace: {f['name']}\n"):
        return "no trace printed"
    codes = codes_in(output, f["name"], f["format"], f["locale"])
    if codes != f["codes"]:
        return f"codes {codes}, expected {f['codes']}"
    return None
