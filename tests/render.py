"""Render an AST back to whitespace-separated tokens, for round-trip tests."""
from __future__ import annotations

from ozcheck.ozgrammar import (
    BuiltinType, ClassDef, Declaration, GivenTypeDecl, NamedType, NameRef,
    OperationSchema, SchemaBlock, Specification, TypeExpr,
)


def render_tokens(spec: Specification) -> str:
    """Render a specification as one token-per-blank text whose reparse
    yields a structurally identical specification."""
    chunks: list[str] = []
    for para in spec.paragraphs:
        if isinstance(para, GivenTypeDecl):
            chunks.append(f"[ {_names(para.names)} ]")
        else:
            chunks.append(_render_class(para))
    return "\n".join(chunks) + "\n"


def _names(refs: tuple[NameRef, ...]) -> str:
    return " , ".join(r.name for r in refs)


def _render_class(c: ClassDef) -> str:
    heading = c.name
    if c.generic_params:
        heading += f" [ {_names(c.generic_params)} ]"
    if c.inherits and c.local_defs:
        raise ValueError(
            "a class cannot carry both an inheritance block and local "
            "definitions in the token encoding"
        )
    lines = [f"\\begin{{class}} {{ {heading} }}"]
    if c.visibility is not None:
        lines.append(f"\\visibility ( {_names(c.visibility)} )")
    if c.inherits:
        lines.append(f"\\inherit {_names(c.inherits)} \\endinherit")
    if c.local_defs:
        lines.append("\\begin{axdef}")
        lines.append(_render_lines([_render_decl(d) for d in c.local_defs]))
        lines.append("\\end{axdef}")
    if c.state is not None:
        lines.extend(_render_schema("state", c.state))
    if c.init is not None:
        lines.extend(_render_schema("init", c.init))
    for op in c.operations:
        lines.extend(_render_operation(op))
    lines.append("\\end{class}")
    return "\n".join(lines)


def _render_lines(rendered: list[str]) -> str:
    return " \\\\\n".join(rendered)


def _render_decl(d: Declaration) -> str:
    return f"{d.name} : {_render_type(d.type_expr)}"


def _render_type(t: TypeExpr) -> str:
    words = []  # loop, not recursion: constructor chains are input-controlled
    while isinstance(t, BuiltinType) and t.argument is not None:
        words.append(t.kind.value)
        t = t.argument
    if isinstance(t, NamedType):
        words.append(t.name)
    elif isinstance(t, BuiltinType):
        words.append(t.kind.value)
    else:
        words.append(" \\cross ".join(_render_type(p) for p in t.parts))
    return " ".join(words)


def _render_schema(env: str, block: SchemaBlock) -> list[str]:
    lines = [f"\\begin{{{env}}}"]
    decls = [_render_decl(d) for d in block.declarations]
    preds = [p.text for p in block.predicates]
    if env == "state":
        if decls:
            lines.append(_render_lines(decls))
        if preds:
            lines.append("\\ST")
            lines.append(_render_lines(preds))
    else:  # init accepts declaration and predicate lines in one list
        body = decls + preds
        if body:
            lines.append(_render_lines(body))
    lines.append(f"\\end{{{env}}}")
    return lines


def _render_operation(op: OperationSchema) -> list[str]:
    lines = [f"\\begin{{op}} {{ {op.name} }}"]
    if op.delta is not None:
        command = "\\Delta" if op.delta.kind == "Delta" else "\\Xi"
        lines.append(f"{command} ( {_names(op.delta.names)} )")
    if op.declarations:
        lines.append(_render_lines([_render_decl(d) for d in op.declarations]))
    if op.predicates:
        lines.append("\\ST")
        lines.append(_render_lines([p.text for p in op.predicates]))
    lines.append("\\end{op}")
    return lines
