"""The concrete Object Z grammar and the typed AST built from parse trees.

The grammar covers class paragraphs in the LaTeX encoding: a heading with
an optional generic parameter list, an optional visibility list, an
inheritance block, local constant definitions, state and init schemas, and
operation schemas with delta lists.  Top-level bracketed paragraphs
introduce given types.  Optional class sections are factored so that the
grammar stays SLR(1); ``oz_parse_table`` asserts conflict-freedom when the
table is first built.

Declarations are one name, a colon and a type expression.  State schemas
and operation schemas hold declarations, with predicates allowed after
``\\ST``; init schemas also accept bare predicate lines, which is how an
initial state is usually written.  Predicate lines are checked for
well-formedness but kept as opaque token sequences in the AST.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .grammar import Grammar, ParseTable, build_table, grammar_from_text
from .lexer import Position, Token, TokenKind
from .parser import TreeNode

OZ_GRAMMAR_TEXT = r"""
# Object Z class specifications over LaTeX-level terminals.
ParagraphList -> Paragraph
ParagraphList -> Paragraph ParagraphList
Paragraph -> "\begin{class}" "{" ClassHeading "}" "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" Visibility "\inherit" Inheritance "\endinherit" StateSchema InitialSchema Operations "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" VisibilityDecl SectionsAfterVisibility "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" AxdefEnv SectionsAfterLocals "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" StateEnv SectionsAfterState "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" InitEnv SectionsAfterInit "\end{class}"
Paragraph -> "\begin{class}" "{" ClassHeading "}" OperationSeq "\end{class}"
Paragraph -> [ NameList ]
ClassHeading -> Word
ClassHeading -> Word [ NameList ]
Visibility -> VisibilityDecl
Visibility ->
VisibilityDecl -> "\visibility" ( NameList )
Inheritance -> NameList
StateSchema -> StateEnv
StateSchema ->
InitialSchema -> InitEnv
InitialSchema ->
Operations -> OperationSeq
Operations ->
SectionsAfterVisibility -> AxdefEnv SectionsAfterLocals
SectionsAfterVisibility -> StateEnv SectionsAfterState
SectionsAfterVisibility -> InitEnv SectionsAfterInit
SectionsAfterVisibility -> OperationSeq
SectionsAfterVisibility ->
SectionsAfterLocals -> StateEnv SectionsAfterState
SectionsAfterLocals -> InitEnv SectionsAfterInit
SectionsAfterLocals -> OperationSeq
SectionsAfterLocals ->
SectionsAfterState -> InitEnv SectionsAfterInit
SectionsAfterState -> OperationSeq
SectionsAfterState ->
SectionsAfterInit -> OperationSeq
SectionsAfterInit ->
OperationSeq -> OperationEnv
OperationSeq -> OperationEnv OperationSeq
AxdefEnv -> "\begin{axdef}" DeclarationList "\end{axdef}"
StateEnv -> "\begin{state}" SchemaBody "\end{state}"
InitEnv -> "\begin{init}" InitBody "\end{init}"
OperationEnv -> "\begin{op}" "{" Word "}" OperationBody "\end{op}"
OperationBody -> SchemaBody
OperationBody -> DeltaPart SchemaBody
DeltaPart -> "\Delta" ( NameList )
DeltaPart -> "\Xi" ( NameList )
SchemaBody ->
SchemaBody -> DeclarationList
SchemaBody -> DeclarationList "\ST" PredicateList
SchemaBody -> "\ST" PredicateList
InitBody ->
InitBody -> LineList
InitBody -> LineList "\ST" PredicateList
InitBody -> "\ST" PredicateList
DeclarationList -> Declaration
DeclarationList -> Declaration Separator DeclarationList
LineList -> Line
LineList -> Line Separator LineList
Line -> Declaration
Line -> Predicate
PredicateList -> Predicate
PredicateList -> Predicate Separator PredicateList
Separator -> "\\"
Separator -> "\\" Separator
Declaration -> Word : TypeExpr
NameList -> Word
NameList -> Word , NameList
TypeExpr -> TypeAtom
TypeExpr -> TypeAtom "\cross" TypeExpr
TypeAtom -> Word
TypeAtom -> "\nat"
TypeAtom -> "\num"
TypeAtom -> "\pset" TypeAtom
TypeAtom -> "\fset" TypeAtom
TypeAtom -> "\seq" TypeAtom
Predicate -> Sum
Predicate -> Sum = Sum
Sum -> CatExpr
Sum -> Sum + CatExpr
CatExpr -> Atom
CatExpr -> CatExpr "\cat" Atom
Atom -> Word
Atom -> Number
Atom -> "\emptyseq"
Atom -> ( Predicate )
Atom -> "\lseq" ExpressionList "\rseq"
ExpressionList -> Predicate
ExpressionList -> Predicate , ExpressionList
"""


@lru_cache(maxsize=1)
def object_z_grammar() -> Grammar:
    """The shipped Object Z grammar (start symbol ParagraphList)."""
    return grammar_from_text(OZ_GRAMMAR_TEXT, start="ParagraphList")


@lru_cache(maxsize=1)
def oz_parse_table() -> ParseTable:
    """SLR(1) table for the shipped grammar; conflict-freedom is asserted."""
    result = build_table(object_z_grammar())
    if not isinstance(result, ParseTable):
        raise AssertionError(
            "the shipped grammar is not SLR(1):\n" + result.describe()
        )
    return result


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class NameRef:
    """An identifier occurrence with its source position."""

    name: str
    pos: Position = field(compare=False)


class BuiltinKind(Enum):
    NATURALS = "\\nat"
    INTEGERS = "\\num"
    POWER_SET = "\\pset"
    FINITE_SETS = "\\fset"
    SEQUENCE = "\\seq"


@dataclass(frozen=True)
class BuiltinType:
    """A builtin type; ``\\pset``, ``\\fset`` and ``\\seq`` take an argument.

    The only AST node that nests itself, as deep as the input says, so
    equality and hashing loop down the chain instead of recursing.
    """

    kind: BuiltinKind
    argument: "TypeExpr | None" = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not BuiltinType:
            return NotImplemented
        a, b = self, other
        while a.__class__ is BuiltinType and b.__class__ is BuiltinType:
            if a.kind is not b.kind:
                return False
            a, b = a.argument, b.argument
        return a == b

    def __hash__(self) -> int:
        kinds = []
        t = self
        while t.__class__ is BuiltinType:
            kinds.append(t.kind)
            t = t.argument
        return hash((tuple(kinds), t))


@dataclass(frozen=True)
class NamedType:
    name: str
    pos: Position = field(compare=False)


@dataclass(frozen=True)
class ProductType:
    parts: tuple["TypeExpr", ...]


TypeExpr = BuiltinType | NamedType | ProductType


def named_leaves(t: TypeExpr):
    """Yield every NamedType leaf of a type expression, left to right."""
    pending = [t]  # explicit stack: nesting depth is input-controlled
    while pending:
        t = pending.pop()
        if isinstance(t, NamedType):
            yield t
        elif isinstance(t, BuiltinType):
            if t.argument is not None:
                pending.append(t.argument)
        else:
            pending.extend(reversed(t.parts))


@dataclass(frozen=True)
class Declaration:
    name: str
    type_expr: TypeExpr
    pos: Position = field(compare=False)


@dataclass(frozen=True)
class PredicateLine:
    """An opaque, well-formed predicate as its token sequence."""

    tokens: tuple[Token, ...]

    @property
    def pos(self) -> Position:
        return self.tokens[0].position

    @property
    def text(self) -> str:
        return " ".join(t.lexeme for t in self.tokens)

    def __eq__(self, other) -> bool:  # structural: compare rendered text
        return isinstance(other, PredicateLine) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)


@dataclass(frozen=True)
class SchemaBlock:
    label: str  # "state" or "init"
    declarations: tuple[Declaration, ...]
    predicates: tuple[PredicateLine, ...]


@dataclass(frozen=True)
class DeltaList:
    kind: str  # "Delta" or "Xi"
    names: tuple[NameRef, ...]


@dataclass(frozen=True)
class OperationSchema:
    name: str
    name_pos: Position = field(compare=False)
    delta: DeltaList | None = None
    declarations: tuple[Declaration, ...] = ()
    predicates: tuple[PredicateLine, ...] = ()


@dataclass(frozen=True)
class GivenTypeDecl:
    names: tuple[NameRef, ...]


@dataclass(frozen=True)
class ClassDef:
    name: str
    name_pos: Position = field(compare=False)
    generic_params: tuple[NameRef, ...] = ()
    visibility: tuple[NameRef, ...] | None = None
    inherits: tuple[NameRef, ...] = ()
    local_defs: tuple[Declaration, ...] = ()
    state: SchemaBlock | None = None
    init: SchemaBlock | None = None
    operations: tuple[OperationSchema, ...] = ()


@dataclass(frozen=True)
class Specification:
    paragraphs: tuple[GivenTypeDecl | ClassDef, ...]

    @property
    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(p for p in self.paragraphs if isinstance(p, ClassDef))


# ---------------------------------------------------------------------------
# Lowering


def build_ast(tree: TreeNode) -> Specification:
    """Lower a parse tree from the shipped grammar into a Specification."""
    paragraphs: list[GivenTypeDecl | ClassDef] = []
    node = tree
    while True:  # ParagraphList right spine
        paragraphs.append(_lower_paragraph(node.children[0]))
        if len(node.children) == 1:
            break
        node = node.children[1]
    return Specification(tuple(paragraphs))


def _lower_paragraph(node: TreeNode) -> GivenTypeDecl | ClassDef:
    first = node.children[0]
    if first.symbol.name == "[":
        return GivenTypeDecl(_lower_name_list(node.children[1]))

    heading = node.children[2]
    name_token = heading.children[0].token
    generic: tuple[NameRef, ...] = ()
    if len(heading.children) > 1:
        generic = _lower_name_list(heading.children[2])

    sections = _Sections()
    _collect_sections(node.children[4:-1], sections)
    return ClassDef(
        name=name_token.lexeme,
        name_pos=name_token.position,
        generic_params=generic,
        visibility=sections.visibility,
        inherits=sections.inherits,
        local_defs=sections.local_defs,
        state=sections.state,
        init=sections.init,
        operations=tuple(sections.operations),
    )


class _Sections:
    def __init__(self) -> None:
        self.visibility: tuple[NameRef, ...] | None = None
        self.inherits: tuple[NameRef, ...] = ()
        self.local_defs: tuple[Declaration, ...] = ()
        self.state: SchemaBlock | None = None
        self.init: SchemaBlock | None = None
        self.operations: list[OperationSchema] = []


def _collect_sections(nodes: tuple[TreeNode, ...], out: _Sections) -> None:
    # explicit stack: OperationSeq nests once per operation
    pending = list(reversed(nodes))
    while pending:
        node = pending.pop()
        if node.is_leaf:
            continue
        name = node.symbol.name
        if name == "VisibilityDecl":
            out.visibility = _lower_name_list(node.children[2])
        elif name == "Inheritance":
            out.inherits = _lower_name_list(node.children[0])
        elif name == "AxdefEnv":
            out.local_defs = _lower_declaration_list(node.children[1])
        elif name == "StateEnv":
            decls, preds = _lower_schema_body(node.children[1])
            out.state = SchemaBlock("state", decls, preds)
        elif name == "InitEnv":
            decls, preds = _lower_init_body(node.children[1])
            out.init = SchemaBlock("init", decls, preds)
        elif name == "OperationEnv":
            out.operations.append(_lower_operation(node))
        else:  # wrapper nonterminals: Visibility, StateSchema, Sections*, ...
            pending.extend(reversed(node.children))


def _lower_name_list(node: TreeNode) -> tuple[NameRef, ...]:
    refs: list[NameRef] = []
    while True:
        token = node.children[0].token
        refs.append(NameRef(token.lexeme, token.position))
        if len(node.children) == 1:
            return tuple(refs)
        node = node.children[2]


def _spine(node: TreeNode, list_symbol: str) -> list[TreeNode]:
    """Flatten a right-recursive list nonterminal into its element nodes."""
    items: list[TreeNode] = []
    while True:
        items.append(node.children[0])
        rest = [c for c in node.children[1:] if c.symbol.name == list_symbol]
        if not rest:
            return items
        node = rest[0]


def _lower_declaration_list(node: TreeNode) -> tuple[Declaration, ...]:
    return tuple(
        _lower_declaration(n) for n in _spine(node, "DeclarationList")
    )


def _lower_predicate_list(node: TreeNode) -> tuple[PredicateLine, ...]:
    return tuple(
        PredicateLine(n.frontier()) for n in _spine(node, "PredicateList")
    )


def _lower_schema_body(
    node: TreeNode,
) -> tuple[tuple[Declaration, ...], tuple[PredicateLine, ...]]:
    decls: tuple[Declaration, ...] = ()
    preds: tuple[PredicateLine, ...] = ()
    for child in node.children:
        if child.symbol.name == "DeclarationList":
            decls = _lower_declaration_list(child)
        elif child.symbol.name == "PredicateList":
            preds = _lower_predicate_list(child)
    return decls, preds


def _lower_init_body(
    node: TreeNode,
) -> tuple[tuple[Declaration, ...], tuple[PredicateLine, ...]]:
    """Split init lines: declarations up to the first non-declaration line,
    everything after (and any explicit ``\\ST`` part) is a predicate."""
    decls: list[Declaration] = []
    preds: list[PredicateLine] = []
    for child in node.children:
        if child.symbol.name == "LineList":
            for line in _spine(child, "LineList"):
                inner = line.children[0]
                if inner.symbol.name == "Declaration" and not preds:
                    decls.append(_lower_declaration(inner))
                else:
                    preds.append(PredicateLine(line.frontier()))
        elif child.symbol.name == "PredicateList":
            preds.extend(_lower_predicate_list(child))
    return tuple(decls), tuple(preds)


def _lower_operation(node: TreeNode) -> OperationSchema:
    name_token = node.children[2].token
    body = node.children[4]
    delta: DeltaList | None = None
    decls: tuple[Declaration, ...] = ()
    preds: tuple[PredicateLine, ...] = ()
    for child in body.children:
        if child.symbol.name == "DeltaPart":
            kind = "Delta" if child.children[0].token.name == "Delta" else "Xi"
            delta = DeltaList(kind, _lower_name_list(child.children[2]))
        elif child.symbol.name == "SchemaBody":
            decls, preds = _lower_schema_body(child)
    return OperationSchema(
        name=name_token.lexeme,
        name_pos=name_token.position,
        delta=delta,
        declarations=decls,
        predicates=preds,
    )


def _lower_declaration(node: TreeNode) -> Declaration:
    name_token = node.children[0].token
    return Declaration(
        name=name_token.lexeme,
        type_expr=_lower_type_expr(node.children[2]),
        pos=name_token.position,
    )


_BUILTIN_BY_COMMAND = {k.value: k for k in BuiltinKind}


def _lower_type_expr(node: TreeNode) -> TypeExpr:
    # the \cross spine flattens into one product
    parts = [_lower_type_atom(n) for n in _spine(node, "TypeExpr")]
    return parts[0] if len(parts) == 1 else ProductType(tuple(parts))


def _lower_type_atom(node: TreeNode) -> TypeExpr:
    outer: list[BuiltinKind] = []  # \pset, \fset, \seq prefixes, outermost first
    while len(node.children) > 1:
        outer.append(_BUILTIN_BY_COMMAND[node.children[0].token.lexeme])
        node = node.children[1]
    token = node.children[0].token
    if token.kind is TokenKind.WORD:
        t: TypeExpr = NamedType(token.lexeme, token.position)
    else:
        t = BuiltinType(_BUILTIN_BY_COMMAND[token.lexeme])
    for kind in reversed(outer):
        t = BuiltinType(kind, t)
    return t


# ---------------------------------------------------------------------------
# Rendering an AST back to whitespace-separated tokens.


def render_tokens(spec: Specification) -> str:
    """Render a specification as one token-per-blank text.

    Reparsing the result yields a structurally identical specification,
    which is the round-trip property the tests rely on.
    """
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
