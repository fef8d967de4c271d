"""The concrete Object Z grammar and the typed AST its parser builds.

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

The AST is built on reduce: each production has one AST action, and
:func:`parse_spec` drives the automaton with them, so no parse tree is
built on the way (the bottom-up evaluation of an S-attributed definition,
yacc's ``$$ = f($1..$n)``).  :func:`build_ast` gets the AST of a parse
tree from :func:`ozcheck.parser.parse` by driving the tree's frontier
through :func:`parse_spec`, so the actions have one evaluator, the driver.
"""
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .grammar import Grammar, ParseTable, build_table, grammar_from_text
from .lexer import Position, Token, TokenKind, TokenStream
from .parser import TraceStep, TraceWriter, TreeNode, _drive
from .records import record

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


@record("pos")
class NameRef(NamedTuple):
    """An identifier occurrence with its source position."""

    name: str
    pos: Position


class BuiltinKind(Enum):
    NATURALS = "\\nat"
    INTEGERS = "\\num"
    POWER_SET = "\\pset"
    FINITE_SETS = "\\fset"
    SEQUENCE = "\\seq"


@record()
class BuiltinType(NamedTuple):
    """A builtin type; ``\\pset``, ``\\fset`` and ``\\seq`` take an argument.

    The only AST node that nests itself, as deep as the input says, so
    equality and hashing loop down the chain instead of recursing.
    """

    kind: BuiltinKind
    argument: "TypeExpr | None" = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not BuiltinType:
            return False
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


@record("pos")
class NamedType(NamedTuple):
    name: str
    pos: Position


@record()
class ProductType(NamedTuple):
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


@record("pos")
class Declaration(NamedTuple):
    name: str
    type_expr: TypeExpr
    pos: Position


@record()
class PredicateLine(NamedTuple):
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


@record()
class SchemaBlock(NamedTuple):
    label: str  # "state" or "init"
    declarations: tuple[Declaration, ...]
    predicates: tuple[PredicateLine, ...]


@record()
class DeltaList(NamedTuple):
    kind: str  # "Delta" or "Xi"
    names: tuple[NameRef, ...]


@record("name_pos")
class OperationSchema(NamedTuple):
    name: str
    name_pos: Position
    delta: DeltaList | None = None
    declarations: tuple[Declaration, ...] = ()
    predicates: tuple[PredicateLine, ...] = ()


@record()
class GivenTypeDecl(NamedTuple):
    names: tuple[NameRef, ...]


@record("name_pos")
class ClassDef(NamedTuple):
    name: str
    name_pos: Position
    generic_params: tuple[NameRef, ...] = ()
    visibility: tuple[NameRef, ...] | None = None
    inherits: tuple[NameRef, ...] = ()
    local_defs: tuple[Declaration, ...] = ()
    state: SchemaBlock | None = None
    init: SchemaBlock | None = None
    operations: tuple[OperationSchema, ...] = ()


@record()
class Specification(NamedTuple):
    paragraphs: tuple[GivenTypeDecl | ClassDef, ...]

    @property
    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(p for p in self.paragraphs if isinstance(p, ClassDef))


# ---------------------------------------------------------------------------
# AST actions, run on reduce by ``parser._drive`` (``kids`` are the values of
# the body symbols; a shifted token is its own value).  Right-recursive
# lists are Python lists, last item first, reversed once by their owner.  A
# schema line is a (declaration or first token of a predicate, end) pair:
# it ends at the separator after it, or where the list is reduced.  Class
# sections are (ClassDef field, value) pairs, operations or chains of them.


def _first(kids, toks, pos):
    return kids[0]


def _spine(kids, toks, pos):
    """``X -> item [separator] X``, ``X -> item`` or ``X ->``."""
    items = kids[-1] if len(kids) > 1 else []
    if kids:
        items.append(kids[0])
    return items


def _reversed(items: list) -> tuple:
    items.reverse()
    return tuple(items)


def _name_refs(words: list) -> tuple[NameRef, ...]:
    return tuple(NameRef(w.lexeme, w.position) for w in reversed(words))


def _lines(kids, toks, pos):
    if len(kids) == 1:
        return [(kids[0], pos)]
    rest = kids[2]
    rest.append((kids[0], kids[1].position.index))
    return rest


def _body(kids, toks, pos):
    """Declarations up to the first predicate line; every line after it,
    a declaration too, is a predicate line of its own tokens."""
    lines = [line for k in reversed(kids) if k.__class__ is list for line in k]
    decls: list[Declaration] = []
    preds: list[PredicateLine] = []
    for value, end in reversed(lines):
        if value.__class__ is Declaration and not preds:
            decls.append(value)
        else:
            start = value.pos if value.__class__ is Declaration else value.position
            preds.append(PredicateLine(toks[start.index:end]))
    return tuple(decls), tuple(preds)


def _declaration(kids, toks, pos):
    name, parts = kids[0], _reversed(kids[2])  # the \cross spine
    type_expr = parts[0] if len(parts) == 1 else ProductType(parts)
    return Declaration(name.lexeme, type_expr, name.position)


_BUILTIN_BY_COMMAND = {k.value: k for k in BuiltinKind}


def _type_atom(kids, toks, pos):
    token = kids[0]
    if token.kind is TokenKind.WORD:
        return NamedType(token.lexeme, token.position)
    argument = kids[1] if len(kids) > 1 else None
    return BuiltinType(_BUILTIN_BY_COMMAND[token.lexeme], argument)


def _paragraph(kids, toks, pos):
    if kids[0].lexeme == "[":
        return GivenTypeDecl(_name_refs(kids[1]))
    name, generic = kids[2]
    fields: dict = {}
    operations: list[OperationSchema] = []
    pending = kids[:3:-1]  # the sections, first on top
    while pending:
        value = pending.pop()
        if value.__class__ is list:  # a chain, last first
            pending += value
        elif value.__class__ is tuple:
            fields[value[0]] = value[1]
        elif value.__class__ is OperationSchema:
            operations.append(value)
    return ClassDef(name.lexeme, name.position, generic,
                    operations=tuple(operations), **fields)


# By head; a head not named here, and ``_first`` on one value, leave the
# driver's None action, which keeps one value and makes None of any other.
_AST_ACTIONS = {
    "ParagraphList": _spine,
    "Paragraph": _paragraph,
    "ClassHeading": lambda kids, toks, pos: (
        kids[0], _name_refs(kids[2]) if len(kids) > 1 else ()),
    "VisibilityDecl": lambda kids, toks, pos: ("visibility", _name_refs(kids[2])),
    "Inheritance": lambda kids, toks, pos: ("inherits", _name_refs(kids[0])),
    "SectionsAfterVisibility": _spine,
    "SectionsAfterLocals": _spine,
    "SectionsAfterState": _spine,
    "SectionsAfterInit": _spine,
    "OperationSeq": _spine,
    "AxdefEnv": lambda kids, toks, pos: (
        "local_defs", _body(kids[1:2], toks, pos)[0]),
    "StateEnv": lambda kids, toks, pos: ("state", SchemaBlock("state", *kids[1])),
    "InitEnv": lambda kids, toks, pos: ("init", SchemaBlock("init", *kids[1])),
    "OperationEnv": lambda kids, toks, pos: OperationSchema(
        kids[2].lexeme, kids[2].position, *kids[4]),
    "OperationBody": lambda kids, toks, pos: (
        kids[0] if len(kids) > 1 else None, *kids[-1]),
    "DeltaPart": lambda kids, toks, pos: DeltaList(kids[0].name, _name_refs(kids[2])),
    "SchemaBody": _body,
    "InitBody": _body,
    "DeclarationList": _lines,
    "LineList": _lines,
    "PredicateList": _lines,
    "Separator": _first,
    "Declaration": _declaration,
    "NameList": _spine,
    "TypeExpr": _spine,
    "TypeAtom": _type_atom,
    "Predicate": _first,  # a predicate's value is its first token
    "Sum": _first,
    "CatExpr": _first,
    "Atom": _first,
}


@lru_cache(maxsize=1)
def ast_actions() -> tuple:
    """The AST action of each production of the shipped grammar, by index."""
    return tuple(
        None if act is _first and len(p.body) == 1 else act
        for p in object_z_grammar().productions
        for act in [_AST_ACTIONS.get(p.head.name)]
    )


def parse_spec(
    tokens: TokenStream, trace: list[TraceStep] | TraceWriter | None = None
) -> Specification:
    """Parse a token stream straight into its AST with the shipped grammar
    and table (the only ones the AST actions are indexed by).

    The AST actions run on reduce, so no parse tree is built.  Trace rows
    go to ``trace`` unless it is None: a list keeps them as steps, a
    :class:`~ozcheck.parser.TraceWriter` writes each out.  Raises what
    :func:`ozcheck.parser.parse` raises.
    """
    return Specification(_reversed(_drive(
        tokens, oz_parse_table(), object_z_grammar(), ast_actions(), trace)))


def build_ast(tree: TreeNode) -> Specification:
    """The AST of a parse tree of the shipped grammar: its frontier, ended
    by one end marker, driven through :func:`parse_spec`.  An SLR(1)
    grammar is unambiguous, so the leaves fix the tree, and the AST is the
    one the tree's own tokens give."""
    toks = tree.frontier()
    last = toks[-1]
    end = Position(len(toks), last.line, last.column + len(last.lexeme))
    return parse_spec(TokenStream(toks + (Token("", TokenKind.END_MARKER, end),)))
