"""The concrete Object Z grammar and the typed AST its parser builds.

The grammar covers class paragraphs in the LaTeX encoding: a heading with
an optional generic parameter list, an optional visibility list, an
inheritance block, local constant definitions, state and init schemas, and
operation schemas with delta lists.  Top-level bracketed paragraphs
introduce given types.  The sections of a class come in a fixed order:
each class alternative names its first section and leaves every later one
optional, and the empty class has a rule of its own.  ``oz_parse_table``
asserts that the grammar is SLR(1) when the table is first built.

Declarations are one name, a colon and a type expression.  State schemas
and operation schemas hold declarations, with predicates allowed after
``\\ST``; init schemas also accept bare predicate lines, which is how an
initial state is usually written.  Predicate lines and type expressions
are checked for well-formedness but kept in the AST as opaque token spans,
so no node nests as deep as the input: the checks read only a type's names.

The AST is built on reduce by one AST action per production, which the
production's rule line carries, as yacc's ``A : body { $$ = f($1..$n) }``
does (the bottom-up evaluation of an S-attributed definition):
:func:`parse_spec` drives the automaton with them, so no parse tree is
built.  An action makes a node by ``tuple.__new__``, which runs no Python
frame, from the stream's ``lexemes``: a node keeps its name's index and the
stream, whose token its ``pos`` reads.  :func:`build_ast` gets the AST of a
parse tree from :func:`ozcheck.parser.parse` by driving the tree's frontier
through :func:`parse_spec`, so the actions have one evaluator.
"""
from functools import lru_cache
from typing import NamedTuple

from .grammar import Grammar, ParseTable, build_table, grammar_from_text
from .lexer import END_MARKER, WORD, TokenStream
from .parser import TraceWriter, TreeNode, _drive
from .records import record

# ---------------------------------------------------------------------------
# AST: a node's ``index`` in its ``stream`` is ignored by ``==``; its
# ``pos`` (``name_pos``) is the stream's own token there.

_pos = property(lambda node: node.stream[node.index])


@record("index", "stream")
class NameRef(NamedTuple):
    """An identifier occurrence; ``pos`` is its token in the stream."""

    name: str
    index: int
    stream: TokenStream
    pos = _pos


@record()
class _Span(NamedTuple):
    """The tokens ``start`` to ``end`` of ``stream``, opaque: ``==`` and
    ``hash`` go by their ``text``, and only within one class."""

    start: int
    end: int
    stream: TokenStream
    tokens = property(lambda span: span.stream[span.start:span.end])
    text = property(
        lambda span: " ".join(span.stream.lexemes[span.start:span.end]))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)


class TypeExpr(_Span):
    """A type expression: its names are all the checks read of it."""

    __slots__ = ()


class PredicateLine(_Span):
    """An opaque, well-formed predicate."""

    __slots__ = ()


def named_leaves(t: TypeExpr):
    """Yield every type name of a type expression, a NameRef, left to right."""
    toks = t.stream
    for i in range(t.start, t.end):
        if toks.kinds[i] == WORD:
            yield _new(NameRef, (toks.lexemes[i], i, toks))


@record("index", "stream")
class Declaration(NamedTuple):
    name: str
    type_expr: TypeExpr
    index: int
    stream: TokenStream
    pos = _pos


@record()
class SchemaBlock(NamedTuple):
    label: str  # "state" or "init"
    declarations: tuple[Declaration, ...]
    predicates: tuple[PredicateLine, ...]


@record()
class DeltaList(NamedTuple):
    kind: str  # "Delta" or "Xi"
    names: tuple[NameRef, ...]


@record("index", "stream")
class OperationSchema(NamedTuple):
    name: str
    index: int
    stream: TokenStream
    delta: DeltaList | None = None
    declarations: tuple[Declaration, ...] = ()
    predicates: tuple[PredicateLine, ...] = ()
    name_pos = _pos


@record()
class GivenTypeDecl(NamedTuple):
    names: tuple[NameRef, ...]


@record("index", "stream")
class ClassDef(NamedTuple):
    name: str
    index: int
    stream: TokenStream
    generic_params: tuple[NameRef, ...] = ()
    visibility: tuple[NameRef, ...] | None = None
    inherits: tuple[NameRef, ...] = ()
    local_defs: tuple[Declaration, ...] = ()
    state: SchemaBlock | None = None
    init: SchemaBlock | None = None
    operations: tuple[OperationSchema, ...] = ()
    name_pos = _pos


@record()
class Specification(NamedTuple):
    paragraphs: tuple[GivenTypeDecl | ClassDef, ...]

    @property
    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(p for p in self.paragraphs if isinstance(p, ClassDef))


# ---------------------------------------------------------------------------
# AST actions, one on each rule line of ``_RULES``, run on reduce by
# ``parser._drive`` (``kids`` are the values of the body symbols; a shifted
# token's is its index).  Nodes are built by ``tuple.__new__``.
# A list is a Python list in source order, which each left-recursive rule
# appends to.  A declaration is reduced with the token after its type as
# lookahead, so ``pos`` ends the type's span.  A schema line is a
# (declaration or first token of a predicate, end) pair: it ends where it
# is reduced.  A class section is a (ClassDef field, value) pair, or the
# list of operations.

_new = tuple.__new__


def _push(kids, toks, pos):
    """``X -> X [separator] item``."""
    items = kids[0]
    items.append(kids[-1])
    return items


def _name_refs(words: list, toks: TokenStream) -> tuple[NameRef, ...]:
    return tuple([_new(NameRef, (toks.lexemes[w], w, toks)) for w in words])


def _lines(kids, toks, pos):
    lines = kids[0]
    lines.append((kids[2], pos))
    return lines


def _body(kids, toks, pos):
    """Declarations up to the first predicate line; every line after it,
    a declaration too, is a predicate line of its own tokens."""
    lines = [line for k in kids if k.__class__ is list for line in k]
    decls: list[Declaration] = []
    preds: list[PredicateLine] = []
    for value, end in lines:
        if value.__class__ is Declaration and not preds:
            decls.append(value)
        else:
            start = value.index if value.__class__ is Declaration else value
            preds.append(_new(PredicateLine, (start, end, toks)))
    return tuple(decls), tuple(preds)


def _class(kids, toks, pos):
    name, generic = kids[2]
    fields = [toks.lexemes[name], name, toks, generic, None, (), (), None, None, ()]
    for value in kids[4:]:  # sections (None if absent) and token indices
        if value.__class__ is tuple:
            fields[ClassDef._fields.index(value[0])] = value[1]
        elif value.__class__ is list:
            fields[-1] = tuple(value)
    return _new(ClassDef, fields)


_kids = lambda kids, toks, pos: kids  # noqa: E731
_line = lambda kids, toks, pos: [(kids[0], pos)]  # noqa: E731
_declaration = lambda kids, toks, pos: _new(Declaration, (  # noqa: E731
    toks.lexemes[kids[0]], _new(TypeExpr, (kids[2], pos, toks)), kids[0], toks))
_delta = lambda kids, toks, pos: _new(DeltaList, (  # noqa: E731
    toks.lexemes[kids[0]][1:], _name_refs(kids[2], toks)))


def _section(field):
    """The action of ``field``'s schema environment, a class section."""
    return lambda kids, toks, pos: (field, _new(SchemaBlock, (field, *kids[1])))


# Object Z class specifications over LaTeX-level terminals: rule i is
# production i + 1 in the interchange format and its AST action.  A None
# action keeps the first value (a predicate's or a type's is its first
# token), None for an empty body.  ``_ACTIONS`` holds them by production
# index; production 0, the augmentation, is never reduced.
_RULES = (
    ('ParagraphList -> Paragraph', _kids),
    ('ParagraphList -> ParagraphList Paragraph', _push),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" Visibility "\inherit" Inheritance "\endinherit" StateSchema InitialSchema Operations "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" VisibilityDecl Locals StateSchema InitialSchema Operations "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" AxdefEnv StateSchema InitialSchema Operations "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" StateEnv InitialSchema Operations "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" InitEnv Operations "\end{class}"', _class),
    (r'Paragraph -> "\begin{class}" "{" ClassHeading "}" OperationSeq "\end{class}"', _class),
    ('Paragraph -> [ NameList ]', lambda kids, toks, pos: _new(GivenTypeDecl, (_name_refs(kids[1], toks),))),
    ('ClassHeading -> Word', lambda kids, toks, pos: (kids[0], ())),
    ('ClassHeading -> Word [ NameList ]', lambda kids, toks, pos: (kids[0], _name_refs(kids[2], toks))),
    ('Visibility -> VisibilityDecl', None),
    ('Visibility ->', None),
    (r'VisibilityDecl -> "\visibility" ( NameList )', lambda kids, toks, pos: ("visibility", _name_refs(kids[2], toks))),
    ('Inheritance -> NameList', lambda kids, toks, pos: ("inherits", _name_refs(kids[0], toks))),
    ('Locals -> AxdefEnv', None),
    ('Locals ->', None),
    ('StateSchema -> StateEnv', None),
    ('StateSchema ->', None),
    ('InitialSchema -> InitEnv', None),
    ('InitialSchema ->', None),
    ('Operations -> OperationSeq', None),
    ('Operations ->', None),
    ('OperationSeq -> OperationEnv', _kids),
    ('OperationSeq -> OperationSeq OperationEnv', _push),
    (r'AxdefEnv -> "\begin{axdef}" DeclarationList "\end{axdef}"', lambda kids, toks, pos: ("local_defs", _body(kids[1:2], toks, pos)[0])),
    (r'StateEnv -> "\begin{state}" SchemaBody "\end{state}"', _section("state")),
    (r'InitEnv -> "\begin{init}" InitBody "\end{init}"', _section("init")),
    (r'OperationEnv -> "\begin{op}" "{" Word "}" OperationBody "\end{op}"', lambda kids, toks, pos: _new(OperationSchema, (toks.lexemes[kids[2]], kids[2], toks, *kids[4]))),
    ('OperationBody -> SchemaBody', lambda kids, toks, pos: (None, *kids[0])),
    ('OperationBody -> DeltaPart SchemaBody', lambda kids, toks, pos: (kids[0], *kids[1])),
    (r'DeltaPart -> "\Delta" ( NameList )', _delta),
    (r'DeltaPart -> "\Xi" ( NameList )', _delta),
    ('SchemaBody ->', _body),
    ('SchemaBody -> DeclarationList', _body),
    (r'SchemaBody -> DeclarationList "\ST" PredicateList', _body),
    (r'SchemaBody -> "\ST" PredicateList', _body),
    ('InitBody ->', _body),
    ('InitBody -> LineList', _body),
    (r'InitBody -> LineList "\ST" PredicateList', _body),
    (r'InitBody -> "\ST" PredicateList', _body),
    ('DeclarationList -> Declaration', _line),
    ('DeclarationList -> DeclarationList Separator Declaration', _lines),
    ('LineList -> Line', _line),
    ('LineList -> LineList Separator Line', _lines),
    ('Line -> Declaration', None),
    ('Line -> Predicate', None),
    ('PredicateList -> Predicate', _line),
    ('PredicateList -> PredicateList Separator Predicate', _lines),
    (r'Separator -> "\\"', None),
    (r'Separator -> Separator "\\"', None),
    ('Declaration -> Word : TypeExpr', _declaration),
    ('NameList -> Word', _kids),
    ('NameList -> NameList , Word', _push),
    ('TypeExpr -> TypeAtom', None),
    (r'TypeExpr -> TypeExpr "\cross" TypeAtom', None),
    ('TypeAtom -> Word', None),
    (r'TypeAtom -> "\nat"', None),
    (r'TypeAtom -> "\num"', None),
    (r'TypeAtom -> "\pset" TypeAtom', None),
    (r'TypeAtom -> "\fset" TypeAtom', None),
    (r'TypeAtom -> "\seq" TypeAtom', None),
    ('Predicate -> Sum', None),
    ('Predicate -> Sum = Sum', None),
    ('Sum -> CatExpr', None),
    ('Sum -> Sum + CatExpr', None),
    ('CatExpr -> Atom', None),
    (r'CatExpr -> CatExpr "\cat" Atom', None),
    ('Atom -> Word', None),
    ('Atom -> Number', None),
    (r'Atom -> "\emptyseq"', None),
    ('Atom -> ( Predicate )', None),
    (r'Atom -> "\lseq" ExpressionList "\rseq"', None),
    ('ExpressionList -> Predicate', None),
    ('ExpressionList -> ExpressionList , Predicate', None),
)
_ACTIONS = (None, *(action for _, action in _RULES))


@lru_cache(maxsize=1)
def object_z_grammar() -> Grammar:
    """The shipped Object Z grammar (start symbol ParagraphList)."""
    return grammar_from_text("\n".join(r for r, _ in _RULES), start="ParagraphList")


@lru_cache(maxsize=1)
def oz_parse_table() -> ParseTable:
    """SLR(1) table for the shipped grammar; conflict-freedom is asserted."""
    result = build_table(object_z_grammar())
    if not isinstance(result, ParseTable):
        raise AssertionError(
            "the shipped grammar is not SLR(1):\n" + result.describe()
        )
    return result


def parse_spec(tokens: TokenStream,
               trace: TraceWriter | None = None) -> Specification:
    """Parse a token stream straight into its AST with the shipped grammar
    and table (the only ones the AST actions are indexed by).

    The AST actions run on reduce, so no parse tree is built.  Unless it is
    None, ``trace`` writes each trace row out as it is made.  Raises what
    :func:`ozcheck.parser.parse` raises, each failure as its diagnostic.
    """
    return _new(Specification, (tuple(_drive(
        tokens, oz_parse_table(), _ACTIONS, trace and trace.row)),))


def build_ast(tree: TreeNode) -> Specification:
    """The AST of a parse tree of the shipped grammar: its frontier, ended
    by one end marker, driven through :func:`parse_spec`.  An SLR(1)
    grammar is unambiguous, so the leaves fix the tree, and the AST is the
    one the tree's own tokens give."""
    toks = tree.frontier()
    return parse_spec(TokenStream(
        [*(t.lexeme for t in toks), ""], [*(t.kind for t in toks), END_MARKER],
        dict(enumerate(toks))))
