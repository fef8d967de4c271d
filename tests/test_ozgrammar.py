"""Shipped grammar health and AST lowering."""
from __future__ import annotations

import hashlib
import io
import random

import pytest

from ozcheck import check_text
from ozcheck.diagnostics import SYNTAX_ERROR
from ozcheck.grammar import ParseTable, build_table, format_grammar, grammar_from_text
from ozcheck.lexer import (
    END_MARKER,
    LINE_SEP,
    NUMBER,
    WORD,
    LexError,
    UnknownTokenError,
    terminal_of,
    tokenize,
)
from ozcheck.ozgrammar import (
    BuiltinType,
    GivenTypeDecl,
    NamedType,
    ProductType,
    SchemaBlock,
    build_ast,
    named_leaves,
    object_z_grammar,
    oz_parse_table,
    parse_spec,
)
from ozcheck.parser import (ParseError, TraceWriter, parse, parse_with_trace,
                            render_trace)

from conftest import ast_both_ways, corpus_text, same_ast
from render import render_tokens


def parse_text(source: str):
    return parse(tokenize(source), oz_parse_table(), object_z_grammar())


def ast_of(source: str):
    return build_ast(parse_text(source))


# ---------------------------------------------------------------------------
# grammar health


def test_grammar_is_conflict_free():
    assert isinstance(build_table(object_z_grammar()), ParseTable)


def test_grammar_dimensions_are_deterministic():
    object_z_grammar.cache_clear()
    oz_parse_table.cache_clear()
    t1 = build_table(object_z_grammar())
    dims1 = t1.dimensions()
    object_z_grammar.cache_clear()
    oz_parse_table.cache_clear()
    t2 = build_table(object_z_grammar())
    assert dims1 == t2.dimensions()
    assert t1.dump_tsv() == t2.dump_tsv()


def test_leading_productions_are_the_paragraph_rules():
    g = object_z_grammar()
    assert [str(p) for p in g.productions[1:5]] == [
        "ParagraphList -> Paragraph",
        "ParagraphList -> Paragraph ParagraphList",
        "Paragraph -> \\begin{class} { ClassHeading } \\end{class}",
        "Paragraph -> \\begin{class} { ClassHeading } Visibility \\inherit "
        "Inheritance \\endinherit StateSchema InitialSchema Operations "
        "\\end{class}",
    ]


def test_grammar_exports_in_interchange_format():
    g = object_z_grammar()
    text = format_grammar(g)
    g2 = grammar_from_text(text, start="ParagraphList")
    assert [str(p) for p in g.productions] == [str(p) for p in g2.productions]


def test_state_declarations_reject_equals():
    with pytest.raises(ParseError) as exc:
        parse_text(
            "\\begin{class} { Q }\n\\begin{state}\ncount = \\nat\n"
            "\\end{state}\n\\end{class}"
        )
    assert exc.value.diagnostic.symbol == "="


# ---------------------------------------------------------------------------
# lowering


def test_empty_class_lowers_to_bare_classdef():
    spec = ast_of(corpus_text("empty_class.tex"))
    assert len(spec.paragraphs) == 1
    c = spec.classes[0]
    assert c.name == "A"
    assert c.generic_params == ()
    assert c.visibility is None
    assert c.inherits == ()
    assert c.local_defs == ()
    assert c.state is None and c.init is None and c.operations == ()


def test_queue_lowering(queue_source):
    c = ast_of(queue_source).classes[0]
    assert c.name == "Queue"
    assert [r.name for r in c.generic_params] == ["Item"]
    assert [r.name for r in c.visibility] == ["count", "Init", "Join", "Leave"]
    assert [d.name for d in c.state.declarations] == ["items", "count"]
    assert c.state.predicates == ()
    assert c.init.declarations == ()
    assert [p.text for p in c.init.predicates] == [
        "items = \\emptyseq",
        "count = 0",
    ]
    assert [o.name for o in c.operations] == ["Join", "Leave"]
    join = c.operations[0]
    assert join.delta.kind == "Delta"
    assert [r.name for r in join.delta.names] == ["items", "count"]
    assert [d.name for d in join.declarations] == ["item?"]
    assert [p.text for p in join.predicates] == [
        "items' = items \\cat \\lseq item? \\rseq",
        "count' = count + 1",
    ]


def test_given_type_paragraph():
    spec = ast_of("[ Message ]")
    para = spec.paragraphs[0]
    assert isinstance(para, GivenTypeDecl)
    assert [r.name for r in para.names] == ["Message"]


def test_multi_name_given_type_paragraph():
    spec = ast_of("[ Message , Frame ]")
    assert [r.name for r in spec.paragraphs[0].names] == ["Message", "Frame"]


def test_same_ast_compares_what_equality_ignores():
    a, b = parse_spec(tokenize("[ Message ]")), parse_spec(tokenize("[  Message ]"))
    assert a.paragraphs[0].names[0].pos != b.paragraphs[0].names[0].pos
    assert a == b and hash(a) == hash(b)
    assert same_ast(a, parse_spec(tokenize("[ Message ]")))
    assert not same_ast(a, b)
    init = "\\begin{class} { C } \\begin{init} x = %s 1 \\end{init} \\end{class}"
    a, b = parse_spec(tokenize(init % "")), parse_spec(tokenize(init % " "))
    assert a == b and not same_ast(a, b)  # the predicate's tokens moved


def test_type_expressions():
    src = (
        "\\begin{class} { T }\n\\begin{state}\n"
        "a : \\fset \\nat \\\\\n"
        "b : \\pset Message \\\\\n"
        "c : \\seq \\seq Item \\\\\n"
        "d : \\num \\cross Message \\cross \\nat \\\\\n"
        "e : \\pset \\seq T \\cross \\nat \\cross \\fset U\n"
        "\\end{state}\n\\end{class}"
    )
    decls = ast_of(src).classes[0].state.declarations
    assert decls[0].type_expr == BuiltinType("\\fset", BuiltinType("\\nat"))
    assert decls[1].type_expr == BuiltinType("\\pset", NamedType("Message", None))
    assert decls[2].type_expr == BuiltinType(
        "\\seq", BuiltinType("\\seq", NamedType("Item", None)))
    assert decls[3].type_expr == ProductType(
        (BuiltinType("\\num"), NamedType("Message", None), BuiltinType("\\nat")))
    assert decls[4].type_expr == ProductType((
        BuiltinType("\\pset", BuiltinType("\\seq", NamedType("T", None))),
        BuiltinType("\\nat"),
        BuiltinType("\\fset", NamedType("U", None)),
    ))
    assert [t.name for t in named_leaves(decls[4].type_expr)] == ["T", "U"]


def test_inheritance_block_lowering():
    src = (
        "\\begin{class} { B }\n"
        "\\visibility ( y )\n"
        "\\inherit A , C \\endinherit\n"
        "\\begin{state}\ny : \\nat\n\\end{state}\n"
        "\\end{class}"
    )
    c = ast_of(src).classes[0]
    assert [r.name for r in c.inherits] == ["A", "C"]
    assert [r.name for r in c.visibility] == ["y"]
    assert [d.name for d in c.state.declarations] == ["y"]


def test_inheritance_without_visibility():
    src = (
        "\\begin{class} { B }\n"
        "\\inherit A \\endinherit\n"
        "\\begin{op} { Reset }\n\\Delta ( x )\n\\end{op}\n"
        "\\end{class}"
    )
    c = ast_of(src).classes[0]
    assert c.visibility is None
    assert [r.name for r in c.inherits] == ["A"]
    assert [o.name for o in c.operations] == ["Reset"]


def test_local_definitions_block():
    c = ast_of(corpus_text("delta_not_state_var.tex")).classes[0]
    assert [d.name for d in c.local_defs] == ["cste"]
    assert [d.name for d in c.state.declarations] == ["x"]
    assert c.operations[0].delta.kind == "Delta"


def test_xi_list_lowering():
    src = (
        "\\begin{class} { A }\n\\begin{state}\nx : \\nat\n\\end{state}\n"
        "\\begin{op} { Peek }\n\\Xi ( x )\n\\end{op}\n\\end{class}"
    )
    op = ast_of(src).classes[0].operations[0]
    assert op.delta.kind == "Xi"
    assert [r.name for r in op.delta.names] == ["x"]


def test_state_predicates_after_st():
    src = (
        "\\begin{class} { A }\n\\begin{state}\n"
        "x : \\nat\n\\ST\nx = 0\n\\end{state}\n\\end{class}"
    )
    block = ast_of(src).classes[0].state
    assert [d.name for d in block.declarations] == ["x"]
    assert [p.text for p in block.predicates] == ["x = 0"]


def test_init_split_at_first_non_declaration_line():
    src = (
        "\\begin{class} { A }\n\\begin{init}\n"
        "x : \\nat \\\\\nx = 0 \\\\\ny : \\nat\n"
        "\\end{init}\n\\end{class}"
    )
    block = ast_of(src).classes[0].init
    assert [d.name for d in block.declarations] == ["x"]
    # the declaration-shaped line after the first predicate stays a predicate
    assert [p.text for p in block.predicates] == ["x = 0", "y : \\nat"]


def test_every_section_kind_in_one_class():
    src = (
        "\\begin{class} { Full [ P ] }\n"
        "\\visibility ( x , Op1 )\n"
        "\\begin{axdef}\nlimit : \\nat\n\\end{axdef}\n"
        "\\begin{state}\nx : \\nat\n\\end{state}\n"
        "\\begin{init}\nx = 0\n\\end{init}\n"
        "\\begin{op} { Op1 }\n\\Delta ( x )\nn? : \\nat\n\\ST\nx' = x + n?\n"
        "\\end{op}\n"
        "\\begin{op} { Op2 }\n\\end{op}\n"
        "\\end{class}"
    )
    c = ast_of(src).classes[0]
    assert c.visibility is not None
    assert [d.name for d in c.local_defs] == ["limit"]
    assert c.state is not None and c.init is not None
    assert [o.name for o in c.operations] == ["Op1", "Op2"]
    op2 = c.operations[1]
    assert op2.delta is None and op2.declarations == () and op2.predicates == ()


def test_multiple_paragraphs():
    spec = ast_of(
        "[ Message ]\n\\begin{class} { A }\n\\end{class}\n"
        "\\begin{class} { B }\n\\end{class}"
    )
    assert len(spec.paragraphs) == 3
    assert [c.name for c in spec.classes] == ["A", "B"]


def test_declaration_positions_monotone(queue_source):
    spec = ast_of(queue_source)
    positions = []
    c = spec.classes[0]
    for block in (c.state, c.init):
        positions.extend(d.pos.index for d in block.declarations)
    for op in c.operations:
        positions.extend(r.pos.index for r in op.delta.names)
        positions.extend(d.pos.index for d in op.declarations)
    assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# round trip


ROUND_TRIP_SOURCES = [
    "empty_class.tex",
    "queue.tex",
    "queue_semantic_errors.tex",
    "circular_decl.tex",
    "undefined_type.tex",
    "duplicate_decl.tex",
    "type_name_reuse.tex",
    "delta_not_state_var.tex",
]


@pytest.mark.parametrize("name", ROUND_TRIP_SOURCES)
def test_render_tokens_round_trip(name):
    spec = ast_of(corpus_text(name))
    rendered = render_tokens(spec)
    assert ast_of(rendered) == spec


def test_render_round_trip_with_inheritance():
    src = (
        "\\begin{class} { B }\n\\visibility ( y )\n"
        "\\inherit A \\endinherit\n"
        "\\begin{state}\ny : \\nat\n\\end{state}\n"
        "\\begin{init}\ny = 0\n\\end{init}\n"
        "\\begin{op} { Bump }\n\\Delta ( y )\n\\ST\ny' = y + 1\n\\end{op}\n"
        "\\end{class}"
    )
    spec = ast_of(src)
    assert ast_of(render_tokens(spec)) == spec


# ---------------------------------------------------------------------------
# grammar-directed random generation: parsing and lowering are total


def random_specification(rng: random.Random) -> str:
    """Generate a random valid source by walking the grammar informally."""
    words = ["alpha", "beta", "gamma", "delta1", "x", "y", "zz"]

    def word():
        return rng.choice(words) + rng.choice(["", "'", "?", "!"])

    def type_expr(depth=0):
        roll = rng.random()
        if roll < 0.35 or depth > 2:
            return rng.choice(["\\nat", "\\num", word()])
        if roll < 0.7:
            ctor = rng.choice(["\\pset", "\\fset", "\\seq"])
            return f"{ctor} {type_expr(depth + 1)}"
        return type_expr(depth + 1) + " \\cross " + type_expr(depth + 1)

    def atom(depth):
        roll = rng.random()
        if roll < 0.5 or depth > 2:
            return rng.choice([word(), str(rng.randrange(100)), "\\emptyseq"])
        if roll < 0.75:
            return f"( {predicate(depth + 1)} )"
        items = " , ".join(predicate(depth + 1) for _ in range(rng.randint(1, 2)))
        return f"\\lseq {items} \\rseq"

    def predicate(depth=0):
        left = atom(depth)
        for _ in range(rng.randrange(2)):
            op = rng.choice(["+", "\\cat"])
            left += f" {op} {atom(depth)}"
        if rng.random() < 0.6 and depth == 0:
            return f"{left} = {atom(depth)}"
        return left

    def declaration():
        return f"{word()} : {type_expr()}"

    def decl_lines(n):
        return " \\\\\n".join(declaration() for _ in range(n))

    def pred_lines(n):
        return " \\\\\n".join(predicate() for _ in range(n))

    def name_list(n):
        return " , ".join(word() for _ in range(n))

    def class_paragraph():
        lines = [f"\\begin{{class}} {{ {word()}"]
        if rng.random() < 0.4:
            lines[0] += f" [ {name_list(rng.randint(1, 2))} ]"
        lines[0] += " }"
        has_inherit = rng.random() < 0.3
        if rng.random() < 0.5:
            lines.append(f"\\visibility ( {name_list(rng.randint(1, 3))} )")
        if has_inherit:
            lines.append(f"\\inherit {name_list(rng.randint(1, 2))} \\endinherit")
        elif rng.random() < 0.3:
            lines.append("\\begin{axdef}")
            lines.append(decl_lines(rng.randint(1, 2)))
            lines.append("\\end{axdef}")
        if rng.random() < 0.8:
            lines.append("\\begin{state}")
            body = decl_lines(rng.randint(1, 3))
            if rng.random() < 0.3:
                body += "\n\\ST\n" + pred_lines(rng.randint(1, 2))
            lines.append(body)
            lines.append("\\end{state}")
        if rng.random() < 0.6:
            lines.append("\\begin{init}")
            # declaration and predicate lines in any order, then maybe \ST
            lines.append(" \\\\\n".join(
                rng.choice([declaration, predicate])()
                for _ in range(rng.randint(1, 3))))
            if rng.random() < 0.3:
                lines.append("\\ST\n" + pred_lines(rng.randint(1, 2)))
            lines.append("\\end{init}")
        for _ in range(rng.randrange(3)):
            lines.append(f"\\begin{{op}} {{ {word()} }}")
            if rng.random() < 0.7:
                kind = rng.choice(["\\Delta", "\\Xi"])
                lines.append(f"{kind} ( {name_list(rng.randint(1, 3))} )")
            if rng.random() < 0.6:
                lines.append(decl_lines(rng.randint(1, 2)))
            if rng.random() < 0.7:
                lines.append("\\ST")
                lines.append(pred_lines(rng.randint(1, 2)))
            lines.append("\\end{op}")
        lines.append("\\end{class}")
        return "\n".join(lines)

    paragraphs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            paragraphs.append(f"[ {name_list(rng.randint(1, 2))} ]")
        else:
            paragraphs.append(class_paragraph())
    return "\n".join(paragraphs) + "\n"


def test_lowering_is_total_on_generated_specifications():
    rng = random.Random(20240817)
    for _ in range(200):
        source = random_specification(rng)
        spec = ast_of(source)  # must not raise
        positions = []
        for c in spec.classes:
            blocks = [b for b in (c.state, c.init) if b is not None]
            for block in blocks:
                positions.extend(d.pos.index for d in block.declarations)
            for op in c.operations:
                positions.extend(d.pos.index for d in op.declarations)
        assert positions == sorted(positions)
        # and the rendering round-trips structurally
        assert ast_of(render_tokens(spec)) == spec


def ast_positions(spec) -> list:
    """Every ``pos`` and ``name_pos`` value in ``spec``."""
    found, pending = [], [spec]
    while pending:
        x = pending.pop()
        if x.__class__ is tuple:
            pending.extend(x)
        for name in getattr(x, "_fields", ()):
            value = getattr(x, name)
            (found if name in ("pos", "name_pos") else pending).append(value)
    return found


def test_ast_positions_are_the_streams_own_tokens(queue_source):
    rng = random.Random(20261019)
    for source in [queue_source, *(random_specification(rng) for _ in range(50))]:
        tokens = tokenize(source)
        tree = parse(tokens, oz_parse_table(), object_z_grammar())
        for spec in (parse_spec(tokens), build_ast(tree)):
            positions = ast_positions(spec)
            assert positions
            assert all(p is tokens[p.index] for p in positions)


# Units a mutation inserts or substitutes: every terminal of the shipped
# grammar, with a sample word and number.
MUTATION_UNITS = (
    "\\begin{class}", "\\end{class}", "{", "}", "[", "]", "(", ")", ",", ":",
    "=", "+", "\\\\", "\\visibility", "\\inherit", "\\endinherit",
    "\\begin{axdef}", "\\end{axdef}", "\\begin{state}", "\\end{state}",
    "\\begin{init}", "\\end{init}", "\\begin{op}", "\\end{op}", "\\Delta",
    "\\Xi", "\\ST", "\\cross", "\\nat", "\\num", "\\pset", "\\fset", "\\seq",
    "\\cat", "\\emptyseq", "\\lseq", "\\rseq", "w", "7",
)


def mutate(source: str, rng: random.Random) -> str:
    """Delete, insert or replace one to three units of ``source``."""
    lines = [line.split() for line in source.splitlines()]
    for _ in range(rng.randint(1, 3)):
        units = rng.choice([line for line in lines if line])
        i = rng.randrange(len(units))
        edit = rng.randrange(3)
        if edit == 0:
            del units[i]
        elif edit == 1:
            units.insert(i + rng.randrange(2), rng.choice(MUTATION_UNITS))
        else:
            units[i] = rng.choice(MUTATION_UNITS)
        if not any(lines):
            break
    return "\n".join(" ".join(units) for units in lines) + "\n"


# SHA-256 over every field of every check_text diagnostic of the 3,000
# mutated sources of test_mutated_specifications_output_is_pinned, recorded
# while syntax errors were located by a token-kind state machine.
MUTATION_DIGEST = "29baaba59e27ad65b487dcaeba869d47e0987cf7aadfdde323ae853bbdf509ed"


def test_mutated_specifications_output_is_pinned():
    rng = random.Random(20261019)
    h = hashlib.sha256()
    blocks = set()
    for _ in range(3000):
        for d in check_text(mutate(random_specification(rng), rng)):
            h.update(repr(tuple(d)).encode())
            if d.code == SYNTAX_ERROR:
                blocks.add("operation(Name)" if d.block and d.block.startswith(
                    "operation(") else d.block)
    assert blocks == {"class-heading", "visibility", "inheritance",
                      "local-definitions", "state-schema", "init-schema",
                      "operation", "operation(Name)", "top-level", None}
    assert h.hexdigest() == MUTATION_DIGEST


# Tokens other than line separators that may stand just before and just
# after a predicate line.
LINE_STARTS = {"\\ST", "\\begin{init}"}
LINE_ENDS = {"\\ST", "\\end{state}", "\\end{init}", "\\end{op}"}


def assert_predicate_lines_are_whole(spec, source):
    """Each predicate line holds exactly the tokens between two line
    boundaries of the source."""
    def bounds(t, others):
        return t.kind == LINE_SEP or t.lexeme in others

    toks = tokenize(source).tokens
    for c in spec.classes:
        blocks = [b for b in (c.state, c.init) if b is not None]
        for line in [p for b in blocks + list(c.operations) for p in b.predicates]:
            first = line.tokens[0].index
            last = line.tokens[-1].index
            assert line.tokens == toks[first:last + 1]
            assert bounds(toks[first - 1], LINE_STARTS), line.text
            assert bounds(toks[last + 1], LINE_ENDS), line.text
            assert not any(bounds(t, LINE_ENDS) for t in line.tokens), line.text


def rejection(parse_fn):
    """What the ParseError raised by ``parse_fn()`` reports."""
    with pytest.raises(ParseError) as raised:
        parse_fn()
    return raised.value.diagnostic, raised.value.trace


def test_ast_built_on_reduce_equals_the_tree_fold(corpus):
    sources = [p.read_text(encoding="utf-8") for p in sorted(corpus.glob("*.tex"))]
    rng = random.Random(20261018)
    sources += [random_specification(rng) for _ in range(300)]
    table, g = oz_parse_table(), object_z_grammar()
    rejected = 0
    for source in sources:
        try:
            spec = ast_both_ways(source)
        except ParseError:  # both paths reject it alike, traced or not
            tokens = tokenize(source)
            assert rejection(lambda: parse_spec(tokens)) == rejection(
                lambda: parse(tokens, table, g))
            out = io.StringIO()
            *streamed, no_steps = rejection(
                lambda: parse_spec(tokens, TraceWriter(out, "")))
            *kept, steps = rejection(lambda: parse_with_trace(tokens, table, g))
            assert streamed == kept and no_steps is None
            assert out.getvalue() == render_trace(steps)
            rejected += 1
            continue
        assert_predicate_lines_are_whole(spec, source)
    assert rejected > 0


def test_a_tokens_kind_is_its_terminals_name(corpus):
    sources = [p.read_text(encoding="utf-8") for p in sorted(corpus.glob("*.tex"))]
    rng = random.Random(20261019)
    sources += [random_specification(rng) for _ in range(300)]
    g = object_z_grammar()
    checked = 0
    for source in sources:
        for lenient in (False, True):
            try:
                tokens = tokenize(source, lenient=lenient)
            except LexError:
                continue
            for t in tokens:
                assert t.kind in (WORD, NUMBER, LINE_SEP, END_MARKER) or t.kind == t.lexeme
                try:
                    assert terminal_of(t, g).name == t.kind
                except UnknownTokenError:
                    assert g.try_symbol(t.kind) is None
                checked += 1
    assert checked > 10**4


def test_init_declaration_after_a_predicate_keeps_its_own_tokens():
    source = (
        "\\begin{class} { A } \\begin{init}\n"
        "x : \\nat \\\\ x = ( 0 ) \\\\ \\\\ y : \\seq T \\ST z = 1\n"
        "\\end{init} \\end{class}"
    )
    init = ast_both_ways(source).classes[0].init
    assert [(d.name, d.pos.index) for d in init.declarations] == [("x", 5)]
    toks = tokenize(source).tokens
    assert [p.tokens for p in init.predicates] == [
        toks[9:14], toks[16:20], toks[21:24]]
    assert [p.text for p in init.predicates] == [
        "x = ( 0 )", "y : \\seq T", "z = 1"]


@pytest.mark.parametrize("body, predicates, production", [
    ("", [], "InitBody ->"),
    ("\\ST x = 0 \\\\ y = 1", ["x = 0", "y = 1"], "InitBody -> \\ST PredicateList"),
])
def test_init_bodies_without_lines(body, predicates, production):
    # two InitBody productions that random_specification never reaches
    source = f"\\begin{{class}} {{ A }} \\begin{{init}} {body} \\end{{init}} \\end{{class}}"
    init = ast_both_ways(source).classes[0].init
    assert init.label == "init" and init.declarations == ()
    assert [p.text for p in init.predicates] == predicates
    if not predicates:
        assert init == SchemaBlock("init", (), ())
    g = object_z_grammar()
    _, steps = parse_with_trace(tokenize(source), oz_parse_table(), g)
    assert production in [
        str(g.productions[s.production]) for s in steps if s.kind == "reduce"]
    assert check_text(source) == []


def test_deep_type_expressions_do_not_recurse():
    depth = 10_000
    state = "\\begin{class} { A } \\begin{state} x : %s \\end{state} \\end{class}"
    assert check_text(state % ("\\pset " * depth + "\\nat")) == []
    source = state % ("\\pset " * depth + "\\fset Missing")
    # compared as text; ``==`` on deep chains has its own test below
    assert render_tokens(ast_both_ways(source)).split() == source.split()
    source = state % ("\\nat" + " \\cross \\nat" * depth)
    assert check_text(source) == []
    assert render_tokens(ast_both_ways(source)).split() == source.split()
    ds = check_text(state % ("\\pset " * depth + "Missing"))
    assert [(d.code, d.symbol) for d in ds] == [("OZ-SEM-102", "Missing")]
    ds = check_text(state % ("\\nat" + " \\cross \\seq Missing" * depth))
    assert [d.code for d in ds] == ["OZ-SEM-102"] * depth
    assert [d.column for d in ds] == sorted(d.column for d in ds)


def test_deep_type_chains_compare_and_hash_without_recursion():
    depth = 10_000
    state = "\\begin{class} { A } \\begin{state} x : %s \\end{state} \\end{class}"
    spec = ast_of(state % ("\\pset " * depth + "\\nat"))
    same = ast_of(state % ("\\pset " * depth + "\\nat"))
    assert spec == same and spec is not same
    assert hash(spec) == hash(same)
    type_expr = spec.classes[0].state.declarations[0].type_expr
    assert type_expr == same.classes[0].state.declarations[0].type_expr
    assert hash(type_expr) == hash(same.classes[0].state.declarations[0].type_expr)
    assert spec != ast_of(state % ("\\pset " * depth + "\\num"))
    assert spec != ast_of(state % ("\\pset " * depth + "Missing"))
    assert spec != ast_of(state % ("\\pset " * (depth - 1) + "\\nat"))
    middle = "\\pset " * (depth // 2) + "\\fset " + "\\pset " * (depth // 2 - 1)
    assert spec != ast_of(state % (middle + "\\nat"))
    # named leaves compare by name, not position
    named = ast_of(state % ("\\pset " * depth + "Missing"))
    moved = ast_of(state % ("\\pset " * depth + "\n Missing"))
    assert named == moved and hash(named) == hash(moved)


def test_many_operations_in_one_class_do_not_recurse():
    n = 10_000
    ops = " ".join(f"\\begin{{op}} {{ Op{i} }} \\end{{op}}" for i in range(n))
    spec = ast_both_ways(f"\\begin{{class}} {{ A }} {ops} \\end{{class}}")
    assert [op.name for op in spec.classes[0].operations] == [
        f"Op{i}" for i in range(n)
    ]


@pytest.mark.parametrize("source", [
    "[ " + " , ".join(f"T{i}" for i in range(10_000)) + " ]",
    "\\begin{class} { A } \\begin{state} "
    + " \\\\ ".join(f"x{i} : \\nat" for i in range(10_000))
    + " \\end{state} \\end{class}",
    "\\begin{class} { A } \\begin{state} x : \\nat \\ST "
    + " \\\\ ".join(f"x = {i}" for i in range(10_000))
    + " \\end{state} \\end{class}",
], ids=["names", "declarations", "predicates"])
def test_long_lists_do_not_recurse(source):
    assert check_text(source) == []
    assert render_tokens(ast_both_ways(source)).split() == source.split()
