"""The immutable records: what a fresh process imports for them, and their
equality, hashing and immutability."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ozcheck
from ozcheck.diagnostics import Diagnostic
from ozcheck.grammar import TERMINAL, Production, Symbol
from ozcheck.lexer import WORD, Token, TokenStream, tokenize
from ozcheck.ozgrammar import (
    ClassDef,
    Declaration,
    DeltaList,
    GivenTypeDecl,
    NameRef,
    OperationSchema,
    PredicateLine,
    SchemaBlock,
    Specification,
    TypeExpr,
)
from ozcheck.parser import TraceStep, TreeNode

from conftest import same_ast


def test_startup_loads_neither_dataclasses_nor_inspect():
    # in a child process: pytest itself imports both modules
    src = str(Path(ozcheck.__file__).parents[1])
    code = ("import sys, ozcheck.cli; ozcheck.oz_parse_table(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _predicate(at: tuple[int, TokenStream]) -> PredicateLine:
    """``x = 1`` from its first token at ``at``."""
    index, stream = at
    return PredicateLine(index, index + 3, stream)


def _type(at: tuple[int, TokenStream]) -> TypeExpr:
    """The type ``x``, the token at ``at``."""
    index, stream = at
    return TypeExpr(index, index + 1, stream)


# Each maker builds one record from a position, which is an index in a
# stream that holds ``x = 1`` from there; a record that has no position
# field, or whose equality counts it (Token), is built the same way from
# both positions.
MAKERS = {
    "NameRef": lambda at: NameRef("x", *at),
    "TypeExpr": _type,
    "Declaration": lambda at: Declaration("x", _type(at), *at),
    "PredicateLine": _predicate,
    "SchemaBlock": lambda at: SchemaBlock(
        "state", (Declaration("x", _type(at), *at),),
        (_predicate(at),)),
    "DeltaList": lambda at: DeltaList("Delta", (NameRef("x", *at),)),
    "OperationSchema": lambda at: OperationSchema(
        "Op", *at, DeltaList("Xi", (NameRef("x", *at),)),
        (Declaration("y", _type(at), *at),), (_predicate(at),)),
    "GivenTypeDecl": lambda at: GivenTypeDecl((NameRef("T", *at),)),
    "ClassDef": lambda at: ClassDef(
        "C", *at, (NameRef("T", *at),), (NameRef("x", *at),),
        (NameRef("B", *at),)),
    "Specification": lambda at: Specification(
        (GivenTypeDecl((NameRef("T", *at),)), ClassDef("C", *at))),
    "Diagnostic": lambda at: Diagnostic("OZ-SEM-102", "T", 3, 7, "C", "state-schema"),
    "Symbol": lambda at: Symbol(4, TERMINAL, "Word"),
    "Production": lambda at: Production(
        1, Symbol(0, "nonterminal", "S"), (Symbol(4, TERMINAL, "Word"),)),
    "TokenStream": lambda at: tokenize("x = 1"),
    "Token": lambda at: Token("x", WORD, 3, 2, 1),
    "TraceStep": lambda at: TraceStep("$ [0] x [4]", "= 1 $", "reduce", "r7: A -> x", 7),
    "TreeNode": lambda at: TreeNode(Symbol(0, "nonterminal", "S"), 1, (
        TreeNode(Symbol(4, TERMINAL, "Word"),
                 token=Token("x", WORD, 3, 2, 1)),)),
}
HERE, THERE = (0, tokenize("x = 1")), (1, tokenize("y\n  x = 1"))
AST_NODES = [name for name in MAKERS if name not in
             ("Diagnostic", "Symbol", "Production", "TokenStream", "Token",
              "TraceStep", "TreeNode")]


def _values(r) -> tuple:
    """The record's field values, in field order."""
    return (r.tokens,) if isinstance(r, TokenStream) else tuple(r)


def _look_alikes(r) -> list:
    """Objects with the record's field values that are not of its class:
    plain tuples and a record of every other class that takes as many
    fields, such as a PredicateLine over a TypeExpr's own span, with the
    same text.  (A foreign tuple subclass is left out: its own ``==`` is
    tuple's, which a record cannot overrule when it is on the left.)"""
    values = _values(r)
    found = [values, tuple(r)]
    for make in MAKERS.values():
        other = make(HERE)
        if other.__class__ is not r.__class__ and not isinstance(other, TokenStream) \
                and len(other) == len(values):
            found.append(other.__class__(*values))
    return found


@pytest.mark.parametrize("name", MAKERS)
def test_records_are_immutable(name):
    r = MAKERS[name](HERE)
    field = "tokens" if isinstance(r, TokenStream) else r._fields[0]
    with pytest.raises(AttributeError):
        setattr(r, field, getattr(r, field))
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("name", MAKERS)
def test_records_compare_without_positions(name):
    a, b = MAKERS[name](HERE), MAKERS[name](THERE)
    if name in AST_NODES:
        assert not same_ast(a, b)  # the positions did move
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", MAKERS)
def test_records_equal_only_their_own_class(name):
    r = MAKERS[name](HERE)
    for other in _look_alikes(r):
        assert not r == other and not other == r, other
        assert r != other and other != r, other


@pytest.mark.parametrize("name", MAKERS)
def test_not_equal_is_the_negation_of_equal(name):
    r = MAKERS[name](HERE)
    for other in [r, MAKERS[name](THERE), *_look_alikes(r)]:
        assert (r != other) is (not (r == other))
        assert (other != r) is (not (other == r))
