"""Seeded inputs for the ozcheck benchmark, each with its expected verdict.

Every file is assembled from a list of tokens, so its token count and the
multiset of diagnostic codes it must produce are known by construction.
Nothing in this module imports or runs ozcheck: the reference verdicts are
the generator's own, derived from what it injected.

Shapes are drawn from the ranges in :class:`Shape`.  The ranges describe
ordinary specifications; they are not chosen to steer around any known
defect of the checker, so a crash on a generated file shows up as a failure
of the benchmark.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

SYN = "OZ-SYN-001"
LEX = "OZ-LEX-001"
SEMANTIC_CODES = (
    "OZ-SEM-101",
    "OZ-SEM-102",
    "OZ-SEM-103",
    "OZ-SEM-104",
    "OZ-SEM-105",
    "OZ-INH-201",
    "OZ-INH-202",
)


@dataclass(frozen=True)
class Shape:
    """Inclusive ranges and probabilities every generated class is drawn from."""

    given_paragraphs: tuple[int, int] = (1, 2)
    given_per_paragraph: tuple[int, int] = (1, 3)
    p_generics: float = 0.3
    generics: tuple[int, int] = (1, 2)
    p_visibility: float = 0.5
    p_inherit: float = 0.25
    parents: tuple[int, int] = (1, 2)
    chain_max: int = 3  # longest inheritance chain, counted in classes
    p_axdef: float = 0.3
    axdef_decls: tuple[int, int] = (1, 2)
    p_state: float = 0.85
    state_decls: tuple[int, int] = (1, 4)
    p_state_preds: float = 0.3
    p_init: float = 0.6
    init_decls: tuple[int, int] = (0, 1)
    init_preds: tuple[int, int] = (1, 2)
    ops: tuple[int, int] = (0, 3)
    p_delta: float = 0.7
    delta_names: tuple[int, int] = (1, 3)
    op_decls: tuple[int, int] = (0, 2)
    p_op_preds: float = 0.6
    preds: tuple[int, int] = (1, 2)
    type_nesting: int = 2  # \pset/\fset/\seq applied at most this deep
    cross_parts: tuple[int, int] = (1, 2)


SHAPE = Shape()

# Name stems; each kind has its own so no two kinds can collide.
_CLASS_STEMS = ("Queue", "Buffer", "Account", "Stack", "Sensor", "Router",
                "Ledger", "Printer", "Valve", "Timer")
_GIVEN_STEMS = ("Item", "Msg", "Key", "Val", "Ident", "Data")
_GENERIC_STEMS = ("T", "U", "Elem")
_VAR_STEMS = ("count", "items", "level", "total", "flag", "buf", "head",
              "size", "rate", "mode")
_ARG_STEMS = ("in", "out", "arg", "req")
_OP_STEMS = ("Join", "Leave", "Reset", "Push", "Pop", "Send", "Recv", "Tick")
_BAD_UNITS = ("@qN", "x#N", "a\x07bN", "\\frob", "\\begin{frob}", "\\begin{}")
_SYNTAX_MUTATIONS = ("decl_eq", "end_class", "heading_brace", "vis_unclosed",
                     "init_before_state")


@dataclass
class Decl:
    name: str
    type_tokens: list[str]
    sep: str = ":"

    def tokens(self) -> list[str]:
        return [self.name, self.sep, *self.type_tokens]


@dataclass
class Op:
    name: str
    delta: tuple[str, list[str]] | None = None
    decls: list[Decl] = field(default_factory=list)
    preds: list[list[str]] = field(default_factory=list)


@dataclass
class Cls:
    name: str
    generics: list[str] = field(default_factory=list)
    visibility: list[str] | None = None
    parents: list[str] = field(default_factory=list)
    axdef: list[Decl] = field(default_factory=list)
    state: list[Decl] | None = None
    state_preds: list[list[str]] = field(default_factory=list)
    init_decls: list[Decl] | None = None
    init_preds: list[list[str]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    depth: int = 1  # classes on the longest inheritance chain ending here
    flat_state: list[str] = field(default_factory=list)
    broken: str | None = None  # syntax mutation applied when rendering


@dataclass
class CheckFile:
    """One generated input and the verdict ozcheck must give on it."""

    name: str
    text: str
    tokens: int  # lexical units after lenient splitting, end marker excluded
    codes: list[str]  # expected diagnostic codes, sorted (a multiset)
    lenient: bool = False
    format: str = "machine"
    locale: str = "en"
    trace: bool = False


def _commas(names: list[str]) -> list[str]:
    out: list[str] = []
    for i, n in enumerate(names):
        if i:
            out.append(",")
        out.append(n)
    return out


def _joined(lines: list[list[str]]) -> list[list[str]]:
    """Terminate every line but the last with the ``\\\\`` separator."""
    return [line + ["\\\\"] if i + 1 < len(lines) else line
            for i, line in enumerate(lines)]


class SpecBuilder:
    """Draws classes for one file and renders them as token lines."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shape = SHAPE
        self.counter = 0
        self.given: list[list[str]] = []  # one name list per [ ... ] paragraph
        self.classes: list[Cls] = []
        self.codes: list[str] = []

    def fresh(self, stems: tuple[str, ...]) -> str:
        self.counter += 1
        return f"{self.rng.choice(stems)}{self.counter}"

    def between(self, bounds: tuple[int, int]) -> int:
        return self.rng.randint(*bounds)

    # --- drawing ----------------------------------------------------------
    def add_given_types(self) -> None:
        for _ in range(self.between(self.shape.given_paragraphs)):
            self.given.append([self.fresh(_GIVEN_STEMS) for _ in
                               range(self.between(self.shape.given_per_paragraph))])

    @property
    def given_names(self) -> list[str]:
        return [n for para in self.given for n in para]

    def reserve_classes(self, n: int) -> None:
        """Name ``n`` classes up front so any class may use any other as a type."""
        self.classes.extend(Cls(self.fresh(_CLASS_STEMS)) for _ in range(n))

    def type_tokens(self, pool: list[str]) -> list[str]:
        parts: list[str] = []
        for i in range(self.between(self.shape.cross_parts)):
            if i:
                parts.append("\\cross")
            parts.extend(self._type_atom(pool, self.shape.type_nesting))
        return parts

    def _type_atom(self, pool: list[str], nesting: int) -> list[str]:
        r = self.rng.random()
        if nesting and r < 0.3:
            ctor = self.rng.choice(("\\pset", "\\fset", "\\seq"))
            return [ctor, *self._type_atom(pool, nesting - 1)]
        if r < 0.7:
            return [self.rng.choice(pool)]
        return [self.rng.choice(("\\nat", "\\num"))]

    def predicate(self, words: list[str]) -> list[str]:
        rng = self.rng
        num = str(rng.randint(0, 99))
        if not words:
            return [num, "=", str(rng.randint(0, 99))]
        w, v = rng.choice(words), rng.choice(words)
        form = rng.randrange(6)
        if form == 0:
            return [w, "=", num]
        if form == 1:
            return [w + "'", "=", w, "+", num]
        if form == 2:
            return [w, "=", "\\emptyseq"]
        if form == 3:
            return [w + "'", "=", w, "\\cat", "\\lseq", v, "\\rseq"]
        if form == 4:
            return ["(", w, "+", num, ")", "=", v]
        return [w, "=", "\\lseq", num, ",", str(rng.randint(0, 99)), "\\rseq"]

    def fill_class(self, c: Cls, parent_pool: list[Cls]) -> None:
        """Draw the body of a clean class; parents come from ``parent_pool``."""
        rng, s = self.rng, self.shape
        if rng.random() < s.p_generics:
            c.generics = [self.fresh(_GENERIC_STEMS)
                          for _ in range(self.between(s.generics))]
        pool = self.given_names + [k.name for k in self.classes] + c.generics
        eligible = [p for p in parent_pool if p.depth < s.chain_max]
        if eligible and rng.random() < s.p_inherit:
            k = min(len(eligible), self.between(s.parents))
            parents = rng.sample(eligible, k)
            c.parents = [p.name for p in parents]
            c.depth = 1 + max(p.depth for p in parents)
            for p in parents:
                c.flat_state += [n for n in p.flat_state if n not in c.flat_state]
        elif rng.random() < s.p_axdef:
            c.axdef = [Decl(self.fresh(_VAR_STEMS), self.type_tokens(pool))
                       for _ in range(self.between(s.axdef_decls))]
        if rng.random() < s.p_state:
            c.state = [Decl(self.fresh(_VAR_STEMS), self.type_tokens(pool))
                       for _ in range(self.between(s.state_decls))]
            c.flat_state += [d.name for d in c.state]
            if rng.random() < s.p_state_preds:
                c.state_preds = [self.predicate([d.name for d in c.state])
                                 for _ in range(self.between(s.preds))]
        words = c.flat_state
        if rng.random() < s.p_init:
            c.init_decls = [Decl(self.fresh(_VAR_STEMS), self.type_tokens(pool))
                            for _ in range(self.between(s.init_decls))]
            c.init_preds = [self.predicate(words)
                            for _ in range(self.between(s.init_preds))]
        for _ in range(self.between(s.ops)):
            op = Op(self.fresh(_OP_STEMS))
            if words and rng.random() < s.p_delta:
                k = min(len(words), self.between(s.delta_names))
                op.delta = (rng.choice(("\\Delta", "\\Xi")), rng.sample(words, k))
            for _ in range(self.between(s.op_decls)):
                name = self.fresh(_ARG_STEMS) + rng.choice(("?", "!", ""))
                op.decls.append(Decl(name, self.type_tokens(pool)))
            if rng.random() < s.p_op_preds:
                op_words = words + [d.name for d in op.decls]
                op.preds = [self.predicate(op_words)
                            for _ in range(self.between(s.preds))]
            c.ops.append(op)
        if rng.random() < s.p_visibility:
            names = c.flat_state + ["Init"] + [o.name for o in c.ops]
            c.visibility = rng.sample(names, rng.randint(1, len(names)))

    def draw_clean(self, n_classes: int) -> None:
        """Given types and ``n_classes`` clean classes; parents precede children."""
        self.add_given_types()
        start = len(self.classes)
        self.reserve_classes(n_classes)
        for i in range(start, len(self.classes)):
            self.fill_class(self.classes[i], self.classes[start:i])

    # --- injected findings ------------------------------------------------
    def _leaves(self) -> list[Cls]:
        """Classes no other class inherits from and that inherit nothing."""
        parents = {p for c in self.classes for p in c.parents}
        return [c for c in self.classes if not c.parents and c.name not in parents]

    def _new_leaf(self) -> Cls:
        c = Cls(self.fresh(_CLASS_STEMS))
        self.classes.append(c)
        self.fill_class(c, [])
        return c

    def _bad_op(self, host: Cls, decls: list[Decl], delta=None) -> None:
        host.ops.append(Op(self.fresh(_OP_STEMS), delta=delta, decls=decls))

    def inject(self, code: str) -> None:
        """Add one finding of ``code`` to a class and record what it must yield.

        Findings that inheritance could spread are placed in classes that no
        other class inherits from, so each injection yields exactly the
        codes recorded here.
        """
        rng = self.rng
        host = rng.choice(self.classes)
        if code == "OZ-SEM-101":
            # a variable used as a type: circular, and not a type either
            a = self.fresh(_VAR_STEMS)
            self._bad_op(host, [Decl(a, ["\\nat"]),
                                Decl(self.fresh(_VAR_STEMS), ["\\pset", a])])
            self.codes += ["OZ-SEM-101", "OZ-SEM-102"]
        elif code == "OZ-SEM-102":
            undefined = ["\\seq", f"Undef{self.counter}"]
            if host.state:
                host.state.append(Decl(self.fresh(_VAR_STEMS), undefined))
            else:
                self._bad_op(host, [Decl(self.fresh(_VAR_STEMS), undefined)])
            self.codes.append(code)
        elif code == "OZ-SEM-103":
            if host.state:
                host.state.append(Decl(host.state[0].name, ["\\nat"]))
            else:
                name = self.fresh(_VAR_STEMS)
                self._bad_op(host, [Decl(name, ["\\nat"]), Decl(name, ["\\num"])])
            self.codes.append(code)
        elif code == "OZ-SEM-104":
            types = self.given_names + [c.name for c in self.classes] + host.generics
            self._bad_op(host, [Decl(rng.choice(types), ["\\nat"])])
            self.codes.append(code)
        elif code == "OZ-SEM-105":
            self._bad_op(host, [], delta=("\\Delta", [f"ghost{self.counter}"]))
            self.codes.append(code)
        elif code == "OZ-INH-201":
            host = rng.choice(self._leaves() or [self._new_leaf()])
            host.axdef = []  # the inheritance block excludes local definitions
            host.parents = [f"Missing{self.counter}"]
            self.codes.append(code)
        elif code == "OZ-INH-202":
            leaves = self._leaves()
            size = rng.randint(1, 2)  # a class inheriting itself, or a pair
            while len(leaves) < size:
                leaves.append(self._new_leaf())
            cycle = rng.sample(leaves, size)
            for i, c in enumerate(cycle):
                c.axdef = []
                c.parents = [cycle[(i + 1) % len(cycle)].name]
            self.codes += [code] * len(cycle)
        else:
            raise ValueError(f"no injection for {code}")

    def break_syntax(self) -> None:
        """Apply one mutation that makes the parser reject the file."""
        rng = self.rng
        kind = rng.choice(_SYNTAX_MUTATIONS)
        c = rng.choice(self.classes)
        decls = c.axdef + (c.state or []) + [d for o in c.ops for d in o.decls]
        if kind == "decl_eq" and decls:
            rng.choice(decls).sep = "="
        elif (kind == "heading_brace"
              or (kind == "vis_unclosed" and c.visibility)
              or (kind == "init_before_state" and c.state is not None
                  and c.init_decls is not None)):
            c.broken = kind
        else:
            c.broken = "end_class"
        self.codes = [SYN]

    # --- rendering --------------------------------------------------------
    def lines(self) -> list[list[str]]:
        out = [["[", *_commas(para), "]"] for para in self.given]
        for c in self.classes:
            out.extend(_class_lines(c))
        return out


def _schema(env: str, decls: list[Decl], preds: list[list[str]],
            st: bool) -> list[list[str]]:
    body = [d.tokens() for d in decls]
    if st and preds:
        body = _joined(body) + [["\\ST"]] + _joined(preds)
    else:
        body = _joined(body + preds)
    return [[f"\\begin{{{env}}}"], *body, [f"\\end{{{env}}}"]]


def _class_lines(c: Cls) -> list[list[str]]:
    head = ["\\begin{class}", "{", c.name]
    if c.generics:
        head += ["[", *_commas(c.generics), "]"]
    if c.broken != "heading_brace":
        head.append("}")
    lines = [head]
    if c.visibility is not None:
        vis = ["\\visibility", "(", *_commas(c.visibility)]
        lines.append(vis if c.broken == "vis_unclosed" else vis + [")"])
    if c.parents:
        lines.append(["\\inherit", *_commas(c.parents), "\\endinherit"])
    if c.axdef:
        lines += _schema("axdef", c.axdef, [], st=False)
    state = (_schema("state", c.state, c.state_preds, st=True)
             if c.state is not None else [])
    init = (_schema("init", c.init_decls, c.init_preds, st=False)
            if c.init_decls is not None else [])
    lines += init + state if c.broken == "init_before_state" else state + init
    for op in c.ops:
        lines.append(["\\begin{op}", "{", op.name, "}"])
        if op.delta:
            lines.append([op.delta[0], "(", *_commas(op.delta[1]), ")"])
        lines += _schema("op", op.decls, op.preds, st=True)[1:-1]
        lines.append(["\\end{op}"])
    if c.broken != "end_class":
        lines.append(["\\end{class}"])
    return lines


_PUNCT = frozenset("{}[](),:")
_PREAMBLE = ["\\documentclass{article}", "\\usepackage{oz}",
             "\\begin{document}", "\\section{Specification}",
             "The classes below are checked by ozcheck."]


def render(rng: random.Random, lines: list[list[str]], glue: bool = False,
           comments: bool = False, wrapper: bool = False) -> str:
    """Lay token lines out as LaTeX text.

    ``glue`` writes some punctuation without the separating blank (only the
    lenient lexer accepts that), ``comments`` adds ``%`` lines and
    ``wrapper`` puts the listing inside a LaTeX document.
    """
    out: list[str] = list(_PREAMBLE) if wrapper else []
    for i, line in enumerate(lines):
        if comments and i and rng.random() < 0.1:
            out.append(f"% note {rng.randint(0, 999)}: see {rng.choice(line)}")
        text = line[0]
        for prev, tok in zip(line, line[1:]):
            glued = glue and (prev in _PUNCT or tok in _PUNCT) and rng.random() < 0.5
            text += tok if glued else " " + tok
        out.append(text)
    if wrapper:
        out.append("\\end{document}")
    return "\n".join(out) + "\n"


def _spoil_lexically(rng: random.Random, lines: list[list[str]], n: int) -> None:
    """Replace one token that does not start a line by an invalid unit.

    A line-initial token is never chosen: in a wrapped document the first
    class line must stay recognisable, or the bad unit would be skipped
    along with the preamble.
    """
    slots = [(i, j) for i, line in enumerate(lines) for j in range(1, len(line))]
    i, j = rng.choice(slots)
    lines[i][j] = rng.choice(_BAD_UNITS).replace("N", str(n))


def _count(lines: list[list[str]]) -> int:
    return sum(len(line) for line in lines)


# --- workloads ---------------------------------------------------------------

BULK_CLASSES = 1000
MIXED_FILES = 400
# Classes per file: every count in this range is used equally often, in an
# order drawn from the seed, so the file sizes (and with them the median and
# slowest files) do not depend on the seed as much as the contents do.
MIXED_CLASSES = (1, 6)
# Per 20 files: 8 clean, one per semantic code, 3 syntax errors, 2 lexical.
MIXED_VERDICTS = ("clean",) * 8 + SEMANTIC_CODES + ("syntax",) * 3 + ("lexical",) * 2
MIXED_P_GLUE = 0.3
MIXED_P_COMMENTS = 0.3
MIXED_P_WRAPPER = 0.2
# Trace file sizes in tokens, evenly spaced; an odd count keeps the median
# on one file.
TRACE_SIZES = tuple(range(300, 1501, 150))
# Indices of the trace files that end in a syntax error.  They are fixed, like
# the sizes, so that the slowest file and the peak memory do not depend on the
# seed; the seed changes only the contents.
TRACE_BROKEN = (1, 4, 7)


def bulk_clean(seed: int) -> list[CheckFile]:
    """One large clean specification, strict lexing, machine format."""
    rng = random.Random(f"bulk-clean/{seed}")
    b = SpecBuilder(rng)
    b.draw_clean(BULK_CLASSES)
    lines = b.lines()
    return [CheckFile("bulk.tex", render(rng, lines), _count(lines), [])]


def many_files_mixed(seed: int) -> list[CheckFile]:
    """Small files of every verdict, lenient lexing, all formats and locales."""
    rng = random.Random(f"many-files-mixed/{seed}")
    verdicts: list[str] = []
    while len(verdicts) < MIXED_FILES:
        block = list(MIXED_VERDICTS)
        rng.shuffle(block)
        verdicts += block
    low, high = MIXED_CLASSES
    classes = [low + i % (high - low + 1) for i in range(MIXED_FILES)]
    rng.shuffle(classes)
    files = []
    for i, verdict in enumerate(verdicts[:MIXED_FILES]):
        b = SpecBuilder(rng)
        b.draw_clean(classes[i])
        if verdict == "syntax":
            b.break_syntax()
        elif verdict in SEMANTIC_CODES:
            b.inject(verdict)
        lines = b.lines()
        codes = b.codes
        if verdict == "lexical":
            _spoil_lexically(rng, lines, i)
            codes = [LEX]
        text = render(rng, lines, glue=rng.random() < MIXED_P_GLUE,
                      comments=rng.random() < MIXED_P_COMMENTS,
                      wrapper=rng.random() < MIXED_P_WRAPPER)
        files.append(CheckFile(
            f"m{i:03d}.tex", text, _count(lines), sorted(codes), lenient=True,
            format=rng.choice(("machine", "text")),
            locale=rng.choice(("en", "fr"))))
    return files


def _padding_class(b: SpecBuilder, n_tokens: int) -> list[list[str]]:
    """A class of exactly ``n_tokens`` (at least 14) tokens."""
    n_decls, extra = divmod(n_tokens - 6, 4)
    decls = [[b.fresh(_VAR_STEMS), ":", "\\nat"] for _ in range(n_decls)]
    body = _joined(decls)
    body[0] += ["\\\\"] * extra  # a separator may repeat
    return [["\\begin{class}", "{", b.fresh(_CLASS_STEMS), "}"],
            ["\\begin{state}"], *body, ["\\end{state}"], ["\\end{class}"]]


def trace(seed: int) -> list[CheckFile]:
    """Files of fixed sizes checked with --trace; some end in a syntax error."""
    rng = random.Random(f"trace/{seed}")
    files = []
    for i, size in enumerate(TRACE_SIZES):
        b = SpecBuilder(rng)
        b.add_given_types()
        parents: list[Cls] = []
        lines = b.lines()
        while True:
            c = Cls(b.fresh(_CLASS_STEMS))
            b.classes.append(c)
            b.fill_class(c, parents)
            c_lines = _class_lines(c)
            if _count(lines) + _count(c_lines) > size - 14:
                b.classes.pop()
                break
            parents.append(c)
            lines += c_lines
        codes = []
        if i in TRACE_BROKEN:
            lines += _padding_class(b, size + 1 - _count(lines))
            lines.pop()  # the final \end{class}: the parse fails at the end
            codes = [SYN]
        else:
            lines += _padding_class(b, size - _count(lines))
        files.append(CheckFile(f"t{i}.tex", render(rng, lines), _count(lines),
                               codes, format="text", trace=True))
    return files


WORKLOADS = {
    "bulk-clean": bulk_clean,
    "many-files-mixed": many_files_mixed,
    "trace": trace,
}
