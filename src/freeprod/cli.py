"""Command line interface and the sectioned problem-file format.

A problem file names the two finite factors and the subgroup generators:

    [factor1]
    type = cyclic 2
    generators = a

    [factor2]
    type = presentation
    generators = b
    relators = b^3

    [subgroup]
    generators = a b a^-1 b^-1, b a b a b a

Factor types: ``cyclic N``, ``table FILE`` (first line the order, then an
order x order table of element ids; generators given as ``name:id``) and
``presentation`` (bounded enumeration of the given relators).  A section
may hold only the keys it reads (``_KEYS``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .fingroup import (
    CapExceededError,
    DEFAULT_CAP,
    FactorPair,
    FiniteGroup,
    GeneratorError,
    GroupValidationError,
    GroupWord,
    RelatorError,
    from_presentation,
    make_cyclic,
    parse_group_word,
)
from .kurosh import decompose, presentation, verify
from .lgraph import InvariantError, components, to_dot
from .precover import contains, index_if_finite, subgroup_graph
from .words import (
    Word,
    WordSyntaxError,
    ascii_int,
    format_symbol_word,
    normal_to_word,
    normalize,
    parse_word,
    render_word,
)

EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class ProblemFileError(ValueError):
    """An input error, its message prefixed with the line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


@dataclass
class _Section:
    name: str
    line: int
    entries: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    # key -> (value, line, column of value start)
    key_columns: dict[str, int] = field(default_factory=dict)   # key -> its column

    def get(self, key: str) -> tuple[str, int, int] | None:
        return self.entries.get(key)

    def require(self, key: str) -> tuple[str, int, int]:
        got = self.entries.get(key)
        if got is None:
            raise ProblemFileError(f"section [{self.name}] is missing {key!r}", self.line)
        return got


def _parse_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", lineno)
            current = _Section(name, lineno)
            sections[name] = current
            continue
        if current is None:
            raise ProblemFileError("content before any [section] header", lineno)
        if "=" not in line:
            raise ProblemFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        k = key.strip()
        if not k:
            raise ProblemFileError("empty key", lineno)
        if k in current.entries:
            raise ProblemFileError(f"duplicate key {k!r} in [{current.name}]", lineno)
        vcol = len(key) + 2 + len(value) - len(value.lstrip())  # 1-based column of the value text
        current.entries[k] = (value.strip(), lineno, vcol)
        current.key_columns[k] = len(key) - len(key.lstrip()) + 1
    return sections


def _split_list(value: str, line: int, col: int) -> list[tuple[str, int]]:
    """Comma-split a value, keeping each item's 1-based column."""
    items: list[tuple[str, int]] = []
    offset = 0
    for part in value.split(","):
        stripped = part.strip()
        if not stripped:
            raise ProblemFileError("empty item in list", line, col + offset)
        items.append((stripped, col + offset + (len(part) - len(part.lstrip()))))
        offset += len(part) + 1
    return items


def _parse_items(items: list[tuple[str, int]], line: int, parse) -> list:
    """Parse each ``_split_list`` item with ``parse``, reporting a syntax
    error at its line and column in the file."""
    out = []
    for item, icol in items:
        try:
            out.append(parse(item))
        except WordSyntaxError as exc:
            column = icol + (exc.column - 1 if exc.column else 0)
            raise ProblemFileError(str(exc), line, column) from None
    return out


def _relators(sec: _Section, labels: tuple[str, ...]) -> list[GroupWord] | None:
    rel = sec.get("relators")
    if rel is None:
        return None
    return _parse_items(_split_list(*rel), rel[1], lambda w: parse_group_word(w, labels))


def _read_table_file(path: Path, line: int, col: int, cap: int) -> list[list[int]]:
    """Read a table file.  The order line is held against ``cap`` before
    the table block is read.  Numbers are ASCII digits (``int`` alone also
    reads other scripts' digits and underscores)."""
    non_integer = ProblemFileError(f"table file {path} has non-integer entries", line)
    try:
        with path.open() as fh:
            rows = (r for r in fh if r.strip())
            head = next(rows, None)
            if head is None:
                raise ProblemFileError(f"table file {path} is empty", line)
            order = ascii_int(head.split()[0])
            if order is None:
                raise non_integer
            if order > cap:
                raise CapExceededError(
                    f"line {line}, column {col}: table group order {order} exceeds cap {cap}"
                )
            table = []
            for r in islice(rows, order):
                row = r.split()
                if not (r.isascii() and all(map(str.isdigit, row))):
                    raise non_integer
                table.append(list(map(int, row)))
    except OSError as exc:
        raise ProblemFileError(f"cannot read table file {path}: {exc}", line) from None
    if len(table) != order or any(len(r) != order for r in table):
        raise ProblemFileError(f"table file {path} is not {order}x{order}", line)
    return table


# the keys each kind of section reads: a factor section by its type
_KEYS = {
    "cyclic": ("type", "generators"),
    "table": ("type", "generators", "relators"),
    "presentation": ("type", "generators", "relators", "cap"),
    "subgroup": ("generators",),
    "options": ("cap",),
}


def _factor_kind(sec: _Section) -> str:
    tvalue, tline, tcol = sec.require("type")
    kind = (tvalue.split() or [""])[0]
    if kind not in ("cyclic", "table", "presentation"):
        raise ProblemFileError(
            f"unknown factor type {kind!r} (expected cyclic, table or presentation)", tline, tcol
        )
    return kind


def _build_factor(sec: _Section, base: Path, cap: int) -> FiniteGroup:
    kind = _factor_kind(sec)
    tvalue, tline, tcol = sec.require("type")
    parts = tvalue.split()
    gvalue, gline, gcol = sec.require("generators")
    gen_items = _split_list(gvalue, gline, gcol)

    if kind == "cyclic":
        message = "expected 'cyclic N' with N a positive integer"
        n = _int_field(parts[1] if len(parts) == 2 else "", 1, message, tline, tcol)
        if len(gen_items) != 1:
            raise ProblemFileError("a cyclic factor takes exactly one generator", gline, gcol)
        if n > cap:
            raise CapExceededError(
                f"line {tline}, column {tcol}: cyclic group order {n} exceeds cap {cap}"
            )
        return make_cyclic(n, gen_items[0][0])

    if kind == "table":
        if len(parts) != 2:
            raise ProblemFileError("expected 'table FILE'", tline, tcol)
        table = _read_table_file(base / parts[1], tline, tcol, cap)
        gens = []
        for item, col in gen_items:
            name, sep, idx = item.partition(":")
            message = f"table generators need the form name:id, got {item!r}"
            gens.append((name.strip(), _int_field(idx.strip() if sep else "", 0, message, gline, col)))
        relators = _relators(sec, tuple(n for n, _ in gens))
        return FiniteGroup(table, gens, relators=relators, cap=cap)

    labels = tuple(item for item, _ in gen_items)   # a presentation
    own_cap = sec.get("cap")
    if own_cap is not None:
        cap = min(cap, _cap_value(own_cap))  # a section may lower the bound, not lift it
    return from_presentation(labels, _relators(sec, labels) or [], cap=cap)


@dataclass
class Problem:
    pair: FactorPair
    generators: tuple[Word, ...]


def _int_field(text: str, least: int, message: str, line: int, col: int) -> int:
    """The value of an ASCII decimal (``words.ascii_int``) of at least
    ``least``; anything else is an input error at the line and column."""
    value = ascii_int(text)
    if value is None or value < least:
        raise ProblemFileError(message, line, col)
    return value


def _cap_value(entry: tuple[str, int, int]) -> int:
    """The bound of a ``cap = N`` line: an integer of at least 1."""
    value, line, col = entry
    return _int_field(value, 1, "cap must be a positive integer", line, col)


def load_problem(path: str | Path, cap: int | None = None) -> Problem:
    if cap is not None and cap < 1:
        raise ProblemFileError(f"--cap must be a positive integer, got {cap}")
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    sections = _parse_sections(text)
    for required in ("factor1", "factor2"):
        if required not in sections:
            raise ProblemFileError(f"missing [{required}] section")
    extra = set(sections) - {"factor1", "factor2", "subgroup", "options"}
    if extra:
        sec = sections[sorted(extra)[0]]
        raise ProblemFileError(f"unknown section [{sec.name}]", sec.line)
    for name, sec in sections.items():   # a misspelt key is refused, not dropped
        kind = name if name in _KEYS else _factor_kind(sec)
        for key, kcol in sec.key_columns.items():
            if key not in _KEYS[kind]:
                allowed = ", ".join(_KEYS[kind])
                message = f"unknown key {key!r} in [{name}] ({kind} sections take {allowed})"
                raise ProblemFileError(message, sec.entries[key][1], kcol)

    if cap is None:   # --cap overrides [options]
        opt = sections.get("options")
        own = None if opt is None else opt.get("cap")
        cap = DEFAULT_CAP if own is None else _cap_value(own)

    # a factor that fails validation is reported at the entry at fault;
    # a label clash between the factors is blamed on the second one
    sec = sections["factor1"]
    try:
        g1 = _build_factor(sec, path.parent, cap)
        sec = sections["factor2"]
        pair = FactorPair(g1, _build_factor(sec, path.parent, cap))
    except GroupValidationError as exc:
        key = {RelatorError: "relators", GeneratorError: "generators"}.get(type(exc), "type")
        _, line, col = sec.require(key)
        raise ProblemFileError(str(exc), line, col) from None

    words: list[Word] = []
    sub = sections.get("subgroup")
    if sub is not None:
        got = sub.get("generators")
        if got is not None:
            value, line, col = got
            if value:
                items = _split_list(value, line, col)
                words = _parse_items(items, line, lambda w: parse_word(w, pair))
    return Problem(pair=pair, generators=tuple(words))


def _display(w: Word, pair: FactorPair) -> str:
    return render_word(w, pair) or "1"


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _certified(sg) -> int:
    """Exit code for a record built on ``sg``: EXIT_VERIFY, with the reason
    on stderr, unless it was certified as a reduced precover."""
    if sg.precover_ok and sg.reduced_ok:
        return EXIT_OK
    reason = sg.reason or (
        "the precover is not reduced" if sg.precover_ok else "the subgroup graph is not a precover"
    )
    print(f"certification failed: {reason}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_build(args) -> int:
    problem = load_problem(args.file, args.cap)
    sg = subgroup_graph(problem.generators, problem.pair)
    idx = index_if_finite(sg)
    lines = [
        f"vertices: {sg.vertex_count}",
        f"edges: {sg.edge_count}",
        f"components: {len(components(sg.graph))}",
        f"reduced: {'true' if sg.reduced_ok else 'false'}",
        f"index: {idx if idx is not None else 'infinite'}",
    ]
    if args.dot:
        Path(args.dot).write_text(to_dot(sg.graph, problem.pair))
    _emit(lines, args.out)
    return _certified(sg)


def cmd_member(args) -> int:
    problem = load_problem(args.file, args.cap)
    if args.word is None:
        raise ProblemFileError("member needs --word")
    try:
        w = parse_word(args.word, problem.pair)
    except WordSyntaxError as exc:
        raise ProblemFileError(f"in --word: {exc}") from None
    sg = subgroup_graph(problem.generators, problem.pair)
    nf = normalize(w, problem.pair)
    member = contains(sg, w)
    lines = [
        f"word: {args.word.strip() or '1'}",
        f"normal_form: {_display(normal_to_word(nf, problem.pair), problem.pair)}",
        f"member: {'true' if member else 'false'}",
    ]
    _emit(lines, args.out)
    return _certified(sg) or (EXIT_OK if member else EXIT_NONMEMBER)


def cmd_kurosh(args) -> int:
    problem = load_problem(args.file, args.cap)
    sg = subgroup_graph(problem.generators, problem.pair)
    if _certified(sg):
        return EXIT_VERIFY   # verification needs a certified graph to compare against
    d = decompose(sg)
    check = verify(d, sg)
    lines = [f"factors: {len(d.factors)}"]
    for k, f in enumerate(d.factors, start=1):
        nf_word = normal_to_word(f.conjugator_nf, problem.pair)
        lines.append(f"factor_{k}_index: {f.factor}")
        lines.append(f"factor_{k}_order: {f.order}")
        lines.append(f"factor_{k}_conjugator: {_display(nf_word, problem.pair)}")
    lines.append(f"free_rank: {d.free_rank}")
    for k, w in enumerate(d.free_basis, start=1):
        lines.append(f"basis_{k}: {_display(w, problem.pair)}")
    lines.append(f"verified: {'true' if check.ok else 'false'}")
    _emit(lines, args.out)
    if not check.ok:
        print(f"verification failed: {check.reason}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_present(args) -> int:
    problem = load_problem(args.file, args.cap)
    sg = subgroup_graph(problem.generators, problem.pair)
    try:
        d = decompose(sg)
    except InvariantError:
        if sg.precover_ok and sg.reduced_ok:
            raise
        return _certified(sg)   # an uncertified graph that cannot be decomposed
    pres = presentation(d, problem.pair)
    lines = [f"generators: {len(pres.generators)}"]
    for s in pres.generators:
        lines.append(f"generator {s}: {_display(pres.aliases[s], problem.pair)}")
    lines.append(f"relators: {len(pres.relators)}")
    for k, rel in enumerate(pres.relators, start=1):
        lines.append(f"relator_{k}: {format_symbol_word(rel)}")
    lines.append(f"fallback: {'true' if pres.fallback else 'false'}")
    _emit(lines, args.out)
    return _certified(sg)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeprod",
        description="Subgroup graphs, membership and Kurosh decompositions "
        "for free products of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file")
        p.add_argument("--out", help="write the record to this path instead of stdout")
        p.add_argument("--cap", type=int, help="element cap for factor construction")

    p_build = sub.add_parser("build", help="construct the subgroup graph")
    common(p_build)
    p_build.add_argument("--dot", help="write a DOT rendering to this path")
    p_build.set_defaults(func=cmd_build)

    p_member = sub.add_parser("member", help="decide membership of a word")
    common(p_member)
    p_member.add_argument("--word", required=True, help="word to test")
    p_member.set_defaults(func=cmd_member)

    p_kurosh = sub.add_parser("kurosh", help="compute a Kurosh decomposition")
    common(p_kurosh)
    p_kurosh.set_defaults(func=cmd_kurosh)

    p_present = sub.add_parser("present", help="compute a group presentation")
    common(p_present)
    p_present.set_defaults(func=cmd_present)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ProblemFileError, WordSyntaxError, GroupValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:   # a bug, not a non-member
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
