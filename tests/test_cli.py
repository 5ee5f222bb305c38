import dataclasses

import pytest

import freeprod.cli
from freeprod.cli import main
from freeprod.lgraph import InvariantError
from freeprod.precover import Verdict
from freeprod.words import Letter

from helpers import reference_certify

PSL2_FILE = """\
[factor1]
type = cyclic 2
generators = a

[factor2]
type = cyclic 3
generators = b

[subgroup]
generators = a b a^-1 b^-1, b a b a b a
"""


@pytest.fixture
def psl2_file(tmp_path):
    p = tmp_path / "psl2.fp"
    p.write_text(PSL2_FILE)
    return p


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_summary(psl2_file, capsys):
    code, out, _ = _run(capsys, "build", psl2_file)
    assert code == 0
    assert out.splitlines() == [
        "vertices: 6",
        "edges: 11",
        "components: 5",
        "reduced: true",
        "index: infinite",
    ]


def test_build_empty_subgroup(tmp_path, capsys):
    p = tmp_path / "empty.fp"
    p.write_text(PSL2_FILE.split("[subgroup]")[0])
    code, out, _ = _run(capsys, "build", p)
    assert code == 0
    assert "vertices: 1" in out and "edges: 0" in out


def test_build_writes_dot(psl2_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = _run(capsys, "build", psl2_file, "--dot", dot)
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("shape=") == 6
    assert 'label="a"' in text and 'label="b"' in text


def test_build_deterministic(psl2_file, capsys):
    _, out1, _ = _run(capsys, "build", psl2_file)
    _, out2, _ = _run(capsys, "build", psl2_file)
    assert out1 == out2


def test_member_true_and_false(psl2_file, capsys):
    code, out, _ = _run(capsys, "member", psl2_file, "--word", "a b a^-1 b^-1")
    assert code == 0
    assert "member: true" in out
    assert "normal_form: a b a b^-1" in out

    code, out, _ = _run(capsys, "member", psl2_file, "--word", "b")
    assert code == 1
    assert "member: false" in out

    code, out, _ = _run(capsys, "member", psl2_file, "--word", "")
    assert code == 0
    assert "word: 1" in out and "member: true" in out


def test_member_bad_word(psl2_file, capsys):
    code, _, err = _run(capsys, "member", psl2_file, "--word", "q")
    assert code == 2
    assert "unknown generator" in err


def test_kurosh_record(psl2_file, capsys):
    code, out, _ = _run(capsys, "kurosh", psl2_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factors: 1"
    assert "factor_1_index: 1" in lines
    assert "factor_1_order: 2" in lines
    assert "factor_1_conjugator: a b^-1" in lines
    assert "free_rank: 1" in lines
    assert lines[-1] == "verified: true"


def test_present_record(psl2_file, capsys):
    code, out, _ = _run(capsys, "present", psl2_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators: 2"
    assert "relators: 1" in lines
    assert "relator_1: e2^2" in lines
    assert "fallback: false" in lines


def test_unknown_generator_in_file(tmp_path, capsys):
    p = tmp_path / "bad.fp"
    p.write_text(PSL2_FILE.replace("a b a^-1 b^-1", "a c"))
    code, _, err = _run(capsys, "build", p)
    assert code == 2
    assert "line 10, column 16" in err and "unknown generator" in err


def test_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.fp"
    p.write_text("generators = a\n")
    code, _, err = _run(capsys, "build", p)
    assert code == 2
    assert "line 1" in err


def test_cap_exceeded(tmp_path, capsys):
    p = tmp_path / "free.fp"
    p.write_text(
        """\
[factor1]
type = presentation
generators = a

[factor2]
type = cyclic 3
generators = b
"""
    )
    code, _, err = _run(capsys, "build", p, "--cap", "32")
    assert code == 3
    assert "cap" in err


def test_cyclic_factor_over_cap(tmp_path, capsys):
    p = tmp_path / "big.fp"
    p.write_text(PSL2_FILE.replace("cyclic 3", "cyclic 300"))
    code, out, err = _run(capsys, "build", p, "--cap", "10")
    assert code == 3
    assert out == ""
    assert "line 6" in err and "exceeds cap 10" in err


KLEIN_FILE = PSL2_FILE.replace("cyclic 2\ngenerators = a", "table klein.tbl\ngenerators = a:1, c:2")


def test_table_factor_over_cap(tmp_path, capsys):
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    table = tmp_path / "klein.tbl"
    table.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    p = tmp_path / "klein.fp"
    p.write_text(KLEIN_FILE)
    code, out, err = _run(capsys, "build", p, "--cap", "2")
    assert code == 3
    assert out == ""
    assert "line 2" in err and "order 4 exceeds cap 2" in err
    # the order line alone decides: the block after it is never parsed
    table.write_text("4\nnot a table\n")
    code, _, err = _run(capsys, "build", p, "--cap", "2")
    assert code == 3 and "exceeds cap 2" in err
    code, _, err = _run(capsys, "build", p)
    assert code == 2 and "non-integer" in err


S3_FILE = """\
[factor1]
type = presentation
generators = s, t
relators = s^2, t^3, s t s t
cap = 64

[factor2]
type = cyclic 2
generators = c

[subgroup]
generators = s c
"""


def test_section_cap_cannot_lift_the_bound(tmp_path, capsys):
    p = tmp_path / "s3.fp"
    p.write_text(S3_FILE)
    code, out, err = _run(capsys, "build", p, "--cap", "2")
    assert code == 3 and out == ""
    assert "cap 2" in err
    # under a larger bound the section's own cap still applies
    p.write_text(S3_FILE.replace("cap = 64", "cap = 4"))
    code, _, err = _run(capsys, "build", p, "--cap", "64")
    assert code == 3 and "cap 4" in err
    p.write_text(S3_FILE)
    code, _, _ = _run(capsys, "build", p, "--cap", "64")
    assert code == 0


@pytest.mark.parametrize(
    "old, new, argv, where",
    [
        ("cap = 64", "cap = 0", (), "line 5, column 7"),
        ("cap = 64", "cap = x", (), "line 5, column 7"),
        ("cap = 64", "cap = \u00b2", (), "line 5, column 7"),
        ("[factor2]", "[options]\ncap = 0\n\n[factor2]", (), "line 8, column 7"),
        ("", "", ("--cap", "0"), "--cap"),
        ("", "", ("--cap", "-3"), "--cap"),
    ],
)
def test_cap_below_one_is_an_input_error(tmp_path, capsys, old, new, argv, where):
    # the same check for a presentation section's cap and [options]' cap,
    # with line and column; --cap below 1 is refused before anything is read
    p = tmp_path / "s3.fp"
    p.write_text(S3_FILE.replace(old, new) if old else S3_FILE)
    code, out, err = _run(capsys, "build", p, *argv)
    assert code == 2 and out == ""
    assert "must be a positive integer" in err and where in err


@pytest.mark.parametrize(
    "old, new, where, message",
    [
        ("cyclic 3", "cyclic \u00b3", "line 6, column 8", "expected 'cyclic N'"),
        ("cyclic 3", "cyclic " + "9" * 5000, "line 6, column 8", "expected 'cyclic N'"),
        ("cyclic 3", "cyclic 0", "line 6, column 8", "N a positive integer"),
        ("a:1", "a:\u00b9", "line 3, column 14", "name:id"),
        ("c:2", "c:\u00b2", "line 3, column 19", "name:id"),
        ("c:2", "c 2", "line 3, column 19", "name:id"),
    ],
    ids=["superscript-order", "huge-order", "zero-order", "superscript-id", "second-id", "no-colon"],
)
def test_factor_integers_are_ascii_digits(tmp_path, capsys, old, new, where, message):
    # ``cyclic N`` and a table generator's ``name:id`` follow the cap's
    # integer rule: a superscript digit, an unconvertible number or an
    # order below 1 is an input error with line and column, not a traceback
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    (tmp_path / "klein.tbl").write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    p = tmp_path / "klein.fp"
    p.write_text(KLEIN_FILE.replace(old, new))
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: ") and message in err


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("b a b a b a", "b a b^\u0661", "line 10, column 33"),
        ("a b a^-1 b^-1", "a b^1_0", "line 10, column 16"),
        ("type = cyclic 3", "type = presentation\nrelators = b^\u0663", "line 7, column 12"),
    ],
    ids=["arabic-indic", "underscore", "relator"],
)
def test_exponents_are_ascii_digits(tmp_path, capsys, old, new, where):
    # an exponent is an optional sign and ASCII digits, in subgroup words
    # and relators alike; anything else is reported at its token
    p = tmp_path / "psl2.fp"
    p.write_text(PSL2_FILE.replace(old, new))
    code, out, err = _run(capsys, "kurosh", p)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: malformed exponent in ")


def test_member_word_exponent_is_ascii_digits(psl2_file, capsys):
    code, out, err = _run(capsys, "member", psl2_file, "--word", "a^\u0663")
    assert code == 2 and out == ""
    assert err.startswith("error: in --word: malformed exponent in ")


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("generators = a\n", "generators = a^2\n", "line 3, column 14"),
        ("generators = a\n", "generators = x y\n", "line 3, column 14"),
        ("type = cyclic 3\ngenerators = b", "type = presentation\ngenerators = b c, d",
         "line 7, column 14"),
    ],
    ids=["power", "two-tokens", "presentation"],
)
def test_labels_no_word_can_name_are_refused(tmp_path, capsys, old, new, where):
    # an unnameable label is an input error at its section's generators
    # entry, also before a presentation's enumeration could run into the cap
    p = tmp_path / "psl2.fp"
    p.write_text(PSL2_FILE.split("[subgroup]")[0].replace(old, new))
    for command in ("build", "present"):
        code, out, err = _run(capsys, command, p)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {where}: generator label ") and "is not a word token" in err


@pytest.mark.parametrize(
    "base, old, new, where, message",
    [
        (PSL2_FILE, "type = cyclic 3\ngenerators = b",
         "type = presentation\ngenerators = b, b\nrelators = b^2",
         "line 7, column 14", "generator labels are not pairwise distinct"),
        (PSL2_FILE, "generators = b\n", "generators = a\n",
         "line 7, column 14", "factor generator labels are not disjoint: ['a']"),
        (KLEIN_FILE, "c:2", "c:0", "line 3, column 14", "generator 'c' maps to the identity"),
        (KLEIN_FILE, "c:2", "c:2\nrelators = a c", "line 4, column 12", "does not hold in the group"),
        (KLEIN_FILE, "klein.tbl", "bad.tbl", "line 2, column 8", "table has no two-sided identity"),
    ],
    ids=["duplicate-labels", "label-clash", "identity-image", "false-relator", "table"],
)
def test_factor_validation_errors_name_their_entry(tmp_path, capsys, base, old, new, where, message):
    # a factor that fails validation is an input error at the line and
    # column of the entry at fault: a duplicate presentation label exits 2
    # before any enumeration, and a label clash blames the second factor
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    (tmp_path / "klein.tbl").write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    rows[0][0] = 1
    (tmp_path / "bad.tbl").write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    p = tmp_path / "factor.fp"
    p.write_text(base.replace(old, new))
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: ") and message in err


@pytest.mark.parametrize(
    "base, old, new, where, key",
    [
        (PSL2_FILE, "generators = a\n", "generators = a\ngenerator = q\n", "line 4, column 1", "generator"),
        (PSL2_FILE, "generators = a\n", "generators = a\nrelators = a^2\n", "line 4, column 1", "relators"),
        (KLEIN_FILE, "c:2\n", "c:2\ncap = 64\n", "line 4, column 1", "cap"),
        (PSL2_FILE, "type = cyclic 3\ngenerators = b\n",
         "type = presentation\ngenerators = b\nrelator = b^3\n", "line 8, column 1", "relator"),
        (PSL2_FILE, "b a b a b a\n", "b a b a b a\n  foo = 1\n", "line 11, column 3", "foo"),
        (PSL2_FILE, "b a b a b a\n", "b a b a b a\n\n[options]\nbar = 2\n", "line 13, column 1", "bar"),
    ],
    ids=["cyclic", "cyclic-relators", "table", "presentation", "subgroup", "options"],
)
def test_keys_a_section_does_not_read_are_refused(
    tmp_path, capsys, monkeypatch, base, old, new, where, key
):
    # a misspelt key is an input error at its line and column, found
    # before any factor is built: 'relator = b^3' used to leave an
    # unrelated presentation that ran into the enumeration cap
    monkeypatch.setattr(freeprod.cli, "_build_factor", lambda *a: pytest.fail("factor built"))
    p = tmp_path / "keys.fp"
    p.write_text(base.replace(old, new))
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: unknown key {key!r} in ["), err


@pytest.mark.parametrize("entry", ["\u0660", "1_0", "+1", "-1", "\uff11"])
def test_table_entries_are_ascii_digits(tmp_path, capsys, entry):
    # a table entry is ASCII digits: int() would read an Arabic-Indic zero
    # as 0 and 1_0 as 10, and the build would go on with a table never given
    rows = [[str(i ^ j) for j in range(4)] for i in range(4)]
    rows[3][0] = entry
    (tmp_path / "klein.tbl").write_text("4\n" + "\n".join(" ".join(r) for r in rows))
    p = tmp_path / "klein.fp"
    p.write_text(KLEIN_FILE)
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert "line 2: table file" in err and "has non-integer entries" in err


def test_kurosh_failed_verification(psl2_file, capsys, monkeypatch):
    monkeypatch.setattr(
        freeprod.cli, "verify", lambda d, sg: Verdict(False, "rebuilt graph differs")
    )
    code, out, err = _run(capsys, "kurosh", psl2_file)
    assert code == 4
    assert "rebuilt graph differs" in err
    assert out.splitlines()[-1] == "verified: false"


# extra arguments per command; a generator, so that the certified answer is "member: true"
_ARGV = {"member": ["--word", "a b a^-1 b^-1"]}


@pytest.mark.parametrize("flag", ["precover_ok", "reduced_ok"])
@pytest.mark.parametrize("command", ["build", "present", "member", "kurosh"])
def test_uncertified_graph_exits_4(psl2_file, capsys, monkeypatch, command, flag):
    argv = [command, psl2_file, *_ARGV.get(command, [])]
    code, record, _ = _run(capsys, *argv)
    assert code == 0
    real = freeprod.cli.subgroup_graph
    monkeypatch.setattr(
        freeprod.cli,
        "subgroup_graph",
        lambda gens, pair: dataclasses.replace(real(gens, pair), **{flag: False}),
    )
    monkeypatch.setattr(freeprod.cli, "verify", lambda d, sg: pytest.fail("verify ran"))
    code, out, err = _run(capsys, *argv)
    assert code == 4
    if command == "build" and flag == "reduced_ok":
        record = record.replace("reduced: true", "reduced: false")  # the record shows the flag
    if command == "kurosh":
        record = ""   # kurosh neither decomposes nor verifies an uncertified graph
    assert out == record
    assert len(err.splitlines()) == 1 and err.startswith("certification failed: ")


def test_present_refuses_an_unreachable_cover(psl2_file, capsys, monkeypatch):
    # a detached b-triangle is a cover that no tree word reaches: decompose
    # stops with an InvariantError, and present reports the certification
    real = freeprod.cli.subgroup_graph

    def detached(gens, pair):
        sg = real(gens, pair)
        g = sg.graph.copy()
        u, v, w = (g.add_vertex() for _ in range(3))
        for x, y in ((u, v), (v, w), (w, u)):
            g.add_edge(x, y, Letter(2, 0, 1))
        ok, verdict = reference_certify(g, g.basepoint, pair)
        return dataclasses.replace(sg, graph=g, precover_ok=ok, reason=verdict.reason)

    monkeypatch.setattr(freeprod.cli, "subgroup_graph", detached)
    code, out, err = _run(capsys, "present", psl2_file)
    assert code == 4 and out == ""
    assert err == "certification failed: graph is not connected\n"


_UNSATURATED = "component 0 (factor 1) is not saturated: vertex 1 has no edge labelled a"


@pytest.mark.parametrize(
    "command, stage, generators, reason",
    [
        ("build", "saturate", "a b a^-1 b^-1, b a b a b a", _UNSATURATED),
        ("present", "saturate", "a b a^-1 b^-1, b a b a b a", _UNSATURATED),
        ("kurosh", "saturate", "a b a^-1 b^-1, b a b a b a", _UNSATURATED),
        ("member", "saturate", "a b a^-1 b^-1, b a b a b a", _UNSATURATED),
        ("build", "prune_redundant", "b^3",
         "whole graph is a lone factor Cayley graph; it collapses to the basepoint"),
        ("present", "prune_redundant", "b^3",
         "whole graph is a lone factor Cayley graph; it collapses to the basepoint"),
    ],
)
def test_certification_failure_names_the_reason(
    tmp_path, capsys, monkeypatch, command, stage, generators, reason
):
    # skipping a pipeline stage leaves a graph that really fails certification
    monkeypatch.setattr(freeprod.precover, stage, lambda g, *rest: g)
    p = tmp_path / "skip.fp"
    p.write_text(PSL2_FILE.replace("a b a^-1 b^-1, b a b a b a", generators))
    code, out, err = _run(capsys, command, p, *_ARGV.get(command, []))
    assert err == f"certification failed: {reason}\n"
    assert code == 4
    if command == "kurosh" or (command == "present" and stage == "saturate"):
        assert out == ""   # decompose refuses the unsaturated graph; kurosh does not try
    else:
        assert out
    if command == "member":
        assert "member: false" in out   # a generator, wrongly refused by the uncertified graph


@pytest.mark.parametrize(
    "command, stage",
    [("build", "subgroup_graph"), ("member", "contains"), ("kurosh", "decompose"), ("present", "decompose")],
)
def test_an_internal_error_exits_4(psl2_file, capsys, monkeypatch, command, stage):
    # a failed invariant is a bug: one stderr line and exit 4, never the
    # non-member code 1 or a traceback
    def broken(*args):
        raise InvariantError("broken on purpose")

    monkeypatch.setattr(freeprod.cli, stage, broken)
    code, out, err = _run(capsys, command, psl2_file, *_ARGV.get(command, []))
    assert (code, out, err) == (4, "", "internal error: broken on purpose\n")


def test_huge_power_in_a_subgroup_generator(tmp_path, capsys):
    p = tmp_path / "huge.fp"
    p.write_text(PSL2_FILE.replace("b a b a b a", "b a^100000000000"))
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert "line 10, column 31" in err and "longer than" in err


def test_huge_power_in_a_relator(tmp_path, capsys):
    p = tmp_path / "huge.fp"
    p.write_text(S3_FILE.replace("t^3", "t^100000000000"))
    code, out, err = _run(capsys, "build", p)
    assert code == 2 and out == ""
    assert "line 4, column 17" in err and "longer than" in err


def test_table_factor(tmp_path, capsys):
    table = tmp_path / "klein.tbl"
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    table.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    p = tmp_path / "klein.fp"
    p.write_text(
        """\
[factor1]
type = table klein.tbl
generators = u:1, v:2

[factor2]
type = cyclic 3
generators = b

[subgroup]
generators = u, v
"""
    )
    code, out, _ = _run(capsys, "build", p)
    assert code == 0
    assert "vertices: 1" in out

    code, out, _ = _run(capsys, "present", p)
    assert code == 0
    assert "fallback: true" in out  # table factors carry no relators


def test_presentation_factor(tmp_path, capsys):
    p = tmp_path / "s3.fp"
    p.write_text(
        """\
[factor1]
type = presentation
generators = s, t
relators = s^2, t^3, s t s t
cap = 64

[factor2]
type = cyclic 2
generators = c

[subgroup]
generators = s c
"""
    )
    code, out, _ = _run(capsys, "member", p, "--word", "s c s c")
    assert code == 0 and "member: true" in out


def test_out_file(psl2_file, tmp_path, capsys):
    target = tmp_path / "record.txt"
    code, out, _ = _run(capsys, "build", psl2_file, "--out", target)
    assert code == 0 and out == ""
    assert "vertices: 6" in target.read_text()


def test_kurosh_whole_group(tmp_path, capsys):
    p = tmp_path / "whole.fp"
    p.write_text(PSL2_FILE.replace("a b a^-1 b^-1, b a b a b a", "a, b"))
    code, out, _ = _run(capsys, "kurosh", p)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factors: 2"
    orders = sorted(int(l.split()[-1]) for l in lines if "_order:" in l)
    assert orders == [2, 3]
    assert "free_rank: 0" in lines
    assert lines[-1] == "verified: true"


def test_present_cube_relator(tmp_path, capsys):
    p = tmp_path / "b.fp"
    p.write_text(PSL2_FILE.replace("a b a^-1 b^-1, b a b a b a", "b"))
    code, out, _ = _run(capsys, "present", p)
    assert code == 0
    assert "generators: 1" in out
    assert "relator_1: e1^3" in out


def test_all_commands_deterministic(psl2_file, capsys):
    for cmd, extra in [
        ("build", []),
        ("member", ["--word", "a b"]),
        ("kurosh", []),
        ("present", []),
    ]:
        _, out1, _ = _run(capsys, cmd, psl2_file, *extra)
        _, out2, _ = _run(capsys, cmd, psl2_file, *extra)
        assert out1 == out2, cmd


def test_table_factor_with_relators(tmp_path, capsys):
    table = tmp_path / "klein.tbl"
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    table.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    p = tmp_path / "klein_rel.fp"
    p.write_text(
        """\
[factor1]
type = table klein.tbl
generators = u:1, v:2
relators = u^2, v^2, u v u^-1 v^-1

[factor2]
type = cyclic 3
generators = b

[subgroup]
generators = u
"""
    )
    code, out, _ = _run(capsys, "present", p)
    assert code == 0
    assert "fallback: false" in out
    assert "relator_1: e1^2" in out
