"""Tests of the benchmark itself: determinism, the checks, and the tracer.

Run with ``python -m pytest fpbench`` from the repository root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(tmp: Path, name: str, seed: int) -> dict[str, bytes]:
    work = gen.BUILDERS[name](seed)
    gen.write(work, tmp)
    return {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_same_files(tmp_path, name):
    first = _files(tmp_path / "a", name, 5)
    again = _files(tmp_path / "b", name, 5)
    other = _files(tmp_path / "c", name, 6)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_queries_are_one_member_per_three_of_one_length(name):
    work = gen.BUILDERS[name](7)
    members = [q for q in work.queries if q[2]]
    assert len(members) * 4 == len(work.queries)
    lengths = sorted(len(q[1]) for q in work.queries)
    assert all(len(set(lengths[i:i + 4])) == 1 for i in range(0, len(lengths), 4))
    assert lengths[0] >= gen.QUERY_LETTERS


def _runner(tmp_path, work):
    paths = gen.write(work, tmp_path)
    return worker.Runner(work, paths)


def _small_conjugates(seed):
    """The conjugates workload at a size a test can afford."""
    return gen.conjugates(seed, m=60, count=2)


def test_correct_answers_are_not_failures(tmp_path):
    runner = _runner(tmp_path, _small_conjugates(3))
    problems = runner.load_all()
    runner.pipeline_once(problems, min_s=0.0)
    runner.check_builds()
    runner.member_pass(runner.parsed_queries(problems))
    runner.cli_call(runner.work.cli[0])
    assert runner.tally.attempted > 0
    assert runner.tally.failed == 0, runner.tally.reasons


def test_corrupted_answers_are_counted(tmp_path):
    work = gen.large_factors(3)
    work.problems[0].expect_counts["edges"] += 1             # build record
    work.problems[1].expect_free_rank += 1                   # decompose answer
    pi, tokens, want = work.queries[0]
    work.queries[0] = (pi, tokens, not want)                 # membership answer
    cmd, pi, check = work.cli[0]
    work.cli[0] = (cmd, pi, {**check, "generators": check["generators"] + 1})
    runner = _runner(tmp_path, work)
    problems = runner.load_all()
    runner.pipeline_once(problems, min_s=0.0)
    runner.check_builds()
    runner.member_pass(runner.parsed_queries(problems))
    runner.cli_call(work.cli[0])
    t = runner.tally
    assert t.failed == 4, t.reasons
    assert 0 < t.failed / t.attempted < 1


def test_tracer_sees_calls_through_every_binding(tmp_path):
    runner = _runner(tmp_path, _small_conjugates(2))
    fp = runner.fp
    problems = runner.load_all()
    orig = fp.kurosh.component_is_cover
    tracer = Tracer()
    tracer.install()
    try:
        sg = fp.subgroup_graph(problems[0].generators, problems[0].pair)
        fp.decompose(sg)
    finally:
        tracer.uninstall()
    assert fp.kurosh.component_is_cover is orig
    s = tracer.summary()
    under_mcc = [i for i, span in enumerate(tracer.spans)
                 if span[0] == "precover.component_is_cover"
                 and tracer.parent_name(i) == "kurosh.mcc"]
    assert under_mcc
    assert s["kurosh.decompose"]["calls"] == 1
    for row in s.values():
        assert 0 <= row["self_s"] <= row["incl_s"] + 1e-9


def test_tail_and_slope():
    assert worker.tail([1.0, 2.0, 3.0]) == (3.0, "max")
    values = [float(i) for i in range(1, 101)]
    assert worker.tail(values) == (90.0, "p90")
    assert worker.slope([1, 2, 4], [3, 12, 48]) == pytest.approx(2.0)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "fpbench", tmp_path / "fpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "fpbench/run.py", "--workload", "conjugates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
