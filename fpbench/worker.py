"""Run one freeprod benchmark workload in this interpreter.

Called by ``run.py``, once per process: every benchmark run is a fresh
interpreter, so peak memory and import costs never leak between workloads.
Generates the workload's problem files from the seed, times the library and
the CLI on them, and checks every answer against the generator's reference.

Untraced run (``--trace 0``): samples of four phases until ``--seconds``
have passed, the next always of the phase furthest below its share of the
time (SHARES):

   - set-up: ``cli.load_problem`` on every problem file, repeated for
     SETUP_MIN_S,
   - a pipeline pass: ``subgroup_graph``, ``decompose``, ``verify`` and
     ``presentation`` on every problem, each repeated for OP_MIN_S,
   - a membership pass: a closed loop, one caller, ``contains`` on every
     seeded query once, with no garbage collected between queries,
   - a CLI sample, cycling through the workload's calls: the fastest of
     CLI_TRIES back-to-back ``freeprod`` child processes, strictly one at a
     time (on this kind of machine a call's wall time is bimodal).

Each phase's samples alternate between the CPUs the process may use.  The
speed of a shared machine swings by half within seconds, and of one CPU
against another for tens of seconds; interference only ever adds time, so a
library timing is the best sample of the run: ``setup_s`` is the fastest
load, and a stage time is the sum over the problems of each one's fastest
call.  Membership passes are the exception: on a shared 2-vCPU machine the
fastest of some twenty-five passes spread by up to a quarter over ten runs,
their median by under a tenth.  So ``member_qps`` is the median over the passes of each one's rate (queries
over the pass's wall time, so pauses inside the pass count), and
``member_p50_us`` and ``member_tail_us`` are the medians over the passes of
each one's median and tail.  The CLI figures are the median and tail over
the samples.

Traced run (``--trace 1``): untraced and traced passes of the same
operations, alternating (the records must be equal), the interpreter and
import floor of the CLI, and log-log slopes over a small size ladder.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from freeprod.cli import main; sys.exit(main())"

SETUP_MIN_S = 0.05      # repeat a cheap load within one set-up sample
OP_MIN_S = 0.05         # repeat a cheap pipeline operation within one sample
# share of a run's time spent on each phase's samples
SHARES = {"setup": 0.1, "pipeline": 0.55, "member": 0.15, "cli": 0.2}
CLI_TRIES = 2           # back-to-back invocations per CLI sample
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0)
TRACE_QUERIES = 200
# a build inside these is a rebuild, not one of the workload's builds
REBUILDERS = {"kurosh.verify", "precover.subgroup_graph"}
CONJUGATES_LADDER = (200, 400, 800)   # total letters m
RANDOM_WORDS_LADDER = (2, 4, 8)       # random words of length 200


# -- statistics -------------------------------------------------------------


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least 10 samples beyond it.

    With fewer than 40 samples no ladder percentile qualifies, and the
    maximum is reported instead.
    """
    s = sorted(values)
    best = None
    for p in TAIL_LADDER:
        if len(s) - rank(p, len(s)) >= 10:
            best = p
    if best is None:
        return s[-1], "max"
    return percentile(s, best), f"p{best:g}"


def timed(fn, *args, min_s: float = OP_MIN_S):
    """(result, fastest call): calls ``fn`` until ``min_s`` has passed and
    returns the shortest single call, so that cheap operations get many
    samples.  Collects garbage first, so no call pays for earlier ones."""
    gc.collect()
    best = math.inf
    t_end = time.perf_counter() + min_s
    while True:
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
        if t1 >= t_end:
            return result, best


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# -- checks -------------------------------------------------------------------


class Tally:
    """Attempted and failed operations; a failure is recorded with a reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


def factor_list(d) -> list[tuple[int, int]]:
    return sorted((f.factor, f.order) for f in d.factors)


def build_ok(prob: gen.Problem, rec: dict) -> bool:
    """A build is right when it is certified, every input generator is a
    member and, where the construction fixes them, its counts match."""
    if not (rec["precover_ok"] and rec["reduced_ok"]):
        return False
    if prob.expect_counts is not None:
        if {k: rec[k] for k in prob.expect_counts} != prob.expect_counts:
            return False
    return rec["members"]


def decompose_ok(prob: gen.Problem, d) -> bool:
    if prob.expect_factors is not None and factor_list(d) != sorted(prob.expect_factors):
        return False
    return prob.expect_free_rank is None or d.free_rank == prob.expect_free_rank


def parse_record(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_cli_output(call, code: int, out: str) -> bool:
    check = call[2]
    if code != 0:
        return False
    rec = parse_record(out)
    kind = check["kind"]
    if kind == "kurosh":
        rank = check["free_rank"]
        factors = sorted(tuple(f) for f in check["factors"])
        k = int(rec.get("factors", -1))
        got = sorted(
            (int(rec.get(f"factor_{j}_index", 0)), int(rec.get(f"factor_{j}_order", 0)))
            for j in range(1, k + 1)
        )
        return (
            got == factors
            and all(f"factor_{j}_conjugator" in rec for j in range(1, k + 1))
            and int(rec.get("free_rank", -1)) == rank
            and sum(1 for key in rec if key.startswith("basis_")) == rank
            and rec.get("verified") == "true"
            and len(out.splitlines()) == 3 + 3 * k + rank
        )
    if kind == "present":
        n = check["generators"]
        return (
            int(rec.get("generators", -1)) == n
            and sum(1 for key in rec if key.startswith("generator ")) == n
            and rec.get("fallback") == "false"
        )
    raise ValueError(f"unknown check kind {kind}")


# -- the workload ---------------------------------------------------------------


class Runner:
    def __init__(self, work: gen.Workload, paths: list[Path]):
        self.work = work
        self.paths = paths
        self.tally = Tally()
        import freeprod
        from freeprod import cli

        self.fp = freeprod
        self.cli = cli

    # set-up ---------------------------------------------------------------

    def load_all(self):
        return [self.cli.load_problem(p) for p in self.paths]

    # pipeline -------------------------------------------------------------

    def pipeline_once(self, problems, min_s: float = OP_MIN_S):
        """One pass over every problem: {(operation, problem): seconds} and
        records.  ``min_s=0`` calls each operation exactly once (the traced
        pass).  The builds are checked by ``check_builds``."""
        fp = self.fp
        times = {}
        records = []
        graphs = {}
        for pi, prob in enumerate(problems):
            sg, dt = timed(fp.subgroup_graph, prob.generators, prob.pair, min_s=min_s)
            times["build", pi] = dt
            graphs[pi] = sg
        for pi, sg in graphs.items():
            d, dt = timed(fp.decompose, sg, min_s=min_s)
            times["decompose", pi] = dt
            verdict, dt = timed(fp.verify, d, sg, min_s=min_s)
            times["verify", pi] = dt
            pres, dt = timed(fp.presentation, d, sg.pair, min_s=min_s)
            times["present", pi] = dt
            ref = self.work.problems[pi]
            self.tally.check(decompose_ok(ref, d), f"decompose on problem {pi}: "
                             f"factors {factor_list(d)}, free rank {d.free_rank}")
            self.tally.check(verdict.ok, f"verify on problem {pi}: {verdict.reason}")
            self.tally.check(
                not pres.fallback
                and len(pres.generators) == gen.schreier_generators(ref, factor_list(d), d.free_rank),
                f"present on problem {pi}: {len(pres.generators)} generators")
            records.append((
                pi,
                [(f.factor, f.order, f.conjugator, tuple(sorted(f.subgroup))) for f in d.factors],
                d.free_basis,
                pres.generators,
                pres.relators,
                verdict.ok,
                fp.index_if_finite(sg),   # reported by ``freeprod build``
            ))
        self.graphs = graphs
        return times, records

    def check_builds(self) -> list:
        """Check the last pass's builds: their counts, and that every input
        generator is a member.  Not part of any timed or traced window."""
        fp = self.fp
        records = []
        for pi, sg in self.graphs.items():
            rec = {
                "vertices": sg.vertex_count,
                "edges": sg.edge_count,
                "precover_ok": sg.precover_ok,
                "reduced_ok": sg.reduced_ok,
                "components": len(fp.components(sg.graph)),
                "members": all(fp.contains(sg, w) for w in sg.generators),
            }
            self.tally.check(build_ok(self.work.problems[pi], rec),
                             f"build on problem {pi}: {rec}")
            records.append((pi, sorted(rec.items())))
        return records

    # membership -------------------------------------------------------------

    def parsed_queries(self, problems, limit: int | None = None):
        out = []
        for pi, tokens, want in self.work.queries:
            if len(out) == limit:
                break
            word = self.fp.parse_word(gen.render_tokens(tokens), problems[pi].pair)
            out.append((self.graphs[pi], word, want))
        return out

    def member_pass(self, queries):
        """One closed-loop pass over every query: (latencies, seconds, answers).
        Whole passes keep members and non-members in the same proportion.
        No garbage is collected in between: pauses ``contains`` causes count."""
        contains = self.fp.contains
        lat = []
        answers = []
        t_start = time.perf_counter()
        for sg, word, want in queries:
            t0 = time.perf_counter()
            got = contains(sg, word)
            lat.append(time.perf_counter() - t0)
            answers.append(got)
            self.tally.check(got == want, f"contains answered {got}, expected {want}")
        return lat, time.perf_counter() - t_start, answers

    # CLI ----------------------------------------------------------------------

    def cli_call(self, call) -> float:
        """Run one ``freeprod`` child process, check it, return its wall time."""
        cmd, pi, _ = call
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        argv = [sys.executable, "-c", CLI_ENTRY, cmd, str(self.paths[pi])]
        gc.collect()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=150, cwd=ROOT)
        wall = time.perf_counter() - t0
        ok = check_cli_output(call, proc.returncode, proc.stdout)
        self.tally.check(ok, f"cli {cmd} on problem {pi}: exit "
                         f"{proc.returncode}, {proc.stdout[:200]!r} {proc.stderr[-300:]!r}")
        return wall

    def cli_sample(self, call) -> float:
        """The fastest of CLI_TRIES back-to-back invocations of one call."""
        return min(self.cli_call(call) for _ in range(CLI_TRIES))


# -- untraced run -------------------------------------------------------------------


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """The untraced run described in the module docstring.  Choosing the
    phase by its share of the time spent, not in fixed rounds, keeps every
    metric sampled all through the run whatever its operations cost."""
    problems = runner.load_all()
    runner.pipeline_once(problems, min_s=0.0)
    runner.check_builds()
    queries = runner.parsed_queries(problems)
    setup, wall, rates, pass_p50, pass_tail = [], [], [], [], []
    best: dict[tuple[str, int], float] = {}
    calls = runner.work.cli
    passes = 0

    def sample(phase: str) -> None:
        nonlocal passes
        if phase == "setup":
            setup.append(timed(runner.load_all, min_s=SETUP_MIN_S)[1])
        elif phase == "pipeline":
            for key, dt in runner.pipeline_once(problems)[0].items():
                best[key] = min(dt, best.get(key, math.inf))
            passes += 1
        elif phase == "member":
            gc.collect()
            got, dt, _ = runner.member_pass(queries)
            rates.append(len(got) / dt)
            us = [x * 1e6 for x in got]
            pass_p50.append(statistics.median(us))
            pass_tail.append(tail(us))
        else:
            wall.append(runner.cli_sample(calls[len(wall) % len(calls)]))

    # Each phase's samples alternate between the CPUs this process may use:
    # on a shared host one CPU can run slower than another for tens of
    # seconds, and the best sample should not depend on where the run landed.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    spent = dict.fromkeys(SHARES, 0.0)
    count = dict.fromkeys(SHARES, 0)
    t_start = time.perf_counter()
    try:
        while min(spent.values()) == 0.0 or time.perf_counter() - t_start < seconds:
            phase = min(SHARES, key=lambda k: spent[k] / SHARES[k])
            os.sched_setaffinity(0, {cpus[count[phase] % len(cpus)]})
            count[phase] += 1
            t0 = time.perf_counter()
            sample(phase)
            spent[phase] += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, allowed)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    cli_tail, cli_tail_p = tail(wall)

    def stage(op):
        return sum(dt for (name, _), dt in best.items() if name == op)

    metrics = {
        "setup_s": (min(setup), "s"),
        "build_s": (stage("build"), "s"),
        "decompose_s": (stage("decompose"), "s"),
        "verify_s": (stage("verify"), "s"),
        "present_s": (stage("present"), "s"),
        "member_qps": (statistics.median(rates), "1/s"),
        "member_p50_us": (statistics.median(pass_p50), "us"),
        "member_tail_us": (statistics.median(t for t, _ in pass_tail), "us"),
        "cli_p50_s": (statistics.median(wall), "s"),
        "cli_tail_s": (cli_tail, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    detail = {
        "seconds_per_phase": spent,
        "setup_samples": len(setup),
        "setup_median_s": statistics.median(setup),
        "pipeline_passes": passes,
        "member_queries_per_pass": len(queries),
        "member_passes": len(rates),
        "member_qps_best": max(rates),
        "member_tail_percentile": pass_tail[0][1],
        "cli_samples": len(wall),
        "cli_tail_percentile": cli_tail_p,
        "cli_child_peak_rss_mb": child_rss,
    }
    return metrics, detail


# -- traced run -------------------------------------------------------------------


def install_hooks(tracer: Tracer, fp) -> None:
    """Counters measured where the work happens (see the per-layer list)."""
    components = fp.lgraph.components  # captured before wrapping

    def parse_word(t, args, result):
        t.counts["words.parse_word.letters"] += len(result)

    def copy(t, args, result):
        t.counts["lgraph.copy.vertices"] += len(args[0]._parent)

    def prune(t, args, result):
        t.counts["precover.prune_redundant.victims"] += (
            len(components(args[0])) - len(components(result))
        )

    def build(t, args, result):
        if t.current() == "kurosh.verify":
            t.counts["kurosh.verify.rebuild_letters"] += sum(len(w) for w in args[0])
        elif not t.open_names() & REBUILDERS:
            t.counts["precover.subgroup_graph.components"] += len(components(result.graph))

    tracer.hooks.update({
        "words.parse_word": parse_word,
        "lgraph.copy": copy,
        "precover.prune_redundant": prune,
        "precover.subgroup_graph": build,
    })


def traced_pass(runner: Runner, tracer: Tracer | None = None):
    """Set-up, one pipeline pass and a fixed query sample, traced when
    ``tracer`` is given.
    The builds are checked afterwards, outside the timed and traced window.
    Returns (seconds, records)."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        problems = runner.load_all()
        _, records = runner.pipeline_once(problems, min_s=0.0)
        queries = runner.parsed_queries(problems, TRACE_QUERIES)
        answers = runner.member_pass(queries)[2]
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return dt, (records, runner.check_builds(), answers)


def subprocess_floor(code: str, reps: int = 5) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                       capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def ladder_slopes(seed: int, fp, tracer: Tracer, workdir: Path) -> dict:
    """Log-log slopes of traced inclusive times over two size ladders:
    build and decompose on conjugates, prune on random words (the family
    where prune does most of the build)."""

    def times(family, make, sizes, names, decompose):
        out = {name: [] for name in names}
        for n in sizes:
            path = workdir / f"ladder-{family}-{n}.fp"
            path.write_text(make(random.Random(seed), "ladder", n).text())
            p = fp.cli.load_problem(path)
            tracer.reset()
            sg = fp.subgroup_graph(p.generators, p.pair)
            if decompose:
                fp.decompose(sg)
            for name in names:
                out[name].append(tracer.inclusive(name))
        return {name: slope(sizes, ys) for name, ys in out.items()}

    conj = times("conjugates", gen.conjugates_problem, CONJUGATES_LADDER,
                 ("precover.subgroup_graph", "kurosh.decompose"), True)
    words = times("random-words", gen.random_words_problem, RANDOM_WORDS_LADDER,
                  ("precover.prune_redundant",), False)
    return {
        "precover.build.slope": conj["precover.subgroup_graph"],
        "kurosh.decompose.slope": conj["kurosh.decompose"],
        "precover.prune_redundant.slope": words["precover.prune_redundant"],
    }


def run_traced(runner: Runner, seed: int, trace_out: Path) -> tuple[dict, dict]:
    """Untraced and traced passes alternate (u t u t u); the overhead is the
    fastest traced pass against the fastest untraced one, and the spans and
    counters are those of the first traced pass."""
    fp = runner.fp
    tracer = Tracer()
    install_hooks(tracer, fp)
    untraced_s, untraced_rec = traced_pass(runner)   # also warms caches
    traced_s, traced_rec = traced_pass(runner, tracer)
    runner.tally.check(traced_rec == untraced_rec,
                       "traced run's records differ from the untraced run's")
    s = tracer.summary()
    counts = dict(tracer.counts)
    certify = sum(
        tracer.inclusive(n, not_parents={"precover.is_precover",
                                         "precover.is_reduced_precover"})
        for n in ("precover.is_precover", "precover.is_reduced_precover")
    )
    rebuild = tracer.inclusive("precover.subgroup_graph", parents={"kurosh.verify"})
    # cover checks made by builds, not by decompose or verify's rebuilds
    build_covers = 0
    for i, span in enumerate(tracer.spans):
        if span[0] == "precover.component_is_cover":
            up = tracer.ancestors(i)
            build_covers += "precover.subgroup_graph" in up and "kurosh.verify" not in up
    spans = len(tracer.spans)
    tracer.write(trace_out)
    for t in (None, tracer, None):
        tracer.reset()
        dt = traced_pass(runner, t)[0]
        if t is None:
            untraced_s = min(untraced_s, dt)
        else:
            traced_s = min(traced_s, dt)
    tracer.install()
    try:
        ladder = ladder_slopes(seed, fp, tracer, trace_out.parent)
    finally:
        tracer.uninstall()

    interp = subprocess_floor("pass")
    imported = subprocess_floor("import freeprod.cli")

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    graphs = runner.graphs.values()
    comps = counts.get("precover.subgroup_graph.components", 0)
    m = {
        "cli.interp_s": (interp, "s"),
        "cli.import_s": (imported - interp, "s"),
        "cli.load_problem_s": (self_s("cli.load_problem"), "s"),
        "fingroup.validate_s": (self_s("fingroup.validate"), "s"),
        "fingroup.enumerate_s": (self_s("fingroup.enumerate"), "s"),
        "fingroup.coset_graph.calls": (calls("fingroup.coset_graph"), "count"),
        "fingroup.coset_graph_s": (self_s("fingroup.coset_graph"), "s"),
        "fingroup.schreier_stabilizer.calls": (calls("fingroup.schreier_stabilizer"), "count"),
        "fingroup.schreier_stabilizer_s": (self_s("fingroup.schreier_stabilizer"), "s"),
        "fingroup.reidemeister_schreier_s": (self_s("fingroup.reidemeister_schreier"), "s"),
        "words.parse_word_s": (self_s("words.parse_word"), "s"),
        "words.parse_word.letters": (counts.get("words.parse_word.letters", 0), "count"),
        "words.normalize.calls": (calls("words.normalize"), "count"),
        "words.normalize_s": (self_s("words.normalize"), "s"),
        "lgraph.bouquet_s": (self_s("lgraph.bouquet"), "s"),
        "lgraph.fold_all_s": (self_s("lgraph.fold_all"), "s"),
        "lgraph.cut_hairs_s": (self_s("lgraph.cut_hairs"), "s"),
        "lgraph.components.calls": (calls("lgraph.components"), "count"),
        "lgraph.components_s": (self_s("lgraph.components"), "s"),
        "lgraph.pointed_iso.calls": (calls("lgraph.pointed_iso"), "count"),
        "lgraph.pointed_iso_s": (self_s("lgraph.pointed_iso"), "s"),
        "lgraph.subgraph.calls": (calls("lgraph.subgraph"), "count"),
        "lgraph.spanning_tree.calls": (calls("lgraph.spanning_tree"), "count"),
        "lgraph.spanning_tree_s": (self_s("lgraph.spanning_tree"), "s"),
        "lgraph.copy.calls": (calls("lgraph.copy"), "count"),
        "lgraph.copy.vertices": (counts.get("lgraph.copy.vertices", 0), "count"),
        "lgraph.trace_s": (self_s("lgraph.trace"), "s"),
        "lgraph.graph.vertices": (sum(g.vertex_count for g in graphs), "count"),
        "lgraph.graph.edges": (sum(g.edge_count for g in graphs), "count"),
        "precover.saturate_s": (self_s("precover.saturate"), "s"),
        "precover.prune_redundant_s": (self_s("precover.prune_redundant"), "s"),
        "precover.prune_redundant.victims": (
            counts.get("precover.prune_redundant.victims", 0), "count"),
        "precover.certify_s": (certify, "s"),
        "precover.is_precover.calls": (calls("precover.is_precover"), "count"),
        "precover.component_is_cover.calls": (calls("precover.component_is_cover"), "count"),
        "precover.component_is_cover_s": (self_s("precover.component_is_cover"), "s"),
        "precover.component_is_cover.per_component": (
            build_covers / comps if comps else 0.0, "ratio"),
        "precover.contains.calls": (calls("precover.contains"), "count"),
        "precover.contains_s": (self_s("precover.contains"), "s"),
        "precover.index_if_finite_s": (self_s("precover.index_if_finite"), "s"),
        "kurosh.mcc_s": (self_s("kurosh.mcc"), "s"),
        "kurosh.basic_step.calls": (calls("kurosh.basic_step"), "count"),
        "kurosh.basic_step_s": (self_s("kurosh.basic_step"), "s"),
        "kurosh.decompose_self_s": (self_s("kurosh.decompose"), "s"),
        "kurosh.free_basis_s": (self_s("kurosh.free_basis"), "s"),
        "kurosh.verify.rebuild_letters": (
            counts.get("kurosh.verify.rebuild_letters", 0), "count"),
        "kurosh.verify_rebuild_s": (rebuild, "s"),
        "kurosh.presentation_s": (self_s("kurosh.presentation"), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "precover.build.slope": (ladder["precover.build.slope"], "slope"),
        "kurosh.decompose.slope": (ladder["kurosh.decompose.slope"], "slope"),
        "precover.prune_redundant.slope": (ladder["precover.prune_redundant.slope"], "slope"),
    }
    detail = {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": spans,
        "trace_file": str(trace_out.relative_to(ROOT)),
        "ladder_sizes": {"conjugates_m": CONJUGATES_LADDER,
                         "random_words_count": RANDOM_WORDS_LADDER},
        "functions": {k: {kk: round(vv, 6) for kk, vv in v.items()} for k, v in sorted(s.items())},
    }
    return m, detail


# -- entry point -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in this process: (detail, result).

    The library is imported from ``src/`` of the checkout that holds this
    directory; problem files and spans go under ``.fpbench-work/`` there.
    """
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".fpbench-work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    work = gen.BUILDERS[workload](seed)
    paths = gen.write(work, workdir)
    runner = Runner(work, paths)

    if trace:
        metrics, detail = run_traced(runner, seed, workdir / "spans.jsonl")
    else:
        metrics, detail = run_untraced(runner, seconds)
    t = runner.tally
    if trace:
        metrics["fail_frac"] = (t.failed / t.attempted, "ratio")
    detail["failures"] = t.reasons
    return detail, {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
