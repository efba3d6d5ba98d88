"""Tests for the parallel corpus-checking engine (repro.engine).

Covers the acceptance surface of the engine PR: content-addressed cache
hit/miss and budget semantics, disk round-trip of the cache, parallel vs.
sequential result equivalence over the built-in snippet corpus, warm-cache
reruns issuing strictly fewer solver queries, timeout escalation, the JSONL
result sink, and the CheckerConfig.describe() helper.
"""

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import check_corpus, check_source
from repro.core.checker import CheckerConfig
from repro.core.report import diagnostic_signature, report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS, snippet_by_name
import repro.engine.cache as cache_module
from repro.engine.cache import (
    SolverQueryCache,
    VERDICT_SAT,
    VERDICT_UNKNOWN,
    VERDICT_UNSAT,
    canonical_query_key,
)
from repro.engine.engine import CheckEngine, EngineConfig
from repro.engine.workunit import WorkUnit, check_work_unit, escalate_config
from repro.solver.terms import COMMUTATIVE_OPS, Op, TermManager


def corpus_units(suffix="eq"):
    """The built-in snippet corpus as (name, source) work units."""
    return [(s.name, s.render(suffix)) for s in SNIPPETS + STABLE_SNIPPETS]


def diagnostics_signature(result):
    """Everything that identifies a diagnostic, including its minimal UB set."""
    out = []
    for report in result.reports:
        out.extend(diagnostic_signature(d) for d in report.bugs)
    return out


# -- shared runs over the built-in corpus (computed once per module) -----------------


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("engine") / "cache.jsonl")


@pytest.fixture(scope="module")
def cold_run(cache_file, tmp_path_factory):
    results = str(tmp_path_factory.mktemp("engine-results") / "results.jsonl")
    result = check_corpus(corpus_units(), workers=0,
                          cache_path=cache_file, results_path=results)
    result._results_path = results
    return result


@pytest.fixture(scope="module")
def parallel_run():
    return check_corpus(corpus_units(), workers=2)


@pytest.fixture(scope="module")
def warm_run(cache_file, cold_run):
    return check_corpus(corpus_units(), workers=2, cache_path=cache_file)


# -- canonical query keys -------------------------------------------------------------


def test_canonical_key_alpha_renames_variables():
    mgr = TermManager()
    a = mgr.bvadd(mgr.bv_var("f.arg.x", 32), mgr.bv_var("f.arg.y", 32))
    b = mgr.bvadd(mgr.bv_var("g.arg.p", 32), mgr.bv_var("g.arg.q", 32))
    zero = mgr.bv_const(0, 32)
    assert canonical_query_key([mgr.eq(a, zero)]) == \
        canonical_query_key([mgr.eq(b, zero)])


def test_canonical_key_distinguishes_structure():
    mgr = TermManager()
    x = mgr.bv_var("x", 32)
    y = mgr.bv_var("y", 32)
    zero = mgr.bv_const(0, 32)
    add = canonical_query_key([mgr.eq(mgr.bvadd(x, y), zero)])
    sub = canonical_query_key([mgr.eq(mgr.bvsub(x, y), zero)])
    const = canonical_query_key([mgr.eq(mgr.bvadd(x, mgr.bv_const(1, 32)), zero)])
    assert len({add, sub, const}) == 3


def test_canonical_key_is_width_sensitive():
    mgr = TermManager()
    k32 = canonical_query_key([mgr.eq(mgr.bv_var("x", 32), mgr.bv_const(0, 32))])
    k64 = canonical_query_key([mgr.eq(mgr.bv_var("x", 64), mgr.bv_const(0, 64))])
    assert k32 != k64


def test_canonical_key_ignores_variable_creation_order():
    # Regression: commutative operands are ordered by term id, i.e. by
    # creation order, so two encodings of the same function that merely
    # *introduced* variables in a different order used to produce different
    # keys.  The key must depend on structure alone.
    def key(first, second):
        mgr = TermManager()
        a = mgr.bv_var(first, 32)
        b = mgr.bv_var(second, 32)
        x, y = (a, b) if first == "x" else (b, a)
        query = mgr.eq(mgr.bvsub(mgr.bvadd(x, y), x), mgr.bv_const(0, 32))
        return canonical_query_key([query])

    assert key("x", "y") == key("y", "x")


def test_canonical_key_ignores_commutative_order_with_distinct_shapes():
    # The subterms must be told apart structurally (sext of different
    # sources), not by name or age — one refinement round is not enough for
    # this shape, so it pins the iterative coloring.
    def key(order):
        mgr = TermManager()
        a = mgr.sext(mgr.bv_var("a", 8), 24)
        b = mgr.sext(mgr.bv_var("b", 16), 16)
        wide_a = mgr.bvadd(a, mgr.bv_const(1, 32))
        operands = (wide_a, b) if order else (b, wide_a)
        return canonical_query_key([mgr.eq(mgr.bvadd(*operands),
                                           mgr.bv_const(0, 32))])

    assert key(True) == key(False)


def test_canonical_key_serialization_format_is_pinned():
    # Without commutative operators the colors pick nothing, so the key is
    # the SHA-256 of a fixed text; cache files rely on this format.
    mgr = TermManager()
    diff = mgr.bvsub(mgr.bv_var("f.x", 32), mgr.bv_var("f.y", 32))
    low = mgr.bvult(mgr.extract(diff, 7, 0), mgr.bv_const(3, 8))
    whole = mgr.bvult(diff, mgr.bv_const(0, 32))
    blob = ("var:v0:bv32;var:v1:bv32;bvsub::n0,n1;extract:7,0:n2;"
            "const:3:bv8;bvult::n3,n4;const:0:bv32;bvult::n2,n6|n5,n7")
    assert canonical_query_key([low, whole]) == \
        hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_canonical_key_classes_are_pinned_on_the_snippet_corpus(monkeypatch):
    """Key classes on the 30-snippet corpus match the blake2b colouring's.

    The lookup count, the distinct-key count and the partition digest (of
    the sequence of first-seen class indices) were recorded with the
    string-hashing colours the integer-mixed ones replaced: the keys split
    into the same classes, so every cache hit is kept.  The key digest pins
    the key bytes themselves; a change to it invalidates persisted cache
    files and must be declared.
    """
    keys = []
    original = cache_module.canonical_query_key

    def recording(terms):
        keys.append(original(terms))
        return keys[-1]

    monkeypatch.setattr(cache_module, "canonical_query_key", recording)
    check_corpus(corpus_units("v"), config=CheckerConfig(solver_timeout=600.0),
                 workers=0)
    classes = {}
    partition = [classes.setdefault(key, len(classes)) for key in keys]
    digest = hashlib.sha256(json.dumps(partition, separators=(",", ":"))
                            .encode("utf-8")).hexdigest()[:16]
    assert (len(keys), len(classes), digest) == (382, 328, "7eb4314d4be1bc2b")
    assert hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16] \
        == "72a0ca25e4c450f3"


def reference_colors(terms):
    """The blake2b string-hashing colouring the integer mixing replaced."""

    def color(payload):
        return int.from_bytes(hashlib.blake2b(
            payload.encode("utf-8"), digest_size=8).digest(), "big")

    order, seen = [], set()
    for root in terms:
        stack = [(root, False)]
        while stack:
            term, ready = stack.pop()
            if ready:
                order.append(term)
            elif term.tid not in seen:
                seen.add(term.tid)
                stack.append((term, True))
                stack.extend((arg, False) for arg in term.args)

    def structural(term, colors, context):
        sort = term.sort.kind if term.sort.is_bool() else f"bv{term.sort.width}"
        if term.op is Op.VAR:
            payload = f"var::{sort}"
        elif term.op is Op.CONST:
            payload = f"const:{term.attrs[0]}:{sort}"
        else:
            child = [colors[a.tid] for a in term.args]
            if term.op in COMMUTATIVE_OPS:
                child.sort()
            attrs = ",".join(str(a) for a in term.attrs)
            payload = f"{term.op.value}:{attrs}:{sort}:" \
                      + ",".join(str(c) for c in child)
        return color(f"{payload}@{context}")

    mask = (1 << 64) - 1
    colors = {}
    for term in order:
        colors[term.tid] = structural(term, colors, 0)
    for _ in range(2):
        context = {}
        for index, root in enumerate(terms):
            context[root.tid] = (context.get(root.tid, 0)
                                 + color(f"root:{index}")) & mask
        for term in reversed(order):
            mine = color(f"{colors[term.tid]}@{context.get(term.tid, 0)}")
            for position, arg in enumerate(term.args):
                role = -1 if term.op in COMMUTATIVE_OPS else position
                context[arg.tid] = (context.get(arg.tid, 0)
                                    + color(f"ctx:{mine}:{role}")) & mask
        for term in order:
            colors[term.tid] = structural(term, colors,
                                          context.get(term.tid, 0))
    return colors


def reference_key(terms):
    return cache_module._serialized_key(terms, reference_colors(terms))


def color_classes(colors):
    """The node partition a colouring induces, as first-seen class indices."""
    classes = {}
    return [classes.setdefault(colors[tid], len(classes))
            for tid in sorted(colors)]


_BV_OPS = ("bvadd", "bvmul", "bvand", "bvor", "bvxor", "bvsub", "bvshl",
           "bvudiv", "concat_low")
_PREDICATES = ("eq", "bvult", "bvslt", "distinct")
_CONNECTIVES = ("and_", "or_", "xor", "implies")


@st.composite
def query_recipes(draw):
    """A random query DAG over 8-bit variables, as a build recipe.

    Node ``i`` of the recipe may use any node before it, so operands are
    shared freely; the roots are predicates and connectives over them.
    """
    leaves = [("var", index) for index in range(draw(st.integers(1, 4)))]
    leaves += [("const", draw(st.integers(0, 255)))
               for _ in range(draw(st.integers(0, 2)))]
    nodes = list(leaves)
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(_BV_OPS + ("bvnot", "ite")))
        pick = st.integers(0, len(nodes) - 1)
        if op == "bvnot":
            nodes.append((op, draw(pick)))
        elif op == "ite":
            nodes.append((op, draw(st.sampled_from(_PREDICATES)), draw(pick),
                          draw(pick), draw(pick), draw(pick)))
        else:
            nodes.append((op, draw(pick), draw(pick)))
    predicates = [(draw(st.sampled_from(_PREDICATES)),
                   draw(st.integers(0, len(nodes) - 1)),
                   draw(st.integers(0, len(nodes) - 1)))
                  for _ in range(draw(st.integers(1, 4)))]
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        first = draw(st.integers(0, len(predicates) - 1))
        second = draw(st.integers(0, len(predicates) - 1))
        roots.append((draw(st.sampled_from(_CONNECTIVES + ("not_", "atom"))),
                      first, second))
    return nodes, predicates, roots


def build_query(recipe, rng=None):
    """Build ``recipe`` in a fresh manager.

    With ``rng``, variables are renamed and created in shuffled order, the
    rest of the DAG is created in a random topological order, and the
    operands of every commutative call are swapped at random.
    """
    nodes, predicates, roots = recipe
    mgr = TermManager()
    built = {}
    names = [f"f.arg.{i}" for i in range(len(nodes))]
    if rng is not None:
        names = [f"g.{i}.tmp" for i in rng.sample(range(len(nodes)),
                                                  len(nodes))]
    swap = (lambda: rng.random() < 0.5) if rng is not None else (lambda: False)

    def call(name, first, second):
        if name in ("bvadd", "bvmul", "bvand", "bvor", "bvxor", "eq",
                    "distinct", "and_", "or_", "xor") and swap():
            first, second = second, first
        return getattr(mgr, name)(first, second)

    def node(index):
        if index in built:
            return built[index]
        spec = nodes[index]
        operands = spec[2:] if spec[0] == "ite" else spec[1:]
        if rng is not None and spec[0] not in ("var", "const"):
            for operand in rng.sample(list(operands), len(operands)):
                node(operand)
        if spec[0] == "var":
            term = mgr.bv_var(names[spec[1]], 8)
        elif spec[0] == "const":
            term = mgr.bv_const(spec[1], 8)
        elif spec[0] == "bvnot":
            term = mgr.bvnot(node(spec[1]))
        elif spec[0] == "ite":
            term = mgr.ite(call(spec[1], node(spec[2]), node(spec[3])),
                           node(spec[4]), node(spec[5]))
        elif spec[0] == "concat_low":
            term = mgr.extract(mgr.concat(node(spec[1]), node(spec[2])), 11, 4)
        else:
            term = call(spec[0], node(spec[1]), node(spec[2]))
        built[index] = term
        return term

    order = list(range(len(nodes)))
    if rng is not None:
        rng.shuffle(order)
    for index in order:
        node(index)
    atoms = [call(name, node(a), node(b)) for name, a, b in predicates]
    out = []
    for name, first, second in roots:
        if name == "atom":
            out.append(atoms[first])
        elif name == "not_":
            out.append(mgr.not_(atoms[first]))
        else:
            out.append(call(name, atoms[first], atoms[second]))
    return out


@settings(max_examples=120, deadline=None)
@given(recipe=query_recipes(), other=query_recipes(),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2))
def test_canonical_key_partition_matches_the_reference(recipe, other, seeds):
    # Two shuffled, renamed, operand-swapped rebuilds of one query and an
    # unrelated query: the integer-mixed colours must split them into
    # exactly the classes the blake2b reference colouring does.
    queries = [build_query(recipe)] \
        + [build_query(recipe, random.Random(seed)) for seed in seeds] \
        + [build_query(other)]
    new = [canonical_query_key(query) for query in queries]
    ref = [reference_key(query) for query in queries]
    for i in range(len(queries)):
        for j in range(i + 1, len(queries)):
            assert (new[i] == new[j]) == (ref[i] == ref[j]), (i, j)
    # Within each query, the colours tell apart exactly the same nodes.
    for query in queries:
        assert color_classes(cache_module._canonical_colors(query)) == \
            color_classes(reference_colors(query))


def test_canonical_key_is_independent_of_the_string_hash_seed():
    """Keys must not depend on ``PYTHONHASHSEED`` (persisted caches)."""
    import subprocess
    import sys
    import textwrap

    import repro

    script = textwrap.dedent("""
        import repro.engine.cache as cache
        from repro.api import check_source
        from repro.corpus.snippets import SNIPPETS

        keys = []
        original = cache.canonical_query_key

        def recording(terms):
            keys.append(original(terms))
            return keys[-1]

        cache.canonical_query_key = recording
        for snippet in SNIPPETS[:3]:
            check_source(snippet.render("h"), cache=cache.SolverQueryCache())
        print("\\n".join(keys))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert outputs[0] and outputs[0] == outputs[1]


def test_alpha_renamed_functions_share_cache_entries():
    # End to end: checking two instances of one snippet template must
    # replay every verdict of the first instance from the cache.
    cache = SolverQueryCache()
    config = CheckerConfig()
    first = check_work_unit(
        WorkUnit(name="a", source=SNIPPETS[0].render("a")), config,
        cache=cache, drain_cache=False)
    misses_after_first = cache.misses
    second = check_work_unit(
        WorkUnit(name="b", source=SNIPPETS[0].render("b")), config,
        cache=cache, drain_cache=False)
    assert cache.misses == misses_after_first     # no new solver work at all
    assert sum(fr.cache_hits for fr in second.report.functions) == \
        sum(fr.queries for fr in second.report.functions)
    # Same verdicts modulo the renamed identity (function name, filename).
    assert [sig[2:] for sig in report_signature(first.report)] == \
        [sig[2:] for sig in report_signature(second.report)]


# -- cache semantics ------------------------------------------------------------------


def test_cache_hit_miss_counters():
    cache = SolverQueryCache()
    assert cache.lookup("k1") is None
    cache.store("k1", VERDICT_UNSAT, timeout=5.0, max_conflicts=100)
    assert cache.lookup("k1") == VERDICT_UNSAT
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cache_unknown_is_budget_qualified():
    cache = SolverQueryCache()
    cache.store("k", VERDICT_UNKNOWN, timeout=1.0, max_conflicts=100)
    # A larger requested budget must re-solve rather than replay the timeout.
    assert cache.lookup("k", timeout=5.0, max_conflicts=100) is None
    assert cache.lookup("k", timeout=1.0, max_conflicts=1000) is None
    # An equal-or-smaller budget can reuse it.
    assert cache.lookup("k", timeout=1.0, max_conflicts=100) == VERDICT_UNKNOWN
    assert cache.lookup("k", timeout=0.5, max_conflicts=50) == VERDICT_UNKNOWN
    # Definitive verdicts ignore the budget entirely.
    cache.store("k2", VERDICT_SAT, timeout=0.001, max_conflicts=1)
    assert cache.lookup("k2", timeout=60.0, max_conflicts=None) == VERDICT_SAT


def test_cache_never_downgrades_definitive_verdicts():
    cache = SolverQueryCache()
    cache.store("k", VERDICT_UNSAT, timeout=5.0)
    cache.store("k", VERDICT_UNKNOWN, timeout=60.0)
    assert cache.lookup("k") == VERDICT_UNSAT


def _jsonl(path, *entries):
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))


def test_cache_load_never_downgrades_definitive_verdicts(tmp_path):
    # Appended or concatenated cache files can hold a definitive verdict
    # and a later unknown for one key; loading must keep the verdict, and
    # an unknown only replaces an unknown whose budget it covers.
    path = tmp_path / "cache.jsonl"
    _jsonl(path,
           {"key": "k", "verdict": "unsat", "timeout": 5.0, "max_conflicts": 10},
           {"key": "k", "verdict": "unknown", "timeout": 60.0,
            "max_conflicts": 1000},
           {"key": "u", "verdict": "unknown", "timeout": 10.0,
            "max_conflicts": 1000},
           {"key": "u", "verdict": "unknown", "timeout": 1.0, "max_conflicts": 10},
           {"key": "w", "verdict": "unknown", "timeout": 1.0, "max_conflicts": 10},
           {"key": "w", "verdict": "sat", "timeout": 1.0, "max_conflicts": 10})
    cache = SolverQueryCache(path=str(path))
    assert cache.lookup("k", timeout=60.0, max_conflicts=1000) == VERDICT_UNSAT
    assert cache.lookup("u", timeout=10.0, max_conflicts=1000) == VERDICT_UNKNOWN
    assert cache.lookup("w", timeout=60.0, max_conflicts=None) == VERDICT_SAT

    seeded = SolverQueryCache()
    seeded.seed(json.loads(line) for line in path.read_text().splitlines())
    assert seeded.lookup("k", timeout=60.0, max_conflicts=1000) == VERDICT_UNSAT

    # A flush re-reads the concatenated file under the same rule.
    writer = SolverQueryCache()
    writer.store("z", VERDICT_SAT)
    assert writer.flush(str(path)) == 1
    assert SolverQueryCache(path=str(path)).lookup(
        "k", timeout=60.0, max_conflicts=1000) == VERDICT_UNSAT


def test_cache_lru_eviction():
    cache = SolverQueryCache(capacity=2)
    cache.store("a", VERDICT_SAT)
    cache.store("b", VERDICT_SAT)
    assert cache.lookup("a") == VERDICT_SAT     # refresh "a"
    cache.store("c", VERDICT_SAT)               # evicts "b"
    assert cache.lookup("b") is None
    assert cache.lookup("a") == VERDICT_SAT
    assert cache.lookup("c") == VERDICT_SAT


def test_cache_disk_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = SolverQueryCache(path=path)
    cache.store("k1", VERDICT_UNSAT, timeout=5.0, max_conflicts=100, elapsed=0.25)
    cache.store("k2", VERDICT_UNKNOWN, timeout=1.0, max_conflicts=10)
    assert cache.flush() == 2
    assert cache.flush() == 0                   # nothing new since last flush

    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert {line["key"] for line in lines} == {"k1", "k2"}

    reloaded = SolverQueryCache(path=path)
    assert len(reloaded) == 2
    assert reloaded.lookup("k1") == VERDICT_UNSAT
    assert reloaded.lookup("k2", timeout=1.0, max_conflicts=10) == VERDICT_UNKNOWN
    # Entries loaded from disk are not "new" and must not be re-flushed.
    assert reloaded.flush() == 0


def test_cache_load_tolerates_torn_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"key": "k", "verdict": "unsat",
                       "timeout": 5.0, "max_conflicts": 10, "elapsed": 0.0})
    path.write_text(good + "\n" + '{"key": "torn", "verd' + "\n")
    cache = SolverQueryCache(path=str(path))
    assert len(cache) == 1
    assert cache.lookup("k") == VERDICT_UNSAT


def test_cache_flush_merges_other_writers_entries(tmp_path):
    # Two caches sharing one path: flushing must merge, never clobber.
    path = str(tmp_path / "cache.jsonl")
    first = SolverQueryCache(path=path)
    second = SolverQueryCache(path=path)
    first.store("ka", VERDICT_UNSAT)
    second.store("kb", VERDICT_SAT)
    assert first.flush() == 1
    assert second.flush() == 1                  # does not lose "ka"
    reloaded = SolverQueryCache(path=path)
    assert len(reloaded) == 2
    assert reloaded.lookup("ka") == VERDICT_UNSAT
    assert reloaded.lookup("kb") == VERDICT_SAT


def test_cache_flush_never_downgrades_on_disk(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    first = SolverQueryCache(path=path)
    first.store("k", VERDICT_UNSAT, timeout=5.0)
    assert first.flush() == 1
    late = SolverQueryCache()
    late.store("k", VERDICT_UNKNOWN, timeout=60.0)
    assert late.flush(path) == 0                # unknown never wins on disk
    assert SolverQueryCache(path=path).lookup("k") == VERDICT_UNSAT


def test_cache_flush_is_safe_under_concurrent_processes(tmp_path):
    """The satellite regression: several processes repeatedly flushing one
    cache file must lose no entries and never leave a torn file (advisory
    lock + atomic temp-file rename)."""
    import subprocess
    import sys
    import textwrap

    import repro

    path = str(tmp_path / "shared-cache.jsonl")
    writers, rounds, per_round = 4, 5, 10
    script = textwrap.dedent("""
        import sys
        from repro.engine.cache import SolverQueryCache

        path, writer = sys.argv[1], int(sys.argv[2])
        for round_index in range(int(sys.argv[3])):
            cache = SolverQueryCache(path=path)
            for i in range(int(sys.argv[4])):
                cache.store(f"w{writer}-r{round_index}-{i}", "unsat")
            cache.flush()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    processes = [subprocess.Popen(
        [sys.executable, "-c", script, path, str(writer), str(rounds),
         str(per_round)], env=env) for writer in range(writers)]
    for process in processes:
        assert process.wait(timeout=120) == 0
    lines = [json.loads(line)
             for line in open(path, encoding="utf-8")]  # every line parses
    keys = [line["key"] for line in lines]
    assert len(keys) == len(set(keys)) == writers * rounds * per_round


# -- checker integration --------------------------------------------------------------


def test_query_cache_replays_across_identical_functions():
    source = snippet_by_name("fig1_pointer_overflow_check")
    cache = SolverQueryCache()
    first = check_source(source.render("one"), cache=cache)
    second = check_source(source.render("two"), cache=cache)
    # Alpha-renaming makes the two instances' queries structurally identical.
    assert first.queries == second.queries
    assert first.solver_queries > 0
    assert second.solver_queries == 0
    assert second.cache_hits == second.queries
    assert len(second.bugs) == len(first.bugs) > 0


def test_uncached_checker_has_zero_cache_hits():
    report = check_source(snippet_by_name("stable_division_guard").render("x"))
    assert report.cache_hits == 0
    assert report.solver_queries == report.queries


# -- corpus runs: equivalence and warm cache -----------------------------------------


def test_cold_run_shape(cold_run):
    units = corpus_units()
    assert cold_run.stats.units == len(units)
    assert cold_run.stats.failed_units == 0
    assert cold_run.stats.diagnostics > 0
    assert cold_run.stats.queries > 0
    # Every unstable snippet is flagged and no stable snippet is.
    flagged = {result.name for result in cold_run.results if result.report.bugs}
    assert flagged == {s.name for s in SNIPPETS}


def test_parallel_matches_sequential(cold_run, parallel_run):
    assert diagnostics_signature(parallel_run) == diagnostics_signature(cold_run)
    assert parallel_run.stats.units == cold_run.stats.units
    assert parallel_run.stats.diagnostics == cold_run.stats.diagnostics


def test_warm_cache_issues_strictly_fewer_solver_queries(cold_run, warm_run):
    # Same questions asked...
    assert warm_run.stats.queries == cold_run.stats.queries
    # ...but the warm run replays verdicts instead of re-solving.
    assert warm_run.stats.solver_queries < cold_run.stats.solver_queries
    assert warm_run.stats.cache_hits > cold_run.stats.cache_hits
    # And the reports are byte-for-byte the same diagnostics.
    assert diagnostics_signature(warm_run) == diagnostics_signature(cold_run)


def test_check_modules_parallel_equivalence():
    from repro.api import check_modules_parallel, compile_source

    sources = [s.render("mods") for s in SNIPPETS[:4]]
    sequential = [check_source(src) for src in sources]
    modules = [compile_source(src) for src in sources]
    parallel = check_modules_parallel(modules, workers=2)
    assert [len(r.bugs) for r in parallel.reports] == \
        [len(r.bugs) for r in sequential]


# -- timeout escalation ---------------------------------------------------------------

#: A budget of one CDCL conflict starves every non-trivial query.
STARVED = CheckerConfig(max_conflicts=1)


def test_starved_budget_times_out_without_escalation():
    engine = CheckEngine(EngineConfig(workers=0, checker=STARVED,
                                      escalation_factors=()))
    result = engine.check_corpus(
        [("fig1", snippet_by_name("fig1_pointer_overflow_check").render("t"))])
    assert result.stats.timeouts > 0
    assert result.stats.escalated_units == 0
    assert result.stats.diagnostics == 0       # conservatively reports nothing


def test_escalation_recovers_starved_functions():
    engine = CheckEngine(EngineConfig(workers=0, checker=STARVED,
                                      escalation_factors=(50_000.0,)))
    result = engine.check_corpus(
        [("fig1", snippet_by_name("fig1_pointer_overflow_check").render("t"))])
    assert result.stats.escalated_units == 1
    assert result.results[0].attempts == 2
    assert result.stats.timeouts == 0
    baseline = check_source(snippet_by_name("fig1_pointer_overflow_check").render("t"))
    assert len(result.bugs) == len(baseline.bugs) > 0


def test_escalate_config_scales_budget():
    config = CheckerConfig(solver_timeout=2.0, max_conflicts=100)
    scaled = escalate_config(config, 4.0)
    assert scaled.solver_timeout == 8.0
    assert scaled.max_conflicts == 400
    assert config.solver_timeout == 2.0         # original untouched
    unlimited = escalate_config(CheckerConfig(solver_timeout=None,
                                              max_conflicts=None), 4.0)
    assert unlimited.solver_timeout is None
    assert unlimited.max_conflicts is None


# -- work units and error handling ----------------------------------------------------


def test_work_unit_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        WorkUnit(name="bad")
    with pytest.raises(ValueError):
        from repro.api import compile_source
        WorkUnit(name="bad", source="int f() { return 0; }",
                 module=compile_source("int g() { return 0; }"))


def test_frontend_rejection_is_reported_not_fatal():
    result = check_corpus([("broken", "int f( {"),
                           ("fine", "int g(int x) { return x; }")], workers=0)
    assert result.stats.units == 2
    assert result.stats.failed_units == 1
    broken = result.results[0]
    assert not broken.ok and broken.error
    assert result.results[1].ok


def test_check_work_unit_standalone():
    unit = WorkUnit(name="u", source=snippet_by_name("fig2_null_check_after_deref").render("t"))
    result = check_work_unit(unit, CheckerConfig(), cache=SolverQueryCache())
    assert result.ok
    assert result.attempts == 1
    assert len(result.report.bugs) > 0
    assert result.cache_entries                 # worker-side drain happened


# -- JSONL result sink ----------------------------------------------------------------


def test_results_jsonl_schema(cold_run):
    lines = [json.loads(line)
             for line in open(cold_run._results_path, encoding="utf-8")]
    units = [line for line in lines if line["type"] == "unit"]
    runs = [line for line in lines if line["type"] == "run"]
    assert len(units) == cold_run.stats.units
    assert len(runs) == 1
    total = sum(len(line["diagnostics"]) for line in units)
    assert total == cold_run.stats.diagnostics
    summary = runs[0]
    assert summary["queries"] == cold_run.stats.queries
    assert summary["solver_queries"] == cold_run.stats.solver_queries
    assert "cache" in summary
    for line in units:
        for diagnostic in line["diagnostics"]:
            # ub_kinds may be empty (no single UB condition isolated), but
            # the field and a concrete algorithm must always be present.
            assert "ub_kinds" in diagnostic
            assert diagnostic["algorithm"]


# -- CheckerConfig.describe -----------------------------------------------------------


def test_checker_config_describe():
    text = CheckerConfig(solver_timeout=2.5, inline=False).describe()
    assert "solver_timeout = 2.5" in text
    assert "inline = False" in text
    assert "encoder.partial_division_axioms = True" in text
    # Every top-level field is present.
    for name in ("max_conflicts", "minimize_ub_sets", "enable_elimination",
                 "enable_boolean_oracle", "enable_algebra_oracle", "classify",
                 "ignore_compiler_generated"):
        assert name in text


def test_checker_config_encoder_options_not_shared():
    first = CheckerConfig()
    second = CheckerConfig()
    assert first.encoder_options is not second.encoder_options


# -- WorkUnit metadata and RunStats.merge ---------------------------------------------


def test_unit_meta_travels_to_results_and_sink(tmp_path):
    path = tmp_path / "results.jsonl"
    units = [
        WorkUnit(name="tagged", source="int f(int x) { return x; }",
                 meta={"scenario": "demo", "expected_unstable": False}),
        WorkUnit(name="plain", source="int g(int x) { return x; }"),
    ]
    engine = CheckEngine(EngineConfig(workers=0, results_path=str(path)))
    result = engine.check_corpus(units)
    assert result.results[0].meta == {"scenario": "demo",
                                      "expected_unstable": False}
    assert result.results[1].meta == {}
    records = [json.loads(line) for line
               in path.read_text(encoding="utf-8").splitlines()]
    assert records[0]["meta"]["scenario"] == "demo"
    assert records[1]["meta"] == {}


def test_unit_meta_survives_worker_processes():
    units = [WorkUnit(name=f"u{i}", source=f"int f{i}(int x) {{ return x; }}",
                      meta={"index": i}) for i in range(4)]
    engine = CheckEngine(EngineConfig(workers=2))
    result = engine.check_corpus(units)
    assert [r.meta["index"] for r in result.results] == [0, 1, 2, 3]


def test_unit_meta_survives_compile_failure():
    result = check_work_unit(WorkUnit(name="broken", source="int f( {",
                                      meta={"scenario": "x"}),
                             CheckerConfig())
    assert result.error is not None
    assert result.meta == {"scenario": "x"}


def test_run_stats_merge_accumulates_counters():
    from repro.engine.engine import RunStats

    first = RunStats(units=3, functions=5, diagnostics=2, queries=10,
                     cache_hits=4, workers=2, wall_clock=1.5, solver_time=0.5)
    second = RunStats(units=2, functions=1, diagnostics=1, queries=6,
                      cache_hits=1, workers=4, wall_clock=0.5,
                      solver_time=0.25)
    first.merge(second)
    assert first.units == 5
    assert first.functions == 6
    assert first.diagnostics == 3
    assert first.queries == 16
    assert first.cache_hits == 5
    assert first.workers == 4                   # max, not sum
    assert first.wall_clock == 2.0
    assert first.solver_time == 0.75


def test_run_stats_merge_matches_single_run():
    from repro.engine.engine import RunStats

    units = corpus_units("merge")
    whole = CheckEngine(EngineConfig(workers=0, cache_enabled=False)) \
        .check_corpus(units)
    merged = RunStats()
    engine = CheckEngine(EngineConfig(workers=0, cache_enabled=False))
    for half in (units[:len(units) // 2], units[len(units) // 2:]):
        merged.merge(engine.check_corpus(half).stats)
    assert merged.units == whole.stats.units
    assert merged.diagnostics == whole.stats.diagnostics
    assert merged.queries == whole.stats.queries
