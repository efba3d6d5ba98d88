"""Tests of the benchmark's own harness (inputs, digest, layer wrappers)."""

from __future__ import annotations

import json
import os

from repro import CheckEngine, EngineConfig, check_corpus

from repobench import corpus, hostprobe, layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Cheap units that still reach the SAT solver: two snippets, one MiniC
#: and one IR program.
CHEAP_SNIPPETS = ("fig2_null_check_after_deref", "stable_null_guard")


def small_corpus(seed: int = 1):
    snippets = [item for item in corpus.snippet_items()
                if item.base in CHEAP_SNIPPETS]
    fuzz = corpus.fuzz_items(seed)
    minic = next(item for item in fuzz if "signed_overflow" in item.base)
    ir = next(item for item in fuzz if item.kind == "ir")
    return snippets + [minic, ir]


def check(items, rendering=0, engine=None):
    """Check ``items`` as the sequential workloads do; return the digest."""
    outcome = workloads.Outcome()
    records = []
    engine = engine or CheckEngine(EngineConfig(workers=0))
    workloads.check_units(outcome, engine, items,
                          corpus.render(items, rendering),
                          hostprobe.Reference(), records)
    assert outcome.mismatches == 0 and outcome.failed == 0
    return corpus.verdict_digest(records)


def wrapped_bindings():
    bindings = {}
    for target, attribute, *_rest in layers.WRAPPED:
        owner = layers.resolve(target)
        raw = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        bindings[(target, attribute)] = raw
    return bindings


def test_wrappers_are_restored_after_the_traced_run():
    originals = wrapped_bindings()
    with layers.traced(layers.Recorder()):
        during = wrapped_bindings()
        assert all(during[key] is not originals[key] for key in originals)
    after = wrapped_bindings()
    assert all(after[key] is originals[key] for key in originals)


def test_wrappers_are_restored_when_the_traced_run_fails():
    originals = wrapped_bindings()
    try:
        with layers.traced(layers.Recorder()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = wrapped_bindings()
    assert all(after[key] is originals[key] for key in originals)


def test_traced_run_gives_the_untraced_digest_and_repeats_its_counters():
    items = small_corpus()
    untraced = check(items)
    counters = []
    for _ in range(2):
        recorder = layers.Recorder()
        with layers.traced(recorder):
            assert check(items) == untraced
        totals = recorder.totals()
        assert totals["times"]["sat"][0] > 0
        assert totals["times"]["frontend.parse"][0] == len(items) - 1
        counters.append((totals["times"]["sat"][0],)
                        + tuple(totals["counts"][name]
                                for name in workloads.EXACT_COUNTERS))
    assert counters[0] == counters[1]


def test_self_time_excludes_wrapped_children():
    recorder = layers.Recorder()
    with layers.traced(recorder):
        check(small_corpus())
    times = recorder.totals()["times"]
    for calls, total, own in times.values():
        assert 0 <= own <= total + 1e-9
    unit = times["engine.unit"]
    assert unit[2] < unit[1]


def test_renderings_share_one_digest():
    items = small_corpus()
    engine = CheckEngine(EngineConfig(workers=0))
    check(items, 0, engine)                       # fill the cache
    assert check(items, 1, engine) == check(items, 11, engine)


def test_a_new_seed_changes_only_the_generated_part():
    one, same, two = (corpus.fuzz_items(seed) for seed in (1, 1, 2))
    assert one == same
    assert one != two
    assert len(one) == len(two)
    assert [item.base for item in corpus.snippet_items()] == \
        [snippet.name for snippet in corpus.SNIPPET_TEMPLATES]
    assert len(corpus.snippet_items()) == 30


def test_benchmark_json_names_the_metrics_the_code_reports():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == workloads.PER_LAYER


def test_host_probe_reference_is_fixed():
    # Host-normalised times are comparable across commits only while the
    # reference does the same work.
    assert hostprobe.Reference().run() == 533
    assert hostprobe.Reference().run() == 533


def test_serve_rounds_repeat_one_plan_with_new_programs():
    from repobench.serve_warm import ROUND_JOBS, ServeWarm

    def rounds(seed, count=3):
        workload = ServeWarm(seed, run_dir="unused")
        workload.snippets = corpus.snippet_items()
        plan = workload.plan()
        return [workload.round_items(plan, r) for r in range(count)]

    one, same, two = rounds(1), rounds(1), rounds(2)
    assert one == same
    assert all(len(items) == ROUND_JOBS for items in one)
    kinds = [[item.kind for item in items] for items in one + two]
    assert all(k == kinds[0] for k in kinds)      # one plan for every round
    generated = [[item for item in items if item.kind != "snippet"]
                 for items in one]
    assert len(generated[0]) == ROUND_JOBS // 5
    assert generated[0] != generated[1]           # new programs each round
    assert one[1] == two[0]                       # the seed picks the start


def test_pool_workers_slice_before_every_unit_and_bindings_come_back(
        tmp_path):
    import repro.engine.engine as engine_module

    items = small_corpus()
    units = [(unit.name, unit.source) for unit in corpus.render(items, 0)
             if unit.source]
    original = engine_module.check_work_unit
    with hostprobe.probing_workers(str(tmp_path)):
        assert engine_module.check_work_unit is not original
        result = check_corpus(units, workers=2)
    assert engine_module.check_work_unit is original
    assert all(unit.ok for unit in result.results)
    slices = hostprobe.load_probes(str(tmp_path))
    assert len(slices) == len(units)
    assert all(value > 0 for _stamp, value in slices)
