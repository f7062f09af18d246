"""Tests of the benchmark's own arithmetic, inputs and tracer."""

import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import common, tracer


def _spans(intervals, parents):
    return {
        "names": [f"s{i}" for i in range(len(intervals))],
        "start": [s for s, _ in intervals],
        "end": [e for _, e in intervals],
        "parent": parents,
        "counts": [None] * len(intervals),
        "missing": [],
        "hook_failures": [],
    }


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # Parent [0, 10]; children [1, 3] and [2, 4] overlap (union 3), and
    # [8, 12] runs past the parent's end (2 of it counts). Grandchild
    # [1, 2] belongs to its own parent only.
    spans = _spans([(0, 10), (1, 3), (2, 4), (8, 12), (1, 2)], [-1, 0, 0, 0, 1])
    assert tracer.self_times(spans) == [5.0, 1.0, 2.0, 4.0, 1.0]
    assert tracer.covered(spans) == 10.0


def test_union_length_merges_touching_and_nested_intervals():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (1, 2), (5, 6), (5.5, 5.7)]) == 3.0


def test_wrapped_calls_nest_and_self_times_add_up():
    t = tracer.Tracer()
    inner = t.wrap("layer.inner", lambda: sum(range(1000)))
    outer = t.wrap("layer.outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = t.export()
    assert spans["names"] == ["layer.outer"] + ["layer.inner"] * 3
    assert spans["parent"] == [-1, 0, 0, 0]
    selfs = tracer.self_times(spans)
    child_total = sum(spans["end"][i] - spans["start"][i] for i in (1, 2, 3))
    assert selfs[0] == pytest.approx(spans["end"][0] - spans["start"][0] - child_total)
    assert min(selfs) >= 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond_it(n, expected):
    assert common.supported_percentile(n) == expected


def test_speed_factor_brings_each_op_to_the_probe_nominal_speed(monkeypatch):
    assert common.speed_probe() > 0.0
    probes = iter([2 * common.PROBE_NOMINAL_S, common.PROBE_NOMINAL_S / 2])
    monkeypatch.setattr(common, "speed_probe", lambda: next(probes))
    speed = common.Speed()
    assert speed.factor() == 0.5  # the machine runs at half speed: times halve
    assert speed.factor() == 2.0
    assert speed.info()["probes"] == 2


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert common.percentile(values, 99.0) == 99.0
    assert common.percentile(values, 50.0) == 50.0
    assert common.percentile([7.0], 99.0) == 7.0


def test_seeded_generator_reproduces_the_readme_files_byte_for_byte(tmp_path, monkeypatch):
    readme = (common.ROOT / "README.md").read_text()
    script = re.search(r"python3 - <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(script, "README.md", "exec"), {})
    for name, data in common.readme_texts(common.DEFAULT_SEED).items():
        assert Path(name).read_bytes() == data


def test_workload_seeds_change_the_texts():
    assert common.readme_texts(1) != common.readme_texts(0)
    assert common.readme_texts(1) == common.readme_texts(1)


@pytest.fixture(scope="module")
def bklv():
    return common.import_bklv()


def test_install_wraps_the_binding_each_caller_uses_and_uninstall_restores(bklv):
    original = bklv.cache.attend_with_cache
    t = tracer.Tracer()
    t.install()
    try:
        assert bklv.model.attend_with_cache is not original
        assert bklv.model.attend_with_cache is bklv.cache.attend_with_cache
        assert bklv.search.forward_chunk is bklv.model.forward_chunk is bklv.forward_chunk
    finally:
        t.uninstall()
    assert bklv.model.attend_with_cache is original
    assert t.missing == []


def test_a_target_that_no_longer_exists_is_reported_not_fatal(bklv, monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "cache", ("append_and_evict", "no_such_function"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    summary = tracer.summarize([t.export()], 16)
    assert "cache.no_such_function" in t.missing
    assert tracer.unused_targets(summary, ["cache.append_and_evict"]) == [
        "cache.append_and_evict", "cache.no_such_function",
    ]


def test_readme_uniform_eval_steps_412_of_416_segments(bklv):
    """The tracer's segment split on the README corpus (ROADMAP's 412 of 416)."""
    model = bklv.init_model(bklv.ModelConfig(seed=common.MODEL_SEED))
    corpus = bklv.io.encode_bytes(common.readme_texts(common.DEFAULT_SEED)["corpus.txt"])
    plan = bklv.uniform_plan(model.config, common.COMPRESSION)
    t = tracer.Tracer()
    t.install()
    try:
        loss = bklv.chunked_perplexity(model, np.asarray(corpus), common.CONTEXT_LEN, plan)
    finally:
        t.uninstall()
    m = tracer.summarize([t.export()], model.config.num_layers * model.config.num_kv_heads).metrics
    assert f"{loss:.6f}" == "5.601348"
    assert (m["model.segments.single"], m["model.segments.batched"]) == (412, 4)
    assert m["cache.rows_appended"] == 4 * common.CONTEXT_LEN * 16
    # Each of the 4 chunks leaves every cache holding its full budget.
    assert m["cache.evicted_tokens"] == 4 * int((common.CONTEXT_LEN - plan.budgets).sum())
    assert m["cache.peak_fill_frac"] == 1.0
    assert m["search.plans.distinct"] == 1
