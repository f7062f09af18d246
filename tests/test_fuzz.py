"""Property tests of the plan and profile readers and of the CLI's error
contract, over valid documents with one field replaced, deleted or retyped.

A reader returns what its document says, every value of its documented
type, or raises a BklvError. The CLI exits 0 with nothing on stderr, or
nonzero with exactly one JSON error object on stderr.
"""

import contextlib
import json
import math
import os
import tempfile
from dataclasses import asdict
from io import StringIO
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import BklvError, PlanParams, build_plan, init_model, io, profile_model
from bklv.cli import main

from .conftest import SMALL

MODEL = init_model(SMALL)
PROFILE = profile_model(MODEL, [[256, *range(40)], [256, *range(60, 95)]])
PROFILE_DOC = io.profile_to_dict(PROFILE)
PLAN_DOC = io.plan_to_dict(build_plan(PROFILE, SMALL, "baklava", 0.5, PlanParams(t=0.7, r=0.3)), SMALL)
STRATEGIES = ("uniform", "layerwise", "baklava", "window")

JUNK = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.recursive(st.integers(-3, 3) | st.floats(-2, 2), lambda kids: st.lists(kids, max_size=3)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _copy(doc):
    return json.loads(json.dumps(doc))


def _with(doc, value, *path):
    """doc with the field at `path` set to `value`."""
    doc = _copy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def _mutated(draw, doc):
    """doc with one field, at any depth, replaced by junk or deleted."""
    doc = _copy(doc)
    node = doc
    while isinstance(node, (dict, list)) and node and (node is doc or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JUNK)
    return doc


def _read(reader, doc):
    try:
        return reader(doc)
    except BklvError:
        return None


def _same_number(got, want) -> bool:
    return type(want) in (int, float) and (got == want or got == float(want) or math.isnan(want))


class TestPlanReader:
    @settings(max_examples=300, deadline=None)
    @given(_mutated(PLAN_DOC))
    @example(_with(PLAN_DOC, "0.3", "requested_compression"))
    @example(_with(PLAN_DOC, 7, "strategy"))
    @example(_with(PLAN_DOC, "abc", "params", "t"))
    @example([PLAN_DOC])  # not a JSON object
    def test_returns_what_the_document_says_or_raises(self, doc):
        plan = _read(io.plan_from_dict, doc)
        if plan is None:
            return
        assert plan.strategy in STRATEGIES and plan.strategy == doc["strategy"]
        assert _same_number(plan.compression_ratio, doc["requested_compression"])
        assert doc["params"].keys() == asdict(plan.params).keys()
        for name, value in doc["params"].items():
            assert _same_number(getattr(plan.params, name), value)
        plan.params.validate()
        assert type(doc["sinks"]) is int and plan.sinks == doc["sinks"]
        assert all(type(b) is int for row in doc["budgets"] for b in row)
        assert plan.budgets.tolist() == doc["budgets"]


class TestProfileReader:
    @settings(max_examples=300, deadline=None)
    @given(_mutated(PROFILE_DOC))
    @example(_with(PROFILE_DOC, "512", "config", "max_context"))
    @example(_with(PROFILE_DOC, 0, "config", "num_q_heads"))
    @example(_with(PROFILE_DOC, PROFILE_DOC["head_similarity"][:1], "head_similarity"))
    @example({k: v for k, v in PROFILE_DOC.items() if k != "config"} | {"config": {"seed": 3}})
    def test_returns_what_the_document_says_or_raises(self, doc):
        profile = _read(io.profile_from_dict, doc)
        if profile is None:
            return
        cfg = profile.config
        cfg.validate()
        assert asdict(cfg) == doc["config"]
        layers = cfg.num_layers
        assert profile.head_similarity.shape == (layers, cfg.num_q_heads)
        assert profile.kv_importance.shape == (layers, cfg.num_kv_heads)
        assert profile.layer_importance.shape == (layers,)
        for name in ("head_similarity", "kv_importance", "layer_importance"):
            assert np.array_equal(getattr(profile, name), np.array(doc[name], np.float64))
        assert type(doc["model_id"]) is str and profile.model_id == doc["model_id"]
        assert all(type(p) is str for p in doc["prompt_ids"]) and profile.prompt_ids == doc["prompt_ids"]


# One valid command line per subcommand, on the small model; {name} is a
# file in the run's directory.
COMMANDS = [
    ["init-model", "--out", "{out}", "--num-layers", "2", "--max-context", "64"],
    ["profile", "--model", "{model}", "--prompt", "{corpus}", "--out", "{out}"],
    ["plan", "--profile", "{profile}", "--strategy", "baklava", "--compression", "0.5",
     "--t", "0.7", "--r", "0.3", "--out", "{out}"],
    ["search", "--model", "{model}", "--profile", "{profile}", "--corpus", "{corpus}",
     "--compression", "0.5", "--context-len", "48", "--t-grid", "0.7", "--r-grid", "0.3",
     "--out", "{out}"],
    ["eval", "--model", "{model}", "--plan", "{plan}", "--corpus", "{corpus}",
     "--context-len", "48", "--out", "{out}"],
    ["sweep", "--model", "{model}", "--corpus", "{corpus}", "--window", "1",
     "--compression", "0.5", "--context-len", "48", "--profile", "{profile}", "--out", "{out}"],
    ["generate", "--model", "{model}", "--plan", "{plan}", "--text", "ab", "--steps", "3"],
]
# small values only: a valid init-model must not allocate a large model
TOKENS = st.sampled_from(
    ["--out", "--seed", "--rope-theta", "--steps", "--compression", "--strategy", "--t",
     "--context-len", "--window", "--no-such-flag", "--help", "bogus", "-inf", "nan", "abc",
     "", "0", "-1", "1", "0.5", "uniform", "{plan}", "{profile}", "{missing}"]
)


@st.composite
def _command_lines(draw):
    """A command line with up to three tokens dropped, replaced or inserted."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["drop", "replace", "insert"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(TOKENS))
        elif edit == "drop":
            del argv[i]
        else:
            argv[i] = draw(TOKENS)
    return argv


def _run(argv: list[str], plan: dict, profile: dict) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run in a fresh working
    directory, where an edited command line may also write."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        names = ("model", "corpus", "plan", "profile", "out", "missing")
        files = {name: str(Path(tmp) / name) for name in names}
        io.write_model_file(MODEL, files["model"])
        Path(files["corpus"]).write_bytes(bytes(range(40, 240)))
        io.write_json(files["plan"], plan)
        io.write_json(files["profile"], profile)
        err = StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                code = main([token.format(**files) for token in argv])
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
        finally:
            os.chdir(cwd)
        return code, err.getvalue()


class TestCliContract:
    @settings(max_examples=60, deadline=None)
    @given(_command_lines(), st.one_of(st.just(PLAN_DOC), _mutated(PLAN_DOC)),
           st.one_of(st.just(PROFILE_DOC), _mutated(PROFILE_DOC)))
    @example(["init-model", "--out", "{out}", "--rope-theta", "-inf"], PLAN_DOC, PROFILE_DOC)
    @example(COMMANDS[-1][:-1] + ["abc"], PLAN_DOC, PROFILE_DOC)
    @example(COMMANDS[2], PLAN_DOC, _with(PROFILE_DOC, 10**30, "config", "max_context"))
    def test_exit_code_and_stderr(self, argv, plan, profile):
        code, err = _run(argv, plan, profile)
        if code == 0:
            assert err == ""
        else:
            lines = err.splitlines()
            assert len(lines) == 1, err
            doc = json.loads(lines[0])
            assert set(doc) == {"error", "violations"}
            assert isinstance(doc["error"], str) and isinstance(doc["violations"], list)
