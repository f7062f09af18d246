"""Property tests of the plan and profile readers and of the CLI's error
contract, over valid documents with one field replaced, deleted or retyped,
and of the corpus reader over trees of files and directories.

A reader returns what its document says, every value of its documented
type, and the document is what the writer writes for the result; or it
raises a BklvError. Every plan the writer writes is read back. The CLI
exits 0 with nothing on stderr, or nonzero with exactly one JSON error
object on stderr.
"""

import contextlib
import json
import math
import os
import tempfile
from dataclasses import asdict, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    AllocationError,
    BklvError,
    FormatError,
    InputError,
    PlanParams,
    build_plan,
    init_model,
    io,
    profile_model,
    uniform_plan,
)
from bklv.allocation import STRATEGIES
from bklv.cli import main

from .conftest import SMALL
from .test_allocation import _plan_inputs

MODEL = init_model(SMALL)
PROFILE = profile_model(MODEL, [[256, *range(40)], [256, *range(60, 95)]])
PROFILE_DOC = io.profile_to_dict(PROFILE)
PLAN_DOC = io.plan_to_dict(build_plan(PROFILE, SMALL, "baklava", 0.5, PlanParams(t=0.7, r=0.3)), SMALL)
# every weight finite, so the reader accepts it, but each embedding entry's square overflows float32
SCALED = replace(MODEL, embedding=MODEL.embedding * np.float32(1e25))

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

# JSON integers just past int64, and past the largest float64
PAST_INT64 = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1))
PAST_FLOAT64 = st.one_of(st.integers(2**1024, 10**400), st.integers(-(10**400), -(2**1024)))


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
    @example(_with(PLAN_DOC, 2**70, "sinks"))
    @example(_with(PLAN_DOC, 10**400, "requested_compression"))
    @example(_with(PLAN_DOC, 5, "budget"))  # an unknown key
    @example(_with(_with(PLAN_DOC, 5, "budget"), 0.99, "achieved_compression"))
    @example(_with(PLAN_DOC, 0.99, "achieved_compression"))
    @example(_with(PLAN_DOC, 1, "params", "t"))  # 1 for a float
    def test_returns_what_the_document_says_or_raises(self, doc):
        plan = _read(lambda d: io.plan_from_dict(d, SMALL), doc)
        if plan is None:
            return
        assert io.dump_json(io.plan_to_dict(plan, SMALL)) == io.dump_json(doc)
        assert plan.strategy in STRATEGIES and plan.strategy == doc["strategy"]
        assert _same_number(plan.compression_ratio, doc["requested_compression"])
        assert doc["params"].keys() == asdict(plan.params).keys()
        for name, value in doc["params"].items():
            assert _same_number(getattr(plan.params, name), value)
        plan.params.check_for(plan.strategy)
        assert type(doc["sinks"]) is int and plan.sinks == doc["sinks"]
        assert all(type(b) is int for row in doc["budgets"] for b in row)
        assert plan.budgets.tolist() == doc["budgets"]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.tuples(st.sampled_from([("sinks",), ("budgets", 1, 0)]), st.just("int64"), PAST_INT64),
        st.tuples(st.just(("requested_compression",)), st.just("float64"), PAST_FLOAT64),
    ))
    @example((("budgets", 1, 0), "int64", 2**63))
    @example((("sinks",), "int64", -(2**63) - 1))
    def test_a_number_past_its_type_names_the_field_and_range(self, case):
        path, dtype, value = case
        with pytest.raises(FormatError, match=rf"^<memory>: malformed plan: {path[0]} must fit {dtype}, in \["):
            io.plan_from_dict(_with(PLAN_DOC, value, *path), SMALL)


def _read_back(plan, config):
    """`plan` after write_plan then read_plan, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        io.write_plan(plan, config, path)
        return io.read_plan(path, config)


def _assert_same_plan(got, plan):
    assert np.array_equal(got.budgets, plan.budgets) and got.budgets.dtype == np.int64
    assert (got.sinks, got.strategy, got.params) == (plan.sinks, plan.strategy, plan.params)
    assert got.compression_ratio == plan.compression_ratio


class TestPlanWriter:
    @settings(max_examples=200, deadline=None)
    @given(_plan_inputs(), st.sampled_from(STRATEGIES))
    def test_every_plan_build_plan_makes_is_read_back(self, inputs, strategy):
        config, profile, params, compression, sinks = inputs
        params = {"uniform": PlanParams(), "layerwise": replace(params, t=0.0, r=0.0)}.get(strategy, params)
        try:
            plan = build_plan(profile, config, strategy, compression, params, sinks)
        except AllocationError:  # below the floor
            return
        _assert_same_plan(_read_back(plan, config), plan)

    @pytest.mark.parametrize("compression", [1, 0.5])
    def test_a_uniform_plan_at_an_integer_or_float_compression_is_read_back(self, compression):
        plan = uniform_plan(SMALL, compression)
        _assert_same_plan(_read_back(plan, SMALL), plan)


class TestProfileReader:
    @settings(max_examples=300, deadline=None)
    @given(_mutated(PROFILE_DOC))
    @example(_with(PROFILE_DOC, "512", "config", "max_context"))
    @example(_with(PROFILE_DOC, 0, "config", "num_q_heads"))
    @example(_with(PROFILE_DOC, PROFILE_DOC["head_similarity"][:1], "head_similarity"))
    @example({k: v for k, v in PROFILE_DOC.items() if k != "config"} | {"config": {"seed": 3}})
    @example(_with(PROFILE_DOC, 10**400, "kv_importance", 0, 1))
    @example(_with(PROFILE_DOC, 5, "budget"))  # an unknown key
    @example(_with(PROFILE_DOC, 0, "kv_importance", 0, 0))  # 0 for a float
    @example(_with(PROFILE_DOC, 10000, "config", "rope_theta"))
    @example(_with(PROFILE_DOC, 10**400, "config", "rope_theta"))  # an int with no float
    def test_returns_what_the_document_says_or_raises(self, doc):
        profile = _read(io.profile_from_dict, doc)
        if profile is None:
            return
        assert io.dump_json(io.profile_to_dict(profile)) == io.dump_json(doc)
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([("head_similarity", 0, 1), ("kv_importance", 1, 0), ("layer_importance", 0)]),
        PAST_FLOAT64,
    )
    def test_a_number_past_float64_names_the_field_and_range(self, path, value):
        with pytest.raises(FormatError, match=rf"^<memory>: malformed profile: {path[0]} must fit float64, in \["):
            io.profile_from_dict(_with(PROFILE_DOC, value, *path))


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


def _run(argv: list[str], plan: dict, profile: dict, model=MODEL) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run in a fresh working
    directory, where an edited command line may also write."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        names = ("model", "corpus", "plan", "profile", "out", "missing")
        files = {name: str(Path(tmp) / name) for name in names}
        io.write_model_file(model, files["model"])
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


def _one_json_error(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1, err
    doc = json.loads(lines[0])
    assert set(doc) == {"error", "violations"}
    assert isinstance(doc["error"], str) and isinstance(doc["violations"], list)


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
            _one_json_error(err)


    @settings(max_examples=30, deadline=None)
    @given(_command_lines())
    @example(COMMANDS[4])
    @example(COMMANDS[6])
    def test_scaled_weights_exit_code_and_stderr(self, argv):
        """The model file holds SCALED: a command that runs it fails with the
        JSON error (the intact eval and generate lines at least), and no
        command warns on stderr."""
        code, err = _run(argv, PLAN_DOC, PROFILE_DOC, SCALED)
        if code == 0:
            assert err == ""
        else:
            _one_json_error(err)
        if argv in (COMMANDS[4], COMMANDS[6]):
            assert code == 1 and "non-finite arithmetic: overflow" in err, err


@st.composite
def _corpus_trees(draw):
    """(directories, files by path with their bytes, corpus arguments) under
    one root: nested directories, empty files, and a path that is missing."""
    dirs, files = {"."}, {}
    for _ in range(draw(st.integers(0, 6))):
        path = os.path.join(draw(st.sampled_from(sorted(dirs))), draw(st.sampled_from("abcd")))
        if path not in dirs and path not in files:
            if draw(st.booleans()):
                dirs.add(path)
            else:
                files[path] = draw(st.binary(max_size=12))
    args = draw(st.lists(st.sampled_from(sorted({*dirs, *files, "missing"})), min_size=1, max_size=3))
    return dirs, files, args


def _expected_corpus(dirs, files, args):
    """Each argument's files, a directory's direct ones in name order, as
    BOS-prefixed bytes; or the error type load_corpus raises."""
    if "missing" in args:
        return OSError
    docs = []
    for arg in args:
        in_dir = [files[p] for p in sorted(files) if os.path.dirname(p) == arg]
        docs += in_dir if arg in dirs else [files[arg]]
    return [i for data in docs for i in io.encode_bytes(data)] if docs else InputError


class TestCorpusReader:
    @settings(max_examples=60, deadline=None)
    @given(_corpus_trees())
    @example(({".", "./a", "./a/b"}, {"./a/b/c": b"x", "./b": b""}, ["."]))
    def test_returns_each_files_bytes_in_order_or_raises(self, tree):
        dirs, files, args = tree
        expected = _expected_corpus(dirs, files, args)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            model, plan = os.path.join(tmp, "model.bklv"), os.path.join(tmp, "plan.json")
            io.write_model_file(MODEL, model)
            io.write_plan(uniform_plan(SMALL, 1.0), SMALL, plan)
            os.mkdir(os.path.join(tmp, "tree"))
            os.chdir(os.path.join(tmp, "tree"))
            try:
                for path in sorted(dirs):
                    os.makedirs(path, exist_ok=True)
                for path, data in files.items():
                    Path(path).write_bytes(data)
                if isinstance(expected, list):
                    ids = io.load_corpus(args)
                    assert ids.dtype == np.int64 and ids.tolist() == expected
                else:
                    with pytest.raises(expected):
                        io.load_corpus(args)
                corpus = [a for arg in args for a in ("--corpus", arg)]
                err = StringIO()
                with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                    code = main(["eval", "--model", model, "--plan", plan, *corpus,
                                 "--context-len", "8", "--out", os.path.join(tmp, "eval.json")])
                wrote = os.path.exists(os.path.join(tmp, "eval.json"))
            finally:
                os.chdir(cwd)
        if isinstance(expected, list) and len(expected) >= 8:
            assert (code, err.getvalue(), wrote) == (0, "", True)
        else:
            assert (code, wrote) == (1, False)
            _one_json_error(err.getvalue())

    def test_unreadable_file(self, tmp_path, monkeypatch, capsys):
        # the superuser reads mode-000 files, so the refusal is simulated
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_bytes(b"a" * 20)
        (corpus / "b.txt").write_bytes(b"b" * 20)

        def refusing(path, *args, **kwargs):
            if os.path.basename(path) == "b.txt":
                raise PermissionError(13, "Permission denied", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(io, "open", refusing, raising=False)
        with pytest.raises(PermissionError):
            io.load_corpus([str(corpus)])
        io.write_model_file(MODEL, str(tmp_path / "m.bklv"))
        io.write_plan(uniform_plan(SMALL, 1.0), SMALL, str(tmp_path / "plan.json"))
        out = tmp_path / "eval.json"
        capsys.readouterr()
        code = main(["eval", "--model", str(tmp_path / "m.bklv"), "--plan", str(tmp_path / "plan.json"),
                     "--corpus", str(corpus), "--context-len", "8", "--out", str(out)])
        assert code == 1
        _one_json_error(capsys.readouterr().err)
        assert not out.exists()
