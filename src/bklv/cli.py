"""Command-line surface tying the pipeline together:
init-model -> profile -> plan -> search -> eval -> sweep -> generate.

Validation failures, and overflow or invalid arithmetic, exit nonzero with a JSON
error on stderr; successful runs write nothing to stderr. After a command succeeds
with `--out`, `main` writes `<out>.manifest` from the command's flags.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import io
from .allocation import DEFAULT_SINKS, STRATEGIES, PlanParams, build_plan
from .cache import build_cache_set, memory_report
from .config import ModelConfig
from .errors import BklvError, InputError
from .model import greedy_generate, init_model, model_checksum
from .profiling import profile_model
from .search import (
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    DEFAULT_WINDOW,
    chunked_perplexity,
    heuristic_vs_empirical,
    layer_sweep,
    parameter_search,
)


def _fail(message: str, violations: list[str] | None = None) -> int:
    print(
        json.dumps({"error": message, "violations": violations or []}, sort_keys=True),
        file=sys.stderr,
    )
    return 1


def _read_profile_for(model, path: str):
    """The profile at `path`, if both its model_id and its config are the model's."""
    profile = io.read_profile(path)
    if profile.model_id != model_checksum(model):
        raise InputError(f"{path}: profile was made from a different model ({profile.model_id})")
    mine, recorded = asdict(model.config), asdict(profile.config)
    differ = [name for name in mine if recorded[name] != mine[name]]
    if differ:
        raise InputError(f"{path}: profile config differs from the model's in {', '.join(differ)}")
    return profile


def _grid_values(text: str, name: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")] if text.strip() else []
    except ValueError as exc:
        raise BklvError(f"bad {name} grid {text!r}: {exc}") from exc


def _context_len(args, model) -> int:
    return model.config.max_context if args.context_len is None else args.context_len


def _window(args, model) -> int:
    """--window, or the widest odd window of at most DEFAULT_WINDOW layers that fits the model."""
    layers = model.config.num_layers
    return min(DEFAULT_WINDOW, layers - (layers + 1) % 2) if args.window is None else args.window


_INIT_FIELDS = [f for f in fields(ModelConfig) if f.name != "d_model"]  # init-model's flags


def cmd_init_model(args) -> int:
    given = {f.name: getattr(args, f.name) for f in _INIT_FIELDS}
    cfg = ModelConfig(**given, d_model=args.num_q_heads * args.head_dim)
    model = init_model(cfg)
    io.write_model_file(model, args.out)
    print(f"model: {args.out}")
    print(f"checksum: {model_checksum(model)}")
    return 0


def cmd_profile(args) -> int:
    model = io.read_model_file(args.model)
    prompts = [io.read_document(path) for path in args.prompt]
    profile = profile_model(model, prompts, keep_per_token=args.heatmap)
    io.write_profile(profile, args.out)
    print(f"profile: {args.out}")
    print(f"model_id: {profile.model_id}")
    return 0


def cmd_plan(args) -> int:
    profile = io.read_profile(args.profile)
    cfg = profile.config
    params = PlanParams(t=args.t, r=args.r, layer_t=args.layer_t, layer_r=args.layer_r)
    plan = build_plan(profile, cfg, args.strategy, args.compression, params, args.sinks)
    io.write_plan(plan, cfg, args.out)
    print(f"plan: {args.out}")
    print(f"achieved_compression: {plan.achieved_compression(cfg):.6f}")
    return 0


def _heatmap_text(report: dict) -> str:
    ts = sorted({p["t"] for p in report["grid"]})
    rs = sorted({p["r"] for p in report["grid"]})
    loss = {(p["t"], p["r"]): p["loss"] for p in report["grid"]}
    lines = ["r\\t   " + "  ".join(f"{t:7.3f}" for t in ts)]
    for r in rs:
        lines.append("  ".join([f"{r:5.2f}"] + [f"{loss[t, r]:7.4f}" for t in ts]))
    return "\n".join(lines)


def cmd_search(args) -> int:
    model = io.read_model_file(args.model)
    profile = _read_profile_for(model, args.profile)
    corpus = io.load_corpus(args.corpus)
    t_grid, r_grid = _grid_values(args.t_grid, "t"), _grid_values(args.r_grid, "r")
    grid = [(t, r) for t in t_grid for r in r_grid]
    report = parameter_search(
        model, corpus, _context_len(args, model), args.compression, grid, profile,
        sinks=args.sinks, layer_t=args.layer_t, layer_r=args.layer_r,
    )
    io.write_json(args.out, {"format_version": io.SEARCH_VERSION, **report})
    print(f"report: {args.out}")
    print(f"best_t: {report['best']['t']}")
    print(f"best_r: {report['best']['r']}")
    print(f"best_loss: {report['best_loss']:.6f}")
    print(f"uniform_loss: {report['uniform_loss']:.6f}")
    if args.heatmap:
        print(_heatmap_text(report))
    return 0


def cmd_eval(args) -> int:
    model = io.read_model_file(args.model)
    plan = io.read_plan(args.plan, model.config)
    corpus = io.load_corpus(args.corpus)
    memory = memory_report(plan, model.config, args.bytes_per_element)
    loss = chunked_perplexity(model, corpus, _context_len(args, model), plan)
    print(f"perplexity: {math.exp(loss):.6f}")
    print(f"loss: {loss:.6f}")
    print(f"total_bytes: {memory['total_bytes']}")
    print(f"achieved_compression: {memory['achieved_compression']:.6f}")
    if args.out:
        io.write_json(args.out, {
            "format_version": io.EVAL_VERSION, "loss": loss, "perplexity": math.exp(loss),
            "strategy": plan.strategy, "requested_compression": plan.compression_ratio,
            "achieved_compression": memory["achieved_compression"], "memory": memory,
        })
    return 0


def cmd_sweep(args) -> int:
    model = io.read_model_file(args.model)
    profile = _read_profile_for(model, args.profile) if args.profile else None
    corpus = io.load_corpus(args.corpus)
    report = layer_sweep(model, corpus, _context_len(args, model), _window(args, model), args.compression, args.sinks)
    if profile is not None:
        report["correlation"] = heuristic_vs_empirical(profile, report)
    io.write_json(args.out, {"format_version": io.SWEEP_VERSION, **report})
    print(f"report: {args.out}")
    print(f"scores: {' '.join(f'{s:.4f}' for s in report['scores'])}")
    if profile is not None:
        print(f"correlation_full: {report['correlation']['full']:.4f}")
        print(f"correlation_trimmed: {report['correlation']['trimmed']:.4f}")
    return 0


def cmd_generate(args) -> int:
    model = io.read_model_file(args.model)
    plan = io.read_plan(args.plan, model.config)
    if args.text is not None:
        prompt = io.encode_bytes(os.fsencode(args.text))  # argv's own bytes: fsencode undoes its decoding
    else:
        prompt = io.read_document(args.prompt)
    memory = memory_report(plan, model.config, args.bytes_per_element)
    out_ids = greedy_generate(model, prompt, args.steps, build_cache_set(plan, model.config))
    text = io.decode_ids(out_ids).decode("utf-8", errors="replace")
    print(text)
    print(f"generated_tokens: {len(out_ids)}")
    print(f"total_bytes: {memory['total_bytes']}")
    print(f"achieved_compression: {memory['achieved_compression']:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subcommands too, follow the JSON contract; exit 2."""

    def error(self, message):
        _fail(message)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bklv",
        description="Budgeted KV-cache allocation lab for a toy decoder-only transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share; --out, --profile, --prompt and --heatmap differ by command
    model, corpus, plan, compression, sinks, layer = (_Parser(add_help=False) for _ in range(6))
    model.add_argument("--model", required=True)
    corpus.add_argument("--corpus", action="append", required=True, help="repeatable")
    corpus.add_argument("--context-len", type=int, default=None)
    plan.add_argument("--plan", required=True)
    plan.add_argument("--bytes-per-element", type=int, default=2)
    compression.add_argument("--compression", type=float, required=True)
    sinks.add_argument("--sinks", type=int, default=DEFAULT_SINKS)
    layer.add_argument("--layer-t", type=float, default=0.0)
    layer.add_argument("--layer-r", type=float, default=0.0)

    p = sub.add_parser("init-model", help="write a seeded toy weight file")
    p.add_argument("--out", required=True)
    for f in _INIT_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("profile", parents=[model], help="estimate head, group, and layer importance")
    p.add_argument("--prompt", action="append", required=True, help="repeatable")
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", action="store_true", help="keep per-token similarities")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("plan", parents=[compression, layer, sinks], help="build a budget plan from a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--t", type=float, default=0.0, help="similarity threshold")
    p.add_argument("--r", type=float, default=0.0, help="reduction fraction")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("search", parents=[model, corpus, compression, layer, sinks],
                       help="grid-search (t, r) by chunked perplexity")
    p.add_argument("--profile", required=True)
    p.add_argument("--t-grid", default=",".join(map(str, DEFAULT_T_GRID)), help="comma-separated similarity thresholds")
    p.add_argument("--r-grid", default=",".join(map(str, DEFAULT_R_GRID)), help="comma-separated reduction fractions")
    p.add_argument("--heatmap", action="store_true", help="print a text loss grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", parents=[model, plan, corpus], help="chunked perplexity and memory for one plan")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[model, corpus, compression, sinks],
                       help="compress a sliding layer window and score each center")
    p.add_argument("--window", type=int, default=None, help=f"odd; default: the widest that fits, at most {DEFAULT_WINDOW}")
    p.add_argument("--profile", default=None, help="adds heuristic correlation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", parents=[model, plan], help="greedy generation under a plan")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", default=None)
    group.add_argument("--prompt", default=None, help="prompt file")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    return parser


# manifest roles: the input flags, and each command's --out ("report" if not listed)
_INPUT_ROLES = ("model", "profile", "plan", "corpus", "prompt")
_OUTPUT_ROLES = {"init-model": "model", "profile": "profile", "plan": "plan"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    paths = {role: getattr(args, role) for role in _INPUT_ROLES if getattr(args, role, None)}
    try:
        # hashed before the command runs, so an --out that overwrites an input is not read back
        inputs = io.file_entries(paths) if out else {}
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is by design
            code = args.func(args)
        if code == 0 and out:
            outputs = io.file_entries({_OUTPUT_ROLES.get(args.command, "report"): out})
            io.write_manifest(out + ".manifest", argv, {**inputs, **outputs})
        return code
    except BklvError as exc:
        return _fail(str(exc), exc.violations)
    except OSError as exc:
        return _fail(f"i/o error: {exc}")
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}")
    except FloatingPointError as exc:
        return _fail(f"non-finite arithmetic: {exc}")


if __name__ == "__main__":
    sys.exit(main())
