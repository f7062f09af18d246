"""Command-line surface tying the pipeline together:
init-model -> profile -> plan -> search -> eval -> sweep -> generate.

Validation failures exit nonzero with a machine-readable JSON error on
stderr; successful runs write nothing to stderr. Every command that
writes an artifact also writes a `<out>.manifest` recording checksums.
"""

import argparse
import itertools
import json
import math
import sys

from . import io
from .allocation import DEFAULT_SINKS, PlanParams, build_plan, require_valid
from .cache import build_cache_set, memory_report
from .config import ModelConfig
from .errors import AllocationError, BklvError, InputError
from .model import greedy_generate, init_model, model_checksum
from .profiling import profile_model, rank_correlation
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


def _manifest(args, out_path: str, files: dict[str, str]) -> None:
    io.write_manifest(out_path + ".manifest", args.argv, files)


def _read_profile_for(model, path: str):
    profile = io.read_profile(path)
    if profile.model_id != model_checksum(model):
        raise InputError(f"{path}: profile was made from a different model ({profile.model_id})")
    return profile


def _grid_values(text: str, name: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise BklvError(f"bad {name} grid {text!r}: {exc}") from exc


def cmd_init_model(args) -> int:
    cfg = ModelConfig(
        num_layers=args.num_layers,
        num_q_heads=args.num_q_heads,
        num_kv_heads=args.num_kv_heads,
        head_dim=args.head_dim,
        d_model=args.num_q_heads * args.head_dim,
        d_ff=args.d_ff,
        vocab_size=args.vocab_size,
        max_context=args.max_context,
        rope_theta=args.rope_theta,
        seed=args.seed,
    )
    model = init_model(cfg)
    io.write_model_file(model, args.out)
    _manifest(args, args.out, {"model": args.out})
    print(f"model: {args.out}")
    print(f"checksum: {model_checksum(model)}")
    return 0


def cmd_profile(args) -> int:
    model = io.read_model_file(args.model)
    prompts = []
    for path in args.prompt:
        with open(path, "rb") as fh:
            prompts.append(io.encode_bytes(fh.read()))
    profile = profile_model(model, prompts, keep_per_token=args.heatmap)
    sims = profile.prompt_head_similarity
    pairs = [
        {
            "a": profile.prompt_ids[i],
            "b": profile.prompt_ids[j],
            "per_layer_spearman": rank_correlation(sims[i], sims[j]).tolist(),
        }
        for i, j in itertools.combinations(range(len(prompts)), 2)
    ]
    io.write_profile(profile, args.out, {"prompt_consistency": pairs} if pairs else None)
    _manifest(args, args.out, {"model": args.model, "profile": args.out})
    print(f"profile: {args.out}")
    print(f"model_id: {profile.model_id}")
    return 0


def cmd_plan(args) -> int:
    profile = io.read_profile(args.profile)
    cfg = profile.config
    params = PlanParams(t=args.t, r=args.r, layer_t=args.layer_t, layer_r=args.layer_r)
    plan = build_plan(profile, cfg, args.strategy, args.compression, params, args.sinks)
    io.write_plan(plan, cfg, args.out)
    _manifest(args, args.out, {"profile": args.profile, "plan": args.out})
    print(f"plan: {args.out}")
    print(f"achieved_compression: {plan.achieved_compression(cfg):.6f}")
    return 0


def _heatmap_text(report) -> str:
    ts = sorted({p.t for p in report.grid})
    rs = sorted({p.r for p in report.grid})
    cells = {(p.t, p.r): p for p in report.grid}
    lines = ["r\\t   " + "  ".join(f"{t:7.3f}" for t in ts)]
    for r in rs:
        row = [f"{r:5.2f}"]
        for t in ts:
            p = cells.get((t, r))
            if p is None:
                row.append("      .")
            elif not p.feasible:
                row.append("    inf")
            else:
                row.append(f"{p.loss:7.4f}")
        lines.append("  ".join(row))
    return "\n".join(lines)


def cmd_search(args) -> int:
    model = io.read_model_file(args.model)
    profile = _read_profile_for(model, args.profile)
    corpus = io.load_corpus(args.corpus, model.config.vocab_size)
    context_len = model.config.max_context if args.context_len is None else args.context_len
    t_grid = _grid_values(args.t_grid, "t") if args.t_grid else list(DEFAULT_T_GRID)
    r_grid = _grid_values(args.r_grid, "r") if args.r_grid else list(DEFAULT_R_GRID)
    grid = [(t, r) for t in t_grid for r in r_grid]
    report = parameter_search(
        model,
        corpus.token_ids,
        context_len,
        args.compression,
        grid,
        profile,
        sinks=args.sinks,
        layer_t=args.layer_t,
        layer_r=args.layer_r,
    )
    io.write_search_report(report, args.out)
    _manifest(
        args,
        args.out,
        {"model": args.model, "profile": args.profile, "report": args.out},
    )
    if report.best is None:
        return _fail("no feasible grid point", [f"grid size {len(grid)}"])
    print(f"report: {args.out}")
    print(f"best_t: {report.best[0]}")
    print(f"best_r: {report.best[1]}")
    print(f"best_loss: {report.best_loss:.6f}")
    print(f"uniform_loss: {report.uniform_loss:.6f}")
    if args.heatmap:
        print(_heatmap_text(report))
    return 0


def cmd_eval(args) -> int:
    model = io.read_model_file(args.model)
    plan = require_valid(io.read_plan(args.plan), model.config)
    corpus = io.load_corpus(args.corpus, model.config.vocab_size)
    context_len = model.config.max_context if args.context_len is None else args.context_len
    memory = memory_report(plan, model.config, args.bytes_per_element)
    loss = chunked_perplexity(model, corpus.token_ids, context_len, plan)
    doc = io.eval_report_to_dict(loss, memory, plan, model.config)
    print(f"perplexity: {math.exp(loss):.6f}")
    print(f"loss: {loss:.6f}")
    print(f"total_bytes: {memory['total_bytes']}")
    print(f"achieved_compression: {memory['achieved_compression']:.6f}")
    if args.out:
        io.write_json(args.out, doc)
        _manifest(
            args, args.out, {"model": args.model, "plan": args.plan, "report": args.out}
        )
    return 0


def cmd_sweep(args) -> int:
    model = io.read_model_file(args.model)
    profile = _read_profile_for(model, args.profile) if args.profile else None
    corpus = io.load_corpus(args.corpus, model.config.vocab_size)
    context_len = model.config.max_context if args.context_len is None else args.context_len
    report = layer_sweep(
        model, corpus.token_ids, context_len, args.window, args.compression, args.sinks
    )
    correlation = None if profile is None else heuristic_vs_empirical(profile, report)
    io.write_sweep_report(report, args.out, correlation)
    files = {"model": args.model, "report": args.out}
    if args.profile:
        files["profile"] = args.profile
    _manifest(args, args.out, files)
    print(f"report: {args.out}")
    print(f"scores: {' '.join(f'{s:.4f}' for s in report.scores)}")
    if correlation is not None:
        print(f"correlation_full: {correlation.full:.4f}")
        print(f"correlation_trimmed: {correlation.trimmed:.4f}")
    return 0


def cmd_generate(args) -> int:
    model = io.read_model_file(args.model)
    plan = require_valid(io.read_plan(args.plan), model.config)
    if args.text is not None:
        prompt = io.encode_bytes(args.text.encode("utf-8"))
    else:
        with open(args.prompt, "rb") as fh:
            prompt = io.encode_bytes(fh.read())
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

    p = sub.add_parser("init-model", help="write a seeded toy weight file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-layers", type=int, default=4)
    p.add_argument("--num-q-heads", type=int, default=8)
    p.add_argument("--num-kv-heads", type=int, default=4)
    p.add_argument("--head-dim", type=int, default=16)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--vocab-size", type=int, default=257)
    p.add_argument("--max-context", type=int, default=512)
    p.add_argument("--rope-theta", type=float, default=10000.0)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("profile", help="estimate head, group, and layer importance")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", action="append", required=True, help="repeatable")
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", action="store_true", help="keep per-token similarities")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("plan", help="build a budget plan from a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--strategy", choices=("uniform", "layerwise", "baklava"), required=True)
    p.add_argument("--compression", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0, help="similarity threshold")
    p.add_argument("--r", type=float, default=0.0, help="reduction fraction")
    p.add_argument("--layer-t", type=float, default=0.0)
    p.add_argument("--layer-r", type=float, default=0.0)
    p.add_argument("--sinks", type=int, default=DEFAULT_SINKS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("search", help="grid-search (t, r) by chunked perplexity")
    p.add_argument("--model", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--corpus", action="append", required=True, help="repeatable")
    p.add_argument("--compression", type=float, required=True)
    p.add_argument("--context-len", type=int, default=None)
    p.add_argument("--t-grid", default=None, help="comma-separated similarity thresholds")
    p.add_argument("--r-grid", default=None, help="comma-separated reduction fractions")
    p.add_argument("--layer-t", type=float, default=0.0)
    p.add_argument("--layer-r", type=float, default=0.0)
    p.add_argument("--sinks", type=int, default=DEFAULT_SINKS)
    p.add_argument("--heatmap", action="store_true", help="print a text loss grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="chunked perplexity and memory for one plan")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--context-len", type=int, default=None)
    p.add_argument("--bytes-per-element", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="compress a sliding layer window and score each center")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--compression", type=float, required=True)
    p.add_argument("--context-len", type=int, default=None)
    p.add_argument("--sinks", type=int, default=DEFAULT_SINKS)
    p.add_argument("--profile", default=None, help="adds heuristic correlation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="greedy generation under a plan")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", default=None)
    group.add_argument("--prompt", default=None, help="prompt file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bytes-per-element", type=int, default=2)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in manifests
    try:
        return args.func(args)
    except AllocationError as exc:
        return _fail(str(exc), exc.violations)
    except BklvError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"i/o error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
