"""Run one workload of the bklv benchmark and print its result.

    python3 perfbench/run.py --workload cli-session|chunked-eval|decode|all \\
        --seed N --seconds S --trace 0|1

With --trace 0 the last stdout line holds every end-to-end metric of
BENCHMARK.json; with --trace 1 it holds every per-layer metric, taken from
traced passes that follow an untraced measurement. The line before it
records the environment, sample counts and any failed check.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import common  # noqa: E402

WORKLOADS = ("cli-session", "chunked-eval", "decode")
SETUP_REPS = 3


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _metric_specs() -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(bklv, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "cli-session":
        from perfbench import session

        return session.run(bklv, seed, seconds, trace, SETUP_REPS, _log)
    from perfbench import inproc

    return inproc.run(bklv, workload, seed, seconds, trace, SETUP_REPS)


def result_line(out: dict, units: dict, trace: bool) -> dict:
    values = out["layers"] if trace else out["metrics"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        # Layers a workload does not exercise report 0.
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_checkout()
    units = _metric_specs()[args.trace]
    bklv = common.import_bklv()
    common.WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        t0 = time.perf_counter()
        out = run_workload(bklv, workload, args.seed, args.seconds, bool(args.trace))
        _log(f"{workload}: {time.perf_counter() - t0:.1f} s, {out['failed']} of {out['attempted']} ops failed")
        for problem in out["problems"]:
            _log(f"{workload}: FAILED {problem}")
        info = {
            "workload": workload, "trace": args.trace, "seconds": args.seconds,
            "environment": common.environment(args.seed), "samples": out["samples"],
            "problems": out["problems"], "unused_targets": out.get("unused_targets", []),
            "speed": out.get("speed"), "unscaled_metrics": out.get("unscaled"),
        }
        common.emit({"perfbench_info": info})
        lines[workload] = result_line(out, units, bool(args.trace))
        if len(workloads) > 1:
            common.emit({"workload": workload, **lines[workload]})
    if len(workloads) == 1:
        common.emit(lines[workloads[0]])
    else:
        common.emit({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{name}": m for w, line in lines.items() for name, m in line["metrics"].items()},
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
