"""Layer tracing from outside the program.

The tracer replaces public functions of the `bklv` modules with wrappers
that record one span per call: name, start, end, parent span, op id and a
small tuple of counts taken from the call's arguments. Spans stay in
memory in column lists and are exported once, when the run ends.

Modules such as `bklv.model` import names with `from .cache import f`, so
a wrapper set only on the defining module would see no calls. `install`
therefore replaces every binding of the original function object in every
loaded `bklv` module, including the package namespace.

This module imports nothing from numpy or bklv, so the traced CLI
bootstrap can load it before `import bklv` is timed.
"""

import hashlib
import sys
import time
from array import array
from dataclasses import dataclass

# Layer -> public functions wrapped in it. `io` is discovered at install
# time (every public read_*, write_* and load_* function).
TARGETS = {
    "cache": ("append_and_evict", "attend_with_cache"),
    "model": ("forward_chunk", "rope_rotate", "rms_norm"),
    "search": ("chunked_perplexity", "parameter_search", "layer_sweep"),
    "allocation": ("build_plan",),
    "profiling": ("profile_model", "spearman"),
}
IO_PREFIXES = ("read_", "write_", "load_")
HOOK_ERRORS = (AttributeError, TypeError, IndexError, ValueError)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Count hooks: `before` runs ahead of the call, `after` builds the span's
# counts tuple once it returns.

def _append_before(args, kwargs):
    return _arg(args, kwargs, 0, "cache").retained


def _append_after(args, kwargs, retained_before):
    cache = _arg(args, kwargs, 0, "cache")
    rows = len(_arg(args, kwargs, 1, "k_new"))
    row_bytes = cache.keys.itemsize * cache.head_dim * 2 + cache.positions.itemsize
    return (rows, retained_before, cache.retained, cache.budget, row_bytes)


def _attend_before(args, kwargs):
    return len(_arg(args, kwargs, 1, "q")) * _arg(args, kwargs, 0, "cache").retained


def _forward_before(args, kwargs):
    return len(_arg(args, kwargs, 1, "tokens"))


def _plan_key(args, kwargs):
    plan = _arg(args, kwargs, 3, "plan")
    return f"{plan.sinks}:{hashlib.sha256(plan.budgets.tobytes()).hexdigest()}"


def _keep(args, kwargs, value):
    return value


HOOKS = {
    "cache.append_and_evict": (_append_before, _append_after),
    "cache.attend_with_cache": (_attend_before, _keep),
    "model.forward_chunk": (_forward_before, _keep),
    "search.chunked_perplexity": (_plan_key, _keep),
}


class Tracer:
    """In-memory span recorder. One instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: list = []
        self.stack = [-1]
        self.op_id = -1
        self.missing: list[str] = []
        self.hook_failures: set[str] = set()
        self._patches: list = []

    def open(self, name: str, counts=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.counts.append(counts)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        tracer, names, parent, op, counts = self, self.names, self.parent, self.op, self.counts
        start, end, stack, perf = self.start, self.end, self.stack, time.perf_counter

        def call_hook(hook, *args):
            try:
                return hook(*args)
            except HOOK_ERRORS:
                tracer.hook_failures.add(name)
                return None

        def wrapper(*args, **kwargs):
            # Tracer.open and Tracer.close, inlined: this runs on every call.
            pre = call_hook(before, args, kwargs) if before else None
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            counts.append(None)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf()
                stack.pop()
                counts[idx] = ("raised", type(exc).__name__)
                raise
            end[idx] = perf()
            stack.pop()
            if after:
                counts[idx] = call_hook(after, args, kwargs, pre)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded bklv module binding it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bklv" or n.startswith("bklv.")]
        targets = dict(TARGETS)
        io = sys.modules.get("bklv.io")
        if io is not None:
            targets["io"] = tuple(
                n for n, v in vars(io).items()
                if n.startswith(IO_PREFIXES) and callable(v) and getattr(v, "__module__", "") == "bklv.io"
            )
        for layer, funcs in targets.items():
            home = sys.modules.get(f"bklv.{layer}")
            for func in funcs:
                original = getattr(home, func, None) if home is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{func}")
                    continue
                wrapper = self.wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def export(self) -> dict:
        return {
            "names": self.names,
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "counts": [list(c) if isinstance(c, tuple) else c for c in self.counts],
            "missing": self.missing,
            "hook_failures": sorted(self.hook_failures),
        }


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: dict) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    children: dict[int, list] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((max(start[i], start[p]), min(end[i], end[p])))
    return [
        (end[i] - start[i]) - union_length(children.get(i, ()))
        for i in range(len(start))
    ]


def covered(spans: dict) -> float:
    """Wall time covered by at least one top-level span."""
    return union_length(
        (s, e) for s, e, p in zip(spans["start"], spans["end"], spans["parent"]) if p < 0
    )


def _is_io(name: str) -> bool:
    return name.startswith("io.")


@dataclass
class Summary:
    metrics: dict  # per-layer metric name -> value
    calls: dict  # span name -> number of spans
    missing: set  # targets absent from the program, or whose count hook failed
    covered_s: float  # wall time under at least one top-level span


def summarize(span_sets, num_caches: int) -> Summary:
    """Per-layer metrics over the spans of one or more traced processes.

    `span_sets` is an iterable of `Tracer.export()` dicts, read once, so a
    caller can load one process's spans at a time. Counts and seconds add
    up across processes. Distinct plans are counted within each process,
    since only a process can reuse its own work.
    """
    missing: set = set()
    covered_s = 0.0
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    m = {
        "rows": 0, "evicted": 0, "bytes": 0, "peak_fill": 0.0, "single": 0, "batched": 0,
        "score_elems": 0, "tokens": 0, "distinct": 0, "infeasible": 0,
        "io_read": 0.0, "io_write": 0.0, "io_calls": 0,
    }
    for spans in span_sets:
        names, start, end, parent, counts = (
            spans[k] for k in ("names", "start", "end", "parent", "counts")
        )
        selfs = self_times(spans)
        missing.update(spans["missing"], spans["hook_failures"])
        covered_s += covered(spans)
        plans = set()
        for i, name in enumerate(names):
            dur = end[i] - start[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + selfs[i]
            if _is_io(name) and not (parent[i] >= 0 and _is_io(names[parent[i]])):
                m["io_calls"] += 1
                m["io_write" if name.startswith("io.write_") else "io_read"] += dur
            c = counts[i]
            if isinstance(c, list) and c and c[0] == "raised":
                if name == "allocation.build_plan" and c[1] == "AllocationError":
                    m["infeasible"] += 1
                continue
            if name == "cache.append_and_evict" and c:
                rows, before, after, budget, row_bytes = c
                evicted = before + rows - after
                m["rows"] += rows
                m["evicted"] += evicted
                m["bytes"] += (before + rows) * row_bytes + (after * row_bytes if evicted else 0)
                m["peak_fill"] = max(m["peak_fill"], after / budget)
                m["single" if rows == 1 else "batched"] += 1
            elif name == "cache.attend_with_cache" and c is not None:
                m["score_elems"] += c
            elif name == "model.forward_chunk" and c is not None:
                m["tokens"] += c
            elif name == "search.chunked_perplexity" and c is not None:
                plans.add(c)
        m["distinct"] += len(plans)

    def n(name):
        return calls.get(name, 0)

    cp_calls = n("search.chunked_perplexity")
    metrics = {
        "cache.attend_with_cache.calls": n("cache.attend_with_cache"),
        "cache.attend_with_cache.s": total.get("cache.attend_with_cache", 0.0),
        "cache.append_and_evict.calls": n("cache.append_and_evict"),
        "cache.append_and_evict.s": total.get("cache.append_and_evict", 0.0),
        "cache.rows_appended": m["rows"],
        "cache.evicted_tokens": m["evicted"],
        "cache.bytes_copied": m["bytes"],
        "cache.attend.score_elems": m["score_elems"],
        "cache.peak_fill_frac": m["peak_fill"],
        "model.forward_chunk.calls": n("model.forward_chunk"),
        "model.forward_chunk.tokens": m["tokens"],
        "model.forward_chunk.self_s": own.get("model.forward_chunk", 0.0),
        "model.segments.batched": m["batched"] / num_caches,
        "model.segments.single": m["single"] / num_caches,
        "model.rope_rotate.s": total.get("model.rope_rotate", 0.0),
        "model.rms_norm.s": total.get("model.rms_norm", 0.0),
        "search.chunked_perplexity.calls": cp_calls,
        "search.chunked_perplexity.self_s": own.get("search.chunked_perplexity", 0.0),
        "search.plans.distinct": m["distinct"],
        "search.plans.useful_frac": m["distinct"] / cp_calls if cp_calls else 0.0,
        "search.parameter_search.s": total.get("search.parameter_search", 0.0),
        "search.layer_sweep.s": total.get("search.layer_sweep", 0.0),
        "allocation.build_plan.calls": n("allocation.build_plan"),
        "allocation.build_plan.s": total.get("allocation.build_plan", 0.0),
        "allocation.infeasible": m["infeasible"],
        "profiling.profile_model.calls": n("profiling.profile_model"),
        "profiling.profile_model.self_s": own.get("profiling.profile_model", 0.0),
        "profiling.spearman.calls": n("profiling.spearman"),
        "profiling.spearman.s": total.get("profiling.spearman", 0.0),
        "io.read_s": m["io_read"],
        "io.write_s": m["io_write"],
        "io.calls": m["io_calls"],
    }
    return Summary(metrics, calls, missing, covered_s)


# Counters that depend only on the inputs and the code, never on timing.
DETERMINISTIC = (
    "cache.append_and_evict.calls", "cache.attend_with_cache.calls", "cache.rows_appended",
    "cache.evicted_tokens", "cache.bytes_copied", "cache.attend.score_elems",
    "cache.peak_fill_frac", "model.forward_chunk.calls", "model.forward_chunk.tokens",
    "model.segments.batched", "model.segments.single", "search.chunked_perplexity.calls",
    "search.plans.distinct", "allocation.build_plan.calls", "allocation.infeasible",
    "profiling.profile_model.calls", "profiling.spearman.calls", "io.calls",
)


def unused_targets(summary: Summary, expected) -> list[str]:
    """Expected targets that recorded no call, do not exist, or could not be counted.

    A layer name on its own (such as "io") stands for any target in it.
    """
    def used(target):
        if "." in target:
            return summary.calls.get(target, 0) > 0
        return any(name.startswith(target + ".") for name in summary.calls)

    return sorted({t for t in expected if not used(t)} | summary.missing)
