"""Spans and counters for the traced run.

`Tracer.install` wraps the public functions of each jrl layer at every
place they are bound, in any loaded module: `steps.py`, `coboundary.py`,
`identities.py`, `types.py` and `cli.py` import kernels and traces by name,
so patching only the defining module would miss most calls.  `Tracer.remove` puts every
original object back.  Nothing under src/ is changed on disk.

Each call records a span (id, name, start, end, parent id, op id) in
memory; self time is a span's duration minus the time its child spans
cover, which in one thread is the sum of the direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

KERNELS = (
    ("jrl.specfun.weierstrass", "weier_p"),
    ("jrl.specfun.weierstrass", "weier_p_twisted"),
    ("jrl.specfun.weierstrass", "weier_p_tilde"),
    ("jrl.specfun.weierstrass", "weier_p_deformed"),
    ("jrl.specfun.eisenstein", "eisenstein"),
    ("jrl.specfun.eisenstein", "eisenstein_twisted"),
    ("jrl.specfun.eisenstein", "eisenstein_tilde"),
    ("jrl.specfun.laurent", "laurent_coeffs_p1"),
)

# (defining module, function, span name)
TARGETS = tuple((mod, fn, f"specfun.{fn}") for mod, fn in KERNELS) + (
    ("jrl.voa.algebra", "enumerate_basis", "voa.enumerate_basis"),
    ("jrl.voa.algebra", "apply_mode", "voa.apply_mode"),
    ("jrl.voa.algebra", "zero_mode_operator", "voa.zero_mode_operator"),
    ("jrl.voa.squarebracket", "square_bracket_image", "voa.square_bracket_image"),
    ("jrl.voa.trace", "npoint_trace", "voa.npoint_trace"),
    ("jrl.voa.trace", "apply_field", "voa.apply_field"),
    ("jrl.voa.trace", "graded_trace", "voa.graded_trace"),
    ("jrl.voa.trace", "partition_function", "voa.partition_function"),
    ("jrl.reduction.types", "npoint_oracle", "reduction.npoint_oracle"),
    ("jrl.reduction.steps", "reduce_full", "reduction.reduce_full"),
    ("jrl.reduction.steps", "reduce_step", "reduction.reduce_step"),
    ("jrl.reduction.coboundary", "stage_contributions", "reduction.stage_contributions"),
    ("jrl.reduction.coboundary", "chain_condition_residual", "reduction.chain_condition_residual"),
    ("jrl.reduction.identities", "identity_rec1", "reduction.identity"),
    ("jrl.reduction.identities", "identity_zero_res", "reduction.identity"),
    ("jrl.reduction.identities", "identity_v0_sum", "reduction.identity"),
    ("jrl.cli", "eval_entry", "cli.eval_entry"),
    ("jrl.cli", "dump_report", "cli.dump_report"),
)

# lru caches read before and after each op: metric prefix -> (module, name)
CACHES = {
    "voa.kappa": ("jrl.voa.squarebracket", "_kappa_cached"),
    "reduction.working_module": ("jrl.reduction.types", "_cached_working_module"),
    "reduction.vacuum_module": ("jrl.reduction.types", "vacuum_module"),
}

ZERO_MODE_APPLY = "voa.zero_mode_operator.apply"


def _nonzero(tracer, name, args, out):
    tracer.counts[name + ".nonzero"] += not out.is_zero()
    return out


def _states_of_result(tracer, name, args, out):
    tracer.counts[name + ".states"] += out.dim
    return out


def _states_of_module(tracer, name, args, out):
    tracer.counts[name + ".states"] += args[0].dim
    return out


def _partition_repeat(tracer, name, args, out):
    module, tau, tw = args
    tracer.repeat(name, (id(module), module.dim, tau, tw))
    return out


def _kernel_repeat(tracer, name, args, out):
    tracer.repeat("specfun.kernel", repr((name, args)))
    return out


def _ledger(tracer, name, args, out):
    # count the ledger of each outermost reduction, not of its recursion
    if not tracer._stack or tracer._stack[-1][2] != name:
        for node in out[1].walk():
            tracer.counts["reduction.ledger.nodes"] += 1
            tracer.counts["reduction.ledger.leaves"] += node.is_leaf
    return out


def _wrap_operator(tracer, name, args, out):
    # the work of a zero mode happens when the returned operator is applied
    return tracer.wrap(out, ZERO_MODE_APPLY)


HOOKS = {
    "voa.apply_mode": _nonzero,
    "voa.apply_field": _nonzero,
    "voa.enumerate_basis": _states_of_result,
    "voa.npoint_trace": _states_of_module,
    "voa.graded_trace": _states_of_module,
    "voa.partition_function": _partition_repeat,
    "voa.zero_mode_operator": _wrap_operator,
    "reduction.reduce_full": _ledger,
    **{f"specfun.{fn}": _kernel_repeat for _, fn in KERNELS},
}


class Tracer:
    """Wrappers, spans and per-op counters for one traced run."""

    def __init__(self, span_limit: int = 100_000):
        self.span_limit = span_limit
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.patches: list[tuple] = []
        self._stack: list[list] = []  # [span id, time covered by children, name]
        self._next_id = 0
        self._seen: set = set()
        self._cache_before: dict = {}
        self.op = None

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, name):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0, name])
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child, _ = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer._record(span_id, name, start, end, parent, end - start - child)
            return hook(tracer, name, args, out) if hook else out

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id, name, start, end, parent, self_time):
        self.calls[name] += 1
        self.self_s[name] += self_time
        if len(self.spans) < self.span_limit:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def install(self) -> None:
        """Wrap every target at every binding in every loaded module."""
        for modname, fn, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for modname, fn, name in TARGETS:
            orig = getattr(sys.modules[modname], fn)
            wrapped = self.wrap(orig, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self.patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self.patches):
            setattr(mod, attr, orig)
        self.patches.clear()

    # -- per-op bookkeeping ---------------------------------------------

    def repeat(self, name: str, key) -> None:
        self.counts[name + ".calls"] += 1
        if (name, key) in self._seen:
            self.counts[name + ".repeats"] += 1
        else:
            self._seen.add((name, key))

    @staticmethod
    def _cache_info(prefix):
        modname, attr = CACHES[prefix]
        return getattr(sys.modules[modname], attr).cache_info()

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._seen.clear()
        self._cache_before = {p: self._cache_info(p) for p in CACHES}

    def end_op(self) -> None:
        for prefix, before in self._cache_before.items():
            after = self._cache_info(prefix)
            self.counts[prefix + ".hits"] += after.hits - before.hits
            self.counts[prefix + ".misses"] += after.misses - before.misses
        self.op = None

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics; a layer a workload never reaches reads 0."""
        c, t, n = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for _, fn in KERNELS:
            out[f"specfun.{fn}.calls"] = c[f"specfun.{fn}"]
            out[f"specfun.{fn}.self_s"] = t[f"specfun.{fn}"]
        out["specfun.kernel.repeat_ratio"] = ratio(n["specfun.kernel.repeats"], n["specfun.kernel.calls"])
        for name in ("voa.enumerate_basis", "voa.npoint_trace", "voa.graded_trace"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = t[name]
            out[f"{name}.states"] = n[f"{name}.states"]
        for name in ("voa.apply_mode", "voa.apply_field"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = t[name]
            out[f"{name}.nonzero_ratio"] = ratio(n[f"{name}.nonzero"], c[name])
        out["voa.zero_mode_operator.calls"] = c["voa.zero_mode_operator"]
        out["voa.zero_mode_operator.self_s"] = t["voa.zero_mode_operator"] + t[ZERO_MODE_APPLY]
        out["voa.square_bracket_image.calls"] = c["voa.square_bracket_image"]
        out["voa.square_bracket_image.self_s"] = t["voa.square_bracket_image"]
        out["voa.partition_function.calls"] = c["voa.partition_function"]
        out["voa.partition_function.repeat_ratio"] = ratio(
            n["voa.partition_function.repeats"], n["voa.partition_function.calls"]
        )
        out["reduction.npoint_oracle.calls"] = c["reduction.npoint_oracle"]
        for prefix in CACHES:
            hits = n[prefix + ".hits"]
            out[prefix + ".hit_ratio"] = ratio(hits, hits + n[prefix + ".misses"])
        for name in (
            "reduction.reduce_full",
            "reduction.reduce_step",
            "reduction.stage_contributions",
            "reduction.chain_condition_residual",
            "reduction.identity",
            "cli.eval_entry",
        ):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = t[name]
        out["reduction.ledger.nodes"] = n["reduction.ledger.nodes"]
        out["reduction.ledger.leaves"] = n["reduction.ledger.leaves"]
        out["cli.dump_report.self_s"] = t["cli.dump_report"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "dropped": self.dropped}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
