"""Span recorder and per-layer report for the traced benchmark run.

The recorder wraps planact functions and methods from outside the package:
a function is replaced in every planact module that binds it, a method on its
class.  Each wrapped call records a span ``[name, start, end, parent, phase,
extra]`` in memory; ``extra`` holds counts taken at the boundary (autodiff
nodes of a returned tensor, items in an embedder request, positions fed to the
language model).  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

SETUP, TIMED = 0, 1


def graph_nodes(tensor) -> int:
    """Autodiff nodes reachable from ``tensor`` through recorded parents, itself included."""
    seen: set[int] = set()
    stack = [tensor]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


def _result_nodes(args, kwargs, out) -> dict:
    return {"nodes": graph_nodes(out)}


def _self_nodes(args, kwargs, out) -> dict:
    return {"nodes": graph_nodes(args[0])}


def _lm_positions(args, kwargs, out) -> dict:
    return {"nodes": graph_nodes(out), "positions": len(args[1])}


def _request_items(args, kwargs, out) -> dict:
    return {"items": len(args[2])}


# (span name, module, attribute path, counts taken at the boundary)
TARGETS = (
    ("tensor.backward", "planact.tensor", "Tensor.backward", _self_nodes),
    ("tensor.gelu", "planact.tensor", "gelu", None),
    ("tensor.layer_norm", "planact.tensor", "layer_norm", None),
    ("tensor.softmax", "planact.tensor", "softmax", None),
    ("tensor.unfold_windows", "planact.tensor", "unfold_windows", None),
    ("nn.attention", "planact.nn", "MultiHeadAttention.__call__", None),
    ("nn.block", "planact.nn", "TransformerBlock.__call__", None),
    ("vision.encode_image", "planact.vision", "VisualEncoder.encode_image", None),
    ("bridge.extract", "planact.bridge", "QueryBridge.extract", None),
    ("policy.forward", "planact.policy", "ControlModel.forward", _result_nodes),
    ("policy.policy_logits", "planact.policy", "ControlModel.policy_logits", None),
    ("policy.global_enc", "planact.policy", "GlobalEncoder.__call__", None),
    ("policy.head", "planact.policy", "PolicyHead.__call__", None),
    ("policy.bc_train", "planact.policy", "bc_train", None),
    ("optim.step", "planact.optim", "AdamW.step", None),
    ("gridworld.env_step", "planact.gridworld", "GoalGridEnv.step", None),
    ("gridworld.expert", "planact.gridworld", "expert_action_toward", None),
    ("lm.forward", "planact.lm", "MicroLm.forward", _lm_positions),
    ("sampling.sample_token", "planact.sampling", "sample_token", None),
    ("sampling.generate", "planact.sampling", "generate", None),
    ("embedder.request", "planact.embedder", "RemoteEmbedder._post", _request_items),
    ("pipeline.build_dataset", "planact.pipeline", "build_dataset", None),
    ("pipeline.ingest", "planact.pipeline", "ingest", None),
    ("pipeline.stage1", "planact.pipeline", "stage1_filter", None),
    ("pipeline.select_best", "planact.pipeline", "select_best_candidate", None),
    ("pipeline.stage2", "planact.pipeline", "stage2_filter", None),
    ("annotate.candidates", "planact.annotate", "synthetic_candidates", None),
    ("plans.parse", "planact.plans", "parse_plan", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextmanager
def patched(module: str, path: str, make_wrapper):
    """Replace a planact function or method by ``make_wrapper(original)`` for the block.

    A method is patched on its class; a function in every loaded module that
    binds it under its own name, so calls through ``from x import f`` are seen
    too, the benchmark's own included.
    """
    owner, attr, original = _resolve(module, path)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [owner]
    else:
        sites = [mod for mod in list(sys.modules.values())
                 if getattr(mod, "__dict__", {}).get(attr) is original]
    for site in sites:
        setattr(site, attr, wrapper)
    try:
        yield
    finally:
        for site in sites:
            setattr(site, attr, original)


class Tracer:
    """In-memory span recorder; records calls made on the thread that created it."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = SETUP
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, phase: int):
        """Wrap every target for the duration of the block, tagging spans with ``phase``."""
        self.phase = phase
        with ExitStack() as stack:
            for name, module, path, counts in TARGETS:
                stack.enter_context(
                    patched(module, path, functools.partial(self.wrap, name, counts=counts))
                )
            yield

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[list], ops: int, timed_wall: float) -> dict[str, float]:
    """Per-layer report over a traced run.

    ``_ms`` metrics are mean inclusive milliseconds per call over every traced
    phase; ``_calls`` and ``_self_ms`` are per workload operation over the
    timed phase; ``_share`` metrics divide by the timed wall.
    """
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name, timed_only=False):
        return [i for i in by_name.get(name, []) if not timed_only or spans[i][4] == TIMED]

    def durs(name, timed_only=False):
        return [spans[i][2] - spans[i][1] for i in idx(name, timed_only)]

    def mean_ms(name):
        d = durs(name)
        return 1000.0 * sum(d) / len(d) if d else 0.0

    def per_op(name):
        return _ratio(len(idx(name, True)), ops)

    def self_ms_per_op(name):
        return _ratio(1000.0 * sum(own[i] for i in idx(name, True)), ops)

    def mean_extra(name, key):
        vals = [spans[i][5][key] for i in idx(name)]
        return _ratio(sum(vals), len(vals))

    def total_s(name):
        return sum(durs(name, True))

    builds = len(idx("pipeline.build_dataset", True))
    requests = idx("embedder.request", True)
    request_ms = [1000.0 * d for d in durs("embedder.request", True)]
    timed_spans = sum(1 for s in spans if s[4] == TIMED)
    m = {
        "tensor.backward_ms": mean_ms("tensor.backward"),
        "tensor.backward_share": _ratio(total_s("tensor.backward"), timed_wall),
        "tensor.nodes_per_bc_batch": mean_extra("tensor.backward", "nodes"),
        "tensor.nodes_per_decision": mean_extra("policy.forward", "nodes"),
        "tensor.nodes_per_lm_forward": mean_extra("lm.forward", "nodes"),
        "optim.step_ms": mean_ms("optim.step"),
        "policy.global_enc_ms": mean_ms("policy.global_enc"),
        "policy.head_ms": mean_ms("policy.head"),
        "policy.bridge_cache_hit_rate": (
            1.0 - _ratio(per_op("bridge.extract"), per_op("policy.policy_logits"))
            if idx("policy.policy_logits", True)
            else 0.0
        ),
        "bridge.extract_ms": mean_ms("bridge.extract"),
        "bridge.extract_calls": per_op("bridge.extract"),
        "nn.attention_ms": mean_ms("nn.attention"),
        "nn.attention_calls": per_op("nn.attention"),
        "nn.block_ms": mean_ms("nn.block"),
        "vision.encode_image_ms": mean_ms("vision.encode_image"),
        "gridworld.env_step_ms": mean_ms("gridworld.env_step"),
        "gridworld.expert_ms": mean_ms("gridworld.expert"),
    }
    for prim in ("gelu", "layer_norm", "softmax", "unfold_windows"):
        m[f"tensor.{prim}_calls"] = per_op(f"tensor.{prim}")
        m[f"tensor.{prim}_self_ms"] = self_ms_per_op(f"tensor.{prim}")
    m.update({
        "lm.forward_ms": mean_ms("lm.forward"),
        "lm.positions_per_token": _ratio(
            sum(spans[i][5]["positions"] for i in idx("lm.forward", True)),
            len(idx("sampling.sample_token", True)),
        ),
        "sampling.sample_token_ms": mean_ms("sampling.sample_token"),
        "embedder.requests": per_op("embedder.request"),
        "embedder.items_per_request": _ratio(
            sum(spans[i][5]["items"] for i in requests), len(requests)
        ),
        "embedder.request_p50_ms": quantile(request_ms, 0.50),
        "embedder.request_p99_ms": quantile(request_ms, 0.99),
        "embedder.wait_share": _ratio(
            total_s("embedder.request"), total_s("pipeline.build_dataset")
        ),
        "pipeline.ingest_s": _ratio(total_s("pipeline.ingest"), builds),
        "pipeline.stage1_s": _ratio(total_s("pipeline.stage1"), builds),
        "pipeline.select_best_s": _ratio(total_s("pipeline.select_best"), builds),
        "pipeline.stage2_s": _ratio(total_s("pipeline.stage2"), builds),
        "annotate.candidates_ms": mean_ms("annotate.candidates"),
        "plans.parse_ms": mean_ms("plans.parse"),
        "trace.spans_per_op": _ratio(timed_spans, ops),
    })
    return m
