"""Span tracing of the toolkit's layers, installed from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper on
its own module and under every name another toolkit module imported it by
(`synthgen.crowd_index_arrays`, `evaluator.crowd_index`, ...). A wrapper
records one span per call: name, start, end, parent span and command id.
Functions called tens of thousands of times per run (LEAF_COUNTED) only add
to a call count and a total time; they are leaves, so their time is also
charged to the enclosing span as covered child time.

Pool workers inherit the wrappers through `fork`. Each worker starts an
empty buffer after the fork and writes it to `<spool>/worker-<pid>.json`
when it exits; `merge()` reads those files back. The parent counts its
forks per command so a worker that left no file shows as unmeasured.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

PACKAGE = "crowdpose_kit"

# (module, function) pairs that get one span per call.
SPANNED = (
    ("cli", "dispatch"),
    ("annotations", "parse_dataset"),
    ("annotations", "serialize_dataset"),
    ("annotations", "validate"),
    ("synthgen", "plan_corpus"),
    ("synthgen", "render_layout"),
    ("crowd_metrics", "crowd_index"),
    ("crowd_metrics", "dataset_histogram"),
    ("masks", "write_pam"),
    ("masks", "write_depth_pam"),
    ("masks", "read_pam"),
    ("masks", "composite_with_mask"),
    ("augment", "apply_augmentation"),
    ("augment", "load_inventory"),
    ("heatmaps", "encode"),
    ("heatmaps", "write_heatmap_pair"),
    ("heatmaps", "read_heatmap_pair"),
    ("heatmaps", "decode"),
    ("occloss", "loss"),
    ("occloss", "loss_grad"),
    ("evaluator", "eval_by_crowding"),
    ("evaluator", "match_greedy"),
    ("evaluator", "average_precision"),
)

# Called more than ~1e4 times per run: count and total time only.
LEAF_COUNTED = (
    ("seeding", "substream"),
    ("crowd_metrics", "crowd_index_arrays"),
    ("evaluator", "oks"),
)

READBACK = "bench.readback"  # root span of the benchmark's own read-back step


# --- counters computed from inputs and return values ------------------------

def _count_parse(counters, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    counters["annotations.parse_dataset.bytes"] += len(data)


def _count_plan(counters, args, kwargs, result):
    counters["synthgen.accepted"] += len(result)
    counters["synthgen.candidates"] += sum(s.attempt + 1 for s in result)


def _count_augment(counters, args, kwargs, result):
    for placement in result.placements:
        counters[f"augment.pastes.{placement.kind}"] += 1
    counters["augment.flag_changes"] += len(result.flag_changes)


def _count_encode(counters, args, kwargs, result):
    counters["heatmaps.keypoints_encoded"] += int(result[1].sum())


def _count_write_pair(counters, args, kwargs, result):
    counters["heatmaps.write_heatmap_pair.bytes"] += len(result)


def _count_decode(counters, args, kwargs, result):
    counters["heatmaps.low_confidence"] += int(result.low_confidence.sum())


def _count_eval(counters, args, kwargs, result):
    """Distinct prediction-ground-truth pairs that OKS could be asked about:
    per image, predictions times ground truths with a labeled keypoint."""
    pred_ds, gt_ds = args[0], args[1]
    preds = {img.id: len(img.persons) for img in pred_ds.images}
    for img in gt_ds.images:
        matchable = sum(1 for p in img.persons if any(k.labeled for k in p.pose.keypoints))
        counters["evaluator.matchable_pairs"] += preds.get(img.id, 0) * matchable


def _count_match(counters, args, kwargs, result):
    threshold = args[2] if len(args) > 2 else kwargs["threshold"]
    pct = round(threshold * 100)
    if pct in (50, 75, 95):
        counters[f"evaluator.matched_at_{pct}"] += sum(a is not None for a in result)


ON_RETURN = {
    "annotations.parse_dataset": _count_parse,
    "synthgen.plan_corpus": _count_plan,
    "augment.apply_augmentation": _count_augment,
    "heatmaps.encode": _count_encode,
    "heatmaps.write_heatmap_pair": _count_write_pair,
    "heatmaps.decode": _count_decode,
    "evaluator.eval_by_crowding": _count_eval,
    "evaluator.match_greedy": _count_match,
}


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder for one benchmark repetition (and its forked workers)."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.active = False
        self._ids = itertools.count()
        self._reset()
        self.forks: dict = {}   # command id -> workers forked during it
        self.cmd = None          # id of the open root span
        self.cmd_names: dict = {}  # root span id -> step label
        self.label = None        # label the next root span records

    def _reset(self):
        # span: (id, name, start, end, parent, cmd, covered leaf seconds)
        self.spans: list = []
        self.stack: list = []
        self.leaf_time: dict = {}
        self.leaf: dict = {}     # name -> [calls, total_s]
        self.counters = _Counters()

    # --- recording -------------------------------------------------------

    def begin(self, name):
        sid = f"{self.pid}:{next(self._ids)}"
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.cmd = sid
            self.cmd_names[sid] = self.label or name
        self.stack.append(sid)
        self.leaf_time[sid] = 0.0
        return sid, parent, self.cmd

    def end(self, sid, name, parent, cmd, start, end):
        self.stack.pop()
        self.spans.append((sid, name, start, end, parent, cmd, self.leaf_time.pop(sid)))

    def spanned(self, name, fn):
        on_return = ON_RETURN.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent, cmd = tracer.begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid, name, parent, cmd, start, time.perf_counter())
            if on_return is not None:
                on_return(tracer.counters, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                entry = tracer.leaf.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
                if tracer.stack and tracer.stack[-1] in tracer.leaf_time:
                    tracer.leaf_time[tracer.stack[-1]] += dt
        return wrapper

    @contextlib.contextmanager
    def root(self, name):
        """Root span the benchmark opens around a step of its own."""
        sid, parent, cmd = self.begin(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.end(sid, name, parent, cmd, start, time.perf_counter())

    # --- installation ----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every listed function that exists; returns the missing ones."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        missing = []
        for group, make in ((SPANNED, self.spanned), (LEAF_COUNTED, self.counted)):
            for module_name, func_name in group:
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, func_name, None)
                name = f"{module_name}.{func_name}"
                if original is None:
                    missing.append(name)
                    continue
                wrapper = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        os.register_at_fork(after_in_parent=self._forked)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork_child)
        self.active = True
        return missing

    def _forked(self):
        if self.active and os.getpid() == self.pid:
            self.forks[self.cmd] = self.forks.get(self.cmd, 0) + 1

    def _after_fork_child(self):
        # Keep the inherited open stack so the first spans here name their
        # parent; drop everything the parent had already recorded.
        self.pid = os.getpid()
        inherited = list(self.stack)
        self._reset()
        self.stack = inherited
        self.leaf_time = {sid: 0.0 for sid in inherited}
        multiprocessing.util.Finalize(None, self._flush_worker, exitpriority=100)

    def _flush_worker(self):
        doc = {"pid": self.pid, "cmd": self.cmd, "spans": self.spans,
               "leaf": self.leaf, "counters": dict(self.counters)}
        path = self.spool / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        tmp.replace(path)

    # --- merging ---------------------------------------------------------

    def merge(self) -> dict:
        """All spans, leaf counts and counters of this process and its workers."""
        spans = list(self.spans)
        leaf = {k: list(v) for k, v in self.leaf.items()}
        counters = _Counters(self.counters)
        workers: dict = {}
        for path in sorted(self.spool.glob("worker-*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            workers[doc["cmd"]] = workers.get(doc["cmd"], 0) + 1
            spans.extend(tuple(s) for s in doc["spans"])
            for k, (calls, total) in doc["leaf"].items():
                entry = leaf.setdefault(k, [0, 0.0])
                entry[0] += calls
                entry[1] += total
            for k, v in doc["counters"].items():
                counters[k] += v
        unflushed = {cmd: n - workers.get(cmd, 0) for cmd, n in self.forks.items()
                     if n > workers.get(cmd, 0)}
        return {"pid": self.pid, "spans": spans, "leaf": leaf, "counters": counters,
                "forks": dict(self.forks), "unflushed": unflushed,
                "cmd_names": dict(self.cmd_names)}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover (children may
    run concurrently in workers; overlapping child time counts once)."""
    children: dict = {}
    for sid, _name, start, end, parent, _cmd, _leaf in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _cmd, leaf in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                if min(e, end) > max(s, start)]
        out[sid] = max(end - start - _covered(kids) - leaf, 0.0)
    return out


def layer_metrics(merged: dict, jobs: int) -> dict:
    """Per-layer numbers of one traced repetition, keyed by metric name.

    Calls and times sum over the main process and its workers. A layer
    that reads zero calls while some worker left no spool file is None
    (unmeasured), never 0.
    """
    spans = merged["spans"]
    selfs = self_times(spans)
    out: dict = {}
    for module_name, func_name in SPANNED:
        name = f"{module_name}.{func_name}"
        mine = [s for s in spans if s[1] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.total_s"] = math.fsum(s[3] - s[2] for s in mine)
        out[f"{name}.self_s"] = math.fsum(selfs[s[0]] for s in mine)
    for module_name, func_name in LEAF_COUNTED:
        name = f"{module_name}.{func_name}"
        calls, total = merged["leaf"].get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = total
    readback = [s for s in spans if s[1] == READBACK]
    out[f"{READBACK}.total_s"] = math.fsum(s[3] - s[2] for s in readback)
    out[f"{READBACK}.self_s"] = math.fsum(selfs[s[0]] for s in readback)

    c = merged["counters"]
    # Counters a workload never touched are absent; readers take them as 0.
    out.update({k: v for k, v in c.items()
                if k not in ("synthgen.accepted", "evaluator.matchable_pairs")})
    candidates = c["synthgen.candidates"]
    out["synthgen.accept_ratio"] = c["synthgen.accepted"] / candidates if candidates else 0.0
    out["synthgen.candidate_us"] = (1e6 * out["synthgen.plan_corpus.total_s"] / candidates
                                    if candidates else 0.0)
    pairs = c["evaluator.matchable_pairs"]
    out["evaluator.oks_per_pair"] = out["evaluator.oks.calls"] / pairs if pairs else 0.0

    # Busy share of the pool: worker top-level span time over jobs x wall of
    # the commands that forked workers.
    roots = {s[0]: s for s in spans if s[4] is None}
    pooled = [cmd for cmd, n in merged["forks"].items() if n and cmd in roots]
    pool_wall = math.fsum(roots[c][3] - roots[c][2] for c in pooled)
    main_pid = str(merged["pid"])
    worker_busy = math.fsum(s[3] - s[2] for s in spans
                            if s[0].split(":")[0] != main_pid
                            and (s[4] is None or s[4].split(":")[0] == main_pid))
    out["cli.jobs_busy_frac"] = worker_busy / (jobs * pool_wall) if pool_wall else 0.0

    if merged["unflushed"]:
        for key, value in list(out.items()):
            if key.endswith(".calls") and value == 0:
                base = key[:-len(".calls")]
                for suffix in (".calls", ".total_s", ".self_s"):
                    if base + suffix in out:
                        out[base + suffix] = None
    return out


def self_by_command(merged: dict) -> dict:
    """Self seconds per (root command name, layer name) for the share report."""
    selfs = self_times(merged["spans"])
    names = merged["cmd_names"]
    out: dict = {}
    for sid, name, _start, _end, _parent, cmd, _leaf in merged["spans"]:
        key = (names.get(cmd, "?"), name)
        out[key] = out.get(key, 0.0) + selfs[sid]
    return out
