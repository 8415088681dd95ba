"""Spans around calls into each pexkit layer, installed from outside the program.

``Tracer.install()`` replaces the layer's public functions and methods with
wrappers, wherever a pexkit module holds them, and ``uninstall()`` puts the
originals back, so untraced passes run the program untouched. Each call
records a span ``[name, layer, start, end, parent span, pass id]``; spans
stay in memory until ``write``. A layer's self time is the duration of its
spans minus the time their child spans cover.
"""
from __future__ import annotations

import inspect
import json
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter

# layer -> (module, qualified name) of the calls a span is recorded around.
LAYER_TARGETS = {
    "cli": [("pexkit.cli", "main")],
    "corpus": [("pexkit.corpus", n) for n in
               ("load_corpus", "default_corpus", "corpus_index", "shot_documents")],
    "prompting": [("pexkit.prompting", n) for n in ("render", "build_shot", "default_shots")],
    "pipeline": [("pexkit.pipeline", n) for n in
                 ("extract", "parse_list_answer", "parse_participant_answer", "parse_yesno")],
    "worldmodel": [("pexkit.worldmodel", f"WorldModel.{n}") for n in
                   ("add_activity", "add_participant", "add_performs", "add_follows",
                    "to_json")],
    "evaluation": [("pexkit.evaluation", n) for n in
                   ("evaluate_document", "render_table", "report_to_dict")],
    "suite": [("pexkit.suite", "atomic_write")],
    "cache": [("pexkit.backend", f"TranscriptCache.{n}") for n in
              ("__init__", "lookup", "record")],
}
# Called once per phrase pair during alignment: counted, without a span.
COUNTED_ONLY = [("evaluation.match_calls", "pexkit.evaluation", "match_phrase")]
CORPUS_PARSERS = ("corpus.load_corpus", "corpus.default_corpus")
PARSERS = ("pipeline.parse_list_answer", "pipeline.parse_participant_answer",
           "pipeline.parse_yesno")
MODEL_EDITS = tuple(f"worldmodel.WorldModel.{n}" for n in
                 ("add_activity", "add_participant", "add_performs", "add_follows"))


def _backend_targets():
    """Every completion backend class: anything in pexkit.backend with ``complete``."""
    module = sys.modules["pexkit.backend"]
    return [("pexkit.backend", f"{name}.complete")
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and callable(getattr(obj, "complete", None))]


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self.counts: Counter = Counter()  # (pass id, counter) -> value
        self.backend_keys: dict[int, set] = {}
        self.caches: list = []  # (pass id, cache object, entries at load)
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._inflight = 0
        self._patches: list[tuple] = []

    # -- installing ----------------------------------------------------------

    def _resolve(self, module_name, qualname):
        owner = sys.modules.get(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{module_name}.{qualname}")
            return None, None, None
        return owner, attr, getattr(owner, attr)

    def _patch(self, owner, attr, original, wrapper):
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # Functions are also bound by name in the modules that import them.
        for name, module in list(sys.modules.items()):
            if name == "pexkit" or name.startswith("pexkit."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.missing = []
        targets = [(layer, m, q) for layer, items in LAYER_TARGETS.items() for m, q in items]
        targets += [("backend", m, q) for m, q in _backend_targets()]
        for layer, module_name, qualname in targets:
            owner, attr, original = self._resolve(module_name, qualname)
            if owner is not None:
                name = f"{module_name.split('.')[-1]}.{qualname}"
                self._patch(owner, attr, original, self._span_wrapper(original, name, layer))
        for counter, module_name, qualname in COUNTED_ONLY:
            owner, attr, original = self._resolve(module_name, qualname)
            if owner is not None:
                self._patch(owner, attr, original, self._count_wrapper(original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.pass_id, counter)] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, fn, name, layer):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        is_backend = layer == "backend"

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            top_backend = is_backend and (parent is None or parent[1] != "backend")
            span = [name, layer, 0.0, 0.0, parent, tracer.pass_id, top_backend]
            tracer.spans.append(span)
            stack.append(span)
            if top_backend:
                tracer._enter_backend(args)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                if top_backend:
                    with tracer._lock:
                        tracer._inflight -= 1
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _enter_backend(self, args):
        prompt, params = args[1], args[2]
        with self._lock:
            self._inflight += 1
            key = (self.pass_id, "backend.inflight_max")
            self.counts[key] = max(self.counts[key], self._inflight)
            self.backend_keys.setdefault(self.pass_id, set()).add((prompt.text, params))

    def _after_pipeline_extract(self, args, run):
        for question in ("q1", "q2", "q3"):
            self.counts[(self.pass_id, f"pipeline.{question}")] += run.counters[question]
        self.counts[(self.pass_id, "pipeline.unknown_q3")] += run.unknown_q3

    def _after_worldmodel_WorldModel_to_json(self, args, text):
        self.counts[(self.pass_id, "worldmodel.bytes")] += len(text.encode("utf-8"))

    def _after_backend_TranscriptCache___init__(self, args, result):
        cache = args[0]
        self.caches.append((self.pass_id, cache, len(cache)))

    def _after_backend_TranscriptCache_lookup(self, args, entry):
        if entry is not None:
            self.counts[(self.pass_id, "cache.hits")] += 1

    # -- analysis ------------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer counts and self times of one traced pass."""
        spans = [s for s in self.spans if s[5] == pass_id]
        child = {id(s): 0.0 for s in spans}
        for s in spans:
            if s[4] is not None and id(s[4]) in child:
                child[id(s[4])] += s[3] - s[2]
        self_by_name: Counter = Counter()
        calls_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        call_ms = []
        for s in spans:
            own = (s[3] - s[2]) - child[id(s)]
            self_by_name[s[0]] += own
            self_by_layer[s[1]] += own
            calls_by_name[s[0]] += 1
            if s[6]:
                call_ms.append((s[3] - s[2]) * 1000.0)

        def counted(name):
            return self.counts.get((pass_id, name), 0)

        def total(names, table):
            return sum(table[n] for n in names)

        caches = [(c, at_load) for p, c, at_load in self.caches if p == pass_id]
        keys = self.backend_keys.get(pass_id, set())
        return {
            "corpus.parses": total(CORPUS_PARSERS, calls_by_name),
            "corpus.load_s": self_by_layer["corpus"],
            "prompting.renders": calls_by_name["prompting.render"],
            "prompting.render_s": self_by_layer["prompting"],
            "prompting.shot_builds": calls_by_name["prompting.build_shot"],
            "backend.calls": len(call_ms),
            "backend.unique_share": len(keys) / len(call_ms) if call_ms else 0.0,
            "backend.busy_s": sum(call_ms) / 1000.0,
            "backend.call_ms_p50": statistics.median(call_ms) if call_ms else 0.0,
            "backend.call_ms_p99": _percentile(call_ms, 0.99) if call_ms else 0.0,
            "backend.inflight_max": counted("backend.inflight_max"),
            "cache.load_s": self_by_name["backend.TranscriptCache.__init__"],
            "cache.entries": sum(len(c) for c, _ in caches),
            "cache.appends": sum(len(c) - at_load for c, at_load in caches),
            "cache.append_s": self_by_name["backend.TranscriptCache.record"],
            "cache.lookups": calls_by_name["backend.TranscriptCache.lookup"],
            "cache.hits": counted("cache.hits"),
            "pipeline.q1": counted("pipeline.q1"),
            "pipeline.q2": counted("pipeline.q2"),
            "pipeline.q3": counted("pipeline.q3"),
            "pipeline.parse_s": total(PARSERS, self_by_name),
            "pipeline.unknown_q3": counted("pipeline.unknown_q3"),
            "pipeline.self_s": self_by_name["pipeline.extract"],
            "worldmodel.build_s": total(MODEL_EDITS, self_by_name),
            "worldmodel.serialize_s": self_by_name["worldmodel.WorldModel.to_json"],
            "worldmodel.bytes": counted("worldmodel.bytes"),
            "evaluation.score_s": self_by_name["evaluation.evaluate_document"],
            "evaluation.match_calls": counted("evaluation.match_calls"),
            "evaluation.render_s": total(("evaluation.render_table",
                                          "evaluation.report_to_dict"), self_by_name),
            "suite.write_s": self_by_layer["suite"],
            "suite.files": calls_by_name["suite.atomic_write"],
            "cli.self_s": self_by_layer["cli"],
            "_live_calls": calls_by_name["backend.LiveBackend.complete"],
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, layer, start, end, parent, pass."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s[4]), -1) if s[4] is not None else -1
                handle.write(json.dumps([i, s[0], s[1], s[2], s[3], parent, s[5]]) + "\n")
