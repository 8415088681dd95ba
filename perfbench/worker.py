"""The workload process: one client, one caller thread, ``pex run-suite`` in-process.

    worker.py probe  SRC ARGV_JSON   time to the first question of a fresh process
    worker.py record SRC ARGV_JSON   one run-suite pass, e.g. to record a cache
    worker.py passes SPEC_JSON       timed passes with output gates (and tracing)

Every mode calls ``pexkit.cli.main`` from the ``src`` directory given, never
an installed copy. ``passes`` writes its results as JSON to ``spec["result"]``.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import urllib.request
from pathlib import Path

from calibrate import REFERENCE_YARDSTICK_S, YARDSTICK_SHARE, yardsticks
from standin import CountTable, parse_prompt, table_totals

PERFECT_ROWS = ("Activity", "Participant", "Follows (gs)", "Performs (gs)")


def import_cli(src: str):
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    from pexkit import cli
    if src_dir not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"pexkit was imported from {cli.__file__}, not from {src_dir}")
    return cli


def run_cli(cli, argv) -> tuple[int, str]:
    """Run the CLI quietly; an exception the CLI lets escape counts as a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv), ""
        except Exception as exc:  # the program's own exit-code contract failed
            return -1, f"uncaught {type(exc).__name__}: {exc}"


class FirstQuestion(BaseException):
    """Raised at the first completion request; the CLI does not catch it."""


def probe(src: str, argv: list) -> int:
    cli = import_cli(src)
    from pexkit import backend

    def stop(self, prompt, params):
        raise FirstQuestion(time.monotonic())
    for obj in vars(backend).values():
        if isinstance(obj, type) and callable(getattr(obj, "complete", None)):
            obj.complete = stop
    try:
        rc, error = run_cli(cli, argv)
    except FirstQuestion as ready:
        user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        print(json.dumps({"ready": ready.args[0], "user_s": user, "yard_s": yardsticks(3)}))
        return 0
    print(f"no question was asked (exit {rc}) {error}", file=sys.stderr)
    return 1


def record(src: str, argv: list) -> int:
    rc, error = run_cli(import_cli(src), argv)
    if error:
        print(error, file=sys.stderr)
    return rc


def cache_entry_set(path: Path) -> dict:
    """Count and digest of the (prompt, params, completion) set of a cache file."""
    entries = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            e = json.loads(line)
            entries.add(json.dumps([e["prompt"], e["params"], e["completion"]],
                                   sort_keys=True))
    digest = hashlib.sha256("\n".join(sorted(entries)).encode("utf-8")).hexdigest()
    return {"entries": len(entries), "sha256": digest}


def report_problems(outdir: Path, cache: Path, spec: dict) -> list[str]:
    problems = []
    ref = Path(spec["reference_dir"])
    for name in ("report.csv", "report.json"):
        path = outdir / name
        if not path.exists():
            problems.append(f"{name} missing")
        elif path.read_bytes() != (ref / name).read_bytes():
            problems.append(f"{name} differs from the reference")
    if spec.get("perfect_rows") and (outdir / "report.csv").exists():
        for line in (outdir / "report.csv").read_text(encoding="utf-8").splitlines()[1:]:
            cells = line.split(",")
            if cells[1] in PERFECT_ROWS and any(v != "1.00" for v in cells[2:]):
                problems.append(f"row {cells[0]} {cells[1]} is not 1.00")
    if spec.get("cache_reference"):
        found = cache_entry_set(cache)
        if found != spec["cache_reference"]:
            problems.append(f"cache entries {found} differ from the reference")
    return problems


class Counting:
    """Count table over one pass, from calls wrapped outside the program."""

    def __init__(self, via: str):
        from pexkit import backend
        self.table = CountTable()
        if via == "oracle":
            owner, attr = backend.OracleBackend, "complete"
        else:
            owner, attr = backend.TranscriptCache, "lookup"
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        table, original = self.table, self.original

        def complete(inner_self, prompt, params):
            info = parse_prompt(prompt.text)
            table.add(info["question"], info["setting"], (prompt.text, params), len(prompt.text))
            return original(inner_self, prompt, params)

        def lookup(inner_self, digest):
            entry = original(inner_self, digest)
            if entry is not None:
                info = parse_prompt(entry["prompt"])
                table.add(info["question"], info["setting"], digest, len(entry["prompt"]))
            return entry
        setattr(owner, attr, complete if via == "oracle" else lookup)

    def close(self) -> dict:
        setattr(self.owner, self.attr, self.original)
        return self.table.as_dict()


def standin_call(url: str, path: str, method: str) -> dict:
    request = urllib.request.Request(url + path, method=method,
                                     data=b"{}" if method == "POST" else None)
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.loads(resp.read())


def passes(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = import_cli(spec["src"])
    work = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    url = spec.get("standin_url")
    out = {"passes": [], "tables": [], "problems": []}

    def one_pass(index: int, counting: str | None, traced: bool) -> dict:
        outdir = work / f"pass{index}"
        cache = work / f"pass{index}.jsonl"
        argv = [a.replace("{outdir}", str(outdir)).replace("{cache}", str(cache))
                for a in spec["argv"]]
        if url:
            standin_call(url, "/reset", "POST")
        counter = Counting(counting) if counting else None
        if traced:
            tracer.install(index)
        gc.collect()
        yard = yardsticks(1)
        user_start = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        start = time.perf_counter()
        rc, error = run_cli(cli, argv)
        wall = time.perf_counter() - start
        user = resource.getrusage(resource.RUSAGE_SELF).ru_utime - user_start
        if traced:
            tracer.uninstall()
        yard += yardsticks(round(YARDSTICK_SHARE * wall / REFERENCE_YARDSTICK_S))
        table = counter.close() if counter else None
        if url:
            table = standin_call(url, "/stats", "GET")
        problems = [error or f"exit code {rc}"] if rc != 0 else report_problems(outdir, cache, spec)
        shutil.rmtree(outdir, ignore_errors=True)
        cache.unlink(missing_ok=True)
        if table is not None:
            out["tables"].append(table)
        return {"index": index, "wall_s": wall, "user_s": user, "yard_s": yard, "rc": rc,
                "traced": traced,
                "counted": counting is not None, "problems": problems}

    index = 0
    if spec.get("count_via"):
        out["passes"].append(one_pass(index, spec["count_via"], False))
        index += 1
    start = time.perf_counter()
    timed = 0
    while True:
        traced = tracer is not None and timed % 2 == 1
        out["passes"].append(one_pass(index, None, traced))
        index += 1
        timed += 1
        done = time.perf_counter() - start >= spec["seconds"]
        if done and (tracer is None or timed % 2 == 0):
            break

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    expected = spec.get("expected_table")
    tables = out["tables"] + ([expected] if expected else [])
    if not tables:
        out["problems"].append("no count table was made")
    elif any(t != tables[0] for t in tables):
        out["problems"].append("count tables differ between passes")
    out["table"] = tables[0] if tables else {}
    out.pop("tables")

    if tracer is not None:
        layer = [tracer.pass_metrics(p["index"]) for p in out["passes"] if p["traced"]]
        if url:
            calls = table_totals(out["table"])["calls"]
            for m in layer:
                m["backend.retries"] = calls - m["_live_calls"]
        metrics = {k: statistics.median(m[k] for m in layer)
                   for k in layer[0] if not k.startswith("_")}
        metrics.setdefault("backend.retries", 0)
        plain = [p["wall_s"] for p in out["passes"] if not p["traced"] and not p["counted"]]
        traced_walls = [p["wall_s"] for p in out["passes"] if p["traced"]]
        metrics["trace.suite_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_suite_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.suite_s"] - metrics["trace.untraced_suite_s"]
        out["layers"] = metrics
        out["untraced_targets"] = sorted(set(tracer.missing))
        tracer.write(work / "spans.jsonl")
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


def main(argv) -> int:
    mode = argv[0]
    if mode == "probe":
        return probe(argv[1], json.loads(argv[2]))
    if mode == "record":
        return record(argv[1], json.loads(argv[2]))
    if mode == "passes":
        return passes(argv[1])
    print(f"unknown mode {mode}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
