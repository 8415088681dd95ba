"""pexkit benchmark: ``pex run-suite`` wall time and completion cost.

    python3 perfbench/run.py --workload oracle-fixture --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

- ``oracle-fixture``: the bundled corpus, all four settings, oracle backend.
- ``live-record``: settings raw,defs+2shots through the live backend into a
  fresh transcript cache, against a loopback stand-in API with a 20 ms delay.
- ``replay-synthetic``: a seeded synthetic corpus whose noisy answers are
  recorded once through the stand-in, then replayed from the cache.

Each run measures set-up time in fresh processes, then runs timed passes in
one workload process for ``--seconds`` seconds, gating every pass's report
and the exact count table. ``setup_s`` and ``suite_s`` are reported at a
reference host speed, from yardstick readings taken next to the measured
work (see calibrate.py). The last stdout line is the result object; the
line before it holds the details (sample counts, count table, problems).
With ``--trace 1`` the workload process alternates untraced and traced passes
and the metrics are the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import synthgen
from calibrate import at_reference_speed
from standin import table_totals
from worker import standin_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
BUNDLED_CORPUS = SRC / "pexkit" / "data" / "corpus.json"

LIVE_SETTINGS = "raw,defs+2shots"
SYNTHETIC_SETTINGS = "defs+2shots"
LIVE_DELAY_MS = 20.0
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def fixed_env(work: Path) -> dict:
    """The recorded environment of every process the benchmark starts.

    ``NO_PROXY`` covers the stand-in, and nothing else is inherited, so
    ``requests`` neither routes through a proxy nor scans a long environment.
    """
    (work / "home").mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return {
        "PATH": "/usr/bin:/bin",
        "HOME": str(work / "home"),
        "TMPDIR": str(work / "tmp"),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "NO_PROXY": "127.0.0.1,localhost",
        "no_proxy": "127.0.0.1,localhost",
        "PEX_API_KEY": "stand-in-key",
    }


class StandIn:
    """The loopback stand-in API as a child process."""

    def __init__(self, env, work, corpus, mode, delay_ms):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "standin.py"), "--corpus", str(corpus),
             "--mode", mode, "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE, env=env, cwd=work, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise BenchError("stand-in did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        return standin_call(self.url, "/stats", "GET")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_worker(env, work, args, timeout=WORKER_TIMEOUT_S) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, cwd=work, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(env, work, argv) -> list[dict]:
    """Seconds from spawning a fresh process to its first question being ready.

    Each sample also holds the probe's user-space CPU time up to that point
    and the yardstick readings it takes right after. One unmeasured probe runs first, so
    every measured one finds compiled bytecode.
    """
    probe_argv = [a.replace("{outdir}", str(work / "probe")).replace(
        "{cache}", str(work / "probe.jsonl")) for a in argv]
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = run_worker(env, work, ["probe", str(SRC), json.dumps(probe_argv)], timeout=60)
        found = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples.append({"wall_s": found["ready"] - start, "user_s": found["user_s"],
                            "yard_s": found["yard_s"]})
    return samples


def run_passes(env, work, spec) -> dict:
    spec = {"src": str(SRC), "workdir": str(work), "result": str(work / "result.json"), **spec}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    run_worker(env, work, ["passes", str(work / "spec.json")])
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def oracle_fixture(ctx) -> dict:
    argv = ["run-suite", "--backend", "oracle", "--outdir", "{outdir}"]
    return ctx.measure(argv, {"count_via": "oracle", "perfect_rows": True,
                              "reference_dir": str(REFERENCE / "oracle-fixture")})


def live_record(ctx) -> dict:
    standin = StandIn(ctx.env, ctx.work, BUNDLED_CORPUS, "gold", LIVE_DELAY_MS)
    try:
        argv = ["run-suite", "--backend", "live", "--endpoint", standin.url,
                "--model-name", "stand-in", "--record", "--cache", "{cache}",
                "--settings", LIVE_SETTINGS, "--outdir", "{outdir}"]
        reference = REFERENCE / "live-record"
        cache_ref = json.loads((reference / "cache_entries.json").read_text(encoding="utf-8"))
        return ctx.measure(argv, {"standin_url": standin.url, "cache_reference": cache_ref,
                                  "reference_dir": str(reference)})
    finally:
        standin.stop()


def replay_synthetic(ctx) -> dict:
    corpus = ctx.work / "corpus.json"
    corpus.write_text(json.dumps(synthgen.make_corpus(ctx.seed), indent=1) + "\n",
                      encoding="utf-8")
    cache = ctx.work / "recorded.jsonl"
    recorded = ctx.work / "recorded"
    standin = StandIn(ctx.env, ctx.work, corpus, "noisy", 0)
    try:
        run_worker(ctx.env, ctx.work, ["record", str(SRC), json.dumps(
            ["run-suite", "--backend", "live", "--endpoint", standin.url,
             "--model-name", "stand-in", "--record", "--cache", str(cache),
             "--corpus", str(corpus), "--settings", SYNTHETIC_SETTINGS,
             "--outdir", str(recorded)])])
        recorded_table = standin.stats()
    finally:
        standin.stop()
    argv = ["run-suite", "--backend", "replay", "--cache", str(cache),
            "--corpus", str(corpus), "--settings", SYNTHETIC_SETTINGS, "--outdir", "{outdir}"]
    return ctx.measure(argv, {"count_via": "lookup", "expected_table": recorded_table,
                              "reference_dir": str(recorded)})


WORKLOADS = {
    "oracle-fixture": oracle_fixture,
    "live-record": live_record,
    "replay-synthetic": replay_synthetic,
}


class Context:
    def __init__(self, args, env, work):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, args.trace
        self.env, self.work = env, work

    def measure(self, argv, spec) -> dict:
        setup = [] if self.trace else measure_setup(self.env, self.work, argv)
        result = run_passes(self.env, self.work, {
            "argv": argv, "seconds": self.seconds, "trace": self.trace, **spec})
        result["setup_s"] = setup
        return result


def check_state(workload: str, seed: int, table: dict) -> list[str]:
    """Count tables must repeat exactly across runs of one checkout."""
    path = WORK / "state" / f"counts-{workload}-{seed}.json"
    if path.exists():
        if json.loads(path.read_text(encoding="utf-8")) != table:
            return [f"count table differs from an earlier run ({path.name})"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (user ... steal), if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests during the run."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def high_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(samples) <= 10:
        return None
    below = len(samples) - 10
    return {"percentile": 100.0 * below / len(samples), "value": sorted(samples)[below - 1]}


def summarize(workload, args, result, env) -> tuple[dict, dict]:
    totals = table_totals(result["table"]) if result["table"] else \
        {"calls": 0, "unique": 0, "prompt_chars": 0}
    problems = list(result["problems"])
    for p in result["passes"]:
        problems += [f"pass {p['index']}: {msg}" for msg in p["problems"]]
    if result["table"]:
        problems += check_state(workload, args.seed, result["table"])
    attempted = totals["calls"] * len(result["passes"])
    failed = totals["calls"] * sum(1 for p in result["passes"] if p["problems"])
    if not attempted:
        attempted, failed = 1, 1
    timed = [p for p in result["passes"] if not p["counted"] and not p["traced"]]
    walls = [p["wall_s"] for p in timed]
    detail = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "suite_s_samples": len(timed), "setup_s_samples": len(result["setup_s"]),
        "suite_wall_s_high": high_percentile(walls),
        "suite_wall_s_all": walls,
        "suite_user_s_all": [p["user_s"] for p in timed],
        "suite_yardstick_s_all": [y for p in timed for y in p["yard_s"]],
        "setup_all": result["setup_s"],
        "count_totals": totals, "count_table": result["table"],
        "env": env, "problems": problems,
    }
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
        detail["untraced_targets"] = result["untraced_targets"]
    else:
        metrics = {
            "setup_s": {"value": at_reference_speed(result["setup_s"]), "unit": "s"},
            "suite_s": {"value": at_reference_speed(timed), "unit": "s"},
            "completions": {"value": totals["calls"], "unit": "count"},
            "prompt_kchars": {"value": totals["prompt_chars"] / 1000.0, "unit": "kchars"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "completed_share": {"value": 1.0 - failed / attempted, "unit": "share"},
        }
    return detail, {"correct": not problems, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its stand-in and worker are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "pexkit" / "cli.py").is_file():
        print(f"error: no pexkit sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = fixed_env(work)
    before = cpu_times()
    try:
        result = WORKLOADS[args.workload](Context(args, env, work))
        detail, summary = summarize(args.workload, args, result, env)
        detail["cpu_steal_share"] = steal_share(before, cpu_times())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
