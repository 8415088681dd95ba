"""Regenerate the reference outputs the benchmark gates every pass against.

    python3 perfbench/make_reference.py

Everything comes from the oracle backend on the bundled corpus:

- ``reference/oracle-fixture/report.{csv,json}``: all four settings.
- ``reference/live-record/report.{csv,json}``: settings raw,defs+2shots, so a
  live pass against the gold stand-in must equal the oracle's report.
- ``reference/live-record/cache_entries.json``: count and digest of the
  (prompt, params, completion) set an oracle recording writes.
- ``reference/*/counts.json``: the count table per question x setting at the
  time the references were made (for comparison; the gate is that counts
  repeat across passes and runs, not that they stay at these values).

Run it only when a change is meant to alter these outputs, and say so.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import LIVE_SETTINGS, REFERENCE, SRC
from worker import Counting, cache_entry_set, import_cli, run_cli


def oracle_run(cli, outdir: Path, target: Path, settings: str | None, cache=None) -> None:
    argv = ["run-suite", "--backend", "oracle", "--outdir", str(outdir)]
    if settings:
        argv += ["--settings", settings]
    if cache:
        argv += ["--record", "--cache", str(cache)]
    counting = Counting("oracle")
    rc, error = run_cli(cli, argv)
    table = counting.close()
    if rc != 0:
        raise SystemExit(f"oracle run-suite failed: {error or rc}")
    target.mkdir(parents=True, exist_ok=True)
    for name in ("report.csv", "report.json"):
        shutil.copyfile(outdir / name, target / name)
    (target / "counts.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


def main() -> int:
    cli = import_cli(str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        oracle_run(cli, tmp / "all", REFERENCE / "oracle-fixture", None)
        cache = tmp / "live.jsonl"
        oracle_run(cli, tmp / "live", REFERENCE / "live-record", LIVE_SETTINGS, cache)
        (REFERENCE / "live-record" / "cache_entries.json").write_text(
            json.dumps(cache_entry_set(cache), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
