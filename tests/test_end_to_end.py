"""The CLI as a user runs it: ``python -m pexkit.cli`` in a subprocess.

Reports are compared byte for byte with ``perfbench/reference/``. The live
backend talks to the loopback stand-in of ``perfbench/standin.py``, served
from a thread of this process, whose counts of the requests it answered are
read here, outside the program."""
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from pexkit import cli

SRC = Path(cli.__file__).parents[1]
CORPUS = SRC / "pexkit" / "data" / "corpus.json"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
ORACLE_REFERENCE = PERFBENCH / "reference" / "oracle-fixture"
LIVE_REFERENCE = PERFBENCH / "reference" / "live-record"
# perfbench/ is only read: its modules are imported without writing bytecode there.
sys.path.insert(0, str(PERFBENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import standin  # noqa: E402
import synthgen  # noqa: E402
import worker  # noqa: E402
sys.dont_write_bytecode = dont_write_bytecode

# The settings of the live-record references.
RECORDED = ["--settings", "raw,defs+2shots"]
LIVE_ENV = {"PEX_API_KEY": "ci"}

# A world model whose performs is not a list, as a corpus's gold may not be.
PERFORMS_OBJECT = {"doc_id": "10.1", "activities": ["check stock"], "participants": [],
                   "performs": {}, "follows": [], "provenance": {}}


def pex_command(argv, env=None):
    """The argv and environment of ``pex`` with ``argv``, its environment
    updated with ``env``."""
    return ([sys.executable, "-m", "pexkit.cli", *argv],
            {**os.environ, "PYTHONPATH": str(SRC), **(env or {})})


def pex(argv, cwd, env=None):
    """``pex`` with ``argv`` in ``cwd``, its environment updated with ``env``."""
    command, environ = pex_command(argv, env)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120,
                          env=environ)


def pex_ok(argv, cwd, env=None):
    """``pex``, which must exit 0."""
    done = pex(argv, cwd, env)
    assert done.returncode == 0, done.stderr
    return done


def live(url, *argv):
    return ["run-suite", "--backend", "live", "--endpoint", url, *argv]


def assert_reports_equal(outdir, reference):
    for name in ("report.csv", "report.json"):
        assert (outdir / name).read_bytes() == (reference / name).read_bytes(), name


def files(directory):
    """Name -> bytes of every file under ``directory``."""
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def totals(stand):
    """(calls, unique prompts) the stand-in answered."""
    with stand.lock:
        counted = standin.table_totals(stand.table.as_dict())
    return counted["calls"], counted["unique"]


@pytest.fixture
def serve():
    """``serve(corpus, mode, delay_s)`` serves ``corpus`` from the loopback
    stand-in in a thread, and gives its ``StandIn`` and endpoint."""
    servers = []

    def start(corpus_path, mode="gold", delay_s=0.0):
        server = standin.Server(standin.StandIn(corpus_path, mode, delay_s))
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), name="standin")
        thread.start()
        servers.append((server, thread))
        return server.standin, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server, thread in servers:
        server.shutdown()
        thread.join()
        server.server_close()


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """A directory holding ``c.jsonl`` and ``rec/``: the cache and outdir of
    an oracle ``run-suite --record`` in the live-record references' settings."""
    work = tmp_path_factory.mktemp("recording")
    pex_ok(["run-suite", "--backend", "oracle", "--record", "--cache", "c.jsonl", *RECORDED,
            "--outdir", "rec"], work)
    return work


@pytest.mark.parametrize("want, env, argv", [
    # A byte of argv that is not UTF-8 reaches Python as a lone surrogate.
    (2, {}, ["prompt", "--question", "q2", "--setting", "raw", "--doc", "10.1",
             "--x", b"\xff"]),
    # An API key that is not a valid header value, and a host label of 64
    # characters, which IDNA cannot encode: both before any request.
    (3, {"PEX_API_KEY": "k\n"}, ["extract", "--doc", "10.1", "--setting", "raw",
                                 "--backend", "live", "--endpoint", "http://127.0.0.1:9/v1",
                                 "--out", "model.json"]),
    (3, {"PEX_API_KEY": "ci"}, ["extract", "--doc", "10.1", "--setting", "raw",
                                "--backend", "live",
                                "--endpoint", f"http://{'a' * 64}.example/v1",
                                "--out", "model.json"]),
    (2, {}, ["evaluate", "--doc", "10.1", "--model", "performs.json"]),
], ids=["argv-not-utf8", "api-key-newline", "host-label-64", "performs-object"])
def test_malformed_input_never_gives_a_traceback(tmp_path, want, env, argv):
    (tmp_path / "performs.json").write_text(json.dumps(PERFORMS_OBJECT))
    done = pex(argv, tmp_path, env)
    assert (done.returncode, "Traceback" in done.stderr) == (want, False), done.stderr
    assert not (tmp_path / "model.json").exists()


def test_an_oracle_run_suite_writes_the_reference_reports(tmp_path):
    pex_ok(["run-suite", "--backend", "oracle", "--outdir", "out"], tmp_path)
    assert_reports_equal(tmp_path / "out", ORACLE_REFERENCE)


def _shuffled(text):
    lines = text.splitlines(keepends=True)
    random.Random(19).shuffle(lines)
    return "".join(lines)


def _reencoded(text):
    return "".join(json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False) + "\n"
                   for line in text.splitlines())


def _modelled(text):
    return "".join(json.dumps({"digest": e["digest"], "prompt": e["prompt"], "model": "oracle"}
                              | e) + "\n"
                   for e in map(json.loads, text.splitlines()))


@pytest.mark.parametrize("copy", [
    lambda text: text,
    # Its lines shuffled, as a concurrent recording interleaves the prompt
    # heads of its batches.
    _shuffled,
    # Re-encoded, with sorted keys and unescaped text, so that no line has
    # the layout record writes: every line is decoded whole.
    _reencoded,
    # A "model" key just after each line's prompt, where a recording that
    # names its model would write it.
    _modelled,
], ids=["as-recorded", "shuffled", "re-encoded", "modelled"])
def test_a_recorded_cache_replays_to_the_reference_reports(recording, tmp_path, copy):
    text = (recording / "c.jsonl").read_text(encoding="utf-8")
    (tmp_path / "copy.jsonl").write_text(copy(text), encoding="utf-8")
    pex_ok(["run-suite", "--backend", "replay", "--cache", "copy.jsonl", *RECORDED,
            "--outdir", "rep"], tmp_path)
    assert_reports_equal(tmp_path / "rep", LIVE_REFERENCE)


def test_a_tampered_cache_line_is_named_and_exits_3(recording, tmp_path):
    """The recorded cache with another question in its last line's prompt,
    in the layout record writes: that line's head was loaded by an earlier
    line, so it is read by position, and its digest must still fail to
    recompute, naming the line, with exit 3 and no traceback."""
    lines = (recording / "c.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    head, found, rest = lines[-1].rpartition("immediately follow")
    assert found and "\\nQ: " not in rest
    tampered = "".join(lines[:-1]) + head + "immediately precede" + rest
    (tmp_path / "tampered.jsonl").write_text(tampered, encoding="utf-8")
    done = pex(["run-suite", "--backend", "replay", "--cache", "tampered.jsonl", *RECORDED,
                "--outdir", "rep-tampered"], tmp_path)
    assert (done.returncode, "Traceback" in done.stderr) == (3, False), done.stderr
    assert tampered.count("\n") == 734
    assert "tampered.jsonl:734:" in done.stderr, done.stderr


def test_a_recorded_cache_holds_the_reference_entries_and_every_model_digest(recording):
    """The recording holds the reference entry set, and every provenance
    digest of a recorded model is a key of it, so each model element joins
    to its prompt and completion; a gold-injected activity has the digest
    ``-``."""
    cache = recording / "c.jsonl"
    assert worker.cache_entry_set(cache) == \
        json.loads((LIVE_REFERENCE / "cache_entries.json").read_text())
    keys = {json.loads(line)["digest"] for line in cache.read_text(encoding="utf-8").splitlines()}
    models = sorted((recording / "rec" / "models").glob("*.json"))
    assert len(models) == 28
    for model in models:
        provenance = json.loads(model.read_text())["provenance"]
        missing = {digest for _, digest in provenance.values() if digest != "-"} - keys
        assert not missing, (model.name, sorted(missing)[:3])


def test_a_live_recording_asks_each_distinct_prompt_once_and_replays(recording, serve,
                                                                     tmp_path):
    """A live ``run-suite --record`` writes the oracle's reports and models;
    re-run, it asks nothing and leaves the cache as it was; and its cache
    replays to the same reports."""
    stand, url = serve(CORPUS)
    argv = live(url, "--record", "--cache", "live.jsonl", *RECORDED, "--outdir", "live")
    pex_ok(argv, tmp_path, LIVE_ENV)
    assert totals(stand) == (734, 734)
    cache = tmp_path / "live.jsonl"
    digest = hashlib.sha256(cache.read_bytes()).hexdigest()
    pex_ok(argv, tmp_path, LIVE_ENV)
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest
    assert totals(stand) == (734, 734)
    assert_reports_equal(tmp_path / "live", LIVE_REFERENCE)
    assert files(tmp_path / "live" / "models") == files(recording / "rec" / "models")
    pex_ok(["run-suite", "--backend", "replay", "--cache", "live.jsonl", *RECORDED,
            "--outdir", "live-replay"], tmp_path)
    assert_reports_equal(tmp_path / "live-replay", LIVE_REFERENCE)
    assert worker.cache_entry_set(cache) == \
        json.loads((LIVE_REFERENCE / "cache_entries.json").read_text())


@contextmanager
def sigint_raises():
    """A child started inside takes SIGINT as Ctrl-C, even where this
    process ignores SIGINT, as a background job of a script does: an ignored
    signal stays ignored across exec, a handled one does not."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def test_a_live_recording_interrupted_by_sigint_exits_130_and_a_rerun_resumes_it(serve,
                                                                                 tmp_path):
    """SIGINT, sent once the cache holds its first answer, ends the
    recording with exit 130 and one line; the same command, re-run against
    the same stand-in, resumes it: across both runs the stand-in answers each
    distinct prompt once."""
    stand, url = serve(CORPUS, delay_s=0.3)
    argv = live(url, "--record", "--cache", "i.jsonl", *RECORDED, "--outdir", "interrupted")
    cache = tmp_path / "i.jsonl"
    command, environ = pex_command(argv, LIVE_ENV)
    with sigint_raises():
        child = subprocess.Popen(command, cwd=tmp_path, env=environ, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with child:
        try:
            # At 0.3 s an answer, the run is far from done when its first answer is stored.
            deadline = time.monotonic() + 60
            while child.poll() is None and not (cache.exists() and cache.stat().st_size):
                assert time.monotonic() < deadline, "no answer recorded in 60 s"
                time.sleep(0.005)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=120)
        except BaseException:
            child.kill()
            raise
    assert (child.returncode, "Traceback" in err) == (130, False), err
    assert err == ("interrupted: the answers recorded so far stay in i.jsonl; "
                   "re-running the same command resumes\n")
    stand.delay_s = 0.0
    pex_ok(argv, tmp_path, LIVE_ENV)
    assert totals(stand) == (734, 734)
    assert_reports_equal(tmp_path / "interrupted", LIVE_REFERENCE)


def test_a_live_run_suite_that_fails_part_way_exits_3_and_writes_no_report(serve, tmp_path):
    """The stand-in's corpus lacks 1.3, so it answers 1.3's first question
    with HTTP 400: the suite stops at its second job, 1.3 in raw, keeps the
    models of the job before it and writes no report."""
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    (tmp_path / "no-1.3.json").write_text(json.dumps([r for r in records if r["id"] != "1.3"]))
    stand, url = serve(tmp_path / "no-1.3.json")
    done = pex(live(url, *RECORDED, "--outdir", "aborted"), tmp_path, LIVE_ENV)
    # Jobs overlap, so the requests answered before the failure (which is
    # not counted) vary: the count is logged, not asserted.
    print(f"stand-in answered {totals(stand)[0]} requests")
    assert (done.returncode, "Traceback" in done.stderr) == (3, False), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert "document 1.3, setting raw" in done.stderr
    assert sorted(path.name for path in (tmp_path / "aborted" / "models").iterdir()) == \
        ["1.2_raw_extracted.json", "1.2_raw_gold.json"]
    assert list((tmp_path / "aborted").glob("report.*")) == []


def test_a_live_run_suite_asks_the_prompts_of_twin_documents_once(serve, tmp_path):
    """1.3 takes 1.2's body and gold, so its jobs ask 1.2's prompts, at the
    same time when jobs overlap: the scheduler hands a job the call already
    in flight, so the stand-in answers each prompt once."""
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    twin = next(r for r in records if r["id"] == "1.2")
    records = [{**twin, "id": "1.3"} if r["id"] == "1.3" else r for r in records]
    (tmp_path / "twins.json").write_text(json.dumps(records))
    stand, url = serve(tmp_path / "twins.json", delay_s=0.02)
    pex_ok(live(url, "--record", "--cache", "twins.jsonl", "--corpus", "twins.json",
                "--settings", "raw", "--outdir", "twins"), tmp_path, LIVE_ENV)
    assert totals(stand) == (245, 245)


def test_a_noisy_live_recording_replays_to_the_same_outputs(serve, tmp_path):
    """Noisy answers reword the Q1 list, so a job's gs run takes only some
    of its ex run's prompts from the job's render memo and renders the rest:
    the recording runs through the overlapped scheduler (width 16), the
    replay through the inline one (width 1). The stand-in serves synthgen's
    corpus, since noisy mode answers HTTP 400 on the bundled one."""
    assert synthgen.main(["--seed", "1", "--out", str(tmp_path / "noisy-corpus.json")]) == 0
    _, url = serve(tmp_path / "noisy-corpus.json", "noisy")
    recorded = pex_ok(live(url, "--record", "--cache", "noisy.jsonl",
                           "--corpus", "noisy-corpus.json", "--outdir", "noisy-live"),
                      tmp_path, LIVE_ENV)
    lines = (tmp_path / "noisy.jsonl").read_bytes().count(b"\n")
    print(f"noisy.jsonl holds {lines} lines")
    replayed = pex_ok(["run-suite", "--backend", "replay", "--cache", "noisy.jsonl",
                       "--corpus", "noisy-corpus.json", "--outdir", "noisy-replay"], tmp_path)
    assert recorded.stdout == replayed.stdout
    assert_reports_equal(tmp_path / "noisy-live", tmp_path / "noisy-replay")
    models = files(tmp_path / "noisy-live" / "models")
    assert len(models) == 56
    assert models == files(tmp_path / "noisy-replay" / "models")
