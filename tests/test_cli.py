import gc
import http.server
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import cli, corpus, prompting
from pexkit.backend import OracleBackend, TranscriptCache
from pexkit.corpus import EVALUATION_IDS, SHOT_IDS
from pexkit.errors import BackendError, PexError
from pexkit.suite import atomic_write

# synthgen seed 1's document 10.1 with its two shot documents, its noisy
# answers recorded through the stand-in, and the model and ex scores each
# recording gave.
NOISY = Path(__file__).parent / "data" / "noisy"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prompt_subcommand(capsys):
    code, out, _ = run_cli(capsys, "prompt", "--question", "q1",
                           "--setting", "defs", "--doc", "1.2")
    assert code == 0
    assert out.startswith("Considering the context of Business Process Management")
    assert out.endswith("A: ")


def test_prompt_unknown_doc(capsys):
    code, _, err = run_cli(capsys, "prompt", "--question", "q1",
                           "--setting", "raw", "--doc", "77.7")
    assert code == 2
    assert "not in corpus" in err


@pytest.mark.parametrize("question, bindings, missing", [
    ("q2", ["--x", ""], "X"), ("q2", ["--x", "  "], "X"),
    ("q3", ["--x", "receives the order", "--y", ""], "Y")])
def test_prompt_rejects_a_blank_binding(capsys, question, bindings, missing):
    code, out, err = run_cli(capsys, "prompt", "--question", question,
                             "--setting", "raw", "--doc", "10.1", *bindings)
    assert code == 2
    assert out == ""
    assert f"requires a non-blank binding {missing}" in err


@pytest.mark.parametrize("question, bindings, unused", [
    ("q1", ["--x", "foo"], "X"), ("q2", ["--x", "receives the order", "--y", "foo"], "Y")])
def test_prompt_rejects_a_binding_the_question_does_not_take(capsys, question, bindings,
                                                             unused):
    code, out, err = run_cli(capsys, "prompt", "--question", question,
                             "--setting", "raw", "--doc", "10.1", *bindings)
    assert code == 2
    assert out == ""
    assert f"takes no binding {unused}" in err


@pytest.mark.parametrize("question, bindings, name", [
    ("q2", ["--x", "\udcff"], "X"), ("q3", ["--x", "receives the order", "--y", "a\udcffb"], "Y")])
def test_prompt_rejects_a_binding_that_is_not_utf8(capsys, question, bindings, name):
    """A byte of argv that is not UTF-8 reaches Python as a lone surrogate."""
    code, out, err = run_cli(capsys, "prompt", "--question", question,
                             "--setting", "raw", "--doc", "10.1", *bindings)
    assert code == 2
    assert out == ""
    assert f"binding {name} " in err and "is not UTF-8 text" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "prompt", "--question", "q1")
    assert code == 1


def test_extract_oracle_and_evaluate(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    dot_path = tmp_path / "model.dot"
    code, out, _ = run_cli(capsys, "extract", "--doc", "10.1",
                           "--setting", "raw", "--backend", "oracle",
                           "--activity-source", "gold",
                           "--out", str(model_path), "--dot", str(dot_path))
    assert code == 0
    assert "4 activities" in out
    assert "0 unknown Q3 answers" in out
    assert dot_path.read_text().count("->") > 0

    code, out, _ = run_cli(capsys, "evaluate", "--doc", "10.1",
                           "--model", str(model_path), "--mode", "gs")
    assert code == 0
    assert "1.00" in out
    assert "0.00" not in out.replace("Follows", "")


def test_extract_verbose_logs_one_issued_line_per_question(tmp_path, capsys, caplog):
    """``-v`` logs ``issued <question> prompt <digest>`` once for each question
    the dialogue asks, in question order, as many as the summary line counts."""
    caplog.set_level("DEBUG", logger="pexkit")
    code, out, _ = run_cli(capsys, "-v", "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "oracle", "--out", str(tmp_path / "model.json"))
    assert code == 0
    issued = [r.getMessage().split() for r in caplog.records
              if r.getMessage().startswith("issued ")]
    counts = re.search(r"\((\d+) Q1 / (\d+) Q2 / (\d+) Q3 queries", out)
    assert len(issued) == sum(map(int, counts.groups())) == 1 + 4 + 12
    assert [question for _, question, _, _ in issued] == ["q1"] + ["q2"] * 4 + ["q3"] * 12
    assert all(word == "prompt" and len(digest) == 64 for _, _, word, digest in issued)


def test_evaluate_oracle_model_all_ones(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run_cli(capsys, "extract", "--doc", "3.3", "--setting", "2shots",
            "--backend", "oracle", "--out", str(model_path))
    code, out, _ = run_cli(capsys, "evaluate", "--doc", "3.3",
                           "--model", str(model_path), "--mode", "ex",
                           "--out-json", str(tmp_path / "r.json"))
    assert code == 0
    data = json.loads((tmp_path / "r.json").read_text())
    rows = data["-"]["3.3"]
    for row, scores in rows.items():
        assert scores["f1"] == 1.0, row


def test_evaluate_rejects_out_of_range_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "doc_id": "3.3", "activities": ["a"], "participants": [],
        "performs": [], "follows": [[0, 5]], "provenance": {}}))
    code, _, err = run_cli(capsys, "evaluate", "--doc", "3.3",
                           "--model", str(model_path))
    assert code == 2
    assert "index 5 out of range" in err


@pytest.mark.parametrize("mode, activities, provenance, message, doc_id", [
    pytest.param("gs", "abcd", {}, "activity phrase", "10.1", id="gs-abcd"),
    pytest.param("ex", [5, "x"], {}, "activity phrase", "10.1", id="ex-activities1"),
    pytest.param("ex", ["check stock", "Check  stock"], {}, "activity phrase", "10.1",
                 id="ex-activities2"),
    pytest.param("ex", ["check stock"], [], "provenance must be an object", "10.1",
                 id="ex-provenance-list"),
    pytest.param("gs", ["check stock"], {"activity:0": "ab"}, "must be a list of strings",
                 "10.1", id="gs-provenance-string"),
    pytest.param("ex", ["check stock"], {}, "is of document 1.2, not 10.1", "1.2",
                 id="ex-other-document"),
    pytest.param("gs", ["check stock"], {}, "doc_id 5 is not a non-blank string", 5,
                 id="gs-numeric-doc-id")])
def test_evaluate_rejects_malformed_phrase_list(tmp_path, capsys, mode, activities,
                                                provenance, message, doc_id):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "doc_id": doc_id, "activities": activities, "participants": [],
        "performs": [], "follows": [], "provenance": provenance}))
    scores = tmp_path / "scores.json"
    code, out, err = run_cli(capsys, "evaluate", "--doc", "10.1", "--mode", mode,
                             "--model", str(model_path), "--out-json", str(scores))
    assert code == 2
    assert message in err
    assert out == ""
    assert "Traceback" not in err
    assert not scores.exists()


@pytest.mark.parametrize("key, value", [("performs", {}), ("follows", "")])
def test_evaluate_rejects_edges_that_are_not_a_list(tmp_path, capsys, key, value):
    """The shapes a corpus's gold rejects, a world-model file rejects too."""
    model = {"doc_id": "10.1", "activities": ["check stock"], "participants": [],
             "performs": [], "follows": [], "provenance": {}}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({**model, key: value}))
    code, out, err = run_cli(capsys, "evaluate", "--doc", "10.1", "--model", str(model_path))
    assert code == 2
    assert f"{key} is a {type(value).__name__}, not a list" in err
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("settings, message", [
    ("raw,raw", "setting given twice: raw"), ("raw,defs,raw", "setting given twice: raw"),
    ("raw,nope", "unknown setting: nope")])
def test_run_suite_rejects_a_repeated_or_unknown_setting(tmp_path, capsys, settings, message):
    outdir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run-suite", "--settings", settings,
                           "--outdir", str(outdir))
    assert code == 1
    assert message in err
    assert not outdir.exists()


@pytest.mark.parametrize("argv, code", [
    (["evaluate", "--doc", "3.3", "--model", "{missing}"], 2),
    (["run-suite", "--settings", "raw", "--outdir", "{out}", "--aliases", "{missing}"], 2),
    (["run-suite", "--settings", "raw", "--outdir", "{out}", "--aliases", "{bad_json}"], 2),
    (["run-suite", "--settings", "raw", "--outdir", "{out}", "--aliases", "{list_json}"], 2),
    (["prompt", "--question", "q1", "--setting", "raw", "--doc", "1.2",
      "--corpus", "{directory}"], 2),
    (["run-suite", "--backend", "replay", "--cache", "{directory}", "--settings", "raw",
      "--outdir", "{out}"], 3),
    # Nested deeper than the JSON parser's recursion limit.
    (["import", "--raw", "{deep}", "--out", "{out}"], 2),
    (["run-suite", "--corpus", "{deep}", "--settings", "raw", "--outdir", "{out}"], 2),
    (["evaluate", "--doc", "3.3", "--model", "{deep}"], 2),
    (["run-suite", "--settings", "raw", "--outdir", "{out}", "--aliases", "{deep}"], 2),
    (["run-suite", "--backend", "replay", "--cache", "{deep}", "--settings", "raw",
      "--outdir", "{out}"], 3),
], ids=["model-missing", "aliases-missing", "aliases-bad-json", "aliases-not-a-map",
        "corpus-directory", "cache-directory", "raw-deep", "corpus-deep", "model-deep",
        "aliases-deep", "cache-deep"])
def test_unreadable_input_file_exits_cleanly(tmp_path, capsys, argv, code):
    (tmp_path / "bad.json").write_text('{"ships": [')
    (tmp_path / "list.json").write_text('["ships"]')
    (tmp_path / "deep.json").write_text("[" * 200000)
    (tmp_path / "dir").mkdir()
    paths = {"missing": tmp_path / "missing.json", "bad_json": tmp_path / "bad.json",
             "list_json": tmp_path / "list.json", "deep": tmp_path / "deep.json",
             "directory": tmp_path / "dir", "out": tmp_path / "out"}
    got, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    assert err.startswith("error:" if code == 2 else "backend error:")
    assert "Traceback" not in err


def test_run_suite_torn_cache_tail_is_skipped(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"digest": "ab')
    code, _, err = run_cli(capsys, "run-suite", "--backend", "replay",
                           "--cache", str(cache), "--settings", "raw",
                           "--outdir", str(tmp_path / "out"))
    assert code == 3
    assert "cache miss" in err
    assert "Traceback" not in err


def test_run_suite_corrupt_cache_exits_3(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"digest": "ab\n{}\n')
    code, _, err = run_cli(capsys, "run-suite", "--backend", "replay",
                           "--cache", str(cache), "--settings", "raw",
                           "--outdir", str(tmp_path / "out"))
    assert code == 3
    assert "does not parse" in err


def test_run_suite_cache_miss_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run-suite", "--backend", "replay",
                           "--cache", str(tmp_path / "missing.jsonl"),
                           "--settings", "raw",
                           "--outdir", str(tmp_path / "out"))
    assert code == 3
    assert "cache miss" in err


def test_run_suite_replay_requires_cache(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run-suite", "--backend", "replay",
                           "--outdir", str(tmp_path / "out"))
    assert code == 1
    assert "--cache" in err
    code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "oracle", "--record",
                           "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "--record requires --cache" in err
    assert not (tmp_path / "m.json").exists()
    code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "replay", "--record",
                           "--cache", str(tmp_path / "c.jsonl"),
                           "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "--record does not apply to the replay backend" in err
    assert not (tmp_path / "m.json").exists()
    for kind in ("oracle", "live"):
        code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                               "--backend", kind, "--cache", str(tmp_path / "c.jsonl"),
                               "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert f"--cache with the {kind} backend requires --record" in err
        assert not (tmp_path / "m.json").exists()
        assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("argv, message", [
    (["extract", "--doc", "10.1", "--setting", "raw", "--backend", "replay",
      "--out", "{out}"], "replay backend requires --cache"),
    (["extract", "--doc", "10.1", "--setting", "raw", "--backend", "oracle",
      "--cache", "{cache}", "--out", "{out}"], "--cache with the oracle backend requires --record"),
    (["run-suite", "--backend", "live", "--record", "--outdir", "{out}"],
     "--record requires --cache"),
    (["run-suite", "--backend", "replay", "--record", "--cache", "{cache}", "--outdir", "{out}"],
     "--record does not apply to the replay backend"),
    (["run-suite", "--settings", "raw,nope", "--outdir", "{out}"], "unknown setting: nope"),
    (["run-suite", "--settings", "raw,raw", "--outdir", "{out}"], "setting given twice: raw"),
], ids=["extract-replay-no-cache", "extract-cache-no-record", "suite-record-no-cache",
        "suite-replay-record", "suite-unknown-setting", "suite-setting-twice"])
def test_usage_error_comes_before_reading_the_corpus(tmp_path, capsys, argv, message):
    """A usage error is exit 1 even when the corpus file is missing too."""
    paths = {"out": tmp_path / "out", "cache": tmp_path / "c.jsonl"}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv),
                             "--corpus", str(tmp_path / "missing.json"))
    assert code == 1
    assert message in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_live_backend_runs_16_calls_in_flight(monkeypatch, entries):
    monkeypatch.setenv("PEX_API_KEY", "k")
    args = cli.build_parser().parse_args(
        ["run-suite", "--backend", "live", "--endpoint", "http://127.0.0.1:9/v1",
         "--outdir", "out"])
    backend = cli._make_backend(args, entries)
    assert backend.max_concurrency == 16
    backend.close()


class AnswerNo(http.server.BaseHTTPRequestHandler):
    """Answers every completion request with the server's ``status`` and
    the text ``No``, over keep-alive HTTP/1.1."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"choices": [{"text": "No"}]}).encode()
        self.send_response(self.server.status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("status, code", [(200, 0), (400, 3)])
@pytest.mark.parametrize("command", [
    ["extract", "--doc", "10.1", "--setting", "raw", "--out", "{out}/m.json"],
    ["run-suite", "--settings", "raw", "--outdir", "{out}"]], ids=["extract", "run-suite"])
def test_live_commands_close_their_connections(tmp_path, monkeypatch, capsys, command, status,
                                               code):
    """``extract`` and ``run-suite`` with the live backend close every
    connection they opened, whether the run succeeds or fails."""
    monkeypatch.setenv("PEX_API_KEY", "k")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), AnswerNo)
    server.status = status
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        argv = [*(arg.format(out=tmp_path) for arg in command), "--backend", "live",
                "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/v1"]
        assert cli.main(argv) == code, capsys.readouterr().err
        gc.collect()  # an unclosed socket warns when it is collected
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize("threshold, activity", [
    (None, "0.75"), ("0.5", "0.75"), ("1", "0.75"),
    ("-1", None), ("0", None), ("nan", None), ("1.5", None), ("inf", None), ("half", None)])
def test_threshold_must_be_in_zero_one(tmp_path, capsys, threshold, activity):
    """At a threshold of 0 or below every phrase pair would match, so a
    model whose first activity is renamed would score Activity 1.00."""
    model_path = tmp_path / "model.json"
    assert cli.main(["extract", "--doc", "10.1", "--setting", "raw", "--backend", "oracle",
                     "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    model["activities"][0] = "zzz qqq"
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    flag = [] if threshold is None else ["--threshold", threshold]
    scores = tmp_path / "scores.json"
    code, out, err = run_cli(capsys, "evaluate", "--doc", "10.1", "--model", str(model_path),
                             "--out-json", str(scores), *flag)
    if activity is not None:
        assert code == 0
        assert f"{json.loads(scores.read_text())['-']['10.1']['Activity']['f1']:.2f}" == activity
        return
    assert code == 1
    assert "--threshold: must be a number in (0, 1]" in err
    assert out == ""
    assert not scores.exists()
    outdir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run-suite", "--settings", "raw", "--outdir", str(outdir),
                           *flag)
    assert code == 1
    assert "--threshold: must be a number in (0, 1]" in err
    assert not outdir.exists()


def test_cli_import_loads_no_http_client():
    src = Path(cli.__file__).parents[1]
    probe = ("import pexkit.cli, sys; "
             "print(sorted({'requests', 'urllib3', 'http.client'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_unwritable_cache_exits_3(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "oracle", "--record",
                           "--cache", str(tmp_path / "file" / "c.jsonl"),
                           "--out", str(tmp_path / "m.json"))
    assert code == 3
    assert err.startswith("backend error: cannot write transcript cache")
    assert "Traceback" not in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "oracle", "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_atomic_write_makes_a_missing_parent(tmp_path):
    path = tmp_path / "a" / "b" / "report.csv"
    atomic_write(path, "x\n")
    atomic_write(path, "y\n")
    assert path.read_text() == "y\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.csv"]


def test_atomic_write_under_a_file_raises_and_leaves_nothing(tmp_path):
    (tmp_path / "file").write_text("kept")
    for path in (tmp_path / "file" / "report.csv", tmp_path / "file" / "models" / "m.json"):
        with pytest.raises(PexError, match=f"cannot write {path}"):
            atomic_write(path, "x")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_two_writers_of_one_path_each_publish_a_whole_text(tmp_path):
    """Each writer writes its own temp file, so one never moves the other's
    half-written text over the path: every write succeeds, the path holds
    one whole text, and no temp file is left."""
    path = tmp_path / "report.json"
    texts = [ch * 1_000_000 for ch in "abcd"]
    errors = []

    def write(text):
        try:
            for _ in range(5):
                atomic_write(path, text)
        except PexError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(text,)) for text in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert path.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_run_suite_oracle_single_setting(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run-suite", "--backend", "oracle",
                           "--settings", "raw", "--outdir", str(outdir))
    assert code == 0
    csv = (outdir / "report.csv").read_text()
    assert "Average,Activity,1.00,1.00,1.00" in csv
    assert (outdir / "models" / "10.1_raw_gold.json").exists()


def test_import_subcommand(tmp_path, capsys):
    raw = [{
        "id": "z", "body": "someone does alpha then beta",
        "gold": {"activities": [{"surface": "does alpha", "index": 8},
                                {"surface": "beta", "index": 24}],
                 "participants": ["someone"], "performs": [[0, 0]]},
        "graph": {"nodes": [{"id": 0, "kind": "activity", "activity": 0},
                            {"id": 1, "kind": "gateway"},
                            {"id": 2, "kind": "activity", "activity": 1}],
                  "edges": [[0, 1], [1, 2]]},
    }]
    raw_path = tmp_path / "raw.json"
    raw_path.write_text(json.dumps(raw))
    out_path = tmp_path / "corpus.json"
    code, out, _ = run_cli(capsys, "import", "--raw", str(raw_path),
                           "--out", str(out_path))
    assert code == 0
    records = json.loads(out_path.read_text())
    assert records[0]["gold"]["follows"] == [[0, 1]]


def test_prompt_idempotent(capsys):
    _, first, _ = run_cli(capsys, "prompt", "--question", "q3",
                          "--setting", "defs+2shots", "--doc", "5.2",
                          "--x", "writes the diagnosis", "--y", "analyzes the sample")
    _, second, _ = run_cli(capsys, "prompt", "--question", "q3",
                           "--setting", "defs+2shots", "--doc", "5.2",
                           "--x", "writes the diagnosis", "--y", "analyzes the sample")
    assert first == second


def _bundled_records():
    text = resources.files("pexkit.data").joinpath("corpus.json").read_text("utf-8")
    return json.loads(text)


def test_run_suite_missing_evaluation_document(tmp_path, capsys):
    records = _bundled_records()
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps([r for r in records if r["id"] != "10.13"]))
    code, _, err = run_cli(capsys, "run-suite", "--backend", "oracle",
                           "--corpus", str(corpus_path), "--settings", "raw",
                           "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "evaluation documents missing" in err
    assert "Traceback" not in err


def test_prompt_uses_the_given_corpus_shots(tmp_path, capsys):
    records = _bundled_records()
    changed = "A clerk stamps the form and then files it in the archive."
    for record in records:
        if record["id"] == SHOT_IDS[0]:
            record["body"] = changed
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "prompt", "--question", "q1",
                           "--setting", "2shots", "--doc", "1.2",
                           "--corpus", str(corpus_path))
    assert code == 0
    assert changed in out


@pytest.mark.parametrize("command", [
    ["run-suite", "--settings", "raw", "--outdir", "{out}"],
    ["prompt", "--question", "q1", "--setting", "raw", "--doc", "10.1"]],
    ids=["run-suite", "prompt"])
def test_corpus_text_holding_a_lone_surrogate_exits_2(tmp_path, capsys, command):
    """``json.loads`` reads ``"\\ud800"`` as a lone surrogate, which does not
    encode as UTF-8; the corpus loader rejects it."""
    records = _bundled_records()
    for record in records:
        if record["id"] == "10.1":
            record["body"] += " \ud800"
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(records))
    code, out, err = run_cli(capsys, *(arg.format(out=tmp_path / "out") for arg in command),
                             "--corpus", str(corpus_path))
    assert code == 2
    assert "is not UTF-8 text" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["prompt", "completion"])
def test_replayed_cache_line_holding_a_lone_surrogate_exits_3(tmp_path, capsys, field):
    cache = tmp_path / "c.jsonl"
    argv = ["extract", "--doc", "10.1", "--setting", "raw", "--out", str(tmp_path / "m.json")]
    assert cli.main([*argv, "--backend", "oracle", "--record", "--cache", str(cache)]) == 0
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    lines[0][field] += "\ud800"
    cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    code, _, err = run_cli(capsys, *argv, "--backend", "replay", "--cache", str(cache))
    assert code == 3
    assert "c.jsonl:1: malformed cache entry" in err
    assert "Traceback" not in err


RECORD = {"id": "x", "body": "a clerk stamps the form then files it",
          "gold": {"activities": [{"surface": "stamps the form", "index": 8},
                                  {"surface": "files it", "index": 29}],
                   "participants": ["a clerk"], "performs": [[0, 0]], "follows": [[0, 1]]}}
RAW_RECORD = {**RECORD, "gold": {k: v for k, v in RECORD["gold"].items() if k != "follows"},
              "graph": {"nodes": [{"id": 0, "kind": "activity", "activity": 0},
                                  {"id": 1, "kind": "activity", "activity": 1}],
                        "edges": [[0, 1]]}}


def _gold(**changes):
    return [{**RECORD, "gold": {**RECORD["gold"], **changes}}]


@pytest.mark.parametrize("command, content, code", [
    ("extract", [RECORD], 0),
    ("import", [RAW_RECORD], 0),
    ("extract", _gold(performs=[["x", 0]]), 2),
    ("extract", _gold(performs=[[0, 0, 0]]), 2),
    ("extract", _gold(follows=[[0, 1.0]]), 2),
    ("extract", _gold(participants="a clerk"), 2),
    ("extract", [{**RECORD, "body": 5}], 2),
    ("extract", _gold(activities=[{"surface": 5, "index": 8}, RECORD["gold"]["activities"][1]]),
     2),
    ("import", 5, 2),
    ("import", [{k: v for k, v in RAW_RECORD.items() if k != "id"}], 2),
], ids=["valid-corpus", "valid-raw", "performs-str-index", "performs-triple",
        "follows-float-index", "participants-str", "numeric-body", "numeric-surface", "raw-not-a-list",
        "raw-without-id"])
def test_malformed_corpus_file_exits_2(tmp_path, capsys, command, content, code):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    if command == "extract":  # render and the oracle read the body and surfaces
        argv = ["extract", "--doc", "x", "--setting", "raw", "--corpus", str(path),
                "--out", str(tmp_path / "m.json")]
    else:
        argv = ["import", "--raw", str(path), "--out", str(tmp_path / "out.json")]
    got, _, err = run_cli(capsys, *argv)
    assert got == code
    assert err.startswith("error:") == bool(code)
    assert "Traceback" not in err


# -- fuzzing the input files ---------------------------------------------------

# Text of any characters, lone surrogates included: ``json.loads`` reads an
# escaped one, and ``st.characters()`` alone never draws one.
ANY_TEXT = st.text(st.characters() | st.sampled_from("\ud800\udfff"), max_size=8)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(ANY_TEXT, inner, max_size=3)),
    max_leaves=6)

# input kind -> the command that reads it; "{kind}" is that kind's file.
FUZZED_COMMANDS = [
    ("corpus", ["run-suite", "--corpus", "{corpus}", "--settings", "raw", "--outdir", "{out}"]),
    ("corpus", ["prompt", "--question", "q1", "--setting", "2shots", "--doc", "1.2",
                "--corpus", "{corpus}"]),
    ("raw", ["import", "--raw", "{raw}", "--out", "{out}"]),
    ("model", ["evaluate", "--corpus", "{corpus}", "--doc", "1.2", "--model", "{model}",
               "--aliases", "{aliases}", "--out-json", "{out}"]),
    ("aliases", ["evaluate", "--corpus", "{corpus}", "--doc", "1.2", "--model", "{model}",
                 "--aliases", "{aliases}", "--out-json", "{out}"]),
    ("cache", ["extract", "--corpus", "{corpus}", "--doc", "1.2", "--setting", "raw",
               "--backend", "replay", "--cache", "{cache}", "--out", "{out}"]),
]


def _write_inputs(directory, inputs) -> dict:
    """Write each input where its command reads it; a cache is one JSON line
    per entry. Returns the paths by kind, plus ``out``."""
    paths = {"out": directory / "out"}
    for kind, value in inputs.items():
        paths[kind] = directory / f"{kind}.json"
        lines = value if kind == "cache" else [value]
        paths[kind].write_text("".join(json.dumps(line) + "\n" for line in lines))
    return paths


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each kind: a small corpus holding every evaluation
    and shot document, a raw import, a model of 1.2, an alias map and the
    replay cache of 1.2's raw run."""
    directory = tmp_path_factory.mktemp("valid")
    inputs = {"corpus": [{**RECORD, "id": doc_id} for doc_id in EVALUATION_IDS + SHOT_IDS],
              "raw": [RAW_RECORD], "aliases": {"stamps form": ["stamps the form"]}}
    paths = _write_inputs(directory, inputs)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["extract", "--corpus", str(paths["corpus"]), "--doc", "1.2",
                         "--setting", "raw", "--backend", "oracle", "--record",
                         "--cache", str(directory / "cache.json"),
                         "--out", str(directory / "model.json")]) == 0
    inputs["model"] = json.loads((directory / "model.json").read_text())
    inputs["cache"] = [json.loads(line)
                       for line in (directory / "cache.json").read_text().splitlines()]
    return inputs


def _json_paths(value, path=()):
    """Every position in a JSON value, the whole value first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(FUZZED_COMMANDS), data=st.data())
def test_any_json_in_an_input_file_gets_an_exit_code(valid_inputs, command, data):
    """One field of a valid input file, or the whole file (for a cache, one
    line), replaced by any JSON value: the command exits 0-3, no traceback."""
    kind, argv = command
    base = valid_inputs[kind]
    spots = [p for p in _json_paths(base) if p or kind != "cache"]
    spot = data.draw(st.sampled_from(spots), label="spot")
    inputs = {**valid_inputs, kind: _replaced(base, spot, data.draw(ANY_JSON, label="value"))}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_inputs(Path(directory), inputs)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("width", [1, 8])
def test_ctrl_c_exits_130_and_a_rerun_resumes(tmp_path, monkeypatch, capsys, width):
    """A Ctrl-C part-way through a recording, raised on the calling thread
    (width 1) or on a worker thread (width 8), ends the command with one
    line and exit code 130, and no traceback. The cache keeps what was
    recorded, and re-running the same command asks only the prompts it
    misses and writes the reports an uninterrupted run writes."""
    asked = []
    interrupt_at = [100]
    lock = threading.Lock()

    class Interrupting(OracleBackend):
        """The oracle at width ``width``, with a Ctrl-C at the call ``interrupt_at``."""
        max_concurrency = width

        def complete(self, prompt, params):
            with lock:
                asked.append(prompt.digest)
                if len(asked) in interrupt_at:
                    raise KeyboardInterrupt
            return super().complete(prompt, params)

    monkeypatch.setattr(cli, "OracleBackend", Interrupting)
    cache = tmp_path / "c.jsonl"
    argv = ["run-suite", "--backend", "oracle", "--record", "--cache", str(cache),
            "--settings", "raw,defs+2shots", "--outdir", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 130
    assert err == (f"interrupted: the answers recorded so far stay in {cache}; "
                   f"re-running the same command resumes\n")
    kept = len(TranscriptCache(cache))
    assert (kept == 99) if width == 1 else (99 <= kept < 734)
    asked.clear()
    interrupt_at.clear()
    assert run_cli(capsys, *argv)[0] == 0
    assert len(asked) == 734 - kept
    assert len(TranscriptCache(cache)) == 734
    assert run_cli(capsys, "run-suite", "--settings", "raw,defs+2shots",
                   "--outdir", str(tmp_path / "whole"))[0] == 0
    for report in ("report.csv", "report.json"):
        assert (tmp_path / "out" / report).read_bytes() == \
            (tmp_path / "whole" / report).read_bytes()


def test_ctrl_c_without_a_cache_exits_130(tmp_path, monkeypatch, capsys):
    def interrupt(self, prompt, params):
        raise KeyboardInterrupt

    monkeypatch.setattr(OracleBackend, "complete", interrupt)
    code, out, err = run_cli(capsys, "run-suite", "--settings", "raw",
                             "--outdir", str(tmp_path / "out"))
    assert (code, out, err) == (130, "", "interrupted\n")


def test_ctrl_c_while_parsing_exits_130(tmp_path, monkeypatch, capsys):
    def interrupt(text):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_settings", interrupt)
    code, out, err = run_cli(capsys, "run-suite", "--settings", "raw",
                             "--outdir", str(tmp_path / "out"))
    assert (code, out, err) == (130, "", "interrupted\n")


def test_a_replay_looks_up_each_distinct_prompt_once(tmp_path, monkeypatch, capsys):
    """A recording asks the oracle once per distinct prompt. A replay of it
    reads each through ``TranscriptCache.lookup`` once, whose entry holds
    the prompt's whole text, and asks the oracle nothing: the benchmark
    counts a replay's questions by wrapping ``lookup``."""
    asked, entries = {}, []
    complete, lookup = OracleBackend.complete, TranscriptCache.lookup

    def counting_complete(self, prompt, params):
        asked.setdefault(prompt.digest, []).append(prompt.text)
        return complete(self, prompt, params)

    def counting_lookup(self, digest):
        entry = lookup(self, digest)
        entries.append((digest, entry))
        return entry

    monkeypatch.setattr(OracleBackend, "complete", counting_complete)
    monkeypatch.setattr(TranscriptCache, "lookup", counting_lookup)
    argv = ["run-suite", "--cache", str(tmp_path / "c.jsonl"), "--settings", "raw,defs+2shots",
            "--outdir", str(tmp_path / "out")]
    assert run_cli(capsys, *argv, "--backend", "oracle", "--record")[0] == 0
    assert len(asked) == sum(map(len, asked.values())) == 734
    recorded = {digest: texts[0] for digest, texts in asked.items()}
    asked.clear()
    entries.clear()
    assert run_cli(capsys, *argv, "--backend", "replay")[0] == 0
    assert asked == {}
    assert len(entries) == len({digest for digest, _ in entries}) == 734
    for digest, entry in entries:
        assert entry["prompt"] == recorded[digest], digest


@pytest.mark.parametrize("setting, follows, unknown", [("raw", (5, 1, 3), 1),
                                                      ("defs+2shots", (5, 3, 3), 2)])
def test_a_pinned_noisy_recording_replays_to_its_model_and_scores(tmp_path, capsys, setting,
                                                                  follows, unknown):
    """A replay of a recording of seeded noisy answers writes the recorded
    world model, and scoring it writes the recorded ex scores, byte for
    byte. Its answers miss and add elements, so its scores are not 1.00."""
    corpus_path, model, scores = NOISY / "corpus.json", tmp_path / "m.json", tmp_path / "s.json"
    code, out, _ = run_cli(capsys, "extract", "--corpus", str(corpus_path), "--doc", "10.1",
                           "--setting", setting, "--backend", "replay",
                           "--cache", str(NOISY / f"{setting}.jsonl"), "--out", str(model))
    assert code == 0
    assert f"{unknown} unknown Q3 answers" in out
    assert model.read_bytes() == (NOISY / f"{setting}-model.json").read_bytes()
    assert run_cli(capsys, "evaluate", "--corpus", str(corpus_path), "--doc", "10.1",
                   "--model", str(model), "--mode", "ex", "--out-json", str(scores))[0] == 0
    assert scores.read_bytes() == (NOISY / f"{setting}-scores.json").read_bytes()
    row = json.loads(scores.read_text())["-"]["10.1"]["Follows (ex)"]
    assert (row["tp"], row["fp"], row["fn"]) == follows  # P/R 0.83/0.63 and 0.63/0.63


def test_a_backend_error_mid_suite_names_the_job_it_stopped_at(tmp_path, capsys):
    """A replay of a cache without one line of a middle job exits 3 with one
    line that names the document, setting and activity source it stopped
    at, where the earlier jobs' models are, and that no report was written."""
    cache = tmp_path / "c.jsonl"
    assert run_cli(capsys, "run-suite", "--backend", "oracle", "--record", "--cache", str(cache),
                   "--settings", "raw", "--outdir", str(tmp_path / "rec"))[0] == 0
    doc_id = EVALUATION_IDS[3]
    doc, _ = corpus.corpus_index(corpus.default_corpus())[doc_id]
    missing = prompting.render(prompting.Q1, prompting.RAW, doc).digest
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text("".join(line for line in lines if json.loads(line)["digest"] != missing))
    outdir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run-suite", "--backend", "replay", "--cache", str(cache),
                           "--settings", "raw", "--outdir", str(outdir))
    assert code == 3
    assert err.startswith(f"backend error: transcript cache miss for digest {missing[:12]}")
    assert err.endswith(f"; stopped at document {doc_id}, setting raw, activity source "
                        f"extracted; the models of any jobs before it are in "
                        f"{outdir / 'models'}, and no report was written\n")
    assert err.count("\n") == 1
    assert sorted(path.name for path in (outdir / "models").iterdir()) == sorted(
        f"{d}_raw_{source}.json" for d in EVALUATION_IDS[:3] for source in ("extracted", "gold"))
    assert not (outdir / "report.csv").exists()


def test_a_backend_error_mid_extract_under_record_says_a_rerun_resumes(tmp_path, monkeypatch,
                                                                       capsys):
    """A backend error part-way through a recording ends ``extract`` with one
    line that names where it stopped and says that a re-run resumes; the
    answer before it stays in the cache."""
    answer = OracleBackend.complete

    def fail_q2(self, prompt, params):
        if prompt.question == prompting.Q2:
            raise BackendError("scripted failure")
        return answer(self, prompt, params)

    monkeypatch.setattr(OracleBackend, "complete", fail_q2)
    cache = tmp_path / "c.jsonl"
    code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                           "--backend", "oracle", "--record", "--cache", str(cache),
                           "--out", str(tmp_path / "m.json"))
    assert (code, err) == (3, f"backend error: scripted failure; stopped at document 10.1, "
                              f"setting raw, activity source extracted; the answers recorded "
                              f"so far stay in {cache}; re-running the same command resumes\n")
    assert len(TranscriptCache(cache)) == 1
