import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from pexkit import cli
from pexkit.corpus import SHOT_IDS


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


@pytest.mark.parametrize("mode, activities, provenance, message", [
    pytest.param("gs", "abcd", {}, "activity phrase", id="gs-abcd"),
    pytest.param("ex", [5, "x"], {}, "activity phrase", id="ex-activities1"),
    pytest.param("ex", ["check stock", "Check  stock"], {}, "activity phrase",
                 id="ex-activities2"),
    pytest.param("ex", ["check stock"], [], "provenance must be an object",
                 id="ex-provenance-list"),
    pytest.param("gs", ["check stock"], {"activity:0": "ab"}, "must be a list of strings",
                 id="gs-provenance-string")])
def test_evaluate_rejects_malformed_phrase_list(tmp_path, capsys, mode, activities,
                                                provenance, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "doc_id": "10.1", "activities": activities, "participants": [],
        "performs": [], "follows": [], "provenance": provenance}))
    code, out, err = run_cli(capsys, "evaluate", "--doc", "10.1", "--mode", mode,
                             "--model", str(model_path))
    assert code == 2
    assert message in err
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
    for kind in ("oracle", "live"):
        code, _, err = run_cli(capsys, "extract", "--doc", "10.1", "--setting", "raw",
                               "--backend", kind, "--cache", str(tmp_path / "c.jsonl"),
                               "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert f"--cache with the {kind} backend requires --record" in err
        assert not (tmp_path / "m.json").exists()
        assert not (tmp_path / "c.jsonl").exists()


def test_live_backend_runs_16_calls_in_flight(monkeypatch, entries):
    monkeypatch.setenv("PEX_API_KEY", "k")
    args = cli.build_parser().parse_args(
        ["run-suite", "--backend", "live", "--endpoint", "http://127.0.0.1:9/v1",
         "--outdir", "out"])
    backend = cli._make_backend(args, entries)
    assert backend.max_concurrency == 16
    backend.inner.close()


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
