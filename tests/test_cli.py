import json
from importlib import resources

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
