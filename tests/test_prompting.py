import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import cli, corpus, prompting
from pexkit.errors import PromptError
from pexkit.prompting import (DEFINITIONS, DEFS, DEFS_SHOTS2, PREAMBLE, PROCESS_CUE,
                              Q1, Q2, Q3, QUESTION_TEMPLATES, RAW, SHOTS2, default_params,
                              instantiate, render, renderer, transcript_digest)

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_instantiate_q2():
    assert instantiate(Q2, x="send invoice") == \
        "Who is the participant performing activity send invoice in the process model?"


def test_instantiate_q3_order():
    text = instantiate(Q3, x="pay bill", y="send invoice")
    assert "pay bill" in text and "send invoice" in text
    assert text.index("pay bill") < text.index("send invoice")


def test_instantiate_missing_binding():
    with pytest.raises(PromptError):
        instantiate(Q2)
    with pytest.raises(PromptError):
        instantiate(Q3, x="a")


def test_instantiate_unknown_question():
    with pytest.raises(PromptError):
        instantiate("q9", x="a")


def test_instantiate_does_not_rewrite_a_placeholder_inside_a_binding():
    assert instantiate(Q3, x="fill in form Y", y="check order") == (
        "Considering the list of process activity described in the text, does activity "
        "fill in form Y immediately follow activity check order in the process model?")


@pytest.mark.parametrize("binding", ["\\1", "\\g<0>", "a \\X b"])
def test_instantiate_takes_a_binding_verbatim(binding):
    assert instantiate(Q2, x=binding) == \
        f"Who is the participant performing activity {binding} in the process model?"


@pytest.mark.parametrize("question, bindings", [
    (Q1, {"x": "a"}), (Q1, {"y": "a"}), (Q1, {"x": ""}), (Q2, {"x": "a", "y": "b"})])
def test_instantiate_rejects_a_binding_the_question_does_not_take(question, bindings):
    with pytest.raises(PromptError, match="takes no binding"):
        instantiate(question, **bindings)


def test_raw_has_no_preamble_or_shots(index):
    doc, _ = index["1.2"]
    p = render(Q1, RAW, doc)
    assert PREAMBLE not in p.text
    assert p.text.count(PROCESS_CUE) == 1
    assert p.text.endswith("A: ")


def test_defs_q1_includes_only_activity_definition(index):
    doc, _ = index["1.2"]
    text = render(Q1, DEFS, doc).text
    assert "Activity:" in text
    assert "Participant:" not in text
    assert "Flow:" not in text


def test_defs_applicability_per_question(index):
    doc, _ = index["1.2"]
    q2 = render(Q2, DEFS, doc, x="places an order").text
    assert "Activity:" in q2 and "Participant:" in q2
    assert "Process Model:" not in q2
    q3 = render(Q3, DEFS, doc, x="a", y="b").text
    for name in ("Activity:", "Process Model:", "Flow:", "Sequence Flow:"):
        assert name in q3
    assert "Participant:" not in q3


def test_shots_block_count(index, shots):
    doc, _ = index["1.2"]
    text = render(Q1, SHOTS2, doc, shots=shots).text
    assert text.count(PROCESS_CUE) == 3  # two shots before the target block
    assert text.index(doc.body) > text.rindex("A: requests")


def test_shot_order_is_2_2_then_10_9(index, shots):
    doc, _ = index["1.2"]
    text = render(Q1, SHOTS2, doc, shots=shots).text
    body_22 = index["2.2"][0].body
    body_109 = index["10.9"][0].body
    assert text.index(body_22) < text.index(body_109)


def test_rendering_is_pure(index, shots):
    doc, _ = index["10.6"]
    a = render(Q3, DEFS_SHOTS2, doc, x="p", y="q", shots=shots)
    b = render(Q3, DEFS_SHOTS2, doc, x="p", y="q", shots=shots)
    assert a.text == b.text


def test_suffix_is_target_question_cue(index, shots):
    doc, _ = index["10.13"]
    for setting in prompting.SETTINGS:
        text = render(Q1, setting, doc, shots=shots).text
        tail = text.split("\n\n")[-1].split("\n")
        assert tail[0] == PROCESS_CUE
        assert tail[1] == doc.body
        assert tail[2].startswith("Q: ")
        assert tail[3] == "A: "
        assert text.endswith("A: ")


def test_defs_shots_compositionality(index, shots):
    doc, _ = index["10.1"]
    combined = render(Q1, DEFS_SHOTS2, doc, shots=shots).text
    defs_block = render(Q1, DEFS, doc).text.split("\n\n")[0]
    shots_blocks = render(Q1, SHOTS2, doc, shots=shots).text.split("\n\n")[:-1]
    target = render(Q1, RAW, doc).text
    assert combined == "\n\n".join([defs_block, *shots_blocks, target])


def test_q2_requires_binding(index):
    doc, _ = index["10.1"]
    with pytest.raises(PromptError):
        render(Q2, RAW, doc)


@pytest.mark.parametrize("question", [Q1, Q2, Q3])
@pytest.mark.parametrize("setting", list(prompting.SETTINGS))
def test_golden_prompts(question, setting, index, shots):
    doc, gold = index["10.1"]
    bindings = {}
    if question in (Q2, Q3):
        bindings["x"] = gold.activities[1 if question == Q3 else 0]
    if question == Q3:
        bindings["x"] = gold.activities[1]
        bindings["y"] = gold.activities[0]
    rendered = render(question, setting, doc, shots=shots, **bindings).text
    name = f"{question}_{setting.replace('+', '_')}.txt"
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert rendered == expected


def test_shot_setting_without_shots_is_an_error(index):
    doc, _ = index["1.2"]
    for shots in (None, []):
        with pytest.raises(PromptError):
            render(Q1, SHOTS2, doc, shots=shots)


def _reference_render(question, setting, doc, x, y, shots):
    """The block join ``render`` made for every prompt before ``renderer``
    joined each batch's head once; the placeholders are filled in one pass."""
    question_text = re.sub(r"\b[XY]\b", lambda m: {"X": x, "Y": y}[m.group()],
                           QUESTION_TEMPLATES[question])
    blocks = []
    if prompting.setting_has_defs(setting):
        lines = [PREAMBLE]
        for definition in DEFINITIONS:
            if question in definition.applies_to:
                lines.append(f"{definition.name}:")
                lines.append(definition.text)
        blocks.append(lines)
    if prompting.setting_has_shots(setting):
        for shot in shots:
            lines = [PROCESS_CUE, shot.body]
            for q, a in shot.qa[question]:
                lines.append(f"Q: {q}")
                lines.append(f"A: {a}")
            blocks.append(lines)
    blocks.append([PROCESS_CUE, doc.body, f"Q: {question_text}", "A: "])
    return "\n\n".join("\n".join(lines) for lines in blocks)


_binding = st.lists(
    st.one_of(st.sampled_from(["X", "Y", " X ", " Y", "\\1", "\\g<0>", "\\", "é", "活動"]),
              st.text(max_size=4)),
    min_size=1, max_size=6).map("".join).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(question=st.sampled_from(prompting.QUESTION_KINDS),
       setting=st.sampled_from(prompting.SETTINGS),
       doc_id=st.sampled_from(["1.2", "10.1", "10.13"]),
       bindings=st.lists(st.tuples(_binding, _binding), min_size=1, max_size=3))
def test_render_equals_the_reference_block_join(index, shots, question, setting, doc_id,
                                                 bindings):
    doc, _ = index[doc_id]
    fill = renderer(question, setting, doc, shots)
    for x, y in bindings:
        x = None if question == Q1 else x
        y = y if question == Q3 else None
        expected = _reference_render(question, setting, doc, x, y, shots)
        prompt = fill(x, y)
        assert prompt.text == expected
        assert (prompt.question, prompt.setting, prompt.doc_id, prompt.x, prompt.y) == \
            (question, setting, doc.id, x, y)
        assert render(question, setting, doc, x=x, y=y, shots=shots) == prompt


_any_binding = st.lists(
    st.one_of(st.sampled_from(["Q: ", "\nA: ", "\x00", "é", "活動", "\U0001f600", "\U00010348"]),
              st.text(max_size=4)),
    min_size=1, max_size=6).map("".join).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(question=st.sampled_from(prompting.QUESTION_KINDS),
       setting=st.sampled_from(prompting.SETTINGS),
       doc_id=st.sampled_from(["1.2", "10.1", "10.13"]),
       bindings=st.lists(st.tuples(_any_binding, _any_binding), min_size=1, max_size=3))
def test_prompt_digest_equals_the_transcript_digest(index, shots, question, setting, doc_id,
                                                     bindings):
    """A rendered prompt carries its question's default params and their
    digest, from its batch's hashed head: the ``transcript_digest`` of its
    whole text, the sha256 of the text, a NUL and the params' sorted JSON."""
    doc, _ = index[doc_id]
    fill = renderer(question, setting, doc, shots)
    for x, y in bindings:
        x = None if question == Q1 else x
        y = y if question == Q3 else None
        prompt = fill(x, y)
        assert prompt.params == default_params(question)
        assert prompt.digest == transcript_digest(prompt.text, prompt.params)
        payload = prompt.text + "\x00" + json.dumps(prompt.params.to_dict(), sort_keys=True)
        assert prompt.digest == hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("first", [0, 1])
def test_params_equal_by_value_digest_by_their_own_json(first):
    """Params that are equal but dump apart, such as ``temperature`` 0 and
    0.0 or ``nucleus`` True and 1.0, each give the digest of their own JSON,
    whichever of them a process hashes first."""
    alike = [[prompting.CompletionParams(), prompting.CompletionParams(temperature=0)],
             [prompting.CompletionParams(nucleus=True), prompting.CompletionParams(nucleus=1.0)],
             [prompting.CompletionParams(max_tokens=256.0), prompting.CompletionParams()]]
    for group in alike:
        for params in group[first:] + group[:first]:
            payload = "p\x00" + json.dumps(params.to_dict(), sort_keys=True)
            assert transcript_digest("p", params) == \
                hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_recorded_oracle_suite_prompts_match_the_fingerprint(tmp_path, capsys):
    """Every distinct prompt of an oracle run-suite over all settings, by its
    transcript digest: a change to any prompt byte changes the fingerprint."""
    cache = tmp_path / "c.jsonl"
    assert cli.main(["run-suite", "--backend", "oracle", "--record", "--cache", str(cache),
                     "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    digests = sorted(json.loads(line)["digest"]
                     for line in cache.read_text(encoding="utf-8").splitlines())
    assert len(digests) == 1468
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == \
        "b73efe54bcb7c4527ba3e6b1e922ac6bf6ae042b091e47f38d24e6e50bd0fa23"


def test_a_prompt_is_immutable_and_builds_positionally():
    """A ``Prompt`` keeps its fields, in their order, built positionally or
    by name, and refuses assignment; its text is its head and tail joined."""
    params = default_params(Q2)
    digest = transcript_digest("h\nQ: t", params)
    prompt = prompting.Prompt("h\nQ: ", "t", Q2, RAW, "10.1", "x", None, params, digest)
    assert prompt == prompting.Prompt(head="h\nQ: ", tail="t", question=Q2, setting=RAW,
                                      doc_id="10.1", x="x", y=None, params=params,
                                      digest=digest)
    assert prompting.Prompt._fields == ("head", "tail", "question", "setting", "doc_id", "x",
                                        "y", "params", "digest")
    for field in prompting.Prompt._fields + ("text",):
        with pytest.raises(AttributeError):
            setattr(prompt, field, "changed")
    with pytest.raises(AttributeError):
        prompt.extra = 1
    assert prompt.text == "h\nQ: t" and prompt.digest == digest


def test_a_batch_holds_its_head_once(shots):
    """A whole ``defs+2shots`` Q3 batch of a 40-activity document, its 1560
    prompts from one ``renderer`` held at once, holds less than half a head
    a prompt: every prompt holds the batch's one head string. A copy of the
    head in each prompt held 11.6 MB here, against 0.74 MB (Python 3.11)."""
    activities = [f"the clerk files form {k}" for k in range(40)]
    doc = corpus.Document("t40", " ".join(f"Then {a}." for a in activities))
    tracemalloc.start()
    try:
        fill = renderer(Q3, DEFS_SHOTS2, doc, shots)
        prompts = [fill(x, y) for x in activities for y in activities if x != y]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    head = prompts[0].text[:prompts[0].text.rindex("\nQ: ") + 4]
    assert len(prompts) == 1560
    assert held < len(prompts) * len(head) // 2, (held, len(head))
    assert all(prompt.head is prompts[0].head for prompt in prompts)
    assert prompts[0].head == head


def test_oracle_suite_model_files_match_the_fingerprint(tmp_path, capsys):
    """The names and bytes of every model file of an oracle run-suite over
    all settings: a change to how any model is built or written changes the
    fingerprint."""
    assert cli.main(["run-suite", "--backend", "oracle", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    models = sorted((tmp_path / "models").glob("*.json"))
    assert len(models) == 56
    fingerprint = hashlib.sha256()
    for path in models:
        fingerprint.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert fingerprint.hexdigest() == \
        "dc4506e5c254005f5ebbe2bf0640b29fbdc82436afa7473b58949ad64e9c86f9"

