from pathlib import Path

import pytest

from pexkit import prompting
from pexkit.errors import PromptError
from pexkit.prompting import (DEFS, DEFS_SHOTS2, PREAMBLE, PROCESS_CUE, Q1, Q2,
                              Q3, RAW, SHOTS2, instantiate, render)

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
