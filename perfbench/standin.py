"""Loopback stand-in for the completions API, run as its own process.

It serves ``POST <base>/completions`` in the response shape that
``pexkit.backend.LiveBackend`` parses and answers from the gold annotations of
a corpus file, identifying the document by the target block's body and the
question by matching the target block's ``Q:`` line against the three
question templates. In ``noisy`` mode the answers come from
``synthgen.noisy_answer`` instead.

Every request is counted per question x setting (calls, unique prompts,
prompt characters); ``GET /stats`` returns the table and ``POST /reset``
clears it. Each request sleeps a fixed delay before it is answered, to model
the wait on a remote model.

    python3 perfbench/standin.py --corpus corpus.json --mode gold --delay-ms 5

The chosen port is printed as ``PORT <n>`` on the first line of stdout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import socketserver
import sys
import threading
import time
from pathlib import Path

from synthgen import noisy_answer

PREAMBLE_START = "Considering the context of Business Process Management"
PROCESS_CUE = "Consider the following process:"
Q1_TEXT = "Lists the activities of the process"
Q2_RE = re.compile(
    r"Who is the participant performing activity (.+) in the process model\?")
Q3_RE = re.compile(
    r"Considering the list of process activity described in the text, "
    r"does activity (.+) immediately follow activity (.+) in the process model\?")
_WS = re.compile(r"\s+")
REASONS = {200: b"OK", 400: b"Bad Request", 404: b"Not Found"}


class PromptShapeError(ValueError):
    pass


def normalize_key(surface: str) -> str:
    """Case-fold and collapse whitespace, as the program's oracle does."""
    return _WS.sub(" ", surface.strip()).casefold()


def parse_prompt(text: str) -> dict:
    """Question kind, setting, bindings and document body of a rendered prompt."""
    start = text.rfind(PROCESS_CUE)
    if start < 0 or not text.endswith("\nA: "):
        raise PromptShapeError("prompt has no target block")
    lines = text[start:].split("\n")
    if len(lines) < 4 or not lines[-2].startswith("Q: "):
        raise PromptShapeError("target block has no Q: line")
    body = "\n".join(lines[1:-2])
    question_line = lines[-2][3:]
    x = y = None
    if question_line == Q1_TEXT:
        question = "q1"
    elif (m := Q2_RE.fullmatch(question_line)):
        question, x = "q2", m.group(1)
    elif (m := Q3_RE.fullmatch(question_line)):
        question, x, y = "q3", m.group(1), m.group(2)
    else:
        raise PromptShapeError(f"unrecognised question line {question_line!r}")
    defs = text.startswith(PREAMBLE_START)
    shots = text.count(PROCESS_CUE) > 1
    setting = {(False, False): "raw", (True, False): "defs",
               (False, True): "2shots", (True, True): "defs+2shots"}[(defs, shots)]
    return {"question": question, "setting": setting, "body": body, "x": x, "y": y}


class CountTable:
    """Calls, unique prompt keys and prompt characters per question x setting."""

    def __init__(self):
        self.cells: dict[str, list] = {}
        self._seen: dict[str, set] = {}

    def add(self, question: str, setting: str, key, chars: int) -> None:
        cell = f"{question}/{setting}"
        row = self.cells.setdefault(cell, [0, 0, 0])
        seen = self._seen.setdefault(cell, set())
        row[0] += 1
        if key not in seen:
            seen.add(key)
            row[1] += 1
        row[2] += chars

    def as_dict(self) -> dict:
        return {cell: {"calls": r[0], "unique": r[1], "prompt_chars": r[2]}
                for cell, r in sorted(self.cells.items())}


def table_totals(table: dict) -> dict:
    return {k: sum(row[k] for row in table.values())
            for k in ("calls", "unique", "prompt_chars")}


def load_gold(corpus_path) -> dict:
    """Map document body -> gold annotation record of a corpus file."""
    records = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
    return {rec["body"]: rec["gold"] for rec in records}


def gold_answer(info: dict, gold: dict) -> str:
    """The answer the program's gold oracle gives, so recordings agree with it."""
    surfaces = [a["surface"] for a in gold["activities"]]
    if info["question"] == "q1":
        return "\n".join(surfaces)
    keys = [normalize_key(s) for s in surfaces]

    def index(phrase):
        try:
            return keys.index(normalize_key(phrase))
        except ValueError:
            raise PromptShapeError(f"no gold activity {phrase!r}") from None

    if info["question"] == "q2":
        idx = index(info["x"])
        return " and ".join(gold["participants"][p]
                            for p, a in sorted(map(tuple, gold["performs"])) if a == idx)
    x, y = index(info["x"]), index(info["y"])
    return "Yes" if [y, x] in gold["follows"] else "No"


class StandIn:
    def __init__(self, corpus_path, mode: str, delay_s: float):
        self.gold_by_body = load_gold(corpus_path)
        self.noisy = mode == "noisy"
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.table = CountTable()

    def answer(self, prompt: str, params: dict) -> str:
        info = parse_prompt(prompt)
        gold = self.gold_by_body.get(info["body"])
        if gold is None:
            raise PromptShapeError("prompt body is not a document of the corpus")
        key = hashlib.sha256(
            (prompt + "\x00" + json.dumps(params, sort_keys=True)).encode("utf-8")
        ).digest()
        with self.lock:
            self.table.add(info["question"], info["setting"], key, len(prompt))
        if self.noisy:
            return noisy_answer(info, gold, hashlib.sha256(prompt.encode("utf-8")).digest())
        return gold_answer(info, gold)

    def route(self, method: str, path: str, raw: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/stats":
            with self.lock:
                return 200, self.table.as_dict()
        if method == "POST" and path == "/reset":
            with self.lock:
                self.table = CountTable()
            return 200, {}
        if method != "POST" or not path.endswith("/completions"):
            return 404, {"error": "not found"}
        time.sleep(self.delay_s)
        try:
            payload = json.loads(raw)
            params = {k: payload[k] for k in ("temperature", "top_p", "max_tokens", "stop")}
            text = self.answer(payload["prompt"], params)
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": str(exc)}
        return 200, {"choices": [{"text": text, "index": 0}]}


class Handler(socketserver.StreamRequestHandler):
    """Minimal HTTP/1.1 with keep-alive: request line, headers, a JSON body.

    ``http.server`` parses headers with the email package; that costs more
    per request than the client does, and the two share the machine's cores.
    """

    def setup(self):
        super().setup()
        # Without it, each small response waits on the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self):
        while True:
            request_line = self.rfile.readline(65537)
            if not request_line:
                return
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
            length, close = 0, False
            while (line := self.rfile.readline(65537)) not in (b"\r\n", b"\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            status, obj = self.server.standin.route(method, path, self.rfile.read(length))
            body = json.dumps(obj).encode("utf-8")
            self.wfile.write(b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\n\r\n" % (status, REASONS[status], len(body))
                             + body)
            if close:
                return


class Server(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self, standin: StandIn):
        super().__init__(("127.0.0.1", 0), Handler)
        self.standin = standin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--mode", choices=["gold", "noisy"], default="gold")
    parser.add_argument("--delay-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    standin = StandIn(args.corpus, args.mode, args.delay_ms / 1000.0)
    server = Server(standin)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
