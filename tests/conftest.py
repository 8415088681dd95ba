import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pexkit import backend as backend_mod
from pexkit import corpus, prompting


@pytest.fixture(scope="session")
def entries():
    return corpus.default_corpus()


@pytest.fixture(scope="session")
def index(entries):
    return corpus.corpus_index(entries)


@pytest.fixture(scope="session")
def shots(entries):
    return prompting.build_shots(entries)


@pytest.fixture()
def oracle(index):
    return backend_mod.OracleBackend(index)
