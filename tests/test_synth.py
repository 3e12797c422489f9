import hashlib

from companysim.similarity import save_returns_csv
from companysim.synth import make_synthetic_corpus, make_synthetic_returns

# SHA-256 digests of generated data, pinned so that faster generation and
# writing stay byte-identical to the straightforward numpy/csv.writer code.
CORPUS_SHA256 = "2a7508a052c74ca0d57bb2feff2c47d9bb6cad70dcc6357a5097ef815649e55c"
RETURNS_SHA256 = "6fb0c7c8dc91f3ea4427f479a8ab80154e8031f7ba659ac7b51a4df27d8336d5"


def test_synthetic_corpus_descriptions_are_pinned():
    corpus = make_synthetic_corpus(50, seed=3, words_per_description=120)
    text = "\n".join(corpus.get(i).description for i in corpus.ids())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_SHA256


def test_synthetic_returns_file_is_pinned(tmp_path):
    corpus = make_synthetic_corpus(50, seed=3, words_per_description=120)
    panel = make_synthetic_returns(corpus, [2021, 2022], seed=3)
    path = tmp_path / "returns.csv"
    save_returns_csv(panel, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RETURNS_SHA256
