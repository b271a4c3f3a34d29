import pytest
from hypothesis import given
from hypothesis import strategies as st

from planact.errors import ValidationError
from planact.vocab import (
    BOS,
    EOS,
    UNK,
    Vocabulary,
    detokenize,
    split_words,
    tokenize,
)


@pytest.fixture
def vocab():
    return Vocabulary.build(
        ["pick up the cup", "open a drawer", "grasp the handle with the gripper"]
    )


class TestVocabulary:
    def test_specials_reserved(self, vocab):
        assert vocab.tokens[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert vocab.index["<bos>"] == BOS

    def test_ids_dense_from_zero(self, vocab):
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_build_is_deterministic(self):
        lines = ["b a a", "c b a"]
        assert Vocabulary.build(lines).tokens == Vocabulary.build(lines).tokens

    def test_save_load_roundtrip(self, vocab, tmp_path):
        vocab.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.tokens == vocab.tokens

    @pytest.mark.parametrize("repeated", ["cup", "<eos>"])
    def test_load_rejects_repeated_token(self, vocab, tmp_path, repeated):
        vocab.save(tmp_path / "vocab.txt")
        with (tmp_path / "vocab.txt").open("a") as fh:
            fh.write(f"{repeated}\n")
        with pytest.raises(ValidationError, match=rf"vocab\.txt: token '{repeated}'"):
            Vocabulary.load(tmp_path / "vocab.txt")

    @pytest.mark.parametrize("words", [["cup", "cup"], ["cup", "<unk>"]])
    def test_repeated_word_rejected(self, words):
        with pytest.raises(ValidationError, match="appears more than once"):
            Vocabulary(words)

    def test_file_line_number_is_offset_id(self, vocab, tmp_path):
        vocab.save(tmp_path / "vocab.txt")
        lines = (tmp_path / "vocab.txt").read_text().splitlines()
        for i, word in enumerate(lines):
            assert vocab.index[word] == i + 4


class TestTokenize:
    def test_empty_string(self, vocab):
        assert tokenize("", vocab) == [BOS, EOS]

    def test_roundtrip_in_vocab(self, vocab):
        ids = tokenize("pick up the cup", vocab)
        assert detokenize(ids, vocab) == "pick up the cup"

    def test_unknown_maps_to_unk(self, vocab):
        ids = tokenize("pick up the zeppelin", vocab)
        assert UNK in ids

    def test_truncation_at_256(self, vocab):
        text = " ".join(["cup"] * 300)
        ids = tokenize(text, vocab)
        assert len(ids) == 256
        assert ids[0] == BOS and ids[-1] == EOS

    def test_determinism(self, vocab):
        assert tokenize("open a drawer", vocab) == tokenize("open a drawer", vocab)

    def test_id_out_of_range(self, vocab):
        with pytest.raises(IndexError):
            detokenize([len(vocab) + 5], vocab)

    def test_punctuation_reattaches(self):
        vocab = Vocabulary.build(["grasp the handle , gripper ( ) 1 ."])
        ids = tokenize("1. grasp(handle, gripper)", vocab)
        assert detokenize(ids, vocab) == "1. grasp(handle, gripper)"

    @given(st.text(alphabet="abc xyz", max_size=40))
    def test_roundtrip_up_to_whitespace(self, text):
        vocab = Vocabulary.build([text])
        out = detokenize(tokenize(text, vocab), vocab)
        assert out.split() == text.lower().split()


def test_split_words_lowercases_and_splits_punctuation():
    assert split_words("Pick UP the cup.") == ["pick", "up", "the", "cup", "."]
    assert split_words("washes #unsure in sink") == ["washes", "#", "unsure", "in", "sink"]
