import pytest
from hypothesis import given
from hypothesis import strategies as st

from planact.errors import ContractError, ValidationError
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

    @pytest.mark.parametrize("words", [["cup", "cup"], ["cup", "<unk>"]])
    def test_repeated_word_rejected(self, words):
        with pytest.raises(ValidationError, match="appears more than once"):
            Vocabulary(words)

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
        with pytest.raises(ContractError, match=rf"token id {len(vocab) + 5} outside the "
                                                rf"vocabulary's {len(vocab)} ids"):
            detokenize([4, len(vocab) + 5], vocab)
        with pytest.raises(ContractError, match="token id -1 outside"):
            detokenize([-1], vocab)

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
