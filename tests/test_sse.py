"""Unit tests for the SSE substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SSEIndex
from repro.baselines.sse import pack_signed
from repro.crypto import generate_key
from repro.edbms import CostCounter

pytestmark = pytest.mark.hybrid


def make_index(seed=0):
    counter = CostCounter()
    return SSEIndex(generate_key(seed), counter), counter


def triples(words):
    """Opened ``(m, 3)`` words as a list of int triples."""
    return [tuple(row) for row in words.tolist()]


class TestSSE:
    def test_add_and_search_roundtrip(self):
        index, __ = make_index()
        index.add(b"kw1", (1, 2, 3))
        index.add(b"kw1", (4, 5, 6))
        index.add(b"kw2", (7, 8, 9))
        records = index.search(index.token(b"kw1"))
        opened = index.open_records(records)
        assert triples(opened) == [(1, 2, 3), (4, 5, 6)]

    def test_search_unknown_token_empty(self):
        index, __ = make_index()
        block = index.search(index.token(b"nope"))
        assert block.shape == (0, 4) and block.dtype == np.uint64
        assert index.open_records(block).shape == (0, 3)

    def test_tokens_hide_keywords(self):
        index, __ = make_index()
        token = index.token(b"secret-keyword")
        assert b"secret-keyword" not in token
        assert index.token(b"a") != index.token(b"b")

    def test_tokens_key_dependent(self):
        a, __ = make_index(1)
        b, __ = make_index(2)
        assert a.token(b"kw") != b.token(b"kw")

    def test_postings_are_encrypted(self):
        index, __ = make_index()
        index.add(b"kw", (123456789, 0, 0))
        record = index.search(index.token(b"kw"))[0]
        # The payload words (after the serial) must not leak plaintext.
        assert 123456789 not in record[1:].tolist()

    def test_remove_by_first_word(self):
        index, __ = make_index()
        index.add(b"kw", (1, 0, 0))
        index.add(b"kw", (2, 0, 0))
        assert index.remove(b"kw", 1) == 1
        opened = index.open_records(index.search(index.token(b"kw")))
        assert triples(opened) == [(2, 0, 0)]
        assert index.remove(b"kw", 99) == 0

    def test_remove_last_record_drops_token(self):
        index, __ = make_index()
        index.add(b"kw", (1, 0, 0))
        index.remove(b"kw", 1)
        assert index.num_records == 0
        assert index.storage_bytes() == 0

    def test_cost_accounting(self):
        index, counter = make_index()
        index.add(b"kw", (1, 0, 0))
        assert counter.index_updates == 1
        counter.reset()
        records = index.search(index.token(b"kw"))
        assert counter.sse_lookups == 1
        assert counter.tuples_retrieved == 1
        index.open_records(records)
        assert counter.qpf_uses == 1

    def test_storage_accounting(self):
        index, __ = make_index()
        empty = index.storage_bytes()
        assert empty == 0
        index.add(b"kw", (1, 0, 0))
        one = index.storage_bytes()
        index.add(b"kw", (2, 0, 0))
        two = index.storage_bytes()
        assert one > 0
        assert two > one

    def test_large_words_roundtrip(self):
        index, __ = make_index()
        words = (2**64 - 1, 2**63, 0)
        index.add(b"kw", words)
        opened = index.open_records(index.search(index.token(b"kw")))
        assert triples(opened) == [words]


def postings_of(index):
    """Every token's posting block, pending adds folded in, as
    ``[serial, c1, c2, c3]`` rows."""
    return {token: index._block(token).tolist()
            for token in list(index._postings)}


signed_word = st.integers(min_value=-2**63, max_value=2**63 - 1)
item = st.tuples(st.sampled_from([b"a", b"b", b"c", b"node:7"]),
                 st.tuples(signed_word, signed_word, signed_word))


class TestBlockKernels:
    @given(first=st.lists(item, max_size=12), second=st.lists(item,
                                                              max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bulk_and_grouped_equal_per_item_add(self, first, second):
        """Same key, three ways of filing, one index state: tokens,
        serials, ciphertext words, counters and storage."""
        one, one_counter = make_index(4)
        bulk, bulk_counter = make_index(4)
        grouped, grouped_counter = make_index(4)
        for batch in (first, second):  # the second lands on a used index
            serials = [one.add(keyword, words) for keyword, words in batch]
            assert bulk.add_bulk(batch).tolist() == serials
            keywords = sorted({keyword for keyword, __ in batch})
            words = np.asarray(
                [[pack_signed(w) for w in words] for __, words in batch],
                dtype=np.uint64).reshape(len(batch), 3)
            assert grouped.add_grouped(
                keywords, [keywords.index(keyword) for keyword, __ in batch],
                words).tolist() == serials
        for index, counter in ((bulk, bulk_counter),
                               (grouped, grouped_counter)):
            assert postings_of(index) == postings_of(one)
            assert counter.as_dict() == one_counter.as_dict()
            assert index.storage_bytes() == one.storage_bytes()
            # Posting lists read out in serial order, as per-item adds
            # file them.
            for rows in postings_of(index).values():
                serials = [row[0] for row in rows]
                assert rows and serials == sorted(serials)

    def test_block_open_equals_per_record_decrypt(self):
        index, counter = make_index(5)
        rng = np.random.default_rng(5)
        triples = [tuple(int(w) for w in row) for row in
                   rng.integers(-2**63, 2**63, (40, 3), dtype=np.int64)]
        triples[0] = (-1, -2**63, 2**63 - 1)
        index.add_bulk([(b"kw", words) for words in triples])
        records = index.search(index.token(b"kw"))
        counter.reset()
        block = index.open_records(records)
        assert counter.qpf_uses == len(records)
        # One record at a time takes the scalar keystream path.
        assert block.tolist() == [index.open_records(records[i:i + 1])
                                  .tolist()[0] for i in range(len(records))]
        assert np.array_equal(block, index.reveal_records(records))
        assert [tuple(words) for words in block.view(np.int64).tolist()] \
            == triples
        assert index.open_records(records[:0]).shape == (0, 3)

    def test_remove_finds_negative_first_words(self):
        index, __ = make_index()
        index.add_bulk([(b"kw", (-5, 1, 0)), (b"kw", (7, 2, 0)),
                        (b"kw", (-5, 3, 0))])
        assert index.remove(b"kw", -5) == 2
        assert index.open_records(index.search(index.token(b"kw"))) \
            .tolist() == [[7, 2, 0]]


keyword = st.sampled_from([b"a", b"b", b"c"])
small_word = st.integers(min_value=-2, max_value=2)
small_item = st.tuples(keyword, st.tuples(small_word, small_word,
                                          small_word))
step = st.one_of(
    st.tuples(st.just("add"), small_item),
    st.tuples(st.just("bulk"), st.lists(small_item, max_size=5)),
    st.tuples(st.just("remove_serial"), st.tuples(keyword,
                                                  st.integers(0, 30))),
    st.tuples(st.just("remove"), st.tuples(keyword, small_word)),
    st.tuples(st.just("search"), keyword),
)


class TestBlockStore:
    @given(steps=st.lists(step, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_updates_match_dict_model(self, steps):
        """Adds land in pending blocks, which a removal or a search folds
        in: every token reads out its live records in serial order, and
        the accounting follows the model."""
        index, __ = make_index(6)
        model = {}  # keyword -> {serial: words}

        def check(kw):
            block = index.search(index.token(kw))
            live = model.get(kw, {})
            assert block[:, 0].tolist() == sorted(live)
            assert triples(index.open_records(block)) == [
                tuple(pack_signed(w) for w in live[serial])
                for serial in sorted(live)]

        for kind, payload in steps:
            if kind == "add":
                kw, words = payload
                model.setdefault(kw, {})[index.add(kw, words)] = words
            elif kind == "bulk":
                for (kw, words), serial in zip(
                        payload, index.add_bulk(payload).tolist()):
                    model.setdefault(kw, {})[serial] = words
            elif kind == "remove_serial":
                kw, serial = payload
                live = serial in model.get(kw, {})
                assert index.remove_serial(kw, serial) == live
                if live:
                    del model[kw][serial]
            elif kind == "remove":
                kw, first = payload
                doomed = [serial for serial, words
                          in model.get(kw, {}).items() if words[0] == first]
                assert index.remove(kw, first) == len(doomed)
                for serial in doomed:
                    del model[kw][serial]
            else:
                check(payload)
        records = sum(len(live) for live in model.values())
        tokens = sum(1 for live in model.values() if live)
        assert index.num_records == records
        assert len(index._postings) == tokens
        assert index.storage_bytes() == 16 * tokens + 32 * records
        for kw in (b"a", b"b", b"c"):
            check(kw)
