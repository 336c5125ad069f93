"""Property tests: the vectorised QPF hot path is bit-identical to the
scalar reference.

Three equivalences introduced by the vectorised execute path are pinned
with hypothesis across random workloads, duplicates and boundary values:

* the single-crossing :meth:`TrustedMachine.evaluate_many` returns
  exactly the labels of a per-request :meth:`TrustedMachine.evaluate_batch`
  loop and charges every :class:`CostCounter` field as that loop does,
  except that the whole payload is one roundtrip — for any mix of
  tables, attributes, operator families, repeated trapdoors, one-uid,
  duplicate and empty payloads, with and without the decrypted-column
  cache, and when a request's decrypt raises;
* the dense uid -> order-key gather
  (:meth:`PartialOrderPartitions.keys_of_uids`), ranked against the
  chain's keys, agrees with the scalar :meth:`index_of_uid` on
  duplicate-laden probe arrays over randomly split/merged chains; and
* the scalar splitmix64 fast path of :func:`prf_words` /
  :func:`prf_keystream` (taken below the small-probe cutoff) produces
  the same keystream words as the vectorised numpy pipeline, including
  at 64-bit wraparound boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitions import PartialOrderPartitions
from repro.crypto import generate_key
from repro.crypto.primitives import (
    _SCALAR_PRF_CUTOFF,
    WORD_MODULUS,
    prf_keystream,
    prf_word,
    prf_words,
)
from repro.edbms import (
    AttributeSpec,
    CostCounter,
    PlainTable,
    Schema,
    TrustedMachine,
)
from repro.edbms.owner import DataOwner
from repro.edbms.qpf import COLUMN_CACHE_BYTES, QPFRequest

NUM_ROWS = 24
DOMAIN = (-50, 50)

#: (table, attribute, family, a, b, uids, reuse) — family 0..3 picks a
#: comparison operator, 4 picks BETWEEN with bounds sorted(a, b);
#: ``reuse`` resubmits the previous request's trapdoor.
_REQUESTS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(["X", "Y"]),
        st.integers(0, 4),
        st.integers(DOMAIN[0] - 3, DOMAIN[1] + 3),
        st.integers(DOMAIN[0] - 3, DOMAIN[1] + 3),
        # uid payload: duplicates allowed, often one uid, may be empty.
        st.one_of(st.lists(st.integers(0, NUM_ROWS - 1), max_size=30),
                  st.lists(st.integers(0, NUM_ROWS - 1), min_size=1,
                           max_size=1)),
        st.booleans(),
    ),
    max_size=12,
)

#: A uid no table holds: its request's decrypt raises ``KeyError``.
_UNKNOWN_UID = NUM_ROWS + 7

_OPERATORS = ("<", "<=", ">", ">=")


def _tables_and_owner(seed: int):
    owner = DataOwner(key=generate_key(seed))
    rng = np.random.default_rng(seed)
    schema = Schema.of(AttributeSpec("X", *DOMAIN),
                       AttributeSpec("Y", *DOMAIN))
    tables = []
    for name in ("t", "u"):
        plain = PlainTable(name, schema, {
            attribute: rng.integers(DOMAIN[0], DOMAIN[1], NUM_ROWS,
                                    endpoint=True).astype(np.int64)
            for attribute in ("X", "Y")})
        tables.append(owner.encrypt_table(plain))
    return owner, tables


@given(specs=_REQUESTS, seed=st.integers(0, 3),
       column_cache_bytes=st.sampled_from([COLUMN_CACHE_BYTES, 0]),
       raise_at=st.one_of(st.none(), st.integers(0, 11)))
@settings(max_examples=80, deadline=None)
def test_fused_evaluate_many_matches_per_request_reference(
        specs, seed, column_cache_bytes, raise_at):
    owner, tables = _tables_and_owner(seed)
    requests = []
    for position, (table_no, attribute, family, a, b, uids,
                   reuse) in enumerate(specs):
        if reuse and requests:
            trapdoor = requests[-1].trapdoor
        elif family < 4:
            trapdoor = owner.comparison_trapdoor(
                attribute, _OPERATORS[family], a)
        else:
            trapdoor = owner.between_trapdoor(attribute, min(a, b),
                                              max(a, b))
        if position == raise_at:
            uids = uids + [_UNKNOWN_UID]
        requests.append(QPFRequest(
            trapdoor, tables[table_no], np.asarray(uids, dtype=np.uint64)))
    raises = raise_at is not None and raise_at < len(requests)

    # Two fresh enclaves over the same key share nothing but the
    # trapdoor objects, so register warm-up sequences are comparable.
    # The reference stops where the raising request raises.
    reference = TrustedMachine(owner.key, CostCounter(),
                               column_cache_bytes=column_cache_bytes)
    scalar_labels = []
    for request in requests:
        try:
            scalar_labels.append(reference.evaluate_batch(
                request.trapdoor, request.table, request.uids))
        except KeyError:
            break
    single = TrustedMachine(owner.key, CostCounter(),
                            column_cache_bytes=column_cache_bytes)
    if raises:
        with pytest.raises(KeyError):
            single.evaluate_many(requests)
        assert len(scalar_labels) == raise_at
    else:
        many_labels = single.evaluate_many(requests)
        assert len(many_labels) == len(scalar_labels)
        for got, want in zip(many_labels, scalar_labels):
            assert got.dtype == want.dtype == np.bool_
            assert np.array_equal(got, want)

    # Every field is charged as the per-request loop charges it — cache
    # tallies of the requests before a raise included — except that the
    # payload is one crossing, and a raising crossing has already
    # shipped (and pays for) all of its tuples.
    total = sum(int(r.uids.size) for r in requests)
    got = single.counter.as_dict()
    want = reference.counter.as_dict()
    crossing = {"qpf_roundtrips": 1 if total else 0,
                "parallel_wall_roundtrips": 1 if total else 0}
    if raises:
        crossing.update(qpf_uses=total, tuples_retrieved=total,
                        parallel_wall_qpf_uses=total)
    for name, value in got.items():
        assert value == crossing.get(name, want[name]), name


_CHAIN_OPS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)),
    max_size=25,
)


@given(ops=_CHAIN_OPS,
       probes=st.lists(st.integers(0, 19), min_size=1, max_size=60),
       )
@settings(max_examples=60, deadline=None)
def test_dense_ordinal_gather_matches_scalar_on_duplicates(ops, probes):
    pop = PartialOrderPartitions(np.arange(20, dtype=np.uint64))
    for code, a, b in ops:
        if code == 0:
            splittable = [i for i, size in enumerate(pop.sizes())
                          if size >= 2]
            if not splittable:
                continue
            index = splittable[a % len(splittable)]
            members = pop[index].uids.copy()
            cut = 1 + b % (members.size - 1)
            pop.split(index, members[:cut], members[cut:])
        else:
            k = pop.num_partitions
            if k < 2:
                continue
            first = a % (k - 1)
            pop.merge_range(first, min(k - 1, first + 1 + b % 3))
    probe = np.asarray(probes, dtype=np.uint64)
    chain_keys = np.asarray([partition.key for partition in pop])
    got = np.searchsorted(chain_keys, pop.keys_of_uids(probe))
    want = np.asarray([pop.index_of_uid(int(uid)) for uid in probe],
                      dtype=np.int64)
    assert np.array_equal(got, want)


_NONCES = st.lists(
    st.one_of(st.integers(0, WORD_MODULUS - 1),
              # densely exercise wraparound in the mixer's adds/shifts
              st.integers(WORD_MODULUS - 64, WORD_MODULUS - 1)),
    min_size=1, max_size=2 * _SCALAR_PRF_CUTOFF,
)


@given(nonces=_NONCES, seed=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_scalar_prf_path_matches_vector_pipeline(nonces, seed):
    key = generate_key(seed)
    array = np.asarray(nonces, dtype=np.uint64)
    words = prf_words(key, array)  # scalar path when small
    # Pad past the cutoff so the same nonces run the numpy pipeline.
    padded = np.concatenate([
        array,
        np.arange(_SCALAR_PRF_CUTOFF + 1, dtype=np.uint64)])
    assert np.array_equal(words, prf_words(key, padded)[:array.size])
    for nonce, word in zip(nonces, words):
        assert prf_word(key, nonce) == int(word)


@given(base=st.integers(0, WORD_MODULUS - 1),
       length=st.integers(0, 8 * (2 * _SCALAR_PRF_CUTOFF)),
       seed=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_keystream_matches_prf_words_expansion(base, length, seed):
    key = generate_key(seed)
    stream = prf_keystream(key, base, length)
    assert len(stream) == length
    words = (length + 7) // 8
    nonces = np.asarray([(base + i) % WORD_MODULUS for i in range(words)],
                        dtype=np.uint64)
    assert stream == prf_words(key, nonces).tobytes()[:length]
