"""Property-based tests for Logarithmic-SRC-i under mixed workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogSRCiIndex
from repro.crypto import generate_key
from repro.edbms import CostCounter

pytestmark = pytest.mark.hybrid

DOMAIN = (0, 200)

operation = st.one_of(
    st.tuples(st.just("insert"),
              st.integers(min_value=DOMAIN[0], max_value=DOMAIN[1])),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("query"),
              st.tuples(
                  st.integers(min_value=DOMAIN[0] - 3,
                              max_value=DOMAIN[1] + 3),
                  st.integers(min_value=0, max_value=80))),
)


class TestLogSrcIProperties:
    @given(
        initial=st.lists(st.integers(min_value=DOMAIN[0],
                                     max_value=DOMAIN[1]),
                         min_size=1, max_size=25),
        operations=st.lists(operation, max_size=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, initial, operations):
        uids = np.arange(len(initial), dtype=np.uint64)
        values = np.asarray(initial, dtype=np.int64)
        index = LogSRCiIndex(generate_key(1), CostCounter(), "X", DOMAIN,
                             uids, values)
        model = {int(u): int(v) for u, v in zip(uids, values)}
        next_uid = len(initial)
        for kind, payload in operations:
            if kind == "insert":
                index.insert(uid=next_uid, value=payload)
                model[next_uid] = payload
                next_uid += 1
            elif kind == "delete":
                if not model:
                    continue
                victim = sorted(model)[payload % len(model)]
                index.delete(uid=victim, value=model[victim])
                del model[victim]
            else:
                low, width = payload
                got = sorted(map(int, index.query_inclusive(low,
                                                            low + width)))
                want = sorted(u for u, v in model.items()
                              if low <= v <= low + width)
                assert got == want, (low, width)
        # Final full-domain check.
        got = sorted(map(int, index.query_inclusive(*DOMAIN)))
        assert got == sorted(model)

    @given(values=st.lists(st.integers(min_value=DOMAIN[0],
                                       max_value=DOMAIN[1]),
                           min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_storage_never_leaks_entries(self, values):
        """Deleting everything must empty both SSE levels entirely."""
        uids = np.arange(len(values), dtype=np.uint64)
        index = LogSRCiIndex(generate_key(2), CostCounter(), "X", DOMAIN,
                             uids, np.asarray(values, dtype=np.int64))
        for uid, value in zip(uids.tolist(), values):
            index.delete(uid=uid, value=value)
        assert index.num_tuples == 0
        assert index.storage_bytes() == 0
        assert index.query_inclusive(*DOMAIN).size == 0
