"""Tests for the SDB-style secret-sharing backend under PRKB.

The paper's compatibility claim (Sec. 3.1): PRKB works on any EDBMS that
fits the QPF model.  These tests run the identical PRKB code against the
trusted-machine backend and the MPC backend and require identical
answers and knowledge growth, with only the cost profile differing.
"""

import numpy as np
import pytest

from repro.core import PRKBIndex, SingleDimensionProcessor
from repro.crypto import ComparisonPredicate, generate_key
from repro.crypto.secret_sharing import _SCALAR_SHARE_CUTOFF
from repro.edbms import (
    AttributeSpec,
    CostCounter,
    PlainTable,
    QueryProcessingFunction,
    Schema,
    TrustedMachine,
)
from repro.edbms.owner import DataOwner
from repro.edbms.sdb_backend import (
    MPCQueryProcessingFunction,
    SecretSharedTable,
    share_table,
)


@pytest.fixture
def setup():
    owner = DataOwner(key=generate_key(77))
    rng = np.random.default_rng(77)
    schema = Schema.of(AttributeSpec("X", -500, 500))
    plain = PlainTable("t", schema, {
        "X": rng.integers(-500, 501, size=150, dtype=np.int64)})
    shared = share_table(owner.key, plain)
    counter = CostCounter()
    qpf = MPCQueryProcessingFunction(owner.key, counter)
    return owner, plain, shared, qpf, counter


class TestSecretSharedTable:
    def test_share_table_shape(self, setup):
        __, plain, shared, __, __ = setup
        assert shared.num_rows == plain.num_rows
        assert shared.attribute_names == plain.schema.names
        assert np.array_equal(shared.uids, plain.uids)

    def test_sp_shares_hide_values(self, setup):
        __, plain, shared, __, __ = setup
        sp_shares, __ = shared.shares_for("X", plain.uids)
        shifted = plain.columns["X"] + shared.domain_shift["X"]
        matches = (sp_shares.astype(np.int64) == shifted).sum()
        assert matches <= 2

    def test_positions_and_errors(self, setup):
        __, __, shared, __, __ = setup
        assert list(shared.positions(np.asarray([2, 0]))) == [2, 0]
        with pytest.raises(KeyError):
            shared.positions(np.asarray([10**9]))

    def test_storage_bytes(self, setup):
        __, plain, shared, __, __ = setup
        assert shared.storage_bytes() >= 16 * plain.num_rows

    def test_error_messages(self, setup):
        """The dense lookup reports what the per-uid dict walk did."""
        __, plain, shared, __, __ = setup
        shared.delete_rows(np.asarray([5], dtype=np.uint64))
        with pytest.raises(KeyError, match=r"^'unknown uid 5'$"):
            shared.positions(np.asarray([3, 5, 10**6], dtype=np.uint64))
        with pytest.raises(KeyError, match=r"^'unknown uid 1000000'$"):
            shared.positions(np.asarray([10**6, 5], dtype=np.uint64))
        with pytest.raises(ValueError, match=r"^uid 7 already present$"):
            shared.insert_rows(
                np.asarray([5, 7, 8], dtype=np.uint64),
                {"X": np.asarray([1, 2, 3], dtype=np.uint64)})
        with pytest.raises(
                KeyError, match=r"^'unknown uids: \[5, 900, 901\]'$"):
            shared.delete_rows(np.asarray([901, 2, 5, 900], dtype=np.uint64))
        with pytest.raises(ValueError, match="misaligned"):
            shared.insert_rows(shared.allocate_uids(2),
                               {"X": np.asarray([1], dtype=np.uint64)})
        assert shared.num_rows == plain.num_rows - 1  # nothing half-done
        assert np.array_equal(shared.positions(shared.uids),
                              np.arange(shared.num_rows))
        assert shared.positions(np.zeros(0, dtype=np.uint64)).size == 0

    def test_insert_delete_keep_positions_dense(self, setup):
        owner, plain, shared, qpf, __ = setup
        from repro.edbms.sdb_backend import share_rows
        shared.delete_rows(plain.uids[10:20])
        fresh = shared.allocate_uids(3)
        rows = {"X": np.asarray([-7, 0, 7], dtype=np.int64)}
        shared.insert_rows(fresh, share_rows(owner.key, shared, rows, fresh))
        assert np.array_equal(shared.positions(shared.uids),
                              np.arange(shared.num_rows))
        labels = qpf.batch(owner.comparison_trapdoor("X", "<", 0), shared,
                           shared.uids)
        want = np.concatenate([np.delete(plain.columns["X"], range(10, 20)),
                               rows["X"]]) < 0
        assert np.array_equal(labels, want)


class TestMpcQpf:
    def test_matches_plaintext(self, setup):
        owner, plain, shared, qpf, __ = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 0)
        labels = qpf.batch(trapdoor, shared, plain.uids)
        expected = plain.columns["X"] < 0
        assert np.array_equal(labels, expected)

    def test_between_trapdoor(self, setup):
        owner, plain, shared, qpf, __ = setup
        trapdoor = owner.between_trapdoor("X", -100, 100)
        labels = qpf.batch(trapdoor, shared, plain.uids)
        col = plain.columns["X"]
        assert np.array_equal(labels, (col >= -100) & (col <= 100))

    def test_costs_include_messages(self, setup):
        owner, plain, shared, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 0)
        counter.reset()
        qpf.batch(trapdoor, shared, plain.uids)
        assert counter.qpf_uses == plain.num_rows
        assert counter.mpc_messages == 2 * plain.num_rows

    @pytest.mark.parametrize("size", (1, 2, _SCALAR_SHARE_CUTOFF,
                                      _SCALAR_SHARE_CUTOFF + 1, 150))
    def test_agrees_with_trusted_machine(self, setup, size):
        """Same trapdoors, same tuples, both oracles: equal labels and
        equal ``qpf_uses``, on the scalar and the vector share kernel."""
        owner, plain, shared, qpf, counter = setup
        encrypted = owner.encrypt_table(plain, keep_plain=False)
        machine = TrustedMachine(owner.key, CostCounter())
        uids = plain.uids[:size]
        for trapdoor in (owner.comparison_trapdoor("X", "<", 17),
                         owner.comparison_trapdoor("X", ">=", -250),
                         owner.between_trapdoor("X", -100, 100)):
            counter.reset()
            machine.counter.reset()
            with counter.measure() as spent:
                labels = qpf.batch(trapdoor, shared, uids)
            assert np.array_equal(
                labels, machine.evaluate_batch(trapdoor, encrypted, uids))
            assert spent.qpf_uses == counter.qpf_uses \
                == machine.counter.qpf_uses == size
            assert counter.qpf_roundtrips == machine.counter.qpf_roundtrips
            assert counter.mpc_messages == 2 * size

    def test_batch_many_accounting(self, setup):
        from repro.edbms.batching import QPFRequest
        owner, plain, shared, qpf, counter = setup
        low = owner.comparison_trapdoor("X", "<", 0)
        high = owner.comparison_trapdoor("X", ">", 100)
        requests = [QPFRequest(low, shared, plain.uids[:40]),
                    QPFRequest(high, shared, plain.uids[:0]),
                    QPFRequest(high, shared, plain.uids[40:43])]
        counter.reset()
        with counter.measure() as spent:
            results = qpf.batch_many(requests)
        assert [r.size for r in results] == [40, 0, 3]
        assert np.array_equal(results[0], plain.columns["X"][:40] < 0)
        assert np.array_equal(results[2], plain.columns["X"][40:43] > 100)
        assert spent.as_dict() == counter.as_dict()
        assert (counter.qpf_uses, counter.qpf_roundtrips,
                counter.mpc_messages) == (43, 1, 86)
        assert counter.predicate_cache_misses == 2

    def test_unknown_uid_is_charged_before_raising(self, setup):
        """As the trusted machine does: the exchange happened."""
        owner, plain, shared, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 0)
        counter.reset()
        with counter.measure() as spent, pytest.raises(KeyError):
            qpf.batch(trapdoor, shared,
                      np.asarray([1, 10**6], dtype=np.uint64))
        assert spent.qpf_uses == counter.qpf_uses == 2
        assert counter.mpc_messages == 4 and counter.qpf_roundtrips == 1

    def test_mpc_simulated_time_exceeds_tm(self, setup):
        """Same QPF count, higher simulated time — SDB's trade-off."""
        from repro.edbms import DEFAULT_COST_MODEL, CostCounter
        tm = CostCounter(qpf_uses=100)
        mpc = CostCounter(qpf_uses=100, mpc_messages=200)
        assert DEFAULT_COST_MODEL.simulated_seconds(mpc) > \
            2 * DEFAULT_COST_MODEL.simulated_seconds(tm)


class TestSdbUpdates:
    def test_insert_then_query(self, setup):
        owner, plain, shared, qpf, __ = setup
        from repro.edbms.sdb_backend import share_rows
        index = PRKBIndex(shared, qpf, "X", seed=2)
        index.select(owner.comparison_trapdoor("X", "<", 0))
        uids = shared.allocate_uids(2)
        rows = {"X": np.asarray([-42, 123], dtype=np.int64)}
        shared.insert_rows(uids, share_rows(owner.key, shared, rows,
                                            uids))
        for uid in uids:
            index.insert(int(uid))
        trapdoor = owner.comparison_trapdoor("X", ">=", 100)
        got = {int(u) for u in index.select(trapdoor).winners}
        col = plain.columns["X"]
        want = {int(u) for u, v in zip(plain.uids, col) if v >= 100}
        want.add(int(uids[1]))
        assert got == want

    def test_insert_duplicate_uid_rejected(self, setup):
        __, __, shared, __, __ = setup
        with pytest.raises(ValueError):
            shared.insert_rows(
                np.asarray([0], dtype=np.uint64),
                {"X": np.asarray([1], dtype=np.uint64)})

    def test_delete_rows(self, setup):
        __, plain, shared, __, __ = setup
        shared.delete_rows(plain.uids[:3])
        assert shared.num_rows == plain.num_rows - 3
        with pytest.raises(KeyError):
            shared.positions(np.asarray([0], dtype=np.uint64))
        with pytest.raises(KeyError):
            shared.delete_rows(np.asarray([10**9], dtype=np.uint64))


class TestPrkbOnBothBackends:
    def test_identical_answers_and_growth(self, setup):
        owner, plain, shared, mpc_qpf, __ = setup
        # Trusted-machine twin of the same data.
        tm_counter = CostCounter()
        tm_qpf = QueryProcessingFunction(
            TrustedMachine(owner.key, tm_counter))
        encrypted = owner.encrypt_table(plain, keep_plain=False)
        index_tm = PRKBIndex(encrypted, tm_qpf, "X", seed=5)
        index_mpc = PRKBIndex(shared, mpc_qpf, "X", seed=5)
        for constant in (-300, -50, 0, 120, 480, -300):
            trapdoor_a = owner.comparison_trapdoor("X", "<", constant)
            trapdoor_b = owner.comparison_trapdoor("X", "<", constant)
            winners_tm = np.sort(index_tm.select(trapdoor_a).winners)
            winners_mpc = np.sort(index_mpc.select(trapdoor_b).winners)
            assert np.array_equal(winners_tm, winners_mpc), constant
        assert index_tm.num_partitions == index_mpc.num_partitions

    def test_processor_stack_runs_on_mpc(self, setup):
        owner, plain, shared, mpc_qpf, __ = setup
        index = PRKBIndex(shared, mpc_qpf, "X", seed=3)
        processor = SingleDimensionProcessor(index)
        low = owner.comparison_trapdoor("X", ">", -200)
        high = owner.comparison_trapdoor("X", "<", 200)
        got = np.sort(processor.select_range(low, high))
        predicate_lo = ComparisonPredicate("X", ">", -200)
        col = plain.columns["X"]
        want = np.sort(plain.uids[(col > -200) & (col < 200)])
        assert np.array_equal(got, want)
        assert predicate_lo.evaluate(0)  # sanity on the oracle itself
