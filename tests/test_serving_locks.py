"""SnapshotLock semantics + thread-exact cost accounting primitives."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.locks import SnapshotLock
from repro.core.partitions import PartialOrderPartitions
from repro.edbms.costs import CostCounter

pytestmark = pytest.mark.serving


def run_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    return thread


class TestSnapshotLock:
    def test_readers_share(self):
        lock = SnapshotLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both threads hold the read side at once

        threads = [run_thread(reader) for _ in range(2)]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_writer_excludes_readers(self):
        lock = SnapshotLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        threads = [run_thread(writer), run_thread(reader)]
        for thread in threads:
            thread.join(timeout=5)
        assert order == ["write", "read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = SnapshotLock()
        lock.acquire_read()
        writer_waiting = threading.Event()
        got_write = threading.Event()
        second_read = threading.Event()

        def writer():
            writer_waiting.set()
            with lock.write():
                got_write.set()

        def late_reader():
            with lock.read():
                second_read.set()

        writer_thread = run_thread(writer)
        writer_waiting.wait(timeout=5)
        time.sleep(0.02)  # writer is parked inside acquire_write
        reader_thread = run_thread(late_reader)
        time.sleep(0.05)
        # A waiting writer gates new readers out.
        assert not second_read.is_set()
        assert not got_write.is_set()
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert got_write.is_set() and second_read.is_set()

    def test_reentrant_read_and_write(self):
        lock = SnapshotLock()
        with lock.read():
            with lock.read():
                pass
        with lock.write():
            with lock.write():
                # read-under-write also allowed (pipeline re-reads the
                # chain while a commit is being applied).
                with lock.read():
                    pass
            assert lock.state()["writer_held"]
        assert not lock.state()["writer_held"]

    def test_read_under_write_survives_waiting_writer(self):
        lock = SnapshotLock()
        with lock.write():
            contender_started = threading.Event()

            def contender():
                contender_started.set()
                with lock.write():
                    pass

            thread = run_thread(contender)
            contender_started.wait(timeout=5)
            time.sleep(0.02)
            with lock.read():  # must not deadlock on the waiting writer
                pass
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_upgrade_raises(self):
        lock = SnapshotLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_release_without_hold_raises(self):
        lock = SnapshotLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_state_shape(self):
        lock = SnapshotLock()
        with lock.read():
            state = lock.state()
        assert state == {"readers": 1, "writer_held": False,
                         "writers_waiting": 0}


class TestCounterMeasure:
    def test_charge_is_atomic_across_threads(self):
        counter = CostCounter()
        rounds = 2_000

        def worker():
            for _ in range(rounds):
                counter.charge(qpf_uses=1, comparisons=2)

        threads = [run_thread(worker) for _ in range(4)]
        for thread in threads:
            thread.join(timeout=30)
        assert counter.qpf_uses == 4 * rounds
        assert counter.comparisons == 8 * rounds

    def test_measure_scopes_are_thread_local_and_exact(self):
        counter = CostCounter()
        tallies = {}

        def worker(name, amount):
            with counter.measure() as tally:
                for _ in range(500):
                    counter.charge(qpf_uses=amount)
            tallies[name] = tally.qpf_uses

        threads = [run_thread(lambda n=n: worker(n, n + 1))
                   for n in range(3)]
        for thread in threads:
            thread.join(timeout=30)
        # Each scope saw only its own thread's charges...
        assert tallies == {0: 500, 1: 1000, 2: 1500}
        # ...while the global counter absorbed everything.
        assert counter.qpf_uses == 3000

    def test_nested_measure_scopes(self):
        counter = CostCounter()
        with counter.measure() as outer:
            counter.charge(qpf_uses=1)
            with counter.measure() as inner:
                counter.charge(qpf_uses=2)
        assert inner.qpf_uses == 2
        assert outer.qpf_uses == 3
        assert counter.qpf_uses == 3

    def test_nested_scope_equal_to_its_parent_closes_only_itself(self):
        # Tallies compare by value: while both scopes hold the same
        # charges, closing the inner one must not evict the outer.
        counter = CostCounter()
        with counter.measure() as outer:
            with counter.measure() as inner:
                counter.charge(qpf_uses=3)
            counter.charge(qpf_uses=2)
        assert (inner.qpf_uses, outer.qpf_uses) == (3, 5)
        with counter.measure() as later:
            counter.charge(qpf_uses=1)
        assert (later.qpf_uses, outer.qpf_uses) == (1, 5)

    def test_merge_mirrors_into_measure_scope(self):
        counter = CostCounter()
        shard = CostCounter(qpf_uses=7, comparisons=3)
        with counter.measure() as tally:
            counter.merge(shard)
        assert tally.qpf_uses == 7 and tally.comparisons == 3
        assert counter.qpf_uses == 7


class TestPartitionRebuildLock:
    def test_concurrent_freeze_is_consistent(self):
        pop = PartialOrderPartitions(np.arange(512, dtype=np.uint64))
        pop.split(0, np.arange(256, dtype=np.uint64),
                  np.arange(256, 512, dtype=np.uint64))
        failures: list[str] = []

        def freezer():
            for _ in range(200):
                pop._drop_buffer()
                view = pop.freeze()
                if view.num_tuples != 512:
                    failures.append(f"num_tuples {view.num_tuples}")

        threads = [run_thread(freezer) for _ in range(4)]
        for thread in threads:
            thread.join(timeout=30)
        assert not failures

    def test_pop_pickles_without_lock_state(self):
        import pickle

        pop = PartialOrderPartitions(np.arange(16, dtype=np.uint64))
        clone = pickle.loads(pickle.dumps(pop))
        assert clone.num_tuples == 16
        clone._drop_buffer()
        assert clone.freeze().num_tuples == 16
