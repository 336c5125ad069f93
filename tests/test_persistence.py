"""Tests for encrypted-table and PRKB persistence."""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.bench import Testbed
from repro.core import BetweenProcessor, SingleDimensionProcessor
from repro.edbms.durability.checkpoint import (
    read_index_checkpoint,
    read_table_checkpoint,
    write_index_checkpoint,
    write_table_checkpoint,
)
from repro.edbms.persistence import (
    load_index,
    load_table,
    restore_index,
    save_index,
    save_table,
)
from repro.workloads import uniform_table

from conftest import plain_lookup

# The serializer under the classic layout is the one under checkpoints:
# CI's fault-injection job runs both.
pytestmark = pytest.mark.durability

DATA = Path(__file__).parent / "data"


def make_bed(seed=0, warm=20):
    table = uniform_table("t", 300, ["X", "Y"], domain=(1, 10_000),
                          seed=seed)
    bed = Testbed(table, ["X"], seed=seed)
    if warm:
        bed.warm_up("X", warm, seed=seed)
    return bed


class TestTablePersistence:
    def test_roundtrip(self, tmp_path):
        bed = make_bed()
        save_table(bed.table, tmp_path / "t")
        restored = load_table(tmp_path / "t")
        assert restored.name == bed.table.name
        assert restored.attribute_names == bed.table.attribute_names
        assert np.array_equal(restored.uids, bed.table.uids)
        for attr in bed.table.attribute_names:
            a, __ = bed.table.ciphertexts_for(attr, bed.table.uids)
            b, __ = restored.ciphertexts_for(attr, restored.uids)
            assert np.array_equal(a, b)

    def test_restored_table_still_queryable(self, tmp_path):
        bed = make_bed()
        save_table(bed.table, tmp_path / "t")
        restored = load_table(tmp_path / "t")
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 5000)
        original = bed.qpf.batch(trapdoor, bed.table, bed.table.uids)
        again = bed.qpf.batch(trapdoor, restored, restored.uids)
        assert np.array_equal(original, again)

    def test_kind_check(self, tmp_path):
        bed = make_bed()
        save_index(bed.prkb["X"], tmp_path / "ix")
        with pytest.raises(ValueError):
            load_table(tmp_path / "ix")


class TestIndexPersistence:
    def test_roundtrip_preserves_chain(self, tmp_path):
        bed = make_bed(seed=1)
        index = bed.prkb["X"]
        save_index(index, tmp_path / "ix")
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf, seed=9)
        assert restored.num_partitions == index.num_partitions
        assert restored.num_separators == index.num_separators
        assert restored.pop.sizes() == index.pop.sizes()
        restored.pop.check_invariants(plain_lookup(bed, "X"))

    def test_restored_index_answers_queries(self, tmp_path):
        bed = make_bed(seed=2)
        save_index(bed.prkb["X"], tmp_path / "ix")
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf, seed=4)
        processor = SingleDimensionProcessor(restored)
        for constant in (100, 5_000, 9_900):
            trapdoor = bed.owner.comparison_trapdoor("X", "<", constant)
            got = np.sort(processor.select(trapdoor))
            plain = bed.plain.columns["X"]
            want = np.sort(bed.plain.uids[plain < constant])
            assert np.array_equal(got, want)

    def test_restored_index_keeps_growing(self, tmp_path):
        bed = make_bed(seed=3)
        save_index(bed.prkb["X"], tmp_path / "ix")
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf, seed=4)
        k = restored.num_partitions
        processor = SingleDimensionProcessor(restored)
        processor.select(bed.owner.comparison_trapdoor("X", "<", 4_321))
        assert restored.num_partitions >= k
        restored.pop.check_invariants(plain_lookup(bed, "X"))

    def test_restored_separators_support_insert(self, tmp_path):
        """The stored trapdoors must still drive the O(log k) insert."""
        bed = make_bed(seed=4)
        save_index(bed.prkb["X"], tmp_path / "ix")
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf, seed=4)
        from repro.core import TableUpdater
        updater = TableUpdater(bed.table, {"X": restored})
        receipt = updater.insert_plain(bed.owner.key, {
            "X": np.asarray([7_777], dtype=np.int64),
            "Y": np.asarray([1], dtype=np.int64),
        })
        lookup = {int(u): int(v) for u, v in
                  zip(bed.plain.uids, bed.plain.columns["X"])}
        lookup[int(receipt.uids[0])] = 7_777
        restored.pop.check_invariants(lambda uid: lookup[uid])

    def test_between_partner_links_survive(self, tmp_path):
        bed = make_bed(seed=5, warm=0)
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 5_000))
        BetweenProcessor(index).select(
            bed.owner.between_trapdoor("X", 2_000, 8_000))
        linked_before = sum(
            1 for s in index._separators if s.partner is not None)
        save_index(index, tmp_path / "ix")
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf)
        linked_after = sum(
            1 for s in restored._separators if s.partner is not None)
        assert linked_after == linked_before

    def test_table_mismatch_rejected(self, tmp_path):
        bed = make_bed(seed=6)
        other = make_bed(seed=7)
        save_index(bed.prkb["X"], tmp_path / "ix")
        other_table = other.table
        other_table.name = "t"  # same name, different tuples
        other_table.delete_rows(other_table.uids[:10])
        with pytest.raises(ValueError):
            load_index(tmp_path / "ix", other_table, other.qpf)

    def test_wrong_kind_rejected(self, tmp_path):
        bed = make_bed(seed=8)
        save_table(bed.table, tmp_path / "t")
        with pytest.raises(ValueError):
            load_index(tmp_path / "t", bed.table, bed.qpf)


def _as_parent_wrote(directory):
    """Rewrite every artefact the way the previous format did:
    ``np.savez_compressed`` archives and indented metadata."""
    for archive in directory.glob("*.npz"):
        with np.load(archive) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez_compressed(archive, **arrays)
    for meta in directory.glob("*.json"):
        meta.write_text(json.dumps(json.loads(meta.read_text()), indent=2))


class TestArchiveFormat:
    """Checkpoints write what they have: ciphertext stored, uid arrays
    deflated at level 1, in an archive every ``np.load`` reader opens."""

    @pytest.mark.parametrize("writer", ["current", "parent"])
    def test_every_reader_gets_the_arrays_back(self, tmp_path, writer):
        bed = make_bed(seed=11)
        index = bed.prkb["X"]
        save_table(bed.table, tmp_path / "t")
        save_index(index, tmp_path / "ix")
        write_table_checkpoint(tmp_path, "ck", bed.table, generation=3)
        write_index_checkpoint(tmp_path, "ck.X", index, generation=3)
        if writer == "parent":
            _as_parent_wrote(tmp_path)

        members = np.concatenate([p.uids for p in index.pop])
        offsets = np.cumsum([0] + index.pop.sizes())
        for table in (load_table(tmp_path / "t"),
                      read_table_checkpoint(tmp_path, "ck")[1]):
            assert table.uids.dtype == np.uint64
            assert np.array_equal(table.uids, bed.table.uids)
            for attr in bed.table.attribute_names:
                want, __ = bed.table.ciphertexts_for(attr, bed.table.uids)
                got, __ = table.ciphertexts_for(attr, table.uids)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        meta, got_members, got_offsets = read_index_checkpoint(tmp_path,
                                                               "ck.X")
        assert meta["wal_generation"] == 3
        assert np.array_equal(got_members, members)
        assert np.array_equal(got_offsets, offsets)
        restored = load_index(tmp_path / "ix", bed.table, bed.qpf)
        assert [p.uids.tolist() for p in restored.pop] \
            == [p.uids.tolist() for p in index.pop]
        assert (restored.seed, restored.ordinal) \
            == (index.seed, index.ordinal)

    def test_ciphertext_is_stored_and_uids_deflated(self, tmp_path):
        bed = make_bed(seed=12)
        write_table_checkpoint(tmp_path, "ck", bed.table, generation=1)
        with zipfile.ZipFile(tmp_path / "ck.1.npz") as archive:
            kinds = {info.filename: info.compress_type
                     for info in archive.infolist()}
        assert kinds == {"uids.npy": zipfile.ZIP_DEFLATED,
                         "col:X.npy": zipfile.ZIP_STORED,
                         "col:Y.npy": zipfile.ZIP_STORED}

    def test_size_stays_within_2_percent_of_deflate_6(self, tmp_path):
        table = uniform_table("t", 50_000, ["X"], domain=(1, 1_000_000),
                              seed=13)
        bed = Testbed(table, ["X"], seed=13)
        bed.warm_up("X", 150, seed=13)  # a permuted, many-partition chain
        write_table_checkpoint(tmp_path, "ck", bed.table, generation=1)
        write_index_checkpoint(tmp_path, "ck.X", bed.prkb["X"],
                               generation=1)
        current = sum(f.stat().st_size for f in tmp_path.glob("*.npz"))
        _as_parent_wrote(tmp_path)
        parent = sum(f.stat().st_size for f in tmp_path.glob("*.npz"))
        assert current <= 1.02 * parent


def _names(archive_path):
    with zipfile.ZipFile(archive_path) as archive:
        return sorted(archive.namelist())


class TestFormatsPinned:
    """Both layouts write exactly these keys and members; version 3 /
    checkpoint version 2 replaced ``rng_state`` by ``seed`` and
    ``ordinal``."""

    def test_classic_layout(self, tmp_path):
        bed = make_bed(seed=14)
        save_table(bed.table, tmp_path / "t")
        save_index(bed.prkb["X"], tmp_path / "ix")
        meta = json.loads((tmp_path / "t.json").read_text())
        assert set(meta) == {"format", "kind", "name", "attribute_names"}
        assert (meta["format"], meta["kind"]) == (3, "encrypted-table")
        assert _names(tmp_path / "t.npz") \
            == ["col:X.npy", "col:Y.npy", "uids.npy"]
        meta = json.loads((tmp_path / "ix.json").read_text())
        assert set(meta) == {
            "format", "kind", "table", "attribute", "max_partitions",
            "early_stop", "cap_policy", "separators", "seed", "ordinal"}
        assert (meta["format"], meta["kind"]) == (3, "prkb-index")
        assert _names(tmp_path / "ix.npz") == ["members.npy", "offsets.npy"]

    def test_checkpoint_layout(self, tmp_path):
        bed = make_bed(seed=14)
        write_table_checkpoint(tmp_path, "ck", bed.table, generation=7)
        write_index_checkpoint(tmp_path, "ck.X", bed.prkb["X"],
                               generation=7)
        generation = {"generation": 7, "wal_generation": 7}
        meta = json.loads((tmp_path / "ck.json").read_text())
        assert set(meta) == {"format", "kind", "name", "attribute_names",
                             "generation", "data_file", "wal_generation"}
        assert (meta["format"], meta["kind"]) \
            == (2, "encrypted-table-checkpoint")
        assert meta.items() >= dict(generation,
                                    data_file="ck.7.npz").items()
        assert _names(tmp_path / "ck.7.npz") \
            == ["col:X.npy", "col:Y.npy", "uids.npy"]
        meta = json.loads((tmp_path / "ck.X.json").read_text())
        assert set(meta) == {
            "format", "kind", "table", "attribute", "generation",
            "data_file", "wal_generation", "max_partitions", "early_stop",
            "cap_policy", "separators", "seed", "ordinal"}
        assert (meta["format"], meta["kind"]) \
            == (2, "prkb-index-checkpoint")
        assert meta.items() >= dict(generation,
                                    data_file="ck.X.7.npz").items()
        assert _names(tmp_path / "ck.X.7.npz") \
            == ["members.npy", "offsets.npy"]


class TestParentFixtures:
    """``tests/data/parent_*`` were written by the commit before the two
    serializers became one: an 8-row table ``t`` (seed 3), index on X
    after ``X < 30`` and ``X < 60``."""

    CHAIN = [[0, 5, 6], [7], [1, 2, 3, 4]]

    @staticmethod
    def _bed():
        return Testbed(uniform_table("t", 8, ["X"], domain=(1, 100), seed=3),
                       ["X"], seed=3)

    def _check(self, bed, index):
        assert [p.uids.tolist() for p in index.pop] == self.CHAIN
        assert index.num_separators == 2
        index.pop.check_invariants(plain_lookup(bed, "X"))
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 45)
        got = SingleDimensionProcessor(index).select(trapdoor)
        values = bed.plain.columns["X"]
        assert sorted(got.tolist()) \
            == sorted(bed.plain.uids[values < 45].tolist())

    def test_classic_pair_loads(self):
        bed = self._bed()
        self._check(bed, load_index(DATA / "parent_index", bed.table,
                                    bed.qpf))

    def test_checkpoint_pair_loads(self):
        bed = self._bed()
        meta, members, offsets = read_index_checkpoint(DATA, "parent_ckpt")
        assert meta["wal_generation"] == 4
        self._check(bed, restore_index(meta, members, offsets, bed.table,
                                       bed.qpf))


class TestRepeatedMember:
    """A chain that files one uid twice must not load (either layout)."""

    @staticmethod
    def _repeat_last_member(archive_path):
        with np.load(archive_path) as data:
            members, offsets = data["members"], data["offsets"].copy()
        offsets[-1] += 1
        np.savez(archive_path, members=np.append(members, members[0]),
                 offsets=offsets)

    def test_load_index_rejects(self, tmp_path):
        bed = make_bed(seed=15, warm=5)
        save_index(bed.prkb["X"], tmp_path / "ix")
        self._repeat_last_member(tmp_path / "ix.npz")
        with pytest.raises(ValueError, match="does not cover"):
            load_index(tmp_path / "ix", bed.table, bed.qpf)

    def test_checkpoint_restore_rejects(self, tmp_path):
        bed = make_bed(seed=15, warm=5)
        write_index_checkpoint(tmp_path, "ck.X", bed.prkb["X"],
                               generation=1)
        self._repeat_last_member(tmp_path / "ck.X.1.npz")
        meta, members, offsets = read_index_checkpoint(tmp_path, "ck.X")
        assert members.size == bed.table.num_rows + 1
        with pytest.raises(ValueError, match="repeats a uid"):
            restore_index(meta, members, offsets, bed.table, bed.qpf)
