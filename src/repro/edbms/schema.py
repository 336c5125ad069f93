"""Relational schema and plaintext table model.

The data owner works with :class:`PlainTable` objects; the service provider
only ever receives the encrypted form produced by
:mod:`repro.edbms.encryption`.  Columns are integer-valued (the paper's
predicates are numeric comparisons); rows carry stable unique ids (*uids*)
so that selection results, PRKB partitions and updates all refer to tuples
independently of physical position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distinct import has_duplicates

__all__ = ["AttributeSpec", "Schema", "PlainTable"]


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one integer attribute and its value domain."""

    name: str
    domain_min: int
    domain_max: int

    def __post_init__(self):
        if self.domain_min > self.domain_max:
            raise ValueError(
                f"attribute {self.name!r}: empty domain "
                f"[{self.domain_min}, {self.domain_max}]"
            )

    @property
    def domain_size(self) -> int:
        """Number of distinct values the attribute may take."""
        return self.domain_max - self.domain_min + 1

    def validate(self, values: np.ndarray) -> None:
        """Raise ``ValueError`` if any value falls outside the domain."""
        values = np.asarray(values)
        if values.size == 0:
            return
        lo, hi = int(values.min()), int(values.max())
        if lo < self.domain_min or hi > self.domain_max:
            raise ValueError(
                f"attribute {self.name!r}: values span [{lo}, {hi}], outside "
                f"domain [{self.domain_min}, {self.domain_max}]"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`AttributeSpec`."""

    attributes: tuple[AttributeSpec, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")

    @classmethod
    def of(cls, *specs: AttributeSpec) -> "Schema":
        """Convenience constructor from varargs."""
        return cls(tuple(specs))

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __getitem__(self, name: str) -> AttributeSpec:
        for spec in self.attributes:
            if spec.name == name:
                return spec
        raise KeyError(f"no attribute {name!r} in schema {self.names}")


@dataclass
class PlainTable:
    """A plaintext relational table owned by the data owner.

    Columns are int64 numpy arrays aligned by position; ``uids`` gives each
    row a stable identity that survives encryption and updates.
    """

    name: str
    schema: Schema
    columns: dict[str, np.ndarray]
    uids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        sizes = {k: len(v) for k, v in self.columns.items()}
        if set(sizes) != set(self.schema.names):
            raise ValueError(
                f"columns {sorted(sizes)} do not match schema "
                f"{sorted(self.schema.names)}"
            )
        if len(set(sizes.values())) > 1:
            raise ValueError(f"ragged columns: {sizes}")
        for name in self.schema.names:
            col = np.asarray(self.columns[name], dtype=np.int64)
            self.schema[name].validate(col)
            self.columns[name] = col
        n = self.num_rows
        if self.uids is None:
            self.uids = np.arange(n, dtype=np.uint64)
        else:
            self.uids = np.asarray(self.uids, dtype=np.uint64)
            if len(self.uids) != n:
                raise ValueError("uids length does not match row count")
            if has_duplicates(self.uids):
                raise ValueError("uids must be unique")

    @property
    def num_rows(self) -> int:
        """Number of tuples in the table."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        """The plaintext column ``name`` (positional order)."""
        return self.columns[name]

    def value_of(self, uid: int, attribute: str) -> int:
        """Plaintext value of one tuple (test/oracle use)."""
        positions = np.flatnonzero(self.uids == np.uint64(uid))
        if positions.size != 1:
            raise KeyError(f"uid {uid} not present exactly once")
        return int(self.columns[attribute][positions[0]])

    def rows_matching(self, attribute: str, predicate) -> np.ndarray:
        """Uids of rows whose plaintext value satisfies ``predicate``.

        ``predicate`` is a plaintext predicate object with ``evaluate``;
        this is the ground-truth oracle used by tests and by the data owner
        when checking results locally.
        """
        values = self.columns[attribute]
        mask = np.fromiter(
            (predicate.evaluate(int(v)) for v in values),
            dtype=bool,
            count=values.size,
        )
        return self.uids[mask]
