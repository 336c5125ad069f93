"""Server-side audit log — operational observability for the SP.

A deployed service provider needs an account of what it processed and
what each operation cost; in the EDBMS threat model the audit log is
also exactly the transcript an attacker-of-record would hold (Sec. 3.3),
so keeping it first-class makes the leakage surface inspectable: every
entry records only server-visible facts (trapdoor attribute/kind, result
*size*, counter deltas), never plaintext.

Attach an :class:`AuditLog` to a :class:`ServiceProvider` with
:func:`attach_audit_log`; it wraps the selection entry points.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from .costs import CostCounter

__all__ = ["AuditEntry", "AuditLog", "attach_audit_log"]

_SEQUENCE = itertools.count(1)


@dataclass(frozen=True)
class AuditEntry:
    """One processed operation, server-visible facts only."""

    sequence: int
    operation: str      # "select" | "select_range" | "baseline" ...
    table: str
    attributes: tuple[str, ...]
    result_size: int
    qpf_uses: int
    mpc_messages: int

    def to_json(self) -> str:
        """One JSON line."""
        return json.dumps({
            "sequence": self.sequence,
            "operation": self.operation,
            "table": self.table,
            "attributes": list(self.attributes),
            "result_size": self.result_size,
            "qpf_uses": self.qpf_uses,
            "mpc_messages": self.mpc_messages,
        }, sort_keys=True)


@dataclass
class AuditLog:
    """Append-only log of processed operations."""

    entries: list[AuditEntry] = field(default_factory=list)

    def record(self, operation: str, table: str,
               attributes: tuple[str, ...], result_size: int,
               spent: CostCounter) -> AuditEntry:
        """Append one entry from a cost delta."""
        entry = AuditEntry(
            sequence=next(_SEQUENCE),
            operation=operation,
            table=table,
            attributes=attributes,
            result_size=result_size,
            qpf_uses=spent.qpf_uses,
            mpc_messages=spent.mpc_messages,
        )
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    # -- analysis --------------------------------------------------------- #

    def total_qpf(self) -> int:
        """QPF uses across every logged operation."""
        return sum(entry.qpf_uses for entry in self.entries)

    def by_attribute(self) -> dict[str, int]:
        """QPF spend grouped by attribute — where the budget goes."""
        spend: dict[str, int] = {}
        for entry in self.entries:
            for attribute in entry.attributes:
                spend[attribute] = spend.get(attribute, 0) + entry.qpf_uses
        return spend

    def save(self, path) -> None:
        """Persist as JSON lines."""
        lines = [entry.to_json() for entry in self.entries]
        Path(path).write_text("\n".join(lines)
                              + ("\n" if lines else ""))


def attach_audit_log(server) -> AuditLog:
    """Wrap a :class:`ServiceProvider`'s selection entry points.

    Returns the live :class:`AuditLog`; subsequent calls to ``select``,
    ``select_baseline`` and ``select_range`` on that server are recorded
    transparently.
    """
    log = AuditLog()

    def audited(name: str, operation: str, attributes_of):
        original = getattr(server, name)

        def wrapper(table_name, query, *args, **kwargs):
            # This thread's own charges only: a sibling serving thread
            # on the same counter never lands in the entry.
            with server.counter.measure() as spent:
                result = original(table_name, query, *args, **kwargs)
            log.record(operation, table_name, attributes_of(query),
                       int(result.size), spent)
            return result

        setattr(server, name, wrapper)

    def of_trapdoor(trapdoor):
        return (trapdoor.attribute,)

    def of_range(query):
        return tuple(dimension.attribute for dimension in query)

    audited("select", "select", of_trapdoor)
    audited("select_baseline", "baseline", of_trapdoor)
    audited("select_range", "select_range", of_range)
    return log
