"""The service provider (SP) role — stores ciphertext, answers queries.

The SP holds encrypted tables, the QPF handle (backed by the trusted
machine) and, optionally, PRKB indexes.  It implements the paper's query
dispatch: baseline linear scan (Fig. 2a), PRKB-assisted single predicates
and BETWEEN, and the two multi-dimensional strategies of Sec. 6.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from ..core.between import BetweenProcessor
from ..core.multi import DimensionRange, MultiDimensionProcessor
from ..core.prkb import PRKBIndex
from ..core.single import SingleDimensionProcessor
from ..core.updates import TableUpdater
from ..crypto.trapdoor import EncryptedPredicate
from .costs import CostCounter
from .encryption import EncryptedTable
from .qpf import QueryProcessingFunction

__all__ = ["ServiceProvider", "ObservabilityEndpoint"]


class ServiceProvider:
    """Server-side engine: storage, QPF dispatch and PRKB management."""

    def __init__(self, qpf: QueryProcessingFunction):
        self.qpf = qpf
        self._tables: dict[str, EncryptedTable] = {}
        # indexes[table][attribute] -> PRKBIndex
        self._indexes: dict[str, dict[str, PRKBIndex]] = {}
        self._durability = None
        # Providers whose private indexes cover *this* provider's tables
        # (tenant namespaces).  ``updater`` folds their indexes in, so
        # base-table inserts/deletes stay visible to every tenant.
        self._index_mirrors: list["ServiceProvider"] = []

    @property
    def counter(self) -> CostCounter:
        """The shared cost counter."""
        return self.qpf.counter

    # -- durability --------------------------------------------------------- #

    def attach_durability(self, manager) -> None:
        """Couple this server to a durability manager: every registered
        table and built index is checkpointed and journaled from then on."""
        self._durability = manager

    # -- storage ------------------------------------------------------------ #

    def register_table(self, table: EncryptedTable) -> None:
        """Accept an uploaded encrypted table."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        self._indexes[table.name] = {}
        if self._durability is not None and not self._durability.recovering:
            self._durability.on_register_table(table)

    def table(self, name: str) -> EncryptedTable:
        """Look up a registered encrypted table."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    # -- PRKB management (initPRKB is SP-initiated; Sec. 4) ------------------ #

    def build_index(self, table_name: str, attribute: str,
                    max_partitions: int | None = None,
                    early_stop: bool = True,
                    seed: int | None = None,
                    cap_policy: str = "freeze") -> PRKBIndex:
        """``initPRKB`` for one attribute — a purely server-side decision."""
        table = self.table(table_name)
        index = PRKBIndex(table, self.qpf, attribute,
                          max_partitions=max_partitions,
                          early_stop=early_stop, seed=seed,
                          cap_policy=cap_policy)
        self._indexes[table_name][attribute] = index
        if self._durability is not None and not self._durability.recovering:
            self._durability.on_build_index(index)
        return index

    def build_indexes(self, table_name: str, attributes: list[str],
                      max_partitions: int | None = None,
                      seed: int | None = None) -> None:
        """:meth:`build_index` per attribute; the attribute at position
        ``i`` samples from ``seed + i`` (the one seed rule the engine
        and tenant sessions share, which keeps their chains in parity).
        """
        for position, attribute in enumerate(attributes):
            self.build_index(
                table_name, attribute, max_partitions=max_partitions,
                seed=None if seed is None else seed + position)

    def adopt_index(self, table_name: str, attribute: str,
                    index: PRKBIndex) -> None:
        """Install an already-materialized index (recovery path)."""
        self.table(table_name)  # must exist
        self._indexes[table_name][attribute] = index

    def index(self, table_name: str, attribute: str) -> PRKBIndex:
        """Look up an existing PRKB index."""
        try:
            return self._indexes[table_name][attribute]
        except KeyError:
            raise KeyError(
                f"no PRKB index on {table_name!r}.{attribute!r}"
            ) from None

    def has_index(self, table_name: str, attribute: str) -> bool:
        """Whether PRKB covers the given attribute."""
        return attribute in self._indexes.get(table_name, {})

    def indexes_for(self, table_name: str) -> dict[str, PRKBIndex]:
        """All PRKB indexes of one table."""
        return dict(self._indexes.get(table_name, {}))

    def all_tables(self) -> dict[str, EncryptedTable]:
        """Every registered table, by name."""
        return dict(self._tables)

    def all_indexes(self) -> dict[str, dict[str, PRKBIndex]]:
        """Every PRKB index, as ``{table: {attribute: index}}``."""
        return {name: dict(indexes)
                for name, indexes in self._indexes.items()}

    def register_index_mirror(self, provider: "ServiceProvider") -> None:
        """Keep ``provider``'s indexes fresh through this updater path.

        Tenant namespaces share the physical tables by reference but
        hold private PRKB indexes; registering them here routes every
        base insert/delete into those indexes too, so tenant views
        never go stale.
        """
        self._index_mirrors.append(provider)

    def unregister_index_mirror(self, provider: "ServiceProvider") -> None:
        """Stop maintaining a mirror's indexes (idempotent)."""
        try:
            self._index_mirrors.remove(provider)
        except ValueError:
            pass

    def updater(self, table_name: str) -> TableUpdater:
        """Update coordinator for one table and its indexes (Sec. 7)."""
        journal = (self._durability.table_journal(table_name)
                   if self._durability is not None else None)
        indexes = dict(self.indexes_for(table_name))
        # Fold in mirror (tenant-namespace) indexes under disambiguated
        # labels — TableUpdater keys are labels, not schema attributes.
        for position, mirror in enumerate(self._index_mirrors):
            for attr, index in mirror.indexes_for(table_name).items():
                indexes[f"mirror{position}:{attr}"] = index
        return TableUpdater(self.table(table_name), indexes,
                            journal=journal)

    # -- selection processing ------------------------------------------------ #

    def select_baseline(self, table_name: str,
                        trapdoor: EncryptedPredicate) -> np.ndarray:
        """Fig. 2a: test every encrypted tuple with the QPF (n uses)."""
        table = self.table(table_name)
        labels = self.qpf.batch(trapdoor, table, table.uids)
        return np.sort(table.uids[labels])

    def select(self, table_name: str, trapdoor: EncryptedPredicate,
               update: bool = True) -> np.ndarray:
        """Answer one predicate, using PRKB when the attribute is indexed.

        Winners come back strictly increasing on every path: PRKB and
        BETWEEN read them out of the chain in uid order, the baseline
        scan sorts its own.
        """
        if not self.has_index(table_name, trapdoor.attribute):
            return self.select_baseline(table_name, trapdoor)
        index = self.index(table_name, trapdoor.attribute)
        if trapdoor.kind == "between":
            return BetweenProcessor(index).select(trapdoor, update=update)
        return SingleDimensionProcessor(index).select(trapdoor,
                                                      update=update)

    def answer_batch(self, table_name: str,
                     trapdoors: list[EncryptedPredicate],
                     update: bool = True,
                     window: int | None = None) -> list:
        """Answer a burst of predicates with shared enclave roundtrips.

        Indexed comparison trapdoors are driven in lock step by a
        :class:`~repro.edbms.batching.BatchExecutor` — their QPF probes
        are coalesced so each scheduling step costs one roundtrip for
        the whole window, and duplicate trapdoors within a window are
        answered once.  BETWEEN and unindexed predicates fall back to
        the serial paths.  Returns one
        :class:`~repro.edbms.batching.BatchAnswer` per trapdoor, in
        submission order; answers match :meth:`select` as sets.
        """
        from .batching import BatchExecutor, BatchJob

        table = self.table(table_name)
        jobs = [
            BatchJob.dispatch(
                trapdoor, table,
                self.index(table_name, trapdoor.attribute)
                if self.has_index(table_name, trapdoor.attribute)
                else None)
            for trapdoor in trapdoors
        ]
        return BatchExecutor(self.qpf).run(jobs, update=update,
                                           window=window)

    def select_range(self, table_name: str, query: list[DimensionRange],
                     strategy: str = "md",
                     update: bool = True) -> np.ndarray:
        """Answer a multi-dimensional range query (Sec. 6).

        ``strategy`` selects between ``"md"`` (grid algorithm, Sec. 6.2),
        ``"sd+"`` (naive per-dimension composition) and ``"baseline"``
        (no index: every tuple tested against the predicates with
        per-tuple short-circuiting, as in existing EDBMSs).
        """
        if strategy == "baseline":
            return self._select_range_baseline(table_name, query)
        indexes = {}
        for dimension in query:
            if not self.has_index(table_name, dimension.attribute):
                raise KeyError(
                    f"strategy {strategy!r} needs a PRKB index on "
                    f"{dimension.attribute!r}"
                )
            indexes[dimension.attribute] = self.index(table_name,
                                                      dimension.attribute)
        processor = MultiDimensionProcessor(indexes)
        # A grid answer is a few thousand uids in two runs; sorting them
        # is cheaper than a bool read-out over the whole uid span.
        if strategy == "md":
            return np.sort(processor.select(query, update=update))
        if strategy == "sd+":
            return np.sort(processor.select_naive(query, update=update))
        raise ValueError(
            f"unknown strategy {strategy!r}; "
            "expected 'md', 'sd+' or 'baseline'"
        )

    def _select_range_baseline(self, table_name: str,
                               query: list[DimensionRange]) -> np.ndarray:
        """Unindexed EDBMS behaviour: up to 2d QPF uses per tuple.

        Processing stops for a tuple as soon as one predicate fails
        (the paper's footnote 5), so the expected cost is below 2dn but
        still Θ(n).
        """
        table = self.table(table_name)
        alive = table.uids
        for dimension in query:
            for trapdoor in dimension.trapdoors():
                if alive.size == 0:
                    return alive
                labels = self.qpf.batch(trapdoor, table, alive)
                alive = alive[labels]
        return np.sort(alive)


# --------------------------------------------------------------------- #
# Observability endpoints                                                #
# --------------------------------------------------------------------- #


class ObservabilityEndpoint:
    """Read-only introspection surface over one service provider.

    :meth:`handle` is a pure routing function — path in, ``(status,
    content_type, body)`` out — so every route is unit-testable without
    sockets.  :meth:`start` wraps it in a stdlib
    ``ThreadingHTTPServer`` on a daemon thread (port 0 picks a free
    port) for a real scrape target.

    Routes:

    * ``GET /metrics`` — Prometheus text exposition of the registry.
    * ``GET /metrics.json`` — the same registry as JSON.
    * ``GET /trace/<query_id>`` — the span forest of one trace
      (``QueryAnswer.query_id``), 404 when evicted/unknown.
    * ``GET /health`` — per-index :meth:`~repro.core.prkb.PRKBIndex.health`
      plus the shared cost counter.
    * ``GET /outcomes`` — the attached
      :class:`~repro.obs.OutcomeStore`'s estimate-error report
      (503 when outcome tracking is not enabled).
    * ``GET /tenants`` — per-tenant latency/QPF percentiles and SLO
      standing from the same store (503 when not enabled).
    * ``POST /query`` — execute one SELECT through an attached
      :class:`~repro.serve.QueryServer` (503 when none is attached).
      Body: ``{"sql": ..., "tenant": ..., "strategy": ...}``; admission
      rejections come back as 429.
    """

    def __init__(self, server: ServiceProvider, tracer=None, registry=None,
                 query_server=None, outcomes=None):
        self.server = server
        self.tracer = tracer
        self.registry = registry
        self.query_server = query_server
        self.outcomes = outcomes
        self._httpd = None
        self._thread = None

    # -- pure routing ---------------------------------------------------- #

    def handle(self, path: str) -> tuple[int, str, str]:
        """Answer one GET ``path``; returns (status, content-type, body)."""
        if path == "/metrics":
            if self.registry is None:
                return 503, "text/plain", "metrics not enabled\n"
            from ..obs import render_prometheus

            return (200, "text/plain; version=0.0.4",
                    render_prometheus(self.registry))
        if path == "/metrics.json":
            if self.registry is None:
                return 503, "text/plain", "metrics not enabled\n"
            from ..obs import render_json

            return (200, "application/json",
                    json.dumps(render_json(self.registry), indent=2))
        if path.startswith("/trace/"):
            if self.tracer is None:
                return 503, "text/plain", "tracing not enabled\n"
            try:
                trace_id = int(path[len("/trace/"):])
            except ValueError:
                return 400, "text/plain", "trace id must be an integer\n"
            forest = self.tracer.trace_tree(trace_id)
            if not forest:
                return (404, "text/plain",
                        f"no retained spans for trace {trace_id}\n")
            return 200, "application/json", json.dumps(forest, indent=2)
        if path == "/health":
            body = {"counter": self.server.counter.as_dict(), "indexes": {}}
            for table, indexes in self.server.all_indexes().items():
                for attribute, index in indexes.items():
                    body["indexes"][f"{table}.{attribute}"] = index.health()
            return 200, "application/json", json.dumps(body, indent=2)
        if path == "/outcomes":
            if self.outcomes is None:
                return 503, "text/plain", "outcome tracking not enabled\n"
            return (200, "application/json",
                    json.dumps(self.outcomes.report(), indent=2))
        if path == "/tenants":
            if self.outcomes is None:
                return 503, "text/plain", "outcome tracking not enabled\n"
            return (200, "application/json",
                    json.dumps(self.outcomes.tenant_reports(), indent=2))
        return 404, "text/plain", f"unknown path {path!r}\n"

    def handle_post(self, path: str, body: bytes) -> tuple[int, str, str]:
        """Answer one POST; returns (status, content-type, body).

        Pure routing like :meth:`handle` — unit-testable without
        sockets.  The only route is ``/query``, dispatched through the
        attached :class:`~repro.serve.QueryServer` (which applies
        admission control and per-tenant isolation).
        """
        if path != "/query":
            return 404, "text/plain", f"unknown path {path!r}\n"
        if self.query_server is None:
            return 503, "text/plain", "query serving not enabled\n"
        # Imported here: repro.serve sits above this module in the layer
        # stack (it imports the engine, which imports this file).
        from ..serve import Overloaded

        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, "text/plain", "body must be a JSON object\n"
        if not isinstance(request, dict) or "sql" not in request:
            return (400, "text/plain",
                    'body must be a JSON object with a "sql" key\n')
        tenant = str(request.get("tenant", "default"))
        try:
            answer = self.query_server.query(
                tenant, request["sql"],
                strategy=request.get("strategy", "auto"))
        except Overloaded as exc:
            return 429, "text/plain", f"{exc}\n"
        except (KeyError, ValueError) as exc:
            return 400, "text/plain", f"{exc}\n"
        payload = {
            "tenant": tenant,
            "count": answer.count,
            "uids": [int(uid) for uid in answer.uids],
            "value": answer.value,
            "qpf_uses": answer.qpf_uses,
            "simulated_ms": answer.simulated_ms,
            "query_id": answer.query_id,
        }
        return 200, "application/json", json.dumps(payload)

    # -- stdlib HTTP wrapper --------------------------------------------- #

    def start(self, port: int = 0, host: str = "127.0.0.1"):
        """Serve :meth:`handle` on a daemon thread; returns (host, port)."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        endpoint = self

        class _Handler(BaseHTTPRequestHandler):
            def _reply(self, status, content_type, body):
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                self._reply(*endpoint.handle(self.path))

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                self._reply(*endpoint.handle_post(self.path, body))

            def log_message(self, *args):  # quiet by default
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-obs-http", daemon=True)
        self._thread.start()
        return self._httpd.server_address

    def stop(self) -> None:
        """Shut the HTTP server down (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            self._thread = None
