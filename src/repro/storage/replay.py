"""Record crawls to JSONL dumps and replay them as a :class:`GraphBackend`.

A crawl dump is a line-oriented JSON file (optionally gzip-compressed, by
``.gz`` suffix): a header line naming the format and version, one record per
fetched node, then one ``meta`` line per *boundary* neighbor — a node the
crawl saw listed but never fetched::

    {"format": "repro-crawl", "version": 1, "name": "...", "records": 2, "meta": 1}
    {"node": 0, "neighbors": [1, 5], "attributes": {"age": 20}}
    {"node": 1, "neighbors": [0]}
    {"meta": 5, "degree": 3}

The ``meta`` lines mirror the free inline profile summaries real OSN
responses carry (and ``peek_metadata`` serves): samplers like MHRW and GNRW
consult neighbor degrees/attributes without billing a query, so a faithful
replay must answer those peeks for every neighbor of a fetched node — not
just the fetched nodes themselves.

:func:`dump_crawl` writes one — either from a *traced* API stack (every node
the trace saw queried, in first-query order, re-read for free from the
innermost backend) or from any graph/backend with an explicit node list.
:func:`load_crawl` replays one as a :class:`ReplayBackend`: fetches of
recorded nodes return the exact :class:`~repro.api.backend.RawRecord` that was
crawled (neighbor order included), and any node outside the dump raises the
typed :class:`~repro.exceptions.ReplayMissError`.  A real or simulated crawl
thus becomes a reproducible offline fixture that drives the whole middleware
stack without the original graph.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..api.backend import GraphBackend, RawRecord, as_backend
from ..api.remote import record_from_wire, record_to_wire
from ..exceptions import CrawlDumpError, RemoteBackendError, ReplayMissError, format_node_id
from ..graphs.loaders import open_text
from ..types import NodeId

PathLike = Union[str, Path]

#: Format identifier written into (and demanded from) every dump header.
DUMP_FORMAT = "repro-crawl"
#: Current dump version; bump on any incompatible change.
DUMP_VERSION = 1


class ReplayBackend(GraphBackend):
    """Serve fetches from the records of a previously dumped crawl.

    The backend answers exactly what the recorded crawl saw: recorded nodes
    return their original records, anything else raises
    :class:`~repro.exceptions.ReplayMissError` (a
    :class:`~repro.exceptions.NodeNotFoundError` subclass, so middleware
    accounting treats a miss like any missing node).  ``metadata`` is served
    for recorded nodes and for the boundary neighbors whose free profile
    summaries the dump captured — anything beyond that returns ``None``, as
    a replay cannot invent data the crawl never saw.
    """

    def __init__(
        self,
        records: Iterable[RawRecord],
        name: str = "replay",
        source: Optional[PathLike] = None,
        metadata: Optional[Dict[NodeId, Dict[str, Any]]] = None,
    ) -> None:
        self._records: Dict[NodeId, RawRecord] = {}
        for record in records:
            self._records[record.node] = record
        #: Free profile summaries of boundary neighbors (never fetched).
        self._metadata: Dict[NodeId, Dict[str, Any]] = dict(metadata) if metadata else {}
        self.name = name
        self.source = Path(source) if source is not None else None

    @classmethod
    def from_dump(cls, path: PathLike) -> "ReplayBackend":
        """Load a dump written by :func:`dump_crawl` (alias of :func:`load_crawl`)."""
        return load_crawl(path)

    def fetch(self, node: NodeId) -> RawRecord:
        try:
            record = self._records[node]
        except KeyError:
            raise ReplayMissError(node, source=self.source) from None
        # A copy of the attributes: the recorded dict stays the replay's own.
        return RawRecord(record.node, record.neighbors, dict(record.attributes))

    def contains(self, node: NodeId) -> bool:
        return node in self._records

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        record = self._records.get(node)
        if record is not None:
            return {"degree": record.degree, "attributes": dict(record.attributes)}
        peeked = self._metadata.get(node)
        if peeked is not None:
            return {
                "degree": peeked.get("degree"),
                "attributes": dict(peeked.get("attributes", {})),
            }
        return None

    def node_ids(self) -> List[NodeId]:
        return list(self._records)

    @property
    def recorded_start(self) -> Optional[NodeId]:
        """The first fetched node of the recorded crawl (``None`` when empty).

        Dumps preserve first-query order, so restarting a walk here replays
        the recording; the graph server publishes it in ``GET /info`` so a
        remote client can restart without downloading the whole id table.
        """
        return next(iter(self._records), None)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        origin = f", source={str(self.source)!r}" if self.source is not None else ""
        return f"ReplayBackend(name={self.name!r}, records={len(self)}{origin})"


def _resolve_source(source) -> Tuple[GraphBackend, Optional[List[NodeId]]]:
    """Split ``source`` into (innermost backend, traced node order or None)."""
    backend = getattr(source, "backend", None)
    if isinstance(backend, GraphBackend):
        # An API stack: attribute delegation surfaces the innermost backend,
        # and (when a trace layer is present) the recorded query stream.
        trace = getattr(source, "trace", None)
        queried = getattr(trace, "queried_nodes", None)
        if queried is not None:
            return backend, list(dict.fromkeys(queried))
        return backend, None
    return as_backend(source), None


def dump_crawl(
    source,
    path: PathLike,
    nodes: Optional[Iterable[NodeId]] = None,
    name: Optional[str] = None,
) -> Path:
    """Write a JSONL crawl dump of ``source`` and return its path.

    ``source`` may be a traced API stack (the dump then covers every node the
    trace saw queried, in first-query order — the canonical "record this run"
    flow), or any :class:`~repro.graphs.graph.Graph` / backend combined with
    an explicit ``nodes`` iterable (e.g. ``backend.node_ids()`` for a full
    dump).  Records are re-read straight from the innermost backend, so
    dumping never touches budgets, caches or counters.
    """
    backend, traced = _resolve_source(source)
    if nodes is None:
        nodes = traced
        if nodes is None:
            raise ValueError(
                "dump_crawl needs either an explicit nodes iterable or a "
                "traced API stack (build_api(..., trace=True)) to know which "
                "neighborhoods the crawl fetched"
            )
    order = list(dict.fromkeys(nodes))
    records = [backend.fetch(node) for node in order]

    def encode(line: Dict[str, Any], what: str) -> str:
        # Encode once, validating as we go: anything JSON would silently
        # degrade (tuple ids -> lists, non-native attribute values) is
        # rejected before the file is touched.
        try:
            encoded = json.dumps(line)
            if json.loads(encoded) == line:
                return encoded
        except (TypeError, ValueError):
            pass
        raise CrawlDumpError(
            f"{what} is not JSON-representable; crawl dumps require node ids "
            f"and attribute values that survive a JSON round trip"
        )

    encoded_lines: List[str] = []
    for record in records:
        # record_to_wire is the single source of the record schema: the HTTP
        # graph service serves the same objects, so dump and wire formats
        # cannot drift apart.
        line = record_to_wire(record)
        encoded_lines.append(encode(line, f"record for node {format_node_id(record.node)}"))
    # Boundary neighbors: nodes the crawl saw listed but never fetched.
    # Samplers consult their free profile summaries through peek_metadata
    # (MHRW degrees, GNRW grouping), so the dump must carry them for a
    # replay to reproduce the walk.
    fetched = set(order)
    meta_lines: List[str] = []
    for record in records:
        for neighbor in record.neighbors:
            if neighbor in fetched:
                continue
            fetched.add(neighbor)  # emit each boundary node once
            summary = backend.metadata(neighbor)
            if summary is None:
                continue
            line = {"meta": neighbor, "degree": summary.get("degree")}
            if summary.get("attributes"):
                line["attributes"] = summary["attributes"]
            meta_lines.append(encode(line, f"metadata of node {neighbor!r}"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": DUMP_FORMAT,
        "version": DUMP_VERSION,
        "name": name or getattr(backend, "name", "crawl"),
        "records": len(records),
        "meta": len(meta_lines),
    }
    with open_text(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for encoded in encoded_lines:
            handle.write(encoded + "\n")
        for encoded in meta_lines:
            handle.write(encoded + "\n")
    return path


def load_crawl(path: PathLike) -> ReplayBackend:
    """Load a crawl dump written by :func:`dump_crawl` as a :class:`ReplayBackend`."""
    path = Path(path)
    if not path.is_file():
        raise CrawlDumpError(f"no crawl dump at {path}")
    with open_text(path, "r") as handle:
        try:
            header = json.loads(handle.readline())
        except (ValueError, UnicodeDecodeError, OSError, EOFError) as exc:
            raise CrawlDumpError(f"{path} is not a crawl dump: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != DUMP_FORMAT:
            raise CrawlDumpError(
                f"{path} is not a {DUMP_FORMAT} dump "
                f"(header format={header.get('format') if isinstance(header, dict) else header!r})"
            )
        if header.get("version") != DUMP_VERSION:
            raise CrawlDumpError(
                f"crawl dump {path} has version {header.get('version')!r}; "
                f"this build reads version {DUMP_VERSION}"
            )
        records: List[RawRecord] = []
        metadata: Dict[NodeId, Dict[str, Any]] = {}
        try:
            for line_number, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if "meta" in entry:
                        metadata[entry["meta"]] = {
                            "degree": entry.get("degree"),
                            "attributes": dict(entry.get("attributes", {})),
                        }
                    else:
                        records.append(record_from_wire(entry))
                except (ValueError, KeyError, TypeError, RemoteBackendError) as exc:
                    raise CrawlDumpError(
                        f"{path} line {line_number}: bad record: {exc}"
                    ) from exc
        except (EOFError, OSError) as exc:
            # A gzip stream cut off mid-file surfaces while iterating lines,
            # not at open time.
            raise CrawlDumpError(f"crawl dump {path} is truncated or unreadable: {exc}") from exc
    for label, expected, found in (
        ("records", header.get("records"), len(records)),
        ("meta entries", header.get("meta"), len(metadata)),
    ):
        if expected is not None and expected != found:
            raise CrawlDumpError(
                f"crawl dump {path} is truncated: header promises {expected} "
                f"{label}, found {found}"
            )
    return ReplayBackend(
        records,
        name=f"replay:{header.get('name', path.stem)}",
        source=path,
        metadata=metadata,
    )
