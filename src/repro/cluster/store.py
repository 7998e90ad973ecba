"""SQLite-backed durable store: model blobs, results, and a request journal.

One :class:`DurableStore` per shard directory, holding three tables in
``store.db``:

* ``models`` — artifact blobs (:func:`repro.engine.artifacts.dump_imputer_bytes`)
  plus method name and fast-path table metadata, the persistence layer
  behind the shard's LRU model cache (:class:`SQLiteBackend` adapts it to
  the :class:`~repro.api.service.ModelStore` backend protocol);
* ``results`` — one row per completed request, keyed by ``request_id``.
  This primary key is the **exactly-once ledger**: committing a result is
  an idempotent upsert, so replays and client resends can never produce a
  second answer for the same request;
* ``journal`` — an append-only log of every request admission and result
  commit, with monotone sequence numbers.

The journal is written twice: a line of ``journal.jsonl`` (written
before the SQLite transaction commits) and a table row.  The *file* is the
recovery authority — :meth:`DurableStore.ingest_journal` replays it into
the tables on every open, idempotently by ``seq``, healing rows a SIGKILL
separated from their transaction.  A torn final line (a kill can interrupt
only the final write) is dropped, counted and cut from the file, so the
next append starts a line of its own; torn *interior* records mean real
corruption and raise.

Writes come in groups (:meth:`DurableStore.group`): the shard journals a
serve RPC's requests with one ``O_APPEND`` write and one commit, and its
results and failures with one more of each.  Each payload is kept twice,
once in the file and once in SQLite: a request's in its ``journal`` row,
a result's in its ``results`` row (its ``journal`` row keeps only the
stamps the analytics read).

The journal *table* exists so telemetry is one query away: SQL window
functions compute p99-over-time, per-model QPS and fusion-rate trends
straight from the log (:meth:`DurableStore.analytics`), and
:func:`cluster_analytics` runs the same queries over every shard's journal
at once via ``ATTACH``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.lockcheck import checked_rlock, guarded_by
from repro.baselines.base import BaseImputer
from repro.engine.artifacts import dump_imputer_bytes, load_imputer_bytes
from repro.engine.cache import append_record_line

__all__ = ["DurableStore", "SQLiteBackend", "cluster_analytics"]

DB_FILENAME = "store.db"
JOURNAL_FILENAME = "journal.jsonl"

#: a model's recent fusion rate this far below its lifetime rate flags a
#: regression in the analytics report
FUSION_REGRESSION_MARGIN = 0.1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS models (
    model_id   TEXT PRIMARY KEY,
    method     TEXT,
    artifact   BLOB NOT NULL,
    fast_path  TEXT,
    nbytes     INTEGER,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    request_id      TEXT PRIMARY KEY,
    seq             INTEGER,
    model_id        TEXT NOT NULL,
    payload         TEXT NOT NULL,
    wall            REAL NOT NULL,
    latency_seconds REAL,
    fused           INTEGER,
    fast_path       INTEGER
);
CREATE TABLE IF NOT EXISTS journal (
    seq             INTEGER PRIMARY KEY,
    kind            TEXT NOT NULL,
    request_id      TEXT NOT NULL,
    model_id        TEXT NOT NULL,
    wall            REAL NOT NULL,
    latency_seconds REAL,
    fused           INTEGER,
    fast_path       INTEGER,
    payload         TEXT
);
"""

_INSERT_JOURNAL = (
    "INSERT OR IGNORE INTO journal "
    "(seq, kind, request_id, model_id, wall, latency_seconds, fused, "
    " fast_path, payload) VALUES (?,?,?,?,?,?,?,?,?)")
_INSERT_RESULT = (
    "INSERT OR IGNORE INTO results "
    "(request_id, seq, model_id, payload, wall, latency_seconds, fused, "
    " fast_path) VALUES (?,?,?,?,?,?,?,?)")


@guarded_by("_lock", "_seq", "_lines")
class DurableStore:
    """Durable shard state under one directory (``store.db`` + journal file).

    Thread-safe: one connection guarded by a lock (shard workers serve
    from a small accept-loop thread pool).  Safe to reopen after SIGKILL —
    the constructor replays the journal file into the tables and reports
    any torn trailing record via :attr:`truncated_records`.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.db_path = self.directory / DB_FILENAME
        self.journal_path = self.directory / JOURNAL_FILENAME
        self._lock = checked_rlock("DurableStore._lock")
        self._con = sqlite3.connect(str(self.db_path),
                                    check_same_thread=False)
        self._con.executescript(_SCHEMA)
        self._con.commit()
        #: journal lines of the open :meth:`group`; ``None`` outside one
        self._lines: Optional[List[str]] = None
        #: torn trailing journal records dropped during the last ingest
        self.truncated_records = 0
        #: rows healed into the tables from the journal file at open
        self.recovered_records = 0
        self.ingest_journal()
        self._seq = self._restore_seq()

    # ------------------------------------------------------------------ #
    # journal recovery
    # ------------------------------------------------------------------ #
    def _restore_seq(self) -> int:
        row = self._con.execute("SELECT MAX(seq) FROM journal").fetchone()
        return int(row[0] or 0)

    def ingest_journal(self) -> int:
        """Replay ``journal.jsonl`` into the tables, idempotently by seq.

        The file is written before its SQLite transaction commits, so
        after a SIGKILL the file can be ahead of the tables; this heals the
        gap.  Returns the number of rows actually inserted.  A torn final
        line is dropped (and counted in :attr:`truncated_records`) and its
        bytes are cut from the file, so the next append cannot land on the
        same line; a torn interior line raises :class:`ValueError` — that
        is corruption, not an interrupted write.
        """
        if not self.journal_path.exists():
            return 0
        lines = self.journal_path.read_bytes().split(b"\n")
        healed = 0
        with self._lock:
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if not any(rest.strip() for rest in lines[index + 1:]):
                        self.truncated_records += 1
                        os.truncate(self.journal_path, sum(
                            len(kept) + 1 for kept in lines[:index]))
                        break
                    raise ValueError(
                        f"corrupt journal record at line {index + 1} of "
                        f"{self.journal_path} (not the final line — this "
                        "is not a torn tail)")
                healed += self._heal_record(record)
            self._con.commit()
        self.recovered_records = healed
        return healed

    def _heal_record(self, record: Dict) -> int:
        """Insert one journal-file record into the tables if missing.

        A result's payload goes to its ``results`` row only.
        """
        payload = record.get("payload")
        text = json.dumps(payload) if payload is not None else None
        result = record["kind"] == "result"
        inserted = self._con.execute(_INSERT_JOURNAL, (
            record["seq"], record["kind"], record["request_id"],
            record["model_id"], record["wall"], record.get("latency_seconds"),
            record.get("fused"), record.get("fast_path"),
            None if result else text)).rowcount
        if result and text is not None:
            inserted += self._con.execute(_INSERT_RESULT, (
                record["request_id"], record["seq"], record["model_id"], text,
                record["wall"], record.get("latency_seconds"),
                record.get("fused"), record.get("fast_path"))).rowcount
        return int(inserted)

    @contextlib.contextmanager
    def group(self) -> Iterator[None]:
        """Make the journal writes inside one file write and one commit.

        :meth:`journal_request`, :meth:`commit_result` and
        :meth:`mark_failed` calls inside the block run their SQL in one
        open transaction and buffer their journal lines.  Leaving the
        block writes every line with one ``O_APPEND`` write (RL004: other
        writers' lines never land inside it), then commits.  The file
        still leads the tables, so recovery is unchanged: a kill before the
        write loses the whole group, and lines a kill left ahead of the
        commit heal into the tables on the next open.  The lines reach the
        OS, not the disk, before the commit: they survive a SIGKILL of this
        process (the crash mode the cluster bench injects), while a
        whole-host crash would need an fsync here — a trade documented,
        not silently taken.

        The lock is held throughout, so other threads' writes wait for the
        group.  An exception rolls the transaction back; sequence numbers
        already handed out are not reused.  Groups nest: the outermost one
        writes and commits.
        """
        with self._lock:
            if self._lines is not None:
                yield
                return
            self._lines = []
            try:
                yield
                if self._lines:
                    append_record_line(self.journal_path, *self._lines)
                self._con.commit()
            except BaseException:
                self._con.rollback()
                raise
            finally:
                self._lines = None

    # ------------------------------------------------------------------ #
    # request journal + exactly-once results
    # ------------------------------------------------------------------ #
    def journal_request(self, request_id: str, model_id: str,
                        payload: Dict) -> int:
        """Record an admitted request before serving it; returns its seq.

        The journal line hits the file before the table commit, so a shard
        killed mid-serve still knows, on restart, which requests it owes
        answers to (:meth:`pending_requests`).
        """
        with self.group():
            self._seq += 1
            seq = self._seq
            record = {"seq": seq, "kind": "request",
                      "request_id": request_id, "model_id": model_id,
                      # journal stamps are wall-clock on purpose: the SQL
                      # analytics bucket over real time, across restarts
                      "wall": time.time(),  # repro-lint: allow[wall-clock]
                      "payload": payload}
            self._lines.append(json.dumps(record))
            self._heal_record(record)
            return seq

    def commit_result(self, request_id: str, model_id: str, payload: Dict,
                      latency_seconds: Optional[float] = None,
                      fused: bool = False, fast_path: bool = False) -> bool:
        """Idempotently commit a served result; True iff newly inserted.

        The ``results`` primary key is the exactly-once ledger: the first
        commit wins, every later commit of the same ``request_id`` (replay
        after restart, client resend after a router retry) is a no-op that
        returns False — callers then serve the stored answer instead
        (:meth:`get_result`).
        """
        with self.group():
            seq = self._seq + 1
            wall = time.time()  # repro-lint: allow[wall-clock] (journal stamp)
            if not self._con.execute(_INSERT_RESULT, (
                    request_id, seq, model_id, json.dumps(payload), wall,
                    latency_seconds, int(fused), int(fast_path))).rowcount:
                return False
            self._seq = seq
            self._lines.append(json.dumps({
                "seq": seq, "kind": "result", "request_id": request_id,
                "model_id": model_id, "wall": wall,
                "latency_seconds": latency_seconds, "fused": int(fused),
                "fast_path": int(fast_path), "payload": payload}))
            self._con.execute(_INSERT_JOURNAL, (
                seq, "result", request_id, model_id, wall, latency_seconds,
                int(fused), int(fast_path), None))
            return True

    def mark_failed(self, request_id: str, model_id: str,
                    error: str) -> int:
        """Journal a request as failed so replay stops retrying it."""
        with self.group():
            self._seq += 1
            seq = self._seq
            record = {"seq": seq, "kind": "failed",
                      "request_id": request_id, "model_id": model_id,
                      "wall": time.time(),  # repro-lint: allow[wall-clock]
                      "payload": {"error": error}}
            self._lines.append(json.dumps(record))
            self._heal_record(record)
            return seq

    def get_result(self, request_id: str) -> Optional[Dict]:
        with self._lock:
            row = self._con.execute(
                "SELECT payload, latency_seconds, fused, fast_path "
                "FROM results WHERE request_id = ?",
                (request_id,)).fetchone()
        if row is None:
            return None
        payload = json.loads(row[0])
        payload["latency_seconds"] = row[1]
        payload["fused"] = bool(row[2])
        payload["fast_path"] = bool(row[3])
        return payload

    def pending_requests(self) -> List[Dict]:
        """Journaled requests with neither a result nor a failure record.

        These are the requests a killed shard owes answers to; replay
        serves them on restart (in admission order).
        """
        with self._lock:
            rows = self._con.execute(
                "SELECT j.seq, j.request_id, j.model_id, j.payload "
                "FROM journal j "
                "WHERE j.kind = 'request' "
                "  AND NOT EXISTS (SELECT 1 FROM results r "
                "                  WHERE r.request_id = j.request_id) "
                "  AND NOT EXISTS (SELECT 1 FROM journal f "
                "                  WHERE f.kind = 'failed' "
                "                    AND f.request_id = j.request_id) "
                "ORDER BY j.seq").fetchall()
        return [{"seq": seq, "request_id": request_id,
                 "model_id": model_id,
                 "payload": json.loads(payload) if payload else None}
                for seq, request_id, model_id, payload in rows]

    def journal_counts(self) -> Dict[str, int]:
        with self._lock:
            rows = self._con.execute(
                "SELECT kind, COUNT(*) FROM journal GROUP BY kind").fetchall()
        return {kind: int(count) for kind, count in rows}

    def result_count(self) -> int:
        with self._lock:
            row = self._con.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def result_ids(self) -> List[str]:
        with self._lock:
            rows = self._con.execute(
                "SELECT request_id FROM results ORDER BY seq").fetchall()
        return [request_id for (request_id,) in rows]

    # ------------------------------------------------------------------ #
    # model persistence
    # ------------------------------------------------------------------ #
    def put_model(self, model_id: str, imputer: BaseImputer,
                  method: Optional[str] = None) -> None:
        blob = dump_imputer_bytes(imputer)
        info_probe = getattr(imputer, "fast_path_info", None)
        fast_path = json.dumps(info_probe()) if callable(info_probe) else None
        nbytes_probe = getattr(imputer, "memory_nbytes", None)
        nbytes = int(nbytes_probe()) if callable(nbytes_probe) else None
        with self._lock:
            self._con.execute(
                "INSERT OR REPLACE INTO models "
                "(model_id, method, artifact, fast_path, nbytes, updated_at) "
                "VALUES (?,?,?,?,?,?)",
                (model_id, method, blob, fast_path, nbytes,
                 time.time()))  # repro-lint: allow[wall-clock] (updated_at)
            self._con.commit()

    def load_model(self, model_id: str) -> Optional[BaseImputer]:
        blob = self.get_model_blob(model_id)
        if blob is None:
            return None
        # Blobs were written by this process family, but they share a codec
        # with socket-shipped artifacts — keep the untrusted-class guard.
        return load_imputer_bytes(blob, trusted=False)

    def get_model_blob(self, model_id: str) -> Optional[bytes]:
        with self._lock:
            row = self._con.execute(
                "SELECT artifact FROM models WHERE model_id = ?",
                (model_id,)).fetchone()
        return bytes(row[0]) if row is not None else None

    def has_model(self, model_id: str) -> bool:
        with self._lock:
            row = self._con.execute(
                "SELECT 1 FROM models WHERE model_id = ?",
                (model_id,)).fetchone()
        return row is not None

    def delete_model(self, model_id: str) -> None:
        with self._lock:
            self._con.execute("DELETE FROM models WHERE model_id = ?",
                              (model_id,))
            self._con.commit()

    def list_models(self) -> List[str]:
        with self._lock:
            rows = self._con.execute(
                "SELECT model_id FROM models ORDER BY model_id").fetchall()
        return [model_id for (model_id,) in rows]

    def method_for(self, model_id: str) -> Optional[str]:
        with self._lock:
            row = self._con.execute(
                "SELECT method FROM models WHERE model_id = ?",
                (model_id,)).fetchone()
        return row[0] if row is not None else None

    def model_metadata(self) -> Dict[str, Dict]:
        """Per-model method/fast-path/size metadata (fast path parsed)."""
        with self._lock:
            rows = self._con.execute(
                "SELECT model_id, method, fast_path, nbytes, updated_at "
                "FROM models").fetchall()
        return {model_id: {
                    "method": method,
                    "fast_path": json.loads(fast_path) if fast_path else None,
                    "nbytes": nbytes,
                    "updated_at": updated_at,
                }
                for model_id, method, fast_path, nbytes, updated_at in rows}

    # ------------------------------------------------------------------ #
    # analytics
    # ------------------------------------------------------------------ #
    def analytics(self, bucket_seconds: float = 1.0) -> Dict[str, object]:
        """Window-function analytics over this shard's journal."""
        with self._lock:
            return run_analytics(self._con, "journal", bucket_seconds)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            self._con.close()


# ---------------------------------------------------------------------- #
# the ModelStore backend adapter
# ---------------------------------------------------------------------- #
class SQLiteBackend:
    """Adapts a :class:`DurableStore` to the ``ModelStore`` backend protocol.

    Slots in behind the existing LRU cache
    (``ModelStore(backend=SQLiteBackend(store), max_cached_models=N)``):
    hot models serve from memory, cold ones rehydrate from their SQLite
    blob, and eviction is safe because the blob persists.
    """

    def __init__(self, store: DurableStore) -> None:
        self.store = store

    def location(self, model_id: str) -> Optional[str]:
        # Blobs have no artifact directory, so there is no path to report
        # (ModelStore.path() reads None; refit provenance is not stamped).
        return None

    def save(self, model_id: str, imputer: BaseImputer,
             method: Optional[str] = None) -> None:
        self.store.put_model(model_id, imputer, method=method)

    def load(self, model_id: str) -> Optional[BaseImputer]:
        return self.store.load_model(model_id)

    def exists(self, model_id: str) -> bool:
        return self.store.has_model(model_id)

    def delete(self, model_id: str) -> None:
        self.store.delete_model(model_id)

    def list_ids(self) -> List[str]:
        return self.store.list_models()

    def method_for(self, model_id: str) -> Optional[str]:
        return self.store.method_for(model_id)


# ---------------------------------------------------------------------- #
# SQL window-function analytics (single shard and cluster-wide)
# ---------------------------------------------------------------------- #
def run_analytics(con: sqlite3.Connection, table: str,
                  bucket_seconds: float = 1.0) -> Dict[str, object]:
    """p99-over-time, per-model QPS and fusion trend from a journal table.

    Pure SQL window functions over the ``result`` records — the analytics
    run where the log lives, no Python aggregation pass:

    * **p99-over-time** — ``CUME_DIST() OVER (PARTITION BY bucket ORDER BY
      latency_seconds)``, then the smallest latency at or past the 0.99
      quantile per wall-clock bucket;
    * **per-model QPS** — ``COUNT(*) OVER (PARTITION BY model_id, bucket)``
      scaled by the bucket width;
    * **fusion trend** — a 20-request moving ``AVG(fused) OVER (... ROWS
      BETWEEN 19 PRECEDING AND CURRENT ROW)`` against the lifetime average;
      a model whose recent rate trails its lifetime rate by more than
      ``FUSION_REGRESSION_MARGIN`` is flagged ``regressed``.

    ``table`` must be a trusted identifier (a literal or a name this module
    built itself) — it is interpolated, not bound.
    """
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be > 0, got {bucket_seconds}")
    base = (f"SELECT * FROM {table} WHERE kind = 'result' "
            "AND latency_seconds IS NOT NULL")
    p99_rows = con.execute(
        f"""
        WITH completions AS (
            SELECT CAST((wall - (SELECT MIN(wall) FROM ({base}))) / ?
                        AS INTEGER) AS bucket,
                   latency_seconds
            FROM ({base})
        ), ranked AS (
            SELECT bucket, latency_seconds,
                   CUME_DIST() OVER (PARTITION BY bucket
                                     ORDER BY latency_seconds) AS cd
            FROM completions
        )
        SELECT bucket,
               MIN(CASE WHEN cd >= 0.99 THEN latency_seconds END) AS p99,
               COUNT(*) AS completions
        FROM ranked GROUP BY bucket ORDER BY bucket
        """, (bucket_seconds,)).fetchall()
    qps_rows = con.execute(
        f"""
        WITH completions AS (
            SELECT model_id,
                   CAST((wall - (SELECT MIN(wall) FROM ({base}))) / ?
                        AS INTEGER) AS bucket
            FROM ({base})
        )
        SELECT DISTINCT model_id, bucket,
               COUNT(*) OVER (PARTITION BY model_id, bucket) AS completions
        FROM completions ORDER BY model_id, bucket
        """, (bucket_seconds,)).fetchall()
    # Whole-journal rollup: the cluster-level MetricsSnapshot is built
    # from this row.  Aggregates over zero result rows come back NULL,
    # so every field is guarded — a freshly created cluster reports
    # zeros, not NaNs (the same cold-snapshot contract as the gateway).
    count, wall_min, wall_max, fused_avg, fast_avg = con.execute(
        f"SELECT COUNT(*), MIN(wall), MAX(wall), AVG(fused), "
        f"AVG(fast_path) FROM ({base})").fetchone()
    p50_all, p95_all, p99_all = con.execute(
        f"""
        WITH ranked AS (
            SELECT latency_seconds,
                   CUME_DIST() OVER (ORDER BY latency_seconds) AS cd
            FROM ({base})
        )
        SELECT MIN(CASE WHEN cd >= 0.50 THEN latency_seconds END),
               MIN(CASE WHEN cd >= 0.95 THEN latency_seconds END),
               MIN(CASE WHEN cd >= 0.99 THEN latency_seconds END)
        FROM ranked
        """).fetchone()
    span = (wall_max - wall_min) if count and wall_max is not None else 0.0
    overall = {
        "completions": int(count or 0),
        "duration_seconds": float(span),
        "qps": (count / span) if span > 0 else 0.0,
        "latency_p50_seconds": float(p50_all or 0.0),
        "latency_p95_seconds": float(p95_all or 0.0),
        "latency_p99_seconds": float(p99_all or 0.0),
        "fusion_rate": float(fused_avg or 0.0),
        "fast_path_hit_rate": float(fast_avg or 0.0),
    }
    fusion_rows = con.execute(
        f"""
        WITH flags AS (
            SELECT model_id, seq,
                   AVG(fused) OVER (PARTITION BY model_id ORDER BY seq
                                    ROWS BETWEEN 19 PRECEDING
                                             AND CURRENT ROW) AS recent,
                   AVG(fused) OVER (PARTITION BY model_id) AS lifetime,
                   ROW_NUMBER() OVER (PARTITION BY model_id
                                      ORDER BY seq DESC) AS rn
            FROM ({base.replace("latency_seconds IS NOT NULL",
                                "fused IS NOT NULL")})
        )
        SELECT model_id, recent, lifetime FROM flags
        WHERE rn = 1 ORDER BY model_id
        """).fetchall()
    return {
        "bucket_seconds": float(bucket_seconds),
        "overall": overall,
        "p99_over_time": [
            {"bucket": int(bucket), "p99_seconds": p99,
             "completions": int(count)}
            for bucket, p99, count in p99_rows],
        "per_model_qps": [
            {"model_id": model_id, "bucket": int(bucket),
             "qps": count / bucket_seconds}
            for model_id, bucket, count in qps_rows],
        "fusion_trend": [
            {"model_id": model_id,
             "recent_fusion_rate": recent,
             "lifetime_fusion_rate": lifetime,
             "regressed": bool(recent is not None and lifetime is not None
                               and recent
                               < lifetime - FUSION_REGRESSION_MARGIN)}
            for model_id, recent, lifetime in fusion_rows],
    }


def cluster_analytics(shard_db_paths: Sequence[Tuple[str, str]],
                      bucket_seconds: float = 1.0) -> Dict[str, object]:
    """Run :func:`run_analytics` over the union of every shard's journal.

    ``shard_db_paths`` is ``[(shard_name, path_to_store_db), ...]``; each
    database is ``ATTACH``-ed read-only and a temp view unions the journal
    tables with a ``shard`` column, so one set of window functions sees the
    whole cluster's log.
    """
    if not shard_db_paths:
        raise ValueError("cluster_analytics needs at least one shard db")
    con = sqlite3.connect(":memory:")
    try:
        selects = []
        for index, (name, path) in enumerate(shard_db_paths):
            alias = f"s{index}"
            con.execute(f"ATTACH DATABASE ? AS {alias}", (str(Path(path)),))
            # Shard names are router-generated identifiers ("shard-0"),
            # embedded as string literals with quotes escaped.
            safe_name = str(name).replace("'", "''")
            selects.append(
                "SELECT seq, kind, request_id, model_id, wall, "
                f"latency_seconds, fused, fast_path, '{safe_name}' AS shard "
                f"FROM {alias}.journal")
        con.execute("CREATE TEMP VIEW journal_all AS "
                    + " UNION ALL ".join(selects))
        report = run_analytics(con, "journal_all", bucket_seconds)
        report["shards"] = [name for name, _ in shard_db_paths]
        return report
    finally:
        con.close()
