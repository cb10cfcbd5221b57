"""Span tracing by wrapping the program's functions where they are looked up.

``services`` and ``engine`` import their callees by name, so each wrapper
replaces the name in the module or class that does the lookup (for example
``services.evaluate_tuple`` or ``engine.group_pow``). A span records its id,
its parent's id, its name, start and end in nanoseconds and the query id that
was current when it started. Spans stay in memory; ``Tracer.dump`` writes them
out when the run ends, and ``layer_metrics`` derives per-layer numbers and
self times from them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from array import array

import numpy as np

FIELDS = 6  # sid, parent, name, t0, t1, qid


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    from privgendb import crypto, encoding, engine, index, services, wire

    return [
        (encoding, "parse_gdb", "encoding.parse_gdb"),
        (services, "parse_query", "encoding.parse_query"),
        (services, "encode_query", "encoding.encode_query"),
        (index, "build_inverted_index", "index.build_inverted_index"),
        (index, "build_egdb", "index.build_egdb"),
        (index, "serialize_egdb", "index.serialize_egdb"),
        (index, "load_egdb", "index.load_egdb"),
        (index.TSet, "retrieve", "index.retrieve"),
        (index.BloomFilter, "__contains__", "index.bloom_probe"),
        (index.BloomFilter, "insert_many", "index.bloom_insert"),
        (services, "parse_tuple", "index.parse_tuple"),
        (engine, "group_pow", "crypto.group_pow"),
        (crypto.GroupElement, "decode", "crypto.element_decode"),
        (crypto.GroupElement, "encode", "crypto.element_encode"),
        (engine, "base_pow", "crypto.base_pow"),
        (index, "base_pow", "crypto.base_pow"),
        (engine, "prf_fp", "crypto.prf_fp"),
        (index, "prf_fp", "crypto.prf_fp"),
        (engine, "prf_f", "crypto.prf_f"),
        (index, "prf_f", "crypto.prf_f"),
        (engine, "sym_decrypt", "crypto.sym_decrypt"),
        (services, "generate_token", "engine.generate_token"),
        (services, "evaluate_tuple", "engine.evaluate_tuple"),
        (services, "decrypt_ids", "engine.decrypt_ids"),
        (wire, "encode_frame", "wire.encode_frame"),
        (services, "b64e", "wire.b64e"),
        (services, "b64d", "wire.b64d"),
        (services, "read_frame", "wire.read_frame"),
        (services, "execute_search", "services.execute_search"),
        (services, "submit_query", "services.client_query"),
        (services._VetterHandler, "handle", "services.vetter_conn"),
        (services._VetterHandler, "_query", "services.vetter_query"),
        (services._DataHandler, "handle", "services.server_conn"),
        (services._DataHandler, "_init", "services.server_init"),
        (services._DataHandler, "_tokens", "services.server_tokens"),
    ]


class _Top(threading.local):
    sid = 0  # innermost open span of this thread; 0 = none


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.rows = array("q")
        self.qid = 0  # 0 while setting up, then the current query's number
        self.tuples_retrieved = 0
        self._ids = itertools.count(1)
        self._top = _Top()
        self._undo: list = []
        self.missing: list = []

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name(name)
        top, ids, extend, clock, tracer = self._top, self._ids, self.rows.extend, \
            time.perf_counter_ns, self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = top.sid
            qid = tracer.qid
            top.sid = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                top.sid = parent
                extend((sid, parent, nid, t0, t1, qid))  # one C call: atomic

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from privgendb import wire

        for owner, attr, name in _targets():
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            elif attr == "retrieve":
                new = self._counting_retrieve(self.wrap(raw, name))
            else:
                new = self.wrap(raw, name)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        # read_frame looks up json.loads in the wire module: trace the decode alone
        real_json = wire.json
        shim = types.SimpleNamespace(loads=self.wrap(real_json.loads, "wire.json_decode"),
                                     dumps=real_json.dumps,
                                     JSONDecodeError=real_json.JSONDecodeError)
        wire.json = shim
        self._undo.append((wire, "json", real_json))

    def _counting_retrieve(self, traced):
        tracer = self

        def retrieve(tset, stag):
            out = traced(tset, stag)
            tracer.tuples_retrieved += len(out)
            return out

        return retrieve

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, FIELDS).copy()

    def dump(self, path: str, extra: dict):
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 meta=np.array(json.dumps(extra)))


def parent_rows(spans: np.ndarray) -> np.ndarray:
    """Row index of each span's parent, or -1 for a root span."""
    sid, parent = spans[:, 0], spans[:, 1]
    order = np.argsort(sid)
    pos = np.minimum(np.searchsorted(sid[order], parent), max(len(sid) - 1, 0))
    found = (parent != 0) & (sid[order][pos] == parent)
    return np.where(found, order[pos], -1)


def self_times(spans: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    dur = spans[:, 4] - spans[:, 3]
    child = np.zeros(len(spans), dtype=np.int64)
    has = parents >= 0
    np.add.at(child, parents[has], dur[has])
    return dur - child


WAIT_SPANS = ("wire.read_frame", "services.vetter_conn", "services.server_conn")
LAYERS = ("encoding", "index", "crypto", "engine", "wire", "services")


def layer_metrics(tracer: Tracer, entries: int, queries: int, client_ms_total: float) -> dict:
    """Per-layer numbers from the spans: set-up totals and per-query means."""
    spans = tracer.table()
    names = np.array(tracer.names)
    name = names[spans[:, 2]]
    parents = parent_rows(spans)
    parent_name = np.where(parents >= 0, name[parents], "")
    dur_ms = (spans[:, 4] - spans[:, 3]) / 1e6
    self_ms = self_times(spans, parents) / 1e6
    setup = spans[:, 5] == 0
    query = ~setup

    def calls(n, mask=query):
        return int(np.count_nonzero(mask & (name == n)))

    def total(n, mask=query, of=dur_ms):
        return float(of[mask & (name == n)].sum())

    q = max(queries, 1)
    m = {
        "encoding.parse_gdb_s": total("encoding.parse_gdb", setup) / 1e3,
        "index.build_egdb_us_per_entry": total("index.build_egdb", setup) * 1e3 / entries,
        "index.serialize_egdb_s": total("index.serialize_egdb", setup) / 1e3,
        "index.load_egdb_s": total("index.load_egdb", setup) / 1e3,
        "index.retrieve_ms": total("index.retrieve") / q,
        "index.tuples_retrieved": tracer.tuples_retrieved / q,
        "index.bloom_probes": calls("index.bloom_probe") / q,
        "index.bloom_probe_ms": total("index.bloom_probe") / q,
        "crypto.group_pow_calls": calls("crypto.group_pow") / q,
        "crypto.group_pow_ms": total("crypto.group_pow") / q,
        "crypto.group_pow_share": total("crypto.group_pow") / max(client_ms_total, 1e-9),
        "crypto.element_decode_calls": calls("crypto.element_decode") / q,
        "crypto.element_decode_ms": total("crypto.element_decode") / q,
        "crypto.base_pow_calls": calls("crypto.base_pow", setup),
        "crypto.base_pow_ms": total("crypto.base_pow", setup),
        "crypto.prf_fp_calls": calls("crypto.prf_fp") / q,
        "crypto.sym_decrypt_calls": calls("crypto.sym_decrypt") / q,
        "engine.generate_token_ms": total("engine.generate_token") / q,
        "engine.evaluate_tuple_calls": calls("engine.evaluate_tuple") / q,
        "engine.evaluate_tuple_self_ms": total("engine.evaluate_tuple", of=self_ms) / q,
        "engine.token_use_ratio": (calls("crypto.group_pow")
                                   / max(calls("crypto.element_decode"), 1)),
        "engine.decrypt_ids_ms": total("engine.decrypt_ids") / q,
        "wire.frames_per_query": calls("wire.encode_frame") / q,
        "wire.encode_ms": (total("wire.encode_frame") + total("wire.b64e")) / q,
        "wire.decode_ms": (total("wire.json_decode") + total("wire.b64d")) / q,
        "services.connections_per_query": (calls("services.vetter_conn")
                                           + calls("services.server_conn")) / q,
        "services.vetter_self_ms": (total("services.vetter_query", of=self_ms)
                                    + total("services.execute_search", of=self_ms)) / q,
        "services.vetter_upstream_ms": float(
            self_ms[query & (name == "wire.read_frame")
                    & (parent_name == "services.execute_search")].sum()) / q,
        "services.server_init_ms": total("services.server_init") / q,
        "services.server_tokens_ms": total("services.server_tokens") / q,
    }
    busy = query & ~np.isin(name, WAIT_SPANS)
    for layer in LAYERS:
        in_layer = busy & np.char.startswith(name, layer + ".")
        m[f"{layer}.self_ms"] = float(self_ms[in_layer].sum()) / q
    return m
