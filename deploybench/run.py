#!/usr/bin/env python3
"""Benchmark of the three-role deployment: client -> vetter -> data server.

Run from the repository root:

    python3 deploybench/run.py --workload phenotype-scan --seed 1 --seconds 10 --trace 0

``--trace 0`` builds and starts the deployment from the CLI several times and
after each set-up runs a closed loop of one client for its share of
``--seconds``, then prints the end-to-end metrics. ``--trace 1`` builds in
this process with every layer boundary wrapped. It runs the same queries
against the CLI deployment, for the CPU each role's process spends, then
against a data server and vetter hosted in this process, first untraced and
then traced, and prints the per-layer metrics. Every answer is checked against the benchmark's own oracle. The last
line of standard output is one JSON object; progress goes to standard error.
See deploybench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
ROOT = os.getcwd()  # the repository root; the program is imported from ROOT/src
sys.path.insert(0, BENCH_DIR)

from cohort import POLICY_TEXT, expected_reply, oracle_self_test, workload  # noqa: E402
from deploy import DeployError, Deployment, cpu_seconds, fresh_dir, rss_mb  # noqa: E402

# Deployments per untraced run; the set-up metrics are their medians. Each
# cycle also runs a share of the queries, so the cycles spread the query
# samples over about 45-55 s of machine time per run. A patient-match build
# takes about 20 s, so two cycles already span that.
CYCLES = {"phenotype-scan": 4, "patient-match": 2}
QUERY_TYPES = ("count", "boolean", "match")


def log(msg: str) -> None:
    print(f"[deploybench] {msg}", file=sys.stderr, flush=True)


@dataclass
class Phase:
    latencies: dict = field(default_factory=lambda: {t: [] for t in QUERY_TYPES})
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    failures: list = field(default_factory=list)

    def merge(self, other: "Phase") -> None:
        for t in QUERY_TYPES:
            self.latencies[t] += other.latencies[t]
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.failures += other.failures

    def all_latencies(self) -> list:
        return [x for t in QUERY_TYPES for x in self.latencies[t]]


def check_reply(mtype: int, body: dict, expected) -> bool:
    from privgendb.wire import MSG_ANSWER, MSG_DENIED

    kind, value = expected
    if kind == "denied":
        return mtype == MSG_DENIED and body.get("reason") == value
    if mtype != MSG_ANSWER:
        return False
    return body.get("count" if isinstance(value, int) else "ids") == value


def run_rounds(addr, queries, expected, seconds: float, before_query=None) -> Phase:
    """Closed loop, one client: whole rounds of the query list until time is up."""
    from privgendb import services

    phase = Phase()
    start = time.perf_counter()
    while True:
        for q, exp in zip(queries, expected):
            if before_query is not None:
                before_query()
            t0 = time.perf_counter()
            try:
                mtype, body = services.submit_query(addr, q.user, q.qtype, q.where, q.k_prime)
                ok = check_reply(mtype, body, exp)
            except (OSError, services.ServiceError) as exc:
                mtype, body, ok = None, {"exception": repr(exc)}, False
            dt = time.perf_counter() - t0
            phase.attempted += 1
            if ok:
                phase.latencies[q.qtype].append(dt)
            else:
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append((q.qtype, q.where, exp, mtype, body))
        if time.perf_counter() - start >= seconds:
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def egdb_entry_count(path: str) -> int:
    """Entry count from the .egdb header (version-1 layout, else the program's loader)."""
    with open(path, "rb") as fh:
        head = fh.read(20)
        if head[:8] == b"PGDBEDB1" and struct.unpack_from("<H", head, 8)[0] == 1:
            m = struct.unpack_from("<Q", head, 11)[0]
            fh.seek(20 + (m + 7) // 8)
            return struct.unpack("<Q", fh.read(8))[0]
    from privgendb.index import load_egdb

    return load_egdb(path).params.n_entries


def median_ms(xs) -> float:
    return statistics.median(xs) * 1e3 if xs else 0.0  # 0 only when every query failed


def mean_ms(xs) -> float:
    return statistics.fmean(xs) * 1e3 if xs else 0.0


# --- untraced: the CLI deployment ------------------------------------------------------

def untraced_run(args, work, cohort, queries, expected) -> "tuple[dict, Phase, bool]":
    """Cycles of set-up, each followed by its share of --seconds of queries.

    Spreading the query samples over the whole run, between the set-ups,
    averages out slow drifts in the machine's speed better than one block.
    """
    csv_path, policy_path = write_inputs(work, cohort)
    entries = cohort.entry_count()
    setups, starts, rsss = [], [], []
    total = Phase()
    upstream = 0
    ok = True
    cycles = CYCLES[args.workload]
    for i in range(cycles):
        dep = Deployment(ROOT, work, csv_path, policy_path, args.seed)
        try:
            build_s = dep.build()
            starts.append(dep.start_server())
            setups.append(build_s + starts[-1] + dep.start_vetter())
            rsss.append(rss_mb(dep.server.pid))
            if i == 0:
                header_entries = egdb_entry_count(dep.egdb)
                if header_entries != entries:
                    log(f"FAIL: .egdb header has {header_entries} entries, rows give {entries}")
                    ok = False
                egdb_bytes = os.path.getsize(dep.egdb)
            run_rounds(dep.vetter_addr, queries[:1], expected[:1], 0)  # warm-up, not counted
            phase = Phase()
            bytes0 = dep.relay.bytes
            while phase.wall_s < args.seconds / cycles:
                phase.merge(run_rounds(dep.vetter_addr, queries, expected, 0))  # one round
                # Between rounds the deployment is idle: time one more server
                # start. Start-up is fixed work, so server_start_s is the
                # fastest of these; the minimum drops the starts that hit a
                # slow stretch of the machine, which move a median by up to 40%.
                starts.append(dep.sample_server_start())
            upstream += dep.relay.bytes - bytes0
        finally:
            dep.stop()
        total.merge(phase)
        log(f"cycle {i + 1}: set-up {setups[-1]:.2f} s, fastest server start "
            f"{min(starts):.3f} s, server rss {rsss[-1]:.1f} MB, "
            f"{phase.attempted} queries in {phase.wall_s:.1f} s")
    answered = total.attempted - total.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "server_start_s": min(starts),
        "server_rss_mb": statistics.median(rsss),
        "egdb_bytes_per_entry": egdb_bytes / entries,
        "count_ms": median_ms(total.latencies["count"]),
        "boolean_ms": median_ms(total.latencies["boolean"]),
        "match_ms": median_ms(total.latencies["match"]),
        "queries_per_s": answered / total.wall_s,
        "upstream_kb_per_query": upstream / 1e3 / total.attempted,
    }
    return metrics, total, ok


def write_inputs(work, cohort) -> "tuple[str, str]":
    csv_path = os.path.join(work, "cohort.csv")
    policy_path = os.path.join(work, "policy.txt")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(cohort.csv_text())
    with open(policy_path, "w", encoding="utf-8") as fh:
        fh.write(POLICY_TEXT)
    return csv_path, policy_path


# --- traced: per-layer numbers -----------------------------------------------------------

def traced_run(args, work, cohort, queries, expected) -> "tuple[dict, list, bool]":
    from privgendb import crypto, encoding, engine, index, services

    from spans import Tracer, layer_metrics

    raw_load = index.load_egdb
    csv_path, policy_path = write_inputs(work, cohort)
    entries = cohort.entry_count()
    ok = True
    tracer = Tracer()
    dep = Deployment(ROOT, work, csv_path, policy_path, args.seed)

    # set-up, traced: the same steps as `privgendb build`, then a load
    tracer.install()
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            gdb = encoding.parse_gdb(fh)
        rng = crypto.SeededRng(args.seed)
        keys = crypto.keygen(rng=rng)
        crypto.save_keys(keys, dep.keys)
        egdb = index.build_egdb(keys, index.build_inverted_index(gdb), rng)
        with open(dep.egdb, "wb") as fh:
            index.serialize_egdb(egdb, fh)
        del egdb, gdb
        egdb = index.load_egdb(dep.egdb)
    finally:
        tracer.uninstall()
    if egdb.params.n_entries != entries:
        log(f"FAIL: loaded index has {egdb.params.n_entries} entries, rows give {entries}")
        ok = False
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    heap_egdb = raw_load(dep.egdb)
    load_heap_mb = (tracemalloc.get_traced_memory()[0] - base) / 2**20
    tracemalloc.stop()
    del heap_egdb

    # untraced, on the CLI deployment: CPU per query of each role's process
    try:
        dep.start_server()
        dep.start_vetter()
        run_rounds(dep.vetter_addr, queries[:1], expected[:1], 0)
        cpu0 = cpu_seconds(dep.server.pid), cpu_seconds(dep.vetter.pid)
        cli = run_rounds(dep.vetter_addr, queries, expected, args.seconds)
        cpu1 = cpu_seconds(dep.server.pid), cpu_seconds(dep.vetter.pid)
    finally:
        dep.stop()

    # in this process: the same queries untraced, then traced
    policy = engine.parse_policy(POLICY_TEXT)
    data = services.DataServer(("127.0.0.1", 0), egdb)
    vetter = services.Vetter(("127.0.0.1", 0), keys, policy, data.server_address,
                             audit_path=os.path.join(work, "audit-inprocess.log"))
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in (data, vetter)]
    for t in threads:
        t.start()
    try:
        addr = vetter.server_address
        run_rounds(addr, queries[:1], expected[:1], 0)
        plain = run_rounds(addr, queries, expected, args.seconds)

        def next_query():
            tracer.qid += 1

        tracer.install()
        try:
            traced = run_rounds(addr, queries, expected, args.seconds, before_query=next_query)
        finally:
            tracer.uninstall()
    finally:
        for s in (vetter, data):
            s.shutdown()
            s.server_close()
        for t in threads:
            t.join(timeout=10)

    plain_mean = mean_ms(plain.all_latencies())
    traced_mean = mean_ms(traced.all_latencies())
    metrics = layer_metrics(tracer, entries, traced.attempted,
                            sum(traced.all_latencies()) * 1e3)
    metrics.update({
        "index.load_heap_mb": load_heap_mb,
        "services.server_cpu_ms_per_query": (cpu1[0] - cpu0[0]) * 1e3 / cli.attempted,
        "services.vetter_cpu_ms_per_query": (cpu1[1] - cpu0[1]) * 1e3 / cli.attempted,
        "trace.untraced_query_ms": plain_mean,
        "trace.traced_query_ms": traced_mean,
        "trace.overhead_pct": 100.0 * (traced_mean / plain_mean - 1.0) if plain_mean else 0.0,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"),
                {"workload": args.workload, "seed": args.seed, "missing": tracer.missing})
    if tracer.missing:
        log(f"not traced (names not found): {', '.join(tracer.missing)}")
    return metrics, [cli, plain, traced], ok


# --- entry point -------------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("phenotype-scan", "patient-match"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, _terminate)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "privgendb")):
        log(f"no program to measure: {src}/privgendb is missing; run from the repository root")
        return 2
    sys.path.insert(0, src)
    from privgendb.fixtures import DEMO_COHORT_CSV

    units = declared_metrics(bool(args.trace))
    if not oracle_self_test(DEMO_COHORT_CSV):
        log("FAIL: oracle does not reproduce the fixture's golden answers")
        return 2
    cohort, queries = workload(args.workload, args.seed)
    expected = [expected_reply(cohort.rows, q) for q in queries]
    work = fresh_dir(os.path.join(BENCH_DIR, "work", args.workload))
    log(f"{args.workload} seed {args.seed}: {len(cohort.rows)} records, "
        f"{cohort.entry_count()} entries, {len(queries)} queries per round")
    try:
        if args.trace:
            metrics, phases, ok = traced_run(args, work, cohort, queries, expected)
        else:
            metrics, phase, ok = untraced_run(args, work, cohort, queries, expected)
            phases = [phase]
    except DeployError as exc:
        log(f"deployment failed: {exc}")
        return 2
    for phase in phases:
        for failure in phase.failures:
            log(f"FAILED {failure}")
    if set(metrics) != set(units):
        log(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        return 2
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
