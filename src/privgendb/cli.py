"""Command-line entry points: build, server, vetter, query."""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
import time

from . import __version__
from .crypto import SeededRng, SystemRng, keygen, load_keys, save_keys
from .encoding import GdbParseError, QueryError, parse_gdb, parse_query
from .index import (
    BloomFilter,
    CorruptIndexError,
    build_egdb,
    build_inverted_index,
    serialize_egdb,
)
from .services import ServiceError, parse_hostport, serve_data, serve_vetter, submit_query
from .wire import MSG_ANSWER, MSG_DENIED

log = logging.getLogger("privgendb.cli")


def _setup_logging():
    level_name = os.environ.get("PRIVGENDB_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _error(detail) -> int:
    print(f"error: {detail}", file=sys.stderr)
    return 2


def _cmd_build(args) -> int:
    rng = SeededRng(args.seed) if args.seed is not None else SystemRng()
    # the cohort is read first, so a bad input leaves no key file behind
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            gdb = parse_gdb(fh)
    except GdbParseError as exc:
        return _error(f"{args.input}: {exc}")
    except OSError as exc:
        return _error(exc)
    try:
        new_keys = not os.path.exists(args.keys)
        if new_keys:
            keys = keygen(rng=rng)
        else:
            keys = load_keys(args.keys)
            log.info("loaded existing keys from %s", args.keys)
    except OSError as exc:
        return _error(exc)
    except ValueError as exc:
        return _error(f"{args.keys}: {exc}")
    t0 = time.perf_counter()
    iinx = build_inverted_index(gdb)
    egdb = build_egdb(keys, iinx, rng, p_fp=args.fp)
    # The database goes to a temporary file beside its target and replaces the
    # target only after new keys are saved. A failure at any step removes
    # what this build wrote: no new key file without its database, no partial
    # database, and a previous database left as it was. A data server maps
    # its file, so rewriting that file in place would change its table under it.
    tmp = f"{args.egdb}.{os.getpid()}.tmp"
    written = []
    try:
        with open(tmp, "xb") as fh:
            written.append(tmp)
            size = serialize_egdb(egdb, fh)
        if new_keys:
            written.append(args.keys)
            save_keys(keys, args.keys)
        os.replace(tmp, args.egdb)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        return _error(exc)
    if new_keys:
        print(f"generated new keys -> {args.keys}")
    elapsed = time.perf_counter() - t0
    print(
        f"built {args.egdb}: {len(gdb.records)} records, {len(iinx)} keywords, "
        f"{egdb.params.n_entries} entries, {size} bytes, {elapsed:.2f}s"
    )
    return 0


def _cmd_server(args) -> int:
    try:
        serve_data(args.egdb, args.listen)
    except CorruptIndexError as exc:
        return _error(f"{args.egdb}: {exc}")
    except OSError as exc:
        # a file error names its path; a socket error (address in use) does not
        return _error(exc if exc.filename else f"{args.listen}: {exc}")
    except ValueError as exc:
        return _error(exc)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_vetter(args) -> int:
    try:
        serve_vetter(args.keys, args.policy, args.server, args.listen, args.audit)
    except (OSError, ValueError) as exc:
        return _error(exc)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args) -> int:
    try:
        mtype, body = submit_query(
            parse_hostport(args.vetter), args.user, args.type, args.where, args.kprime
        )
    except (OSError, ServiceError, ValueError) as exc:
        return _error(exc)
    if mtype == MSG_DENIED:
        print(f"denied: {body.get('reason')}: {body.get('detail')}", file=sys.stderr)
        return 3
    if mtype != MSG_ANSWER:
        return _error(body.get("error", "unexpected reply"))
    if "count" in body:
        print(f"count: {body['count']}")
        return 0
    ids = body.get("ids", [])
    if args.type == "match" and _names_a_patient(args.where, args.kprime):
        if ids:
            print(f"match: yes (id {ids[0]})")
        else:
            print("match: no")
        return 0
    if ids:
        print("ids: " + " ".join(str(i) for i in ids))
    else:
        print("ids: (none)")
    return 0


def _names_a_patient(where: str, k_prime) -> bool:
    """Whether a match query has an ``id`` predicate: a yes/no question about one patient."""
    try:
        return any(p.kind == "id" for p in parse_query(where, "match", k_prime).predicates)
    except QueryError:
        return False


def _fp_arg(text: str) -> float:
    """--fp value: a rate in (0, 1) whose filter the format can store."""
    try:
        p_fp = float(text)
        BloomFilter.geometry(1, p_fp)  # n = 1 needs the most hash functions
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p_fp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="privgendb",
        description="Encrypted genomic cohort search: count, boolean, and match queries.",
    )
    ap.add_argument("--version", action="version", version=f"privgendb {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="encrypt a cohort CSV into a searchable database")
    b.add_argument("--input", required=True, help="cohort CSV path")
    b.add_argument("--keys", required=True, help="key file (created if missing)")
    b.add_argument("--egdb", required=True, help="output encrypted database path")
    b.add_argument("--fp", type=_fp_arg, default=1e-6, help="bloom false-positive target")
    b.add_argument("--seed", type=int, default=None, help="deterministic build seed")
    b.set_defaults(func=_cmd_build)

    s = sub.add_parser("server", help="serve an encrypted database (untrusted host)")
    s.add_argument("--egdb", required=True)
    s.add_argument("--listen", required=True, help="host:port to bind")
    s.set_defaults(func=_cmd_server)

    v = sub.add_parser("vetter", help="run the trusted query gatekeeper")
    v.add_argument("--keys", required=True)
    v.add_argument("--policy", required=True)
    v.add_argument("--server", required=True, help="data server host:port")
    v.add_argument("--listen", required=True, help="host:port to bind")
    v.add_argument("--audit", default="privgendb-audit.log", help="audit log path")
    v.set_defaults(func=_cmd_vetter)

    q = sub.add_parser("query", help="submit a query through a vetter")
    q.add_argument("--vetter", required=True, help="vetter host:port")
    q.add_argument("--user", required=True)
    q.add_argument("--type", required=True, choices=("count", "boolean", "match"))
    q.add_argument("--where", required=True, help='e.g. "phenotype=Cancer B,SNP2!=CC"')
    q.add_argument("--kprime", type=int, default=None, help="match threshold k'")
    q.set_defaults(func=_cmd_query)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
