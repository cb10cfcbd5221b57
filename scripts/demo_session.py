#!/usr/bin/env python3
"""End-to-end walkthrough on the bundled 7-record cohort.

Builds the encrypted database, starts a data server and a vetter on loopback
ports, then plays through the supported query types as two users — a
clinician (full access) and an analyst (counts only) — including a policy
denial and a look at what actually crosses the wire.

    python3 scripts/demo_session.py
"""

import sys
import threading

from privgendb.crypto import SeededRng, keygen
from privgendb.encoding import encode_query, parse_query
from privgendb.engine import Policy, SearchCore
from privgendb.fixtures import load_demo_cohort
from privgendb.index import build_egdb, build_inverted_index
from privgendb.services import DataServer, Vetter, execute_search, submit_query
from privgendb.wire import (
    COUNT,
    MSG_ANSWER,
    MSG_DENIED,
    MSG_SEARCH_INIT,
    MSG_STERM_COUNT,
    MSG_XTOKENS,
)


def show(label: str, reply) -> None:
    mtype, body = reply
    if mtype == MSG_ANSWER:
        print(f"  {label:<58} -> {body}")
    elif mtype == MSG_DENIED:
        print(f"  {label:<58} -> DENIED ({body['reason']}: {body['detail']})")
    else:
        print(f"  {label:<58} -> ERROR {body}")


def dump_search(server_addr, keys, egdb, where: str, qtype: str) -> None:
    eq = encode_query(parse_query(where, qtype))
    frames = []
    execute_search(server_addr, keys, eq,
                   on_frame=lambda d, t, b: frames.append((d, t, b)))
    width = len(eq.positive_xterms) + len(eq.negative_xterms)
    for direction, mtype, body in frames:
        if mtype == MSG_SEARCH_INIT:  # the anchor tag, then fixed-width fields
            core = SearchCore(egdb, body)  # read as the data server reads it
            desc = {"stag": body[:6].hex() + "...", "gamma": core.gamma, "n_pos": core.n_pos,
                    "n_neg": core.n_neg, "k_prime": core.k_prime}
        elif mtype == MSG_STERM_COUNT:
            desc = f"<chain length {COUNT.unpack(body)[0]}>"
        elif mtype == MSG_XTOKENS:  # raw token rows, 33 bytes a token
            desc = f"<{len(body) // (33 * width)} rows of {width} tokens, {len(body)} raw bytes>"
        elif qtype == "count":
            desc = f"<count {COUNT.unpack(body)[0]}>"
        else:
            desc = f"<{len(body) // 36} ciphertexts, 36 B each>"
        print(f"  {direction:<4} type={mtype} {desc}")


def main() -> int:
    gdb = load_demo_cohort()
    keys = keygen(rng=SeededRng(7))
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(8))
    print(f"cohort: {len(gdb.records)} records, {egdb.params.n_entries} index entries")

    data = DataServer(("127.0.0.1", 0), egdb)
    threading.Thread(target=data.serve_forever, daemon=True).start()
    policy = Policy({"alice": "clinician", "bob": "analyst"}, threshold=1)
    vetter = Vetter(("127.0.0.1", 0), keys, policy, data.server_address)
    threading.Thread(target=vetter.serve_forever, daemon=True).start()
    addr = vetter.server_address
    print(f"data server on {data.server_address[1]}, vetter on {addr[1]}\n")

    print("clinician alice:")
    show("count: Cancer B and SNP2=CC and SNP4=AG",
         submit_query(addr, "alice", "count", "phenotype=Cancer B, SNP2=CC, SNP4=AG"))
    show("count: Cancer B and not SNP2=CC and SNP4=AG",
         submit_query(addr, "alice", "count", "phenotype=Cancer B, SNP2!=CC, SNP4=AG"))
    show("boolean ids: Cancer B and SNP2=CC and SNP4=AG",
         submit_query(addr, "alice", "boolean", "phenotype=Cancer B, SNP2=CC, SNP4=AG"))
    show("any-of (match k'=1): Cancer B, SNP2=CC or SNP4=AG",
         submit_query(addr, "alice", "match", "phenotype=Cancer B, SNP2=CC, SNP4=AG",
                      k_prime=1))
    show("patient 7 matches 2 of {SNP2=CC, SNP3=CT, SNP4=AG}?",
         submit_query(addr, "alice", "match", "id=7, SNP2=CC, SNP3=CT, SNP4=AG",
                      k_prime=2))

    print("\nanalyst bob:")
    show("count: SNP2=CC", submit_query(addr, "bob", "count", "SNP2=CC"))
    show("boolean ids: SNP2=CC (not permitted for analysts)",
         submit_query(addr, "bob", "boolean", "SNP2=CC"))

    print("\nwhat the data server sees for one boolean query:")
    dump_search(data.server_address, keys, egdb, "phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean")
    print("\nand for a count without cross-terms, answered in round one:")
    dump_search(data.server_address, keys, egdb, "SNP2=CC", "count")
    print("\nand for one over an empty anchor chain, also answered in round one:")
    dump_search(data.server_address, keys, egdb, "phenotype=Cancer Z, SNP2=CC", "count")

    vetter.shutdown(); vetter.server_close()
    data.shutdown(); data.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
