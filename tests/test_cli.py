"""The privgendb command-line interface, driven in-process via main(argv)."""

import logging
import re
import socket
import threading

import pytest

from privgendb import cli, services
from privgendb.cli import main
from privgendb.crypto import load_keys
from privgendb.encoding import parse_query
from privgendb.engine import parse_policy, run_query
from privgendb.fixtures import DEMO_COHORT_CSV
from privgendb.index import load_egdb
from privgendb.services import DataServer, Vetter, serve_data
from privgendb.wire import MSG_ANSWER

from conftest import GOLDEN_COUNTS, GOLDEN_IDS


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cohort = d / "cohort.csv"
    cohort.write_text(DEMO_COHORT_CSV)
    keys, egdb = d / "demo.keys", d / "demo.egdb"
    rc = main(["build", "--input", str(cohort), "--keys", str(keys),
               "--egdb", str(egdb), "--seed", "42"])
    assert rc == 0
    return d, keys, egdb


def test_build_outputs(built, capsys):
    d, keys_path, egdb_path = built
    keys = load_keys(keys_path)
    assert keys.lam == 128
    egdb = load_egdb(egdb_path)
    assert egdb.params.n_entries == 42


def test_build_reuses_existing_keys(built, capsys):
    d, keys_path, egdb_path = built
    before = keys_path.read_bytes()
    rc = main(["build", "--input", str(d / "cohort.csv"), "--keys", str(keys_path),
               "--egdb", str(d / "again.egdb")])
    assert rc == 0
    assert keys_path.read_bytes() == before


def test_build_rejects_bad_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("ID,SNP_1,Phenotype\n1,XX,Cancer A\n")
    rc = main(["build", "--input", str(bad), "--keys", str(tmp_path / "k"),
               "--egdb", str(tmp_path / "e")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("fp", ["1e-80", "0", "1.5", "often"])
def test_build_rejects_fp_up_front(tmp_path, capsys, fp):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(DEMO_COHORT_CSV)
    keys = tmp_path / "k.keys"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(cohort), "--keys", str(keys),
              "--egdb", str(tmp_path / "e.egdb"), "--fp", fp])
    assert exc.value.code == 2
    assert "argument --fp" in capsys.readouterr().err
    assert not keys.exists()  # rejected before any build work


def _assert_clean_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_build_missing_input_leaves_no_key_file(tmp_path, capsys):
    keys = tmp_path / "new.keys"
    rc = main(["build", "--input", str(tmp_path / "missing.csv"), "--keys", str(keys),
               "--egdb", str(tmp_path / "e.egdb")])
    assert rc == 2
    assert "missing.csv" in _assert_clean_error(capsys)
    assert not keys.exists()


def test_build_rejects_non_utf8_input(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    cohort.write_bytes(b"ID,SNP_1,Phenotype\n1,AA,\xff\xfe\n")
    keys = tmp_path / "new.keys"
    rc = main(["build", "--input", str(cohort), "--keys", str(keys),
               "--egdb", str(tmp_path / "e.egdb")])
    assert rc == 2
    assert "utf-8" in _assert_clean_error(capsys)
    assert not keys.exists()


def test_build_rejects_junk_key_file(built, tmp_path, capsys):
    d, _, _ = built
    junk = tmp_path / "junk.keys"
    junk.write_bytes(b"not a key file at all")
    out = tmp_path / "e.egdb"
    rc = main(["build", "--input", str(d / "cohort.csv"), "--keys", str(junk),
               "--egdb", str(out)])
    assert rc == 2
    assert "bad magic" in _assert_clean_error(capsys)
    assert not out.exists()


def test_server_missing_egdb(tmp_path, capsys):
    rc = main(["server", "--egdb", str(tmp_path / "missing.egdb"),
               "--listen", "127.0.0.1:0"])
    assert rc == 2
    assert "missing.egdb" in _assert_clean_error(capsys)


@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_server_refuses_an_egdb_it_cannot_map(tmp_path, capsys, kind):
    egdb = tmp_path / "bad.egdb"
    if kind == "empty":
        egdb.write_bytes(b"")
    else:
        egdb.mkdir()
    rc = main(["server", "--egdb", str(egdb), "--listen", "127.0.0.1:0"])
    assert rc == 2
    err = _assert_clean_error(capsys)
    assert "bad.egdb" in err and err.count("\n") == 1
    if kind == "empty":
        assert "truncated" in err


def test_server_start_line_gives_size_and_load_time(built, caplog, monkeypatch):
    _, _, egdb_path = built
    monkeypatch.setattr(DataServer, "serve_forever", lambda self: None)
    with caplog.at_level(logging.INFO, logger="privgendb.services"):
        serve_data(egdb_path, "127.0.0.1:0")
    (line,) = [r.getMessage() for r in caplog.records if "data server on" in r.getMessage()]
    size = egdb_path.stat().st_size
    assert re.search(rf"\(42 entries, {size} bytes, loaded in \d+\.\d ms\)$", line), line


def test_server_address_in_use(built, capsys):
    _, _, egdb_path = built
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        listen = "{}:{}".format(*taken.getsockname())
        rc = main(["server", "--egdb", str(egdb_path), "--listen", listen])
    assert rc == 2
    assert listen in _assert_clean_error(capsys)


def test_build_deterministic_with_seed(built, tmp_path):
    d, _, egdb_path = built
    # a fresh build (keys generated from the same seed) replays byte-for-byte
    keys2, out2 = tmp_path / "replay.keys", tmp_path / "replay.egdb"
    rc = main(["build", "--input", str(d / "cohort.csv"), "--keys", str(keys2),
               "--egdb", str(out2), "--seed", "42"])
    assert rc == 0
    assert out2.read_bytes() == egdb_path.read_bytes()


@pytest.fixture(scope="module")
def live(built):
    d, keys_path, egdb_path = built
    policy = d / "policy.txt"
    policy.write_text("user alice role clinician\nuser bob role analyst\nthreshold 1\n")
    egdb = load_egdb(egdb_path)
    data = DataServer(("127.0.0.1", 0), egdb)
    threading.Thread(target=data.serve_forever, daemon=True).start()
    vet = Vetter(("127.0.0.1", 0), load_keys(keys_path),
                 parse_policy(policy.read_text()), data.server_address,
                 audit_path=d / "audit.log")
    threading.Thread(target=vet.serve_forever, daemon=True).start()
    yield "{}:{}".format(*vet.server_address)
    vet.shutdown(); vet.server_close()
    data.shutdown(); data.server_close()


def test_query_count(live, capsys):
    rc = main(["query", "--vetter", live, "--user", "alice", "--type", "count",
               "--where", "phenotype=Cancer B, SNP2=CC, SNP4=AG"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "count: 2"


def test_query_boolean_ids(live, capsys):
    rc = main(["query", "--vetter", live, "--user", "alice", "--type", "boolean",
               "--where", "phenotype=Cancer B, SNP2=CC, SNP4=AG"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ids: 2 5"


def test_query_boolean_empty(live, capsys):
    rc = main(["query", "--vetter", live, "--user", "alice", "--type", "boolean",
               "--where", "phenotype=Cancer C, SNP1!=AG"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ids: (none)"


def test_query_match_patient(live, capsys):
    rc = main(["query", "--vetter", live, "--user", "alice", "--type", "match",
               "--where", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", "--kprime", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "match: yes (id 7)"
    rc = main(["query", "--vetter", live, "--user", "alice", "--type", "match",
               "--where", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", "--kprime", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "match: no"


def test_query_denied_exit_code(live, capsys):
    rc = main(["query", "--vetter", live, "--user", "bob", "--type", "boolean",
               "--where", "SNP2=CC"])
    assert rc == 3
    assert "denied: auth" in capsys.readouterr().err


def test_query_unreachable_vetter(capsys):
    rc = main(["query", "--vetter", "127.0.0.1:1", "--user", "alice",
               "--type", "count", "--where", "SNP2=CC"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("where,k_prime,ids,printed", [
    ("phenotype=Lipid=high,SNP1=AA,SNP2=CC", "1", [3, 5, 9], "ids: 3 5 9"),
    ("id=3, SNP1=AA, SNP2=CC", "1", [3], "match: yes (id 3)"),
    ("ID = 3, SNP1=AA, SNP2=CC", "2", [], "match: no"),
], ids=["id-in-a-value", "id-predicate", "spaced-id-predicate"])
def test_query_match_names_a_patient_only_by_an_id_predicate(monkeypatch, capsys, where,
                                                             k_prime, ids, printed):
    """A match prints its one patient only when the query has an id predicate,
    not whenever the text holds "id=" (here inside a phenotype value)."""
    monkeypatch.setattr(cli, "submit_query", lambda *args: (MSG_ANSWER, {"ids": ids}))
    rc = main(["query", "--vetter", "127.0.0.1:9", "--user", "alice", "--type", "match",
               "--where", where, "--kprime", k_prime])
    assert rc == 0
    assert capsys.readouterr().out.strip() == printed


@pytest.mark.parametrize("command", ["server", "vetter", "query"])
def test_a_port_out_of_range_is_refused_before_any_socket(built, tmp_path, capsys,
                                                          monkeypatch, command):
    d, keys, egdb = built
    policy = tmp_path / "policy.txt"
    policy.write_text("user alice role clinician\n")
    touched = []

    def refuse(*args):
        touched.append(args)
        raise OSError("the command got past its address check")

    monkeypatch.setattr(socket.socket, "bind", refuse)
    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(services, "load_egdb", refuse)
    bad = "127.0.0.1:70000"
    argv = {
        "server": ["server", "--egdb", str(egdb), "--listen", bad],
        "vetter": ["vetter", "--keys", str(keys), "--policy", str(policy),
                   "--server", "127.0.0.1:9", "--listen", bad,
                   "--audit", str(tmp_path / "audit.log")],
        "query": ["query", "--vetter", bad, "--user", "alice", "--type", "count",
                  "--where", "SNP2=CC"],
    }[command]
    assert main(argv) == 2
    assert "port must be 0-65535" in _assert_clean_error(capsys)
    assert touched == []


def test_build_unwritable_output_leaves_no_key_file(built, tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(DEMO_COHORT_CSV)
    keys = tmp_path / "new.keys"
    out = tmp_path / "no-such-dir" / "x.egdb"
    rc = main(["build", "--input", str(cohort), "--keys", str(keys), "--egdb", str(out)])
    assert rc == 2
    assert "x.egdb" in _assert_clean_error(capsys)
    assert not keys.exists()
    # an existing key file stays as it was
    _, old_keys, _ = built
    before = old_keys.read_bytes()
    rc = main(["build", "--input", str(cohort), "--keys", str(old_keys), "--egdb", str(out)])
    assert rc == 2
    assert old_keys.read_bytes() == before


def test_build_failing_mid_write_leaves_no_partial_output(tmp_path, capsys, monkeypatch):
    def fail_half_way(egdb, fh):
        fh.write(b"PGDBEDB1")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "serialize_egdb", fail_half_way)
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(DEMO_COHORT_CSV)
    keys, out = tmp_path / "new.keys", tmp_path / "x.egdb"
    rc = main(["build", "--input", str(cohort), "--keys", str(keys), "--egdb", str(out)])
    assert rc == 2
    assert "No space left" in _assert_clean_error(capsys)
    assert not keys.exists() and not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv"]  # no temporary file


def test_failed_rebuild_leaves_the_previous_database(built, tmp_path, capsys, monkeypatch):
    d, keys, _ = built
    out = tmp_path / "x.egdb"
    args = ["build", "--input", str(d / "cohort.csv"), "--keys", str(keys), "--egdb", str(out)]
    assert main(args) == 0
    before = out.read_bytes()

    def fail_half_way(egdb, fh):
        fh.write(b"PGDBEDB1")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "serialize_egdb", fail_half_way)
    assert main(args) == 2
    assert "No space left" in _assert_clean_error(capsys)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.egdb"]  # no temporary file


def test_a_loaded_database_survives_a_rebuild_of_its_file(tmp_path, demo_freq):
    """A rebuild replaces the file; a database mapped from the old one keeps
    answering from it."""
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(DEMO_COHORT_CSV)
    out = tmp_path / "demo.egdb"

    def build(seed):
        return main(["build", "--input", str(cohort), "--keys", str(tmp_path / f"{seed}.keys"),
                     "--egdb", str(out), "--seed", seed])

    assert build("42") == 0
    old, old_bytes = load_egdb(out), out.read_bytes()
    assert build("43") == 0
    assert out.read_bytes() != old_bytes
    old_keys = load_keys(tmp_path / "42.keys")
    for where, expected in GOLDEN_COUNTS:
        assert run_query(old_keys, old, parse_query(where, "count"), demo_freq) == expected
    for qtype, where, k_prime, expected in GOLDEN_IDS:
        query = parse_query(where, qtype, k_prime)
        assert run_query(old_keys, old, query, demo_freq) == expected
