import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import arrow_morphism, labeled_structures

from higherop import cli, operads, topology
from higherop.cli import cache_key, cache_lookup, cache_store, main
from higherop.operads import (
    OperadTable,
    desymmetrize,
    endomorphism_operad,
    operad_to_json,
)


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# basic commands


def test_ordinals_command(capsys):
    code, rep = run_json(capsys, ["ordinals", "--n", "2", "--k", "3"])
    assert code == 0
    assert rep["data"]["count"] == 4
    assert rep["data"]["profiles"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_ordinals_relations(capsys):
    code, rep = run_json(capsys, ["ordinals", "--n", "2", "--k", "2", "--relations"])
    assert code == 0
    assert rep["data"]["relations"] == [["0 <_0 1"], ["0 <_1 1"]]


def test_morphisms_command(capsys):
    code, rep = run_json(
        capsys, ["morphisms", "--n", "1", "--source", "0", "--target", "0"]
    )
    assert code == 0
    assert rep["data"]["count"] == 3


def test_suspend_command(capsys):
    code, rep = run_json(
        capsys, ["suspend", "--n", "2", "--profile", "1,0,1,1", "--p", "0"]
    )
    assert code == 0
    assert rep["data"] == {"n": 3, "profile": [2, 1, 2, 2], "size": 5}
    code, rep = run_json(
        capsys, ["suspend", "--n", "2", "--profile", "1,0,1,1", "--inf"]
    )
    assert rep["data"]["profile"] == [0, -1, 0, 0]


def test_trees_command(capsys):
    code, rep = run_json(
        capsys,
        ["trees", "--n", "1", "--profile", "0,0,0", "--vmax", "3", "--kmax", "2",
         "--count-only"],
    )
    assert code == 0
    assert rep["data"]["count"] == 5


def test_operad_check_pass(capsys):
    code, rep = run_json(capsys, ["operad", "check", "--which", "ass", "--n", "2", "--K", "2"])
    assert code == 0
    assert rep["status"] == "pass"
    # the pool's size, the seconds of each stage and kernel phase and the bytes of
    # the kernel's tables are facts of the run: timing only
    assert set(rep["timing"]) == {"assoc_s", "ms", "units_s", "workers", "rows_s", "keys_s",
                                  "compare_s", "table_bytes"}
    assert 1 <= rep["timing"]["workers"] <= operads._worker_count()
    assert not set(rep["timing"]) & set(rep["data"])
    # the compared triples are a count of the work, the same on every machine
    assert rep["data"]["assoc_rows"] == rep["data"]["assoc_pairs"] == 148


def test_operad_check_des_end(capsys):
    # the README's des-end example, at one level over two points
    code, rep = run_json(capsys, ["operad", "check", "--which", "des-end", "--n", "1", "--K", "2"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["operad"] == "des_1(End[2])"
    assert (rep["data"]["assoc_pairs"], rep["data"]["assoc_instances"]) == (36, 140_458)
    # the distinct triples, as tests/oracles.distinct_associativity_triples counts them
    assert rep["data"]["assoc_rows"] == 2838


def test_operad_check_corrupted_file_fails(tmp_path, capsys):
    A = desymmetrize(endomorphism_operad((0, 1), 1), 1)
    T = A.base.terminal()
    ident = A.base.identity(T)
    mult = dict(A.mult)
    tab = mult[ident].copy()
    unit = A.unit_index()
    tab[3, unit] = 0  # break one unit diagram entry
    mult[ident] = tab
    bad = OperadTable(A.base, A.K, A.components, A.unit, mult, "corrupted")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(operad_to_json(bad)))
    code, rep = run_json(capsys, ["operad", "check", "--file", str(path)])
    assert code == 1
    assert rep["status"] == "fail"
    assert any("unit diagram" in v for v in rep["data"]["violations"])


def test_sym_command(capsys):
    code, rep = run_json(capsys, ["sym", "--n", "1", "--K", "4"])
    assert code == 0
    assert rep["data"]["class_counts"] == {"0": 1, "1": 1, "2": 2, "3": 6, "4": 24}
    code, rep = run_json(capsys, ["sym", "--n", "1", "--K", "0"])
    assert code == 0 and rep["data"]["class_counts"] == {"0": 1}


# operad tables need K >= 1 and End needs a point; every other input here is decided
@pytest.mark.parametrize("argv, want", [
    (["sym", "--n", "2", "--K", "0"], 0),
    (["operad", "check", "--which", "ass", "--K", "0"], 2),
    (["operad", "check", "--which", "end", "--K", "0"], 2),
    (["operad", "check", "--which", "des-end", "--K", "0"], 2),
    (["ordinals", "--n", "2", "--k", "0"], 0),
    (["ordinals", "--n", "2", "--k", "1"], 0),
    (["ordinals", "--n", "4", "--k", "14"], 2),
    (["classifier", "--fresh", "--n", "2", "--k", "0"], 0),
    (["classifier", "--fresh", "--n", "2", "--k", "1"], 0),
    (["export", "classifier", "--n", "2", "--k", "0"], 0),
    (["export", "classifier", "--n", "2", "--k", "1"], 0),
    (["operad", "check", "--which", "end", "--x-size", "0"], 2),
    (["operad", "check", "--which", "des-end", "--x-size", "0"], 2),
    (["operad", "check", "--which", "end", "--x-size", "1", "--K", "7"], 2),
    (["operad", "check", "--which", "end", "--x-size", "1", "--K", "9"], 2),
    (["trees", "--n", "1", "--vmax", "0"], 0),
    (["verify", "monad-laws", "--n", "1", "--vmax", "0", "--kmax", "2"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_degenerate_inputs_finish_or_refuse_cleanly(capsys, argv, want):
    start = time.perf_counter()
    assert main(argv) == want  # an uncaught exception fails the test here
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("error:") for line in err) == (want == 2)
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize("K", [5, 6])
def test_end_check_is_refused_on_its_pair_count(capsys, monkeypatch, K):
    def boom(*args, **kwargs):
        raise AssertionError("an End table or the base was built")

    monkeypatch.setattr(operads, "endomorphism_operad", boom)
    monkeypatch.setattr(operads, "compile_base", boom)
    start = time.perf_counter()
    assert main(["operad", "check", "--which", "end", "--x-size", "1", "--K", str(K)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "composable pairs" in err[0]


def test_ass_check_is_refused_before_the_base_is_built(capsys, monkeypatch):
    from higherop import ordinals

    def boom(*args, **kwargs):
        raise AssertionError("a morphism or a table was built")

    for name in ("base_morphisms", "compile_base", "make_ass"):
        monkeypatch.setattr(operads, name, boom)
    monkeypatch.setattr(operads, "enumerate_morphisms", boom)
    monkeypatch.setattr(ordinals, "_morphisms_cached", boom)
    assert main(["operad", "check", "--which", "ass", "--n", "2", "--K", "5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "composable pairs" in err[0]


def test_ass_check_is_refused_before_the_objects_are_listed(capsys, monkeypatch):
    # Ord(2) has 2^24 objects up to K = 24: their identities alone pass the ceiling
    def boom(*args, **kwargs):
        raise AssertionError("an object of the base was listed")

    monkeypatch.setattr(operads.OrdBase, "objects", boom)
    start = time.perf_counter()
    assert main(["operad", "check", "--which", "ass", "--n", "2", "--K", "24"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: at least 16777216 Ord morphisms at K=24 need at least 8.1 GiB "
                   "(ceiling 256 MiB)"]


def test_classifier_objects_are_refused_without_forming_k_factorial(capsys):
    start = time.perf_counter()
    assert main(["classifier", "--fresh", "--n", "2", "--k", "1000000"]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: classifier at (n=2, k=1000000) has at least 5040 objects (budget 2000)"]


def test_monad_laws_defaults_are_refused_before_a_tree_is_built(capsys, monkeypatch):
    from higherop import freeop

    def boom(*args, **kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(freeop, "enumerate_trees", boom)
    monkeypatch.setattr(freeop, "TreeTerm", boom)
    monkeypatch.setattr(freeop._TreeStore, "trees", boom)
    assert main(["verify", "monad-laws"]) == 2  # n=2, vmax=3, kmax=5: 135,365 trees
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "trees" in err[0]


def test_deep_monad_laws_are_refused_before_an_insertion(capsys, monkeypatch):
    from higherop import freeop

    def boom(*args, **kwargs):
        raise AssertionError("a tree was inserted")

    monkeypatch.setattr(freeop, "insert", boom)
    monkeypatch.setattr(freeop._TreeStore, "insert", boom)
    # 7,749 trees pass the tree budget; their 15.7M law instances do not
    assert main(["verify", "monad-laws", "--n", "1", "--vmax", "12", "--kmax", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "instances" in err[0]


def test_tree_count_builds_no_tree(capsys, monkeypatch):
    from higherop import freeop

    def boom(*args, **kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(freeop, "enumerate_trees", boom)
    monkeypatch.setattr(freeop, "TreeTerm", boom)
    monkeypatch.setattr(freeop._TreeStore, "trees", boom)
    argv = ["trees", "--n", "2", "--profile", "0,0,0,0", "--vmax", "4", "--kmax", "5"]
    code, rep = run_json(capsys, argv + ["--count-only"])
    assert code == 0 and rep["data"]["count"] == 182_691 and "trees" not in rep["data"]
    assert main(argv) == 2  # listing them is refused past the tree budget
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "182691 trees" in err[0]


@pytest.mark.parametrize("argv, count", [
    (["ordinals", "--n", "2", "--k", "3"], "2^2 ordinals"),
    (["morphisms", "--n", "1", "--source", "0", "--target", "0,0"], "more than 3 morphisms"),
])
def test_listings_are_counted_before_they_are_built(capsys, monkeypatch, argv, count):
    def boom(*args, **kwargs):
        raise AssertionError("the listing was built")

    monkeypatch.setattr(cli, "enumerate_ordinals", boom)
    monkeypatch.setattr(cli, "enumerate_morphisms", boom)
    monkeypatch.setattr(operads, "_MAX_EXPORT_ENTRIES", 3)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {count} to list (budget 3)"]


def test_morphism_listing_is_refused_once_the_count_passes_the_budget(capsys):
    # 16 points to 10 over Ord(1): C(25, 16) = 2,042,975 maps, past 2^20
    argv = ["morphisms", "--n", "1", "--source", ",".join("0" * 15), "--target", ",".join("0" * 9)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    budget = operads._MAX_EXPORT_ENTRIES
    assert capsys.readouterr().err.splitlines() == [
        f"error: more than {budget} morphisms to list (budget {budget})"]


def test_usage_error_exit_code(capsys):
    assert main(["classifier", "--n", "2", "--k", "7"]) == 2


def test_oversized_boundary_entries_are_a_budget_error(capsys, monkeypatch):
    for argv, betti in ((["--n", "4", "--k", "3"], [1, 0, 0, 3, 0, 0, 2]),
                        (["--n", "2", "--k", "5", "--dmax", "1"], [1, None])):
        code, rep = run_json(capsys, ["classifier", "--fresh"] + argv)
        assert code == 0 and rep["data"]["betti"] == betti
    # (3,3) has 168 entries; one byte short of their charge refuses it before any is
    # built: the relabeling by every x, where k! enters, never runs
    relabeled = []

    def perm_ranks(t, perms):
        relabeled.append(perms.shape)
        return real_perm_ranks(t, perms)

    real_perm_ranks = topology._perm_ranks
    monkeypatch.setattr(topology, "_perm_ranks", perm_ranks)
    monkeypatch.setattr(topology, "_MAX_DENSE_BYTES", 168 * topology._ENTRY_BYTES - 1)
    assert main(["classifier", "--fresh", "--n", "3", "--k", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 168 boundary entries need")
    assert relabeled == []
    monkeypatch.setattr(topology, "_MAX_DENSE_BYTES", 168 * topology._ENTRY_BYTES)
    code, rep = run_json(capsys, ["classifier", "--fresh", "--n", "3", "--k", "3"])
    assert code == 0 and rep["data"]["betti"] == [1, 0, 3, 0, 2] and relabeled


def test_oversized_end_tables_are_a_budget_error(capsys):
    assert main(["operad", "check", "--which", "end", "--x-size", "3", "--K", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: End tables") and "ceiling" in err[0]


@pytest.mark.parametrize("x_size", ["5", "4"])
def test_astronomical_end_tables_are_a_budget_error(capsys, x_size):
    # x^(x^6) has thousands of digits; the refusal never forms or prints it
    start = time.perf_counter()
    assert main(["operad", "check", "--which", "end", "--x-size", x_size, "--K", "6"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: End tables") and "256 MiB" in err[0]
    assert len(err[0]) < 200


@pytest.mark.parametrize(
    "exc, code",
    [(MemoryError("Unable to allocate 5.4 GiB"), 2), (RecursionError("too deep"), 2),
     (KeyboardInterrupt(), 130)],
)
def test_fatal_exceptions_become_exit_codes(capsys, monkeypatch, exc, code):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_ordinals", boom)
    assert main(["ordinals", "--n", "2", "--k", "2"]) == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    if code == 2:
        assert err[0] == f"error: {type(exc).__name__}: {exc}"


def test_verify_all_keeps_every_run(capsys, monkeypatch):
    def fake(command):
        def suite(*args):
            return cli.Report(command, "pass", {"n": args[0], "args": list(args)}, {})
        return suite

    monkeypatch.setattr(cli, "verify_eckmann_hilton", fake("verify-eckmann-hilton"))
    monkeypatch.setattr(cli, "verify_monad_laws", fake("verify-monad-laws"))
    monkeypatch.setattr(cli, "verify_stable_range", lambda pairs, args: cli.Report(
        "verify-stable-range", "pass", {}, {}))
    monkeypatch.setattr(cli, "verify_adjunction", lambda: cli.Report(
        "verify-adjunction", "pass", {}, {}))
    monkeypatch.setattr(cli, "verify_algebras", lambda: cli.Report(
        "verify-algebras", "pass", {}, {}))
    code, rep = run_json(capsys, ["verify", "all"])
    assert code == 0
    data = rep["data"]
    assert len(data) == 8
    # the plain keys hold the last run of each suite
    assert data["verify-eckmann-hilton"]["n"] == 3
    assert data["verify-eckmann-hilton[n=1]"]["n"] == 1
    assert data["verify-eckmann-hilton[n=2]"]["n"] == 2
    assert data["verify-monad-laws"]["args"] == [2, 2, 2]
    assert data["verify-monad-laws[n=1]"]["args"] == [1, 3, 3]
    assert all(sub["status"] == "pass" for sub in data.values())


# ---------------------------------------------------------------------------
# cache behaviour


def test_classifier_cache_roundtrip(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "classifier", "--n", "2", "--k", "2"]
    code, first = run_json(capsys, argv)
    assert code == 0 and first["timing"]["cache"] == "miss"
    assert first["data"]["betti"] == [1, 1]
    code, second = run_json(capsys, argv)
    assert code == 0 and second["timing"]["cache"] == "hit"
    assert first["data"] == second["data"]


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, rep = run_json(capsys, ["classifier", "--n", "2", "--k", "2"])
    assert code == 0 and rep["timing"]["cache"] == "miss"
    assert len(list(tmp_path.glob("*.json"))) == 1


_KEY_2_2 = {"cmd": "classifier", "n": 2, "k": 2, "dmax": None, "schema": cli.SCHEMA_VERSION}
_PAYLOAD_2_2 = topology.classifier_homology(2, 2)


def _blob(**changes):
    """A cache entry of classifier --n 2 --k 2 as cache_store writes it, with changes."""
    return json.dumps({"schema": cli.SCHEMA_VERSION, "key": _KEY_2_2, "payload": _PAYLOAD_2_2,
                       **changes}).encode()


# entries that cache_store did not write for classifier --n 2 --k 2
_FOREIGN_ENTRIES = {
    "not-json": b"{not json",
    "a-list": b"[]",
    "without-a-key": json.dumps({"schema": cli.SCHEMA_VERSION, "payload": {"n": 2}}).encode(),
    "not-utf8": b"\xff\xfe",
    "another-key": _blob(key={**_KEY_2_2, "k": 3}),
    "payload-not-an-object": _blob(payload=[1]),
    "payload-missing-fields": _blob(payload={"n": 2}),
    "payload-with-another-field": _blob(payload={**_PAYLOAD_2_2, "extra": 1}),
}


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    # each is a miss with one warning line, then recomputed and rewritten
    path = tmp_path / (cache_key(_KEY_2_2) + ".json")
    argv = ["--json", "--cache-dir", str(tmp_path), "classifier", "--n", "2", "--k", "2"]
    for name, entry in _FOREIGN_ENTRIES.items():
        path.write_bytes(entry)
        assert main(argv) == 0, name
        captured = capsys.readouterr()
        rep, err = json.loads(captured.out), captured.err.splitlines()
        assert rep["timing"]["cache"] == "miss" and rep["data"] == _PAYLOAD_2_2, name
        assert len(err) == 1 and err[0].startswith("warning: ") and str(path) in err[0], name
        assert cache_lookup(str(tmp_path), _KEY_2_2, topology.PAYLOAD_FIELDS) == _PAYLOAD_2_2, name
        assert capsys.readouterr().err == "", name


def test_schema_bump_invalidates(tmp_path, capsys):
    key_obj = {"cmd": "x", "schema": cli.SCHEMA_VERSION}
    path = tmp_path / (cache_key(key_obj) + ".json")
    path.write_text(json.dumps({"schema": cli.SCHEMA_VERSION - 1, "key": key_obj,
                                "payload": {"stale": True}}))
    assert cache_lookup(str(tmp_path), key_obj, ("stale",)) is None
    assert "stale cache schema" in capsys.readouterr().err


def test_concurrent_stores_leave_one_valid_blob(tmp_path):
    key_obj = {"cmd": "stress"}
    errors = []

    def worker(i):
        try:
            for _ in range(30):
                cache_store(str(tmp_path), key_obj, {"writer": i})
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    blobs = list(tmp_path.glob("*.json"))
    assert len(blobs) == 1
    payload = cache_lookup(str(tmp_path), key_obj, ("writer",))
    assert payload is not None and "writer" in payload
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# verify suites


def test_verify_eckmann_hilton(capsys):
    code, rep = run_json(capsys, ["verify", "eckmann-hilton", "--n", "1", "--kmax", "4"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["data"]["class_counts"]["4"] == 24


def test_verify_eckmann_hilton_n1_k8_allocates_no_square_of_the_labelings(capsys):
    tracemalloc.start()
    try:
        code, rep = run_json(capsys, ["verify", "eckmann-hilton", "--n", "1", "--kmax", "8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["class_counts"]["8"] == 40320
    assert peak < 40320 ** 2 // 16  # a k! x k! table of bools would take 1.6 GB


def test_verify_all_does_not_import_numpy_ma(tmp_path):
    code = ("import sys\n"
            "from higherop import cli\n"
            "assert cli.run(['--json', 'verify', 'all'])[0] == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env[cli.CACHE_ENV] = str(tmp_path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_verify_monad_laws(capsys):
    code, rep = run_json(capsys, ["verify", "monad-laws", "--n", "1", "--vmax", "2",
                                  "--kmax", "2"])
    assert code == 0 and rep["status"] == "pass"
    data = rep["data"]
    assert data["summary"] == "pass: 19 unit instances, 34 associativity instances"
    # 8 undecorated terms: the inputs and the results of the 21 insertions
    assert (data["distinct_insertions"], data["interned_trees"]) == (21, 8)
    # the seconds in distinct insertions and in instance checks are timing only
    assert set(rep["timing"]) == {"insertions_s", "instances_s", "ms"}
    assert not any(key.endswith("_s") for key in data)


def test_verify_stable_range_small(tmp_path, capsys):
    code, rep = run_json(
        capsys,
        ["--cache-dir", str(tmp_path), "verify", "stable-range", "--pairs", "2,2;3,2"],
    )
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["pairs"]["3,2"]["betti"] == [1, 0, 1]


def test_verify_adjunction(capsys):
    code, rep = run_json(capsys, ["verify", "adjunction"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["ass_1"]["sym_side"] == 4


def test_verify_algebras(capsys):
    code, rep = run_json(capsys, ["verify", "algebras"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["ass_1_on_two_points"]["direct"] == 4


# ---------------------------------------------------------------------------
# export


def test_export_ordinal_dot(capsys):
    code = main(["export", "ordinal", "--n", "2", "--profile", "1,0,1,1",
                 "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(1 for line in out.splitlines() if "leaf" in line and "label" in line) == 5


def test_export_classifier_dot(capsys):
    code = main(["export", "classifier", "--n", "2", "--k", "2", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("->") == 4


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_classifier_refuses_past_the_export_budget(capsys, monkeypatch, fmt):
    # (2, 2) has four arrows; the refusal comes before any line is written
    monkeypatch.setattr(operads, "_MAX_EXPORT_ENTRIES", 3)
    assert main(["export", "classifier", "--n", "2", "--k", "2", "--format", fmt]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0] == "error: classifier at (n=2, k=2) has 4 arrows (budget 3)"


def test_export_classifier_refuses_before_every_arrow_is_built(capsys):
    # (9, 4) has 17,496 objects and 27,566,784 arrows, counted from the moves
    # before any arrow is built and refused past the export budget
    assert main(["export", "classifier", "--n", "9", "--k", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    budget = operads._MAX_EXPORT_ENTRIES
    assert err == [f"error: classifier at (n=9, k=4) has 27566784 arrows (budget {budget})"]


def _classifier_export_by_structures(n, k, fmt):
    """The export of the arity-k classifier, from the itertools structures:
    an arrow is a pair of distinct structures whose identity map is a morphism."""
    objects = labeled_structures(n, k)
    arrows = []
    for (i, T), (j, S) in itertools.product(enumerate(objects), repeat=2):
        try:
            arrow_morphism(T, S)
        except ValueError:
            continue
        if i != j:
            arrows.append([i, j])
    if fmt == "json":
        objs = [{"labels": list(T.labels), "profile": list(T.profile)} for T in objects]
        return json.dumps({"n": n, "k": k, "objects": objs, "arrows": arrows},
                          sort_keys=True) + "\n"
    nodes = [f'  o{i} [label="{"".join(map(str, T.labels + ("|",) + T.profile))}"];'
             for i, T in enumerate(objects)]
    edges = [f"  o{i} -> o{j};" for i, j in arrows]
    return "\n".join(["digraph classifier {", *nodes, *edges, "}"]) + "\n"


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 3), (1, 4)])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_classifier_prints_every_structure(capsys, n, k, fmt):
    assert main(["export", "classifier", "--n", str(n), "--k", str(k), "--format", fmt]) == 0
    assert capsys.readouterr().out == _classifier_export_by_structures(n, k, fmt)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_export_prints_one_document(capsys, flags):
    # stdout is the export alone: no report after it, and no second JSON document
    assert main(flags + ["export", "classifier", "--n", "2", "--k", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(_classifier_export_by_structures(2, 2, "json"))
    assert main(flags + ["export", "ordinal", "--n", "2", "--profile", "1,0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2
    assert main(flags + ["export", "classifier", "--n", "2", "--k", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.endswith("}\n") and out.count("digraph") == 1


def test_export_tree_roundtrip(tmp_path, capsys):
    from higherop.freeop import corolla, graft, tree_to_json, trivial
    from higherop.operads import OrdBase
    from higherop.ordinals import OrdinalMorphism, ordinal

    base = OrdBase(1)
    sigma = OrdinalMorphism(ordinal(1, 0, 0), ordinal(1, 0), (0, 1, 1))
    comb = graft(corolla(base, ordinal(1, 0)), sigma,
                 [trivial(base), corolla(base, ordinal(1, 0))], base)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_json(comb)))
    code = main(["export", "tree", "--n", "1", "--file", str(path), "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("digraph")


_ONE_NODE = {"source": {"n": 1, "profile": [0], "size": 2},
             "target": {"n": 1, "profile": [], "size": 1}, "map": [0, 0]}
_EMPTY = {"n": 1, "profile": [], "size": 0}


@pytest.mark.parametrize("argv, content", [
    (["export", "tree"], None),
    (["export", "tree", "--file"], {"node": {"sigma": {"source": 1}}}),
    (["export", "tree", "--n", "1", "--file"],
     {"node": {"sigma": _ONE_NODE, "decoration": None, "children": []}}),
    (["export", "tree", "--n", "1", "--file"],
     {"node": {"sigma": _ONE_NODE, "decoration": None, "children": ["trivial"]}}),
    (["export", "tree", "--n", "2", "--file"],
     {"node": {"sigma": {"source": _EMPTY, "target": _EMPTY, "map": []},
               "decoration": None, "children": []}}),
    (["operad", "check", "--file"], {"base": {"kind": "Ord", "n": 1}, "components": {},
                                     "unit": "u", "mult": []}),
    (["operad", "check", "--file"], {"base": {"kind": "Ord", "n": 1}, "K": 2, "components": [],
                                     "unit": "*", "mult": []}),
    (["export", "tree", "--n", "0", "--file"], b""),
    (["export", "tree", "--n", "1", "--file"], b"not json\n"),
    (["operad", "check", "--file"], b"K = 2\n"),
    (["operad", "check", "--file"], b"\xff\xfe{}"),
], ids=["tree-without-file", "tree-without-map", "tree-missing-a-child", "tree-child-off-its-fiber",
        "tree-over-another-n", "operad-without-K", "operad-components-not-an-object",
        "tree-empty-file", "tree-text-file", "operad-text-file", "operad-not-utf8"])
def test_malformed_input_files_are_usage_errors(tmp_path, capsys, argv, content):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        argv = argv + [str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")
    if content is not None:
        assert str(tmp_path / "input.json") in err[0]


def test_export_unknown_format(capsys):
    assert main(["export", "classifier", "--n", "2", "--k", "2",
                 "--format", "ascii"]) == 2


def test_export_determinism(capsys):
    argv = ["export", "classifier", "--n", "2", "--k", "2", "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def _strip_timing(text: str) -> dict:
    rep = json.loads(text)
    rep.pop("timing", None)
    return rep


def test_report_determinism_across_processes(tmp_path):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "higherop.cli", "--json", "classifier",
           "--n", "3", "--k", "2", "--fresh"]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
        for _ in range(2)
    ]
    assert _strip_timing(runs[0].stdout) == _strip_timing(runs[1].stdout)
    body = [l for l in runs[0].stdout.splitlines() if '"ms"' not in l]
    body2 = [l for l in runs[1].stdout.splitlines() if '"ms"' not in l]
    assert body == body2
