import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threecolor
from threecolor import (
    FAMILIES,
    count_3_colorings,
    load_plane_graph,
    pentagon_tower,
    plane_graph_to_json,
    verify,
)
from threecolor import cli
from threecolor.cli import _exact_digits, main

from builders import GRAPH_SHAPED, chorded_pentagon
from oracles import interval_main_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exported_names_are_pinned():
    # every change to the public names shows up in this list
    assert sorted(threecolor.__all__) == [
        "AbstractGraph", "BLOCK_DIAGONAL", "BoundReport",
        "BudgetExceededError", "ContainmentForest", "CycleFamily",
        "DEFAULT_BUDGET", "FAMILIES", "FalsificationError", "GraphFormatError",
        "LaminarOutcome", "PlaneGraph", "ProductBoundReport",
        "RegionPartition", "SpecialData", "TransitionMatrix",
        "annulus_subgraph", "antichain_bound", "bichromatic_components",
        "canonical_cycle", "chain_bound", "classify", "compose",
        "containment_forest", "count_3_colorings",
        "count_3_colorings_detailed", "count_with_boundary",
        "decomposition_sizes_ok", "dilworth_decompose", "dodecahedron",
        "enumerate_3_colorings", "enumerate_cycles", "extends", "extract",
        "garden_pentagons", "is_dominant", "is_doubling", "is_laminar",
        "is_triangle_free", "load_plane_graph", "low_degree_set",
        "main_bound_value", "matrix_report", "meets_main_bound",
        "meets_power_bound", "pentagon_garden", "pentagon_tower",
        "perturbed_tower", "pinned_counts", "plane_graph_to_json",
        "potential", "region_graph", "region_partition", "s_k",
        "shared_path_pentagons", "special_data", "switching_count",
        "tower_pentagons", "transition_matrix", "verify",
        "verify_product_bound",
    ]
    # a star import binds exactly these names and no submodule, which
    # stays reachable as an attribute
    namespace = {}
    exec("from threecolor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(threecolor.__all__)
    assert not any(isinstance(v, ModuleType) for v in namespace.values())
    assert threecolor.coloring.count_3_colorings is count_3_colorings


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "threecolor" in capsys.readouterr().out


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "x.json", "--nope"])
    assert exc.value.code == 2


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code, _, _ = run_cli(capsys, "generate", "--family", "tower", "--k", "3",
                         "--out", str(out))
    assert code == 0
    g = load_plane_graph(str(out))
    assert g.n == 15
    code, stdout, _ = run_cli(capsys, "count", str(out), "--json")
    record = json.loads(stdout)
    assert record["count"] == count_3_colorings(g) == 1080
    assert record["graph"] == str(out)
    assert record["budget_used"] > 0


def test_generate_is_bit_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "generate", "--family", "perturbed", "--k", "3",
            "--seed", "5", "--ops", "2", "--out", str(a))
    run_cli(capsys, "generate", "--family", "perturbed", "--k", "3",
            "--seed", "5", "--ops", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "generate", "--family", "shared",
                              "--out", "-")
    assert code == 0
    g = load_plane_graph(json.loads(stdout))
    assert g.n == 6


def test_analyze_family_and_reducible(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "4", "--out", str(tower))
    code, stdout, _ = run_cli(capsys, "analyze", str(tower), "--json")
    record = json.loads(stdout)
    assert code == 0
    assert record["outcome"] == "family"
    assert len(record["family"]) == 4
    assert len(record["chain"]) == 4
    assert len(record["antichain"]) == 1
    assert record["k"] == 213

    garden = tmp_path / "garden.json"
    run_cli(capsys, "generate", "--family", "garden", "--k", "2", "--out", str(garden))
    code, stdout, _ = run_cli(capsys, "analyze", str(garden), "--json")
    record = json.loads(stdout)
    assert record["outcome"] == "reducible"
    assert record["vertex"] is not None
    assert record["family"] is None


def test_transition_subcommand(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", str(tower))
    code, stdout, _ = run_cli(
        capsys, "transition", str(tower),
        "--outer", "v1.0,v1.1,v1.2,v1.3,v1.4",
        "--inner", "v0.0,v0.1,v0.2,v0.3,v0.4", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["raw_count"] == 180
    assert record["classification"] == "both"
    assert record["rows"] == [f"v1.{j}" for j in range(5)]


def test_transition_rejects_bad_cycles(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "3", "--out", str(tower))
    code, stdout, _ = run_cli(
        capsys, "transition", str(tower),
        "--outer", "v0.0,v0.1,v0.2,v0.3,v0.4",
        "--inner", "v2.0,v2.1,v2.2,v2.3,v2.4", "--json")
    assert code == 2
    assert json.loads(stdout.splitlines()[0])["error"] == "bad_cycle_pair"


def test_matrix_lemma_subcommand(capsys):
    code, stdout, _ = run_cli(capsys, "matrix-lemma", "--n", "12",
                              "--seed", "7", "--trials", "40", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record == {"n": 12, "pass": True, "seed": 7, "trials": 40,
                      "violations": 0}


def test_matrix_lemma_reports_its_first_failure(monkeypatch, capsys):
    real = cli.verify_product_bound
    lengths = []

    def failing(mats, kinds):
        # trials 2, 4 and 5 fail the potential step at their last matrix
        report = real(mats, kinds)
        lengths.append(len(mats))
        if len(lengths) in (3, 5, 6):
            return replace(report, potential_pass=False,
                           first_violation=len(mats) - 1)
        return report

    monkeypatch.setattr(cli, "verify_product_bound", failing)
    code, stdout, _ = run_cli(capsys, "matrix-lemma", "--n", "12",
                              "--seed", "7", "--trials", "10", "--json")
    assert code == 1
    assert json.loads(stdout) == {
        "n": 12, "pass": False, "seed": 7, "trials": 10, "violations": 3,
        "first_failure": {"trial": 2, "n": lengths[2],
                          "first_violation": lengths[2] - 1}}
    lengths.clear()
    code, stdout, _ = run_cli(capsys, "matrix-lemma", "--n", "12",
                              "--seed", "7", "--trials", "10")
    assert code == 1
    assert stdout == ("matrix chains up to length 12: 10 trials, "
                      "3 violations -> FAIL\n")


def test_verify_bounds_subcommand(tmp_path, capsys):
    files = []
    for fam, k in (("tower", 3), ("garden", 2), ("dodeca", 1)):
        path = tmp_path / f"{fam}.json"
        run_cli(capsys, "generate", "--family", fam, "--k", str(k),
                "--out", str(path))
        files.append(str(path))
    code, stdout, _ = run_cli(capsys, "verify-bounds", *files, "--json")
    assert code == 0
    records = [json.loads(line) for line in stdout.splitlines()]
    assert len(records) == 3
    assert all(r["all_pass"] for r in records)
    assert all(r["main_pass"] for r in records)


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a"]}')
    code, stdout, err = run_cli(capsys, "count", str(bad))
    assert code == 2
    assert json.loads(stdout.splitlines()[0])["error"] == "bad_schema"
    assert "input error" in err

    code, _, _ = run_cli(capsys, "count", str(tmp_path / "missing.json"))
    assert code == 2

    for doc in ({"vertices": ["a"], "rotation": {"a": 5}, "outer_face": ["a"]},
                {"vertices": ["a"], "rotation": {"a": []}, "outer_face": 3},
                {"vertices": None, "rotation": {}, "outer_face": []},
                {"vertices": "ab", "rotation": {"a": ["b"], "b": ["a"]},
                 "outer_face": ["a", "b"]}):
        bad.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "count", str(bad))
        assert code == 2, doc
        assert json.loads(stdout.splitlines()[0])["error"] == "bad_schema"
        assert "Traceback" not in err

    for argv in (("generate", "--family", "tower", "--k", "0", "--out", "-"),
                 ("generate", "--family", "perturbed", "--k", "2", "--ops", "-1",
                  "--out", "-"),
                 ("matrix-lemma", "--n", "0")):
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(stdout.splitlines()[0])["error"] == "bad_argument"


def test_nonpositive_budget_and_trials_exit_code(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", str(tower))
    pair = ("--outer", "v1.0,v1.1,v1.2,v1.3,v1.4",
            "--inner", "v0.0,v0.1,v0.2,v0.3,v0.4")
    for budget in ("0", "-5"):
        for argv in (("count", str(tower)), ("transition", str(tower), *pair),
                     ("verify-bounds", str(tower))):
            code, stdout, err = run_cli(capsys, *argv, "--budget", budget)
            assert code == 2, argv
            assert json.loads(stdout.splitlines()[0])["error"] == "bad_argument"
            assert "Traceback" not in err
    for trials in ("0", "-2"):
        code, stdout, _ = run_cli(capsys, "matrix-lemma", "--trials", trials)
        assert code == 2, trials
        record = json.loads(stdout.splitlines()[0])
        assert record["error"] == "bad_argument" and "pass" not in record
    # the smallest accepted values still run
    assert run_cli(capsys, "matrix-lemma", "--trials", "1")[0] == 0
    assert run_cli(capsys, "count", str(tower), "--budget", "1")[0] == 3


def test_unreadable_input_exit_code(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"vertices": ["\xe9"]}')
    for path, error in ((tmp_path, "unreadable_file"), (latin1, "bad_encoding")):
        for argv in (("count", str(path)), ("analyze", str(path)),
                     ("verify-bounds", str(path))):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert json.loads(stdout.splitlines()[0])["error"] == error, argv
            assert "Traceback" not in err


def test_generate_unwritable_output_exit_code(tmp_path, capsys):
    for out in (tmp_path / "missing_dir" / "x.json", tmp_path):
        code, stdout, err = run_cli(capsys, "generate", "--family", "tower",
                                    "--k", "2", "--out", str(out))
        assert code == 2, out
        record = json.loads(stdout.splitlines()[0])
        assert record["error"] == "bad_output" and record["path"] == str(out)
        assert "Traceback" not in err


def test_triangle_input_rejected_by_analyze(tmp_path, capsys):
    from builders import chorded_pentagon
    from threecolor import plane_graph_to_json
    path = tmp_path / "tri.json"
    path.write_text(plane_graph_to_json(chorded_pentagon()))
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2


def _two(**fields):
    return {"vertices": ["a", "b"], "rotation": {"a": ["b"], "b": ["a"]},
            "outer_face": ["a", "b"], **fields}


_INNER = ("--inner", "v0.0,v0.1,v0.2,v0.3,v0.4")


@pytest.mark.parametrize("command, graph, options, record", [
    ("count", _two(vertices=["a", "b", "a"]), (),
     {"error": "duplicate_vertex", "vertex": "a"}),
    ("count", _two(rotation={"a": ["b", "z"], "b": ["a"]}), (),
     {"error": "unknown_vertex", "vertex": "z"}),
    ("count", _two(rotation={"a": ["b"], "b": ["a"], "z": []}), (),
     {"error": "unknown_vertex", "vertex": "z"}),
    ("count", _two(outer_face=["a", "q"]), (),
     {"error": "unknown_vertex", "vertex": "q"}),
    ("count", {"vertices": [], "rotation": {}, "outer_face": []}, (),
     {"error": "empty_graph"}),
    ("count", None, (), {"error": "no_such_file", "path": None}),
    ("transition", pentagon_tower(2), ("--outer", "v1.0,v1.1,v1.2,v1.3,zz", *_INNER),
     {"error": "unknown_vertex", "vertex": "zz"}),
    ("transition", pentagon_tower(2), ("--outer", "v1.0,v1.1,v0.1", *_INNER),
     {"detail": "not a cycle of the graph: v0.1-v1.0 is not an edge",
      "error": "bad_cycle"}),
    ("verify-bounds", chorded_pentagon(), (),
     {"detail": "bound verification requires a triangle-free graph",
      "error": "bad_input", "path": None}),
    ("analyze", chorded_pentagon(), (),
     {"detail": "extraction requires a triangle-free graph", "error": "bad_input"}),
], ids=["duplicate_vertex", "unknown_neighbour", "unknown_rotation_key",
        "unknown_outer_face_label", "empty_graph", "no_such_file",
        "unknown_cycle_label", "bad_cycle", "verify_triangle", "analyze_triangle"])
def test_input_errors_print_their_records(tmp_path, capsys, command, graph,
                                          options, record):
    # each input error exits 2 with its record as the first stdout line;
    # a record's path (None above) is the file given
    path = tmp_path / "g.json"
    if isinstance(graph, dict):
        path.write_text(json.dumps(graph))
    elif graph is not None:
        path.write_text(plane_graph_to_json(graph))
    code, stdout, _ = run_cli(capsys, command, str(path), *options, "--json")
    record = {k: str(path) if v is None else v for k, v in record.items()}
    assert code == 2
    assert stdout.splitlines()[0] == json.dumps(record, sort_keys=True)


def test_budget_exit_code(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "4", "--out", str(tower))
    record = json.dumps({"budget": 10, "error": "budget", "graph": str(tower),
                         "n": 20})
    code, stdout, err = run_cli(capsys, "count", str(tower), "--budget", "10")
    assert code == 3
    assert stdout.splitlines() == [record]
    assert "budget" in err

    code, stdout, _ = run_cli(capsys, "transition", str(tower),
                              "--outer", "v1.0,v1.1,v1.2,v1.3,v1.4",
                              "--inner", "v0.0,v0.1,v0.2,v0.3,v0.4",
                              "--budget", "10", "--json")
    assert code == 3
    assert stdout.splitlines() == [record]

    code, stdout, _ = run_cli(capsys, "verify-bounds", str(tower),
                              "--budget", "10", "--json")
    assert code == 3
    assert json.loads(stdout.splitlines()[0])["graph"] == str(tower)


def test_verify_bounds_budget_record(tmp_path, capsys):
    # tower 4's count spends 310 updates and its whole run 700, so 320
    # runs out in a layer sweep; the record still carries the given budget
    t2, t4 = tmp_path / "t2.json", tmp_path / "t4.json"
    t2.write_text(plane_graph_to_json(pentagon_tower(2)))
    t4.write_text(plane_graph_to_json(pentagon_tower(4)))
    code, stdout, err = run_cli(capsys, "verify-bounds", str(t2), str(t4),
                                "--budget", "320", "--json")
    assert code == 3
    first, last = stdout.splitlines()
    report = verify(pentagon_tower(2), budget=320, graph_name=str(t2))
    assert first == json.dumps(report.to_json_dict(), sort_keys=True)
    assert last == json.dumps({"budget": 320, "error": "budget",
                               "graph": str(t4), "n": 20})
    assert err == ("budget exhausted: counting budget of 320 state updates "
                   "exceeded\n")


def test_generate_writes_each_family(tmp_path, capsys):
    for name, build in FAMILIES.items():
        out = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, "generate", "--family", name, "--k", "3",
                             "--seed", "1", "--ops", "2", "--out", str(out))
        assert code == 0
        assert out.read_text() == plane_graph_to_json(build(3, 1, 2)), name


def test_bound_failure_exit_code(monkeypatch, tmp_path, capsys):
    # genuine bound failures cannot occur on valid inputs, so force one
    import threecolor.cli as cli_mod

    def fake_verify(g, **kwargs):
        from threecolor.bounds import BoundReport, main_bound_value
        return BoundReport(
            graph=kwargs.get("graph_name", "g"), n=g.n, k=213,
            exact_count=1, budget_used=1,
            main_threshold=main_bound_value(g.n), main_pass=False,
            outcome="reducible", reducible_vertex=None, family_size=None,
            chain=None, antichain=None, chain_pass=None,
            antichain_pass=None, sizes_pass=None, matrix_check=None)

    monkeypatch.setattr(cli_mod, "verify", fake_verify)
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", str(tower))
    code, stdout, _ = run_cli(capsys, "verify-bounds", str(tower), "--json")
    assert code == 1
    assert json.loads(stdout)["all_pass"] is False


def test_human_output_modes(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", str(tower))
    code, stdout, _ = run_cli(capsys, "count", str(tower))
    assert code == 0
    assert "180" in stdout and not stdout.lstrip().startswith("{")


def _digit_limit():
    """The interpreter's limit on int-to-decimal digits, or None on a
    Python without one (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture(scope="module")
def tower5600(tmp_path_factory):
    """Tower 5600 (n = 28,000): its count 30 * 6**5599 has 4359 digits,
    past the default limit of 4300."""
    path = tmp_path_factory.mktemp("long") / "t5600.json"
    path.write_text(plane_graph_to_json(pentagon_tower(5600)))
    return str(path)


def test_count_prints_counts_past_the_digit_limit(tower5600, capsys):
    # the limit is lifted only while printing, and restored after
    limit = _digit_limit()
    code, stdout, _ = run_cli(capsys, "count", tower5600, "--json")
    assert code == 0 and _digit_limit() == limit
    with _exact_digits():
        record = json.loads(stdout)
    assert record["count"] == 30 * 6 ** 5599
    code, stdout, _ = run_cli(capsys, "count", tower5600)
    assert code == 0 and _digit_limit() == limit
    with _exact_digits():
        assert stdout == (f"{tower5600}: {30 * 6 ** 5599} proper 3-colorings "
                          f"({record['budget_used']} state updates)\n")


def test_transition_prints_counts_past_the_digit_limit(tower5600, capsys):
    limit = _digit_limit()
    outer = ",".join(f"v5599.{i}" for i in range(5))
    inner = ",".join(f"v0.{i}" for i in range(5))
    code, stdout, _ = run_cli(capsys, "transition", tower5600,
                              "--outer", outer, "--inner", inner, "--json")
    assert code == 0 and _digit_limit() == limit
    with _exact_digits():
        record = json.loads(stdout)
    assert record["raw_count"] == 30 * 6 ** 5599


def test_counts_print_on_a_python_without_a_digit_limit(tmp_path, capsys,
                                                         monkeypatch):
    tower = tmp_path / "t2.json"
    tower.write_text(plane_graph_to_json(pentagon_tower(2)))
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, stdout, _ = run_cli(capsys, "count", str(tower), "--json")
    assert code == 0 and json.loads(stdout)["count"] == 180


def test_verbose_logs_sweeps_to_stderr_and_keeps_stdout(tmp_path):
    # a fresh process, so that ``-v`` configures logging from scratch
    tower = tmp_path / "t3.json"
    tower.write_text(plane_graph_to_json(pentagon_tower(3)))
    env = {**os.environ, "PYTHONPATH": str(Path(threecolor.__file__).parents[1])}

    def run(*flags):
        return subprocess.run([sys.executable, "-m", "threecolor.cli", *flags,
                               "count", str(tower)], capture_output=True,
                              env=env, check=True)
    quiet, verbose = run(), run("-v")
    assert verbose.stdout == quiet.stdout
    assert quiet.stderr == b""
    assert (b"sweep of 15 vertices: 191 updates, peak 24 live states, "
            b"color orbits merged") in verbose.stderr


def test_library_runs_with_mpmath_blocked(tmp_path, capsys):
    # mpmath is only a test dependency: a process that cannot import it
    # decides the square-root bound and verifies a tower as one that can
    tower = tmp_path / "t3.json"
    tower.write_text(plane_graph_to_json(pentagon_tower(3)))
    env = {**os.environ, "PYTHONPATH": str(Path(threecolor.__file__).parents[1])}
    script = ("import sys\n"
              "sys.modules['mpmath'] = None\n"
              "from threecolor import meets_main_bound\n"
              "from threecolor.cli import main\n"
              "print(meets_main_bound(3, 1000), meets_main_bound(1023, 21200))\n"
              "sys.exit(main(['verify-bounds', sys.argv[1], '--json']))\n")
    blocked = subprocess.run([sys.executable, "-c", script, str(tower)],
                             capture_output=True, env=env)
    assert blocked.returncode == 0, blocked.stderr
    code, stdout, _ = run_cli(capsys, "verify-bounds", str(tower), "--json")
    assert code == 0
    expected = (interval_main_bound(3, 1000), interval_main_bound(1023, 21200))
    assert blocked.stdout.decode() == "%s %s\n" % expected + stdout


def test_closed_stdout_ends_quietly(tmp_path):
    # the reader stops after 100 bytes of 400 reports (about 130 kB, more
    # than a pipe holds): no traceback, and not exit 1, which means a bound
    # failed, but 141 as for a process killed by SIGPIPE
    tower = tmp_path / "t3.json"
    tower.write_text(plane_graph_to_json(pentagon_tower(3)))
    env = {**os.environ, "PYTHONPATH": str(Path(threecolor.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "threecolor.cli", "verify-bounds",
                             *[str(tower)] * 400, "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_deeply_nested_json_exit_code(tmp_path, capsys):
    # the second file overruns the decoder's int-string length limit
    for name, text in (("deep.json", "[" * 200000), ("long.json", "1" * 5000)):
        path = tmp_path / name
        path.write_text(text)
        code, stdout, err = run_cli(capsys, "count", str(path))
        assert code == 2, name
        record = json.loads(stdout.splitlines()[0])
        assert record["error"] == "bad_json"
        assert record["path"] == str(path)
        assert "Traceback" not in err


def test_path_starting_with_brace_is_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", "{t}.json")
    code, stdout, _ = run_cli(capsys, "count", "{t}.json", "--json")
    assert code == 0
    assert json.loads(stdout)["count"] == 180


def test_out_of_memory_exit_code(monkeypatch, tmp_path, capsys):
    # the sweep is made to fail; real memory is never exhausted
    import threecolor.coloring as coloring_mod

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(coloring_mod, "pinned_counts", no_memory)
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "2", "--out", str(tower))
    for argv in (("count", str(tower)), ("verify-bounds", str(tower), "--json")):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert json.loads(stdout) == {"error": "memory"}
        assert "memory" in err


_INTS = st.integers(-3, 6).map(str)
_VERTEX_LISTS = st.sampled_from([
    "v1.0,v1.1,v1.2,v1.3,v1.4", "v0.0,v0.1,v0.2,v0.3,v0.4",
    "v0.4,v0.3,v0.2,v0.1,v0.0", "v1.0,v0.0,v0.1,v0.2,v0.3", "v0.0,v0.1", "x,y"])
_FLAGS = {      # subcommand -> (positional arguments, {flag: value kind})
    "generate": (0, {"--family": "family", "--k": "int", "--seed": "int",
                     "--ops": "int", "--out": "path", "--json": None}),
    "count": (1, {"--budget": "int", "--threads": "int", "--json": None}),
    "analyze": (1, {"--k": "int", "--json": None}),
    "transition": (1, {"--outer": "cycle", "--inner": "cycle",
                       "--budget": "int", "--threads": "int", "--json": None}),
    "matrix-lemma": (0, {"--n": "int", "--seed": "int", "--trials": "int",
                         "--json": None}),
    "verify-bounds": (2, {"--k": "int", "--budget": "int", "--threads": "int",
                          "--json": None}),
}


@st.composite
def cli_argvs(draw):
    """A subcommand with some of its flags, each value drawn mostly from
    its own kind and sometimes from any kind."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    positional, flags = _FLAGS[command]
    paths = st.sampled_from(["t2.json", "missing/g.json", ".", "-"])
    kinds = {"int": _INTS, "path": paths, "cycle": _VERTEX_LISTS,
             "family": st.sampled_from(["tower", "shared", "dodeca", "garden",
                                        "perturbed"]),
             "text": st.text(max_size=4)}
    anything = st.one_of(*kinds.values())

    def value(kind):        # one value in six is of any kind
        return draw(anything if draw(st.integers(0, 5)) == 0 else kinds[kind])
    argv = [command] + [value("path") for _ in range(positional)]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 3)) == 0:       # most flags are given
            continue
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(value(flags[flag]))
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_fuzzed_argv_exits_cleanly(tmp_path_factory, argv):
    # relative paths resolve in a scratch directory holding a tower 2
    # that an earlier ``generate --out t2.json`` may have replaced
    work = tmp_path_factory.getbasetemp() / "argv"
    work.mkdir(exist_ok=True)
    (work / "t2.json").write_text(plane_graph_to_json(pentagon_tower(2)))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(argv) in (0, 1, 2, 3)
    except SystemExit as exc:
        assert exc.code in (0, 2)
    finally:
        os.chdir(cwd)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=300),
                 GRAPH_SHAPED.map(lambda d: json.dumps(d).encode())))
def test_fuzzed_file_bytes_exit_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(payload)
    assert main(["count", str(path), "--budget", "1000"]) in (0, 2, 3)
