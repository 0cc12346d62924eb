import json

import pytest

from threecolor import load_plane_graph, count_3_colorings
from threecolor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_triangle_input_rejected_by_analyze(tmp_path, capsys):
    from builders import chorded_pentagon
    from threecolor import plane_graph_to_json
    path = tmp_path / "tri.json"
    path.write_text(plane_graph_to_json(chorded_pentagon()))
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2


def test_budget_exit_code(tmp_path, capsys):
    tower = tmp_path / "t.json"
    run_cli(capsys, "generate", "--family", "tower", "--k", "4", "--out", str(tower))
    code, stdout, err = run_cli(capsys, "count", str(tower), "--budget", "10")
    assert code == 3
    assert json.loads(stdout.splitlines()[0])["error"] == "budget"
    assert "budget" in err

    code, stdout, _ = run_cli(capsys, "verify-bounds", str(tower),
                              "--budget", "10", "--json")
    assert code == 3
    assert json.loads(stdout.splitlines()[0])["graph"] == str(tower)


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

    monkeypatch.setattr(cli_mod, "verify_with_budget_guard", fake_verify)
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
