import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topraag.cli import main
from topraag.gradeddim import MAX_SB_DEGREE

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(args):
    return main([str(a) for a in args])


def test_build_edge_shift(tmp_path, capsys):
    out = tmp_path / "ball.json"
    code = run_cli(
        ["build", "--graph", CONFIGS / "edge.json", "--model", CONFIGS / "shift2.json",
         "--radius", "2", "--out", out]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["vertices"] == 27
    assert summary["degree"] == 6
    assert summary["dimension"] == 2
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 27


def test_build_trivial(capsys):
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", CONFIGS / "trivial.json", "--radius", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["vertices"] == 5


def test_build_disconnected_shift_hints(tmp_path, capsys):
    graph = tmp_path / "disc.json"
    graph.write_text(json.dumps({"vertices": ["s", "t", "x"], "edges": [["s", "t"]]}))
    code = run_cli(["build", "--graph", graph, "--model", CONFIGS / "shift2.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "connected components" in err


def test_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["s"], "edges": [["s", "s"]]}))
    code = run_cli(["build", "--graph", bad, "--model", CONFIGS / "trivial.json"])
    assert code == 2
    code = run_cli(["build", "--graph", tmp_path / "missing.json", "--model", CONFIGS / "trivial.json"])
    assert code == 2


def assert_config_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    return err


def test_graph_not_an_object_exit_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code = run_cli(["build", "--graph", bad, "--model", CONFIGS / "trivial.json"])
    assert_config_error(code, capsys)


def test_model_not_an_object_exit_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", bad])
    assert_config_error(code, capsys)


def test_model_missing_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "shift.json"
    bad.write_text(json.dumps({"kind": "shift"}))
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", bad])
    assert code == 2
    assert capsys.readouterr().err == "config error: shift model needs 'm'\n"


S3 = {"kind": "finite", "degree": 3, "U_gens": [[1, 0, 2], [1, 2, 0]]}


@pytest.mark.parametrize(
    "model, bad",
    [
        ({**S3, "O_gens": [[1, 2, 0]], "phi_images": [[1, 2, 0]], "coset_reps": [[0, 1, 2], [1, 0]]}, [1, 0]),
        (
            # U = A3 and O = 1: the transpositions lie outside U
            {**S3, "U_gens": [[1, 2, 0]], "O_gens": [], "phi_images": [],
             "coset_reps": [[0, 1, 2], [1, 0, 2], [0, 2, 1]]},
            [1, 0, 2],
        ),
    ],
    ids=["short", "outside-U"],
)
def test_coset_reps_entry_outside_U_exit_2(tmp_path, capsys, model, bad):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", path])
    assert code == 2
    assert capsys.readouterr().err == f"config error: coset_reps entry {bad} is not a permutation in U\n"


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": ["s", "t"], "edges": [["s"]]},
        {"vertices": 5},
        {"vertices": ["s", "t"], "edges": 5},
    ],
    ids=["edge-not-a-pair", "vertices-not-a-list", "edges-not-a-list"],
)
def test_malformed_graph_field_exit_2(tmp_path, capsys, graph):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(graph))
    code = run_cli(["build", "--graph", bad, "--model", CONFIGS / "trivial.json"])
    assert_config_error(code, capsys)


@pytest.mark.parametrize(
    "graph, message",
    [
        ({"vertices": [["s"], "t", None, 3]}, "graph vertex ['s'] is not a string"),
        (
            {"vertices": ["s", "t"], "edges": [["s", 3]]},
            "graph edge ['s', 3] has endpoint 3, not a string",
        ),
    ],
    ids=["vertex", "edge-endpoint"],
)
def test_graph_label_not_a_string_exit_2(tmp_path, capsys, graph, message):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(graph))
    code = run_cli(["build", "--graph", bad, "--model", CONFIGS / "trivial.json"])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "args, option",
    [
        (["build", "--radius", "-1"], "--radius"),
        (["homology", "--radius", "-1"], "--radius"),
        (["verify", "--suite", "nerve", "--radius", "-1"], "--radius"),
        (["verify", "--suite", "sb", "--n", "-1"], "--n"),
        (["build", "--cap-vertices", "-1"], "--cap-vertices"),
        (["build", "--cap-cubes", "-1"], "--cap-cubes"),
        (["homology", "--valley", "0", "--window", "-1"], "--window"),
        (["verify", "--suite", "valleys", "--window", "-1"], "--window"),
    ],
    ids=["build-radius", "homology-radius", "verify-radius", "n", "cap-vertices", "cap-cubes",
         "homology-window", "verify-window"],
)
def test_negative_number_exit_2(capsys, args, option):
    code = run_cli(args + ["--graph", CONFIGS / "edge.json", "--model", CONFIGS / "trivial.json"])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {option} must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "shift", "m": "x"}, "shift model field 'm' must be an integer, got 'x'"),
        ({"kind": "shift", "m": 2.9}, "shift model field 'm' must be an integer, got 2.9"),
        ({"kind": "shift", "m": "3"}, "shift model field 'm' must be an integer, got '3'"),
        ({"kind": "shift", "m": True}, "shift model field 'm' must be an integer, got True"),
        (
            {"kind": "finite", "degree": 3.0, "U_gens": [], "O_gens": [], "phi_images": []},
            "finite model field 'degree' must be an integer, got 3.0",
        ),
        (
            {"kind": "finite", "degree": -2, "U_gens": [], "O_gens": [], "phi_images": []},
            "finite model field 'degree' must be >= 0, got -2",
        ),
        (
            {"kind": "finite", "degree": 3, "U_gens": 5, "O_gens": [], "phi_images": []},
            "finite model field 'U_gens' must be a list of integer lists, got 5",
        ),
    ],
    ids=["m-not-an-integer", "m-float", "m-string", "m-bool", "degree-float",
         "degree-negative", "generators-not-a-list"],
)
def test_malformed_model_field_exit_2(tmp_path, capsys, model, message):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(model))
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", bad])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def build_args(graph=CONFIGS / "edge.json", model=CONFIGS / "trivial.json"):
    return ["build", "--graph", graph, "--model", model]


@pytest.mark.parametrize("option", ["graph", "model"])
def test_config_path_is_a_directory_exit_2(tmp_path, capsys, option):
    assert_config_error(run_cli(build_args(**{option: tmp_path})), capsys)


@pytest.mark.parametrize("option", ["graph", "model"])
def test_config_file_not_utf8_exit_2(tmp_path, capsys, option):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"vertices": ["é"]}'.encode("latin-1"))
    err = assert_config_error(run_cli(build_args(**{option: bad})), capsys)
    assert err.startswith(f"config error: {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("option", ["graph", "model"])
def test_config_file_truncated_json_exit_2(tmp_path, capsys, option):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"vertices": ["s"]')
    err = assert_config_error(run_cli(build_args(**{option: bad})), capsys)
    assert err.startswith(f"config error: {bad}: Expecting ',' delimiter")


@pytest.mark.parametrize(
    "args",
    [["build", "--radius", "1"], ["homology", "--valley", "0", "--window", "1"]],
    ids=["build", "homology-valley"],
)
def test_out_path_is_a_directory_exit_2(tmp_path, capsys, args):
    code = run_cli(args + ["--graph", CONFIGS / "edge.json", "--model", CONFIGS / "trivial.json",
                           "--out", tmp_path])
    assert_config_error(code, capsys)


def test_build_without_model_exit_2(capsys):
    code = run_cli(["build", "--graph", CONFIGS / "edge.json"])
    assert_config_error(code, capsys)


def test_homology_without_model_exit_2(capsys):
    code = run_cli(["homology", "--graph", CONFIGS / "edge.json"])
    assert_config_error(code, capsys)


def test_verify_without_model_exit_2(capsys):
    code = run_cli(["verify", "--suite", "nerve", "--graph", CONFIGS / "edge.json"])
    assert_config_error(code, capsys)


@pytest.mark.parametrize("model", ["s3a3.json", "trivial.json"])
def test_verify_normal_form_on_empty_graph_exit_2(tmp_path, capsys, model):
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "edges": []}')
    code = run_cli(["verify", "--suite", "normal-form", "--graph", empty, "--model", CONFIGS / model])
    err = assert_config_error(code, capsys)
    assert err == "config error: the normal-form suite needs a graph with at least one vertex\n"


def test_verify_stabilisers_on_trivial_model(capsys):
    # {1} is finite, so the brute-force stabilisers run on the trivial model
    code = run_cli(["verify", "--suite", "stabilisers", "--graph", CONFIGS / "edge.json",
                    "--model", CONFIGS / "trivial.json", "--radius", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["meta"] == {"cubes": 33}


def test_verify_honours_vertex_cap(capsys):
    code = run_cli(
        ["verify", "--suite", "stabilisers", "--graph", CONFIGS / "edge.json",
         "--model", CONFIGS / "s3a3.json", "--radius", "2", "--cap-vertices", "3"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: vertex budget 3 exhausted at radius 1\n"


def test_verify_honours_cube_cap(capsys):
    code = run_cli(
        ["verify", "--suite", "links", "--graph", CONFIGS / "edge.json",
         "--model", CONFIGS / "shift2.json", "--radius", "2", "--cap-cubes", "5"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: cube budget 5 exhausted\n"


def test_build_caps_the_model_group(tmp_path, capsys):
    # S9 has 362,880 elements: the model fails to load before any ball work
    model = tmp_path / "s9.json"
    model.write_text(json.dumps({
        "kind": "finite", "degree": 9, "O_gens": [], "phi_images": [],
        "U_gens": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]],
    }))
    code = run_cli(["build", "--graph", CONFIGS / "edge.json", "--model", model, "--radius", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: finite model group exceeds 100000 elements\n"


VALLEY_COMMANDS = pytest.mark.parametrize(
    "command",
    [["homology", "--valley", "0"], ["verify", "--suite", "valleys", "--latitude", "0"]],
    ids=["homology", "verify"],
)


@VALLEY_COMMANDS
def test_valley_honours_vertex_cap(capsys, command):
    code = run_cli(
        command + ["--graph", CONFIGS / "c4.json", "--window", "2", "--cap-vertices", "1"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: word ball vertex budget 1 exhausted\n"


@VALLEY_COMMANDS
def test_valley_honours_cube_cap(capsys, command):
    code = run_cli(command + ["--graph", CONFIGS / "edge.json", "--window", "2", "--cap-cubes", "5"])
    assert code == 1
    assert capsys.readouterr().err == "error: valley window cube budget 5 exhausted\n"


@VALLEY_COMMANDS
def test_valley_checks_a_given_model(tmp_path, capsys, command):
    # a valley window needs no model, but a --model that fails to load is an error
    missing = tmp_path / "missing.json"
    code = run_cli(command + ["--graph", CONFIGS / "c4.json", "--model", missing, "--window", "2"])
    err = assert_config_error(code, capsys)
    assert err == f"config error: [Errno 2] No such file or directory: '{missing}'\n"


def test_verify_pockets_passes(capsys):
    code = run_cli(
        ["verify", "--suite", "pockets", "--graph", CONFIGS / "edge.json",
         "--model", CONFIGS / "shift2.json", "--radius", "2"]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] and rep["meta"]["pockets"] >= 1


def test_verify_nerve_passes(capsys):
    code = run_cli(
        ["verify", "--suite", "nerve", "--graph", CONFIGS / "edge.json",
         "--model", CONFIGS / "s3a3.json", "--radius", "2"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_verify_sb(capsys):
    code = run_cli(["verify", "--suite", "sb", "--n", "3"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"]
    assert any("countably infinite" in c["name"] for c in rep["checks"])


def test_verify_sb_caps_the_degree(capsys):
    # the table holds one entry per degree, so a huge --n stops before it is built
    code = run_cli(["verify", "--suite", "sb", "--n", MAX_SB_DEGREE + 1])
    assert code == 1
    assert capsys.readouterr().err == f"error: sb homology degree {MAX_SB_DEGREE + 1} exceeds {MAX_SB_DEGREE}\n"


def test_homology_hollow_vs_filled(capsys):
    code = run_cli(
        ["homology", "--graph", CONFIGS / "k3.json", "--model", CONFIGS / "trivial.json", "--radius", "2"]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    degrees = rep["homology"]["degrees"]
    assert all(v["betti"] == 0 and not v["torsion"] for v in degrees.values())


def test_homology_valley(capsys):
    code = run_cli(["homology", "--graph", CONFIGS / "c4.json", "--valley", "0", "--window", "3"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert "persistent_reduced_betti" in rep


@pytest.mark.parametrize("command", ["build", "homology"])
def test_seed_only_on_verify(capsys, command):
    # only the verify suites draw random samples
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--seed", "1", "--graph", CONFIGS / "edge.json",
                 "--model", CONFIGS / "trivial.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = run_cli(
            ["verify", "--suite", "normal-form", "--graph", CONFIGS / "edge.json",
             "--model", CONFIGS / "s3a3.json", "--seed", "7", "--out", out]
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "job",
    [
        "build --graph configs/k3.json --model configs/s3a3.json --radius 2",
        "build --graph configs/edge.json --model configs/s3a3.json --radius 3",
        "build --graph configs/c4.json --model configs/trivial.json --radius 3",
        "build --graph configs/edge.json --model configs/shift2.json --radius 5",
        "build --graph configs/point.json --model configs/shift2.json --radius 8",
        "build --graph {work}/st.json --model configs/shift2.json --radius 4",
        "verify --suite links --graph configs/edge.json --model configs/shift2.json --radius 3",
        "verify --suite pockets --graph configs/path3.json --model configs/shift3.json --radius 3",
        "verify --suite stabilisers --graph configs/edge.json --model configs/s3a3.json --radius 2",
    ],
    ids=[
        "k3-s3a3-r2", "edge-s3a3-r3", "c4-trivial-r3",
        "edge-shift2-r5", "point-shift2-r8", "st-shift2-r4",
        "links-edge-shift2-r3", "pockets-path3-shift3-r3", "stabilisers-edge-s3a3-r2",
    ],
)
def test_automorphic_export_matches_bench_pin(tmp_path, capsys, job):
    # the benchmark pins the SHA-256 of each job's --out bytes, for a verify
    # report after dropping its seed; the pin file is read, never written.
    # {work}/st.json is the edgeless two-vertex graph of the tree regime.
    pin = json.loads((ROOT / "bench" / "pins.json").read_text())[job]
    (tmp_path / "st.json").write_text(json.dumps({"vertices": ["s", "t"], "edges": []}))
    out = tmp_path / "out.json"
    argv = [ROOT / a if a.startswith("configs/") else a for a in job.format(work=tmp_path).split()]
    assert run_cli(argv + ["--out", out]) == pin["exit"]
    data = out.read_bytes()
    if job.startswith("verify"):
        report = json.loads(data)
        report.pop("seed")
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == pin["digest"]


def test_module_invocation():
    # the child finds the package in a bare checkout as pytest itself does
    src = str(CONFIGS.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "topraag.cli", "--version"],
        capture_output=True,
        text=True,
        cwd=str(CONFIGS.parent),
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "topraag" in proc.stdout
