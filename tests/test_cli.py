"""CLI runner: config resolution, artifacts, replay and error paths."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import msseg
from msseg.cli import (
    _solver_params,
    build_parser,
    export_colored_mesh,
    label_color,
    main,
    read_config,
    resolve_config,
    run,
)
from msseg.errors import ParameterError
from msseg.evaluation import parse_seg, rand_index_dissimilarity
from msseg.mesh import load_off
from msseg.solver import SolverParams

from _meshes import (
    RIGHT_TRIANGLE_OFF,
    dumbbell,
    dumbbell_ground_truth,
    random_closed,
    random_patch,
    write_off,
)
from _reference import colored_ply_loop, seg_text_loop


@pytest.fixture(scope="module")
def dumbbell_setup(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    mesh = dumbbell()
    mesh_path = base / "dumbbell.off"
    write_off(mesh, mesh_path)
    gt_path = base / "dumbbell_gt.seg"
    gt = dumbbell_ground_truth(mesh)
    gt_path.write_text("\n".join(str(int(x)) for x in gt) + "\n")
    return base, mesh_path, gt_path


# -- colors and export -----------------------------------------------------------


def test_label_color_palette_and_extension():
    assert label_color(0) == (228, 26, 28)
    assert label_color(3) == label_color(3)
    seen = {label_color(i) for i in range(40)}
    assert len(seen) == 40  # all distinct, including generated hues


def test_export_colored_mesh_round_trip(tmp_path):
    mesh = load_off(RIGHT_TRIANGLE_OFF)
    path = tmp_path / "tri.ply"
    export_colored_mesh(mesh, [0], path)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert f"element vertex {mesh.n_vertices}" in text
    assert f"element face {mesh.n_faces}" in text
    r, g, b = label_color(0)
    assert text[-1].endswith(f"{r} {g} {b}")


def test_export_colored_mesh_label_count_mismatch(tmp_path):
    mesh = load_off(RIGHT_TRIANGLE_OFF)
    with pytest.raises(ParameterError):
        export_colored_mesh(mesh, [0, 1], tmp_path / "x.ply")


@pytest.mark.parametrize("bad", [-1, -19, -20])
def test_export_colored_mesh_rejects_negative_labels(tmp_path, bad):
    # -1 and -19 would index the palette from its end, -20 past it
    mesh = dumbbell(n_sphere=4, n_around=6)
    labels = np.zeros(mesh.n_faces, dtype=np.int64)
    labels[3], labels[5] = bad, -2
    path = tmp_path / "x.ply"
    with pytest.raises(ParameterError,
                       match=f"^face 3 has negative label {bad}$"):
        export_colored_mesh(mesh, labels, path)
    assert not path.exists()


def test_export_distinct_colors_per_label(tmp_path):
    mesh = dumbbell(n_sphere=4, n_around=6)
    labels = np.arange(mesh.n_faces) % 3
    path = tmp_path / "m.ply"
    export_colored_mesh(mesh, labels, path)
    colors = {
        tuple(line.split()[4:]) for line in path.read_text().splitlines()
        if line.startswith("3 ")
    }
    assert len(colors) == 3


def test_export_matches_per_face_loop_beyond_palette(tmp_path):
    # 25 labels: the last six take the golden-ratio hue branch
    mesh = dumbbell(n_sphere=6, n_around=8)
    labels = np.random.default_rng(3).integers(0, 25, size=mesh.n_faces)
    assert labels.max() >= 19
    path = tmp_path / "m.ply"
    export_colored_mesh(mesh, labels, path)
    assert path.read_text() == colored_ply_loop(mesh, labels, label_color)


def test_run_writes_the_bytes_of_the_per_row_writers(tmp_path, monkeypatch):
    # the .seg and .ply blocks, each one format call, against a row at a
    # time; the labels are replaced by 25 classes, six past the palette
    mesh_path = tmp_path / "m.off"
    mesh = random_closed(150, 4)
    write_off(mesh, mesh_path)
    labels = np.random.default_rng(5).integers(0, 25, size=mesh.n_faces)
    real = msseg.cli.segment

    def relabeled(mesh, f, params):
        assert mesh.n_faces == len(labels)
        return replace(real(mesh, f, params), labels=labels)

    monkeypatch.setattr(msseg.cli, "segment", relabeled)
    run({"mesh": str(mesh_path), "k": 2, "max_outer": 2,
         "out": str(tmp_path / "out")})
    assert labels.max() >= 19
    assert (tmp_path / "out" / "m.seg").read_bytes() \
        == seg_text_loop(labels).encode()
    assert (tmp_path / "out" / "m_colored.ply").read_bytes() \
        == colored_ply_loop(mesh, labels, label_color).encode()


def test_cli_import_loads_no_unused_scipy_subpackages():
    # every module the entry point imports costs start-up time per run
    unused = ("scipy.optimize", "scipy.spatial", "scipy.stats",
              "scipy.interpolate", "scipy.ndimage")
    code = ("import sys, msseg.cli; "
            f"print([m for m in {unused!r} if m in sys.modules])")
    src = str(Path(msseg.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "[]"


# -- config handling --------------------------------------------------------------


def test_parser_flags_and_choices():
    # the flags derived from SolverParams are the flags msseg always had
    actions = {a.option_strings[0]: a for a in build_parser()._actions}
    assert set(actions) == {
        "-h", "--config", "--mesh", "--mode", "--k", "--alpha",
        "--beta-ratio", "--alpha0", "--eta", "--rp", "--rq", "--rz",
        "--inner-iters", "--tol", "--max-outer", "--seed", "--ring", "--gt",
        "--out",
    }
    assert list(actions["--mode"].choices) == ["pcms", "psms", "gpsms"]
    assert list(actions["--ring"].choices) == ["raw", "n1", "n2"]


def test_read_config_key_value_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmesh = m.off\nk = 3\nalpha = 2.5\ngt = a.seg,b.seg\n")
    config = read_config(cfg)
    assert config["mesh"] == "m.off"
    assert config["k"] == "3"
    assert config["gt"] == "a.seg,b.seg"  # the cast makes it a list
    args = build_parser().parse_args(["--config", str(cfg)])
    assert resolve_config(args)["gt"] == ["a.seg", "b.seg"]


@pytest.mark.parametrize("text, key, first", [
    ("gt = a.seg\nk = 3\n\ngt = b.seg\n", "gt", 1),
    ("gt = a.seg\nk = 3\n\nk = 3\n", "k", 2),
], ids=["gt", "k"])
def test_read_config_rejects_a_repeated_key(tmp_path, text, key, first):
    # a second line would otherwise silently replace the first
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(ParameterError, match=rf"run.cfg:4: {key} already "
                                             rf"given on line {first}$"):
        read_config(cfg)


def test_read_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ParameterError, match="bogus"):
        read_config(cfg)


def test_read_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ParameterError):
        read_config(cfg)


@pytest.mark.parametrize("text", [
    "mesh = m.off\nk = 3\n",
    json.dumps({"params": {"mesh": "m.off", "k": "3"}}),
], ids=["key-value", "json-report"])
def test_read_config_drops_a_byte_order_mark(tmp_path, text):
    # decoded by the one decoder of the mesh readers
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert read_config(cfg) == {"mesh": "m.off", "k": "3"}


def test_undecodable_config_byte_is_one_parameter_error_line(tmp_path,
                                                            capsys):
    # the byte decodes to U+FFFD, which the cast of its value rejects
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"mesh = m.off\nk = 3\xff\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error\tParameterError\tbad value '3\ufffd' for k"]


def test_command_line_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = m.off\nk = 3\nseed = 5\n")
    args = build_parser().parse_args(
        ["--config", str(cfg), "--k", "4"]
    )
    config = resolve_config(args)
    assert config["k"] == 4       # command line wins
    assert config["seed"] == 5    # config file beats defaults
    assert config["mode"] == "gpsms"  # default


def test_resolve_config_requires_mesh_and_k():
    with pytest.raises(ParameterError, match="mesh"):
        resolve_config(build_parser().parse_args([]))
    with pytest.raises(ParameterError, match="k"):
        resolve_config(build_parser().parse_args(["--mesh", "m.off"]))


@pytest.mark.parametrize("text", [
    '{"params": {"k": 3,', '{"params": 3}', '{"k": 3, "gt": 5}',
])
def test_read_config_rejects_malformed_json(tmp_path, text):
    # a gt that is no list fails in the cast, the mesh given so that the
    # missing mesh does not fail first
    cfg = tmp_path / "report.json"
    cfg.write_text(text)
    args = build_parser().parse_args(["--config", str(cfg), "--mesh", "m"])
    with pytest.raises(ParameterError):
        resolve_config(args)


# a report's params block exactly as the release before the derived schema
# wrote it: config key ``tol`` for ``outer_tol``, a resolved numeric alpha
OLD_REPORT = """{
  "params": {
    "mesh": "models/m.off",
    "mode": "psms",
    "k": 3,
    "alpha": 12.5,
    "beta_ratio": 0.5,
    "alpha0": 3.0,
    "eta": 2e-05,
    "r_p": 2.0,
    "r_q": 3.0,
    "r_z": 50.0,
    "inner_iters": 4,
    "tol": 1e-06,
    "max_outer": 20,
    "seed": 7,
    "ring": "n1",
    "out": "results",
    "gt": [
      "gt/m_a.seg",
      "gt/m_b.seg"
    ]
  },
  "n_faces": 3200,
  "n_edges": 4800,
  "converged": true
}
"""


def test_old_report_still_replays(tmp_path):
    path = tmp_path / "m_report.json"
    path.write_text(OLD_REPORT)
    config = resolve_config(build_parser().parse_args(["--config", str(path)]))
    assert _solver_params(config) == SolverParams(
        k=3, mode="psms", alpha=12.5, beta_ratio=0.5, alpha0=3.0, eta=2e-5,
        r_p=2.0, r_q=3.0, r_z=50.0, inner_iters=4, outer_tol=1e-6,
        max_outer=20, seed=7,
    )
    assert config["mesh"] == "models/m.off"
    assert config["ring"] == "n1"
    assert config["out"] == "results"
    assert config["gt"] == ["gt/m_a.seg", "gt/m_b.seg"]


def test_alpha_auto_flag_overrides_a_reported_alpha(tmp_path):
    path = tmp_path / "m_report.json"
    path.write_text(OLD_REPORT)
    args = build_parser().parse_args(["--config", str(path), "--alpha", "auto"])
    assert _solver_params(resolve_config(args)).alpha is None


def test_defaults_are_solver_params_defaults():
    config = resolve_config(
        build_parser().parse_args(["--mesh", "m.off", "--k", "3"]))
    assert _solver_params(config) == SolverParams(k=3)
    assert config["ring"] == "n2"
    assert config["out"] == "."


# -- full runs --------------------------------------------------------------------


def test_dumbbell_run_artifacts_and_convergence(dumbbell_setup, capsys):
    base, mesh_path, gt_path = dumbbell_setup
    out = base / "run1"
    code = main([
        "--mesh", str(mesh_path), "--k", "2",
        "--gt", str(gt_path), "--out", str(out),
    ])
    assert code == 0
    seg = parse_seg((out / "dumbbell.seg").read_bytes())
    assert set(seg.tolist()) == {0, 1}
    report = json.loads((out / "dumbbell_report.json").read_text())
    assert report["converged"] is True
    assert report["n_faces"] == 3200
    assert report["rand_index"]["mean"] < 2.0
    assert (out / "dumbbell_colored.ply").exists()
    printed = capsys.readouterr().out
    assert "converged" in printed
    assert "rand-index" in printed


def test_flipped_faces_run_like_their_twin_and_export_repaired(tmp_path):
    twin = random_closed(120, seed=2)
    faces = np.array(twin.faces)
    faces[5:40] = faces[5:40][:, [0, 2, 1]]
    text = write_off(twin, tmp_path / "twin.off").splitlines()
    body = [f"3 {a} {b} {c}" for a, b, c in faces.tolist()]
    (tmp_path / "flipped.off").write_text(
        "\n".join(text[:2 + twin.n_vertices] + body) + "\n")

    def args(name):
        return ["--mesh", str(tmp_path / f"{name}.off"), "--k", "2",
                "--out", str(tmp_path / name)]

    assert main(args("twin")) == 0
    with pytest.warns(RuntimeWarning, match="reversed the winding of 35 face"):
        assert main(args("flipped")) == 0
    for suffix in (".seg", "_colored.ply"):
        assert (tmp_path / "flipped" / f"flipped{suffix}").read_bytes() \
            == (tmp_path / "twin" / f"twin{suffix}").read_bytes()


def test_rerun_is_byte_identical(dumbbell_setup):
    base, mesh_path, _ = dumbbell_setup
    out_a, out_b = base / "rerun_a", base / "rerun_b"
    for out in (out_a, out_b):
        assert main(["--mesh", str(mesh_path), "--k", "2",
                     "--out", str(out)]) == 0
    assert (out_a / "dumbbell.seg").read_bytes() \
        == (out_b / "dumbbell.seg").read_bytes()
    assert (out_a / "dumbbell_colored.ply").read_bytes() \
        == (out_b / "dumbbell_colored.ply").read_bytes()


def test_replay_from_report_reproduces_run(dumbbell_setup):
    base, mesh_path, _ = dumbbell_setup
    out = base / "replay_src"
    assert main(["--mesh", str(mesh_path), "--k", "2",
                 "--out", str(out)]) == 0
    report_path = out / "dumbbell_report.json"
    # the report records the resolved (numeric) alpha
    report = json.loads(report_path.read_text())
    assert isinstance(report["params"]["alpha"], float)
    out2 = base / "replay_dst"
    assert main(["--config", str(report_path), "--out", str(out2)]) == 0
    assert (out / "dumbbell.seg").read_bytes() \
        == (out2 / "dumbbell.seg").read_bytes()


def test_ground_truth_at_output_path_is_read_before_overwrite(dumbbell_setup):
    base, mesh_path, _ = dumbbell_setup
    out = base / "gt_in_out"
    out.mkdir()
    mesh = load_off(mesh_path.read_text())
    # a truth unlike any two-sphere split: the score must be far from 0
    truth = np.arange(mesh.n_faces) % 2
    gt_path = out / "dumbbell.seg"
    gt_path.write_text("\n".join(str(int(x)) for x in truth) + "\n")
    assert main(["--mesh", str(mesh_path), "--k", "2",
                 "--gt", str(gt_path), "--out", str(out)]) == 0
    report = json.loads((out / "dumbbell_report.json").read_text())
    labels = parse_seg(gt_path.read_bytes())  # now the written output
    expected = rand_index_dissimilarity(labels, truth)
    assert report["rand_index"]["mean"] == pytest.approx(expected)
    assert report["rand_index"]["mean"] > 10.0


def test_wrong_length_ground_truth_fails_before_any_output(
        dumbbell_setup, tmp_path, capsys, monkeypatch):
    base, mesh_path, _ = dumbbell_setup
    short = tmp_path / "short.seg"
    short.write_text("0\n1\n0\n")
    out = tmp_path / "out"

    def unreached(*args, **kwargs):
        raise AssertionError("features built for a run that must fail")

    monkeypatch.setattr(msseg.cli, "feature_field", unreached)
    code = main(["--mesh", str(mesh_path), "--k", "2", "--gt", str(short),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    kind, msg = err[0].split("\t")[1:3]
    assert kind == "DimensionError"
    assert str(short) in msg and "3 labels" in msg
    assert not out.exists()


def test_missing_ground_truth_fails_before_any_output(
        dumbbell_setup, tmp_path, capsys):
    base, mesh_path, _ = dumbbell_setup
    missing = tmp_path / "missing.seg"
    out = tmp_path / "out"
    code = main(["--mesh", str(mesh_path), "--k", "2", "--gt", str(missing),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    kind, msg = err[0].split("\t")[1:3]
    assert kind == "IOError" and str(missing) in msg
    assert not out.exists()


def test_bad_mesh_fails_before_any_output(dumbbell_setup, tmp_path, capsys):
    _, _, gt_path = dumbbell_setup
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    out = tmp_path / "out"
    code = main(["--mesh", str(bad), "--k", "2", "--gt", str(gt_path),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].split("\t")[1] == "MeshFormatError"
    assert not out.exists()


@pytest.mark.parametrize("name, text, message", [
    ("vertex.off", "OFF\n3 1 0\n0 0 0\n1 0 1e400\n0 1 0\n3 0 1 2\n",
     "line 4: bad vertex line"),
    ("face.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
                 "3 0 1 99999999999999999999\n", "line 6: bad face line"),
    ("face.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                 "f 1 2 99999999999999999999\n", "line 4: bad face line"),
], ids=["off-vertex", "off-face", "obj-face"])
def test_overflowing_mesh_token_fails_before_any_output(
        tmp_path, capsys, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    out = tmp_path / "out"
    code = main(["--mesh", str(bad), "--k", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].split("\t")[1:3] == ["MeshFormatError", message]
    assert not out.exists()


def test_overflowing_ground_truth_label_fails_before_any_output(
        dumbbell_setup, tmp_path, capsys):
    _, mesh_path, gt_path = dumbbell_setup
    labels = gt_path.read_text().splitlines()
    labels[4] = "9" * 20
    bad = tmp_path / "overflow.seg"
    bad.write_text("\n".join(labels) + "\n")
    out = tmp_path / "out"
    code = main(["--mesh", str(mesh_path), "--k", "2", "--gt", str(bad),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].split("\t")[1:3] == ["MeshFormatError",
                                       "line 5: bad label line"]
    assert not out.exists()


def test_k1_rejected_with_error_record(dumbbell_setup, capsys):
    base, mesh_path, _ = dumbbell_setup
    code = main(["--mesh", str(mesh_path), "--k", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    kind, msg = err[0].split("\t")[1:3]
    assert kind == "ParameterError"
    assert msg


def test_missing_mesh_file_error(tmp_path, capsys):
    code = main(["--mesh", str(tmp_path / "absent.off"), "--k", "2"])
    assert code == 1
    line = capsys.readouterr().err.strip()
    assert line.startswith("error\t")


# As a user runs it: a subprocess with Python's default warning filters,
# where a numpy or scipy warning would print above the error line.  In
# process, this suite's "error" filter would raise the warning instead.
@pytest.mark.parametrize("flags, kind", [
    (["--mesh", "big.off", "--k", "3"], "DegenerateGeometryError"),
    (["--mesh", "p.off", "--k", "3", "--alpha", "1e308", "--eta", "1e308"],
     "ParameterError"),
    (["--mesh", "p.off", "--k", "3", "--alpha", "1e308",
      "--beta-ratio", "10"], "ParameterError"),
    (["--config", "bad.cfg"], "ParameterError"),
], ids=["mesh-x1e150", "c-inf", "beta-inf", "config-0xff"])
def test_failing_command_prints_one_stderr_line(tmp_path, flags, kind):
    mesh = random_patch(200, 5)
    write_off(mesh, tmp_path / "p.off")
    (tmp_path / "big.off").write_text(
        f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
        + "".join("%r %r %r\n" % tuple(v)
                  for v in (1e150 * mesh.vertices).tolist())
        + "".join("3 %d %d %d\n" % tuple(f) for f in mesh.faces.tolist()))
    (tmp_path / "bad.cfg").write_bytes(b"mesh = p.off\nk = 3\xff\n")
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(msseg.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "msseg.cli", *flags,
                           "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error\t{kind}\t")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts", ["-1 1 0", "3 -1 0"])
def test_negative_off_counts_are_one_format_error_line(tmp_path, capsys,
                                                       counts):
    path = tmp_path / "neg.off"
    path.write_text(RIGHT_TRIANGLE_OFF.replace("3 1 0", counts, 1))
    out = tmp_path / "out"
    code = main(["--mesh", str(path), "--k", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error\tMeshFormatError\tline 2: bad counts line"]


@pytest.mark.parametrize("fmt, bad, flags", [
    ("cfg", {"ring": "n3"}, []),
    ("cfg", {"k": "abc"}, []),
    ("cfg", {"seed": "1.5"}, []),
    ("cfg", {"alpha": "abc"}, []),
    ("cfg", {}, ["--alpha", "abc"]),
    ("cfg", {}, ["--k", "abc"]),
    ("json", {"k": 2.5}, []),
    ("cfg", {}, ["--alpha0", "nan"]),
    ("cfg", {"r_z": "inf"}, []),
    ("cfg", {"seed": "-1"}, []),
    ("cfg", {}, ["--seed", "-1"]),
], ids=["cfg-ring-n3", "cfg-k-abc", "cfg-seed-1.5", "cfg-alpha-abc",
        "flag-alpha-abc", "flag-k-abc", "json-k-2.5", "flag-alpha0-nan",
        "cfg-rz-inf", "cfg-seed-neg", "flag-seed-neg"])
def test_bad_value_is_one_parameter_error_line(dumbbell_setup, tmp_path,
                                               capsys, fmt, bad, flags):
    _, mesh_path, _ = dumbbell_setup
    config = {"mesh": str(mesh_path), "k": 2, **bad}
    cfg = tmp_path / f"run.{fmt}"
    if fmt == "json":
        cfg.write_text(json.dumps({"params": config}))
    else:
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error\tParameterError\t")
    assert not out.exists()  # rejected before any output is written


@pytest.mark.parametrize("key, val", [
    ("max_outer", True), ("seed", True), ("beta_ratio", True),
    ("k", False), ("mode", None), ("out", None), ("out", True),
])
def test_json_literal_is_one_parameter_error_line(dumbbell_setup, tmp_path,
                                                  monkeypatch, capsys,
                                                  key, val):
    # JSON true/false/null would otherwise be cast to 1, 0, "None", "True"
    _, mesh_path, _ = dumbbell_setup
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"params": {"mesh": str(mesh_path), "k": 2, key: val}}))
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error\tParameterError\tbad value {val!r} for {key}"]
    assert list(tmp_path.iterdir()) == [cfg]  # no output written


def test_json_null_alpha_is_estimated(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"params": {"mesh": "m.off", "k": 2,
                                          "alpha": None}}))
    config = resolve_config(build_parser().parse_args(["--config", str(cfg)]))
    assert _solver_params(config).alpha is None


def test_schema_round_trip_through_report(dumbbell_setup):
    base, mesh_path, _ = dumbbell_setup
    params = SolverParams(
        k=3, mode="psms", alpha=3.5, beta_ratio=0.5, alpha0=3.0, eta=2e-5,
        r_p=2.0, r_q=3.0, r_z=50.0, inner_iters=2, outer_tol=1e-4,
        max_outer=2, seed=7,
    )
    for f in fields(SolverParams):
        assert getattr(params, f.name) != f.default, f.name
    out = base / "round_trip"
    assert main([
        "--mesh", str(mesh_path), "--k", "3", "--mode", "psms",
        "--alpha", "3.5", "--beta-ratio", "0.5", "--alpha0", "3",
        "--eta", "2e-5", "--rp", "2", "--rq", "3", "--rz", "50",
        "--inner-iters", "2", "--tol", "1e-4", "--max-outer", "2",
        "--seed", "7", "--ring", "n1", "--out", str(out),
    ]) == 0
    args = build_parser().parse_args(
        ["--config", str(out / "dumbbell_report.json")])
    config = resolve_config(args)
    assert _solver_params(config) == params
    assert config["ring"] == "n1"
    assert config["out"] == str(out)


def test_run_fills_in_defaults_for_a_partial_config(dumbbell_setup):
    # the keys a library caller such as the benchmark passes
    base, mesh_path, _ = dumbbell_setup
    out = base / "partial"
    run({"mesh": str(mesh_path), "k": 2, "out": str(out)})
    written = json.loads((out / "dumbbell_report.json").read_text())["params"]
    assert isinstance(written.pop("alpha"), float)
    assert written == {
        "mesh": str(mesh_path), "mode": "gpsms", "k": 2, "beta_ratio": 1.0,
        "alpha0": 2.0, "eta": 1e-05, "r_p": 1.0, "r_q": 1.0, "r_z": 100.0,
        "inner_iters": 5, "tol": 1e-05, "max_outer": 100, "seed": 0,
        "ring": "n2", "out": str(out), "gt": [],
    }


@pytest.fixture(scope="module")
def patch_setup(tmp_path_factory):
    # a 60-point open patch and two all-zero truths: quick full runs
    base = tmp_path_factory.mktemp("patch")
    mesh = random_patch(60, 1)
    write_off(mesh, base / "p.off")
    for name in ("a.seg", "b.seg"):
        (base / name).write_text("0\n" * mesh.n_faces)
    return base


@pytest.mark.parametrize("line, n_truths", [
    ("gt = {a}, {b}", 2), ("gt = {a},,{b}", 2), ("gt =", 0),
], ids=["spaced", "empty-entry", "empty"])
def test_config_gt_is_a_comma_separated_list(patch_setup, tmp_path, line,
                                             n_truths):
    a, b = patch_setup / "a.seg", patch_setup / "b.seg"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = {patch_setup / 'p.off'}\nk = 2\n"
                   + line.format(a=a, b=b) + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    scored = json.loads((out / "p_report.json").read_text())["rand_index"]
    if n_truths:
        assert scored["files"] == [str(a), str(b)]
        assert len(scored["scores"]) == 2
    else:
        assert scored is None


def test_run_takes_one_ground_truth_as_text(patch_setup, tmp_path):
    a = str(patch_setup / "a.seg")
    report = run({"mesh": str(patch_setup / "p.off"), "k": 2,
                  "out": str(tmp_path), "gt": a})
    assert report["rand_index"]["files"] == [a]
    assert len(report["rand_index"]["scores"]) == 1


def test_run_casts_path_objects_to_text(patch_setup, tmp_path):
    report = run({"mesh": patch_setup / "p.off", "k": 2, "out": tmp_path,
                  "gt": (patch_setup / "a.seg", patch_setup / "b.seg")})
    assert report["params"]["gt"] == [str(patch_setup / "a.seg"),
                                      str(patch_setup / "b.seg")]
    assert report["params"]["mesh"] == str(patch_setup / "p.off")


@pytest.mark.parametrize("key, val", [
    ("out", b"o"), ("gt", [b"a.seg"]), ("gt", {"a.seg": 1}),
], ids=["out-bytes", "gt-bytes", "gt-mapping"])
def test_run_rejects_values_that_are_not_paths(patch_setup, tmp_path,
                                               monkeypatch, key, val):
    monkeypatch.chdir(tmp_path)
    config = {"mesh": str(patch_setup / "p.off"), "k": 2, key: val}
    with pytest.raises(ParameterError, match=f"^bad value .* for {key}$"):
        run(config)
    assert list(tmp_path.iterdir()) == []  # no output written


@pytest.mark.parametrize("key, val", [
    ("out", ["x", "y"]), ("out", 5), ("mesh", 5), ("gt", [7]),
], ids=["out-list", "out-number", "mesh-number", "gt-number"])
def test_json_value_of_another_type_is_one_parameter_error_line(
        patch_setup, tmp_path, monkeypatch, capsys, key, val):
    # str() of a list or number would otherwise name an output directory
    # or a file
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    config = {"mesh": str(patch_setup / "p.off"), "k": 2, key: val}
    cfg.write_text(json.dumps({"params": config}))
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error\tParameterError\tbad value {val!r} for {key}"]
    assert list(tmp_path.iterdir()) == [cfg]  # no output written
