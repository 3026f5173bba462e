"""End-to-end runs of the command line front end in process."""

import json

import pytest

from bgkcoupling.cli import main

SMALL = {
    "n_xi": 20,
    "x_min": -0.5,
    "x_max": 0.5,
    "n_x": 40,
    "horizon": 0.05,
    "layer_y_max": 10.0,
    "layer_n_y": 100,
}


def write_config(tmp_path, name="config.json", **kw):
    cfg = {**SMALL, **kw}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def test_layer_command_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["layer", "--config", cfg, "--out", str(out)]) == 0
    profile = (out / "layer_profile.csv").read_text().splitlines()
    assert profile[0].startswith("y,xi_")
    assert len(profile) == 1 + SMALL["layer_n_y"] + 1  # header + nodes
    summary = read_json(out / "layer_summary.json")
    assert summary["classification"] == "relaxation"
    assert summary["u_infinity"] == pytest.approx(0.6, abs=1e-12)
    assert summary["back_flux_mass"] == pytest.approx(0.0, abs=1e-12)
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "ok"
    assert manifest["command"] == "layer"
    assert set(manifest["outputs"]) == {"layer_profile.csv", "layer_summary.json", "manifest.json"}
    assert len(manifest["config_sha256"]) == 64


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, scenario="steady_shock")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["coupled", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["coupled", "--config", cfg, "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    assert names1 == sorted(p.name for p in out2.iterdir())
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_coupled_outputs_have_headers(tmp_path):
    cfg = write_config(tmp_path, scenario="relaxation")
    out = tmp_path / "out"
    assert main(["coupled", "--config", cfg, "--out", str(out)]) == 0
    heads = {
        "interface_log.csv": "time,flux_out,v,u_trace,layer_flux",
        "kinetic_final.csv": "x,xi_",
        "fluid_final.csv": "x,u",
    }
    for name, prefix in heads.items():
        first = (out / name).read_text().splitlines()[0]
        assert first.startswith(prefix), name
    summary = read_json(out / "summary.json")
    assert summary["mode"] == "limit"
    assert summary["n_steps"] * summary["dt"] == pytest.approx(SMALL["horizon"], abs=1e-14)


@pytest.mark.parametrize(
    "key, value",
    [
        ("bogus", 1),
        # removed options: the march always warm-starts and refines, and
        # the ladder's comparison windows are fixed
        ("warm_start", "no"),
        ("refine_full_runs", "no"),
        ("compare_y_max", -1),
        ("sweep_window_y", 0),
        # the layer solver's tolerances are constants
        ("tol_fix", 1e-9),
        ("max_iter", 5),
        ("tol_class", 1e-3),
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "layer_data, message",
    [
        ({"flux": "x"}, "layer_data.flux: must be a finite number"),
        ({"flux": True}, "layer_data.flux: must be a finite number"),
        # NaN passes LayerData's range test written as two comparisons, and
        # classify calls it shock class; the sweep never converges
        ({"flux": float("nan")}, "layer_data.flux: must be a finite number"),
        ({"flx": 0.5}, "layer_data: unknown key 'flx'"),
        (5, "layer_data: must be a JSON object"),
        ({"incoming": 3}, "layer_data.incoming: must be a JSON object"),
        ({"incoming": {"u": "a"}}, "layer_data.incoming.u: must be a finite number"),
        ({"incoming": {"kind": "indicator", "height": "h"}}, "layer_data.incoming.height: must be a finite number"),
        ({"incoming": {"kind": "zero", "u": 0.3}}, "layer_data.incoming: unknown key 'u'"),
        ({"incoming": {"kind": ["zero"]}}, "layer_data.incoming.kind: unknown kind"),
    ],
)
def test_invalid_layer_data_is_config_error(tmp_path, capsys, layer_data, message):
    cfg = write_config(tmp_path, layer_data=layer_data)
    out = tmp_path / "out"
    assert main(["layer", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["coupled", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["layer", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_invalid_scenario_value_is_config_error(tmp_path):
    cfg = write_config(tmp_path, scenario="warp_drive")
    assert main(["coupled", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_short_ladder_is_config_error(tmp_path):
    cfg = write_config(tmp_path, epsilons=[0.2, 0.1])
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_solver_failure_marks_manifest(tmp_path):
    # the naive exchange on the standing shock violates the CFL bound in
    # finite time; the run must exit 3 and flag its partial manifest
    cfg = write_config(tmp_path, scenario="steady_shock", horizon=0.5)
    out = tmp_path / "out"
    assert main(["naive", "--config", cfg, "--out", str(out)]) == 3
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "FAILED"
    assert manifest["error"]
    # the march up to the failed step is kept
    prefix_files = {"interface_log.csv", "kinetic_final.csv", "fluid_final.csv", "summary.json"}
    assert set(manifest["outputs"]) == prefix_files | {"manifest.json"}
    summary = read_json(out / "summary.json")
    assert 0 < summary["failed_step"] < summary["n_steps"]
    assert summary["failed_time"] == summary["failed_step"] * summary["dt"]
    assert summary["final_time"] == pytest.approx(summary["failed_time"], abs=1e-14)
    log = (out / "interface_log.csv").read_text().splitlines()
    assert len(log) == 1 + summary["failed_step"]


def test_compare_relaxation_agrees(tmp_path):
    cfg = write_config(tmp_path, scenario="relaxation")
    out = tmp_path / "out"
    assert main(["compare-couplings", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["agrees"] is True
    assert summary["naive_failed"] is False
    assert summary["final_distance"] < 1e-10
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "time,l1_distance,limit_u_first_cell,naive_u_first_cell"
    assert len(lines) > 1


def test_compare_survives_naive_blowup(tmp_path):
    cfg = write_config(tmp_path, scenario="steady_shock", horizon=0.5)
    out = tmp_path / "out"
    assert main(["compare-couplings", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["naive_failed"] is True
    assert summary["agrees"] is False
    assert summary["naive_error"].startswith("CflError")
    assert summary["naive_time_reached"] < 0.5
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "ok"


def test_epsilon_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, scenario="steady_shock", horizon=0.1)
    out = tmp_path / "out"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["epsilons"] == [0.2, 0.1, 0.05]
    assert len(report["kinetic_errors"]) == 3
    assert report["negative_mass"] is not None
    assert set(report["monotone"]) == {"kinetic", "fluid", "negative_mass"}
    header = (out / "errors.csv").read_text().splitlines()[0]
    assert header == "eps,kinetic_l1,fluid_l1,negative_mass"


def test_stability_outputs(tmp_path):
    cfg = write_config(tmp_path, scenario="relaxation", pair_seed=1, slack=0.1, log_every=2)
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert isinstance(report["ok"], bool)
    assert len(report["times"]) == len(report["distances"])
    assert report["slack"] == 0.1
    assert (out / "distances.csv").read_text().splitlines()[0] == "time,distance"
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["_extras"] == {"log_every": 2, "pair_seed": 1, "slack": 0.1}


@pytest.mark.parametrize(
    "command, log_every",
    [("coupled", -1), ("naive", -1), ("compare-couplings", 0), ("stability", 0), ("coupled", "ten")],
)
def test_invalid_log_every_is_config_error(tmp_path, command, log_every):
    # compare-couplings and stability compare snapshots, so they need at least
    # one; coupled and naive take 0 as "no snapshots"
    cfg = write_config(tmp_path, scenario="relaxation", log_every=log_every)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [("slack", "x"), ("slack", -0.1), ("pair_seed", "x"), ("pair_seed", -1)],
)
def test_invalid_stability_extras_are_config_errors(tmp_path, key, value):
    cfg = write_config(tmp_path, scenario="relaxation", **{key: value})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [("log_every", 2.7), ("log_every", True), ("slack", True), ("pair_seed", "3"), ("pair_seed", 2.0)],
)
def test_stability_extras_are_not_coerced(tmp_path, capsys, key, value):
    # the extras follow the scenario keys' rule: a bool is not a number and an
    # integer key takes only integers, so nothing is truncated or coerced while
    # the manifest would record the raw value
    cfg = write_config(tmp_path, scenario="relaxation", horizon=0.05, **{key: value})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("seed", [-3, 1.5])
def test_invalid_seed_is_config_error(tmp_path, seed):
    # stability draws its states from seeds 2 * pair_seed + seed and the next
    # one; a negative or fractional seed must stop before any work starts
    cfg = write_config(tmp_path, scenario="relaxation", horizon=0.05, seed=seed)
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "key, value, command",
    [
        ("n_x", "abc", "coupled"),
        ("horizon", "1", "coupled"),
        ("epsilons", 5, "epsilon-sweep"),
        # JSON's NaN passes every range check written as a comparison
        ("layer_y_max", float("nan"), "coupled"),
    ],
)
def test_wrong_typed_value_is_config_error(tmp_path, capsys, key, value, command):
    cfg = write_config(tmp_path, scenario="relaxation", **{key: value})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# the extras each command reads; every other extra it holds is checked all the same
READS = {
    "layer": {"layer_data"},
    "coupled": {"log_every"},
    "naive": {"log_every"},
    "epsilon-sweep": set(),
    "stability": {"log_every", "pair_seed", "slack"},
    "compare-couplings": {"log_every"},
}
NAN_EXTRAS = {"log_every": float("nan"), "pair_seed": float("nan"), "slack": float("nan"), "layer_data": {"flux": float("nan")}}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, reads in READS.items() for key in sorted(set(NAN_EXTRAS) - reads)],
)
def test_unread_extra_is_checked(tmp_path, capsys, command, key):
    # an extra the command ignores is checked all the same, so no NaN reaches manifest.json
    cfg = write_config(tmp_path, scenario="relaxation", **{key: NAN_EXTRAS[key]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_manifest_records_unread_extras_as_strict_json(tmp_path):
    extras = {"log_every": 0, "pair_seed": 3, "slack": 0.5, "layer_data": {"flux": 0.1}}
    cfg = write_config(tmp_path, **extras)
    out = tmp_path / "out"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["config"]["_extras"] == extras
