"""Property test of the command line front end against one bad config value.

Each example starts from a command's default config at small sizes, sets
one key (a scenario key or an extra) to a hostile value, and runs the
command in process.  Whatever the value, the command must end in exit 0, 2
(config error) or 3 (solver failure) without an exception escaping main,
and every JSON file it writes must parse as strict JSON.
"""

import csv
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgkcoupling.cli import main
from bgkcoupling.experiments import ScenarioConfig

COMMANDS = ("layer", "coupled", "naive", "epsilon-sweep", "stability", "compare-couplings")
SMALL = {"n_x": 40, "n_xi": 8, "layer_n_y": 40, "horizon": 0.2}
KEYS = (*(f.name for f in fields(ScenarioConfig)), "layer_data", "log_every", "pair_seed", "slack")
HOSTILE = (math.nan, math.inf, -math.inf, True, False, "x", -1, 0, [1.0])
# naive_coupled_step runs no layer solve and fills these InterfaceRecord fields with NaN
NAIVE_NAN_COLUMNS = {"layer_flux", "cone_defect", "interface_defect", "layer_residual"}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _nonfinite_cells(path: Path, skip: set[str]) -> list[str]:
    rows = list(csv.reader(path.read_text().splitlines()))
    bad = []
    for row in rows[1:]:
        for column, cell in zip(rows[0], row):
            try:
                value = float(cell)
            except ValueError:
                continue    # the layer class column and empty cells
            if column not in skip and not math.isfinite(value):
                bad.append(f"{path.name}:{column}={cell}")
    return bad


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(COMMANDS), key=st.sampled_from(KEYS), value=st.sampled_from(HOSTILE))
@example(command="coupled", key="x_max", value=1e-300)    # the x > 0 half line gets no cell
@example(command="epsilon-sweep", key="x_max", value=1e300)    # the x < 0 half line gets no cell
@example(command="stability", key="x_max", value=1e-300)
@example(command="compare-couplings", key="x_max", value=1e300)
@example(command="naive", key="x_max", value=1e300)
@example(command="coupled", key="horizon", value=1e-300)    # rounds to zero steps of dt_max
@example(command="epsilon-sweep", key="horizon", value=1e-300)
@example(command="stability", key="horizon", value=1e-300)
@example(command="compare-couplings", key="horizon", value=1e-300)
@example(command="naive", key="horizon", value=1e-300)
@example(command="layer", key="pair_seed", value=math.nan)    # an extra the command never reads
@example(command="layer", key="half_width", value=1e300)    # its square, the largest flux, overflows
@example(command="stability", key="half_width", value=1e300)
@example(command="layer", key="half_width", value=10**400)    # an int no float can hold
@example(command="coupled", key="half_width", value=10**400)
@example(command="epsilon-sweep", key="layer_y_max", value=1e-300)    # the study's y windows need 3e302 cells
@example(command="epsilon-sweep", key="layer_y_max", value=1e-320)    # their cell count overflows to inf
@example(command="epsilon-sweep", key="layer_y_max", value=5e-324)    # dy rounds to zero
def test_one_bad_value_never_escapes(command, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**SMALL, key: value}))
        out = Path(tmp) / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) in (0, 2, 3)
        for path in sorted(out.glob("*.json")):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        skip = NAIVE_NAN_COLUMNS if command == "naive" else set()
        bad = [cell for path in sorted(out.glob("*.csv")) for cell in _nonfinite_cells(path, skip)]
        assert not bad, bad
