"""Print one SHA-256 per operation of one benchmark round, or per CLI command.

    python3 tools/output_digest.py --workload steady
    python3 tools/output_digest.py --cli

runs one round of a workload of benchmark/workloads.py, each operation and
then its check, in order, as benchmark/run.py does, and prints one line per
operation: the SHA-256 of everything it returned and of its check's problem
list, then the operation's name.  The digest covers the final kinetic and
fluid fields, the layers (a deferred relaxation-class layer is read, so its
profile is marched), every InterfaceRecord field, the snapshots and the
ladder report, with every float taken bit for bit.  A grid counts by its
defining numbers: fields a dataclass leaves out of == are derived and
skipped.  --workload all prints the four workloads one after the other.

--cli runs each of the six commands of bgkcoupling.cli on its default
config, in a process of its own and a fresh temporary directory, and prints
one line per command: the SHA-256 of its exit code, its stdout and stderr and
every file it wrote under --out (manifest.json included, each file by its
relative name), then cli/ and the command's name.  Given with --workload, the
CLI lines come last.

Two checkouts whose outputs are bitwise the same print the same lines, so a
change that claims bitwise outputs diffs this tool's output at both commits.
A digest can differ between numpy versions; compare runs on one machine.
Nothing under benchmark/ is changed or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from bgkcoupling.coupling import _DeferredRelaxationLayer  # noqa: E402
from bgkcoupling.milne import LayerProfile  # noqa: E402

LAYER_FIELDS = tuple(f.name for f in dataclasses.fields(LayerProfile))
CLI_COMMANDS = ("layer", "coupled", "naive", "epsilon-sweep", "stability", "compare-couplings")


def _feed(h, obj) -> None:
    """Hash obj into h with its type, its shape and every bit of its numbers."""
    if isinstance(obj, (LayerProfile, _DeferredRelaxationLayer)):
        # read through getattr, which marches a deferred layer's profile
        h.update(b"layer")
        for name in LAYER_FIELDS:
            h.update(name.encode())
            _feed(h, getattr(obj, name))
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        # a field left out of == is derived, such as a grid's edges; its defining numbers count
        for f in dataclasses.fields(obj):
            if f.compare:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"float" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (bool, int, str, np.integer, np.bool_)) or obj is None:
        h.update(f"{type(obj).__name__} {obj!r}".encode())
    elif isinstance(obj, enum.Enum):
        h.update(f"enum {obj.value!r}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def digest_round(name: str) -> list[tuple[str, str]]:
    """(sha256, operation name) for each operation of one round of workload name."""
    lines = []
    for op in workloads.WORKLOADS[name]():
        try:
            output = op.run()
        except Exception as exc:    # a raised error is the operation's output
            output, problems = f"raised {type(exc).__name__}: {exc}", []
        else:
            problems = op.check(output)
        lines.append((digest((output, problems)), f"{name}/{op.name}"))
    return lines


def digest_cli(command: str) -> str:
    """SHA-256 of one CLI command run on its default config: exit code, stdout, stderr and every output file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        # a relative --out, so no line of the output names the temporary directory
        proc = subprocess.run(
            [sys.executable, "-m", "bgkcoupling.cli", command, "--out", "out"],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        h = hashlib.sha256()
        h.update(f"exit {proc.returncode}".encode())
        out = Path(tmp, "out")
        streams = [("stdout", proc.stdout), ("stderr", proc.stderr)]
        paths = sorted(p for p in out.rglob("*") if p.is_file())
        files = [(f"file {p.relative_to(out).as_posix()}", p.read_bytes()) for p in paths]
        for label, data in streams + files:
            h.update(f"{label} {len(data)}".encode())
            h.update(data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--cli", action="store_true", help="digest the six CLI commands on their default configs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.cli:
        parser.error("give --workload, --cli or both")
    names = [] if args.workload is None else list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for sha, op_name in digest_round(name):
            print(f"{sha}  {op_name}")
    for command in CLI_COMMANDS if args.cli else ():
        print(f"{digest_cli(command)}  cli/{command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
