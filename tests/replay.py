"""Replay every CLI run of ``tests/replays.json`` on a dpkit source tree.

    python tests/replay.py SRC OUT

For each run, in corpus order, this writes ``OUT/<name>/run.json`` (the
run's config with ``"output_dir": "."``), runs

    python -W error::RuntimeWarning -m dpkit --threads 1 COMMAND run.json ARGS --no-timestamp

in ``OUT/<name>`` with ``PYTHONPATH=SRC``, and writes the exit code to
``OUT/<name>/exit_code``.  A config ``{"from": NAME, ...}`` is the config of
the earlier run NAME with the other keys of the entry replacing its own, so
each config is written once.  An ``{out}`` in ARGS stands for OUT, so a run
can read what an earlier one wrote.  The script exits 1 if any exit code differs
from the run's ``exit`` or any stderr holds a traceback.  Two OUT trees from
fresh directories compare with ``diff -r``; a run whose bytes are meant to
change says ``replay changed: <name>`` in a line added to CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUNS = json.loads(Path(__file__).with_name("replays.json").read_text())


def config(name: str) -> dict:
    """The config of the run called ``name``, with any ``from`` resolved."""
    doc = next(run["config"] for run in RUNS if run["name"] == name)
    if "from" not in doc:
        return doc
    overrides = {key: value for key, value in doc.items() if key != "from"}
    return dict(config(doc["from"]), **overrides)


def prepare(run: dict, out: Path) -> list:
    """Write ``out/<name>/run.json`` and return the dpkit arguments of the run."""
    path = out / run["name"] / "run.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(config(run["name"]), output_dir=".")) + "\n")
    args = [arg.replace("{out}", str(out)) for arg in run.get("args", [])]
    return [run["command"], str(path), *args, "--no-timestamp"]


def main(src: str, out: str) -> int:
    out = Path(out).resolve()
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    failed = []
    for run in RUNS:
        argv = prepare(run, out)
        print(f"== {run['name']}: dpkit {' '.join(argv)}", flush=True)
        # the run directory as working directory: no dpkit there shadows SRC
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "dpkit", "--threads", "1", *argv],
            cwd=out / run["name"], env=env, stderr=subprocess.PIPE, text=True,
        )
        sys.stderr.write(proc.stderr)
        (out / run["name"] / "exit_code").write_text(f"{proc.returncode}\n")
        if proc.returncode != run["exit"] or "Traceback" in proc.stderr:
            print(f"FAIL {run['name']}: exit {proc.returncode}, expected {run['exit']}", flush=True)
            failed.append(run["name"])
    print(f"{len(RUNS) - len(failed)}/{len(RUNS)} runs as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
