"""Record the outputs the benchmark checks its steps against.

    python3 perfbench/record_expected.py [COMMIT-ID]

Runs every gram step at every point and every basis step of
`perfbench/run.py` once, through the same command line the benchmark
times, and writes `perfbench/expected.json`.  Run it only at a commit whose
outputs are trusted: the record is what later commits are held to.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import run


def cli(argv):
    out = subprocess.run(
        [sys.executable, "-m", "tonalg.cli"] + argv,
        env=run.step_env(), cwd=run.ROOT, capture_output=True, check=True, timeout=600,
    )
    return out.stdout


def main(argv):
    record = {"recorded_at": argv[0] if argv else None, "gram": {}, "basis": {}}
    for mu in run.GRAM_LABELS:
        entry = None
        for point in run.POINTS:
            got = json.loads(cli(run.step_argv(run.Step("gram", run.GRAM_L, run.GRAM_N, (mu, point)), None)))
            if entry is None:
                entry = {k: got[k] for k in ("dim", "generic_rank", "det")}
                entry["rank_at"] = {}
            entry["rank_at"][point] = got["rank_at"]
        record["gram"]["%d,%d,%s" % (run.GRAM_L, run.GRAM_N, mu)] = entry
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        out_path = os.path.join(tmp, "out")
        for step in run.workload_steps("basis-enum", 0):
            cli(run.step_argv(step, out_path))
            with open(out_path, "rb") as fh:
                data = fh.read()
            record["basis"]["%d,%d" % (step.l, step.n)] = {
                "count": json.loads(data)["count"],
                "sha256": hashlib.sha256(data).hexdigest(),
            }
    with open(run.EXPECTED, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
