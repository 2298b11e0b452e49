"""Regenerate expected_digests.json: output digests of the exact workload.

    PYTHONPATH=src python3 perfbench/record_digests.py [first_seed last_seed]

Runs every task of the `exact` workload once per seed (default seeds 0-31),
requires each outcome to match its construction, and stores the per-task
digests of the canonical JSON outputs.  Run it only when the task generator
changes; a change to the library must reproduce the stored digests.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 31)
    table = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for seed in range(first, last + 1):
            digests = []
            for i, task in enumerate(workloads.make_tasks("exact", seed, workdir)):
                ok, dig, detail = task.check(task.run())
                if not ok:
                    print(f"seed {seed} task {i} ({task.kind}): {detail}", file=sys.stderr)
                    return 1
                digests.append(dig)
            table[str(seed)] = digests
            print(f"seed {seed}: {len(digests)} tasks", flush=True)
    path = HERE / "expected_digests.json"
    rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(digests, separators=(',', ':'))}"
                      for seed, digests in table.items())
    path.write_text('{"exact": {\n' + rows + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
