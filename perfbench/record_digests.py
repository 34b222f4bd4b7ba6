"""Record SHA-256 digests of every CLI output at each config's own seed.

Usage: python3 perfbench/record_digests.py

Writes perfbench/digests.json, which the ``cli`` workload compares against.
Run it only when a change alters the reports on purpose.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    digests = {}
    os.makedirs(wl.TMP_DIR, exist_ok=True)
    outdir = os.path.join(wl.TMP_DIR, "record")
    for path in wl.config_paths():
        proc, files = wl.run_cli(["run", os.path.relpath(path, wl.ROOT)], outdir)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return 1
        digests[os.path.basename(path)] = {f: wl.sha256(b) for f, b in files.items()}
    proc, _ = wl.run_cli(["selftest"], None)
    if proc.returncode != 0:
        return 1
    digests["selftest"] = {"stdout": wl.sha256(proc.stdout)}
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
