"""Print one sha256 per seeded forrlab output, for before/after diffs.

Runs the CLI subcommands (sample with --dump-paths, sample at n = 64 on
one stream block, whose normals are drawn ahead on a worker thread, verify-prop,
verify-dynkin, verify-main on a dense and a structured covariance,
advantage --rounded, sweep, and the exact verify-lemma) with a fixed seed
and --no-timestamp at small sizes, plus the early-exit report, which no
subcommand reaches, at three shapes.  Each output file is hashed; the JSON
reports carry no wall times, so a change that keeps every draw and every
float operation prints the same lines.

Usage:
    PYTHONPATH=src python3 benchmarks/seeded_outputs.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 benchmarks/seeded_outputs.py > after.txt
    diff before.txt after.txt    # empty when the outputs are byte-identical
"""

import hashlib
import math
import os
import tempfile

from forrlab import cli
from forrlab import diffusion as diff

SEED = "7"

# (name, argv); every command gets --seed and --no-timestamp, and --out
# pointing at <name>.json; {dir} expands to the scratch directory
RUNS = [
    ("sample-n16", ["sample", "--n", "16", "--samples", "1500", "--dt-div", "256",
                    "--bits", "--dump-paths", "{dir}/sample-n16.csv"]),
    # one stream, 65536 normals a step: drawn ahead on the worker thread
    ("sample-n64-ahead", ["sample", "--n", "64", "--samples", "1024", "--dt-div", "16"]),
    ("sample-dense-bridge", ["sample", "--dim", "4", "--gamma", "0.2", "--samples", "1500",
                             "--dt-div", "256", "--bridge", "--dump-paths", "{dir}/sample-dense.csv"]),
    ("verify-prop", ["verify-prop", "--n", "16", "--samples", "1500", "--dt-div", "256"]),
    ("verify-dynkin", ["verify-dynkin", "--samples", "3000",
                       "--dump-triples", "{dir}/dynkin-triples.csv"]),
    ("verify-dynkin-n1", ["verify-dynkin", "--n", "1", "--random-function", "--samples", "2000",
                          "--dt-div", "256", "--bridge"]),
    ("verify-main", ["verify-main", "--samples", "3000", "--dt-div", "256"]),
    ("verify-main-n2", ["verify-main", "--n", "2", "--samples", "2000", "--dt-div", "256"]),
    ("advantage", ["advantage", "--n", "16", "--samples", "1500", "--dt-div", "256", "--rounded"]),
    ("sweep", ["sweep", "--n", "4..16", "--samples", "500", "--dt-div", "128"]),
    ("verify-lemma", ["verify-lemma", "--vars", "6", "--functions", "20", "--anchors", "10"]),
]

# (name, dim, gamma, epsilon, bridge, samples) for exit_probability_report;
# the last runs five dim-1 stream blocks, the last one partial, in one group
EXIT_REPORTS = [
    ("exit-report-dim1", 1, 0.0, 0.5, True, 2000),
    ("exit-report-dim4", 4, 0.2, 1.0 / (8.0 * math.log(4)), False, 2000),
    ("exit-report-dim1-blocks5", 1, 0.0, 1.0 / (8.0 * math.log(2)), True, 4500),
]


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS:
            argv = [a.format(dir=tmp) for a in argv]
            out = os.path.join(tmp, f"{name}.json")
            code = cli.main(argv + ["--seed", SEED, "--no-timestamp", "--out", out])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            print(f"{name}.json {digest(out)}")
        for name in sorted(os.listdir(tmp)):
            if name.endswith(".csv"):
                print(f"{name} {digest(os.path.join(tmp, name))}")

    for name, dim, gamma, epsilon, bridge, samples in EXIT_REPORTS:
        cov = diff.equicorrelated_covariance(dim, gamma)
        config = diff.SamplerConfig(epsilon, epsilon / 256, bridge, int(SEED))
        report = diff.exit_probability_report(cov, config, samples)
        text = report.to_json(no_timing=True).encode()
        print(f"{name} {hashlib.sha256(text).hexdigest()}")


if __name__ == "__main__":
    main()
