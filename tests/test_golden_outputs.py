"""Golden outputs: the sha256 of ``sweep.csv``, ``samples.csv`` and
``trace.ndjson`` for the three benchmark scenarios at small replication
counts.

Speed-ups must leave these bytes unchanged. Only a declared generator-version
bump (``netgen.GENERATOR_VERSION``) may update the hashes, and the change
that does so says why. Float output depends on numpy's summation and sorting
code, so the test runs only on the numpy major.minor the hashes were taken
with.
"""

import hashlib

import numpy as np
import pytest

from knockon.cli import main

NUMPY_VERSION = "2.4"

# The benchmark's scenarios (bench/scenarios/), with fewer replications.
SCENARIOS = {
    "homog_baseline": """
[scenario]
n = 500
topology = homogeneous
p = 0.005
Q = 0.1
s = 0
t = 0
r_grid = 0.005:0.10:0.005
replications = 40
seed = 1
loss_rule = capped
""",
    "hetero_surcharge": """
[scenario]
n = 500
topology = heterogeneous
p = 0.005
Q = 0.1
s = 2
t = 2
r_grid = 0.005:0.05:0.005
replications = 10
seed = 1
loss_rule = capped

[surcharge]
R_s = 0.025
biggest_fraction = 0.10
""",
    "systemic_amplified": """
[scenario]
n = 2000
topology = homogeneous
p = 0.0025
Q = 0.1
s = 0
t = 0
r_grid = 0.005:0.10:0.005
replications = 3
seed = 1
loss_rule = amplified
""",
}

GOLDEN = {
    "homog_baseline": {
        "sweep.csv": "7bfaec823684a5f58b83556964bb34401e45d181d3ac24142a337047ce2aaa21",
        "samples.csv": "922064619935f36b5d28c0f0158e5832881f2389ff9945e7c71f621827c75e1f",
        "trace.ndjson": "e1b8423c8e8a9da3b63155674bd9085aabf54e345d24bad48dc15c122e640923",
    },
    "hetero_surcharge": {
        "sweep.csv": "b6641cb870a5954c55b64056c69361ceee88b9f7850a480ed1ad0d03a735c9f6",
        "samples.csv": "63d3597f5ecdaa4ff25cf9c0ccdf1f0028f6277b9ca3ea002becc3a2fae072a5",
        "trace.ndjson": "3f799719aaa153a07878ba7e304bb037be4c3cf7baf76acebe1b521bb1adab2f",
    },
    "systemic_amplified": {
        "sweep.csv": "67e684740b427a7cfc0f1e8e024c1ef8b1b0cd36e3f5802adbd727be76bb87b7",
        "samples.csv": "5b97a35b6ae6798f9906fd914e3bc5fa2063a83e121620666719d9125d2e594c",
        "trace.ndjson": "0bbaecaed8bb245a1f6d751c4deecb6c64d1b487c95cc9b44a62df73d486032a",
    },
}


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != NUMPY_VERSION,
    reason=f"hashes were taken with numpy {NUMPY_VERSION}",
)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_hashes(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(SCENARIOS[name])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--raw-samples", "--trace"]) == 0
    hashes = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert hashes == GOLDEN[name]
