"""The simulated results of the paper's experiments, pinned by digest.

Figure 4(a)-(c) and Table 2 are simulated time and modelled bytes, so a
change that only makes the code faster leaves every one of them unchanged.
One child process under ``PYTHONHASHSEED=0`` (LSM Bloom false positives
follow the salted ``hash(bytes)``) runs each experiment at a small scale and
prints the SHA-256 of its result's ``repr``; each must equal the digest
below.  A change that moves a charge on purpose updates the digest it moves
and says why in the same commit.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

CHILD = """
import hashlib
from repro.bench.experiments import fig4a, fig4b, fig4c, table2

runs = {"fig4a": lambda: fig4a(1000, (200, 400))}
for b in ("psql", "lsm", "crypto-shred"):
    runs[f"fig4b {b}"] = lambda b=b: fig4b(1000, 300, backend=b)
    runs[f"fig4c {b}"] = lambda b=b: fig4c((500, 1000), 300, backend=b)
    runs[f"table2 {b}"] = lambda b=b: table2(1000, 300, backend=b)
for name, run in runs.items():
    print(name, hashlib.sha256(repr(run()).encode()).hexdigest(), sep="=")
"""

PINNED = {
    "fig4a": "806e1567bc33ca93984de88f486864c201a6c2271ef9695901afe25ddd04f5fe",
    "fig4b psql": "0993340829dda2ae76a26adf3d5290fa34f01e33c8e507b23e76d0e8209d48cd",
    "fig4c psql": "c98d299bcd1d8d75dbf404d4f9e6e1c6e5372205be87e5fa4916705a7deb4508",
    "table2 psql": "d4e91a5d4263890fed7515f11dd12c51eeeb0d16acb18b8de7de693e12104ea2",
    "fig4b lsm": "383b2360b256a8022c4dbb07624ac90b1a7f8a3da8b996e8af5532cd0dc4d203",
    "fig4c lsm": "7e700cb95ebd2e8e2dbd595dcaf46e3610d997edb2c89c21a21fbe4356026b75",
    "table2 lsm": "2fca04ed4a2383a19e8376fcc5a5217faa7e711622c44c4b11dd1384d102cf5f",
    "fig4b crypto-shred": "c95db5647536607987baeee89a526592fbcd1b9d9057e15645ffe86bfbb61643",
    "fig4c crypto-shred": "9bf40bc1a162f4168caf7b94ece4c3f74e9c7587cbb292f574ef8066473dad65",
    "table2 crypto-shred": "3c4b72814689c1b9612aca2723c1f4f875b78e6274681d3f93c3c0bd06ecc6e6",
}


def test_experiment_results_match_their_pinned_digests():
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    got = dict(line.split("=") for line in done.stdout.splitlines())
    moved = {name: got.get(name) for name in PINNED if got.get(name) != PINNED[name]}
    assert not moved, f"simulated results moved: {moved}"
    assert got.keys() == PINNED.keys()
