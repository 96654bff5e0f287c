"""Golden digests: the sha256 of summary.csv and transitions.log for a small
fixed grid of cells, and of trace.log for the cells run with the trace on.
A change meant to keep the simulator's behaviour must leave every digest
unchanged; a change that alters behaviour on purpose updates the table here
and says why in CHANGES.md.

Print the current digests with `python tests/test_golden.py`.
"""

import hashlib
import os

import pytest

from emanetsim.config import ScenarioConfig
from emanetsim.runner import run_scenario
from emanetsim.security import AdversaryRole

BASE = dict(duration=60.0, warmup=10.0, seed=1)

CELLS = {f"{p}-n{n}": dict(protocol=p, n=n)
         for p in ("olsr", "aodv", "dsr", "cml") for n in (5, 20)}
CELLS["cml-n20-hybrid"] = dict(protocol="cml", n=20, security_mode="hybrid",
                               trace=True)
CELLS["cml-n20-ideal-hybrid"] = dict(
    protocol="cml", n=20, security_mode="hybrid", v_min=0.0, v_max=0.0,
    ideal_channel=True, bandwidth_bps=50e6, traffic_rate=0.5,
    rotation_interval=10.0, trace=True)
CELLS["cml-n20-forge-cp"] = dict(
    protocol="cml", n=20,
    adversary=AdversaryRole(behavior="forge-cp", nodes=(19,), period=20.0))

# cell -> (sha256 of summary.csv, sha256 of transitions.log[, sha256 of
# trace.log when the cell traces])
GOLDEN = {
    'aodv-n20': ('09e0ac6016d3a6510bb1e2820711c7fe5148c6a1f736ab38c859ca7c9a5c1728', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'aodv-n5': ('8101b4e5cd69ce5cf6aeb5cbc8b6610196abea6e148dd97de3af49539cab8102', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cml-n20': ('436f967e3468efd9fe947dab2987fee716fecfeaa51ead62aaeb30509edd2f7f', '2ccd8fa14806f9ff33794e123f47f4b903adab5de3d56778a79c91b08df6cb59'),
    'cml-n20-forge-cp': ('2348adebe84d8e136e498429af68a5faddf69ce12db4b9da29eb9095c0b54764', 'c8fa7c23000c39a62cea859b5aff2fd51de5611dda00c4a937927848cea6340c'),
    'cml-n20-hybrid': ('b70976f164c989222044f228380ced9cdbffb71556d8eb0a12db1b8303ae0134', '8f5d0f2b0a04d085e4ac302c9e9a11018e29d11289937a40cd0f8c6dee81e62f', 'c84a418c4f5ae46f8c7a0ec47a777b11a01e5934e4f2dcca5effa06265face46'),
    'cml-n20-ideal-hybrid': ('5a28d309a673f3694f27c6cc8afe191d1d05951181aaba461541dc25256f075c', 'eb8c55b4fb97f4d489d3cebb96b38e7ab102213b2c18ea68034d88080111af92', '5db16fc2c9057d191803f78d39b1d40aa46f4ebfe1b38e046d548d2164be1423'),
    'cml-n5': ('49c7f8a2ddbbca6aebd99dfd75d7a69b3c2361aa2a53e082aea3709a1d7221c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dsr-n20': ('a5d79a8f41e6119b76cfa65c8166355e020a29ae46a47c57be14d6c823b87923', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dsr-n5': ('0a58d34c7a551d4ed9ef02a1235542e13502e0be6562f943dce94bb59cb7b690', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'olsr-n20': ('d6792e4e6ee0e431f186560fb966c7e6081965d4ed24d84288b9c651aaac642f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'olsr-n5': ('3720a73c183183b9db1733ef7f22c2f00c3e17c9b1e096f6a4e7db92fc5b2ce3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def cell_digests(name, out_dir):
    cfg = ScenarioConfig(**BASE, **CELLS[name]).validate()
    run_scenario(cfg, out_dir=out_dir, run_name="run")
    paths = ["summary.csv", os.path.join("run", "transitions.log")]
    if cfg.trace:
        paths.append(os.path.join("run", "trace.log"))
    digests = []
    for path in paths:
        with open(os.path.join(out_dir, path), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_digests(name, tmp_path):
    assert cell_digests(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    for name in sorted(CELLS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {cell_digests(name, tmp)!r},")
