"""Golden digests: the sha256 of summary.csv, transitions.log and
manifest.ini for a small fixed grid of cells, and of trace.log for the cells
run with the trace on, plus the sha256 of summary.csv, means.csv,
cumulative.csv and manifest.ini for one sweep.
A change meant to keep the simulator's behaviour must leave every digest
unchanged; a change that alters behaviour on purpose updates the table here
and says why in CHANGES.md.

Print the current digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import os

import pytest

from emanetsim.config import PROTOCOLS, ScenarioConfig, SweepSpec
from emanetsim.runner import run_scenario, run_sweep

BASE = dict(duration=60.0, warmup=10.0, seed=1)

CELLS = {f"{p}-n{n}": dict(protocol=p, n=n)
         for p in ("olsr", "aodv", "dsr", "cml") for n in (5, 20)}
for name in ("aodv-n20", "dsr-n20", "olsr-n20"):
    CELLS[name]["trace"] = True
# OLSR at N=50 has the most equal-length route ties
CELLS["olsr-n50"] = dict(protocol="olsr", n=50, trace=True)
CELLS["cml-n20-hybrid"] = dict(protocol="cml", n=20, security_mode="hybrid",
                               trace=True)
CELLS["cml-n20-ideal-hybrid"] = dict(
    protocol="cml", n=20, security_mode="hybrid", v_min=0.0, v_max=0.0,
    ideal_channel=True, bandwidth_bps=50e6, traffic_rate=0.5,
    rotation_interval=10.0, trace=True)
CELLS["cml-n20-forge-cp"] = dict(
    protocol="cml", n=20,
    adversary_behavior="forge-cp", adversary_nodes=(19,), adversary_period=20.0)
# the only cell that switches nodes off and back on during a run
CELLS["cml-n20-oscillate"] = dict(
    protocol="cml", n=20,
    adversary_behavior="oscillate", adversary_nodes=(18, 19),
    adversary_period=20.0)

# cell -> (sha256 of summary.csv, sha256 of transitions.log[, sha256 of
# trace.log when the cell traces])
GOLDEN = {
    'aodv-n20': ('09e0ac6016d3a6510bb1e2820711c7fe5148c6a1f736ab38c859ca7c9a5c1728', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e625c822b7057e840760deebb6f2497ca0619ab63ace6f53133acf79fa430bba'),
    'aodv-n5': ('8101b4e5cd69ce5cf6aeb5cbc8b6610196abea6e148dd97de3af49539cab8102', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cml-n20': ('436f967e3468efd9fe947dab2987fee716fecfeaa51ead62aaeb30509edd2f7f', '2ccd8fa14806f9ff33794e123f47f4b903adab5de3d56778a79c91b08df6cb59'),
    'cml-n20-forge-cp': ('2348adebe84d8e136e498429af68a5faddf69ce12db4b9da29eb9095c0b54764', 'c8fa7c23000c39a62cea859b5aff2fd51de5611dda00c4a937927848cea6340c'),
    'cml-n20-hybrid': ('b70976f164c989222044f228380ced9cdbffb71556d8eb0a12db1b8303ae0134', '8f5d0f2b0a04d085e4ac302c9e9a11018e29d11289937a40cd0f8c6dee81e62f', 'cf72257462c6931f705aa04facbcdd8141b0ebac4e4e06d56a9253d4e43ddf8f'),
    'cml-n20-ideal-hybrid': ('5a28d309a673f3694f27c6cc8afe191d1d05951181aaba461541dc25256f075c', 'eb8c55b4fb97f4d489d3cebb96b38e7ab102213b2c18ea68034d88080111af92', '8a24c6288945d480ca61edf12f9ef9dfa9ed7bca34a758a69fde10684d992cda'),
    'cml-n20-oscillate': ('0253d02f702faba32c484b65947931e9536718d0b2584ebb0b4afd5a853a66e6', 'b98458c117b4ac54b30632d0a96ac76dd62bdc617b055f3b1470813d34aa32c5'),
    'cml-n5': ('49c7f8a2ddbbca6aebd99dfd75d7a69b3c2361aa2a53e082aea3709a1d7221c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dsr-n20': ('1c721977eebced18c5b6b3aae534a5c288bf30d5b67b685e7f0a633ad2a3ab4e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7be868ab24dfeea3e15fb101584c81312fdf03a87ad29b48b336ff573d285b0a'),
    'dsr-n5': ('0a58d34c7a551d4ed9ef02a1235542e13502e0be6562f943dce94bb59cb7b690', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'olsr-n20': ('d6792e4e6ee0e431f186560fb966c7e6081965d4ed24d84288b9c651aaac642f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b6ae6bb3d516290b0d25b97d501919b9c36a955690f07180985db557f4f6ba91'),
    'olsr-n5': ('3720a73c183183b9db1733ef7f22c2f00c3e17c9b1e096f6a4e7db92fc5b2ce3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'olsr-n50': ('2968ac0ef67cbdbf6b81a8f14456c23f7c769655baf2eba4a9adb27f2fde5155', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '11c22f6402c35e2812feb98b4946798058a2a3582cd6644df69be1a26b7c5dc6'),
}

# cell -> sha256 of its manifest.ini, the resolved config written back
MANIFEST = {
    'aodv-n20': '63334812bf93e1f4e4fa030c673eda476588176d6f3cdbbb9e66af2cf86f0a14',
    'aodv-n5': '4de828f30778a1a612b5552c7bc42ef7d354371105b8d0a82972c29faf91fbde',
    'cml-n20': '8f4b19a9d31b561f4ff65351a976273993858afc5e22e8e0af10a59bded85fc9',
    'cml-n20-forge-cp': '33d249aecc4ae69b59f5e0161864604f989e925a21f903287045cc780da8ce56',
    'cml-n20-hybrid': 'b543619c5014e178d3097f3b03b813c6f269c5a6cccf891a6f37d8e266397fb0',
    'cml-n20-ideal-hybrid': 'c0e2d2738798b055a6a1a718b82141f434e7c760e3454a59506ea40a4dffe288',
    'cml-n20-oscillate': 'e731a8b7d89b45af589ecc8c9eb1e6e0d22aa5dcd018975625a3d07153c20c5e',
    'cml-n5': '0421be13e8245405389f0ffa6bf24b66f9c9def688b600434d27e5c31a62308b',
    'dsr-n20': 'cf835d49cc6acdc54d5a40f6368435c7d08d4de6339054fa771948554bc563ea',
    'dsr-n5': '12fb547b18818a620f88db89172714e7e6eb2a5ff3361579f3f86368cd1e4f85',
    'olsr-n20': '03c5b1f0e9b2441d0acfe75cce363593848a0826b89c5c798a21a7eb8988d039',
    'olsr-n5': '52060c37d154fb6952c78f30fe827d57f29b7949c5fdfa855f25fab4ec126807',
    'olsr-n50': 'a61a31f87fc950175e0afe0087af5b07f7f3a2c80acb06a80c7eac0f24545a90',
}

# cell -> sha256 of its trace.log with every rx line expanded into one line
# per receiver, "t<TAB>receiver<TAB>rx<TAB>KIND", the form the trace had while
# each receiver had an rx event of its own. The five contended cells keep the
# trace digests they had then; the ideal cell's is its trace of then with the
# tx-end lines removed, since the ideal channel no longer has that event.
# Equal digests show that one rx event per transmission only regrouped the
# trace. dsr-n20's entry was re-taken when DSR stopped reading the neighbour
# map and began sending route errors when the MAC gives up.
EXPANDED_TRACE = {
    'aodv-n20': '6656eda752a732441b894e73a9f6bcfd3cf6ba3aa07b9df284935a3eb8749432',
    'cml-n20-hybrid': 'c84a418c4f5ae46f8c7a0ec47a777b11a01e5934e4f2dcca5effa06265face46',
    'cml-n20-ideal-hybrid': '4e9b7a58990e96fa341c85279d175ad77b3b40298ea01ab46dcafeb4591d5b7e',
    'dsr-n20': 'f6523bf642032c1aa76025e65f690c117310ba6f9467d5a408bd8b2d58dfedf2',
    'olsr-n20': '7ff319bddf0312b5beec03d5b864777fb2e667262eeb226883c3464bdc4525a4',
    'olsr-n50': '07aca7d9cc2b8222850ab48599428c1d58940ae2a4dd6f654b22cc268b472677',
}

# 48 runs; the sparse traffic leaves some cells without deliveries, so the
# sweep writes NaN means and takes the NaN-as-zero cumulative path.
SWEEP = SweepSpec(base=ScenarioConfig(duration=60.0, warmup=10.0,
                                      traffic_rate=0.1),
                  sizes=(2, 5, 10), seeds=(1, 2), protocols=PROTOCOLS,
                  security_modes=("none", "hybrid"))
SWEEP_FILES = ("summary.csv", "means.csv", "cumulative.csv", "manifest.ini")
SWEEP_GOLDEN = (
    '35951ab900d686df81beaad1726d14129e01b4f2baa67c6f4ff9aee3d10e5446',
    '0684193f6a416987d8c0413f74a92ad4b49235dacd8642347417ae2287ae5f98',
    '09895c8ed28f1c59464eaa1c64dd1648aaed301d1523e8d4484d6d568ffbf45b',
    '74066dcb063ee9a743d7614b9d07ae0d7fe519dfda6e25cfbd4a2d3f046b3d6d')


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cell_digests(name, out_dir):
    cfg = ScenarioConfig(**BASE, **CELLS[name]).validate()
    run_scenario(cfg, out_dir=out_dir, run_name="run")
    paths = ["summary.csv", os.path.join("run", "transitions.log")]
    if cfg.trace:
        paths.append(os.path.join("run", "trace.log"))
    return tuple(sha256_of(os.path.join(out_dir, p)) for p in paths)


def expanded_trace_digest(path):
    """sha256 of a trace.log whose rx lines, "t<TAB>sender<TAB>rx<TAB>KIND>3,7",
    are each replaced by one "t<TAB>receiver<TAB>rx<TAB>KIND" line per
    receiver."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            t, node, kind, detail = line.split(b"\t", 3)
            if kind != b"rx":
                digest.update(line)
                continue
            frame_kind, receivers = detail.rstrip(b"\n").split(b">")
            for v in receivers.split(b","):
                digest.update(b"%s\t%s\trx\t%s\n" % (t, v, frame_kind))
    return digest.hexdigest()


def sweep_digests(out_dir):
    run_sweep(SWEEP, out_dir=out_dir)
    return tuple(sha256_of(os.path.join(out_dir, p)) for p in SWEEP_FILES)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_digests(name, tmp_path):
    assert cell_digests(name, str(tmp_path)) == GOLDEN[name]
    assert sha256_of(os.path.join(str(tmp_path), "run", "manifest.ini")) == \
        MANIFEST[name]


@pytest.mark.parametrize("name", sorted(EXPANDED_TRACE))
def test_expanded_trace_matches_per_receiver_trace(name, tmp_path):
    cell_digests(name, str(tmp_path))
    path = os.path.join(str(tmp_path), "run", "trace.log")
    assert expanded_trace_digest(path) == EXPANDED_TRACE[name]


def test_golden_sweep_digests(tmp_path):
    assert sweep_digests(str(tmp_path)) == SWEEP_GOLDEN


if __name__ == "__main__":
    import tempfile
    for name in sorted(CELLS):
        with tempfile.TemporaryDirectory() as tmp:
            digests = cell_digests(name, tmp)
            manifest = sha256_of(os.path.join(tmp, "run", "manifest.ini"))
            print(f"    {name!r}: {digests!r},  # manifest {manifest!r}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"SWEEP_GOLDEN = {sweep_digests(tmp)!r}")
