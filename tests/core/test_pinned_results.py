"""Pinned results: SHA-256 digests of runs and warm images.

``test_faststep_equivalence.py`` compares the fast loop with the
reference ``step()`` loop, so it cannot see a change in code both loops
share: the L1 access, the squash path, functional warmup.  These
digests can.  They were computed before that shared code was last
rewritten, and a change to any simulated number shows up as a
mismatch here.

* ``RUN_DIGESTS``: ``dataclasses.asdict(SimResult)`` of a small-budget
  single-core grid, each run built as a :class:`RunSpec` and executed
  by :func:`run_spec` (its own functional warmup, no warm-image store).
  The grid covers the six static fetch policies, two thread counts of
  ICOUNT.2.8, the four issue policies, the three speculation modes, the
  Section 7 resource experiments, ITAG, BIGQ, the unmodified
  superscalar and an MSHR override.  Under ``REPRO_CHECK_INVARIANTS=1``
  the sanitizer rides along and forces the reference loop, which must
  reproduce the same digests.
* ``IMAGE_DIGESTS``: the :class:`WarmImage` captured after functional
  warmup, for every profile at 1, 4 and 8 threads: the cache tags, the
  TLB maps, the predictor, the warm length and, per thread, the
  correct-path instructions consumed, ``fetch_pc``,
  ``last_data_addr`` and the frame map.  (An image once held each
  thread's emulator registers and memory; these digests were computed
  from such images, without those fields, before images dropped them.)
* ``DOCUMENT_DIGESTS``: the bytes of ``repro run --metrics-json`` run
  documents (result, telemetry rows, histograms, policy telemetry) for
  five configurations and sampling intervals.  They were computed when
  an attached telemetry sampler still forced the reference loop; it now
  samples on the fast loop.

To print the table for the tree on ``PYTHONPATH`` (say, to pin a
deliberate change of results)::

    PYTHONPATH=src python tests/core/test_pinned_results.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from array import array

import pytest

from repro import cli
from repro.core.config import FETCH_POLICIES, SMTConfig, scheme
from repro.experiments.parallel import RunSpec, build_simulator, run_spec
from repro.experiments.runner import RunBudget
from repro.workloads import images

BUDGET = RunBudget(warmup_cycles=200, measure_cycles=1000,
                   functional_warmup_instructions=4000, rotations=1)
WARM = 6000


def _icount(n_threads=8, **options):
    return scheme("ICOUNT", 2, 8, n_threads=n_threads, **options)


#: name -> (config, RunSpec overrides)
RUN_GRID = {
    **{f"{policy}.2.8-T8": (scheme(policy, 2, 8, n_threads=8), {})
       for policy in FETCH_POLICIES},
    "ICOUNT.2.8-T1": (_icount(1), {}),
    "ICOUNT.2.8-T4": (_icount(4), {}),
    # ICOUNT.2.8-T8 above is the OLDEST issue policy with full
    # speculation.
    **{f"issue-{policy}": (_icount(issue_policy=policy), {})
       for policy in ("OPT_LAST", "SPEC_LAST", "BRANCH_FIRST")},
    **{f"speculation-{mode}": (_icount(speculation=mode), {})
       for mode in ("no_pass_branch", "no_wrong_path")},
    "infinite_fus": (_icount(infinite_fus=True), {}),
    "conservative-issue": (_icount(optimistic_issue=False), {}),
    "infinite-memory-bandwidth": (
        _icount(infinite_memory_bandwidth=True), {}),
    "itag": (_icount(itag=True), {}),
    "bigq": (_icount(bigq=True), {}),
    "superscalar": (SMTConfig(n_threads=1, smt_pipeline=False), {}),
    "dcache_mshrs-2": (_icount(), {"dcache_mshrs": 2}),
}

#: name -> (threads, rotation): every profile at each thread count.
IMAGE_GRID = {
    **{f"T1-rot{r}": (1, r) for r in range(8)},
    "T4-rot0": (4, 0),
    "T4-rot4": (4, 4),
    "T8-rot0": (8, 0),
}

#: name -> ``repro run`` options, each run with DOCUMENT_BUDGET.
DOCUMENT_GRID = {
    "ICOUNT.2.8-T4-interval200": [
        "--threads", "4", "--policy", "ICOUNT", "--num1", "2", "--num2", "8",
        "--telemetry-interval", "200"],
    "RR.1.8-T8-interval100": [
        "--threads", "8", "--policy", "RR", "--num1", "1", "--num2", "8",
        "--telemetry-interval", "100"],
    "HYSTERESIS-T2-interval37": [
        "--threads", "2", "--policy", "HYSTERESIS:interval=100,dwell=2",
        "--telemetry-interval", "37"],
    "superscalar-interval50": [
        "--threads", "1", "--superscalar", "--telemetry-interval", "50"],
    "MISSCOUNT.2.8-bigq-T6-interval128": [
        "--threads", "6", "--policy", "MISSCOUNT", "--num1", "2",
        "--num2", "8", "--bigq", "--telemetry-interval", "128"],
}
DOCUMENT_BUDGET = ["--warmup", "300", "--cycles", "1500"]

RUN_DIGESTS = {
    "RR.2.8-T8":
        "34e8cc5ecc7bc2c3141f75abdf4302e0dbc639db524ce7eebbca9a8120613371",
    "BRCOUNT.2.8-T8":
        "494e7ed25c73ea5d3fa60e8d182dccb8e9770037311c9a6fcc834dcb77cacdc4",
    "MISSCOUNT.2.8-T8":
        "615d6624c5ef8e16b79a82ec5b1f94e33626c522daf9b45e43875beced2e892f",
    "ICOUNT.2.8-T8":
        "e7fd325dc4de6fc36638ba60fe57b58a963ca2cfa8769f5df16af46137f58f1d",
    "IQPOSN.2.8-T8":
        "4e290c44998dbbbaa08cf77c119c3c30ad21bf948cc020e67c760d486cc30bd1",
    "ICOUNT_BRCOUNT.2.8-T8":
        "01859d7719c2c7d866c70d4d31d04a744b55c3f3f919295d69bcaaef4022409e",
    "ICOUNT.2.8-T1":
        "b78f7ef812e0f6ac61d0ad59408329aa286150f12b597c7ce69f42f6039934b8",
    "ICOUNT.2.8-T4":
        "da21145bfbeafc16d58f5e9bc7c78ece58f425054a2080b7fd51ad57501c0dda",
    "issue-OPT_LAST":
        "909a2e400ae2065cc5c8cf1b42699ec0af53a12248143984d08f600a262bc0e9",
    "issue-SPEC_LAST":
        "ba31bc03e5bd335341bbe33aeb2cabc3b1436e08bab467bd03bbca11b030cad3",
    "issue-BRANCH_FIRST":
        "9048e7bef5eaf10a645cf992435bd61832f56287b1d76378af48eae8ed780b64",
    "speculation-no_pass_branch":
        "394ee4a549d1b8d2f0b4bc85bfe71003b602af8a6bd3b6d7d45477b4531d4f4c",
    "speculation-no_wrong_path":
        "3cac21790ba39704f540b5f0342e872b6a03d8e28ae21f883eec44952364ebd6",
    "infinite_fus":
        "43b5474f4575a5f718e7fc14d4400986e3c82e5b288a8d944ebfdd9d5869152f",
    "conservative-issue":
        "b544c626b03c367acf853c1954603c482366394ec0c7cd98863915692b75a801",
    "infinite-memory-bandwidth":
        "3af1a5add9b8affbfe509dfd268af275ce0cb4732e1608de518d05e122c03e86",
    "itag":
        "e56b96501ca78f0856197dc051d9a87cc8113c282682d887d1af6a838892ffc1",
    "bigq":
        "26d56d6ee112ef5d093ba62d13caac618867f3df99bf431bccb48930cf8b3c33",
    "superscalar":
        "97c9ed52e42effb282dc170acb862de6af79d115e2fa811aaeb0796e6269bd2f",
    "dcache_mshrs-2":
        "af42be0b6c099a5c44729919c09552da8d65e7494947717186c4df3e6084e739",
}

IMAGE_DIGESTS = {
    "T1-rot0":
        "21b514399f33e501383a026a70a566619be9a23927af4b04a928fd4aa600424d",
    "T1-rot1":
        "e26360545c5bd9b5097d798dca574af50d1e0adfc79c846076038dc5f6d9aea3",
    "T1-rot2":
        "27a912ef20cb23593d6c24c8f87ff7c961cdd0fe1d46898b75146a814ce99d71",
    "T1-rot3":
        "d1e1148ade516c90693714ac1455b6e11c252ffd1e2989c886f071b271e3f39b",
    "T1-rot4":
        "05af8884ace862f2b56551f91539b732ab1b7a14e45e451167711b7711a023c3",
    "T1-rot5":
        "2a7db4c03d4ae5a8f6f85bbfe53258bbff4d335d86234f72f22246f703c5baef",
    "T1-rot6":
        "b5f87416e7f2dc22e1ccd605409c36fe2485d1669c81eb878f52258e186a8b95",
    "T1-rot7":
        "bc38c1459dcb7fb4666c4601b0435a1d4235fe2a91790ff7d14a2d76a88a03ae",
    "T4-rot0":
        "4cd5f2f7223312cc8ffb03e673d1cd4622b79b5aaf86cb3748c63eff1365b655",
    "T4-rot4":
        "1e3f6f365d1c289f8cdea1eefdd3c91de7a542762b80b524469d87780b508842",
    "T8-rot0":
        "f2ab727886fcbe44dc5e8b16c0e91cdce7e3b0ed8e67c71753328cc57d62bfca",
}

DOCUMENT_DIGESTS = {
    "ICOUNT.2.8-T4-interval200":
        "f4869b5a1f1e3bfa4d49399b205cb387c654c1856af5116a98abf682298f1ed2",
    "RR.1.8-T8-interval100":
        "a71e3bbb17389fb501b36c5ee2473664a21a8e202ce3411e5c11eeb8d78d8eb5",
    "HYSTERESIS-T2-interval37":
        "dc60e58309adc8a998310d409bf7a4cc1d9d5a28775851c9a813bcd4caaa7933",
    "superscalar-interval50":
        "bab807161ae18f3a4a804a796ee21ac4e1056ab91a0d41ae64bddf14e9ef435a",
    "MISSCOUNT.2.8-bigq-T6-interval128":
        "18e686494c356a399b592ac12a2b4358244d0167d9458387b43d224400c2a979",
}


def _sha(document) -> str:
    blob = json.dumps(document, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(name: str) -> str:
    config, overrides = RUN_GRID[name]
    spec = RunSpec(config=config, rotation=0, budget=BUDGET, **overrides)
    return _sha(dataclasses.asdict(run_spec(spec)))


def _ordered(value):
    """JSON-able copy that keeps every container's order (an LRU
    order is state, so a dict becomes its item list)."""
    if isinstance(value, dict):
        return [[_ordered(k), _ordered(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple, array)):
        return [_ordered(item) for item in value]
    return value


def image_digest(name: str) -> str:
    n_threads, rotation = IMAGE_GRID[name]
    spec = RunSpec(config=SMTConfig(n_threads=n_threads), rotation=rotation,
                   budget=BUDGET, check_invariants=False)
    sim = build_simulator(spec)
    sim.functional_warmup(WARM)
    image = images.capture(sim, WARM)
    threads = [{"consumed": st["cursor"][0], "fetch_pc": st["fetch_pc"],
                "last_data_addr": st["last_data_addr"],
                "frames": st["frames"]} for st in image.threads]
    return _sha(_ordered({
        "threads": threads,
        "cache_tags": image.cache_tags,
        "tlb_maps": image.tlb_maps,
        "predictor": image.predictor,
        "warm_instructions": image.warm_instructions,
    }))


def document_digest(name: str) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", *DOCUMENT_GRID[name], *DOCUMENT_BUDGET,
                             "--metrics-json", path])
        assert code == 0
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_GRID))
def test_run_matches_pinned_digest(name):
    assert run_digest(name) == RUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(IMAGE_GRID))
def test_warm_image_matches_pinned_digest(name):
    assert image_digest(name) == IMAGE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DOCUMENT_GRID))
def test_run_document_matches_pinned_digest(name):
    assert document_digest(name) == DOCUMENT_DIGESTS[name]


if __name__ == "__main__":
    print("RUN_DIGESTS = {")
    for name in RUN_GRID:
        print(f'    "{name}":\n        "{run_digest(name)}",')
    print("}\n\nIMAGE_DIGESTS = {")
    for name in IMAGE_GRID:
        print(f'    "{name}":\n        "{image_digest(name)}",')
    print("}\n\nDOCUMENT_DIGESTS = {")
    for name in DOCUMENT_GRID:
        print(f'    "{name}":\n        "{document_digest(name)}",')
    print("}")
