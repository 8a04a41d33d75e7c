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
  warmup, for every profile at 1, 4 and 8 threads.

To print the table for the tree on ``PYTHONPATH`` (say, to pin a
deliberate change of results)::

    PYTHONPATH=src python tests/core/test_pinned_results.py
"""

import dataclasses
import hashlib
import json
from array import array

import pytest

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
    "T1-rot0": "a97f955910ef79048987cfc415316b36ef98ac7d088f75db899bed760a7ffb8d",
    "T1-rot1": "a5ede7a06433170dd1011ebf6b0eda9dd0c34caada2317e3357d93df306d5269",
    "T1-rot2": "b6f78fb450e48b38f405138621790d26828fb55d26834c35628e9fd747b7b54d",
    "T1-rot3": "b6a98e294151c407a26dbcefa88cf555a3b79ee8e22b92f0cb2c9b6319f7a2cc",
    "T1-rot4": "c492effe2def14f1fee6da31afd112bd0ed4e18a0372153f2c8837e3815c5a80",
    "T1-rot5": "5abf2442628b9c4c7ac49382e56659cfd6a5757605d51ab1cf797aa91780d28f",
    "T1-rot6": "c2e5cdd377673b14035e4e261876635efad758db3c99a72071f541affeee5983",
    "T1-rot7": "6fd00015658195aefa9b61672070754751946769b54e0940e6e5d23490ebf6e7",
    "T4-rot0": "490befe3f43ea9712c46632260fc39e784dc9d98009c5284af97e7ec02879b89",
    "T4-rot4": "8e34baafce9fb92ec46f285dbc3459ff5a357fc05a41cf18666e2221acf07396",
    "T8-rot0": "25a7587524856e941b761b7092191611abec5980ef637c206a9a8ee02520753f",
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
    return _sha(_ordered({
        "threads": image.threads,
        "cache_tags": image.cache_tags,
        "tlb_maps": image.tlb_maps,
        "predictor": image.predictor,
        "warm_instructions": image.warm_instructions,
    }))


@pytest.mark.parametrize("name", sorted(RUN_GRID))
def test_run_matches_pinned_digest(name):
    assert run_digest(name) == RUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(IMAGE_GRID))
def test_warm_image_matches_pinned_digest(name):
    assert image_digest(name) == IMAGE_DIGESTS[name]


if __name__ == "__main__":
    print("RUN_DIGESTS = {")
    for name in RUN_GRID:
        print(f'    "{name}":\n        "{run_digest(name)}",')
    print("}\n\nIMAGE_DIGESTS = {")
    for name in IMAGE_GRID:
        print(f'    "{name}": "{image_digest(name)}",')
    print("}")
