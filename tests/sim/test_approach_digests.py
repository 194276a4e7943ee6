"""Full-record digests of every scheduling approach.

Each case simulates 15 iterations of one approach variant on one workload
at 6 tiles, with between-iteration configuration faults, either noise-free
or under the stochastic perturbation layer, and hashes every field of
every :class:`~repro.sim.metrics.TaskExecutionRecord` (floats by their
exact ``repr``).  The committed digests pin the planned and realized
records of every approach, so a refactor of the approach pipeline that
changes any output fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.platform.description import Platform
from repro.sim.approaches import (
    AdaptivePrefetchApproach,
    DesignTimePrefetchApproach,
    HybridApproach,
    NoPrefetchApproach,
    RunTimeApproach,
    RunTimeInterTaskApproach,
)
from repro.sim.noise import PerturbationConfig
from repro.sim.simulator import SimulationConfig, SystemSimulator
from repro.tcm.design_time import TcmDesignTimeScheduler
from repro.workloads.multimedia import MultimediaWorkload
from repro.workloads.pocketgl import PocketGLWorkload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

TILES = 6
ITERATIONS = 15

VARIANTS = {
    "no-prefetch": NoPrefetchApproach,
    "design-time": DesignTimePrefetchApproach,
    "design-time(static_intertask=True)":
        lambda: DesignTimePrefetchApproach(static_intertask=True),
    "run-time": RunTimeApproach,
    "run-time+inter-task": RunTimeInterTaskApproach,
    "adaptive": AdaptivePrefetchApproach,
    "hybrid": HybridApproach,
    "hybrid(use_intertask=False)": lambda: HybridApproach(use_intertask=False),
}

WORKLOADS = {
    "synthetic": lambda: SyntheticWorkload(spec=SyntheticSpec(
        task_count=3, subtasks_per_task=6, seed=11)),
    "pocketgl": PocketGLWorkload,
    # The daemon's /simulate workload (multimedia at 6 tiles).
    "multimedia": MultimediaWorkload,
}

SETTINGS = {
    "clean": None,
    "noisy": PerturbationConfig(latency_sigma=0.2, latency_jitter=0.5,
                                execution_sigma=0.15, load_failure_rate=0.2),
}

#: sha256 of the canonical record stream, keyed "workload/setting/variant".
DIGESTS = {
    "synthetic/clean/no-prefetch":
        "2ba549559bd9db2d4fe6ef5325327377bbf57b66edbbbe0c9748b999ad152044",
    "synthetic/clean/design-time":
        "3d3928e686f3c3fd92082ab24bc6485d19d8a7ce0daeef3fa7d392e994cb5554",
    "synthetic/clean/design-time(static_intertask=True)":
        "3e533d76278f1b0c31719db6ab2fd9c5768aee01b655ecd154b0029fbfbf79a2",
    "synthetic/clean/run-time":
        "5cbead64d3685426192a15e77f1f1620db4fde0fdfbbd64cddf432e616da42e2",
    "synthetic/clean/run-time+inter-task":
        "1ed047c078f7d532a679f5f7317293e4166ed1bc8dfe47ae37bc1bb2af8a6c05",
    "synthetic/clean/adaptive":
        "1ed047c078f7d532a679f5f7317293e4166ed1bc8dfe47ae37bc1bb2af8a6c05",
    "synthetic/clean/hybrid":
        "9a49a85cfec4b145a33cb9545095992ebd0a93c9789f17af2f730b637154bf83",
    "synthetic/clean/hybrid(use_intertask=False)":
        "95ef526899913bca479363faf6366fc14c44bc5f9c0f38772dac3d7e19d95faa",
    "synthetic/noisy/no-prefetch":
        "50737e3faf29074fcb2811c3dcb4b2c1af60591495c9fbacc95f87e83066c7e3",
    "synthetic/noisy/design-time":
        "54b4c71f71c75439caf7937c9abdedb7a44b4868725f3fdb85caafa90eb1b045",
    "synthetic/noisy/design-time(static_intertask=True)":
        "b2c43ff8a2d228f74c49c8c938a5da9e26b1a3a4b59be61b89761ae51a5d351a",
    "synthetic/noisy/run-time":
        "7d1370d42785f6bc5bdf356d18610f83700d90e6124db17ac5d66a8fd3ccf276",
    "synthetic/noisy/run-time+inter-task":
        "da06edfbb8c52ac4cd2ebc6fd3e66090a67bd1fc97ea3a5abe1e92661ba16bed",
    "synthetic/noisy/adaptive":
        "8c950740885d964686431f68faa8ddec558cd4fa27d88d5ae0a5e23b3191713c",
    "synthetic/noisy/hybrid":
        "21cde89305d37b09205dc37079581cbf55831d87f3d7519b41ae78923e411aff",
    "synthetic/noisy/hybrid(use_intertask=False)":
        "d9535fcb0675ac40f0d5d152150da5c15f8fcf434085ceff1f91557937befef1",
    "pocketgl/clean/no-prefetch":
        "362479b2741b043c7119c31165ee10fab4e04f4e4acf6df744e9b1304f02df41",
    "pocketgl/clean/design-time":
        "fff4f37cc4251272f907f60bbbe99371d78cbf6f61929f3d13c94c872ca85878",
    "pocketgl/clean/design-time(static_intertask=True)":
        "85d0b73f8d936367aeb52463e00b237d4d614cf04fb5d3e2e5e18eb8d4daf66d",
    "pocketgl/clean/run-time":
        "5403736c26a1dc089fe1719a02772c931c129482a654e13f926a1a0a5bc4dd2f",
    "pocketgl/clean/run-time+inter-task":
        "e906772cbc31c5f0b1fc88f39bbbf7aee6c6e920b014464bb9fd6556f6d51c18",
    "pocketgl/clean/adaptive":
        "7c37f4858144beca431fce2e8e578476c902812cf2911b6f8b496d6e3c2fd6e7",
    "pocketgl/clean/hybrid":
        "3da85ce42aad38786e1b3e69873c0c33d4fa22da9c8c97f2f0c113234cdb53c9",
    "pocketgl/clean/hybrid(use_intertask=False)":
        "c34ee57b5c6dd5d9c205c8668ad2b50127c68bade88a66fc769533c2e630a83c",
    "pocketgl/noisy/no-prefetch":
        "4145c38d0964bb0316fe0cf7ba2927edb8577b99c12bdb96b5f644901f812d06",
    "pocketgl/noisy/design-time":
        "ae1238b2e992dc4696c0abbd60916e1beb521a558ff0adf7bc1872cf589bf590",
    "pocketgl/noisy/design-time(static_intertask=True)":
        "c28e6bb7c4ec6c6b03079f716fbc189960fe56c4796417e7b2a4e42cb6d681f2",
    "pocketgl/noisy/run-time":
        "1e8c68e6dea4e980135dd21ef674c1ee086c989458c393d204b1690e9880804f",
    "pocketgl/noisy/run-time+inter-task":
        "177ac4de9e4ad16618ab7f0e4ec34d77c7731874d9a2855da07a33e29d69d1fc",
    "pocketgl/noisy/adaptive":
        "1f44c66e028af3c83e10e373c5dd261793921af56451a7e43ccdfcb7075ddd7a",
    "pocketgl/noisy/hybrid":
        "4986e5515457f6b884ba2d0dccbb645b344520957713592de6d0581327e8e402",
    "pocketgl/noisy/hybrid(use_intertask=False)":
        "e495b09c3cef4cfae6479e21ab947e114279e0d93e76b3e08669bd54c21ccb5d",
    "multimedia/clean/no-prefetch":
        "09cfa46fc7f882e0a51feb14ce96af99072f3e0825bbf426831f5a0e22d4b371",
    "multimedia/clean/design-time":
        "e8ded18371ace8e071f29009e8b70e2d1cc88b775d7a5ec254a862e2e6f130eb",
    "multimedia/clean/design-time(static_intertask=True)":
        "0d4dc1eee15f3e18ac3334e793e72ee8bc894daad33a5adbf882294eef1843c2",
    "multimedia/clean/run-time":
        "3100d20e029a281f79cb434c35d282f4d15a544a4b4c3b22eaca8949f2454f49",
    "multimedia/clean/run-time+inter-task":
        "3db17f749b0a7ef1900f44888eddbeff7a8dc5ebdc203106a0b6c56682a49392",
    "multimedia/clean/adaptive":
        "e6eae51e6dcf49121ae2a017534eb92aca6052ad482159cbe63c18c20250f34b",
    "multimedia/clean/hybrid":
        "f449141d784d07ba11e8432d1d1cea6a0d74eb0fd9e0b997f02047de102f62a0",
    "multimedia/clean/hybrid(use_intertask=False)":
        "c44c963d9449194cf66844417fb6be1ba3a636b127bdff45e783f12f3314d30b",
    "multimedia/noisy/no-prefetch":
        "6f887ffe41f7825708ed245bdcaad0e152fdd7a48cb13570dcb8612bb7e09efa",
    "multimedia/noisy/design-time":
        "73cc2d93da50cfa2746fc99b8ab0f23795a2c94c19126f860e5e45b94baac294",
    "multimedia/noisy/design-time(static_intertask=True)":
        "84bf2e5309fc18d309e82de56c4d61600da66e72b6300e1ab36d035a546ea5ed",
    "multimedia/noisy/run-time":
        "3d4693fdab2304733bbd8cf9043d6800361bbfaffaf7db6867d20c5f8d6498bc",
    "multimedia/noisy/run-time+inter-task":
        "c652b447bd9047120434837d16a3938be23d15c91a8a24a130d2eec2ecd5fc12",
    "multimedia/noisy/adaptive":
        "710e510648d601eca01d9b3d45a9d92ad63bce7e316d78388680161319ef315c",
    "multimedia/noisy/hybrid":
        "6dd65fa866f5b47459e28e2d6c3c9a3f33010646b8796f0a6173bb25fbbf4634",
    "multimedia/noisy/hybrid(use_intertask=False)":
        "020f3e386bf93966a23542a934e56931cb9c1c0d416fba61d2761e58e81d75c6",
}


@pytest.fixture(scope="module")
def explored():
    """One (workload, platform, exploration) trio per workload."""
    trios = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        platform = Platform(
            tile_count=TILES,
            reconfiguration_latency=workload.reconfiguration_latency,
        )
        design = TcmDesignTimeScheduler(platform).explore(workload.task_set)
        trios[name] = (workload, platform, design)
    return trios


def record_digest(workload, platform, design, variant: str,
                  setting: str) -> str:
    """sha256 over every field of every task record of one run."""
    config = SimulationConfig(iterations=ITERATIONS, seed=2005,
                              configuration_fault_rate=0.05,
                              perturbation=SETTINGS[setting])
    result = SystemSimulator(workload, platform, VARIANTS[variant](),
                             config=config, design_result=design).run()
    stream = [[iteration.index, iteration.faults_injected,
               [dataclasses.asdict(record) for record in iteration.tasks]]
              for iteration in result.iterations]
    canonical = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


CASES = [f"{workload}/{setting}/{variant}"
         for workload in WORKLOADS for setting in SETTINGS
         for variant in VARIANTS]


@pytest.mark.parametrize("case", CASES)
def test_records_match_committed_digest(explored, case):
    workload_name, setting, variant = case.split("/", 2)
    digest = record_digest(*explored[workload_name], variant, setting)
    assert digest == DIGESTS[case]
