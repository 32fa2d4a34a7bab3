"""Seeded benchmark inputs, built with numpy alone so they do not depend on the program.

Each workload is a fixed list of instance kinds and sizes; the seed only moves
continuous parameters (random states, Bloch rotations, mixedness, heights and
cost values).  Keeping the sizes fixed keeps the work per pass the same for
every seed, so run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("qubit_exact", "general_certify", "structured_large")

PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)

# Closed-form minimum guesswork under the identity cost for the pure trine,
# qubit SIC and qubit MUB ensembles (acceptance criterion 2).
CLOSED_FORMS = {
    "trine": 2 - 1 / math.sqrt(3),
    "sic": 2.5 - math.sqrt(5 / 3) / 2,
    "mub": 3.5 - math.sqrt(35) / 6,
}


@dataclass(frozen=True)
class Instance:
    """One solve input: states (M, d, d) and a cost (None is the identity cost)."""

    name: str
    states: np.ndarray
    cost: tuple[float, ...] | None
    closed_form: float | None = None
    simulate_samples: int = 0  # > 0: the instance is also simulated each pass

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def cost_values(self) -> tuple[float, ...]:
        return self.cost if self.cost is not None else tuple(range(1, self.size + 1))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _from_bloch(trace: float, v) -> np.ndarray:
    return (trace * np.eye(2) + np.tensordot(v, PAULIS, axes=1)) / 2


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def antiprism_h_bound(m: int) -> float:
    if m % 2 == 1:
        return 0.0
    if (m // 2) % 2 == 0:
        return math.sqrt((1 - math.cos(2 * math.pi / m)) / 2)
    return math.sqrt((math.cos(2 * math.pi / m) - math.cos(4 * math.pi / m)) / 2)


def polygon_antiprism(rng, m: int, h: float, pure: bool = False) -> np.ndarray:
    """Uniform-prior polygon (h = 0) or anti-prism, randomly rotated and scaled."""
    scale = 1 / (m * math.sqrt(1 + h * h))
    if not pure:
        scale *= rng.uniform(0.5, 1.0)
    angles = 2 * math.pi * np.arange(m) / m
    bloch = scale * np.stack(
        [np.cos(angles), np.sin(angles), h * (-1.0) ** np.arange(m)], axis=1
    )
    bloch = bloch @ _rotation(rng).T
    return np.stack([_from_bloch(1 / m, v) for v in bloch])


def random_qubits(rng, m: int, prior=None) -> np.ndarray:
    """Random qubit states; uniform prior unless ``prior`` is given."""
    prior = np.full(m, 1 / m) if prior is None else prior
    states = []
    for p in prior:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        states.append(_from_bloch(p, rng.uniform(0, p) * direction))
    return np.stack(states)


def ginibre(rng, m: int, dim: int) -> np.ndarray:
    states = []
    for _ in range(m):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w = g @ g.conj().T
        w = (w + w.conj().T) / 2
        states.append(w / (m * np.trace(w).real))
    return np.stack(states)


def embed(states: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((states.shape[0], dim, dim), dtype=complex)
    out[:, : states.shape[1], : states.shape[2]] = states
    return out


def balanced_cost(rng, m: int, ties: bool = False) -> tuple[float, ...]:
    """Random cost values mirrored about a random mean; ``ties`` repeats one pair."""
    base = rng.uniform(-3, 3)
    devs = rng.uniform(0.1, 4.0, size=m // 2)
    if ties:
        devs[1] = devs[0]
    values = np.concatenate([base + devs, base - devs, [base] * (m % 2)])
    rng.shuffle(values)
    return tuple(float(x) for x in values)


def _qubit_exact(rng) -> list[Instance]:
    # Two M = 9 and four M = 8 solves: the median solve is an 8! sweep and the
    # p90 a 9! sweep, and a pass stays short enough for several per run.
    b8 = antiprism_h_bound(8)
    return [
        Instance("polygon9", polygon_antiprism(rng, 9, 0.0), None),
        Instance("random9_balanced", random_qubits(rng, 9), balanced_cost(rng, 9)),
        Instance(
            "antiprism8_half", polygon_antiprism(rng, 8, b8 / 2), None,
            simulate_samples=1_000_000,
        ),
        Instance(
            "antiprism8_bound_ties", polygon_antiprism(rng, 8, b8),
            balanced_cost(rng, 8, ties=True),
        ),
        Instance("random8_identity", random_qubits(rng, 8), None),
        Instance("random8_ties", random_qubits(rng, 8), balanced_cost(rng, 8, ties=True)),
    ]


def _general_certify(rng) -> list[Instance]:
    m = 8
    out = []
    for k, ties in enumerate((None, False, True)):
        cost = None if ties is None else balanced_cost(rng, m, ties=ties)
        out.append(
            Instance(
                f"embedded{k}", embed(random_qubits(rng, m), 3), cost,
                # Two simulates a pass, so their median time rests on twice the calls.
                simulate_samples=1_000_000 if k < 2 else 0,
            )
        )
    for k, ties in enumerate((None, False, True)):
        cost = None if ties is None else balanced_cost(rng, m, ties=ties)
        out.append(Instance(f"ginibre{k}", ginibre(rng, m, 3), cost))
    for k, ties in enumerate((None, False)):
        cost = None if ties is None else balanced_cost(rng, m, ties=ties)
        prior = rng.uniform(0.5, 1.5, size=m)
        out.append(Instance(f"nonuniform{k}", random_qubits(rng, m, prior / prior.sum()), cost))
    return out


def _structured_large(rng) -> list[Instance]:
    out = [
        Instance("trine", polygon_antiprism(rng, 3, 0.0, pure=True), None, CLOSED_FORMS["trine"]),
        Instance("sic", polygon_antiprism(rng, 4, antiprism_h_bound(4), pure=True), None,
                 CLOSED_FORMS["sic"]),
        Instance("mub", polygon_antiprism(rng, 6, antiprism_h_bound(6), pure=True), None,
                 CLOSED_FORMS["mub"], simulate_samples=1_000_000),
    ]
    for k, m in enumerate((11, 15, 21, 31, 45, 63)):
        cost = None if k % 2 == 0 else balanced_cost(rng, m, ties=k == 3)
        out.append(Instance(f"polygon{m}", polygon_antiprism(rng, m, 0.0), cost))
    for k, m in enumerate((12, 16, 20, 24, 32, 40, 48, 64)):
        h = rng.uniform(0, antiprism_h_bound(m))
        cost = None if k % 2 == 0 else balanced_cost(rng, m, ties=k == 3)
        out.append(
            Instance(
                f"antiprism{m}", polygon_antiprism(rng, m, h), cost,
                simulate_samples=3_000_000 if m == 64 else 0,
            )
        )
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for ``seed``; the same seed gives the same inputs."""
    builders = {
        "qubit_exact": _qubit_exact,
        "general_certify": _general_certify,
        "structured_large": _structured_large,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](_rng(workload, seed))


def _matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def ensemble_path(directory: Path, inst: Instance) -> Path:
    return directory / f"{inst.name}.ensemble.json"


def cost_arg(directory: Path, inst: Instance) -> str:
    """The CLI ``--cost`` argument: 'identity' or the path of the cost file."""
    if inst.cost is None:
        return "identity"
    return str(directory / f"{inst.name}.cost.json")


def write(instances: list[Instance], directory: Path) -> None:
    """Write each instance as the program's documented ensemble and cost JSON."""
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        doc = {"dim": inst.dim, "states": [_matrix(s) for s in inst.states]}
        ensemble_path(directory, inst).write_text(json.dumps(doc))
        if inst.cost is not None:
            Path(cost_arg(directory, inst)).write_text(json.dumps({"values": list(inst.cost)}))
