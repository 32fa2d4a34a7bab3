#!/usr/bin/env python3
"""Write a transformed copy of an ensemble JSON document.

No transform changes the minimum guesswork, so comparing the solve of the
copy with the solve of the original tests that the solvers do not depend on
the labels, the coordinates or a common shift of the states.

    relabel  the states in the order of numpy's default_rng(SEED).permutation(M)
    rotate   each qubit state padded with a zero row and column, then conjugated
             by the real rotation R_y(0.6) R_x(0.8), which mixes the third
             coordinate into the first two, so that no coordinate is unused
    lift     Z sigma_z / 2 added to each qubit state, which moves every Bloch
             vector by (0, 0, Z) and leaves every E(n) = 2 sum_t (gamma(t) -
             mean) rho(n(t)) unchanged; the copy must stay PSD, which loading
             it checks

Usage:
    python scripts/transform_ensemble.py relabel IN OUT --seed SEED
    python scripts/transform_ensemble.py rotate IN OUT
    python scripts/transform_ensemble.py lift IN OUT --z Z
"""

import argparse
import json

import numpy as np


def relabel(doc: dict, seed: int) -> dict:
    states = doc["states"]
    return {**doc, "states": [states[i] for i in np.random.default_rng(seed).permutation(len(states))]}


def rotate(doc: dict) -> dict:
    a, b = 0.6, 0.8
    ry = np.array([[np.cos(a), 0, -np.sin(a)], [0, 1, 0], [np.sin(a), 0, np.cos(a)]])
    rx = np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)], [0, np.sin(b), np.cos(b)]])
    r = ry @ rx
    s = np.array(doc["states"])  # (M, 2, 2, 2): the (re, im) pair of each entry
    s = r @ np.pad(s[..., 0] + 1j * s[..., 1], ((0, 0), (0, 1), (0, 1))) @ r.T
    return {**doc, "dim": 3, "states": np.stack([s.real, s.imag], axis=-1).tolist()}


def lift(doc: dict, z: float) -> dict:
    if doc["dim"] != 2:
        raise ValueError(f"lift takes qubit states, got dim {doc['dim']}")
    s = np.array(doc["states"], dtype=float)  # (M, 2, 2, 2): the (re, im) pair of each entry
    s[:, 0, 0, 0] += z / 2
    s[:, 1, 1, 0] -= z / 2
    return {**doc, "states": s.tolist()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("transform", choices=["relabel", "rotate", "lift"])
    parser.add_argument("source", help="ensemble JSON path")
    parser.add_argument("target", help="path of the transformed copy")
    parser.add_argument("--seed", type=int, default=0, help="seed of the relabelling")
    parser.add_argument("--z", type=float, default=0.0, help="Bloch z shift of the lift")
    args = parser.parse_args(argv)
    with open(args.source, encoding="utf-8") as handle:
        doc = json.load(handle)
    if args.transform == "relabel":
        doc = relabel(doc, args.seed)
    elif args.transform == "rotate":
        doc = rotate(doc)
    else:
        doc = lift(doc, args.z)
    with open(args.target, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
