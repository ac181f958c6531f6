"""Bit-identity of the update arithmetic against recorded digests.

`tests/data/step_digests.json` holds sha256 digests of the raw output bytes of
- the sweep kernel `_sweep_chunk` (status, iters, final) for every registered
  function at beta 0, 1, -0.5 and under annealing, on a 64x520 chunk, whose
  33,280 cells lie above numpy's temporary-elision threshold for complex and
  for real arrays, and on its first 5,000 cells, which lie below both;
- traced `iterate` runs and single `extended_step` updates from seeded starts;
- `annealing_beta` on seeded derivative pairs;
- `solve_sync` on small seeded Kuramoto systems under the three schedules.

The last bits of these outputs depend on numpy's build and on the CPU's SIMD
paths (FMA contraction, elided temporaries), so the digests hold for the
numpy and CPU they were recorded on: numpy 2.4.6 on an x86-64 Xeon with
AVX-512 and FMA.  `python tests/test_step_digests.py` prints them.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from betanewton import basin
from betanewton.core import (
    BetaSchedule,
    DegenerateScheduleInput,
    DerivativeUnderflow,
    IterationConfig,
    NonFiniteStep,
    annealing_beta,
    extended_step,
    iterate,
    list_problems,
)
from betanewton.multivariate import SingularJacobian, random_kuramoto, solve_sync

DIGESTS = Path(__file__).parent / "data" / "step_digests.json"

SCHEDULES = {
    "0": BetaSchedule.fixed(0.0),
    "1": BetaSchedule.fixed(1.0),
    "anneal": BetaSchedule.annealing(),
    "-0.5": BetaSchedule.fixed(-0.5),
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast(re, im).shape, np.complex128)
    z.real = re
    z.imag = im
    return z


def _chunk_starts() -> np.ndarray:
    return _complex(np.linspace(-2.0, 2.0, 64)[:, None],
                    np.linspace(-2.0, 2.0, 520)[None, :]).ravel()


def _points(rng, n) -> np.ndarray:
    return _complex(rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n))


def _kernel_digests() -> dict:
    chunk = _chunk_starts()
    out = {}
    for p in list_problems():
        for desc, sched in SCHEDULES.items():
            for name, z0 in (("chunk", chunk), ("slice", chunk[:5000])):
                st, it, fi = basin._sweep_chunk(p, z0, sched, IterationConfig())
                out[f"kernel/{name}/{p.id}/{desc}"] = _sha(st, it, fi)
    return out


def _scalar_digests() -> dict:
    rng = np.random.default_rng(20240423)
    traced = IterationConfig(trace=True)
    runs, steps = [], []
    for p in list_problems():
        for sched in SCHEDULES.values():
            for z0 in _points(rng, 12):
                o = iterate(p, z0, sched, traced)
                runs.append((o.status.value, o.iterations, o.evals_f, o.evals_fprime,
                             np.asarray(o.trace, np.complex128).tobytes()))
        for z0 in _points(rng, 8):
            for beta in (0.0, 1.0, -0.5, 0.37):
                try:
                    steps.append(np.array(extended_step(p, z0, beta)).tobytes())
                except (DerivativeUnderflow, NonFiniteStep) as exc:
                    steps.append(type(exc).__name__)
    pairs = zip(_complex(*rng.standard_normal((2, 500))), _complex(*rng.standard_normal((2, 500))))
    edges = [(0j, 0j), (1e-170, 0j), (1e200, 1e200), (1.0, 1e200), (1e154, 0j), (0j, 1.0)]
    weights = []
    for fp, fh in [*pairs, *edges]:
        try:
            weights.append(annealing_beta(fp, fh))
        except DegenerateScheduleInput as exc:
            weights.append(str(exc))
    return {"iterate": _sha(runs), "extended_step": _sha(steps),
            "annealing_beta": _sha(weights)}


def _vector_digests() -> dict:
    out = {}
    for n in (4, 7, 12):
        for seed in (0, 1):
            system = random_kuramoto(n, seed)
            for desc in ("0", "1", "anneal"):
                try:
                    s = solve_sync(system, None, SCHEDULES[desc])
                    parts = (s.phases, s.omega, s.residual_norm, s.status.value, s.iterations)
                except SingularJacobian as exc:
                    parts = (type(exc).__name__,)
                out[f"solve_sync/n{n}/s{seed}/{desc}"] = _sha(*parts)
    return out


def digests() -> dict:
    return {**_kernel_digests(), **_scalar_digests(), **_vector_digests()}


def test_update_bits_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
