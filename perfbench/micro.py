"""Scalar micro-run through the public field API.

The operand pool is the moment sequence of one fixed-seed ``pearson-exact``
job, so the operands have the bit sizes the real workload multiplies.  Only
``make_field``, ``field(...)``, ``to_json``/``from_json`` and the arithmetic
operators are used, so the run keeps working whatever type ``field(...)``
returns.
"""

from __future__ import annotations

import json
import operator
import statistics
import time

from workloads import BIGFLOAT_BITS, import_library, pearson_inputs

POOL_SEED = 0
REPEATS = 7
PAIR_REPEATS = 10


def operand_pool(L):
    """Exact moments of the first regular job of seed POOL_SEED."""
    exact = L.make_field("exact")
    for block in pearson_inputs(POOL_SEED, 8, 28):
        for job in block:
            if job.kind != "regular":
                continue
            lat = L.Lattice.from_json(exact, json.loads(job.params["lattice"]))
            pair = L.PearsonPair.from_json(lat, json.loads(job.params["pair"]))
            moments = pair.moments().moments(2 * job.params["N"] + 2)
            return [m for m in moments if not exact.is_zero(m)]
    raise RuntimeError("no regular job in the pool block")


def _ns_per_op(op, pairs) -> float:
    """Median over REPEATS of (loop with op - empty loop) per pair, in ns.

    The call through an ``operator`` function stays in the figure; it costs
    the same for every scalar type.
    """
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        t1 = time.perf_counter_ns()
        for a, b in pairs:
            pass
        t2 = time.perf_counter_ns()
        samples.append(((t1 - t0) - (t2 - t1)) / len(pairs))
    return statistics.median(samples)


def scalar_metrics() -> dict:
    L = import_library()
    exact = L.make_field("exact")
    big = L.make_field("bigfloat", precision=BIGFLOAT_BITS)
    pool = operand_pool(L)
    ex_pool = [exact(m) for m in pool]
    big_pool = [big.from_json(exact.to_json(m)) for m in pool]
    # Each pair list is the pool against itself shifted by one, repeated so
    # a sample holds some thousands of operations.
    ex_pairs = list(zip(ex_pool, ex_pool[1:] + ex_pool[:1])) * PAIR_REPEATS
    big_pairs = list(zip(big_pool, big_pool[1:] + big_pool[:1])) * PAIR_REPEATS
    return {
        "scalars.exact_mul_ns": _ns_per_op(operator.mul, ex_pairs),
        "scalars.exact_add_ns": _ns_per_op(operator.add, ex_pairs),
        "scalars.exact_div_ns": _ns_per_op(operator.truediv, ex_pairs),
        "scalars.bigfloat_mul_ns": _ns_per_op(operator.mul, big_pairs),
        "scalars.bigfloat_add_ns": _ns_per_op(operator.add, big_pairs),
    }
