"""Batched trace precomputation for the cycle tier.

At core construction every thread's trace is transposed into flat
per-field lists (:class:`TraceArrays`), with NumPy doing the whole-trace
address arithmetic up front: instruction-fetch line numbers and L1D
set/tag decomposition are computed once for all instructions instead of
per dispatch, and instruction kinds collapse into small integer codes so
the step loop never touches a string.  The arrays are converted to plain
Python lists before the loop runs because CPython list indexing is faster
than ndarray scalar extraction (the same trick the interval tier's
vectorized solver uses for its hot scalar tail).
"""

from typing import List, Sequence

import numpy as np

from repro.workloads.tracegen import EXEC_LATENCY, TraceInstruction

#: Functional-unit classes, indexable by the codes in
#: :attr:`TraceArrays.fu_code` (order is load-bearing: it matches the
#: per-class issue-slot tables of :class:`~repro.sim.core.PipelineCore`).
#: Int ops and branches share the integer ALUs.
FU_CLASSES = ("int", "ldst", "muldiv", "fp")

_FU_CODE = {"int": 0, "branch": 0, "load": 1, "store": 1, "muldiv": 2, "fp": 3}

#: Memory-behaviour codes: 0 = plain compute, 1 = load, 2 = store,
#: 3 = branch.
_MEM_CODE = {"int": 0, "fp": 0, "muldiv": 0, "load": 1, "store": 2, "branch": 3}


class TraceArrays:
    """One thread's trace, transposed into flat per-field lists.

    Every list has one entry per instruction, indexed by the thread's
    cursor.  ``fetch_line``, ``l1d_set`` and ``l1d_tag`` hold the address
    arithmetic precomputed for the whole trace.
    """

    __slots__ = (
        "exec_lat",
        "fu_code",
        "mem_code",
        "pc",
        "fetch_line",
        "address",
        "l1d_set",
        "l1d_tag",
        "dep",
        "taken",
    )

    def __init__(
        self,
        exec_lat: List[int],
        fu_code: List[int],
        mem_code: List[int],
        pc: List[int],
        fetch_line: List[int],
        address: List[int],
        l1d_set: List[int],
        l1d_tag: List[int],
        dep: List[int],
        taken: List[bool],
    ):
        self.exec_lat = exec_lat
        self.fu_code = fu_code
        self.mem_code = mem_code
        self.pc = pc
        self.fetch_line = fetch_line
        self.address = address
        self.l1d_set = l1d_set
        self.l1d_tag = l1d_tag
        self.dep = dep
        self.taken = taken


def build_trace_arrays(
    trace: Sequence[TraceInstruction],
    l1i_line_bytes: int,
    l1d_line_bytes: int,
    l1d_num_sets: int,
) -> TraceArrays:
    """Batch-precompute per-instruction fields for the step loop.

    The set/tag decomposition uses floor division exactly like
    :meth:`repro.memory.cache.Cache._locate` (shift/mask and divmod agree
    for the non-negative addresses the generator emits; the ``-1``
    sentinel addresses of non-memory instructions produce garbage entries
    that the loop never reads because their ``mem_code`` is 0 or 3).
    """
    if not trace:
        empty: List[int] = []
        return TraceArrays(
            empty, empty, empty, empty, empty, empty, empty, empty, empty, []
        )
    kinds, pcs, addresses, deps, _mispred, takens = zip(*trace)
    meta = [(EXEC_LATENCY[k], _FU_CODE[k], _MEM_CODE[k]) for k in kinds]
    exec_lat, fu_code, mem_code = (list(col) for col in zip(*meta))
    pc_arr = np.array(pcs, dtype=np.int64)
    addr_arr = np.array(addresses, dtype=np.int64)
    line = addr_arr // l1d_line_bytes
    return TraceArrays(
        exec_lat,
        fu_code,
        mem_code,
        list(pcs),
        (pc_arr // l1i_line_bytes).tolist(),
        list(addresses),
        (line % l1d_num_sets).tolist(),
        (line // l1d_num_sets).tolist(),
        list(deps),
        list(takens),
    )
