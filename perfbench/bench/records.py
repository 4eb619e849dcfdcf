"""Output records, their digests, and the stored per-seed references.

Every evaluated point is reduced to a short hash of its exact output
(floats by ``repr``, which round-trips).  A reference file holds those
hashes in evaluation order for one (size, seed); it is written only by
``run.py --regen-refs`` and read by every later run.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REF_DIR = Path(__file__).resolve().parent.parent / "ref"


def mix_record_hash(result) -> str:
    """Hash of one :class:`repro.core.study.MixResult`."""
    fields = (
        result.design_name,
        tuple(result.mix),
        bool(result.smt),
        result.stp,
        result.antt,
        result.power_gated_w,
        result.power_ungated_w,
        result.bus_utilization,
        result.mem_latency_inflation,
    )
    return hashlib.sha1(repr(fields).encode()).hexdigest()[:12]


def value_hash(value) -> str:
    """Hash of any repr-stable value (tables, IPC tuples)."""
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


def mismatches(got: Sequence[str], want: Sequence[str]) -> int:
    """Records that differ, counting missing or extra ones."""
    differing = sum(1 for a, b in zip(got, want) if a != b)
    return differing + abs(len(got) - len(want))


def ref_path(size: str, seed: int) -> Path:
    return REF_DIR / f"{size}-seed{seed}.json"


def load_ref(size: str, seed: int) -> Optional[Dict[str, List[str]]]:
    path = ref_path(size, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def save_ref(size: str, seed: int, ref: Dict[str, List[str]]) -> Path:
    REF_DIR.mkdir(parents=True, exist_ok=True)
    path = ref_path(size, seed)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return path
