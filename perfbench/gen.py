"""Seeded workload inputs with planted circular occurrences.

Every letter comes from a splitmix64 stream kept in this file, keyed by the
workload name and the seed, so no change to the program can change a
workload.  Each planted occurrence is a rotation of a query pattern with a
few random edits, written over the random text; its (position, rotation,
edits) is the ground truth the checker holds the program's output to.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

MASK = (1 << 64) - 1
DNA = b"ACGT"
# one random byte gives four letters
_QUAD = [bytes(DNA[(b >> s) & 3] for s in (0, 2, 4, 6)) for b in range(256)]

# name -> kind, text layout and queries (m, k); plants per query (library)
# or per record (cli)
WORKLOADS = {
    "filter-dna": {"kind": "library", "n": 2_000_000, "queries": [(32, 1), (64, 2), (128, 4)], "plants": 8},
    "verify-all-dna": {"kind": "library", "n": 20_000, "queries": [(32, 4), (64, 8)], "plants": 8},
    "reads-cli": {"kind": "cli", "records": 500, "record_len": 500, "queries": [(48, 2)], "plants": 1},
}


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.next()
            if v < limit:
                return v % n

    def dna(self, n: int) -> bytes:
        raw = b"".join(self.next().to_bytes(8, "little") for _ in range((n + 31) // 32))
        return b"".join(_QUAD[b] for b in raw)[:n]


def stream(workload: str, seed: int, purpose: str) -> SplitMix64:
    digest = hashlib.sha256(f"{workload}/{seed}/{purpose}".encode()).digest()
    return SplitMix64(int.from_bytes(digest[:8], "little"))


def mutate(rng: SplitMix64, s: bytes, edits: int) -> bytes:
    """Apply `edits` random substitutions, insertions or deletions; the
    result is within edit distance `edits` of s."""
    b = bytearray(s)
    for _ in range(edits):
        op = rng.below(3)
        if op == 0:
            i = rng.below(len(b))
            b[i] = DNA[(DNA.index(b[i]) + 1 + rng.below(3)) % 4]
        elif op == 1:
            b.insert(rng.below(len(b) + 1), DNA[rng.below(4)])
        else:
            del b[rng.below(len(b))]
    return bytes(b)


@dataclass
class Inputs:
    """texts: row key -> text; queries: row key -> (pattern, k).  A row key is
    a query id for library workloads and a FASTA record name for cli."""

    kind: str
    texts: dict
    queries: dict
    plants: list  # (key, position, rotation, edits)

    def files(self) -> dict:
        """File name -> bytes, the inputs as the program receives them."""
        truth = json.dumps({"plants": self.plants}, indent=0).encode()
        if self.kind == "library":
            spec = {key: {"pattern": p.decode(), "k": k} for key, (p, k) in self.queries.items()}
            return {"text.bin": self.texts["text"], "queries.json": json.dumps(spec).encode(), "truth.json": truth}
        ((pattern, k),) = set(self.queries.values())
        fasta = b"".join(b">%s\n%s\n" % (name.encode(), seq) for name, seq in self.texts.items())
        return {"reads.fa": fasta, "pattern.txt": pattern, "k.txt": b"%d" % k, "truth.json": truth}

    def write(self, directory: Path) -> None:
        """Write the input files unless an earlier run with this seed did
        (and they still hold the same bytes)."""
        directory.mkdir(parents=True, exist_ok=True)
        for name, blob in self.files().items():
            path = directory / name
            if not path.exists() or path.read_bytes() != blob:
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(blob)
                tmp.replace(path)

    def lookup(self, key: str) -> tuple[bytes, bytes, int]:
        """(text, pattern, k) behind an output row key."""
        if self.kind == "library":
            pattern, k = self.queries[key]
            return self.texts["text"], pattern, k
        pattern, k = self.queries["p"]
        return self.texts[key], pattern, k


def _plant(rng: SplitMix64, text: bytearray, lo: int, hi: int, pattern: bytes, k: int):
    """Write one edited rotation of pattern at a random position in text[lo:hi)."""
    m = len(pattern)
    rot = rng.below(m)
    edits = rng.below(k + 1)
    occ = mutate(rng, pattern[rot:] + pattern[:rot], edits)
    pos = lo + rng.below(hi - lo - len(occ) + 1)
    text[pos : pos + len(occ)] = occ
    return pos, rot, edits


def generate(workload: str, seed: int) -> Inputs:
    spec = WORKLOADS[workload]
    rng = stream(workload, seed, "inputs")
    plants = []
    if spec["kind"] == "library":
        queries = {f"q{i}": (rng.dna(m), k) for i, (m, k) in enumerate(spec["queries"])}
        text = bytearray(rng.dna(spec["n"]))
        # one slot per plant, in seeded order, so plants never overlap and
        # none sits near the end of the text
        order = [key for key in queries for _ in range(spec["plants"])]
        for i in range(len(order) - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        slot = spec["n"] // (len(order) + 1)
        for s, key in enumerate(order):
            pattern, k = queries[key]
            pos, rot, edits = _plant(rng, text, s * slot, (s + 1) * slot, pattern, k)
            plants.append((key, pos, rot, edits))
        plants.sort()
        return Inputs("library", {"text": bytes(text)}, queries, plants)
    ((m, k),) = spec["queries"]
    pattern = rng.dna(m)
    texts = {}
    for r in range(spec["records"]):
        name = f"read{r:04d}"
        seq = bytearray(rng.dna(spec["record_len"]))
        pos, rot, edits = _plant(rng, seq, 0, len(seq), pattern, k)
        plants.append((name, pos, rot, edits))
        texts[name] = bytes(seq)
    return Inputs("cli", texts, {"p": (pattern, k)}, plants)
