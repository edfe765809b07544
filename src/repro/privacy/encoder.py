"""Salted q-gram Bloom-filter (CLK) encoding of entity records.

The cryptographic long-term key scheme (Schnell/Bachteler/Reiher, the
``graphMatching`` BFEncoder design): every record is reduced to character
q-grams, each q-gram sets ``num_hashes`` bits of a fixed-length Bloom
filter via double hashing, and the whole pipeline is keyed by a per-party
secret salt.  Two parties that share the salt produce comparable filters
for similar records; a server that never sees the salt cannot mount a
dictionary attack (every hash here is HMAC-SHA256 under the salt, so
precomputing gram -> bit-position tables requires the key).

Normalization deliberately reuses :func:`repro.data.blocking.record_tokens`
-- the exact token set the plaintext sparse blocker indexes -- so the
privacy/recall trade-off measured in ``benchmarks/bench_pprl.py`` isolates
the *encoding* loss, not a tokenizer mismatch.

Determinism is load-bearing: encoding uses only ``hashlib``/``hmac`` (never
Python's seeded ``hash()``), so the same salt + record is bit-identical
across processes, fork or spawn -- pinned by ``tests/privacy``.

Hardening options (see ``docs/PRIVACY.md`` for the threat model and the
measured F1 cost of each):

* ``"balance"`` -- concatenate the filter with its complement and apply a
  salt-derived fixed bit permutation; every encoding has the same Hamming
  weight (``nbits`` of ``2 * nbits``), removing the weight side-channel
  frequency attacks key on;
* ``"fold"`` -- XOR the two halves together, halving the length; multiple
  grams alias per bit, which degrades reconstruction attacks at a small
  recall cost.
"""

from __future__ import annotations

import hashlib
import hmac
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..data.blocking import record_tokens
from ..data.records import EntityRecord
from ..obs import get_telemetry
from .kernels import WORD_BITS

#: hardening modes understood by :class:`ClkEncoder`
HARDENING_MODES = ("none", "balance", "fold")

#: q-gram boundary pad; cannot collide with tokenizer output (lower-cased
#: words / digits / printable punctuation)
_PAD = "\x00"

#: entries kept in the per-encoder gram -> (h1, h2) memo
_GRAM_CACHE_CAP = 65536

#: entries kept in the per-encoder token -> bit-position memo
_TOKEN_CACHE_CAP = 8192

#: records scattered into one bit matrix at a time, which bounds the
#: scratch memory of a large batch
_ENCODE_CHUNK = 512


@dataclass(frozen=True)
class ClkConfig:
    """CLK shape parameters -- must match across parties to compare filters.

    Defaults follow the graphMatching reference configuration (1024-bit
    filters, 30 bits per gram, 2-grams).
    """

    nbits: int = 1024
    num_hashes: int = 30
    qgram: int = 2
    hardening: str = "none"

    def __post_init__(self) -> None:
        if self.nbits <= 0 or self.nbits % WORD_BITS != 0:
            raise ValueError(
                f"nbits must be a positive multiple of {WORD_BITS}, "
                f"got {self.nbits}")
        if self.hardening not in HARDENING_MODES:
            raise ValueError(
                f"unknown hardening {self.hardening!r}, "
                f"expected one of {HARDENING_MODES}")
        if self.hardening == "fold" and self.nbits % (2 * WORD_BITS) != 0:
            raise ValueError(
                f"fold hardening needs nbits divisible by {2 * WORD_BITS}, "
                f"got {self.nbits}")
        if self.num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {self.num_hashes}")
        if self.qgram < 1:
            raise ValueError(f"qgram must be >= 1, got {self.qgram}")
        if self.num_hashes * self.nbits >= 2 ** 63:
            # the encoder's int64 position arithmetic is exact below this
            raise ValueError(
                f"num_hashes * nbits must be below 2**63, got "
                f"{self.num_hashes} * {self.nbits}")

    @property
    def encoded_nbits(self) -> int:
        """Filter length after hardening (what actually goes on the wire)."""
        if self.hardening == "balance":
            return 2 * self.nbits
        if self.hardening == "fold":
            return self.nbits // 2
        return self.nbits

    @property
    def words(self) -> int:
        """uint64 words per encoded filter."""
        return self.encoded_nbits // WORD_BITS

    def params(self) -> Dict[str, int]:
        """JSON-able shape parameters (catalog manifest / compatibility)."""
        return {
            "nbits": self.nbits,
            "num_hashes": self.num_hashes,
            "qgram": self.qgram,
            "hardening": self.hardening,
            "encoded_nbits": self.encoded_nbits,
            "words": self.words,
        }


class ClkEncoder:
    """Keyed record -> packed-uint64 CLK encoder.

    ``salt`` is the per-party secret (str or bytes).  Instances survive
    ``fork``/``spawn`` -- nothing about the encoding depends on process
    state -- and may be shared by threads that encode concurrently.  The
    memos take no lock: each is a plain dict that an encode touches only
    through single ``get``, store and ``clear`` calls (each atomic in
    CPython), and every entry is an immutable tuple or read-only array
    that is a pure function of the salt, the config and its key, built in
    full before the one store that publishes it.  A race can therefore
    compute an entry twice or drop a memo early, and never hands an encode
    a partial or foreign entry.
    """

    def __init__(self, salt, config: ClkConfig = None) -> None:
        if isinstance(salt, str):
            salt = salt.encode("utf-8")
        if not isinstance(salt, (bytes, bytearray)):
            raise TypeError(f"salt must be str or bytes, got {type(salt).__name__}")
        if not salt:
            raise ValueError("salt must be non-empty")
        self._salt = bytes(salt)
        self.config = config if config is not None else ClkConfig()
        self._gram_memo: Dict[str, Tuple[int, int]] = {}
        self._token_memo: Dict[str, np.ndarray] = {}
        self._perm = None  # lazily built balance permutation

    # -- key material -------------------------------------------------
    @property
    def salt_digest(self) -> str:
        """SHA-256 fingerprint of the salt (hex, truncated).

        Lets two parties confirm they hold the same key -- and the catalog
        loader reject a mismatched one -- without the salt itself ever
        being written anywhere.
        """
        return hashlib.sha256(b"clk-salt|" + self._salt).hexdigest()[:16]

    # -- q-grams ------------------------------------------------------
    def _token_grams(self, token: str) -> List[str]:
        """Overlapping q-grams of one token, padded with ``q - 1``
        boundary characters on both sides so leading/trailing characters
        carry positional signal."""
        q = self.config.qgram
        padded = _PAD * (q - 1) + token + _PAD * (q - 1)
        return [padded[i:i + q] for i in range(len(padded) - q + 1)]

    def qgrams(self, record: EntityRecord) -> List[str]:
        """Sorted q-grams of the record's normalized token set.

        The union of :meth:`_token_grams` over :func:`record_tokens`,
        sorted + deduplicated for determinism (Bloom insertion order does
        not matter, but the test oracle iterates these directly).
        """
        grams = set()
        for token in record_tokens(record):
            grams.update(self._token_grams(token))
        return sorted(grams)

    def _gram_hashes(self, gram: str) -> Tuple[int, int]:
        """Double-hashing seeds for one gram: keyed, memoized.

        ``h1``/``h2`` are independent HMAC-SHA256 outputs under the salt
        (domain-separated); ``h2`` is forced odd so the double-hash probe
        sequence ``h1 + i * h2 (mod nbits)`` cycles the full filter when
        ``nbits`` is a power of two.
        """
        memo = self._gram_memo
        cached = memo.get(gram)
        if cached is not None:
            return cached
        data = gram.encode("utf-8")
        h1 = int.from_bytes(
            hmac.new(self._salt, b"clk-h1|" + data, hashlib.sha256).digest()[:8],
            "big")
        h2 = int.from_bytes(
            hmac.new(self._salt, b"clk-h2|" + data, hashlib.sha256).digest()[:8],
            "big") | 1
        if len(memo) >= _GRAM_CACHE_CAP:
            memo.clear()
        memo[gram] = (h1, h2)
        return h1, h2

    def gram_bits(self, gram: str) -> List[int]:
        """The ``num_hashes`` bit positions one gram sets (test oracle)."""
        h1, h2 = self._gram_hashes(gram)
        nbits = self.config.nbits
        return [(h1 + i * h2) % nbits for i in range(self.config.num_hashes)]

    def _token_positions(self, token: str) -> np.ndarray:
        """Every bit position the q-grams of one token set, memoized.

        The oracle's ``(h1 + i * h2) mod n`` equals ``(h1 mod n + i *
        (h2 mod n)) mod n``.  Both residues are below ``n`` and ``i`` below
        ``num_hashes``, so no intermediate reaches ``num_hashes * n``, and
        the int64 arithmetic is exact because :class:`ClkConfig` rejects
        ``num_hashes * nbits >= 2**63``.  Positions are kept as int32 when
        they fit, and read-only, so a memo entry is never changed after
        it is published.
        """
        positions = self._token_memo.get(token)
        if positions is not None:
            return positions
        nbits, num_hashes = self.config.nbits, self.config.num_hashes
        seeds = np.array([(h1 % nbits, h2 % nbits) for h1, h2 in
                          map(self._gram_hashes, self._token_grams(token))],
                         dtype=np.int64)
        probes = np.arange(num_hashes, dtype=np.int64)
        positions = ((seeds[:, :1] + probes * seeds[:, 1:]) % nbits).astype(
            np.int32 if nbits <= 2 ** 31 else np.int64).ravel()
        positions.flags.writeable = False
        memo = self._token_memo
        if len(memo) >= _TOKEN_CACHE_CAP:
            memo.clear()
        memo[token] = positions
        return positions

    # -- encoding -----------------------------------------------------
    def _encode(self, records: Sequence[EntityRecord]) -> np.ndarray:
        """The kernel: ``(N, words)`` packed filters.

        Each chunk of records scatters every record's memoized token
        positions into one ``(chunk, nbits)`` bit matrix, then hardens and
        packs the whole matrix at once.  Setting a bit twice is setting it
        once, so repeated grams across a record's tokens need no dedup.
        """
        nbits = self.config.nbits
        out = np.empty((len(records), self.config.words), dtype=np.uint64)
        for start in range(0, len(records), _ENCODE_CHUNK):
            chunk = records[start:start + _ENCODE_CHUNK]
            parts, counts = [], []
            for record in chunk:
                row = [self._token_positions(token)
                       for token in record_tokens(record)]
                parts.extend(row)
                counts.append(sum(part.size for part in row))
            bits = np.zeros((len(chunk), nbits), dtype=bool)
            if parts:
                rows = np.repeat(np.arange(len(chunk)) * nbits, counts)
                bits.reshape(-1)[rows + np.concatenate(parts)] = True
            out[start:start + len(chunk)] = self._harden_and_pack(bits)
        return out

    def encode_record(self, record: EntityRecord) -> np.ndarray:
        """One record -> packed uint64 filter of ``config.words`` words."""
        packed = self._encode([record])[0]
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("privacy.clk.encoded").inc()
        return packed

    def encode_records(self, records: Iterable[EntityRecord]) -> np.ndarray:
        """Batch encode: ``(N, words)`` uint64 matrix, one row per record."""
        started = time.perf_counter()
        records = list(records)
        packed = self._encode(records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("privacy.clk.encoded").inc(len(records))
            tel.metrics.timer("privacy.clk.encode_seconds").observe(
                time.perf_counter() - started)
        return packed

    # -- hardening ----------------------------------------------------
    def _balance_perm(self) -> np.ndarray:
        """Salt-derived fixed permutation of the balanced filter's bits.

        Seeded from the key material, so both salt-sharing parties apply
        the same shuffle; an outsider cannot undo it to separate the
        original half from the complement half.
        """
        if self._perm is None:
            seed_bytes = hmac.new(
                self._salt, b"clk-balance-perm", hashlib.sha256).digest()
            seed = int.from_bytes(seed_bytes[:8], "big")
            perm = np.random.default_rng(seed).permutation(
                2 * self.config.nbits)
            perm.flags.writeable = False
            self._perm = perm
        return self._perm

    def _harden_and_pack(self, bits: np.ndarray) -> np.ndarray:
        """``(..., nbits)`` bool bits -> ``(..., words)`` hardened filters."""
        mode = self.config.hardening
        if mode == "balance":
            bits = np.concatenate([bits, ~bits], axis=-1)[
                ..., self._balance_perm()]
        packed = self._pack(bits)
        if mode == "fold":
            half = packed.shape[-1] // 2
            packed = packed[..., :half] ^ packed[..., half:]
        return packed

    @staticmethod
    def _pack(bits: np.ndarray) -> np.ndarray:
        """Bool bits ``(..., n)`` -> little-endian-bit uint64 words.

        Bit ``i`` of the filter lands in word ``i // 64`` at in-word
        position ``i % 64`` -- the layout every kernel, the catalog file,
        and the base64 wire helpers all assume.  Little-endian bit order
        within each byte and little-endian bytes within each word give
        exactly that.
        """
        packed = np.ascontiguousarray(
            np.packbits(bits, axis=-1, bitorder="little"))
        return packed.view("<u8").astype(np.uint64, copy=False)

    # -- bookkeeping --------------------------------------------------
    def params(self) -> Dict[str, object]:
        """Shape params + salt fingerprint (what catalogs persist)."""
        out: Dict[str, object] = dict(self.config.params())
        out["salt_digest"] = self.salt_digest
        return out

    def __repr__(self) -> str:  # never leak the salt
        cfg = self.config
        return (f"ClkEncoder(nbits={cfg.nbits}, num_hashes={cfg.num_hashes}, "
                f"qgram={cfg.qgram}, hardening={cfg.hardening!r}, "
                f"salt_digest={self.salt_digest!r})")


def clk_to_bytes(clk: np.ndarray) -> bytes:
    """Packed filter -> canonical little-endian uint64 bytes (wire/disk)."""
    return np.ascontiguousarray(clk, dtype="<u8").tobytes()


def clk_from_bytes(raw: bytes) -> np.ndarray:
    """Inverse of :func:`clk_to_bytes` (copy, so the array is writable)."""
    if len(raw) % 8 != 0:
        raise ValueError(f"clk byte length must be a multiple of 8, got {len(raw)}")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)
