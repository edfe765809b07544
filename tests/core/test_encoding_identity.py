"""Encoding digests pinned across the tokenization memo.

Every pair encoding of every dataset, template variant (t1/t2, continuous
and hard) and ``max_len`` is hashed, together with ``Tokenizer.encode_pair``
(the classifier baselines' layout) and ``Tokenizer.encode`` (the dense
record encoder's). The digests were recorded with the pop-loop truncation
that tokenized both sides of every pair afresh; the memoized id lists must
reproduce them bit for bit. The first template variant fills the memo and
the rest hit it, so both paths are covered.
"""

import hashlib

import numpy as np

from repro.core.templates import make_template
from repro.data import DATASET_NAMES, load_dataset
from repro.data.serialize import serialize
from repro.text import Tokenizer, build_vocab

#: pairs per dataset: 8 datasets x 12 template variants x 150 = 14,400
PAIRS = 150

DIGESTS = {
    "t1-cont-64":
        "a9c40e5a61bb54801bcc109fa3201e8dcf2146da9d55aad37b50ffd5b424d76a",
    "t1-cont-96":
        "d139405718a4676989be31c6422427788dc84ad80a692567d45022245e368a97",
    "t1-cont-128":
        "7b69318236454c855e1d40e3fde7b392af7dcdea2aa70f4bbe25b3e46eff0fd3",
    "t1-hard-64":
        "46965c082e9d77f6c1b1fb09a812c3fb6da6d9b4f6f9b19afd0ce649bd248b41",
    "t1-hard-96":
        "55a226cb473fdb3817298135737486d8daf334c589c5ca67075a26fc9ec1d0e1",
    "t1-hard-128":
        "3496c7ef763c2c414586419786fb46f335229fb91d3ab66d4c5f47677f5bd54f",
    "t2-cont-64":
        "d3c705287e1154a177052d5dd9b404e3f11e04bf143c6994714c643f21265014",
    "t2-cont-96":
        "204285f1819e311a9f34e874e24f4a9fa1caeff50636e58660c5f41e9a77f77f",
    "t2-cont-128":
        "5a8d2f0e2ada934b27206912418f845091224a61ea32632bd7d92fda23a3a797",
    "t2-hard-64":
        "30019a5ca5a8f1050d28fda46bfab5db203fab669b0e218846c6f11082cf9c41",
    "t2-hard-96":
        "fc265ea9f2beae3b709fdff7ccc481b9c0167715a434921b2e9853fdabbc8c0b",
    "t2-hard-128":
        "6aa39fda5a9aa9be7836782bbb56cdc94a08cf28b18e892c668173410448df8d",
    "pair-64":
        "b3b530729fb2d0d47f17be33c675148b6f41e9cae58a96d8127acf25f7b17a55",
    "pair-96":
        "3e9ed2d7575bc5c209a3a11d762d09714354c6861347992dc481166eb40a2fbf",
    "pair-128":
        "bf4f50d3b9b050de5fff370dd9eb479294ed1a10e1a53459368b62f645c98f5d",
    "single-48":
        "b43fbe0fd05e6dddb6db7bacb792d9308ab86cd7bbd0e0e5ef40cad9e022adf8",
}


def _texts():
    return [[(serialize(p.left), serialize(p.right))
             for p in list(load_dataset(name).train)[:PAIRS]]
            for name in DATASET_NAMES]


def _digests():
    data = _texts()
    vocab = build_vocab([text for rows in data for pair in rows
                         for text in pair], max_words=400)
    tok = Tokenizer(vocab)
    out = {}
    for name in ("t1", "t2"):
        for continuous in (True, False):
            for max_len in (64, 96, 128):
                h = hashlib.sha256()
                template = make_template(name, tok, continuous=continuous,
                                         max_len=max_len)
                for rows in data:
                    for left, right in rows:
                        inst = template.render(left, right)
                        h.update(np.asarray(inst.ids, dtype=np.int64)
                                 .tobytes())
                        h.update(np.int64(inst.mask_position).tobytes())
                kind = "cont" if continuous else "hard"
                out[f"{name}-{kind}-{max_len}"] = h.hexdigest()
    for max_len in (64, 96, 128):
        h = hashlib.sha256()
        for rows in data:
            for left, right in rows:
                ids = tok.encode_pair(left, right, max_len=max_len).ids
                h.update(np.asarray(ids, dtype=np.int64).tobytes())
        out[f"pair-{max_len}"] = h.hexdigest()
    h = hashlib.sha256()
    for rows in data:
        for pair in rows:
            for text in pair:
                ids = tok.encode(text, max_len=48).ids
                h.update(np.asarray(ids, dtype=np.int64).tobytes())
    out["single-48"] = h.hexdigest()
    return out


def test_encodings_equal_recorded_digests():
    assert _digests() == DIGESTS
