"""Data substrate: records, serialization, datasets, blocking, generators."""

from .blocking import (
    BlockingResult, OverlapBlocker, OverlapIndex, blocking_recall,
)
from .dataset import (
    CandidatePair, DatasetStatistics, GEMDataset, LowResourceView, split_pairs,
)
from .generators import DATASET_NAMES, load_all, load_dataset, make_generator
from .io import (
    load_dataset_file, load_machamp_dir, save_dataset, save_machamp_dir,
)
from .minhash import MinHashBlocker, MinHasher
from .records import KINDS, RELATIONAL, SEMI, TEXT, EntityRecord, Table
from .serialize import serialize, serialize_pair

__all__ = [
    "EntityRecord", "Table", "KINDS", "RELATIONAL", "SEMI", "TEXT",
    "serialize", "serialize_pair",
    "CandidatePair", "GEMDataset", "LowResourceView", "DatasetStatistics",
    "split_pairs",
    "OverlapBlocker", "OverlapIndex", "BlockingResult", "blocking_recall",
    "MinHashBlocker", "MinHasher",
    "DATASET_NAMES", "load_dataset", "load_all", "make_generator",
    "save_dataset", "load_dataset_file", "load_machamp_dir", "save_machamp_dir",
]
