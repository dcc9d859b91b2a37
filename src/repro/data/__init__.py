"""Synthetic data generation and wire serialization.

This package reproduces the *Mini-App data generator* the paper uses
(Luckow & Jha, StreamML 2019): clustered Gaussian point clouds with
injected outliers, framed into messages of ``points x features`` float64
values (8 bytes per value) — the paper's message sizes of 25 to 10,000
points with 32 features correspond to 7 KB to 2.6 MB on the wire.
"""

from repro.data.generator import DataBlockGenerator, GeneratorConfig
from repro.data.serde import (
    encode_block,
    decode_block,
    encoded_size,
    HEADER_SIZE,
    BYTES_PER_VALUE,
)

__all__ = [
    "DataBlockGenerator",
    "GeneratorConfig",
    "encode_block",
    "decode_block",
    "encoded_size",
    "HEADER_SIZE",
    "BYTES_PER_VALUE",
]
