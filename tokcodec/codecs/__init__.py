"""Codec tree: every encoded column is a tree of codec nodes.

A node is a plain dict:

    {"c": <codec name>, "m": {json-able meta}, "p": [payload bytes, ...],
     "k": {child name: node, ...}}

Leaves carry payload bytes; the container (blocks.py) flattens payloads
into one buffer and stores the tree (with payloads replaced by segment
ids) in a JSON header.  Codecs are pure functions over numpy arrays —
deterministic, no RNG — so encode is reproducible for resume.

Re-owns the encoding layer the reference delegates to parquet-mr
(dictionary / RLE / bit-pack page encodings), per SURVEY.md §2 footnote.
"""

from __future__ import annotations

from tokcodec.codecs.intcodecs import (  # noqa: F401
    decode_int,
    encode_int_auto,
    encoded_size,
    decode_float,
    encode_float_auto,
)
from tokcodec.codecs.bytescodecs import (  # noqa: F401
    decode_bytes,
    encode_bytes_auto,
)
