"""Pins every deterministic hash family to fixed digests.

Bloom bits live in block headers (on-disk format) and the dedup,
fingerprint, sample, split, quota and HLL stages key off these hashes,
so any refactor of the hashing kernels must keep their outputs bit for
bit.  Each entry below is the sha256 of one family's output over one
fixed seeded corpus: empty strings, nulls, non-ASCII text and one 64 KB
document; ints with negatives and uint64 values >= 2^63.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from tokcodec import bloom
from tokcodec.functions import dedup, hashing, sample, sketch, text

_ALPHABET = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789") + [
    "é", "ü", "ß", "✓", "日本", "語", "🙂", "ж", "Ω",
]


def _corpus() -> list[str | None]:
    rng = np.random.default_rng(20261020)
    docs: list[str | None] = ["", None, "a", "exactly8", "¡unicode! ✓", ""]
    for _ in range(300):
        r = rng.random()
        if r < 0.05:
            docs.append(None)
        elif r < 0.1:
            docs.append("")
        else:
            n_words = int(rng.integers(1, 40))
            words = [
                "".join(rng.choice(_ALPHABET, size=int(rng.integers(1, 12))))
                for _ in range(n_words)
            ]
            docs.append(" ".join(words))
    big = []
    while sum(len(w) + 1 for w in big) < 64 * 1024:
        big.append("".join(rng.choice(_ALPHABET[:36], size=int(rng.integers(1, 10)))))
    docs.append(" ".join(big).encode()[: 64 * 1024].decode())
    return docs


def _int64s() -> np.ndarray:
    rng = np.random.default_rng(7)
    edge = np.array([0, -1, 1, -(2**63), 2**63 - 1], dtype=np.int64)
    return np.concatenate([edge, rng.integers(-(2**40), 2**40, size=500)])


def _uint64s() -> np.ndarray:
    rng = np.random.default_rng(8)
    edge = np.array([0, 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    big = rng.integers(2**63, 2**64 - 1, size=250, dtype=np.uint64)
    small = rng.integers(0, 2**63, size=250, dtype=np.uint64)
    return np.concatenate([edge, big, small])


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, str):
            h.update(p.encode())
        else:
            h.update(bytes(p))
    return h.hexdigest()


class _OneBatchDataset:
    """Stands in for a Ray Dataset: `map_batches` runs the function on
    one in-memory table, so the HLL registers are read without Ray."""

    def __init__(self, table: pa.Table):
        self.table = table

    def map_batches(self, fn, batch_format):
        out = fn(self.table)
        return _Rows(out.to_pylist())


class _Rows:
    def __init__(self, rows):
        self.rows = rows

    def take_all(self):
        return self.rows


def _hll_registers(monkeypatch, arr: pa.Array) -> np.ndarray:
    monkeypatch.setattr(sketch, "_estimate", lambda regs: regs.copy())
    return sketch.hll_count_distinct(_OneBatchDataset(pa.table({"c": arr})), "c")


def _digests(monkeypatch) -> dict[str, str]:
    docs = _corpus()
    strs = pa.array(docs, type=pa.string())
    i64 = pa.array(_int64s())
    u64 = pa.array(_uint64s())
    floats = pa.array(_int64s().astype(np.float64) / 7.0)
    out: dict[str, str] = {}

    out["hash_str"] = _sha(
        np.array([hashing.hash_str(d or "") for d in docs[:50]], dtype=np.uint64)
    )
    out["fnv1a_batch"] = _sha(hashing.fnv1a_batch(strs))
    out["fnv1a_batch.large_binary"] = _sha(
        hashing.fnv1a_batch(strs.cast(pa.large_binary()).slice(3, 200))
    )
    lo, hi = text.fnv128(strs)
    out["fnv128"] = _sha(lo, hi)
    lo, hi = text.fnv128(strs.slice(5, 100))
    out["fnv128.slice"] = _sha(lo, hi)
    tbl = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
            "text": strs,
            "source": pa.array(["web"] * len(docs)),
        }
    )
    out["rolling_hash"] = _sha(text.rolling_hash(tbl).column("rh").to_numpy())
    toks = text.tokenize(tbl)
    tok_col = toks.column("tokens").combine_chunks()
    out["tokenize"] = _sha(
        tok_col.offsets.to_numpy(),
        tok_col.values.to_numpy(),
        toks.column("n_tok").to_numpy(),
    )
    doc_idx, grams, n_docs = dedup._char_ngram_hashes(strs)
    out["char_ngram_hashes"] = _sha(doc_idx, grams, np.array([n_docs]))
    doc_idx, sh = dedup._word_shingles(docs[:120], k=3)
    out["word_shingles"] = _sha(doc_idx, sh)
    langs = text.LangId()(tbl).column("lang_pred").to_pylist()
    out["langid"] = _sha("|".join(langs))
    out["key_hash_u64.str"] = _sha(sample.key_hash_u64(strs))
    out["key_hash_u64.int64"] = _sha(sample.key_hash_u64(i64))
    out["key_hash_u64.uint64"] = _sha(sample.key_hash_u64(u64))
    for name, arr in (("str", strs), ("int64", i64), ("uint64", u64),
                      ("float64", floats)):
        out[f"hll_registers.{name}"] = _sha(_hll_registers(monkeypatch, arr))

    probes_s = docs[::3] + ["absent", "zz", "✓✓", b"exactly8", b"nope", 5]
    probes_i = list(_int64s()[::4].tolist()) + list(_uint64s()[::4].tolist()) + [
        2**64, -(2**63) - 1, 12345, "12345", True, None, np.int64(-1),
    ]
    for name, arr, probes in (
        ("str", strs, probes_s),
        ("binary", strs.cast(pa.binary()), probes_s),
        ("int64", i64, probes_i),
        ("uint64", u64, probes_i),
        ("int32", pa.array(_int64s() % 100_000, type=pa.int32()), probes_i),
    ):
        b = bloom.build_bloom(arr)
        out[f"build_bloom.{name}"] = _sha(f"{b['m']}:{b['k']}:{b['t']}:{b['b64']}")
        answers = [bloom.might_contain(b, v) for v in probes]
        out[f"might_contain.{name}"] = _sha(np.array(answers, dtype=bool))
        if b["t"] == "int":
            rng = np.random.default_rng(9)
            batches = [
                pa.array(_int64s()[rng.integers(0, 505, size=3)] + 3),
                pa.array(_int64s()[rng.integers(0, 505, size=3)]),
                pa.array(np.array([2**40 + 17, -(2**40) - 17], dtype=np.int64)),
                pa.array(_uint64s()[rng.integers(0, 505, size=2)]),
                pa.array([None, None], type=pa.int64()),
            ]
            answers = [bloom.any_might_contain_ints(b, a) for a in batches]
            out[f"any_might_contain_ints.{name}"] = _sha(np.array(answers, dtype=bool))
    return out


PINNED = {
    "hash_str": (
        "e7f50084ac8633510d69b2fabbab1f921d8c95117e79a05fdd7e2a8904cd2506"
    ),
    "fnv1a_batch": (
        "8a1a583e025d4cb989d9e6ed55a910512336b5570713826f7db89833557adaca"
    ),
    "fnv1a_batch.large_binary": (
        "a318523f1794e83d6bc586c99356eeaf9bf300626fa009dad7b6df223c6b1487"
    ),
    "fnv128": (
        "22cb332eb852c5b9bc350af94898eccc4b4d924668d3da8411f905c5f41142a6"
    ),
    "fnv128.slice": (
        "54c8edf62c3d0410d49ace598b02d3be1da1cbf65aae5643ec3d2a322fd45774"
    ),
    "rolling_hash": (
        "fb49565b269dffa29b6f44102e8a651d5ee10c139b437c40d5d6164d8cbd349e"
    ),
    "tokenize": (
        "66223bbbdf74df5201b65f04eb3f2f9ef804bdf620c71172806ea8357b770bc7"
    ),
    "char_ngram_hashes": (
        "736ceea69466fc175cbcbf37120a8908d8f402e8f38ee3df921508ba470c9a3b"
    ),
    "word_shingles": (
        "7603f513bda9041b8199b631b7e97e26ce55a5bd3a2710b45b3febabde15d0a3"
    ),
    "langid": (
        "6ebc98aea91431ffe1f5be233134ffe593bf9767c5b934abe7c0a546c8299289"
    ),
    "key_hash_u64.str": (
        "645dc347dd90d129775d15abca71b4b4567f54f70f34b7ec1258b4e5a3f557b4"
    ),
    "key_hash_u64.int64": (
        "a61b8c748ab15486b7e9e3db81f141958f41c26be5c786eaf58995e7872ce0a5"
    ),
    "key_hash_u64.uint64": (
        "66d263443287e5efc79b70dcdd5cd3fa8181400057cf8223ded6840116936733"
    ),
    "hll_registers.str": (
        "0ff0712ffdc40285838ee84d729fb7b79bcf7b54eaf2bc2137ab2eee69706906"
    ),
    "hll_registers.int64": (
        "040e27150608f1eb94a324000c2e2d88cd48db5ae5932c7540101078dee121bd"
    ),
    "hll_registers.uint64": (
        "34d562d5273570ab9d1f32400c0879812e14c31076e71e62e2d313dc0658dab8"
    ),
    "hll_registers.float64": (
        "659bf25213e9eb5b0649f7255733594f72dc75e5cf5d9aac196158c88522a370"
    ),
    "build_bloom.str": (
        "73773e33d29c37123c85bbf53d22e922e05d3361925006fae02d71eb3d306544"
    ),
    "might_contain.str": (
        "c9c1b0b4b472f3348c6c61324461d2da100ee4a4023a0b264bbe9de65a745333"
    ),
    "build_bloom.binary": (
        "73773e33d29c37123c85bbf53d22e922e05d3361925006fae02d71eb3d306544"
    ),
    "might_contain.binary": (
        "c9c1b0b4b472f3348c6c61324461d2da100ee4a4023a0b264bbe9de65a745333"
    ),
    "build_bloom.int64": (
        "622cbaf364cd5d62c120126b4ba96918a1b85c6875caedd941944b667f57d2ea"
    ),
    "might_contain.int64": (
        "e415e7acb33599631e84197519593e639239ff2f8bce4e879207e336e80614fe"
    ),
    "any_might_contain_ints.int64": (
        "86f9649499b0080656c014aa244f654864bad4145c8513e9c8409f437d4a2b3b"
    ),
    "build_bloom.uint64": (
        "45f48007eb00b165084f242d5da8e6df334d2ec35e8aff490867c839f6b75d64"
    ),
    "might_contain.uint64": (
        "c674557bd885de82141193a742eba98365c629a8e824120b87af04800d288d7c"
    ),
    "any_might_contain_ints.uint64": (
        "060dc63e5595dffbd161c9ec98bc06fcf67cb22e2e75ecdf0003821388aeee4d"
    ),
    "build_bloom.int32": (
        "3ad5902b316e76c6c162b5ee9c11f5d6bc7461d84af34f2d23a78c508cf02315"
    ),
    "might_contain.int32": (
        "e3699fdca954a8373bb92ecef803b4b7b5df1d47604e5929a40d39639507d5b1"
    ),
    "any_might_contain_ints.int32": (
        "8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4"
    ),
}


def test_hash_families_are_pinned(monkeypatch):
    got = _digests(monkeypatch)
    assert got == PINNED
