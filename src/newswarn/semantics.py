"""Embedding-based phrase distances, seed expansion, and feature clustering.

Word mover's distance between two short phrases is the exact minimum-cost
transport between uniform distributions over their token embeddings under a
Euclidean ground cost. With m and n tokens, repeating each source token
L/m times and each target token L/n times, L = lcm(m, n) <= 6, gives L units
of mass 1/L on each side. An optimal plan then exists that moves each unit
whole (Birkhoff-von Neumann: the doubly stochastic matrices are the convex hull
of the permutations), so the transport optimum is an L x L assignment. As
L! <= 720, the solver scores every permutation at once;
``scipy.optimize.linear_sum_assignment`` gives the same optimum, but importing
it adds about 23 MiB to the process.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .artifacts import write_json
from .errors import DataError
from .textutil import MAX_NGRAM, normalize_ngram, tokenize


@dataclass(frozen=True)
class EmbeddingTable:
    vectors: dict[str, np.ndarray] = field(repr=False)
    dim: int = 0

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, word):
        return word in self.vectors

    def get(self, word: str) -> np.ndarray:
        try:
            return self.vectors[word]
        except KeyError:
            raise DataError(f"word {word!r} not in embedding vocabulary") from None


def load_embeddings(path) -> EmbeddingTable:
    """Parse a word2vec-style text file ("V D" header, then word + D floats).

    The first malformed line raises DataError naming it. A word given again
    keeps its last vector, with a warning at each repeat before that line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: expected 'V D' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}:1: expected integer 'V D' header") from None
        split = list(map(str.split, fh.read().split("\n")))
    given = list(map(bool, split))  # blank lines are skipped
    rows = list(itertools.compress(split, given))
    lines = list(itertools.compress(itertools.count(2), given))
    # Each check reads only the rows before the previous check's failure, so the
    # last failure found is the first malformed row.
    stop, error = len(rows), ""
    wrong = np.fromiter(map(len, rows), int, len(rows)) != dim + 1
    if wrong.any():
        stop = int(wrong.argmax())
        error = f"expected {dim} values, found {len(rows[stop]) - 1}"
    values: list[float] = []
    try:  # list.extend keeps what the map yielded before it raised
        values.extend(map(float, itertools.chain.from_iterable(
            map(operator.itemgetter(slice(1, None)), rows[:stop]))))
    except ValueError:
        stop, error = len(values) // dim, "non-numeric vector component"
    vecs = np.array(values[:stop * dim], dtype=float).reshape(stop, max(dim, 0))
    finite = np.isfinite(vecs).all(axis=1)
    if not finite.all():
        stop, error = int(finite.argmin()), "non-finite vector component"
    words = list(map(operator.itemgetter(0), rows[:stop]))
    first = dict(zip(words[::-1], range(stop - 1, -1, -1)))  # each word's first row
    for r in np.flatnonzero(np.fromiter(map(first.__getitem__, words), int, stop)
                            != np.arange(stop)):
        warnings.warn(f"{path}:{lines[r]}: duplicate word {words[r]!r}, keeping last")
    if error:
        raise DataError(f"{path}:{lines[stop]}: {error}")
    vecs.flags.writeable = False
    vectors = dict(zip(words, vecs))  # a repeated word keeps its first place and last vector
    if len(vectors) != count:
        warnings.warn(f"{path}: header declares {count} words, parsed {len(vectors)}")
    return EmbeddingTable(vectors=vectors, dim=dim)


def _phrase_vectors(phrase, emb: EmbeddingTable) -> np.ndarray:
    """The embeddings of the phrase's in-vocabulary tokens, one row each.

    Raises DataError when none is left.
    """
    toks = list(tokenize(phrase)) if isinstance(phrase, str) else [t.lower() for t in phrase]
    if not toks:
        raise DataError("empty phrase")
    if len(toks) > MAX_NGRAM:
        raise DataError(f"phrase {' '.join(toks)!r} longer than {MAX_NGRAM} tokens")
    toks = [t for t in toks if t in emb]
    if not toks:
        raise DataError("phrase has no in-vocabulary token")
    return np.stack([emb.get(t) for t in toks])


@cache
def _permutations(L: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(L))))
    perms.flags.writeable = False
    return perms


def _solve_transport(cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact uniform-marginal transport as an assignment on replicated tokens."""
    m, n = cost.shape
    L = math.lcm(m, n)
    rows, perms = np.arange(L), _permutations(L)
    big = np.repeat(np.repeat(cost, L // m, axis=0), L // n, axis=1)
    cols = perms[np.argmin(big[rows, perms].sum(axis=1))]
    plan = np.zeros((m, n))
    np.add.at(plan, (rows // (L // m), cols // (L // n)), 1.0 / L)
    return float((plan * cost).sum()), plan


def _transport_cost(va: np.ndarray, vb: np.ndarray) -> float:
    """Word mover's distance between two phrases given as ``_phrase_vectors``."""
    return _solve_transport(np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2))[0]


def wmd(a, b, emb: EmbeddingTable) -> float:
    """Word mover's distance between two 1..3-token phrases.

    Out-of-vocabulary tokens are ignored; a phrase with none left raises DataError.
    """
    return _transport_cost(_phrase_vectors(a, emb), _phrase_vectors(b, emb))


def enumerate_candidates(corpus, floor: int = 1000) -> list[str]:
    """All corpus unigrams, plus bi/trigrams occurring strictly more than ``floor`` times."""
    keys, counts = corpus.ngram_counts()
    unigram = keys < len(corpus.vocabulary)  # a unigram's key is its token id
    return sorted(map(corpus.ngram, keys[unigram | (counts > floor)].tolist()))


def expand_seeds(seeds, candidates, emb: EmbeddingTable, radius: float = 6.0):
    """Candidates within WMD ``radius`` (strict) of any seed, tagged by nearest seed.

    Candidates identical to a seed are not expansions. Candidates or seeds
    with no in-vocabulary token are skipped (counted, warned once). Each phrase
    is embedded once; a tie goes to the first seed in sorted order.
    """
    from .frames import TextFeature

    seed_set = {normalize_ngram(s if isinstance(s, str) else s.ngram) for s in seeds}
    seed_vectors = []
    for s in sorted(seed_set):
        try:
            seed_vectors.append((s, _phrase_vectors(s, emb)))
        except DataError:
            continue
    if not seed_vectors:
        raise DataError("no seed has embedding coverage")
    dropped = len(seed_set) - len(seed_vectors)
    skipped_candidates = 0
    out = []
    for cand in sorted(normalize_ngram(c) for c in candidates):
        if cand in seed_set:
            continue
        try:
            vc = _phrase_vectors(cand, emb)
        except DataError:
            skipped_candidates += 1
            continue
        best = min(((_transport_cost(vc, vs), s) for s, vs in seed_vectors),
                   key=lambda pair: pair[0])
        if best[0] < radius:
            out.append(TextFeature(ngram=cand, provenance=("expanded",),
                                   source_seed=best[1], distance=best[0]))
    if dropped or skipped_candidates:
        warnings.warn(
            f"expansion skipped {dropped} seeds and {skipped_candidates} candidates "
            "without embedding coverage"
        )
    return out


@dataclass(frozen=True)
class FeatureCluster:
    cluster_id: int
    label: str
    members: tuple[str, ...]


def pairwise_distances(features, emb: EmbeddingTable) -> np.ndarray:
    feats = [normalize_ngram(f) for f in features]
    k = len(feats)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dist[i, j] = dist[j, i] = wmd(feats[i], feats[j], emb)
    return dist


def cluster_features(features, emb: EmbeddingTable, k: int = 12,
                     labels=None) -> list[FeatureCluster]:
    """Average-linkage agglomerative clustering on pairwise WMD.

    Deterministic given input order: merges the lowest-indexed pair among
    those at minimum average distance.
    """
    feats = [normalize_ngram(f) for f in features]
    if k < 1 or k > len(feats):
        raise DataError(f"cluster count {k} outside 1..{len(feats)}")
    base = pairwise_distances(feats, emb)
    clusters: list[list[int]] = [[i] for i in range(len(feats))]

    def avg_dist(a: list[int], b: list[int]) -> float:
        return float(np.mean([base[i, j] for i in a for j in b]))

    while len(clusters) > k:
        best = None
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                d = avg_dist(clusters[p], clusters[q])
                if best is None or d < best[0] - 1e-15:
                    best = (d, p, q)
        _, p, q = best
        clusters[p] = clusters[p] + clusters[q]
        del clusters[q]

    clusters.sort(key=lambda c: min(c))
    out = []
    for cid, members in enumerate(clusters, start=1):
        label = labels[cid - 1] if labels and cid - 1 < len(labels) else f"cluster-{cid}"
        out.append(FeatureCluster(cid, label, tuple(feats[i] for i in sorted(members))))
    return out


def cluster_validation(clusters, factor_series) -> tuple[float, float]:
    """Mean pairwise Pearson correlation within vs. across clusters.

    ``factor_series`` maps feature n-gram to its monthly values at a common
    aggregation level, all over the same months. Constant series are excluded
    with a warning.
    """
    assignment = {}
    for c in clusters:
        for f in c.members:
            assignment[f] = c.cluster_id
    feats = []
    for f in sorted(assignment):
        s = factor_series.get(f)
        if s is None:
            raise DataError(f"no factor series for clustered feature {f!r}")
        if np.ptp(s) == 0.0:
            warnings.warn(f"constant factor series for {f!r} excluded from cluster validation")
            continue
        feats.append(f)
    intra, inter = [], []
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            r = float(np.corrcoef(factor_series[feats[i]], factor_series[feats[j]])[0, 1])
            if assignment[feats[i]] == assignment[feats[j]]:
                intra.append(r)
            else:
                inter.append(r)
    if not intra or not inter:
        warnings.warn("cluster validation lacks within- or across-cluster pairs")
    return (
        float(np.mean(intra)) if intra else float("nan"),
        float(np.mean(inter)) if inter else float("nan"),
    )


def similarity_edges(features, emb: EmbeddingTable):
    """(feature_a, feature_b, distance) rows for external network layout."""
    feats = sorted(normalize_ngram(f) for f in features)
    dist = pairwise_distances(feats, emb)
    return [
        (feats[i], feats[j], float(dist[i, j]))
        for i in range(len(feats))
        for j in range(i + 1, len(feats))
    ]


def save_clusters(path, clusters) -> None:
    rows = [
        {"cluster_id": c.cluster_id, "label": c.label, "members": list(c.members)}
        for c in clusters
    ]
    write_json(path, rows)


def load_clusters(path) -> list[FeatureCluster]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    return [
        FeatureCluster(int(r["cluster_id"]), r["label"], tuple(r["members"])) for r in rows
    ]
