import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newswarn import semantics
from newswarn.errors import DataError
from newswarn.frames import TextFeature
from newswarn.semantics import (EmbeddingTable, _solve_transport, cluster_features,
                                cluster_validation, enumerate_candidates, expand_seeds,
                                load_embeddings, pairwise_distances, similarity_edges, wmd)

from conftest import embedding_table, load_embeddings_loop


def pairwise_wmd(a, b, table: EmbeddingTable) -> float:
    """wmd as one 2-D assignment on replicated tokens, the per-pair solve the stacks replaced."""
    va, vb = semantics._phrase_vectors(a, table), semantics._phrase_vectors(b, table)
    cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    m, n = cost.shape
    L = math.lcm(m, n)
    rows, perms = np.arange(L), semantics._permutations(L)
    big = np.repeat(np.repeat(cost, L // m, axis=0), L // n, axis=1)
    cols = perms[np.argmin(big[rows, perms].sum(axis=1))]
    plan = np.zeros((m, n))
    np.add.at(plan, (rows // (L // m), cols // (L // n)), 1.0 / L)
    return float((plan * cost).sum())


def brute_force_wmd(a_tokens, b_tokens, table: EmbeddingTable) -> float:
    """Exhaustive minimum over the lattice of transport plans.

    Every vertex of the transportation polytope with uniform marginals
    (1/m, 1/n) has flows in multiples of 1/lcm(m, n), so minimizing over all
    non-negative integer tables with the scaled marginals is exact.
    """
    va = np.stack([table.get(t) for t in a_tokens])
    vb = np.stack([table.get(t) for t in b_tokens])
    cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    m, n = cost.shape
    L = math.lcm(m, n)
    row_budget = L // m
    best = [math.inf]

    def compositions(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for k in range(min(total, caps[0]) + 1):
            for rest in compositions(total - k, caps[1:]):
                yield (k,) + rest

    def recurse(i, col_left, acc):
        if acc >= best[0]:
            return
        if i == m:
            best[0] = acc
            return
        for alloc in compositions(row_budget, col_left):
            extra = sum(k * cost[i][j] for j, k in enumerate(alloc)) / L
            recurse(i + 1, [col_left[j] - alloc[j] for j in range(n)], acc + extra)

    recurse(0, [L // n] * n, 0.0)
    return best[0]


@pytest.fixture
def toy_table():
    return embedding_table(
        u=(0.0, 0.0), v=(4.0, 0.0), p=(0.0, 3.0), q=(4.0, 3.0), far=(100.0, 100.0),
    )


class TestWmd:
    def test_identity_is_zero(self, toy_table):
        for phrase in ("u", "u v", "u v p"):
            assert wmd(phrase, phrase, toy_table) == pytest.approx(0.0, abs=1e-12)

    def test_single_tokens_equal_euclidean(self, toy_table):
        assert wmd("u", "p", toy_table) == pytest.approx(3.0)
        assert wmd("u", "q", toy_table) == pytest.approx(5.0)

    def test_two_by_two_frozen_value(self, toy_table):
        # optimal plan pairs u-p and v-q at distance 3 each, mass 1/2 each
        assert wmd("u v", "p q", toy_table) == pytest.approx(3.0, abs=1e-12)

    def test_two_by_two_grid_oracle(self, toy_table):
        # 1-dof polytope: plan [[t, .5-t], [.5-t, t]] for t in [0, .5]
        va = [toy_table.get(t) for t in ("u", "v")]
        vb = [toy_table.get(t) for t in ("p", "q")]
        cost = np.array([[np.linalg.norm(a - b) for b in vb] for a in va])
        ts = np.linspace(0.0, 0.5, 501)
        grid_min = min(
            t * cost[0, 0] + (0.5 - t) * cost[0, 1] + (0.5 - t) * cost[1, 0] + t * cost[1, 1]
            for t in ts
        )
        assert wmd("u v", "p q", toy_table) == pytest.approx(grid_min, abs=1e-9)

    def test_matches_lattice_oracle_on_random_phrases(self):
        rng = np.random.default_rng(7)
        vocab = {f"w{i}": rng.normal(0, 3, 8) for i in range(12)}
        table = embedding_table(**vocab)
        words = sorted(vocab)
        for _ in range(60):
            a = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            b = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            assert wmd(a, b, table) == pytest.approx(brute_force_wmd(a, b, table),
                                                     abs=1e-6)

    def test_repeated_tokens_accumulate_mass(self, toy_table):
        # "u u v" puts 2/3 mass on u; oracle treats duplicates the same way.
        a, b = ["u", "u", "v"], ["p", "q", "far"]
        assert wmd(a, b, toy_table) == pytest.approx(brute_force_wmd(a, b, toy_table),
                                                     abs=1e-6)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        vocab = {f"w{i}": rng.normal(0, 2, 6) for i in range(9)}
        table = embedding_table(**vocab)
        words = sorted(vocab)
        for _ in range(40):
            phr = [list(rng.choice(words, size=rng.integers(1, 4), replace=False))
                   for _ in range(3)]
            dab = wmd(phr[0], phr[1], table)
            dba = wmd(phr[1], phr[0], table)
            dbc = wmd(phr[1], phr[2], table)
            dac = wmd(phr[0], phr[2], table)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab >= 0.0
            assert dac <= dab + dbc + 1e-9

    def test_zero_iff_same_token_set(self):
        rng = np.random.default_rng(3)
        vocab = {f"w{i}": rng.normal(0, 2, 5) for i in range(8)}
        table = embedding_table(**vocab)
        words = sorted(vocab)
        for _ in range(40):
            a = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            b = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            d = wmd(a, b, table)
            if set(a) == set(b):
                assert d == pytest.approx(0.0, abs=1e-9)
            else:
                assert d > 1e-9

    def test_oov_policy(self, toy_table):
        # an out-of-vocabulary token is dropped, but both phrases must stay non-empty
        assert wmd("u missing", "p", toy_table) == wmd("u", "p", toy_table)
        assert wmd("u missing", "p", toy_table) == pytest.approx(3.0)
        with pytest.raises(DataError, match="no in-vocabulary token"):
            wmd("missing", "p", toy_table)

    def test_plan_marginals(self, toy_table):
        va = np.stack([toy_table.get(t) for t in ("u", "v")])
        vb = np.stack([toy_table.get(t) for t in ("p", "q", "far")])
        [cost], [plan] = _solve_transport(np.linalg.norm(va[:, None] - vb[None], axis=2)[None])
        assert plan.shape == (2, 3)
        assert np.allclose(plan.sum(axis=1), 1 / 2)
        assert np.allclose(plan.sum(axis=0), 1 / 3)
        assert np.all(plan >= 0)
        assert plan.sum() == pytest.approx(1.0)
        assert cost == wmd("u v", "p q far", toy_table)


class TestLoadEmbeddings:
    def test_fixture_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nalpha 1.0 2.0\nbeta 0.5 -1.0\ngamma 0.0 0.0\n")
        table = load_embeddings(path)
        assert len(table) == 3 and table.dim == 2
        assert np.allclose(table.get("beta"), [0.5, -1.0])

    def test_dimension_mismatch_fatal_with_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nalpha 1.0 2.0 3.0\nbeta 1.0 2.0\n")
        with pytest.raises(DataError, match=":3"):
            load_embeddings(path)

    def test_duplicate_word_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 1\nalpha 1.0\nalpha 2.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = load_embeddings(path)
        assert table.get("alpha")[0] == 2.0
        assert any("duplicate" in str(w.message) for w in caught)


def _embedding_outcome(load, path):
    """The table's words, dim and vector bytes, or the DataError's text; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load(path)
            result = (table.dim, [(w, v.tobytes(), v.flags.writeable)
                                  for w, v in table.vectors.items()])
        except DataError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


class TestEmbeddingReaderOracle:
    """``load_embeddings`` against the line-by-line reader it replaced (``conftest``)."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dim=st.integers(0, 4), data=st.data(), blank=st.booleans(),
           miscount=st.integers(-1, 1), corrupt=st.sampled_from(
               [None, "short", "long", "x3", "nan", "inf", "-inf"]))
    def test_files_read_as_the_line_loop_read_them(self, tmp_path, dim, data, blank, miscount,
                                                   corrupt):
        words = data.draw(st.lists(st.sampled_from(["a", "b", "c", "dd", "e1"]), max_size=8))
        lines = [" ".join([w] + [repr(data.draw(st.floats(allow_nan=False,
                                                           allow_infinity=False)))
                                 for _ in range(dim)]) for w in words]
        if corrupt and lines:
            r = data.draw(st.integers(0, len(lines) - 1))
            parts = lines[r].split()
            if corrupt == "short" and dim:
                parts = parts[:-1]
            elif corrupt == "long":
                parts.append("1.0")
            elif dim and corrupt not in ("short", "long"):
                parts[data.draw(st.integers(1, dim))] = corrupt
            lines[r] = " ".join(parts)
        if blank and lines:
            lines.insert(data.draw(st.integers(0, len(lines))), "  ")
        path = tmp_path / "emb.txt"
        path.write_text(f"{len(set(words)) + miscount} {dim}\n" + "\n".join(lines) + "\n")
        assert _embedding_outcome(load_embeddings, path) == _embedding_outcome(
            load_embeddings_loop, path)

    @pytest.mark.parametrize("text", [
        "2 3\nalpha 1.0 2.0 3.0\nbeta 1.0 2.0\n",          # wrong width
        "2 2\nalpha 1.0 2.0\nbeta 1.0 x\n",                # non-numeric
        "2 2\nalpha 1.0 2.0\nbeta 1.0 nan\n",              # non-finite
        "2 1\nalpha 1.0\n\nalpha 2.0\n",                   # a repeat, after a blank line
        "3 1\nalpha 1.0\nalpha 2.0\nalpha inf\n",          # a repeat before the error
        "5 1\nalpha 1.0\nbeta 2.0\n",                      # the count warning
        "2 2\nalpha 1.0 x\nbeta 1.0\n",                    # non-numeric before a short row
        "2 2\nalpha 1.0 inf\nbeta x 1.0\n",                # non-finite before non-numeric
    ])
    def test_each_case_reads_as_the_line_loop_read_it(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        assert _embedding_outcome(load_embeddings, path) == _embedding_outcome(
            load_embeddings_loop, path)


class TestCandidates:
    def test_unigram_always_included_floor_is_strict(self, small_corpus):
        candidates = enumerate_candidates(small_corpus, floor=10)
        assert "famine" in candidates                 # unigram seen once
        assert all(" " not in c for c in candidates)  # no bigram passes floor 10

    def test_strict_floor_boundary(self, tmp_path):
        from conftest import article, ngram_occurrences, write_corpus
        from newswarn.corpus import read_corpus
        arts = [article(i, "2011-01-05", "dry spell continues") for i in range(3)]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        assert ngram_occurrences(corpus)["dry spell"] == 3
        at_floor = enumerate_candidates(corpus, floor=3)
        above_floor = enumerate_candidates(corpus, floor=2)
        assert "dry spell" not in at_floor      # count == floor -> excluded
        assert "dry spell" in above_floor       # count > floor -> included

    def test_exact_expected_set(self, tmp_path):
        from conftest import article, write_corpus
        from newswarn.corpus import read_corpus
        arts = [article(0, "2011-01-05", "aa bb aa bb"),
                article(1, "2011-01-06, ".replace(", ", ""), "aa bb cc")]
        arts[1]["date"] = "2011-01-06"
        path = write_corpus(tmp_path / "c.jsonl", arts)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        got = set(enumerate_candidates(corpus, floor=2))
        # unigrams always in; "aa bb" occurs 3 times (> 2); everything else <= 2
        assert got == {"aa", "bb", "cc", "aa bb"}


class TestExpansion:
    def make_table(self):
        rng = np.random.default_rng(5)
        seeds = {"terrorism": np.array([0.0] * 7 + [0.0]), "drought": None}
        base = np.zeros(8)
        drought = np.zeros(8)
        drought[0] = 40.0
        vocab = {
            "terrorism": base,
            "drought": drought,
            "terrorist": base + np.array([3.0] + [0.0] * 7),
            "dryness": drought + np.array([0.0, 4.0] + [0.0] * 6),
            "exactly": base + np.array([0.0, 6.0] + [0.0] * 6),  # distance exactly 6
            "football": base + np.array([0.0, 0.0, 25.0] + [0.0] * 5),
        }
        return embedding_table(**vocab)

    def test_expansion_rules(self):
        table = self.make_table()
        seeds = ["terrorism", "drought"]
        candidates = ["terrorism", "terrorist", "dryness", "exactly", "football"]
        got = expand_seeds(seeds, candidates, table, radius=6.0)
        by_ngram = {f.ngram: f for f in got}
        assert set(by_ngram) == {"terrorist", "dryness"}
        assert by_ngram["terrorist"].source_seed == "terrorism"
        assert by_ngram["terrorist"].distance == pytest.approx(3.0)
        assert by_ngram["dryness"].source_seed == "drought"
        # candidate at distance exactly the radius is excluded (strict <)
        assert "exactly" not in by_ngram
        # candidates equal to a seed are never expansions
        assert "terrorism" not in by_ngram

    def test_monotone_in_radius(self):
        table = self.make_table()
        seeds = ["terrorism", "drought"]
        candidates = ["terrorist", "dryness", "exactly", "football"]
        previous: set = set()
        for radius in (1.0, 3.5, 6.0, 26.0):
            got = {f.ngram for f in expand_seeds(seeds, candidates, table, radius=radius)}
            assert previous <= got
            previous = got


    def test_distances_equal_the_pairwise_solve_exactly(self, monkeypatch):
        # Every (candidate, seed) pair is solved in a stack of its (m, n) shape, and small
        # stacks split the pairs of one shape into several; each distance is still that of
        # a 2-D solve of the pair alone, bit for bit.
        monkeypatch.setattr(semantics, "_STACK_ELEMENTS", 200)
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(12)]
        for dim in (16, 3):
            table = embedding_table(**{w: rng.normal(0, 2, dim) for w in words})
            vocab = words + ["oov", "missing"]  # out-of-vocabulary tokens, dropped by wmd
            phrase = lambda: " ".join(rng.choice(vocab, size=int(rng.integers(1, 4))))
            seeds = {phrase() for _ in range(7)}
            candidates = [phrase() for _ in range(60)]
            covered = sorted(s for s in seeds if set(s.split()) - {"oov", "missing"})
            kept = [c for c in candidates if set(c.split()) - {"oov", "missing"}]
            want = {(c, s): pairwise_wmd(c, s, table) for c in kept for s in covered}
            assert all(wmd(c, s, table) == d for (c, s), d in want.items())
            by_shape = {}
            for c, s in want:
                va, vb = (semantics._phrase_vectors(p, table) for p in (c, s))
                by_shape.setdefault((len(va), len(vb)), []).append(((c, s), va, vb))
            for pairs in by_shape.values():
                keys, va, vb = zip(*pairs)
                stacked = semantics._transport_cost(np.stack(va), np.stack(vb))
                assert stacked.tolist() == [want[k] for k in keys]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = expand_seeds(seeds, candidates, table, radius=math.inf)
            assert {f.ngram for f in got} == set(kept) - seeds
            for f in got:
                nearest = [want[f.ngram, s] for s in covered]
                assert f.distance == min(nearest)
                assert f.source_seed == covered[nearest.index(min(nearest))]

    def test_a_tie_goes_to_the_first_seed_in_sorted_order(self):
        # "c" is exactly 1 from "beta", from "gamma" and (as the mean of two unit costs)
        # from the two-token "alpha delta", whose pairs are solved in a stack of their own.
        table = embedding_table(c=(0.0, 0.0), alpha=(1.0, 0.0), delta=(-1.0, 0.0),
                                beta=(0.0, 1.0), gamma=(0.0, -1.0))
        for seeds in (["gamma", "beta", "alpha delta"], ["gamma", "beta"]):
            [got] = expand_seeds(seeds, ["c"], table, radius=2.0)
            assert got.distance == 1.0
            assert got.source_seed == sorted(seeds)[0]


class TestClustering:
    def planted_table(self):
        rng = np.random.default_rng(2)
        vocab = {}
        for i in range(4):
            vocab[f"ga{i}"] = np.array([0.0] * 8) + rng.normal(0, 0.5, 8)
        for i in range(3):
            vocab[f"gb{i}"] = np.array([50.0] + [0.0] * 7) + rng.normal(0, 0.5, 8)
        return embedding_table(**vocab)

    def test_singletons_and_single_cluster(self):
        table = self.planted_table()
        feats = sorted(table.vectors)
        singles = cluster_features(feats, table, k=len(feats))
        assert all(len(c.members) == 1 for c in singles)
        one = cluster_features(feats, table, k=1)
        assert len(one) == 1 and set(one[0].members) == set(feats)

    def test_planted_partition_recovered(self):
        table = self.planted_table()
        feats = sorted(table.vectors)
        clusters = cluster_features(feats, table, k=2)
        groups = {frozenset(c.members) for c in clusters}
        assert groups == {frozenset({"ga0", "ga1", "ga2", "ga3"}),
                          frozenset({"gb0", "gb1", "gb2"})}

    def test_partition_property(self):
        table = self.planted_table()
        feats = sorted(table.vectors)
        for k in (1, 2, 3, len(feats)):
            clusters = cluster_features(feats, table, k=k)
            members = [m for c in clusters for m in c.members]
            assert sorted(members) == feats          # covering, no duplicates
            assert len(clusters) == k
            assert all(c.members for c in clusters)  # non-empty

    def test_k_larger_than_features_errors(self):
        table = self.planted_table()
        with pytest.raises(DataError):
            cluster_features(["ga0", "ga1"], table, k=3)

    def test_deterministic(self):
        table = self.planted_table()
        feats = sorted(table.vectors)
        a = cluster_features(feats, table, k=3)
        b = cluster_features(feats, table, k=3)
        assert a == b


class TestClusterValidation:
    def clusters_of(self, mapping):
        from newswarn.semantics import FeatureCluster
        out = []
        for cid, members in sorted(mapping.items()):
            out.append(FeatureCluster(cid, f"cluster-{cid}", tuple(members)))
        return out

    def test_identical_series(self):
        s = np.array([1.0, 2.0, 3.0, 2.0])
        clusters = self.clusters_of({1: ("a", "b"), 2: ("c",)})
        factors = {"a": s, "b": s, "c": s}
        intra, inter = cluster_validation(clusters, factors)
        assert intra == pytest.approx(1.0)
        assert inter == pytest.approx(1.0)

    def test_orthogonal_blocks(self):
        s1 = np.array([0.0, 1.0, 0.0, -1.0] * 3)
        s2 = np.array([1.0, 0.0, -1.0, 0.0] * 3)
        clusters = self.clusters_of({1: ("a", "b"), 2: ("c", "d")})
        factors = {"a": s1, "b": s1, "c": s2, "d": s2}
        intra, inter = cluster_validation(clusters, factors)
        assert intra == pytest.approx(1.0)
        assert inter == pytest.approx(0.0, abs=1e-12)

    def test_block_fixture_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        base1, base2 = rng.normal(0, 1, 40), rng.normal(0, 1, 40)
        series = {
            "a": base1 + rng.normal(0, 0.3, 40),
            "b": base1 + rng.normal(0, 0.3, 40),
            "c": base2 + rng.normal(0, 0.3, 40),
            "d": base2 + rng.normal(0, 0.3, 40),
        }
        clusters = self.clusters_of({1: ("a", "b"), 2: ("c", "d")})
        intra, inter = cluster_validation(clusters, series)
        names = sorted(series)
        intra_ref, inter_ref = [], []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                r = np.corrcoef(series[names[i]], series[names[j]])[0, 1]
                same = (names[i] in ("a", "b")) == (names[j] in ("a", "b"))
                (intra_ref if same else inter_ref).append(r)
        assert intra == pytest.approx(np.mean(intra_ref))
        assert inter == pytest.approx(np.mean(inter_ref))

    def test_constant_series_excluded_with_warning(self):
        clusters = self.clusters_of({1: ("a", "b"), 2: ("c", "d")})
        factors = {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([1.0, 2.0, 3.0, 4.1]),
            "c": np.array([5.0, 5.0, 5.0, 5.0]),
            "d": np.array([4.0, 3.0, 2.0, 1.0]),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            intra, inter = cluster_validation(clusters, factors)
        assert any("constant" in str(w.message) for w in caught)
        assert np.isfinite(intra) and np.isfinite(inter)


def test_similarity_edges_complete(toy_table):
    edges = similarity_edges(["u", "v", "p"], toy_table)
    assert len(edges) == 3
    pairs = {(a, b) for a, b, _ in edges}
    assert pairs == {("p", "u"), ("p", "v"), ("u", "v")}


def test_pairwise_distance_matrix_symmetric(toy_table):
    dist = pairwise_distances(["u", "v", "p q"], toy_table)
    assert np.allclose(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
