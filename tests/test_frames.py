import itertools
import json

import pytest

from newswarn.errors import DataError
from newswarn.frames import (Constituent, SemanticFrame, causal_link_match,
                             effect_mentions_target, extract_ngrams, filter_frames,
                             has_cause_and_effect, load_frames, run_extraction,
                             save_seed_features, load_seed_features)
from newswarn.stemmer import stem_tokens
from newswarn.textutil import tokenize


def frame(cause=None, effect=None, label="Causation", extra=None):
    constituents = []
    if cause is not None:
        constituents.append(Constituent("cause", tuple(cause.split())))
    if effect is not None:
        constituents.append(Constituent("effect", tuple(effect.split())))
    if extra is not None:
        constituents.append(Constituent("connective", tuple(extra.split())))
    return SemanticFrame(frame_label=label, constituents=tuple(constituents))


KEYWORDS = ("famine", "food insecurity")
LINK_PHRASES = ("cause", "due to", "lead to")
TARGETS = tuple(stem_tokens(tokenize(k)) for k in KEYWORDS)
LINKS = tuple(tokenize(link) for link in LINK_PHRASES)


class TestFilters:
    def test_full_causal_frame_retained(self):
        f = frame(cause="floods and pests", effect="famine may return", label="cause")
        assert filter_frames([f], TARGETS, LINKS) == [f]
        assert causal_link_match(f, LINKS) == "label"

    def test_missing_effect_dropped(self):
        f = frame(cause="floods and pests", label="cause")
        assert filter_frames([f], TARGETS, LINKS) == []

    def test_effect_without_target_dropped(self):
        f = frame(cause="floods", effect="roads washed away", label="cause")
        assert filter_frames([f], TARGETS, LINKS) == []

    def test_no_causal_link_dropped(self):
        f = frame(cause="floods", effect="famine may return", label="Description")
        assert filter_frames([f], TARGETS, LINKS) == []

    def test_link_in_constituent_counts(self):
        f = frame(cause="floods", effect="famine may return", label="Description",
                  extra="due to")
        assert filter_frames([f], TARGETS, LINKS) == [f]
        assert causal_link_match(f, LINKS) == "constituent"

    def test_target_matched_on_stems(self):
        # "famines" stems to "famin", like "famine".
        f = frame(cause="drought", effect="famines are feared", label="cause")
        assert len(filter_frames([f], TARGETS, LINKS)) == 1

    def test_multi_token_target(self):
        f = frame(cause="conflict", effect="worsening food insecurity looms",
                  label="cause")
        assert len(filter_frames([f], TARGETS, LINKS)) == 1

    def test_order_preserved_and_idempotent(self):
        frames = [
            frame(cause="drought", effect="famine feared", label="cause"),
            frame(cause="pests", effect="no mention here", label="cause"),
            frame(cause="conflict", effect="famine looms", label="due to"),
        ]
        once = filter_frames(frames, TARGETS, LINKS)
        assert [f.constituents[0].tokens for f in once] == [("drought",), ("conflict",)]
        assert filter_frames(once, TARGETS, LINKS) == once

    def test_filter_order_independence(self):
        frames = [
            frame(cause="drought", effect="famine feared", label="cause"),
            frame(cause="pests", label="cause"),
            frame(cause="x", effect="rain expected", label="cause"),
            frame(cause="y", effect="famine ahead", label="Description"),
        ]
        predicates = [
            has_cause_and_effect,
            lambda f: effect_mentions_target(f, TARGETS),
            lambda f: causal_link_match(f, LINKS) is not None,
        ]
        reference = {id(f) for f in frames
                     if all(p(f) for p in predicates)}
        for perm in itertools.permutations(predicates):
            survivors = frames
            for p in perm:
                survivors = [f for f in survivors if p(f)]
            assert {id(f) for f in survivors} == reference


class TestNgrams:
    def test_hand_enumeration(self):
        f = frame(cause="floods and pests", effect=None)
        object.__setattr__(f, "constituents", (Constituent("cause", ("floods", "and", "pests")),))
        grams = extract_ngrams(f)
        assert grams == {"floods", "pests", "floods and", "and pests",
                         "floods and pests"}

    def test_stop_only_grams_removed_mixed_kept(self):
        f = frame(cause="of the floods", effect=None)
        grams = extract_ngrams(f)
        assert "of the" not in grams and "the" not in grams
        assert "the floods" in grams and "of the floods" in grams

    def test_single_token(self):
        assert extract_ngrams(frame(cause="drought")) == {"drought"}

    def test_empty_constituent_contributes_nothing(self):
        f = SemanticFrame("cause", (Constituent("cause", ()),
                                    Constituent("effect", ("famine",))))
        assert extract_ngrams(f) == {"famine"}

    def test_tokens_appear_verbatim(self):
        f = frame(cause="collapsing food production", effect="famine risk grows",
                  label="cause")
        source = [c.tokens for c in f.constituents if c.role in ("cause", "effect")]
        for gram in extract_ngrams(f):
            toks = tuple(gram.split())
            assert any(
                toks == seq[i : i + len(toks)]
                for seq in source
                for i in range(len(seq) - len(toks) + 1)
            )


class TestExtraction:
    def write_frames(self, path, frames, provenance="news"):
        with open(path, "w", encoding="utf-8") as fh:
            for i, f in enumerate(frames):
                fh.write(json.dumps({
                    "doc_id": f"doc{i}", "sentence_index": 0,
                    "frame_label": f.frame_label,
                    "constituents": [{"role": c.role, "tokens": list(c.tokens)}
                                     for c in f.constituents],
                    "provenance": provenance,
                }) + "\n")
        return path

    def test_only_passing_frames_contribute(self, tmp_path):
        frames = [
            frame(cause="drought", effect="famine feared", label="cause"),
            frame(cause="pests", label="cause"),                      # filter 1
            frame(cause="locusts", effect="rain ahead", label="cause"),  # filter 2
            frame(cause="flood", effect="famine near", label="Maybe"),   # filter 3
            frame(cause="conflict", effect="famine looms", label="lead to"),
        ]
        path = self.write_frames(tmp_path / "news.jsonl", frames)
        assert len(filter_frames(load_frames(path), TARGETS, LINKS)) == 2
        result = run_extraction(path, None, KEYWORDS, LINK_PHRASES)
        features = set(result.features)
        assert "drought" in features and "conflict" in features
        assert "pests" not in features and "locusts" not in features

    def test_dedup_across_provenances(self, tmp_path):
        news = self.write_frames(tmp_path / "news.jsonl",
                                 [frame(cause="drought", effect="famine feared",
                                        label="cause")])
        study = self.write_frames(tmp_path / "study.jsonl",
                                  [frame(cause="drought", effect="famine risk",
                                         label="cause")], provenance="study")
        result = run_extraction(news, study, KEYWORDS, LINK_PHRASES)
        feat = result.features["drought"]
        assert set(feat.provenance) == {"frame-news", "frame-study"}

    def test_empty_study_file_is_fine(self, tmp_path):
        news = self.write_frames(tmp_path / "news.jsonl",
                                 [frame(cause="drought", effect="famine feared",
                                        label="cause")])
        study = tmp_path / "study.jsonl"
        study.write_text("")
        assert filter_frames(load_frames(study), TARGETS, LINKS) == []
        result = run_extraction(news, study, KEYWORDS, LINK_PHRASES)
        assert "drought" in result.features

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            run_extraction(tmp_path / "absent.jsonl", None, KEYWORDS, LINK_PHRASES)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame_label": "x"}\n')
        with pytest.raises(DataError, match=":1"):
            load_frames(path)

    def test_unread_record_keys_are_ignored(self, tmp_path):
        path = tmp_path / "news.jsonl"
        path.write_text(json.dumps({
            "doc_id": 3, "sentence_index": "first", "provenance": None,
            "frame_label": "cause",
            "constituents": [{"role": "Cause", "tokens": ["drought"]}],
        }) + "\n")
        assert load_frames(path) == [
            SemanticFrame("cause", (Constituent("cause", ("drought",)),))]

    def test_stem_dedup_collapses_inflections(self, tmp_path):
        news = self.write_frames(tmp_path / "news.jsonl", [
            frame(cause="flood", effect="famine feared", label="cause"),
            frame(cause="floods", effect="famine risk", label="cause"),
        ])
        plain = run_extraction(news, None, KEYWORDS, LINK_PHRASES)
        assert {"flood", "floods"} <= set(plain.features)
        deduped = run_extraction(news, None, KEYWORDS, LINK_PHRASES, stem_dedup=True)
        assert "flood" in deduped.features and "floods" not in deduped.features
        assert deduped.features["flood"].frame_count == 2

    def test_seed_round_trip(self, tmp_path):
        news = self.write_frames(tmp_path / "news.jsonl",
                                 [frame(cause="drought", effect="famine feared",
                                        label="cause")])
        result = run_extraction(news, None, KEYWORDS, LINK_PHRASES)
        out = tmp_path / "seeds.json"
        save_seed_features(out, result)
        back = load_seed_features(out)
        assert {f.ngram for f in back} == set(result.features)
