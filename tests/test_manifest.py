"""Manifest parsing, filtering, and split derivation."""

import io
import os

import pytest

from slidebench.categories import Category, EffectiveSubset, Subset
from slidebench.manifest import (
    ManifestError,
    category_counts,
    effective_split,
    filter_categories,
    parse_manifest,
    serialize_manifest,
    write_manifest,
)

from conftest import CSV_HEADER, manifest_csv, simple_row


def parse_text(text: str, **kw):
    return parse_manifest(io.StringIO(text), **kw)


class TestParse:
    def test_single_row_fields(self):
        m = parse_text(manifest_csv([simple_row("s1", "squamous", "Train")]))
        assert len(m) == 1
        rec = m[0]
        assert rec.file == "s1"
        assert rec.category is Category.SQUAMOUS
        assert rec.subset is Subset.TRAIN
        assert rec.staining == "H&E"
        assert rec.diag_score == 100
        assert rec.row == 1

    def test_header_only_is_error(self):
        with pytest.raises(ManifestError, match="empty manifest"):
            parse_text(CSV_HEADER + "\n")

    def test_empty_input_is_error(self):
        with pytest.raises(ManifestError, match="empty manifest"):
            parse_text("")

    def test_missing_column(self):
        bad = CSV_HEADER.replace(",category", ",kategorie")
        with pytest.raises(ManifestError, match="missing required column"):
            parse_text(bad + "\n" + simple_row("s1"))

    def test_header_case_and_order_insensitive(self):
        cols = CSV_HEADER.split(",")
        shuffled = ",".join(c.upper() for c in reversed(cols))
        row = ",".join(reversed(simple_row("s1").split(",")))
        m = parse_text(shuffled + "\n" + row)
        assert m[0].file == "s1"
        assert m[0].category is Category.SQUAMOUS

    def test_duplicate_file_name(self):
        with pytest.raises(ManifestError, match="duplicate file name"):
            parse_text(manifest_csv([simple_row("s1"), simple_row("s1")]))

    @pytest.mark.parametrize("name", ["a/b", "..", ".", "a\\b", "a\0b", "../escape"])
    def test_file_name_must_be_plain(self, name):
        # File names become cache and source paths: `<dir>/<file>.embc`.
        text = manifest_csv([simple_row("s1"), simple_row("s2").replace(",s2,", f",{name},")])
        with pytest.raises(ManifestError, match=r"row 2: file name .* is not a plain name"):
            parse_text(text)

    def test_plain_file_names_accepted(self):
        m = parse_text(manifest_csv([simple_row("slide_0000"), simple_row("a.b-c..d")]))
        assert [r.file for r in m] == ["slide_0000", "a.b-c..d"]

    def test_unparseable_score(self):
        with pytest.raises(ManifestError, match="unparseable DIAG_SCORE"):
            parse_text(manifest_csv([simple_row("s1", score="high")]))

    def test_score_out_of_range(self):
        with pytest.raises(ManifestError, match="outside 0-100"):
            parse_text(manifest_csv([simple_row("s1", score="150")]))

    def test_unknown_category(self):
        with pytest.raises(ManifestError, match="unknown category"):
            parse_text(manifest_csv([simple_row("s1", category="sarcoma")]))

    def test_unknown_subset(self):
        with pytest.raises(ManifestError, match="unknown subset"):
            parse_text(manifest_csv([simple_row("s1", subset="holdout")]))

    def test_category_subset_trimmed_case_insensitive(self):
        m = parse_text(manifest_csv(["/x,s1,c,b,B,100,d,  MELANOCYTIC , validation ,H&E"]))
        assert m[0].category is Category.MELANOCYTIC
        assert m[0].subset is Subset.VALIDATION

    def test_tab_delimiter(self):
        text = manifest_csv([simple_row("s1")]).replace(",", "\t")
        m = parse_text(text, delimiter="\t")
        assert m[0].file == "s1"

    def test_paper_fixture_counts(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        assert len(m) == 960
        counts = category_counts(m)
        assert counts[Category.BASALOID] == 126
        assert counts[Category.MELANOCYTIC] == 263
        assert counts[Category.SQUAMOUS] == 325
        assert counts[Category.OTHER] == 246


class TestRoundTrip:
    def test_parse_serialize_parse_idempotent(self, paper_manifest_csv):
        m1 = parse_manifest(paper_manifest_csv)
        text1 = serialize_manifest(m1)
        m2 = parse_text(text1)
        text2 = serialize_manifest(m2)
        assert text1 == text2
        assert [(r.file, r.category, r.subset) for r in m1] == [
            (r.file, r.category, r.subset) for r in m2
        ]

    def test_rewrite_replaces_the_file(self, tmp_path):
        # A hard link to the old manifest keeps its bytes: the new text
        # goes to a fresh file renamed over the name, never into the old one.
        path, link = tmp_path / "m.csv", tmp_path / "link.csv"
        write_manifest(parse_text(manifest_csv([simple_row("s1")])), path)
        old = path.read_bytes()
        os.link(path, link)
        write_manifest(parse_text(manifest_csv([simple_row("s1"), simple_row("s2")])), path)
        assert link.read_bytes() == old
        assert parse_manifest(path)[1].file == "s2"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "m.csv"]


class TestFilter:
    def test_keeps_only_requested(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        kept = filter_categories(m, {Category.BASALOID, Category.MELANOCYTIC, Category.SQUAMOUS})
        assert len(kept) == 714

    def test_identity_with_all_categories(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        assert filter_categories(m, set(Category)) == m

    def test_single_category(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        assert len(filter_categories(m, {Category.BASALOID})) == 126

    def test_order_preserved_and_count_additive(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        kept = filter_categories(m, {Category.BASALOID, Category.SQUAMOUS})
        files = [r.file for r in m if r.category in (Category.BASALOID, Category.SQUAMOUS)]
        assert [r.file for r in kept] == files
        counts = category_counts(m)
        assert len(kept) == counts[Category.BASALOID] + counts[Category.SQUAMOUS]

    def test_empty_keep_set(self):
        m = parse_text(manifest_csv([simple_row("s1")]))
        with pytest.raises(ManifestError, match="empty keep set"):
            filter_categories(m, set())

    def test_no_slides_remain(self):
        m = parse_text(manifest_csv([simple_row("s1", "squamous")]))
        with pytest.raises(ManifestError, match="no slides remain"):
            filter_categories(m, {Category.OTHER})


class TestEffectiveSplit:
    def test_paper_fixture_effective_counts(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        kept = filter_categories(m, {Category.BASALOID, Category.MELANOCYTIC, Category.SQUAMOUS})
        relabeled, counts = effective_split(kept)
        assert counts[EffectiveSubset.TRAIN] == 498
        assert counts[EffectiveSubset.TEST] == 216
        assert len(relabeled) == len(kept)

    def test_train_stays_train(self):
        m = parse_text(manifest_csv([simple_row("s1", subset="Train")]))
        relabeled, _ = effective_split(m)
        assert relabeled[0].effective is EffectiveSubset.TRAIN

    def test_validation_becomes_test(self):
        m = parse_text(manifest_csv([simple_row("s1", subset="Validation")]))
        relabeled, _ = effective_split(m)
        assert relabeled[0].effective is EffectiveSubset.TEST

    def test_exactly_two_effective_values(self, paper_manifest_csv):
        m = parse_manifest(paper_manifest_csv)
        relabeled, _ = effective_split(m)
        assert {r.effective for r in relabeled} == {EffectiveSubset.TRAIN, EffectiveSubset.TEST}
