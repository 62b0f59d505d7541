"""File formats: round trips and schema validation."""

import json
import re
import sys
from collections import Counter

import pytest

from fuzzaut import io
from fuzzaut.cli import main
from fuzzaut.grades import GradeError, format_grade, parse_grade
from fuzzaut.groups import GroupError, NotAssociative, builtin_group, make_group
from fuzzaut.io import (
    FileFormatError,
    dumps,
    group_from_json,
    load_group,
    load_mu,
    mu_from_json,
    mu_to_json,
    save,
)
from fuzzaut.subsets import chain_strategy, fuzzy_subset


def group_file(group) -> dict:
    """The JSON object of a group file that holds ``group``."""
    return {"name": group.name, "order": group.order, "table": [list(row) for row in group.table]}


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        s3 = builtin_group("S3")
        path = tmp_path / "s3.json"
        save(path, group_file(s3))
        loaded = load_group(path)
        assert loaded == s3

    def test_declared_order_must_match(self):
        obj = group_file(builtin_group("Z4"))
        obj["order"] = 5
        with pytest.raises(FileFormatError):
            group_from_json(obj)

    def test_declared_order_checked_before_the_table_scan(self):
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
        with pytest.raises(NotAssociative):
            make_group(table)
        with pytest.raises(FileFormatError, match="declared order 2 but the table has 3 rows"):
            group_from_json({"name": "X", "order": 2, "table": table})

    def test_declared_order_bounded_before_the_table_is_read(self):
        with pytest.raises(FileFormatError, match="declared order 257 exceeds the bound 256"):
            group_from_json({"name": "X", "order": 257, "table": "not read"})
        z16z16 = builtin_group("direct_product(Z16,Z16)")
        assert group_from_json(group_file(z16z16)) == z16z16

    def test_missing_key(self):
        with pytest.raises(FileFormatError):
            group_from_json({"name": "X", "order": 1})

    @pytest.mark.parametrize(
        "order, table",
        [
            (2, [[0, 1], [1.9, 0]]),  # int() would truncate the cell to 1
            (2, [[0, 1], [1, 0.0]]),
            (2, [[False, True], [True, False]]),  # JSON booleans are not integers
            (1, [[True]]),
            (True, [[0]]),
            (1.0, [[0]]),
            (2, [[0, 1], "10"]),
        ],
    )
    def test_non_integer_cells_and_order_rejected(self, order, table):
        with pytest.raises(FileFormatError):
            group_from_json({"name": "X", "order": order, "table": table})

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1], [1.9, 0]], "entry at row 1, column 0 is 1.9, not an integer"),
            ([[0, True], [1, 0]], "entry at row 0, column 1 is true, not an integer"),
            ([[0, 1], [1, 0.0]], "entry at row 1, column 1 is 0.0, not an integer"),
            ([[0, 1], [1, [0]]], "entry at row 1, column 1 is [0], not an integer"),
            ([[0, 1], "10"], "table row 1 must be a list"),
            ([[0, 1.5], (1, 0)], "entry at row 0, column 1 is 1.5, not an integer"),
        ],
    )
    def test_non_integer_cell_named_before_table_checks(self, table, message):
        """The first offending cell in row order is named, whatever its JSON type."""
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            group_from_json({"name": "X", "order": 2, "table": table})

    def test_int_and_list_subclasses_load_as_before(self):
        """Python callers may pass what json.loads never makes; the cell walk accepts it."""
        class Cell(int):
            pass

        class Row(list):
            pass

        z2 = group_from_json({"name": "Z2", "order": 2, "table": [Row([Cell(0), 1]), [1, 0]]})
        assert z2.table == builtin_group("Z2").table

    def test_invalid_table_reports_indices(self):
        obj = {"name": "X", "order": 2, "table": [[0, 1], [1, 2]]}
        with pytest.raises(Exception) as err:
            group_from_json(obj)
        assert "row 1" in str(err.value)


class TestEveryLoadReadsTheFile:
    """Every load reads, parses and builds anew; nothing loaded is kept, and a
    campaign resolves each file input once."""

    def test_verify_reads_each_file_once(self, tmp_path, monkeypatch, capsys):
        path, mu_path = tmp_path / "g.json", tmp_path / "mu.json"
        save(path, group_file(builtin_group("S3")) | {"name": "G"})
        save(mu_path, mu_to_json(chain_strategy(load_group(path))))
        reads, built = Counter(), []
        read_text, build = io._read_text, io.make_group

        def counted_read(p):
            reads[str(p)] += 1
            return read_text(p)

        def counted_build(table, name=None):
            built.append(name)
            return build(table, name)

        monkeypatch.setattr(io, "_read_text", counted_read)
        monkeypatch.setattr(io, "make_group", counted_build)
        argv = ["verify", "--group", f"file:{path}", "--mu", f"file:{mu_path}", "--suite", "hom"]
        assert main(argv) == 0 and "failed 0" in capsys.readouterr().out
        assert reads == {str(path): 1, str(mu_path): 1}
        assert built == ["G"]

    def test_rewritten_file_is_loaded_anew(self, tmp_path):
        path, mu_path = tmp_path / "g.json", tmp_path / "mu.json"
        save(path, group_file(builtin_group("S3")))
        first = load_group(path)
        save(mu_path, mu_to_json(chain_strategy(first)))
        mu = load_mu(mu_path, first)
        save(path, group_file(builtin_group("Z6")) | {"name": "S3"})
        assert load_group(path).table == builtin_group("Z6").table
        save(mu_path, {"group": "S3", "grades": ["1", "1/2", "1/2", "1/4", "1/4", "1/2"]})
        assert load_mu(mu_path, first).grades != mu.grades
        table = group_file(builtin_group("S3"))
        table["table"][2][2] += 1
        save(path, table)
        with pytest.raises(GroupError):
            load_group(path)


class TestMuFiles:
    def test_bit_exact_round_trip(self, tmp_path):
        z4 = builtin_group("Z4")
        mu = chain_strategy(z4)
        path = tmp_path / "mu.json"
        save(path, mu_to_json(mu))
        first = path.read_text(encoding="utf-8")
        loaded = load_mu(path, z4)
        assert loaded == mu
        assert dumps(mu_to_json(loaded)) == first

    def test_mu_is_over_the_given_group(self):
        z4 = builtin_group("Z4")
        mu = mu_from_json({"group": "Z4", "grades": ["1", "1/4", "1/2", "1/4"]}, z4)
        assert mu.group is z4

    def test_name_mismatch_rejected(self):
        with pytest.raises(FileFormatError):
            mu_from_json({"group": "Z4", "grades": ["1", "1/2"]}, builtin_group("Z2"))

    def test_name_mismatch_names_both_groups(self):
        with pytest.raises(FileFormatError, match="^grades are for 'Z4', not 'Z2'$"):
            mu_from_json({"group": "Z4", "grades": ["1", "1/2"]}, builtin_group("Z2"))

    def test_group_name_required_with_given_group(self):
        with pytest.raises(FileFormatError, match="^missing key 'group'$"):
            mu_from_json({"grades": ["1", "1/2"]}, builtin_group("Z2"))

    def test_string_grades_rejected(self):
        # a string would otherwise be parsed one character at a time
        with pytest.raises(FileFormatError, match="^key 'grades' must be list$"):
            mu_from_json({"group": "Z2", "grades": "11"}, builtin_group("Z2"))

    def test_grades_are_fraction_strings_and_written_canonically(self, tmp_path, capsys):
        """A grade is any string ``fractions.Fraction`` parses once stripped,
        not only the canonical form; ``gen-mu`` writes the canonical form.
        A JSON number is no grade string."""
        z4, path = builtin_group("Z4"), tmp_path / "mu.json"
        save(path, {"group": "Z4", "grades": ["1", "1e-1", " 2/4 ", "0.1"]})
        mu = load_mu(path, z4)
        assert mu == mu_from_json({"group": "Z4", "grades": ["1", "1/10", "1/2", "1/10"]}, z4)
        assert mu_to_json(mu)["grades"] == ["1", "1/10", "1/2", "1/10"]
        argv = ["verify", "--group", "builtin:Z4", "--mu", f"file:{path}", "--suite", "hom"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["gen-mu", "--group", "builtin:Z4", "--strategy", "chain"]) == 0
        written = json.loads(capsys.readouterr().out)["grades"]
        assert written == [format_grade(parse_grade(text)) for text in written]
        with pytest.raises(GradeError, match="^expected a rational string, got float$"):
            mu_from_json({"group": "Z4", "grades": ["1", 0.1, "1/2", "1/10"]}, z4)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="this Python converts digit strings of any length")
    def test_a_grade_past_the_int_digit_limit_names_the_limit(self, tmp_path, capsys):
        """A rational with a run of digits longer than Python converts to an
        int is bad input: the error names that limit and repeats only the
        start of the value, and the run exits 2."""
        limit = sys.get_int_max_str_digits()
        text = "1/1" + "0" * (limit + 100)
        with pytest.raises(GradeError, match=rf"\({limit} digits\).*int_max_str_digits") as err:
            parse_grade(text)
        assert str(err.value).startswith(
            f"cannot interpret {repr(text)[:40]}... ({len(text) + 2} characters) as a rational grade: "
        )
        path = tmp_path / "mu.json"
        save(path, {"group": "Z2", "grades": ["1", text]})
        assert main(["verify", "--group", "builtin:Z2", "--mu", f"file:{path}"]) == 2
        message = capsys.readouterr().err
        assert f"({limit} digits)" in message and len(message) < 400

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", int)() <= 5000,
                        reason="this Python prints 10^5000")
    def test_a_grade_too_long_to_print_is_bad_input(self, tmp_path, capsys):
        """10^-5000 parses and lies in [0, 1], but its denominator has more
        digits than Python converts to a string, so no report could print it:
        ``grade`` rejects it, and the run exits 2 with one error line."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(GradeError, match=rf"^cannot interpret '1e-5000' as a rational grade: "
                                             rf".*\({limit} digits\)"):
            fuzzy_subset(builtin_group("Z2"), ["1e-5000", "1"])
        path = tmp_path / "mu.json"
        save(path, {"group": "Z2", "grades": ["1e-5000", "1"]})
        assert main(["verify", "--group", "builtin:Z2", "--mu", f"file:{path}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: GradeError: cannot interpret '1e-5000'")
        assert err.count("\n") == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(Exception):
            mu_from_json({"group": "Z4", "grades": ["1", "1/2"]}, builtin_group("Z4"))

