
import pytest

from chartloop.oracle import (
    Axis,
    ChartNotFound,
    EntityNotFound,
    TableOracle,
    closest_name,
    describe,
    edit_similarity,
    extract_group,
    extract_point,
    resolve_entity,
)
from chartloop.protocol import (
    UNAVAILABLE_ANSWER,
    format_query,
    group_query,
    parse_reader_answer,
    point_query,
)
from chartloop.synth import random_table


def test_describe_matches_prompt_exemplar(oman_samoa):
    assert describe(oman_samoa) == (
        "The figure shows the data of: Oman (brown) | Samoa (dark blue). "
        "The x-axis shows: 2008 | 2009 | 2010 | 2011 | 2012 | 2013 | 2014."
    )


def test_describe_colorless_single_series(segments):
    assert describe(segments) == (
        "The figure shows the data of: Value. "
        "The x-axis shows: Decreased | No impact | Increased."
    )


def test_describe_duplicated_axis(plotqa_duplicated_axis):
    assert describe(plotqa_duplicated_axis) == (
        "The figure shows the data of: Fragile and conflict affected situations (grey) | "
        "Iraq (brown) | Moldova (orange). "
        "The x-axis shows: 2004 | 2005 | 2006 | 2007 | 2004 | 2005 | 2006 | 2007."
    )


def test_describe_income_series_label(income):
    assert describe(income).startswith(
        "The figure shows the data of: Income in million U.S. dollars (blue)."
    )


def test_resolve_exact_case_insensitive(oman_samoa):
    resolution = resolve_entity(oman_samoa, "oman")
    assert resolution.axis is Axis.SERIES
    assert resolution.index == 0
    assert resolution.score == 1.0


def test_resolve_prefers_series_axis():
    from chartloop.tables import ChartTable

    table = ChartTable.build("clash", [("2015", None), ("Other", None)],
                             ["2015", "2016"], [["1", "2"], ["3", "4"]])
    resolution = resolve_entity(table, "2015")
    assert resolution.axis is Axis.SERIES


def test_resolve_consoles(activision):
    resolution = resolve_entity(activision, "Consoles")
    assert resolution.axis is Axis.SERIES
    assert resolution.matched_name == "Consoles"


def test_resolve_fuzzy_tolerates_spacing(net_ratings):
    resolution = resolve_entity(net_ratings, "NET Excellent/good")
    assert resolution.matched_name == "NET Excellent/ good"
    assert 0.8 <= resolution.score < 1.0


def test_resolve_not_found(oman_samoa):
    with pytest.raises(EntityNotFound):
        resolve_entity(oman_samoa, "Atlantis")


def test_closest_name_exact_first_then_first_best_fuzzy():
    assert closest_name("ALPHX", ["Alpha", "alphx"]) == (1, 1.0)
    assert closest_name("Alphz", ["Alpha", "Alphb"]) == (0, 0.8)
    assert closest_name("Zeta", ["Alpha"]) is None


def test_edit_similarity_bounds():
    assert edit_similarity("abc", "abc") == 1.0
    assert edit_similarity("", "") == 1.0
    assert 0.0 <= edit_similarity("abc", "xyz") <= 1.0


def test_extract_point_by_form(oman_samoa, activision):
    assert extract_point(oman_samoa, "Oman", "2010") == "The data is 210.69."
    assert extract_point(activision, "Consoles", "2020") == "The data is 2784.00."


def test_extract_point_flipped_orientation(oman_samoa):
    assert extract_point(oman_samoa, "2010", "Oman") == "The data is 210.69."


def test_extract_point_single_series_entity_only(export_2015):
    assert extract_point(export_2015, "2015") == "The data is 296.0."


def test_extract_point_ambiguous_gets_sentinel(oman_samoa):
    assert extract_point(oman_samoa, "2010") == UNAVAILABLE_ANSWER
    assert extract_point(oman_samoa, "Oman", "1999") == UNAVAILABLE_ANSWER


def test_extract_group_series(total_market):
    assert extract_group(total_market, "Total market") == (
        "The data is 18 in 2019, 20.0 in 2018, 22.0 in 2017, 23.0 in 2016, "
        "24.0 in 2015, 25.0 in 2014, 26.0 in 2013, 27.0 in 2012, 26.0 in 2011."
    )


def test_extract_group_x_label(merchandise):
    assert extract_group(merchandise, "1994") == (
        "The data is 0.16 in Merchandise exports, 0.36 in Merchandise imports."
    )


def test_extract_group_costa_rica(costa_rica):
    assert extract_group(costa_rica, "Costa Rica") == (
        "The data is 18.84 in 2000, 19.57 in 2001, 17.79 in 2006, "
        "17.91 in 2007, 15.64 in 2008, 14.92 in 2011."
    )


def test_extract_group_absent_entity(segments, oman_samoa):
    assert extract_group(segments) == (
        "The data is 81.00 in Decreased, 16.00 in No impact, 3.00 in Increased."
    )
    assert extract_group(oman_samoa) == UNAVAILABLE_ANSWER


def test_extract_group_not_found(oman_samoa):
    assert extract_group(oman_samoa, "Atlantis") == UNAVAILABLE_ANSWER


def test_read_dispatches_entity_only_point(export_2015):
    oracle = TableOracle([export_2015])
    answer = oracle.read("export-value", "Let's extract the data of 2015.")
    assert answer == "The data is 296.0."


def test_read_unknown_chart_raises(export_2015):
    oracle = TableOracle([export_2015])
    with pytest.raises(ChartNotFound):
        oracle.read("nope", "Let's describe the figure.")


def test_read_junk_query_gets_sentinel(export_2015):
    oracle = TableOracle([export_2015])
    assert oracle.read("export-value", "What even is this?") == UNAVAILABLE_ANSWER


def test_determinism_and_consistency_on_random_tables():
    for index in range(25):
        table = random_table(17, index)
        for i, label in enumerate(table.series):
            for j, x in enumerate(table.x_labels):
                query = point_query(label.name, x) if len(table.series) > 1 else point_query(x)
                first = extract_point(table, query.entity, query.by)
                assert first == extract_point(table, query.entity, query.by)
                parsed = parse_reader_answer(first)
                assert parsed.scalar == table.cells[i][j]


def test_group_point_coherence_on_random_tables():
    for index in range(25):
        table = random_table(18, index)
        multi = len(table.series) > 1
        for i, label in enumerate(table.series):
            group = parse_reader_answer(extract_group(table, label.name))
            points = []
            for x in table.x_labels:
                if multi:
                    answer = extract_point(table, label.name, x)
                else:
                    answer = extract_point(table, x)
                points.append(parse_reader_answer(answer).scalar)
            assert [v for _, v in group.pairs] == points
            assert [k for k, _ in group.pairs] == list(table.x_labels)


def test_describe_reparses_to_table_labels():
    for index in range(25):
        table = random_table(19, index)
        parsed = parse_reader_answer(describe(table))
        assert parsed.series_names == tuple(s.name for s in table.series)
        assert parsed.x_labels == table.x_labels


def test_oracle_read_matches_formatted_queries(canada):
    oracle = TableOracle([canada])
    answer = oracle.read("emissions", format_query(point_query("Canada", "1965")))
    assert answer == "The data is 20.82."
    answer = oracle.read("emissions", format_query(group_query("Canada")))
    assert answer == "The data is 19.75 in 1964, 20.82 in 1965, 21.40 in 1966."
