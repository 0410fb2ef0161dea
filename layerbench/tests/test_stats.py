import pytest

from layerbench.stats import iqr_over_median, parse_proc_stat, percentile, samples_beyond


def test_percentile_interpolates_and_ignores_order():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_says_which_tail_percentile_a_sample_supports():
    # p90 needs 100 samples for ten beyond it, p99 needs a thousand.
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(210, 90) == 21
    assert samples_beyond(210, 99) == 2
    assert samples_beyond(1000, 99) == 10


def test_iqr_over_median_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) on 1..10-shaped data: Q1 = 11.75, Q3 = 17.25.
    assert iqr_over_median(values) == pytest.approx((17.25 - 11.75) / 14.5)


@pytest.mark.parametrize("comm", ["python3", "tmux: server", "a) (b", "((nested)) name)"])
def test_proc_stat_parser_survives_spaces_and_parens_in_the_name(comm):
    fields_after_comm = ["S", "1", "2", "3", "0", "-1", "4194560", "100", "0", "0", "0",
                         "731", "269", "0", "0", "20", "0", "1", "0", "12345"]
    line = f"4242 ({comm}) " + " ".join(fields_after_comm) + "\n"
    assert parse_proc_stat(line) == (comm, 731, 269)


def test_proc_stat_parser_reads_this_process():
    with open("/proc/self/stat", encoding="utf-8") as handle:
        _comm, utime, stime = parse_proc_stat(handle.read())
    assert utime >= 0 and stime >= 0
