"""``tools/compare_outputs.py``'s report on two versions of one CSV file.

The float cells of a data row are compared relative to the row's largest
|value|; in ``#`` header and trailer lines the values of ``key=<float>``
tokens are float cells too, each relative to its own |value|, and the
other words must match exactly.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def report(tmp_path, old, new):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return compare_outputs.compare(tmp_path / "old.csv", tmp_path / "new.csv")


def differs(diff, relative):
    return f"differs: max abs float diff {diff!r}, relative to its row's max|value| {relative!r}"


HEADER = "# fig5: gamma=0.5 S=0.55 probe_verdict=stable probe_growth={} | columns: x,u\nx,u\n"
TRAILER = "# summary t=1e-05 max_error=0.5 l2_error={}\n"


def test_identical_files(tmp_path):
    text = HEADER.format("0.25") + "0.5,1.0\n" + TRAILER.format("0.125")
    assert report(tmp_path, text, text) == "identical"


def test_header_and_trailer_values_are_float_cells(tmp_path):
    old = HEADER.format("0.25") + "0.5,1.0\n" + TRAILER.format("0.125")
    new = HEADER.format("0.2500000000000001") + "0.5,1.0\n" + TRAILER.format("0.125")
    diff = 0.2500000000000001 - 0.25
    assert report(tmp_path, old, new) == differs(diff, diff / 0.2500000000000001)
    new = HEADER.format("0.25") + "0.5,1.0\n" + TRAILER.format("0.25")
    assert report(tmp_path, old, new) == differs(0.125, 0.5)


def test_header_words_are_text(tmp_path):
    old = HEADER.format("0.25") + "0.5,1.0\n"
    new = old.replace("probe_verdict=stable", "probe_verdict=unstable")
    assert report(tmp_path, old, new).endswith(", other cells differ")
    new = old.replace("probe_growth=", "growth=")
    assert report(tmp_path, old, new).endswith(", other cells differ")


def test_data_rows_are_relative_to_their_largest_value(tmp_path):
    old = HEADER.format("0.25") + "0.5,4.0\n"
    new = HEADER.format("0.25") + "0.5,4.000000000000001\n"
    diff = 4.000000000000001 - 4.0
    assert report(tmp_path, old, new) == differs(diff, diff / 4.000000000000001)


def test_exact_and_converge_output_is_written_as_csv(tmp_path):
    names = [compare_outputs.stdout_csv(argv) for argv in compare_outputs.commands(tmp_path, tmp_path / "out")]
    assert sorted(name for name in names if name) == [
        "coeffs_bdf1.csv", "coeffs_bdf2.csv", "coeffs_bdf2_a0.csv", "coeffs_bdf2_a1.999.csv",
        "coeffs_bdf3.csv", "coeffs_bdf3_a0.csv", "coeffs_bdf3_a1.999.csv", "coeffs_ng2.csv",
        "converge.csv", "exact_g0.5_t0.3.csv", "exact_g0.5_t1e-4.csv", "exact_g0.9_t0.3.csv",
        "exact_g0.9_t1e-4.csv",
    ]
