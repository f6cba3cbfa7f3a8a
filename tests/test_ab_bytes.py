import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ab_bytes", ROOT / "tools" / "ab_bytes.py")
ab_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bytes)


def test_differences_lists_every_field():
    a = {("j", "out"): {"exit": 0, "stdout": "x", "file": "f"},
         ("k", "stdout"): {"exit": 0, "stdout": "y"}}
    b = {("j", "out"): {"exit": 1, "stdout": "x", "file": "g"}}
    assert ab_bytes.differences(a, a) == []
    assert ab_bytes.differences(a, b) == [
        "j [out] exit: 0 != 1", "j [out] file: f != g",
        "k [stdout] exit: 0 != None", "k [stdout] stdout: y != None"]


def test_pass_line_differences_read_canned_output():
    parent = ("tests/test_acceptance.py \nPASS criterion 1: 10 checks\n.\n"
              "PASS criterion 2: worst 1.87e-12\n.\n2 passed in 1.0s\n")
    change = parent.replace("1.87e-12", "1.88e-12").replace(
        "PASS criterion 1: 10 checks\n", "")
    assert ab_bytes.pass_lines(parent) == {"criterion 1": "10 checks",
                                           "criterion 2": "worst 1.87e-12"}
    assert ab_bytes.pass_line_differences(parent, parent) == []
    assert ab_bytes.pass_line_differences(parent, change) == [
        "criterion 1: 10 checks != None",
        "criterion 2: worst 1.87e-12 != worst 1.88e-12"]


def test_a_changed_root_digit_is_reported(tmp_path):
    # a copy whose roots output has one digit changed differs in both
    # modes; the tree against itself does not
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src")
    cli = mutant / "src" / "mukai_kit" / "cli.py"
    line = "    roots = serialize.Table(lattice.vectors_of_norm(lat, -2, bound))\n"
    text = cli.read_text()
    assert line in text
    cli.write_text(text.replace(line, line + "    roots.values[0, 0] += 1\n"))
    jobs = [("roots", ["roots", "--preset", "U", "--root-bound", "2"])]
    head = ab_bytes.run_all(ROOT, jobs, tmp_path / "head")
    assert all(rec["exit"] == 0 for rec in head.values())
    assert ab_bytes.differences(head, ab_bytes.run_all(
        ROOT, jobs, tmp_path / "again")) == []
    diff = ab_bytes.differences(head, ab_bytes.run_all(
        mutant, jobs, tmp_path / "mutant-out"))
    assert [d.split(":")[0] for d in diff] == [
        "roots [out] file", "roots [stdout] stdout"]


def test_src_lines_count_as_wc(tmp_path):
    # newlines of src/mukai_kit/*.py only, as wc -l counts them: a last
    # line without a newline does not count, other files and folders do not
    for name, files in (("parent", {"a.py": "x\ny\n", "b.py": "z"}),
                        ("change", {"a.py": "x\n", "b.py": "z\n\n\n"})):
        pkg = tmp_path / name / "src" / "mukai_kit"
        (pkg / "sub").mkdir(parents=True)
        for file, text in files.items():
            (pkg / file).write_text(text)
        (pkg / "notes.txt").write_text("1\n2\n")
        (pkg / "sub" / "c.py").write_text("1\n")
    assert ab_bytes.src_lines(tmp_path / "parent") == 2
    assert ab_bytes.src_lines(tmp_path / "change") == 4


def test_pair_summary_reads_canned_result_lines():
    # result lines as perfbench/run.py prints them last; no run is started
    def line(jobs_per_s, rss):
        return json.dumps({"correct": True, "attempted": 60, "failed": 0,
                           "metrics": {
                               "jobs_per_s": {"value": jobs_per_s,
                                              "unit": "1/s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"}}})

    parent = [ab_bytes.result_line("run_record {}\nsetup_s = 0.1 s\n"
                                   + line(x, 36.0) + "\n")
              for x in (700, 680, 720, 690, 710, 705, 695, 685, 715, 700)]
    change = [ab_bytes.result_line(line(x, 36.5))
              for x in (900, 910, 890, 920, 905, 880, 915, 895, 690, 900)]

    def values(runs, name):
        return [r["metrics"][name]["value"] for r in runs]

    lines = ab_bytes.pair_summary("jobs_per_s", "higher", 0.25,
                                  *(values(r, "jobs_per_s")
                                    for r in (parent, change)))
    assert lines[0] == ("  jobs_per_s parent: 700 680 720 690 710 705 695 "
                        "685 715 700")
    assert lines[2] == ("  jobs_per_s: median 700 -> 900 (+28.6%), parent "
                        "quartiles 688.8-711.2, better in 9/10, gain rule "
                        "holds, within bound 0.25")
    # one more lost pair breaks the 9/10 rule; a lower-is-better metric
    # that grew by more than its bound is reported beyond it
    lost = ab_bytes.pair_summary("jobs_per_s", "higher", 0.25,
                                 values(parent, "jobs_per_s"),
                                 values(change, "jobs_per_s")[:9] + [600])
    assert "better in 8/10, gain rule not met" in lost[2]
    rss = ab_bytes.pair_summary("peak_rss_mb", "lower", 0.01,
                                values(parent, "peak_rss_mb"),
                                values(change, "peak_rss_mb"))
    assert rss[2].endswith("better in 0/10, gain rule not met, beyond "
                           "bound 0.01")
    # a gap inside the parent's interquartile distance is no gain
    close = ab_bytes.pair_summary("jobs_per_s", "higher", 0.25,
                                  values(parent, "jobs_per_s"),
                                  [x + 5 for x in values(parent,
                                                         "jobs_per_s")])
    assert "better in 10/10, gain rule not met" in close[2]


def test_pair_summary_calls_a_wide_spread_unresolved():
    # parent quartiles 587.5-812.5: a spread of 225 runs/s, wider than the
    # bound times the median (0.25 * 700 = 175), so a change inside it is
    # unresolved; one whose every run beats every parent run is not, and
    # neither is a spread inside the bound
    parent = [500, 900, 600, 800, 700, 650, 750, 550, 850, 700]
    close = ab_bytes.pair_summary("jobs_per_s", "higher", 0.25, parent,
                                  [x + 5 for x in parent])
    assert close[2].endswith("within bound 0.25, unresolved")
    above = ab_bytes.pair_summary("jobs_per_s", "higher", 0.25, parent,
                                  [901] * 10)
    assert above[2].endswith("better in 10/10, gain rule not met, within "
                             "bound 0.25")
    below = ab_bytes.pair_summary("setup_s", "lower", 0.25, parent,
                                  [499] * 10)
    assert below[2].endswith("within bound 0.25")
    slower = ab_bytes.pair_summary("setup_s", "lower", 0.25, parent,
                                   [x + 5 for x in parent])
    assert slower[2].endswith(", unresolved")
    narrow = ab_bytes.pair_summary("jobs_per_s", "higher", 0.4, parent,
                                   [x + 5 for x in parent])
    assert narrow[2].endswith("within bound 0.4")
