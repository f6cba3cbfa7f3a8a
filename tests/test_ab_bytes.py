import importlib.util
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
