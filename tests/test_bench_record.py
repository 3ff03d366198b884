import importlib.util
import json
import os
import subprocess

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(os.path.dirname(__file__), os.pardir, "bench", "record.py"))
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

# a stand-in benchmark: echoes its seed as wall_s after one progress line
_STUB = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("progress")
print(json.dumps({"correct": True, "attempted": 9, "failed": 0,
                  "metrics": {"wall_s": {"value": seed / 10, "unit": "s"}}}))
"""


@pytest.fixture
def stub_tree(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(_STUB)
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(["git", "-C", str(tree), *cmd], check=True, env=env)
    return tree


def test_runs_append_and_summary_updates(stub_tree, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for seed in (11, 14, 12, 13):
        path = record.record("udisj", seed, str(stub_tree), "parent", bench_dir=str(out))
    data = json.loads((out / "BENCH_udisj_parent.json").read_text())
    assert path == str(out / "BENCH_udisj_parent.json")
    assert [r["seed"] for r in data["runs"]] == [11, 14, 12, 13]
    head = subprocess.run(["git", "-C", str(stub_tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert {(r["commit"], r["dirty"], r["seconds"]) for r in data["runs"]} == {(head, False, 25)}
    summary = data["summary"]
    assert (summary["runs"], summary["correct"], summary["failed"], summary["attempted"]) == \
        (4, True, 0, 36)
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["median"] == pytest.approx(1.25)
    assert (wall["q1"], wall["q3"]) == (pytest.approx(1.175), pytest.approx(1.325))


def test_failed_benchmark_records_nothing(stub_tree, tmp_path):
    (stub_tree / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n")
    with pytest.raises(SystemExit):
        record.record("udisj", 11, str(stub_tree), "change", bench_dir=str(tmp_path))
    assert not (tmp_path / "BENCH_udisj_change.json").exists()
