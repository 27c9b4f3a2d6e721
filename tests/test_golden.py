import json
import sys
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
sys.path.insert(0, TOOLS)
try:
    import golden
finally:
    sys.path.remove(TOOLS)


def _tree(root: Path, report: dict, rows: list[str], matrix: str) -> Path:
    (root / "verify").mkdir(parents=True)
    (root / "verify" / "verify.json").write_text(json.dumps(report))
    (root / "verify" / "verify.csv").write_text("\n".join(rows) + "\n")
    (root / "verify" / "M_hat.mtx").write_text(matrix)
    return root


def test_field_diff_lists_moved_floats_and_flags_every_other_change(
        tmp_path):
    old = _tree(tmp_path / "old",
                {"trials": [{"mu_r": 2.0, "d": 40, "holds": True},
                            {"mu_r": 4.0, "d": 40, "holds": True}],
                 "reason": None},
                ["trial,lhs,holds", "0,1.5,true", "1,2.5,false"], "1 2\n")
    assert golden.field_diff(old, old) == ([], [])
    new = _tree(tmp_path / "new",
                {"trials": [{"mu_r": 2.0 * (1 + 2**-50), "d": 41,
                             "holds": True},
                            {"mu_r": 4.0 * (1 + 2**-49), "d": 40,
                             "holds": False}],
                 "reason": "rank"},
                ["trial,lhs,holds", "0,1.5,true", "1,2.75,false"], "1 3\n")
    (new / "extra.csv").write_text("a\n1\n")
    moved, flags = golden.field_diff(str(old), str(new))
    assert moved == ["verify/verify.csv [].lhs: 1 moved, max rel 0.091",
                     "verify/verify.json trials[].mu_r: 2 moved, max rel 1.8e-15"]
    assert flags == ["FLAG extra.csv: in the new tree only",
                     "FLAG verify/M_hat.mtx: bytes differ",
                     "FLAG verify/verify.json reason: None -> 'rank'",
                     "FLAG verify/verify.json trials[0].d: 40 -> 41",
                     "FLAG verify/verify.json trials[1].holds: True -> False"]
    assert golden.run(["--fields", str(old), str(new)]) == 1
    assert golden.run(["--fields", str(old), str(old)]) == 0
