from pathlib import Path

from workspace import WORKLOADS, make_workspace


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    w = WORKLOADS["sweep-small"]
    make_workspace(w, 5, tmp_path / "a")
    make_workspace(w, 5, tmp_path / "b")
    make_workspace(w, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    differ = [name for name in a if a[name] != c[name]]
    assert any(name.startswith("input/") for name in differ)
    assert any(name.endswith(".vnt") for name in differ)
