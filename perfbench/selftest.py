"""Checks of the benchmark's own machinery. Run from the repository root:

    python3 perfbench/selftest.py

- The input generator is deterministic: the same seed gives byte-identical
  files, also in a fresh interpreter with another hash seed, and another
  seed gives other files.
- Self time subtracts the union of child spans, also when children
  overlap on several threads, and thread-pool work is parented to the
  span that submitted it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import Recorder, Span, covered_length, propagating_executor, self_times  # noqa: E402


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_generator(tmp: Path) -> None:
    for workload in gen.GENERATORS:
        a, b, c, other = (tmp / workload / x for x in ("a", "b", "c", "other"))
        gen.generate(workload, a, 3)
        gen.generate(workload, b, 3)
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import gen; "
                f"from pathlib import Path; gen.generate({workload!r}, Path({str(c)!r}), 3)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONHASHSEED": "12345"})
        gen.generate(workload, other, 4)
        first = tree(a)
        assert first, f"{workload}: no files generated"
        assert tree(b) == first, f"{workload}: same seed, different files"
        assert tree(c) == first, f"{workload}: different files in a fresh interpreter"
        assert tree(other) != first, f"{workload}: another seed gave the same files"
        shutil.rmtree(tmp / workload)
        print(f"ok  generator is deterministic: {workload} ({len(first)} files)")


def check_self_time() -> None:
    spans = [Span(1, None, "root", 0.0, 10.0),
             Span(2, 1, "child", 1.0, 4.0),
             Span(3, 1, "child", 3.0, 6.0),   # overlaps span 2 (another thread)
             Span(4, 3, "leaf", 5.0, 5.5)]
    got = self_times(spans)
    assert got == {"root": 5.0, "child": 5.5, "leaf": 0.5}, got
    assert covered_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    print("ok  self time subtracts the union of child spans")


def check_pool_parent() -> None:
    rec = Recorder()
    executor = propagating_executor(rec)

    def work(i):
        return rec.call("task", time.sleep, 0.01)

    def command():
        with executor(max_workers=3) as pool:
            list(pool.map(work, range(6)))

    threads = [threading.Thread(target=rec.call, args=("cmd", command)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "pool work did not finish"
    by_id = {s.id: s for s in rec.spans}
    tasks = [s for s in rec.spans if s.name == "task"]
    assert len(tasks) == 12 and rec.counts["task.calls"] == 12
    assert all(by_id[s.parent].name == "cmd" for s in tasks), "task not parented to cmd"
    assert all(s.parent is None for s in rec.spans if s.name == "cmd")
    print("ok  thread-pool work is parented to the submitting span")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench_selftest_") as tmp:
        check_generator(Path(tmp))
    check_self_time()
    check_pool_parent()
    return 0


if __name__ == "__main__":
    sys.exit(main())
