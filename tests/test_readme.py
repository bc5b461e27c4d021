"""The README's library tour, run as written, so the documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    (block,) = re.findall(r"^```python\n(.*?)^```", tour[: tour.index("\n## ", 1)], re.M | re.S)
    exec(compile(block, f"{README}:Library tour", "exec"), {})
