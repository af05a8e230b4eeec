import re
from pathlib import Path

import permspec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_section_names_only_exported_identifiers():
    """A public name deleted from the package cannot linger in README's
    *Library* section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert names, "no backticked identifier in the Library section"
    assert sorted(set(names) - set(permspec.__all__)) == []
