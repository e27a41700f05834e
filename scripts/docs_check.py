#!/usr/bin/env python3
"""Docs lane: keep the documentation from silently rotting.

Three checks, all cheap enough to run on every push:

1. Link check — every relative markdown link in docs/*.md and README.md
   must point at a file that exists in the repo (anchors are stripped;
   external http(s)/mailto links are skipped: CI must not depend on the
   network).
2. Subsystem guard — every `src/<subsystem>/` directory must be named in
   docs/architecture.md's subsystem map. Adding a new subsystem without
   documenting where it sits in the architecture fails CI.
3. Knob guard — the set of "DIMMUNIX_*" environment names that src/ reads
   (as string literals) must equal the list in Config::FromEnvironment's
   comment in src/common/config.h, so a new knob is documented and a
   deleted one cannot linger in the canonical list.

Exit status is the number of violations (0 = clean).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — good enough for the hand-written markdown in this repo;
# fenced code blocks are excluded below so code samples can't false-positive.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def strip_fenced_code(text: str) -> str:
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_links(md_path: pathlib.Path) -> list[str]:
    errors = []
    text = strip_fenced_code(md_path.read_text(encoding="utf-8"))
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # pure in-page anchor
            continue
        resolved = (md_path.parent / path_part).resolve()
        if not resolved.exists():
            errors.append(f"{md_path.relative_to(ROOT)}: broken link -> {target}")
    return errors


def check_subsystems() -> list[str]:
    arch = ROOT / "docs" / "architecture.md"
    if not arch.exists():
        return ["docs/architecture.md is missing"]
    text = arch.read_text(encoding="utf-8")
    errors = []
    for sub in sorted((ROOT / "src").iterdir()):
        if not sub.is_dir():
            continue
        needle = f"src/{sub.name}/"
        if needle not in text:
            errors.append(
                f"docs/architecture.md: subsystem {needle} is not documented "
                "(add it to the subsystem map)"
            )
    return errors


# A knob is read through a string literal naming it whole ("DIMMUNIX_TAU_MS");
# names inside messages ("set DIMMUNIX_IPC") are prose, not reads.
KNOB_LITERAL_RE = re.compile(r'"(DIMMUNIX_[A-Z0-9_]+)"')
KNOB_NAME_RE = re.compile(r"\bDIMMUNIX_[A-Z0-9_]+")


def check_env_knobs() -> list[str]:
    read = set()
    for src in sorted((ROOT / "src").rglob("*")):
        if src.suffix in (".h", ".cc"):
            read.update(KNOB_LITERAL_RE.findall(src.read_text(encoding="utf-8")))
    header = (ROOT / "src" / "common" / "config.h").read_text(encoding="utf-8")
    match = re.search(
        r"// Reads DIMMUNIX_\* environment variables.*?\n((?:\s*//.*\n)+)", header
    )
    if match is None:
        return ["src/common/config.h: Config::FromEnvironment knob list not found"]
    listed = set(KNOB_NAME_RE.findall(match.group(1)))
    errors = [
        f"src/common/config.h: {name} is read by src/ but missing from the "
        "Config::FromEnvironment knob list"
        for name in sorted(read - listed)
    ]
    errors += [
        f"src/common/config.h: {name} is listed for Config::FromEnvironment but "
        "nothing in src/ reads it"
        for name in sorted(listed - read)
    ]
    return errors


def main() -> int:
    errors = []
    for md in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        errors.extend(check_links(md))
    errors.extend(check_subsystems())
    errors.extend(check_env_knobs())
    for err in errors:
        print(f"docs-check: {err}", file=sys.stderr)
    if not errors:
        print(
            "docs-check: all links resolve, all subsystems documented, "
            "env knob list matches src/"
        )
    return min(len(errors), 99)


if __name__ == "__main__":
    sys.exit(main())
