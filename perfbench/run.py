#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); cargo's
output goes to stderr, so the benchmark's own output, whose last line is the
JSON result, is all that reaches stdout. The exit code is the benchmark's:
0 when every query was correct, 1 when a query failed, 2 when the run could
not be measured; a failed build exits non-zero without printing a result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """A digest of the sources the benchmark builds, so that two results can
    be checked as coming from the same code even without version control."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for tree in (ROOT / "crates", HERE / "src"):
        files += [p for p in tree.rglob("*") if p.is_file() and "target" not in p.parts]
    digest = hashlib.sha256()
    for path in sorted(f for f in files if f.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    args = sys.argv[1:] + ["--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run([str(binary)] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
