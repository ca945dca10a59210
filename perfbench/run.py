#!/usr/bin/env python3
"""Explain3D benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload imdb-templates --seed 1 --seconds 8 --trace 0

Builds the benchmark (the program's sources plus perfbench/src) with sbt
into .bench_build/ when the sources changed since the last build, then runs
one workload in a single JVM and passes its report through. The last line
of standard output is the JSON result. Exits non-zero without a result when
the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
HEAP = "3g"

SBT_OFFLINE = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
               + str(Path.home() / ".sbt" / "repositories")
               + " -Dsbt.offline=true -Xmx2g")

JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main" / "scala", BENCH / "src"):
        inputs += sorted(p for p in d.rglob("*") if p.is_file())
    for p in inputs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Returns the runtime classpath, compiling first when needed."""
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    stamp = source_stamp()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", SBT_OFFLINE)
    log("building with sbt (first run in this checkout)")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime / fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"build failed (sbt exit {proc.returncode})")
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def main():
    if not (ROOT / "src" / "main" / "scala").is_dir():
        raise SystemExit("program sources not found: run from a checkout of the repository")
    cp = build()
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={BENCH / 'src/main/resources/log4j2.properties'}"]
           + JAVA_MODULE_OPTS + ["-cp", cp, "repro.perfbench.Main"] + sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"run exceeded {RUN_TIMEOUT_S}s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
