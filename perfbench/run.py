"""Run one workload of the ModelarDB+ benchmark.

    python3 perfbench/run.py --workload <ingest|query-scan|query-select> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source (see build.py), then runs
perfbench.Main in one JVM with Spark on local[4]. The last line of standard
output is the result as one JSON object; a traced run (--trace 1) also
writes its spans under <build dir>/perfbench/out. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("ingest", "query-scan", "query-select")
HEAP = "3g"
RUN_TIMEOUT_S = 170

# Opens that Spark needs on Java 17 (what spark-submit passes to the JVM).
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def git_revision():
    if not os.path.isdir(os.path.join(build.ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classpath, digest = build.build()
    except (build.BuildError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2

    out = os.path.join(build.build_dir(), "out")
    tmp = os.path.join(out, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_REVISION=git_revision(), PERFBENCH_SOURCE_SHA256=digest)
    cmd = (["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"] + JAVA_OPENS +
           ["-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=build.ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(f"perfbench: run failed with exit code {proc.returncode}\n")
        return proc.returncode if proc.returncode > 0 else 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: the run printed no result line\n")
        return 4
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
