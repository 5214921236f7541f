"""Build of the ModelarDB+ benchmark.

Compiles the program's sources (src/main/scala) together with the benchmark's
own (perfbench/src) with the Scala compiler that ships in the Spark
distribution under $SPARK_HOME/jars, which also supplies the classpath. The
classes go to <build dir>/perfbench/classes; a build is reused while the
sources, the compiler and the Spark jars are unchanged.

    python3 perfbench/build.py      # prints the classpath to run with
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BuildError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    jars = os.path.join(home, "jars") if home else ""
    if not home or not glob.glob(os.path.join(jars, "spark-sql_*.jar")):
        raise BuildError("SPARK_HOME must point at a Spark distribution with jars/")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no scala-compiler jar under $SPARK_HOME/jars")
    return jars


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src/main/scala/**/*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(HERE, "src/**/*.scala"), recursive=True))
    if not program:
        raise BuildError("no program sources under src/main/scala")
    if not bench:
        raise BuildError("no benchmark sources under perfbench/src")
    return program + bench


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; returns (classpath, source digest)."""
    jars = spark_jars()
    files = sources()
    digest = source_digest(files)
    jar_stamp = ",".join(sorted(os.path.basename(j) for j in glob.glob(os.path.join(jars, "*.jar"))))
    stamp = hashlib.sha256((digest + jar_stamp).encode()).hexdigest()

    out = build_dir()
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "build.stamp")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classpath, digest

    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    argfile = os.path.join(out, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + out,
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", classes, "@" + argfile]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise BuildError("compilation failed")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.stderr.write(f"build: {e}\n")
        sys.exit(2)
