package repro.core.storage

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.bench.Stores
import repro.core.Types.SegmentRecord

class SegmentSourceSpec extends SparkSpec {

  private def seg(gid: Int, start: Long, end: Long, si: Int = 100): SegmentRecord =
    SegmentRecord(gid, start, end, si, 1,
                  java.nio.ByteBuffer.allocate(4).putFloat(1.5f).array(), 0L)

  private def segments: Seq[SegmentRecord] =
    (1 to 4).flatMap { gid =>
      (0 until 25).map(i => seg(gid, i * 5000L, i * 5000L + 4900L))
    }

  test("bulk writeFile + DataFrame read roundtrip") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments)
    val df = spark.read.format(SegmentSource.FormatName).load(dir)
    assert(df.count() == 100)
    val row = df.filter(col("gid") === 2 && col("start_time") === 0L).head()
    assert(row.getLong(2) == 4900L && row.getInt(3) == 100 && row.getInt(4) == 1)
    assert(row.getAs[Array[Byte]]("params").length == 4)
  }

  test("write path appends files readable back") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.append(dir, spark.sparkContext.parallelize(segments, 4))
    assert(SegmentSource.listFiles(dir).nonEmpty)
    val back = spark.read.format(SegmentSource.FormatName).load(dir)
    assert(back.count() == 100)
    assert(back.select(sum("end_time")).head().getLong(0) ==
           segments.map(_.endTime).sum)
  }

  test("a failed write leaves no file in the store and no staging") {
    val dir     = Stores.tmpDir("sgmt-test")
    val staging = new java.io.File(dir, "_staging")
    val staged  = () => Option(staging.listFiles()).toSeq.flatten
      .flatMap(d => Option(d.listFiles()).toSeq.flatten).length
    val segs = spark.sparkContext.parallelize(segments, 4).mapPartitionsWithIndex { (p, it) =>
      if (p < 3) it
      else it.take(5) ++ Iterator.single(()).map { _ =>
        // fail only once the other partitions' files are staged
        val deadline = System.nanoTime() + 20000000000L
        while (staged() < 3 && System.nanoTime() < deadline) Thread.sleep(10)
        throw new IllegalStateException(s"injected failure after ${staged()} staged files")
      }
    }
    val e = intercept[org.apache.spark.SparkException](SegmentSource.append(dir, segs))
    assert(e.getMessage.contains("after 3 staged files"), e.getMessage)
    assert(SegmentSource.listFiles(dir).isEmpty)
    assert(!staging.exists())
  }

  test("gid equality filter returns exactly that group") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments)
    val df = spark.read.format(SegmentSource.FormatName).load(dir)
      .filter(col("gid") === 3)
    assert(df.count() == 25)
    assert(df.select("gid").distinct().head().getInt(0) == 3)
  }

  test("gid IN and end_time range filters compose") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments)
    val df = spark.read.format(SegmentSource.FormatName).load(dir)
      .filter(col("gid").isin(1, 4) && col("end_time") >= 50000L && col("end_time") <= 80000L)
    val expected = segments.count(s =>
      (s.gid == 1 || s.gid == 4) && s.endTime >= 50000L && s.endTime <= 80000L)
    assert(df.count() == expected.toLong)
  }

  test("file skipping: disjoint gid files are pruned by the header") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments.filter(_.gid == 1))
    SegmentSource.writeFile(dir, segments.filter(_.gid == 2))
    val (pushed, used) = SegmentSource.extract(Array(
      org.apache.spark.sql.sources.EqualTo("gid", 1)))
    assert(used.length == 1)
    val files = SegmentSource.listFiles(dir)
    val stats = files.map(f => SegmentCodec.stats(Files.readAllBytes(f.toPath)))
    assert(stats.count(pushed.matchesFile) == 1) // one of the two files skipped
  }

  test("start_time filters work (recomputed column)") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments)
    val df = spark.read.format(SegmentSource.FormatName).load(dir)
      .filter(col("start_time") >= 100000L)
    assert(df.count() == segments.count(_.startTime >= 100000L).toLong)
  }

  test("extract folds bounds and reports used filters") {
    import org.apache.spark.sql.sources._
    val (p, used) = SegmentSource.extract(Array(
      GreaterThan("end_time", 10L), LessThanOrEqual("end_time", 99L),
      GreaterThanOrEqual("gid", 2), LessThan("gid", 7),
      IsNotNull("params"), // unsupported: ignored
    ))
    assert(p.minEnd == 11L && p.maxEnd == 99L && p.minGid == 2 && p.maxGid == 6)
    assert(used.length == 4)
  }

  test("many files are read in at most one partition per core, each row once") {
    val dir = Stores.tmpDir("sgmt-test")
    segments.grouped(5).foreach(SegmentSource.writeFile(dir, _))
    val cores = spark.sparkContext.defaultParallelism
    assert(SegmentSource.listFiles(dir).length == 20 && cores < 20)
    val df = spark.read.format(SegmentSource.FormatName).load(dir)
    assert(df.rdd.getNumPartitions == cores)
    assert(df.select("gid", "start_time").distinct().count() == 100 && df.count() == 100)
  }

  test("the view forms of a store without a catalog fail at load") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments)
    val message = s"store $dir holds no catalog; ingest into it first"
    Seq(SegmentSource.ViewFormatName -> new SegmentViewSource(),
        SegmentSource.PointsFormatName -> new DataPointSource()).foreach { case (format, provider) =>
      val load = intercept[IllegalArgumentException](spark.read.format(format).load(dir))
      assert(load.getMessage == message, format)
      val table = intercept[IllegalArgumentException](provider.getTable(
        SegmentSource.Schema, Array.empty, java.util.Map.of("path", dir)))
      assert(table.getMessage == message, format)
    }
    // The raw form needs no catalog.
    assert(spark.read.format(SegmentSource.FormatName).load(dir).count() == 100)
  }

  test("reading a missing directory yields an empty frame") {
    val df = spark.read.format(SegmentSource.FormatName).load(Stores.tmpDir("sgmt-test") + "/nope")
    assert(df.count() == 0)
  }

  test("storeBytes sums the files") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments.take(10))
    SegmentSource.writeFile(dir, segments.drop(10))
    assert(SegmentSource.storeBytes(dir) ==
           SegmentSource.listFiles(dir).map(_.length()).sum)
    assert(SegmentSource.storeBytes(dir) > 0)
  }
}
