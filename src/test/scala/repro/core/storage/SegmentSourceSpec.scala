package repro.core.storage

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.bench.Stores
import repro.core.Catalog
import repro.core.Types.{Group, SegmentRecord, TimeSeriesMeta}

class SegmentSourceSpec extends SparkSpec {

  private def seg(gid: Int, start: Long, end: Long, si: Int = 100, mid: Int = 1): SegmentRecord =
    SegmentRecord(gid, start, end, si, mid,
                  java.nio.ByteBuffer.allocate(4).putFloat(1.5f).array(), 0L)

  private def segments: Seq[SegmentRecord] =
    (1 to 4).flatMap { gid =>
      (0 until 25).map(i => seg(gid, i * 5000L, i * 5000L + 4900L))
    }

  /** A catalog of one-member groups, tid = gid = 1 to 4 at SI 100, so each
    * segment is one Segment View row.
    */
  private val catalog = Catalog((1 to 4).map(TimeSeriesMeta(_, 100)),
                                (1 to 4).map(g => Group(g, IndexedSeq(g))), Nil)

  /** A new store directory that holds [[catalog]]. */
  private def store(prefix: String = "sgmt-test"): String = {
    val dir = Stores.tmpDir(prefix)
    SegmentSource.writeCatalog(dir, catalog)
    dir
  }

  private def segmentView(dir: String): DataFrame =
    spark.read.format(SegmentSource.ViewFormatName).load(dir)

  private def pointView(dir: String): DataFrame =
    spark.read.format(SegmentSource.PointsFormatName).load(dir)

  test("bulk writeFile + DataFrame read roundtrip") {
    val dir = store()
    SegmentSource.writeFile(dir, segments)
    val df = segmentView(dir)
    assert(df.count() == 100)
    val row = df.filter(col("gid") === 2 && col("start_time") === 0L).head()
    assert(row.getAs[Long]("end_time") == 4900L && row.getAs[Int]("si") == 100 && row.getAs[Int]("mid") == 1)
    assert(row.getAs[Array[Byte]]("params").length == 4)
  }

  test("write path appends files readable back") {
    val dir = store()
    SegmentSource.append(dir, spark.sparkContext.parallelize(segments, 4))
    assert(SegmentSource.listFiles(dir).nonEmpty)
    val back = segmentView(dir)
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
    val dir = store()
    SegmentSource.writeFile(dir, segments)
    val df = segmentView(dir).filter(col("gid") === 3)
    assert(df.count() == 25)
    assert(df.select("gid").distinct().head().getInt(0) == 3)
  }

  test("gid IN and end_time range filters compose") {
    val dir = store()
    SegmentSource.writeFile(dir, segments)
    val df = segmentView(dir)
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
    val dir = store()
    SegmentSource.writeFile(dir, segments)
    val df = segmentView(dir).filter(col("start_time") >= 100000L)
    assert(df.count() == segments.count(_.startTime >= 100000L).toLong)
  }

  test("extract folds bounds and reports used filters") {
    import org.apache.spark.sql.sources._
    val (p, used) = SegmentSource.extract(Array(
      GreaterThan("end_time", 10L), LessThanOrEqual("end_time", 99L),
      GreaterThanOrEqual("gid", 2), LessThan("gid", 7), // gid ranges: not pushed
      IsNotNull("params"), // unsupported: ignored
    ))
    assert(p == SegmentSource.Pushed(minEnd = 11L, maxEnd = 99L))
    assert(used.length == 2)
  }

  test("many files are read in at most one partition per core, each row once") {
    val dir = store()
    segments.grouped(5).foreach(SegmentSource.writeFile(dir, _))
    val cores = spark.sparkContext.defaultParallelism
    assert(SegmentSource.listFiles(dir).length == 20 && cores < 20)
    val df = segmentView(dir)
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
  }

  test("storeBytes sums the files") {
    val dir = Stores.tmpDir("sgmt-test")
    SegmentSource.writeFile(dir, segments.take(10))
    SegmentSource.writeFile(dir, segments.drop(10))
    assert(SegmentSource.storeBytes(dir) ==
           SegmentSource.listFiles(dir).map(_.length()).sum)
    assert(SegmentSource.storeBytes(dir) > 0)
  }

  /** Both views over the one file in `dir` fail naming it and `cause`. */
  private def assertUnreadable(file: String, cause: String): Unit = {
    val dir = new java.io.File(file).getParent
    Seq(segmentView(dir), pointView(dir)).foreach { view =>
      val e = intercept[org.apache.spark.SparkException](view.collect())
      assert(e.getMessage.contains(s"segment file $file cannot be read") && e.getMessage.contains(cause),
             e.getMessage)
    }
  }

  test("a damaged file fails the scan with its path in the message") {
    def damaged(damage: Array[Byte] => Array[Byte]): String = {
      val file = SegmentSource.writeFile(store("sgmt-damaged"), segments).toPath
      Files.write(file, damage(Files.readAllBytes(file)))
      file.toAbsolutePath.toString
    }
    Seq(
      damaged(_.take(10))                                -> "file truncated", // inside the header
      damaged(bytes => bytes.take(bytes.length - 3))     -> "file truncated", // inside the body
      damaged(bytes => Array.fill[Byte](4)(0) ++ bytes.drop(4)) -> "bad magic",
    ).foreach { case (file, cause) => assertUnreadable(file, cause) }
  }

  test("a segment with an unknown model type or no ticks fails the scan with its path") {
    def written(bad: SegmentRecord): String = {
      val file = new java.io.File(store("sgmt-damaged"), "part-bad.sgmt")
      Files.write(file.toPath, SegmentCodec.encode(segments.take(3) :+ bad))
      file.getAbsolutePath
    }
    assertUnreadable(written(seg(1, 200000L, 204900L, mid = 9)), "row 3 has model type 9, which is unknown")
    // end_time < start_time: a Size of 0
    assertUnreadable(written(seg(1, 200000L, 199900L)), "row 3 has size 0")
  }
}
