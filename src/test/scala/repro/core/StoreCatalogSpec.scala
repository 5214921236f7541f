package repro.core

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually
import org.scalatest.time.SpanSugar._
import repro.{Oracle, SparkSpec, TestStore}
import repro.bench.Stores
import repro.core.grouping.Correlation
import repro.core.storage.SegmentSource
import repro.core.views.Udafs
import repro.data.TimeSeriesGen

/** A store holds the catalog it was written with: its path alone serves
  * both views, and an ingest or a view with another catalog is refused.
  */
class StoreCatalogSpec extends SparkSpec with Eventually {

  private lazy val built = TestStore.build(
    spark, TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01), Seq(Correlation.Auto()))

  private def path = built.cfg.storePath

  private def bySql(column: String) =
    s"SELECT CAST(tid AS INT) AS tid, SUM(CAST(value AS DOUBLE)) AS $column FROM pts GROUP BY CAST(tid AS INT)"

  test("both views open from the store's path alone and match DuckDB at eps=0") {
    Udafs.register(spark)
    Oracle.assertEquivalent(
      spark.read.format(SegmentSource.ViewFormatName).load(path)
        .groupBy("tid").agg(expr(s"SUM_S(${Udafs.SegArgsSql})").as("s")),
      bySql("s"), "pts" -> TestStore.rawDouble(built.dataset))
    Oracle.assertEquivalent(
      spark.read.format(SegmentSource.PointsFormatName).load(path)
        .groupBy("tid").agg(sum(col("value").cast("double")).as("v")),
      bySql("v"), "pts" -> TestStore.rawDouble(built.dataset))
  }

  test("an append with other clauses fails before any Spark job and leaves the store as it was") {
    val other   = ModelarDB.setup(spark, built.cfg, built.dataset.series, built.dataset.dims, Nil)
    val files   = SegmentSource.listFiles(path).map(f => f.getName -> f.length())
    val catalog = Files.readAllBytes(Paths.get(path, "catalog.json"))
    val sc      = spark.sparkContext
    try {
      sc.setJobGroup("append", "an append with another catalog")
      val e = intercept[IllegalArgumentException](
        ModelarDB.ingest(spark, built.cfg, other, built.dataset.points))
      assert(e.getMessage.matches(s"store \\Q$path\\E holds another catalog: group \\d+ differs"),
             e.getMessage)
      // The listener bus delivers job starts in order: once the marker job
      // is known, so is every job the append started.
      sc.setJobGroup("marker", "after the append")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(30.seconds))(assert(sc.statusTracker.getJobIdsForGroup("marker").nonEmpty))
      assert(sc.statusTracker.getJobIdsForGroup("append").isEmpty)
    } finally sc.clearJobGroup()
    assert(SegmentSource.listFiles(path).map(f => f.getName -> f.length()) == files)
    assert(Files.readAllBytes(Paths.get(path, "catalog.json")).sameElements(catalog))
  }

  test("a view asked for with a catalog that is not the store's fails") {
    val cat   = built.catalog
    val other = cat.copy(series = cat.series.map(s =>
      if (s.tid == cat.series.last.tid) s.copy(scaling = 2.0) else s))
    val message = s"store $path holds another catalog: series ${cat.series.last.tid} differs"
    Seq[Catalog => Any](
      ModelarDB.segmentView(spark, built.cfg, _),
      ModelarDB.dataPointView(spark, built.cfg, _),
      ModelarDB.registerViews(spark, built.cfg, _),
    ).foreach(view => assert(intercept[IllegalArgumentException](view(other)).getMessage == message))
    val empty = ModelarDB.Config(storePath = Stores.tmpDir("no-catalog"))
    assert(intercept[IllegalArgumentException](ModelarDB.segmentView(spark, empty, cat)).getMessage ==
           s"store ${empty.storePath} holds no catalog; ingest into it first")
  }

  test("the catalog file is not counted as store data") {
    assert(Files.exists(Paths.get(path, "catalog.json")))
    assert(SegmentSource.listFiles(path).forall(_.getName.endsWith(".sgmt")))
    assert(built.stats.storeBytes == SegmentSource.listFiles(path).map(_.length()).sum)
  }
}
