package repro.core.views

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestStore}
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.data.TimeSeriesGen

class SegmentViewSpec extends SparkSpec {

  private lazy val built = TestStore.build(
    spark,
    TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.02),
    clauses = Seq(Correlation.Auto()),
    golemm = GolemmConfig(epsilonPct = 0.0),
  )

  private def view = ModelarDB.segmentView(spark, built.cfg, built.catalog)

  test("one row per represented series per segment") {
    // count of exploded rows == sum over segments of present-member count
    val expected = TestStore.segments(built.cfg.storePath).map { s =>
      built.catalog.membersOf(s.gid).indices.count(i => (s.gaps & (1L << i)) == 0)
    }.sum
    assert(view.count() == expected.toLong)
  }

  test("sidx and nseries are consistent within a segment") {
    val rows = view.select("gid", "start_time", "sidx", "nseries")
      .collect().groupBy(r => (r.getInt(0), r.getLong(1)))
    rows.values.foreach { rs =>
      val n = rs.head.getInt(3)
      assert(rs.length == n)
      assert(rs.map(_.getInt(2)).sorted.toSeq == (0 until n))
    }
  }

  test("gapped series do not appear in their gap segments") {
    val ds = built.dataset
    // a tid's total reconstructed count equals its raw point count
    Udafs.register(spark)
    val got = view.groupBy("tid")
      .agg(expr(s"COUNT_S(${Udafs.SegArgsSql})").as("n")).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    val raw = ds.points.groupBy("tid").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(got == raw)
  }

  test("time range keeps only overlapping segments") {
    val si = built.dataset.series.head.si
    val to = 50L * si
    val limited = ModelarDB.segmentView(spark, built.cfg, built.catalog,
                                        timeRange = Some((0L, to)))
    val rows = limited.select("start_time", "end_time").collect()
    assert(rows.nonEmpty)
    rows.foreach(r => assert(r.getLong(0) <= to && r.getLong(1) >= 0L))
    // and no segment that ends before the range or starts after it survives
    assert(view.filter(col("start_time") > to).count() > 0, "sanity: data beyond range exists")
  }

  test("a member's tids restrict the view to the series carrying it") {
    val sv   = ModelarDB.segmentView(spark, built.cfg, built.catalog,
                                     tids = Some(built.catalog.tidsForMember("Measure", 1, "power")))
    val tids = sv.select("tid").distinct().collect().map(_.getInt(0)).toSet
    val expected = built.catalog.series
      .filter(_.dims("Measure")(0) == "power").map(_.tid).toSet
    assert(tids == expected)
  }
}
